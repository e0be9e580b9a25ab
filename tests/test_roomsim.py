import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from nbsep import parallel, roomsim
from nbsep.audio import WaveBuffer
from nbsep.roomsim import (
    SINC_HALF_WIDTH,
    SPEED_OF_SOUND,
    Rir,
    SceneConfig,
    sabine_reflection,
    sample_scene,
    simulate_rir,
    spatialize,
)


# -- brute-force oracle ----------------------------------------------------------
# Image positions are generated by literally mirroring the source across the
# two walls of each axis, counting one wall hit per reflection, rather than by
# the closed-form cell formula the implementation uses.


def mirror_axis_images(pos, length, order):
    """[(coordinate, wall hits)] for all images of per-axis order <= `order`.

    Images are keyed by their mirror cell: a reflection across 0 maps cell i
    to -i-1, one across `length` maps it to 1-i.  Each coordinate is the
    reflections' own value, unrounded.
    """
    images = {0: (pos, 0)}
    frontier = [(0, pos)]
    for depth in range(1, order + 1):
        new = []
        for cell, c in frontier:
            for refl_cell, refl in ((-cell - 1, -c), (1 - cell, 2.0 * length - c)):
                if refl_cell not in images:
                    images[refl_cell] = (refl, depth)
                    new.append((refl_cell, refl))
        frontier = new
    return list(images.values())


def windowed_sinc_taps(out, center, amp):
    for k in range(len(out)):
        u = k - center
        if abs(u) <= SINC_HALF_WIDTH:
            out[k] += amp * np.sinc(u) * 0.5 * (1.0 + np.cos(np.pi * u / SINC_HALF_WIDTH))


def brute_force_rir(scene, order, n_taps, sample_rate):
    beta = sabine_reflection(scene.room_dims, scene.rt60)
    taps = np.zeros((scene.n_mics, scene.n_speakers, n_taps))
    for n in range(scene.n_speakers):
        src = scene.speaker_positions[n]
        xs = mirror_axis_images(src[0], scene.room_dims[0], order)
        ys = mirror_axis_images(src[1], scene.room_dims[1], order)
        zs = mirror_axis_images(src[2], scene.room_dims[2], order)
        for m in range(scene.n_mics):
            mic = scene.mic_positions[m]
            for cx, hx in xs:
                for cy, hy in ys:
                    for cz, hz in zs:
                        d = np.sqrt(
                            (cx - mic[0]) ** 2 + (cy - mic[1]) ** 2 + (cz - mic[2]) ** 2
                        )
                        amp = beta ** (hx + hy + hz) / (4.0 * np.pi * d)
                        windowed_sinc_taps(
                            taps[m, n], d / scene.sound_speed * sample_rate, amp
                        )
    return taps


# -- reference scatter -------------------------------------------------------------
# The straight-line form of the image scatter: one masked pass per tap offset,
# with np.sinc and the Hann cosine evaluated for every image on every pass.
# `simulate_rir` expands the kernel in Chebyshev polynomials of the fractional
# delay instead, so the two agree up to round-off.


def reference_scatter_sinc(out, centers, amps):
    n_taps = out.shape[0]
    base = np.floor(centers).astype(np.int64)
    for r in range(-SINC_HALF_WIDTH, SINC_HALF_WIDTH + 2):
        k = base + r
        u = k - centers
        valid = (np.abs(u) <= SINC_HALF_WIDTH) & (k >= 0) & (k < n_taps)
        if not np.any(valid):
            continue
        uu = u[valid]
        vals = amps[valid] * np.sinc(uu) * (0.5 * (1.0 + np.cos(np.pi * uu / SINC_HALF_WIDTH)))
        out += np.bincount(k[valid], weights=vals, minlength=n_taps)


def reference_rir(scene, max_order=None, n_taps=None, sample_rate=16000):
    """The images `simulate_rir` sums, all of a pair's images scattered by
    `reference_scatter_sinc` in one call."""
    orders = roomsim.image_orders(scene, max_order)
    if n_taps is None:
        n_taps = roomsim.default_rir_length(scene, sample_rate)
    beta = sabine_reflection(scene.room_dims, scene.rt60)
    taps = np.zeros((scene.n_mics, scene.n_speakers, n_taps))
    for n, src in enumerate(scene.speaker_positions):
        per_axis = [
            roomsim._axis_image_coords(src[a], scene.room_dims[a], orders[a]) for a in range(3)
        ]
        coords = np.meshgrid(*(c for c, _ in per_axis), indexing="ij")
        hits = sum(np.meshgrid(*(h for _, h in per_axis), indexing="ij"))
        for m, mic in enumerate(scene.mic_positions):
            d = np.sqrt(sum((c - p) ** 2 for c, p in zip(coords, mic))).ravel()
            amps = beta ** hits.ravel() / (4.0 * np.pi * d)
            reference_scatter_sinc(taps[m, n], d / scene.sound_speed * sample_rate, amps)
    return taps


def random_scene(rng, n_mics=2, n_speakers=1):
    dims = rng.uniform([3.0, 3.0, 2.5], [8.0, 8.0, 4.0])
    mics = rng.uniform(0.3, 1.0, size=(n_mics, 3)) * (dims - 0.6) / 1.0
    mics = np.clip(mics, 0.3, dims - 0.3)
    spk = np.clip(rng.uniform(0.5, 1.0, size=(n_speakers, 3)) * (dims - 1.0), 0.5, dims - 0.5)
    return SceneConfig(dims, float(rng.uniform(0.2, 0.9)), mics, spk)


# -- sampling ---------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_sampled_scene_satisfies_all_ranges(seed):
    scene = sample_scene(seed)
    l, w, h = scene.room_dims
    assert 3.0 <= l <= 8.0 and 3.0 <= w <= 8.0 and 3.0 <= h <= 4.0
    assert 0.1 <= scene.rt60 <= 1.0
    center = scene.mic_positions.mean(axis=0)
    assert abs(center[0] - l / 2) <= 0.5 + 1e-9
    assert abs(center[1] - w / 2) <= 0.5 + 1e-9
    np.testing.assert_allclose(scene.mic_positions[:, 2], 1.5)
    dists = np.linalg.norm(scene.mic_positions - center, axis=1)
    np.testing.assert_allclose(dists, 0.05, atol=1e-9)
    assert scene.mic_positions.shape == (8, 3)
    np.testing.assert_allclose(scene.speaker_positions[:, 2], 1.5)
    assert np.all(scene.speaker_positions[:, :2] >= 0.5 - 1e-9)
    assert np.all(scene.speaker_positions[:, :2] <= scene.room_dims[:2] - 0.5 + 1e-9)
    # angular difference seen from the array center stays within [0, 180]
    vecs = scene.speaker_positions[:, :2] - center[:2]
    angles = np.arctan2(vecs[:, 1], vecs[:, 0])
    diff = abs(angles[1] - angles[0]) % (2 * np.pi)
    assert min(diff, 2 * np.pi - diff) <= np.pi + 1e-9


def test_sample_scene_deterministic():
    a, b = sample_scene(123), sample_scene(123)
    np.testing.assert_array_equal(a.room_dims, b.room_dims)
    np.testing.assert_array_equal(a.mic_positions, b.mic_positions)
    np.testing.assert_array_equal(a.speaker_positions, b.speaker_positions)
    assert a.rt60 == b.rt60


def test_scene_json_round_trip():
    scene = sample_scene(5)
    back = SceneConfig.from_json(scene.to_json())
    np.testing.assert_array_equal(back.speaker_positions, scene.speaker_positions)
    assert back.rt60 == scene.rt60


# -- impulse responses ---------------------------------------------------------


def test_anechoic_single_arrival():
    # src-mic distance 1.7 m at c = 340 m/s -> one arrival at exactly 5 ms
    scene = SceneConfig(
        room_dims=[6.0, 5.0, 3.0],
        rt60=0.0,
        mic_positions=[[2.0, 2.0, 1.5]],
        speaker_positions=[[3.7, 2.0, 1.5]],
        sound_speed=340.0,
    )
    rir = simulate_rir(scene, max_order=0, n_taps=200, sample_rate=16000)
    taps = rir.taps[0, 0]
    peak = int(np.argmax(np.abs(taps)))
    assert peak == 80  # 5 ms at 16 kHz
    np.testing.assert_allclose(taps[peak], 1.0 / (4.0 * np.pi * 1.7), atol=1e-12)
    others = np.delete(taps, peak)
    assert np.max(np.abs(others)) < 1e-12


def test_anechoic_has_single_local_maximum():
    rng = np.random.default_rng(11)
    for _ in range(10):
        scene = random_scene(rng)
        scene.rt60 = 0.0
        rir = simulate_rir(scene, max_order=0, n_taps=800, sample_rate=16000)
        h = np.abs(rir.taps[0, 0])
        floor = h.max() * 1e-3  # -60 dB
        above = h > floor
        interior = np.arange(1, len(h) - 1)
        is_max = (h[interior] > h[interior - 1]) & (h[interior] > h[interior + 1])
        assert int(np.sum(is_max & above[interior])) == 1


@pytest.mark.parametrize("order", [0, 1, 2])
def test_matches_brute_force_enumeration(order):
    rng = np.random.default_rng(100 + order)
    for _ in range(6):
        scene = random_scene(rng, n_mics=2)
        rir = simulate_rir(scene, max_order=order, n_taps=1500, sample_rate=16000)
        want = brute_force_rir(scene, order, 1500, 16000)
        np.testing.assert_allclose(rir.taps, want, rtol=0, atol=1e-14)


def _one_pair(mic, spk, rt60=0.5, room=(5.0, 4.0, 3.0), sound_speed=SPEED_OF_SOUND):
    return SceneConfig(list(room), rt60, [mic], [spk], sound_speed=sound_speed)


SCATTER_CASES = {
    # recipe scenes with 2 mics; seed 12 has 12,375 images per pair
    "scene0": (lambda: sample_scene(0, n_mics=2), {}),
    "scene2": (lambda: sample_scene(2, n_mics=2), {}),
    "scene12": (lambda: sample_scene(12, n_mics=2), {}),
    # direct path 2 m at 16000 / 320 samples per metre: centre exactly 100.0
    "on_grid": (
        lambda: _one_pair([1.0, 2.0, 1.5], [3.0, 2.0, 1.5], sound_speed=320.0),
        {"max_order": 1, "n_taps": 600},
    ),
    # direct arrival 14 samples in: its kernel straddles tap 0
    "near_mic": (lambda: _one_pair([2.0, 2.0, 1.5], [2.3, 2.0, 1.5]), {"max_order": 2}),
    # the RIR ends inside the kernels of late arrivals
    "cut_tail": (lambda: sample_scene(2, n_mics=2), {"n_taps": 1003}),
    # 50 taps end before the direct path's kernel starts: all zero
    "before_direct": (
        lambda: _one_pair([1.0, 2.0, 1.5], [4.0, 2.0, 1.5]), {"max_order": 1, "n_taps": 50}
    ),
    # order-20 images in a 5 m room lie up to 100 m (4,700 taps) out, far beyond 2,000 taps
    "far_images": (
        lambda: _one_pair([1.0, 2.0, 1.5], [3.5, 1.0, 2.0], rt60=0.8),
        {"max_order": 20, "n_taps": 2000},
    ),
}


@pytest.mark.parametrize("case", sorted(SCATTER_CASES))
def test_scatter_matches_reference(case):
    make, kwargs = SCATTER_CASES[case]
    got = simulate_rir(make(), **kwargs).taps
    want = reference_rir(make(), **kwargs)
    peak = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-12 * peak
    if case == "before_direct":
        assert peak == 0.0 and not np.any(got)
    else:
        assert peak > 0.0


def sinc_table_error(table):
    """Worst error of a Chebyshev kernel table, rows as in `roomsim._SINC_CHEB`,
    over 10,000 fractional delays."""
    f = np.linspace(0.0, 1.0, 10_000, endpoint=False)
    worst = 0.0
    for r, coeffs in zip(range(-SINC_HALF_WIDTH + 1, SINC_HALF_WIDTH + 1), table):
        u = r - f
        want = np.sinc(u) * 0.5 * (1.0 + np.cos(np.pi * u / SINC_HALF_WIDTH))
        got = np.polynomial.chebyshev.chebval(2.0 * f - 1.0, coeffs)
        worst = max(worst, np.max(np.abs(got - want)))
    return worst


def test_sinc_chebyshev_table_matches_the_kernel():
    table = roomsim._SINC_CHEB
    assert table.shape == (2 * SINC_HALF_WIDTH, roomsim.SINC_CHEB_DEGREE + 1)
    assert not table.flags.writeable
    assert sinc_table_error(table) <= 1e-14


def test_sinc_chebyshev_degree_is_the_least_that_meets_the_bound():
    for degree in range(roomsim.SINC_CHEB_DEGREE):
        table = [
            np.polynomial.chebyshev.chebinterpolate(
                lambda x, r=r: roomsim._windowed_sinc(r - 0.5 * (x + 1.0)), degree
            )
            for r in range(-SINC_HALF_WIDTH + 1, SINC_HALF_WIDTH + 1)
        ]
        assert sinc_table_error(table) > 1e-14, degree


@pytest.mark.parametrize("seed", range(3))
def test_random_images_scatter_within_round_off_of_the_reference(seed, monkeypatch):
    # 65,536 images at random delays inside 2,000 taps, put through the moment
    # path of one simulate_rir pair in place of its single image
    rng = np.random.default_rng(seed)
    n_taps = 2000
    centers = rng.uniform(0.0, n_taps, size=2**16)
    amps = rng.uniform(0.0, 1.0, size=2**16)
    real = roomsim._scatter_moments
    monkeypatch.setattr(
        roomsim, "_scatter_moments",
        lambda moments, c, a: real(moments, centers.copy(), amps.copy()),
    )
    got = simulate_rir(_one_pair([1.0, 2.0, 1.5], [3.0, 2.0, 1.5]), max_order=0, n_taps=n_taps)
    want = np.zeros(n_taps)
    reference_scatter_sinc(want, centers, amps)
    peak = np.max(np.abs(want))
    assert np.max(np.abs(got.taps[0, 0] - want)) <= 2e-14 * peak


@pytest.mark.parametrize("max_order", [None, 2])
def test_image_count_is_what_simulate_rir_sums(max_order, monkeypatch):
    scene = sample_scene(4, n_mics=2)  # 3,135 default-order images: 11 blocks of one x-cell
    summed = Counter()  # images per (mic, speaker) pair, keyed by the pair's moments
    held = {}  # keeps each pair's moments alive, so no two pairs share an id
    real = roomsim._scatter_moments

    def spy(moments, centers, amps):  # called on the pair workers; one pair per worker
        held[id(moments)] = moments
        summed[id(moments)] += centers.size
        real(moments, centers, amps)

    monkeypatch.setattr(roomsim, "IMAGE_BLOCK", 500)
    monkeypatch.setattr(roomsim, "_scatter_moments", spy)
    simulate_rir(scene, max_order=max_order)
    assert sorted(summed.values()) == [roomsim.image_count(scene, max_order)] * 4


def test_taps_are_bit_identical_on_one_and_two_pair_threads(monkeypatch):
    scene = sample_scene(12, n_mics=3)  # 12,375 images per pair: blocks of 7, 7, 7, 4 x-cells
    if parallel.usable_cpus() < 2:
        pytest.skip("needs 2 usable CPUs")
    monkeypatch.setenv("NBC_THREADS", "2")
    monkeypatch.setattr(roomsim, "IMAGE_BLOCK", 3500)
    main, threads = threading.get_ident(), set()
    real = roomsim._scatter_moments

    def spy(moments, centers, amps):
        threads.add(threading.get_ident())
        real(moments, centers, amps)

    monkeypatch.setattr(roomsim, "_scatter_moments", spy)
    few_images_taps = simulate_rir(scene).taps  # below PAIR_THREADS_MIN_IMAGES
    assert threads == {main}
    monkeypatch.setattr(roomsim, "PAIR_THREADS_MIN_IMAGES", roomsim.image_count(scene))
    threads.clear()
    parallel_taps = simulate_rir(scene).taps
    assert len(threads) == 2 and main not in threads
    monkeypatch.setenv("NBC_THREADS", "1")
    threads.clear()
    serial_taps = simulate_rir(scene).taps
    assert threads == {main}
    assert np.array_equal(parallel_taps, serial_taps)
    assert np.array_equal(parallel_taps, few_images_taps)


def test_serial_pairs_run_their_tap_product_on_one_blas_thread(monkeypatch):
    scene = sample_scene(12, n_mics=2)  # 12,375 images per pair: the pairs run serially
    assert roomsim.rir_threads(roomsim.image_count(scene)) == 1
    want = simulate_rir(scene).taps
    blas = {"threads": 2}  # a fake thread control: the count the process runs at
    monkeypatch.setattr(parallel, "_OPENBLAS", (lambda: blas["threads"],
                                                lambda n: blas.update(threads=n)))
    seen = []

    class Rows:  # `_SINC_CHEB[...] @ moments` notes the BLAS thread count
        def __init__(self, rows):
            self.rows = rows

        def __getitem__(self, index):
            return Rows(self.rows[index])

        def __matmul__(self, other):
            seen.append(blas["threads"])
            return self.rows @ other

    monkeypatch.setattr(roomsim, "_SINC_CHEB", Rows(roomsim._SINC_CHEB))
    taps = simulate_rir(scene).taps
    assert seen and set(seen) == {1}
    assert blas["threads"] == 2
    assert np.array_equal(taps, want)


def test_more_pair_threads_than_cores_with_fast_switching_write_every_row(monkeypatch):
    scene = sample_scene(12, n_mics=4)  # 8 rows, on 4 threads that switch every microsecond
    monkeypatch.setattr(roomsim, "IMAGE_BLOCK", 1000)
    monkeypatch.setenv("NBC_THREADS", "1")
    serial_taps = simulate_rir(scene).taps
    monkeypatch.setattr(roomsim, "rir_threads", lambda images: 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded_taps = simulate_rir(scene).taps
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(threaded_taps, serial_taps)


def test_image_blocks_agree_with_one_block_per_pair(monkeypatch):
    scene = sample_scene(12, n_mics=2)
    monkeypatch.setattr(roomsim, "IMAGE_BLOCK", 10**9)
    whole = simulate_rir(scene).taps
    monkeypatch.setattr(roomsim, "IMAGE_BLOCK", 1000)  # 13 blocks of up to 2 x-cells
    blocked = simulate_rir(scene).taps
    peak = np.max(np.abs(whole))
    assert peak > 0.0
    assert np.max(np.abs(blocked - whole)) <= 1e-12 * peak


def test_simulate_rir_memory_does_not_grow_with_the_image_count():
    # 41**3 = 68,921 images against 83**3 = 571,787 (8.3x) in the same room and taps;
    # one pair, so one worker's blocks
    scene = _one_pair([1.0, 2.0, 1.5], [3.5, 1.0, 2.0], rt60=0.8)
    peaks = []
    for order in (20, 41):
        tracemalloc.start()
        try:
            simulate_rir(scene, max_order=order, n_taps=8000)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_sabine_coefficient_example():
    # 5 x 4 x 3 room at rt60 = 0.5: alpha = 0.161 V / (S T60), beta = sqrt(1-alpha)
    dims = (5.0, 4.0, 3.0)
    volume = 60.0
    surface = 2 * (20.0 + 15.0 + 12.0)
    alpha = 0.161 * volume / (surface * 0.5)
    assert sabine_reflection(dims, 0.5) == pytest.approx(np.sqrt(1 - alpha), abs=1e-12)


def test_sabine_clamps_infeasible_rt60():
    beta = sabine_reflection((8.0, 8.0, 4.0), 0.1)
    assert 0.0 < beta < 0.1  # alpha clamped just below 1


def test_energy_monotone_in_rt60():
    rng = np.random.default_rng(12)
    for _ in range(5):
        scene = random_scene(rng)
        energies = []
        for rt60 in (0.2, 0.4, 0.8):
            scene.rt60 = rt60
            rir = simulate_rir(scene, max_order=3, n_taps=4000, sample_rate=16000)
            energies.append(float(np.sum(rir.taps**2)))
        assert energies[0] <= energies[1] <= energies[2]


def test_rir_energy_decays():
    scene = sample_scene(3, n_mics=2)
    scene.rt60 = 0.3
    rir = simulate_rir(scene, sample_rate=8000)
    k = rir.n_taps
    head = float(np.sum(rir.taps[..., : k // 10] ** 2))
    tail = float(np.sum(rir.taps[..., -k // 10 :] ** 2))
    assert tail < head


def test_degenerate_geometry_error():
    scene = SceneConfig(
        room_dims=[5.0, 5.0, 3.0],
        rt60=0.2,
        mic_positions=[[2.0, 2.0, 1.5]],
        speaker_positions=[[2.0, 2.0, 1.5]],
    )
    with pytest.raises(ValueError, match="degenerate geometry"):
        simulate_rir(scene, max_order=0, n_taps=100)


# -- spatialization -----------------------------------------------------------


def test_identity_kernel_replicates_dry():
    rng = np.random.default_rng(13)
    dry = WaveBuffer(rng.standard_normal(500), 16000)
    taps = np.zeros((3, 1, 16))
    taps[:, 0, 0] = 1.0
    out = spatialize(dry, Rir(taps, 16000), 0)
    assert out.n_channels == 3
    for m in range(3):
        np.testing.assert_allclose(out.data[m], dry.data[0], atol=1e-12)


def test_shift_kernel_delays_by_10ms():
    rng = np.random.default_rng(14)
    dry = WaveBuffer(rng.standard_normal(1000), 16000)
    taps = np.zeros((1, 1, 200))
    taps[0, 0, 160] = 1.0
    out = spatialize(dry, Rir(taps, 16000), 0).data[0]
    np.testing.assert_allclose(out[160:], dry.data[0][:-160], atol=1e-12)
    np.testing.assert_allclose(out[:160], 0.0, atol=1e-12)


def test_matches_direct_convolution_oracle():
    rng = np.random.default_rng(15)
    dry = rng.standard_normal(300)
    taps = rng.standard_normal((2, 2, 64))
    out = spatialize(WaveBuffer(dry, 16000), Rir(taps, 16000), 1)
    for m in range(2):
        want = np.zeros(300)
        for i in range(300):
            for k in range(64):
                if 0 <= i - k < 300:
                    want[i] += dry[i - k] * taps[m, 1, k]
        np.testing.assert_allclose(out.data[m], want, atol=1e-10)


def test_spatialize_errors():
    dry = WaveBuffer(np.zeros(100), 16000)
    rir = Rir(np.zeros((1, 1, 8)), 16000)
    with pytest.raises(ValueError, match="out of range"):
        spatialize(dry, rir, 3)
    with pytest.raises(ValueError, match="sample-rate"):
        spatialize(WaveBuffer(np.zeros(100), 8000), rir, 0)
    with pytest.raises(ValueError, match="mono"):
        spatialize(WaveBuffer(np.zeros((2, 100)), 16000), rir, 0)


def test_next_fast_len_equals_scipys_real_fast_length():
    from scipy import fft as sp_fft

    lengths = list(range(1, 5000)) + [64_000 + 7_000 * i + 1 for i in range(40)]
    lengths += [2**40 + 1, 3**25 + 7, 10**12 + 3]
    assert [roomsim.next_fast_len(n) for n in lengths] == [
        sp_fft.next_fast_len(n, real=True) for n in lengths
    ]


# 4 s: one mic per inverse; 2 s: blocks of 3 and 2 mics, each spectrum over
# numpy's 256 KB elision size; 0.5 s and shorter: all 5 mics in one block
@pytest.mark.parametrize("n,k", [(64_000, 11_207), (32_000, 3_600), (7_936, 3_343), (501, 64)])
def test_spatialize_gives_the_bits_of_scipy_fft(n, k):
    from scipy import fft as sp_fft

    rng = np.random.default_rng(16)
    dry = WaveBuffer(rng.standard_normal(n), 16000)
    taps = rng.standard_normal((5, 2, k)) * np.exp(-np.arange(k) / (k / 6))
    out = spatialize(dry, Rir(taps, 16000), 1).data
    n_fft = sp_fft.next_fast_len(n + k - 1, real=True)
    spectrum = sp_fft.rfft(dry.data[0], n_fft)
    for m in range(5):
        want = sp_fft.irfft(spectrum * sp_fft.rfft(taps[m, 1], n_fft), n_fft)[:n]
        assert np.array_equal(out[m], want)
