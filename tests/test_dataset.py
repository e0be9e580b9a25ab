import threading

import numpy as np
import pytest

from nbsep import dataset, parallel, roomsim, stft
from nbsep.audio import WaveBuffer, read_wav, write_wav

CFG8K = stft.StftConfig(sample_rate=8000)


def tiny_scene(seed=0, n_mics=2):
    scene = roomsim.sample_scene(seed, n_mics=n_mics)
    scene.rt60 = 0.15  # keep image counts small
    return scene


def speechish(rng, n, rate):
    t = np.arange(n) / rate
    return WaveBuffer(
        np.sin(2 * np.pi * 220 * t) * (0.4 + 0.3 * np.sin(2 * np.pi * 3 * t))
        + 0.1 * rng.standard_normal(n),
        rate,
    )


def test_placement_arithmetic_half_overlap():
    span, onset2 = dataset.placement_spans(0.5, 64000)
    assert span == 48000
    assert onset2 == 16000
    assert 2 * span - 64000 == 32000  # overlap region


@pytest.mark.parametrize("ratio", [0.1, 0.25, 0.5, 0.77, 1.0])
def test_overlap_region_within_one_sample(ratio):
    out_len = 64000
    span, onset2 = dataset.placement_spans(ratio, out_len)
    overlap = span - onset2
    assert abs(overlap - ratio * out_len) <= 1.0


def test_overlap_ratio_range_checked():
    with pytest.raises(ValueError, match="overlap_ratio"):
        dataset.placement_spans(0.05, 1000)
    with pytest.raises(ValueError, match="overlap_ratio"):
        dataset.placement_spans(1.2, 1000)


@pytest.fixture(scope="module")
def example():
    rng = np.random.default_rng(0)
    out_len = CFG8K.covered_len(CFG8K.n_frames(8000))
    s1 = speechish(rng, out_len, 8000)
    s2 = speechish(rng, out_len, 8000)
    return dataset.mix_pair(s1, s2, 0.5, tiny_scene(), out_len=out_len, stft_cfg=CFG8K)


def test_mixture_is_sum_of_spatial_images(example):
    # rebuild the per-speaker images at every channel and check additivity
    mix = example.mixture_wave.data
    rel = np.abs(mix.sum()) if mix.sum() else 1.0
    # target waves are reference-channel images; check channel 0 exactly
    resum = example.target_waves.data.sum(axis=0)
    err = np.max(np.abs(mix[dataset.REFERENCE_CHANNEL] - resum))
    assert err / max(np.max(np.abs(mix)), 1e-12) < 1e-6
    del rel


def test_full_overlap_both_speakers_active():
    rng = np.random.default_rng(1)
    out_len = CFG8K.covered_len(CFG8K.n_frames(8000))
    s1 = speechish(rng, out_len, 8000)
    s2 = speechish(rng, out_len, 8000)
    ex = dataset.mix_pair(s1, s2, 1.0, tiny_scene(1), out_len=out_len, stft_cfg=CFG8K)
    energy = ex.target_waves.data**2
    # both images carry energy in both halves of the segment
    for n in range(2):
        assert energy[n, : out_len // 2].sum() > 0
        assert energy[n, out_len // 2 :].sum() > 0


def test_activity_mask_matches_placement(example):
    # speaker 2's image must be silent before its onset (minus RIR pre-ring)
    out_len = example.mixture_wave.n_samples
    span, onset2 = dataset.placement_spans(0.5, out_len)
    img2 = example.target_waves.data[1]
    assert np.max(np.abs(img2[: onset2 - 1])) < 1e-12  # FFT convolution noise floor
    assert np.max(np.abs(img2[onset2:])) > 1e-3
    img1 = example.target_waves.data[0]
    assert np.max(np.abs(img1[:span])) > 0.0
    del img1


def test_short_dry_source_rejected():
    scene = tiny_scene()
    s_short = WaveBuffer(np.ones(100), 8000)
    s_ok = WaveBuffer(np.ones(20000), 8000)
    with pytest.raises(ValueError, match="shorter than its placed span"):
        dataset.mix_pair(s_short, s_ok, 0.5, scene, out_len=7936, stft_cfg=CFG8K)


def test_normalize_unit_reference_mean():
    data = np.zeros((2, 3, 10), dtype=complex)
    data[0, 1] = 2.0  # reference channel of bin 1: |X| = 2 everywhere
    seqs, norm = dataset.normalize_spectrogram(data)
    assert norm.scale[1] == 2.0
    mags = np.hypot(seqs[1, 0], seqs[1, 1])
    np.testing.assert_allclose(mags.mean(), 1.0, rtol=1e-12)


def test_normalize_silent_frequency_floors_at_eps():
    data = np.ones((2, 3, 6), dtype=complex)
    data[:, 2] = 0.0  # bin 2 is silent on every channel
    seqs, norm = dataset.normalize_spectrogram(data)
    assert norm.scale[2] == dataset.NORM_EPS
    assert np.all(seqs[2] == 0.0)


def test_normalize_matches_direct_mean_of_moduli():
    rng = np.random.default_rng(2)
    data = rng.standard_normal((3, 4, 32)) + 1j * rng.standard_normal((3, 4, 32))
    _, norm = dataset.normalize_spectrogram(data)
    direct = np.mean(np.hypot(data.real[0], data.imag[0]), axis=1)
    np.testing.assert_allclose(norm.scale, direct, rtol=1e-12)


def test_normalize_spectrogram_matches_per_bin(example):
    spec = stft.stft(example.mixture_wave, CFG8K)
    seqs, norm = dataset.normalize_spectrogram(spec)
    f = 17
    scale_direct = np.abs(spec[0, f]).mean()
    assert norm.scale[f] == pytest.approx(scale_direct, rel=1e-12)
    np.testing.assert_allclose(seqs[f], stft.all_frequency_sequences(spec)[f]
                               / scale_direct, atol=1e-12)


def make_sources(tmp_path, n=4, rate=16000, seconds=4.5):
    rng = np.random.default_rng(42)
    paths = []
    for i in range(n):
        wav = speechish(rng, int(seconds * rate), rate)
        p = tmp_path / f"src{i}.wav"
        write_wav(p, wav)
        paths.append(p)
    return paths


def test_generate_dataset_reproducible(tmp_path):
    cfg = stft.StftConfig(sample_rate=8000)
    rng = np.random.default_rng(9)
    paths = []
    for i in range(3):
        p = tmp_path / f"s{i}.wav"
        write_wav(p, speechish(rng, 16000, 8000))
        paths.append(p)
    m1 = dataset.generate_dataset(paths, tmp_path / "a", 2, seed=7, stft_cfg=cfg,
                                  out_len=7936, n_mics=2, max_order=1)
    m2 = dataset.generate_dataset(paths, tmp_path / "b", 2, seed=7, stft_cfg=cfg,
                                  out_len=7936, n_mics=2, max_order=1)
    for f1, f2 in zip(sorted((tmp_path / "a").iterdir()), sorted((tmp_path / "b").iterdir())):
        assert f1.name == f2.name
        assert f1.read_bytes() == f2.read_bytes(), f1.name
    entries = dataset.read_manifest(m1)
    assert len(entries) == 2
    assert [e["images"] for e in entries] == [27, 27]  # order 1: 3 images per axis
    assert 0.1 <= entries[0]["overlap_ratio"] <= 1.0
    ex = dataset.load_example(entries[0], tmp_path / "a", cfg)
    assert ex.mixture_wave.n_channels == 2
    assert ex.n_speakers == 2
    assert ex.example_id == "ex000000"


def test_generate_dataset_parallel_matches_serial(tmp_path):
    cfg = stft.StftConfig(sample_rate=8000)
    rng = np.random.default_rng(10)
    paths = []
    for i in range(3):
        p = tmp_path / f"s{i}.wav"
        write_wav(p, speechish(rng, 16000, 8000))
        paths.append(p)
    dataset.generate_dataset(paths, tmp_path / "serial", 3, seed=1, stft_cfg=cfg,
                             out_len=7936, n_mics=2, max_order=1, workers=1)
    dataset.generate_dataset(paths, tmp_path / "par", 3, seed=1, stft_cfg=cfg,
                             out_len=7936, n_mics=2, max_order=1, workers=3)
    for f1, f2 in zip(sorted((tmp_path / "serial").iterdir()), sorted((tmp_path / "par").iterdir())):
        assert f1.read_bytes() == f2.read_bytes(), f1.name


def test_generate_dataset_takes_no_stft(tmp_path, monkeypatch):
    # a corpus is waveforms only: the same files, byte for byte, with stft.stft unusable
    cfg = stft.StftConfig(sample_rate=8000)
    rng = np.random.default_rng(12)
    paths = []
    for i in range(3):
        p = tmp_path / f"s{i}.wav"
        write_wav(p, speechish(rng, 16000, 8000))
        paths.append(p)
    kwargs = dict(stft_cfg=cfg, out_len=7936, n_mics=2, max_order=1)
    dataset.generate_dataset(paths, tmp_path / "plain", 2, seed=3, **kwargs)

    def no_stft(*args, **kwargs):
        raise AssertionError("stft.stft called while generating a corpus")

    monkeypatch.setattr(stft, "stft", no_stft)
    dataset.generate_dataset(paths, tmp_path / "patched", 2, seed=3, **kwargs)
    plain = sorted((tmp_path / "plain").iterdir())
    patched = sorted((tmp_path / "patched").iterdir())
    assert [f.name for f in plain] == [f.name for f in patched] and len(plain) == 9
    for f1, f2 in zip(plain, patched):
        assert f1.read_bytes() == f2.read_bytes(), f1.name


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_example_keeps_earlier_manifest_entries(tmp_path, monkeypatch, workers):
    cfg = stft.StftConfig(sample_rate=8000)
    rng = np.random.default_rng(10)
    paths = []
    for i in range(3):
        p = tmp_path / f"s{i}.wav"
        write_wav(p, speechish(rng, 16000, 8000))
        paths.append(p)
    real = dataset._generate_one

    def fail_at_two(index, *args):
        if index == 2:
            raise RuntimeError("example 2 failed")
        return real(index, *args)

    monkeypatch.setattr(dataset, "_generate_one", fail_at_two)
    out = tmp_path / "corpus"
    with pytest.raises(RuntimeError, match="example 2 failed"):
        dataset.generate_dataset(paths, out, 3, seed=1, stft_cfg=cfg, out_len=7936,
                                 n_mics=2, max_order=1, workers=workers)
    assert not (out / "manifest.jsonl").exists()
    entries = dataset.read_manifest(out / "manifest.jsonl.partial")
    assert [e["id"] for e in entries] == ["ex000000", "ex000001"]


def test_wav_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    wav = WaveBuffer(rng.standard_normal((3, 500)) * 0.5, 16000)
    write_wav(tmp_path / "x.wav", wav)
    back = read_wav(tmp_path / "x.wav", expect_rate=16000)
    assert back.n_channels == 3
    np.testing.assert_allclose(back.data, wav.data, atol=1e-7)  # float32 quantization
    with pytest.raises(ValueError, match="sample rate"):
        read_wav(tmp_path / "x.wav", expect_rate=8000)


def test_generate_dataset_rejects_a_multichannel_source(tmp_path):
    rng = np.random.default_rng(10)
    paths = [tmp_path / "mono.wav", tmp_path / "stereo.wav"]
    write_wav(paths[0], speechish(rng, 16000, 8000))
    write_wav(paths[1], WaveBuffer(np.stack([speechish(rng, 16000, 8000).data[0]] * 2), 8000))
    with pytest.raises(ValueError, match=r"stereo\.wav: 2 channels, a source must be mono"):
        dataset.generate_dataset(paths, tmp_path / "out", 1, seed=3, stft_cfg=CFG8K,
                                 out_len=7936, n_mics=2, max_order=1)


def test_mix_pair_spreads_its_two_convolutions_where_its_rir_spreads(monkeypatch):
    if parallel.usable_cpus() < 2:
        pytest.skip("needs 2 usable CPUs")
    rng = np.random.default_rng(12)
    s1, s2 = speechish(rng, 7000, 8000), speechish(rng, 7000, 8000)
    scene = tiny_scene(5)
    main, threads = threading.get_ident(), []
    real = roomsim.next_fast_len  # called once by each spatialize

    def spy(n):
        threads.append(threading.get_ident())
        return real(n)

    def mix():
        threads.clear()
        ex = dataset.mix_pair(s1, s2, 0.5, scene, out_len=7936, stft_cfg=CFG8K)
        return ex.mixture_wave.data, ex.target_waves.data

    monkeypatch.setattr(roomsim, "next_fast_len", spy)
    monkeypatch.setenv("NBC_THREADS", "2")
    few_images = mix()  # below PAIR_THREADS_MIN_IMAGES: in order on this thread
    assert threads == [main, main]
    monkeypatch.setattr(roomsim, "PAIR_THREADS_MIN_IMAGES", roomsim.image_count(scene))
    spread = mix()  # on pool workers; a fast worker may take both
    assert len(threads) == 2 and main not in threads
    library = roomsim.spatialize
    monkeypatch.setattr(roomsim, "spatialize", lambda *args: library(*args))  # a tracer, say
    replaced = mix()  # a wrapper may not expect two threads: in order on this thread
    assert threads == [main, main]
    monkeypatch.setattr(roomsim, "spatialize", library)
    monkeypatch.setenv("NBC_THREADS", "1")
    serial = mix()
    assert threads == [main, main]
    for got in (spread, replaced, serial):
        assert all(np.array_equal(a, b) for a, b in zip(got, few_images))
