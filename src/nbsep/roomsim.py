"""Shoebox image-method room simulation and randomized scene sampling.

Scenes follow the data-generation recipe used throughout this toolkit:
rooms with length/width in [3, 8] m and height in [3, 4] m, RT60 in
[0.1, 1.0] s, a horizontal circular microphone array (radius 5 cm) near the
room center at 1.5 m height, and speakers at 1.5 m height at least 0.5 m
from every wall, with the angular separation of the two speakers (seen from
the array center) drawn uniformly from [0, 180] degrees.

The simulator converts RT60 to one uniform wall reflection coefficient via
Sabine's formula and sums image sources with amplitude ``1 / (4 pi d)`` at
fractional delay ``d / c``, realized with an 81-tap Hann-windowed sinc.
The kernel at tap offset r from an image's integer delay, ``h(r - f)`` for
fractional part f in [0, 1), is entire in f, so its Chebyshev series in
``x = 2f - 1`` reaches round-off at degree `SINC_CHEB_DEGREE` = 17 (within
4e-15 of np.sinc times the Hann cosine for all 80 offsets).  A pair sums
per integer delay the moments ``amp * T_d(x)`` of its images, one
`bincount` per degree, then turns them into taps with one small matrix
product; on 65,536 random images that is within 1.3e-15 of the peak tap
of the direct per-offset sum.

`simulate_rir` runs its mic-speaker pairs on `parallel.worker_count()`
threads once a pair has `PAIR_THREADS_MIN_IMAGES` images (from an RT60 of
0.26-0.39 s in recipe rooms; 75 % of recipe scenes have more), and in
order on the calling thread below that or when that thread is already a
pool worker (a corpus making several mixtures at once); either way
OpenBLAS runs at one thread.  Each pair writes only its own row of the
taps, so the result does not depend on the thread count.  A pair adds its images to its moments in blocks of whole x-cells
of about `IMAGE_BLOCK` images, so a worker's temporaries stay near eight
arrays of that size plus 18 moment rows as long as the taps, whatever the
RT60 and room size; the block edges follow from the image orders alone.

`spatialize` convolves a dry signal with one speaker's RIRs through
numpy's FFT at a 5-smooth length (`next_fast_len`).  `dataset.mix_pair`
runs its two speakers' calls at once by the `rir_threads` rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import parallel
from .audio import WaveBuffer

SPEED_OF_SOUND = 343.0
SINC_HALF_WIDTH = 40  # 81-tap interpolation kernel
SINC_CHEB_DEGREE = 17  # kernel expanded in Chebyshev polynomials of the fractional delay
_TAP_ROWS = 8  # tap offsets per moment-to-tap product
IMAGE_BLOCK = 2**16  # images per moment update, rounded to whole x-cells
# Pairs with fewer images run in order: their numpy calls are too short for two
# threads to share the interpreter lock (2 vCPUs, 16-pair recipe scenes, two
# threads against one: -31 to -41 % at 4k-9k images a pair, up to -18 % at
# 14k-18k, about even at 20k, +13 to +39 % from 26k on).
PAIR_THREADS_MIN_IMAGES = 20_000
# `spatialize` transforms the mics' taps and inverts their spectra in blocks of
# up to this many bytes (at least one mic): numpy's inverse real FFT costs about
# 80 us a call besides its rows at 2 s clips, and 4 s clips still hold one mic's
# spectrum at a time
SPECTRA_BYTES = 2**20
ELIDE_BYTES = 256 * 1024  # numpy's NPY_MIN_ELIDE_BYTES

ROOM_LW_RANGE = (3.0, 8.0)
ROOM_H_RANGE = (3.0, 4.0)
RT60_RANGE = (0.1, 1.0)
ARRAY_RADIUS = 0.05
ARRAY_HEIGHT = 1.5
ARRAY_CENTER_JITTER = 0.5  # array center falls in a 1 m square at room center
SPEAKER_WALL_MARGIN = 0.5
MAX_REJECTIONS = 10_000


class SceneSamplingError(RuntimeError):
    """Rejection sampling could not satisfy the geometric constraints."""


@dataclass
class SceneConfig:
    """Sampled room geometry: dimensions, reverberation, mic/speaker layout."""

    room_dims: np.ndarray  # (3,) length, width, height in meters
    rt60: float
    mic_positions: np.ndarray  # (M, 3)
    speaker_positions: np.ndarray  # (N, 3)
    sound_speed: float = SPEED_OF_SOUND

    def __post_init__(self):
        self.room_dims = np.asarray(self.room_dims, dtype=np.float64)
        self.mic_positions = np.atleast_2d(np.asarray(self.mic_positions, dtype=np.float64))
        self.speaker_positions = np.atleast_2d(np.asarray(self.speaker_positions, dtype=np.float64))

    @property
    def n_mics(self) -> int:
        return self.mic_positions.shape[0]

    @property
    def n_speakers(self) -> int:
        return self.speaker_positions.shape[0]

    def validate(self) -> None:
        for name, pts in (("mic", self.mic_positions), ("speaker", self.speaker_positions)):
            if np.any(pts <= 0.0) or np.any(pts >= self.room_dims):
                raise ValueError(f"{name} position outside the room")

    def to_json(self) -> str:
        payload = {
            "room_dims": self.room_dims.tolist(),
            "rt60": self.rt60,
            "mic_positions": self.mic_positions.tolist(),
            "speaker_positions": self.speaker_positions.tolist(),
            "sound_speed": self.sound_speed,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "SceneConfig":
        d = json.loads(text)
        return SceneConfig(
            room_dims=np.array(d["room_dims"]),
            rt60=float(d["rt60"]),
            mic_positions=np.array(d["mic_positions"]),
            speaker_positions=np.array(d["speaker_positions"]),
            sound_speed=float(d.get("sound_speed", SPEED_OF_SOUND)),
        )

    def save(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(self.to_json() + "\n")

    @staticmethod
    def load(path) -> "SceneConfig":
        return SceneConfig.from_json(Path(path).read_text())


@dataclass
class Rir:
    """Multichannel impulse responses, taps indexed (mic, speaker, tap)."""

    taps: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.float64)
        if self.taps.ndim != 3:
            raise ValueError(f"Rir taps must be (M, N, K), got {self.taps.shape}")

    @property
    def n_mics(self) -> int:
        return self.taps.shape[0]

    @property
    def n_speakers(self) -> int:
        return self.taps.shape[1]

    @property
    def n_taps(self) -> int:
        return self.taps.shape[2]


def sample_scene(seed, n_mics: int = 8) -> SceneConfig:
    """Draw a random two-speaker scene; a fixed seed reproduces the scene bit-exactly.

    Sampling order (all from one `default_rng(seed)` stream): room length,
    width, height, RT60, array-center x/y jitter, then per attempt the
    speaker angular difference, first-speaker azimuth and the two radii.
    """
    rng = np.random.default_rng(seed)
    dims = np.array(
        [
            rng.uniform(*ROOM_LW_RANGE),
            rng.uniform(*ROOM_LW_RANGE),
            rng.uniform(*ROOM_H_RANGE),
        ]
    )
    rt60 = rng.uniform(*RT60_RANGE)

    center = np.array(
        [
            dims[0] / 2 + rng.uniform(-ARRAY_CENTER_JITTER, ARRAY_CENTER_JITTER),
            dims[1] / 2 + rng.uniform(-ARRAY_CENTER_JITTER, ARRAY_CENTER_JITTER),
            ARRAY_HEIGHT,
        ]
    )
    angles = 2.0 * np.pi * np.arange(n_mics) / n_mics
    mics = np.stack(
        [
            center[0] + ARRAY_RADIUS * np.cos(angles),
            center[1] + ARRAY_RADIUS * np.sin(angles),
            np.full(n_mics, ARRAY_HEIGHT),
        ],
        axis=1,
    )

    lo = SPEAKER_WALL_MARGIN
    r_max = 0.5 * float(np.hypot(dims[0], dims[1]))
    for _ in range(MAX_REJECTIONS):
        delta = rng.uniform(0.0, np.pi)
        theta0 = rng.uniform(0.0, 2.0 * np.pi)
        thetas = theta0 + delta * np.arange(2)
        radii = rng.uniform(0.3, r_max, size=2)
        spk = np.stack(
            [
                center[0] + radii * np.cos(thetas),
                center[1] + radii * np.sin(thetas),
                np.full(2, ARRAY_HEIGHT),
            ],
            axis=1,
        )
        in_x = np.all((spk[:, 0] >= lo) & (spk[:, 0] <= dims[0] - lo))
        in_y = np.all((spk[:, 1] >= lo) & (spk[:, 1] <= dims[1] - lo))
        if in_x and in_y:
            return SceneConfig(dims, float(rt60), mics, spk)
    raise SceneSamplingError(
        f"no admissible speaker layout after {MAX_REJECTIONS} rejections"
    )


def sabine_reflection(room_dims, rt60: float) -> float:
    """Uniform wall reflection coefficient from Sabine's formula.

    ``alpha = 0.161 V / (S T60)`` and ``beta = sqrt(1 - alpha)``.  alpha is
    clamped just below 1 when the requested RT60 is shorter than the room
    can support; rt60 == 0 means fully absorbing walls.
    """
    if rt60 <= 0.0:
        return 0.0
    length, width, height = np.asarray(room_dims, dtype=np.float64)
    volume = length * width * height
    surface = 2.0 * (length * width + length * height + width * height)
    alpha = 0.161 * volume / (surface * rt60)
    alpha = min(alpha, 1.0 - 1e-3)
    return float(np.sqrt(1.0 - alpha))


def _axis_image_coords(pos: float, length: float, order: int):
    """Mirror-cell image coordinates and wall-hit counts along one axis.

    Cell i holds the image at ``i * length + (pos if i is even else
    length - pos)``; the walk from cell 0 to cell i crosses |i| walls.
    """
    cells = np.arange(-order, order + 1)
    coords = cells * length + np.where(cells % 2 == 0, pos, length - pos)
    return coords, np.abs(cells)


def default_image_order(scene: SceneConfig) -> tuple[int, int, int]:
    """Per-axis image orders ``ceil(c T60 / 2d) + 1`` for room dimensions d.

    Along each axis the outermost image lies about ``c T60 / 2 + d`` away:
    half the RT60 decay path, not all of it.  Arrivals later than about
    T60 / 2 therefore come only from off-axis images (the corners of the
    order box reach up to sqrt(3) times as far), and the latest part of the
    decay is thinned out.
    """
    path = scene.sound_speed * max(scene.rt60, 1e-3)
    return tuple(int(np.ceil(path / (2.0 * d))) + 1 for d in scene.room_dims)


def default_rir_length(scene: SceneConfig, sample_rate: int) -> int:
    """Tap count covering the decay plus the longest direct path and kernel."""
    dists = np.linalg.norm(
        scene.mic_positions[:, None, :] - scene.speaker_positions[None, :, :], axis=-1
    )
    margin = float(dists.max()) / scene.sound_speed
    return int(np.ceil((scene.rt60 + margin) * sample_rate)) + 2 * SINC_HALF_WIDTH + 2


def image_orders(
    scene: SceneConfig, max_order: int | tuple[int, int, int] | None = None
) -> tuple[int, int, int]:
    """Per-axis image orders `simulate_rir` uses for `max_order`.

    None derives them from the RT60 (`default_image_order`); an int applies
    to all three axes.
    """
    if max_order is None:
        return default_image_order(scene)
    if np.isscalar(max_order):
        if max_order < 0:
            raise ValueError("max_order must be >= 0")
        return (int(max_order),) * 3
    return tuple(int(o) for o in max_order)


def image_count(
    scene: SceneConfig, max_order: int | tuple[int, int, int] | None = None
) -> int:
    """Image sources `simulate_rir` sums per mic-speaker pair."""
    return int(np.prod([2 * o + 1 for o in image_orders(scene, max_order)]))


def rir_threads(images: int) -> int:
    """Threads `simulate_rir` spreads its mic-speaker pairs over at `images` per pair.

    `parallel.worker_count()` from `PAIR_THREADS_MIN_IMAGES` on, else 1.  On a
    worker of another `parallel_map` pool the pairs stay on that worker.
    """
    return parallel.worker_count() if images >= PAIR_THREADS_MIN_IMAGES else 1


def simulate_rir(
    scene: SceneConfig,
    max_order: int | tuple[int, int, int] | None = None,
    n_taps: int | None = None,
    sample_rate: int = 16000,
) -> Rir:
    """Image-method impulse responses for every mic-speaker pair.

    Each image source of distance d contributes ``beta**hits / (4 pi d)``
    through an 81-tap Hann-windowed sinc centered on the fractional delay
    ``d / c * sample_rate``, summed through the kernel's Chebyshev moments
    (see the module docstring).  `max_order` bounds the per-axis image index
    (see `image_orders`); None derives it from the RT60.  The pairs run on
    `rir_threads` threads, each writing only its own row.
    """
    scene.validate()
    direct = np.linalg.norm(
        scene.mic_positions[:, None, :] - scene.speaker_positions[None, :, :], axis=-1
    )
    if np.any(direct < 1e-3):
        raise ValueError("degenerate geometry: speaker coincides with a microphone")
    orders = image_orders(scene, max_order)
    if n_taps is None:
        n_taps = default_rir_length(scene, sample_rate)

    beta = sabine_reflection(scene.room_dims, scene.rt60)
    # per speaker, each axis's image coordinates and wall factors beta**hits: the
    # weight of an image factorizes over axes for a uniform beta
    axes = []
    for src in scene.speaker_positions:
        per_axis = [_axis_image_coords(src[a], scene.room_dims[a], orders[a]) for a in range(3)]
        axes.append([(coords, beta**hits) for coords, hits in per_axis])
    # whole x-cells per block: the edges depend on the image orders alone
    cells = max(1, IMAGE_BLOCK // ((2 * orders[1] + 1) * (2 * orders[2] + 1)))
    to_samples = sample_rate / scene.sound_speed
    n_base = n_taps + SINC_HALF_WIDTH  # an image reaches a tap only if floor(c) < n_base
    taps = np.zeros((scene.n_mics, scene.n_speakers, n_taps))

    def pair(mn) -> None:
        m, n = mn
        mic = scene.mic_positions[m]
        (cx, wx), (cy, wy), (cz, wz) = axes[n]
        dx2 = (cx - mic[0]) ** 2
        dy2 = (cy - mic[1]) ** 2
        dz2 = (cz - mic[2]) ** 2
        moments = np.zeros((SINC_CHEB_DEGREE + 1, n_base))
        for lo in range(0, cx.size, cells):
            block = slice(lo, lo + cells)
            dist = np.sqrt(dx2[block, None, None] + dy2[None, :, None] + dz2[None, None, :])
            amp = (wx[block, None, None] * wy[None, :, None] * wz[None, None, :]) / (
                4.0 * np.pi * dist
            )
            dist *= to_samples  # delay in samples, in place
            _scatter_moments(moments, dist.ravel(), amp.ravel())
        # tap b + r gets sum_d C[r, d] * moments[d, b], made a few offsets r at a
        # time into a buffer that reaches W taps before tap 0 and W past the last
        # base, so kernels straddling either end of the taps need no masks
        padded = np.zeros(n_base + 2 * SINC_HALF_WIDTH)  # tap k sits at index k + W
        for lo in range(0, 2 * SINC_HALF_WIDTH, _TAP_ROWS):
            rows = _SINC_CHEB[lo : lo + _TAP_ROWS] @ moments
            for i, row in enumerate(rows, start=lo + 1):  # offset r = i - W
                padded[i : i + n_base] += row
        taps[m, n] = padded[SINC_HALF_WIDTH : SINC_HALF_WIDTH + n_taps]

    pairs = [(m, n) for n in range(scene.n_speakers) for m in range(scene.n_mics)]
    for _ in parallel.parallel_map(pair, pairs, rir_threads(image_count(scene, max_order))):
        pass
    return Rir(taps, sample_rate)


def _windowed_sinc(u: np.ndarray) -> np.ndarray:
    """The interpolation kernel ``sinc(u) * 0.5 * (1 + cos(pi u / W))`` on ``|u| <= W``."""
    return np.sinc(u) * (0.5 * (1.0 + np.cos(np.pi * u / SINC_HALF_WIDTH)))


# Row r + W - 1 holds the Chebyshev coefficients, in x = 2f - 1, of the kernel
# at tap offset r from an image's integer delay, h(r - f) for 0 <= f < 1.  Every
# offset in [-W + 1, W] lies inside the kernel; r = -W does only at f = 0, where
# the window is exactly 0, and r = W + 1 never does.
_SINC_CHEB = np.array([
    np.polynomial.chebyshev.chebinterpolate(
        lambda x, r=r: _windowed_sinc(r - 0.5 * (x + 1.0)), SINC_CHEB_DEGREE
    )
    for r in range(-SINC_HALF_WIDTH + 1, SINC_HALF_WIDTH + 1)
])
_SINC_CHEB.flags.writeable = False


def _scatter_moments(moments: np.ndarray, centers: np.ndarray, amps: np.ndarray) -> None:
    """Add one block of images to a pair's Chebyshev moments, in place.

    An image at fractional sample position ``c = b + f`` (``b = floor(c)``,
    ``0 <= f < 1``) adds ``amp * T_d(2f - 1)`` to ``moments[d, b]`` for
    every degree d, T_d taken by the three-term recurrence.  Images with
    ``b >= moments.shape[1]`` reach no tap and are dropped.  `centers` and
    `amps` serve as scratch and are overwritten.
    """
    n_base = moments.shape[1]
    keep = centers < n_base
    if not keep.all():
        centers, amps = centers[keep], amps[keep]
    base = centers.astype(np.intp)  # delays are positive: truncation is floor
    x = np.subtract(centers, base, out=centers)  # f, then 2f - 1, then 2 (2f - 1)
    x *= 2.0
    x -= 1.0
    # amp * T_(d-1), amp * T_d and a spare; T_1 stands in for T_(-1), as
    # 2x T_0 - T_1 = T_1 starts the recurrence
    prev, cur, spare = amps * x, amps, np.empty_like(x)
    x *= 2.0
    for d in range(SINC_CHEB_DEGREE + 1):
        if d:
            np.subtract(np.multiply(x, cur, out=spare), prev, out=spare)
            prev, cur, spare = cur, spare, prev
        moments[d] += np.bincount(base, weights=cur, minlength=n_base)


def next_fast_len(n: int) -> int:
    """The smallest 5-smooth length ``2**a * 3**b * 5**c >= n``, the sizes pocketfft does fastest.

    Equals ``scipy.fft.next_fast_len(n, real=True)``.
    """
    best = 1 << (n - 1).bit_length()  # the next power of two
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            quotient = -(-n // p35)  # p35 times the next power of two >= n / p35
            best = min(best, p35 << (quotient - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def spatialize(dry: WaveBuffer, rir: Rir, speaker: int) -> WaveBuffer:
    """Convolve a mono dry signal with one speaker's RIRs, one output per mic.

    The full linear convolution is truncated to the dry signal's length.
    The dry signal is transformed once, at the 5-smooth length
    `next_fast_len` of the full convolution; then one forward transform of
    the taps and one inverse serve a block of mics whose spectra fit
    `SPECTRA_BYTES`.  Each row of a block gets the bits it gets alone.
    """
    if dry.n_channels != 1:
        raise ValueError("dry signal must be mono")
    if dry.sample_rate != rir.sample_rate:
        raise ValueError(
            f"sample-rate mismatch: dry {dry.sample_rate} Hz vs RIR {rir.sample_rate} Hz"
        )
    if not 0 <= speaker < rir.n_speakers:
        raise ValueError(f"speaker index {speaker} out of range [0, {rir.n_speakers})")
    n = dry.n_samples
    n_fft = next_fast_len(n + rir.n_taps - 1)
    dry_spectrum = np.fft.rfft(dry.data[0], n_fft)
    rows = min(rir.n_mics, max(1, SPECTRA_BYTES // dry_spectrum.nbytes))
    out = np.empty((rir.n_mics, n))
    # the operand order of `dry_spectrum * np.fft.rfft(row)`, the form the
    # corpora were made with: numpy computes `a * temporary` in the temporary,
    # with the operands swapped, from ELIDE_BYTES on, and a complex product's
    # last bit depends on the operand order
    elided = dry_spectrum.nbytes >= ELIDE_BYTES
    for lo in range(0, rir.n_mics, rows):
        taps = rir.taps[lo : lo + rows, speaker]
        block = np.fft.rfft(taps, n_fft, axis=-1)
        if elided:
            block *= dry_spectrum
        else:
            np.multiply(dry_spectrum, block, out=block)
        out[lo : lo + len(taps)] = np.fft.irfft(block, n_fft)[:, :n]
    return WaveBuffer(out, dry.sample_rate)
