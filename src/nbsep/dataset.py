"""Mixture construction and per-frequency magnitude normalization.

A mixture places one dry utterance at the start and the other at the end of
a fixed-length segment so that the first signal's tail overlaps the second
signal's head; the overlap region is ``overlap_ratio * out_len`` samples.
Each dry signal is spatialized through its speaker's room impulse response
before summing, so the multichannel mixture is exactly the sum of the
per-speaker reverberant images.  Targets are the images at the reference
channel (channel 0).

An example is its waveforms alone: the (M, L) mixture and the (N, L)
targets, about 5 MB for 4 s at 8 mics.  No STFT is taken here; the
trainer and the model take each one where the network or the loss reads
it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import parallel, roomsim, stft
from .audio import WaveBuffer, read_wav, write_wav

REFERENCE_CHANNEL = 0
NORM_EPS = 1e-8
DEFAULT_OUT_LEN = 64000  # 4 s at 16 kHz
OVERLAP_RANGE = (0.1, 1.0)


@dataclass
class NormState:
    """Per-frequency magnitude scales (positive, length F)."""

    scale: np.ndarray

    def __post_init__(self):
        self.scale = np.asarray(self.scale, dtype=np.float64)
        if np.any(self.scale <= 0.0):
            raise ValueError("normalization scales must be positive")


@dataclass
class MixtureExample:
    mixture_wave: WaveBuffer  # (M, L)
    target_waves: WaveBuffer  # (N, L), reference-channel images
    example_id: str = ""

    @property
    def n_speakers(self) -> int:
        return self.target_waves.n_channels


def placement_spans(overlap_ratio: float, out_len: int) -> tuple[int, int]:
    """Length of each placed source and the onset of the second one.

    Source 1 occupies [0, span) and source 2 [out_len - span, out_len), so
    the overlap region is ``2 * span - out_len = overlap_ratio * out_len``.
    """
    if not OVERLAP_RANGE[0] <= overlap_ratio <= OVERLAP_RANGE[1]:
        raise ValueError(
            f"overlap_ratio {overlap_ratio} outside [{OVERLAP_RANGE[0]}, {OVERLAP_RANGE[1]}]"
        )
    span = int(round(out_len * (1.0 + overlap_ratio) / 2.0))
    return span, out_len - span


def _peak_normalize(x: np.ndarray) -> np.ndarray:
    peak = np.max(np.abs(x))
    if peak == 0.0:
        raise ValueError("dry source is silent")
    return x / peak


# spatialize's own code, which a replacement has not (a tracer also rebinds
# every module-level name of the function itself)
_SPATIALIZE_CODE = roomsim.spatialize.__code__


def mix_pair(
    s1: WaveBuffer,
    s2: WaveBuffer,
    overlap_ratio: float,
    scene: roomsim.SceneConfig,
    out_len: int = DEFAULT_OUT_LEN,
    stft_cfg: stft.StftConfig | None = None,
    max_order=None,
    example_id: str = "",
) -> MixtureExample:
    """Build one two-speaker multichannel mixture with its reference targets.

    Dry signals must be mono at `stft_cfg`'s sample rate and at least as
    long as their placed span; they are peak-normalized and trimmed from
    the front.  The two speakers' `roomsim.spatialize` calls run on
    `roomsim.rir_threads` workers, the rule the RIR's mic-speaker pairs
    follow: short RIRs keep them in order on the calling thread, and so
    does a worker of another pool or a replaced `roomsim.spatialize`.
    """
    cfg = stft_cfg or stft.StftConfig()
    if s1.n_channels != 1 or s2.n_channels != 1:
        raise ValueError("dry sources must be mono")
    for s in (s1, s2):
        if s.sample_rate != cfg.sample_rate:
            raise ValueError(f"dry source rate {s.sample_rate} != {cfg.sample_rate}")
    if scene.n_speakers < 2:
        raise ValueError("scene must place at least two speakers")

    span, onset2 = placement_spans(overlap_ratio, out_len)
    for i, s in enumerate((s1, s2)):
        if s.n_samples < span:
            raise ValueError(f"dry source {i + 1} shorter than its placed span ({span} samples)")

    placed = np.zeros((2, out_len))
    placed[0, :span] = _peak_normalize(s1.data[0][:span])
    placed[1, onset2:] = _peak_normalize(s2.data[0][:span])

    rir = roomsim.simulate_rir(scene, max_order=max_order, sample_rate=cfg.sample_rate)

    def image(n: int) -> WaveBuffer:
        return roomsim.spatialize(WaveBuffer(placed[n], cfg.sample_rate), rir, n)

    # the two convolutions share the workers where the RIR's pairs do, unless a
    # tracer or a test spy replaced spatialize: it may not expect two threads
    threads = roomsim.rir_threads(roomsim.image_count(scene, max_order))
    if getattr(roomsim.spatialize, "__code__", None) is not _SPATIALIZE_CODE:
        threads = 1
    images = list(parallel.parallel_map(image, range(2), min(threads, 2)))
    return MixtureExample(
        mixture_wave=WaveBuffer(images[0].data + images[1].data, cfg.sample_rate),
        target_waves=WaveBuffer(
            np.stack([img.data[REFERENCE_CHANNEL] for img in images]), cfg.sample_rate
        ),
        example_id=example_id,
    )


def normalize_spectrogram(spec: np.ndarray) -> tuple[np.ndarray, NormState]:
    """Normalize every frequency of a complex (M, F, T) spectrogram into a (F, 2M, T) stack.

    Each bin is scaled by the time-mean modulus of its reference channel,
    floored at `NORM_EPS` so silent frequencies stay finite.
    """
    seqs = stft.all_frequency_sequences(spec)
    mags = np.abs(spec[REFERENCE_CHANNEL]).mean(axis=1)
    scales = np.maximum(mags, NORM_EPS)
    return seqs / scales[:, None, None], NormState(scales)


# -- on-disk corpus -------------------------------------------------------------


def generate_dataset(
    source_paths,
    out_dir,
    n_examples: int,
    seed: int,
    stft_cfg: stft.StftConfig | None = None,
    out_len: int = DEFAULT_OUT_LEN,
    n_mics: int = 8,
    max_order=None,
    workers: int = 1,
) -> Path:
    """Simulate a mixture corpus from a pool of mono WAV files.

    Up to `workers` examples are made at once, each on its own thread
    (`parallel.parallel_map`); a single example runs on the calling thread.
    Every example derives its own rng stream from (seed, index), so the
    corpus is bit-identical no matter how work is distributed. Manifest
    lines are appended to ``manifest.jsonl.partial`` in index order as the
    examples finish, and the file becomes ``manifest.jsonl`` only once all
    of them are written; a stopped run leaves the entries it finished.
    Returns the manifest path.
    """
    cfg = stft_cfg or stft.StftConfig()
    if n_examples < 1:
        raise ValueError(f"n_examples must be >= 1, got {n_examples}")
    source_paths = sorted(str(p) for p in source_paths)
    if len(source_paths) < 2:
        raise ValueError("need at least two source WAV files")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def build(index: int) -> dict:
        return _generate_one(
            index, source_paths, out_dir, seed, cfg, out_len, n_mics, max_order
        )

    manifest = out_dir / "manifest.jsonl"
    partial = out_dir / "manifest.jsonl.partial"
    manifest.unlink(missing_ok=True)

    def write(entries) -> None:
        with partial.open("w") as fh:
            for entry in entries:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
                fh.flush()

    # a lone example keeps the calling thread, so its RIR can spread over the workers
    write(parallel.parallel_map(build, range(n_examples), min(workers, n_examples)))
    partial.replace(manifest)
    return manifest


def _generate_one(
    index, source_paths, out_dir, seed, cfg, out_len, n_mics, max_order
) -> dict:
    rng = np.random.default_rng([seed, index])
    i, j = rng.choice(len(source_paths), size=2, replace=False)
    overlap = rng.uniform(*OVERLAP_RANGE)
    scene = roomsim.sample_scene(np.random.default_rng([seed, index, 1]), n_mics=n_mics)
    span, _ = placement_spans(overlap, out_len)

    drys = []
    for path in (source_paths[i], source_paths[j]):
        wav = read_wav(path, expect_rate=cfg.sample_rate)
        if wav.n_channels != 1:
            raise ValueError(f"{path}: {wav.n_channels} channels, a source must be mono")
        mono = wav.data[0]
        if mono.shape[0] < span:
            raise ValueError(f"{path}: {mono.shape[0]} samples, need at least {span}")
        start = int(rng.integers(0, mono.shape[0] - span + 1))
        drys.append(WaveBuffer(mono[start : start + span], cfg.sample_rate))

    ex_id = f"ex{index:06d}"
    example = mix_pair(
        drys[0], drys[1], overlap, scene,
        out_len=out_len, stft_cfg=cfg, max_order=max_order, example_id=ex_id,
    )

    scene_path = out_dir / f"{ex_id}_scene.json"
    scene.save(scene_path)
    mix_path = out_dir / f"{ex_id}_mix.wav"
    write_wav(mix_path, example.mixture_wave)
    target_paths = []
    for n in range(example.n_speakers):
        tp = out_dir / f"{ex_id}_target{n + 1}.wav"
        write_wav(tp, WaveBuffer(example.target_waves.data[n], cfg.sample_rate))
        target_paths.append(tp.name)
    return {
        "id": ex_id,
        "images": roomsim.image_count(scene, max_order),
        "sources": [source_paths[i], source_paths[j]],
        "seed": [int(seed), int(index)],
        "overlap_ratio": overlap,
        "scene": scene_path.name,
        "mixture": mix_path.name,
        "targets": target_paths,
    }


def read_manifest(path) -> list[dict]:
    entries = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def load_example(entry: dict, base_dir, stft_cfg: stft.StftConfig | None = None) -> MixtureExample:
    """Read a MixtureExample's waveforms from its manifest entry."""
    rate = (stft_cfg or stft.StftConfig()).sample_rate
    base = Path(base_dir)
    targets = [read_wav(base / t, expect_rate=rate).data[0] for t in entry["targets"]]
    return MixtureExample(
        mixture_wave=read_wav(base / entry["mixture"], expect_rate=rate),
        target_waves=WaveBuffer(np.stack(targets), rate),
        example_id=entry.get("id", ""),
    )
