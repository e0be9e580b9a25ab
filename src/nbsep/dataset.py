"""Mixture construction and per-frequency magnitude normalization.

A mixture places one dry utterance at the start and the other at the end of
a fixed-length segment so that the first signal's tail overlaps the second
signal's head; the overlap region is ``overlap_ratio * out_len`` samples.
Each dry signal is spatialized through its speaker's room impulse response
before summing, so the multichannel mixture is exactly the sum of the
per-speaker reverberant images.  Targets are the images at the reference
channel (channel 0).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import roomsim, stft
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
    mixture: stft.ComplexSpectrogram  # (F, T, M)
    targets: list  # N spectrograms at the reference channel, (F, T, 1)
    mixture_wave: WaveBuffer  # (M, L)
    target_waves: WaveBuffer  # (N, L), reference-channel images
    scene: roomsim.SceneConfig
    overlap_ratio: float
    example_id: str = ""

    @property
    def n_speakers(self) -> int:
        return len(self.targets)


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


def mix_pair(
    s1: WaveBuffer,
    s2: WaveBuffer,
    overlap_ratio: float,
    scene: roomsim.SceneConfig,
    out_len: int = DEFAULT_OUT_LEN,
    stft_cfg: stft.StftConfig | None = None,
    rir: roomsim.Rir | None = None,
    max_order=None,
    example_id: str = "",
) -> MixtureExample:
    """Build one two-speaker multichannel mixture with its reference targets.

    Dry signals must be mono at the configured rate and at least as long as
    their placed span; they are peak-normalized and trimmed from the front.
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

    if rir is None:
        rir = roomsim.simulate_rir(scene, max_order=max_order, sample_rate=cfg.sample_rate)
    images = [
        roomsim.spatialize(WaveBuffer(placed[n], cfg.sample_rate), rir, n) for n in range(2)
    ]
    mixture_wave = WaveBuffer(images[0].data + images[1].data, cfg.sample_rate)
    target_waves = WaveBuffer(
        np.stack([img.data[REFERENCE_CHANNEL] for img in images]), cfg.sample_rate
    )

    mixture_spec = stft.stft(mixture_wave, cfg)
    target_specs = [
        stft.stft(WaveBuffer(target_waves.data[n], cfg.sample_rate), cfg) for n in range(2)
    ]
    return MixtureExample(
        mixture=mixture_spec,
        targets=target_specs,
        mixture_wave=mixture_wave,
        target_waves=target_waves,
        scene=scene,
        overlap_ratio=float(overlap_ratio),
        example_id=example_id,
    )


def normalize(
    seq: np.ndarray, ref_channel: int = REFERENCE_CHANNEL, eps: float = NORM_EPS
) -> tuple[np.ndarray, float]:
    """Scale one frequency's (2M, T) sequence by the reference magnitude mean.

    The scale is the time-mean modulus of the reference channel, floored at
    `eps` so silent frequencies stay finite.
    """
    seq = np.asarray(seq)
    if seq.ndim != 2 or seq.shape[0] % 2:
        raise ValueError(f"expected (2M, T) sequence, got {seq.shape}")
    re = seq[2 * ref_channel]
    im = seq[2 * ref_channel + 1]
    mean_mag = float(np.mean(np.hypot(re, im)))
    scale = max(mean_mag, eps)
    return seq / scale, scale


def normalize_spectrogram(
    spec: stft.ComplexSpectrogram, ref_channel: int = REFERENCE_CHANNEL
) -> tuple[np.ndarray, NormState]:
    """Normalize every frequency of a spectrogram into a (F, 2M, T) stack."""
    seqs = stft.all_frequency_sequences(spec)
    mags = np.abs(spec.data[:, :, ref_channel]).mean(axis=1)
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
    rt60_range=roomsim.RT60_RANGE,
    workers: int = 1,
) -> Path:
    """Simulate a mixture corpus from a pool of mono WAV files.

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
            index, source_paths, out_dir, seed, cfg, out_len, n_mics, max_order, rt60_range
        )

    manifest = out_dir / "manifest.jsonl"
    partial = out_dir / "manifest.jsonl.partial"
    manifest.unlink(missing_ok=True)

    def write(entries) -> None:
        with partial.open("w") as fh:
            for entry in entries:
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
                fh.flush()

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            write(pool.map(build, range(n_examples)))
    else:
        write(map(build, range(n_examples)))
    partial.replace(manifest)
    return manifest


def _generate_one(
    index, source_paths, out_dir, seed, cfg, out_len, n_mics, max_order, rt60_range
) -> dict:
    rng = np.random.default_rng([seed, index])
    i, j = rng.choice(len(source_paths), size=2, replace=False)
    overlap = rng.uniform(*OVERLAP_RANGE)
    scene = roomsim.sample_scene(
        np.random.default_rng([seed, index, 1]), n_mics=n_mics, rt60_range=rt60_range
    )
    span, _ = placement_spans(overlap, out_len)

    drys = []
    for path in (source_paths[i], source_paths[j]):
        wav = read_wav(path, expect_rate=cfg.sample_rate)
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
    """Rehydrate a MixtureExample from its manifest entry."""
    cfg = stft_cfg or stft.StftConfig()
    base = Path(base_dir)
    mixture_wave = read_wav(base / entry["mixture"], expect_rate=cfg.sample_rate)
    target_data = [
        read_wav(base / t, expect_rate=cfg.sample_rate).data[0] for t in entry["targets"]
    ]
    target_waves = WaveBuffer(np.stack(target_data), cfg.sample_rate)
    scene = roomsim.SceneConfig.load(base / entry["scene"])
    return MixtureExample(
        mixture=stft.stft(mixture_wave, cfg),
        targets=[
            stft.stft(WaveBuffer(t, cfg.sample_rate), cfg) for t in target_data
        ],
        mixture_wave=mixture_wave,
        target_waves=target_waves,
        scene=scene,
        overlap_ratio=float(entry["overlap_ratio"]),
        example_id=entry.get("id", ""),
    )
