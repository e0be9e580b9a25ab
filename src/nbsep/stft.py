"""Forward/inverse STFT and the stack of per-frequency sequences.

Conventions (these are the contract all other modules build on):

* Analysis window: periodic Hann of length `window_len`.
* Framing: no center padding; frame t (0-based) covers samples
  ``[t * hop, t * hop + window_len)`` and the frame count is
  ``T = (L - window_len) // hop + 1``.
* Spectrum: one-sided, ``F = window_len // 2 + 1`` bins.
* Synthesis: weighted overlap-add with synthesis window equal to the
  analysis window, divided by the summed squared-window envelope.  This
  reconstructs interior samples exactly for any window; only the first and
  last ``window_len - hop`` samples (the edge ramps) are approximate.  The
  envelope is floored at 1e-2, so samples with almost no window coverage
  fade to zero instead of amplifying noise by the reciprocal of a
  vanishing window value (the envelope exceeds the floor everywhere except
  the outermost edge samples).
* Per-frequency sequences are real, shape (2M, T): row 2m is the real part
  of channel m, row 2m+1 the imaginary part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import WaveBuffer

ENVELOPE_FLOOR = 1e-2  # fade edge samples rather than divide by a vanishing window


@dataclass
class StftConfig:
    window_len: int = 512
    hop: int = 256
    sample_rate: int = 16000

    def __post_init__(self):
        if self.window_len <= 0 or self.window_len % 2:
            raise ValueError(f"window_len must be positive and even, got {self.window_len}")
        if not 0 < self.hop <= self.window_len:
            raise ValueError(f"hop must be in (0, window_len], got {self.hop}")

    @property
    def n_bins(self) -> int:
        return self.window_len // 2 + 1

    def n_frames(self, n_samples: int) -> int:
        if n_samples < self.window_len:
            raise ValueError("input too short")
        return (n_samples - self.window_len) // self.hop + 1

    def covered_len(self, n_frames: int) -> int:
        return (n_frames - 1) * self.hop + self.window_len


@dataclass
class ComplexSpectrogram:
    """STFT tensor, complex data indexed (frequency, frame, channel)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise ValueError(f"spectrogram data must be (F, T, M), got {arr.shape}")
        self.data = arr.astype(np.complex128, copy=False)

    @property
    def n_bins(self) -> int:
        return self.data.shape[0]

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]

    @property
    def n_channels(self) -> int:
        return self.data.shape[2]


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window (the DFT-even variant)."""
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(n) / n))


def synthesis_envelope(cfg: StftConfig, n_frames: int) -> np.ndarray:
    """Summed squared analysis window across overlapped frames."""
    w2 = hann_window(cfg.window_len) ** 2
    env = np.zeros(cfg.covered_len(n_frames))
    for t in range(n_frames):
        env[t * cfg.hop : t * cfg.hop + cfg.window_len] += w2
    return env


def stft(wave: WaveBuffer, cfg: StftConfig) -> ComplexSpectrogram:
    """Windowed framewise rFFT of every channel.

    Only full frames are transformed; trailing samples that do not fill a
    frame are dropped (no padding).
    """
    x = wave.data
    if not np.all(np.isfinite(x)):
        raise ValueError("invalid signal")
    if x.shape[1] < cfg.window_len:
        raise ValueError("input too short")
    t_frames = cfg.n_frames(x.shape[1])
    w = hann_window(cfg.window_len)
    idx = np.arange(cfg.window_len)[None, :] + cfg.hop * np.arange(t_frames)[:, None]
    frames = x[:, idx] * w  # (M, T, W)
    spec = np.fft.rfft(frames, axis=-1)  # (M, T, F)
    return ComplexSpectrogram(spec.transpose(2, 1, 0))


def istft(spec: ComplexSpectrogram, cfg: StftConfig, out_len: int) -> WaveBuffer:
    """Weighted overlap-add synthesis back to a waveform of `out_len` samples.

    Samples past the synthesized span (when `out_len` exceeds it) are zero.
    """
    if spec.n_bins != cfg.n_bins:
        raise ValueError(
            f"spectrogram has {spec.n_bins} bins but config implies {cfg.n_bins}"
        )
    w = hann_window(cfg.window_len)
    frames = np.fft.irfft(spec.data.transpose(2, 1, 0), n=cfg.window_len, axis=-1)  # (M, T, W)
    frames *= w
    synth = cfg.covered_len(spec.n_frames)
    y = np.zeros((spec.n_channels, synth))
    for t in range(spec.n_frames):
        y[:, t * cfg.hop : t * cfg.hop + cfg.window_len] += frames[:, t, :]
    env = synthesis_envelope(cfg, spec.n_frames)
    y /= np.maximum(env, ENVELOPE_FLOOR)
    if out_len <= synth:
        y = y[:, :out_len]
    else:
        y = np.pad(y, [(0, 0), (0, out_len - synth)])
    return WaveBuffer(y, cfg.sample_rate)


def all_frequency_sequences(spec: ComplexSpectrogram) -> np.ndarray:
    """Every bin's real-valued (2M, T) sequence, stacked into (F, 2M, T).

    Row 2m holds the real part of channel m, row 2m+1 the imaginary part.
    """
    out = np.empty((spec.n_bins, 2 * spec.n_channels, spec.n_frames))
    out[:, 0::2, :] = spec.data.real.transpose(0, 2, 1)
    out[:, 1::2, :] = spec.data.imag.transpose(0, 2, 1)
    return out
