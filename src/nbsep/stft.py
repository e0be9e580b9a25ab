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
* Spectrogram: a complex ndarray (channels, F, T), channel-first like
  `WaveBuffer`.
* Per-frequency sequences are real, shape (2M, T): row 2m is the real part
  of channel m, row 2m+1 the imaginary part.  `all_frequency_sequences`
  and `spectra_of_sequences` are the only code that encodes or decodes
  these rows.
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
            raise ValueError(f"input too short: {n_samples} samples, "
                             f"fewer than one {self.window_len}-sample STFT window")
        return (n_samples - self.window_len) // self.hop + 1

    def covered_len(self, n_frames: int) -> int:
        return (n_frames - 1) * self.hop + self.window_len


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


def stft(wave: WaveBuffer, cfg: StftConfig) -> np.ndarray:
    """Windowed framewise rFFT of every channel: complex (M, F, T).

    Only full frames are transformed; trailing samples that do not fill a
    frame are dropped (no padding).
    """
    x = wave.data
    if not np.all(np.isfinite(x)):
        raise ValueError("signal has non-finite samples (NaN or inf)")
    t_frames = cfg.n_frames(x.shape[1])
    w = hann_window(cfg.window_len)
    idx = np.arange(cfg.window_len)[None, :] + cfg.hop * np.arange(t_frames)[:, None]
    frames = x[:, idx] * w  # (M, T, W)
    return np.fft.rfft(frames, axis=-1).transpose(0, 2, 1)


def istft(spec: np.ndarray, cfg: StftConfig, out_len: int) -> WaveBuffer:
    """Weighted overlap-add synthesis of complex (M, F, T) to (M, `out_len`) samples.

    Samples past the synthesized span (when `out_len` exceeds it) are zero.
    """
    n_channels, n_bins, n_frames = spec.shape
    if n_bins != cfg.n_bins:
        raise ValueError(f"spectrogram has {n_bins} bins but config implies {cfg.n_bins}")
    w = hann_window(cfg.window_len)
    frames = np.fft.irfft(spec.transpose(0, 2, 1), n=cfg.window_len, axis=-1)  # (M, T, W)
    frames *= w
    synth = cfg.covered_len(n_frames)
    y = np.zeros((n_channels, synth))
    for t in range(n_frames):
        y[:, t * cfg.hop : t * cfg.hop + cfg.window_len] += frames[:, t, :]
    env = synthesis_envelope(cfg, n_frames)
    y /= np.maximum(env, ENVELOPE_FLOOR)
    if out_len <= synth:
        y = y[:, :out_len]
    else:
        y = np.pad(y, [(0, 0), (0, out_len - synth)])
    return WaveBuffer(y, cfg.sample_rate)


def all_frequency_sequences(spec: np.ndarray) -> np.ndarray:
    """Every bin's real (2M, T) sequence of a complex (M, F, T) spectrogram: (F, 2M, T).

    Row 2m holds the real part of channel m, row 2m+1 the imaginary part.
    """
    n_channels, n_bins, n_frames = spec.shape
    out = np.empty((n_bins, 2 * n_channels, n_frames))
    out[:, 0::2, :] = spec.real.transpose(1, 0, 2)
    out[:, 1::2, :] = spec.imag.transpose(1, 0, 2)
    return out


def spectra_of_sequences(seqs: np.ndarray) -> np.ndarray:
    """Inverse of `all_frequency_sequences`: real (F, 2N, T) rows to complex128 (N, F, T)."""
    rows = np.asarray(seqs, dtype=np.float64)
    return (rows[:, 0::2] + 1j * rows[:, 1::2]).transpose(1, 0, 2)
