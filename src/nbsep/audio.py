"""Multichannel waveform container and WAV file I/O."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile


@dataclass
class WaveBuffer:
    """Time-domain audio, data shape (channels, samples)."""

    data: np.ndarray
    sample_rate: int

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2:
            raise ValueError(f"WaveBuffer data must be 1-D or (channels, samples), got {arr.shape}")
        self.data = arr

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration(self) -> float:
        return self.data.shape[1] / self.sample_rate


def read_wav(path, expect_rate: int | None = None) -> WaveBuffer:
    """Read a 16-bit PCM or 32/64-bit float WAV as float64 in [-1, 1] scale.

    Raises ValueError on unsupported sample formats or, when `expect_rate`
    is given, on a sample-rate mismatch (no resampling is performed).
    """
    rate, data = wavfile.read(str(path))
    if data.dtype == np.int16:
        data = data.astype(np.float64) / 32768.0
    elif data.dtype in (np.float32, np.float64):
        data = data.astype(np.float64)
    elif data.dtype == np.int32:
        data = data.astype(np.float64) / 2147483648.0
    else:
        raise ValueError(f"unsupported WAV sample format {data.dtype} in {path}")
    if data.ndim == 1:
        data = data[None, :]
    else:
        data = data.T  # wavfile returns (samples, channels)
    if expect_rate is not None and rate != expect_rate:
        raise ValueError(f"{path}: sample rate {rate} Hz, expected {expect_rate} Hz")
    return WaveBuffer(data, rate)


def write_wav(path, wave: WaveBuffer) -> None:
    """Write a WaveBuffer as a float32 WAV, so estimates never clip."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    data = wave.data.T  # (samples, channels) for wavfile
    if data.shape[1] == 1:
        data = data[:, 0]
    wavfile.write(str(path), wave.sample_rate, data.astype(np.float32))
