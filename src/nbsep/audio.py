"""Multichannel waveform container and WAV file I/O (a struct/numpy RIFF codec)."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


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


# WAVE format tags: PCM, IEEE float, and WAVE_FORMAT_EXTENSIBLE, whose fmt
# chunk names the real tag in the first two bytes of its sub-format GUID
_PCM, _FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
# (format tag, bits per sample) -> little-endian sample type and full scale;
# 24-bit samples are widened to int32 with the low byte zero, as scipy does
_SAMPLE_TYPES = {
    (_PCM, 16): ("<i2", 2.0**15),
    (_PCM, 24): ("<i4", 2.0**31),
    (_PCM, 32): ("<i4", 2.0**31),
    (_FLOAT, 32): ("<f4", 1.0),
    (_FLOAT, 64): ("<f8", 1.0),
}


def _riff_chunks(raw: memoryview, path):
    """(id, body) of each chunk of a RIFF/WAVE file's bytes, in file order."""
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    while pos + 8 <= len(raw):
        cid, size = struct.unpack_from("<4sI", raw, pos)
        yield cid, raw[pos + 8 : pos + 8 + size]
        pos += 8 + size + (size & 1)  # a chunk of odd size is followed by a pad byte


def read_wav(path, expect_rate: int | None = None) -> WaveBuffer:
    """Read a 16-, 24- or 32-bit PCM or 32/64-bit float WAV as float64 in [-1, 1] scale.

    Takes plain and WAVE_FORMAT_EXTENSIBLE headers and skips chunks other
    than ``fmt `` and ``data``.  Raises ValueError, naming the file, on any
    other sample format, a malformed file or, when `expect_rate` is given,
    a sample-rate mismatch (no resampling is performed).
    """
    raw = memoryview(Path(path).read_bytes())
    chunks = {}
    for cid, body in _riff_chunks(raw, path):
        chunks.setdefault(cid, body)
        if cid == b"data":
            break
    fmt, data = chunks.get(b"fmt "), chunks.get(b"data")
    if fmt is None or data is None or len(fmt) < 16:
        raise ValueError(f"{path}: WAV file without a fmt and a data chunk")
    tag, channels, rate, _, block, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _EXTENSIBLE and len(fmt) >= 26:
        (tag,) = struct.unpack_from("<H", fmt, 24)
    if (tag, bits) not in _SAMPLE_TYPES or channels < 1 or block != channels * bits // 8:
        raise ValueError(
            f"unsupported WAV sample format (format tag {tag}, {bits} bits, "
            f"{block}-byte frames of {channels} channels) in {path}"
        )
    dtype, full_scale = _SAMPLE_TYPES[tag, bits]
    frames = len(data) // block
    if bits == 24:
        wide = np.zeros((frames * channels, 4), dtype=np.uint8)
        wide[:, 1:] = np.frombuffer(data, np.uint8, frames * block).reshape(-1, 3)
        samples = wide.view(dtype)
    else:
        samples = np.frombuffer(data, dtype, frames * channels)
    samples = samples.reshape(frames, channels).astype(np.float64)
    if full_scale != 1.0:
        samples /= full_scale
    if expect_rate is not None and rate != expect_rate:
        raise ValueError(f"{path}: sample rate {rate} Hz, expected {expect_rate} Hz")
    return WaveBuffer(samples.T, rate)


def write_wav(path, wave: WaveBuffer) -> None:
    """Write a WaveBuffer as a float32 WAV, so estimates never clip.

    The bytes are scipy.io.wavfile's for float32 data: an 18-byte ``fmt ``
    chunk (IEEE float), a ``fact`` chunk with the frame count, then ``data``.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    samples = np.ascontiguousarray(wave.data.T, dtype="<f4")  # interleaved (samples, channels)
    channels, rate = wave.n_channels, wave.sample_rate
    if samples.nbytes > 0xFFFFFFFF - 50:
        raise ValueError(f"{path}: {samples.nbytes} bytes of samples do not fit a RIFF file")
    header = struct.pack(
        "<4sI4s" "4sIHHIIHHH" "4sII" "4sI",
        b"RIFF", 50 + samples.nbytes, b"WAVE",
        b"fmt ", 18, _FLOAT, channels, rate, 4 * channels * rate, 4 * channels, 32, 0,
        b"fact", 4, wave.n_samples,
        b"data", samples.nbytes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(samples)
