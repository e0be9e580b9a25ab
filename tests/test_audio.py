"""The WAV codec against scipy.io.wavfile, and nbsep's own imports."""

import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from scipy.io import wavfile

from nbsep.audio import WaveBuffer, read_wav, write_wav

# full scale of each sample type scipy returns; 24-bit PCM comes back as int32
# with the low byte zero
FULL_SCALE = {np.int16: 2.0**15, np.int32: 2.0**31, np.float32: 1.0, np.float64: 1.0}
EXTENSIBLE_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def chunk(cid: bytes, body: bytes) -> bytes:
    return cid + struct.pack("<I", len(body)) + body + b"\0" * (len(body) % 2)


def riff(*chunks: bytes) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt_chunk(tag: int, channels: int, rate: int, bits: int, extensible: bool = False) -> bytes:
    block = channels * bits // 8
    body = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate, rate * block,
                       block, bits)
    if extensible:
        body += struct.pack("<HHI", 22, bits, 0) + struct.pack("<H", tag) + EXTENSIBLE_GUID_TAIL
    return chunk(b"fmt ", body)


def random_samples(rng, dtype, frames, channels):
    if np.dtype(dtype).kind == "i":
        info = np.iinfo(dtype)
        x = rng.integers(info.min, info.max, (frames, channels), dtype=dtype, endpoint=True)
        x[0, 0], x[-1, -1] = info.min, info.max
        return x
    return rng.uniform(-1.0, 1.0, (frames, channels)).astype(dtype)


def assert_reads_like_scipy(path):
    rate, ref = wavfile.read(path)
    ref = ref.reshape(len(ref), -1)  # scipy gives mono as 1-D
    got = read_wav(path)
    assert got.sample_rate == rate and got.data.dtype == np.float64
    np.testing.assert_array_equal(got.data, ref.T.astype(np.float64) / FULL_SCALE[ref.dtype.type])
    return got


@pytest.mark.parametrize("channels", [1, 8])
@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.float32, np.float64])
def test_read_wav_matches_scipy(tmp_path, dtype, channels):
    samples = random_samples(np.random.default_rng(1), dtype, 301, channels)
    wavfile.write(tmp_path / "x.wav", 11025, samples[:, 0] if channels == 1 else samples)
    got = assert_reads_like_scipy(tmp_path / "x.wav")
    assert got.data.shape == (channels, 301)


@pytest.mark.parametrize("channels", [1, 8])
def test_read_wav_takes_24_bit_pcm(tmp_path, channels):
    ints = np.random.default_rng(2).integers(-(2**23), 2**23, (99, channels))
    ints[0, 0], ints[-1, -1] = -(2**23), 2**23 - 1
    data = b"".join(int(v).to_bytes(3, "little", signed=True) for v in ints.ravel())
    (tmp_path / "x.wav").write_bytes(riff(fmt_chunk(1, channels, 16000, 24), chunk(b"data", data)))
    got = assert_reads_like_scipy(tmp_path / "x.wav")
    np.testing.assert_array_equal(got.data, ints.T / 2.0**23)


@pytest.mark.filterwarnings("ignore:Chunk .non-data. not understood")
@pytest.mark.parametrize("tag,dtype", [(1, np.int16), (1, np.int32), (3, np.float32)])
def test_read_wav_takes_extensible_headers_and_skips_other_chunks(tmp_path, tag, dtype):
    samples = random_samples(np.random.default_rng(3), dtype, 50, 8)
    bits = 8 * samples.itemsize
    listing = chunk(b"LIST", b"INFOISFT" + struct.pack("<I", 5) + b"nbsep")
    odd = chunk(b"junk", b"odd")  # 3 bytes and a pad byte
    (tmp_path / "x.wav").write_bytes(riff(
        fmt_chunk(tag, 8, 16000, bits, extensible=True), listing, odd,
        chunk(b"data", samples.tobytes()), odd,
    ))
    assert_reads_like_scipy(tmp_path / "x.wav")


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_read_wav_rejects_8_and_64_bit_pcm_naming_the_file(tmp_path, dtype):
    wavfile.write(tmp_path / "pcm.wav", 8000, np.zeros((10, 2), dtype=dtype))
    with pytest.raises(ValueError, match=r"unsupported WAV sample format .*pcm\.wav"):
        read_wav(tmp_path / "pcm.wav")


def test_read_wav_rejects_a_file_that_is_not_riff_wave(tmp_path):
    (tmp_path / "bad.wav").write_bytes(b"not a wav file at all")
    with pytest.raises(ValueError, match=r"bad\.wav: not a RIFF/WAVE file"):
        read_wav(tmp_path / "bad.wav")
    (tmp_path / "nodata.wav").write_bytes(riff(fmt_chunk(3, 1, 8000, 32)))
    with pytest.raises(ValueError, match=r"nodata\.wav: WAV file without"):
        read_wav(tmp_path / "nodata.wav")


@pytest.mark.parametrize("channels", [1, 2, 8])
def test_write_wav_writes_scipys_bytes(tmp_path, channels):
    data = np.random.default_rng(4).uniform(-1.0, 1.0, (channels, 257))
    write_wav(tmp_path / "ours.wav", WaveBuffer(data, 16000))
    samples = data.T.astype(np.float32)
    wavfile.write(tmp_path / "scipy.wav", 16000, samples[:, 0] if channels == 1 else samples)
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()
    back = read_wav(tmp_path / "ours.wav", expect_rate=16000)
    np.testing.assert_array_equal(back.data, samples.T.astype(np.float64))


def test_import_nbsep_loads_no_scipy():
    code = "import nbsep, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}).stdout
    assert out.strip() == "[]"
