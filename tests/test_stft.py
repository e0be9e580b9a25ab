import numpy as np
import pytest

from nbsep.audio import WaveBuffer
from nbsep.stft import (
    StftConfig,
    all_frequency_sequences,
    hann_window,
    istft,
    spectra_of_sequences,
    stft,
    synthesis_envelope,
)

CFG = StftConfig()


def naive_frame_dft(frame):
    """O(n^2) DFT oracle, one-sided bins."""
    n = frame.shape[0]
    out = np.zeros(n // 2 + 1, dtype=np.complex128)
    for f in range(n // 2 + 1):
        for t in range(n):
            out[f] += frame[t] * np.exp(-2j * np.pi * f * t / n)
    return out


def naive_synthesis(spec_data, cfg, out_len):
    """Inverse-DFT + overlap-add oracle, written directly from the contract."""
    n_ch, n_bins, n_frames = spec_data.shape
    w = cfg.window_len
    window = hann_window(w)
    y = np.zeros((n_ch, (n_frames - 1) * cfg.hop + w))
    env = np.zeros(y.shape[1])
    for t in range(n_frames):
        env[t * cfg.hop : t * cfg.hop + w] += window**2
    for m in range(n_ch):
        for t in range(n_frames):
            frame = np.zeros(w)
            for l in range(w):
                acc = 0.0
                for f in range(n_bins):
                    weight = 1.0 if f in (0, n_bins - 1) else 2.0
                    acc += weight * (
                        spec_data[m, f, t].real * np.cos(2 * np.pi * f * l / w)
                        - spec_data[m, f, t].imag * np.sin(2 * np.pi * f * l / w)
                    )
                frame[l] = acc / w
            y[m, t * cfg.hop : t * cfg.hop + w] += frame * window
    y /= np.maximum(env, 1e-2)  # contract: envelope floored at 1e-2
    return y[:, :out_len]


def test_dc_concentrates_in_lowest_bins():
    # Windowing DC by Hann leaves the window's own spectrum: bin 0 carries the
    # window sum, bin 1 carries its cosine component (-N/4), everything above
    # is exactly zero for the periodic window.
    wave = WaveBuffer(np.ones(4096), 16000)
    spec = stft(wave, CFG)
    expected = hann_window(CFG.window_len).sum()
    np.testing.assert_allclose(spec[0, 0].real, expected, rtol=1e-12)
    np.testing.assert_allclose(spec[0, 1].real, -CFG.window_len / 4, rtol=1e-12)
    assert np.max(np.abs(spec[0, 2:])) < 1e-9


def test_four_second_signal_has_257_bins_and_249_frames():
    rng = np.random.default_rng(0)
    spec = stft(WaveBuffer(rng.standard_normal(64000), 16000), CFG)
    assert spec.shape == (1, 257, 249)


def test_matches_naive_dft_oracle():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2048)
    spec = stft(WaveBuffer(x, 16000), CFG)
    t = 3
    frame = x[t * CFG.hop : t * CFG.hop + CFG.window_len] * hann_window(CFG.window_len)
    np.testing.assert_allclose(spec[0, :, t], naive_frame_dft(frame), atol=1e-10)


def test_errors():
    with pytest.raises(ValueError,
                       match="input too short: 100 samples, fewer than one 512-sample STFT window"):
        stft(WaveBuffer(np.zeros(100), 16000), CFG)
    bad = np.zeros(1024)
    bad[10] = np.nan
    with pytest.raises(ValueError, match=r"signal has non-finite samples \(NaN or inf\)"):
        stft(WaveBuffer(bad, 16000), CFG)
    with pytest.raises(ValueError, match="bins"):
        istft(np.zeros((1, 100, 4), dtype=complex), CFG, 1024)


def test_round_trip_interior_exact():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((2, 64000))
    recon = istft(stft(WaveBuffer(x, 16000), CFG), CFG, 64000).data
    edge = CFG.window_len - CFG.hop
    np.testing.assert_allclose(recon[:, edge:-edge], x[:, edge:-edge], atol=1e-10)


def test_zero_spectrogram_gives_zero_waveform():
    spec = np.zeros((1, CFG.n_bins, 6), dtype=complex)
    assert np.all(istft(spec, CFG, 1500).data == 0.0)


def test_single_bin_impulse_matches_naive_synthesis():
    rng = np.random.default_rng(3)
    data = np.zeros((1, CFG.n_bins, 3), dtype=complex)
    data[0, 100, 1] = rng.standard_normal() + 1j * rng.standard_normal()
    data[0, 0, 0] = 0.7  # include a DC entry too
    out_len = CFG.covered_len(3)
    got = istft(data, CFG, out_len).data
    want = naive_synthesis(data, CFG, out_len)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_linearity():
    rng = np.random.default_rng(4)
    x, y = rng.standard_normal((2, 4096))
    a, b = 1.7, -0.3
    sx = stft(WaveBuffer(x, 16000), CFG)
    sy = stft(WaveBuffer(y, 16000), CFG)
    sxy = stft(WaveBuffer(a * x + b * y, 16000), CFG)
    np.testing.assert_allclose(sxy, a * sx + b * sy, atol=1e-9)


def test_parseval_per_frame():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4096)
    spec = stft(WaveBuffer(x, 16000), CFG)[0]
    w = hann_window(CFG.window_len)
    for t in range(spec.shape[1]):
        frame = x[t * CFG.hop : t * CFG.hop + CFG.window_len] * w
        frame_energy = np.sum(frame**2)
        weights = np.full(CFG.n_bins, 2.0)
        weights[0] = weights[-1] = 1.0
        bin_energy = np.sum(weights * np.abs(spec[:, t]) ** 2) / CFG.window_len
        assert abs(frame_energy - bin_energy) / frame_energy < 1e-6


def test_frequency_sequence_layout():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((2, CFG.n_bins, 5)) + 1j * rng.standard_normal((2, CFG.n_bins, 5))
    seq = all_frequency_sequences(data)[17]
    assert seq.shape == (4, 5)
    np.testing.assert_array_equal(seq[0], data[0, 17].real)
    np.testing.assert_array_equal(seq[1], data[0, 17].imag)
    np.testing.assert_array_equal(seq[2], data[1, 17].real)
    np.testing.assert_array_equal(seq[3], data[1, 17].imag)


def test_spectra_of_sequences_inverts_the_row_layout():
    rng = np.random.default_rng(7)
    data = rng.standard_normal((3, 9, 6)) + 1j * rng.standard_normal((3, 9, 6))
    got = spectra_of_sequences(all_frequency_sequences(data))
    assert got.shape == data.shape and got.dtype == np.complex128
    np.testing.assert_array_equal(got, data)
    # float32 rows decode to complex128 with the same values
    rows = all_frequency_sequences(data).astype(np.float32)
    got = spectra_of_sequences(rows)
    assert got.dtype == np.complex128
    np.testing.assert_array_equal(got, spectra_of_sequences(rows.astype(np.float64)))


def test_frequency_sequence_real_spectrogram_has_zero_imag_rows():
    seq = all_frequency_sequences(np.ones((3, CFG.n_bins, 4), dtype=complex))[0]
    assert np.all(seq[1::2] == 0.0)


def test_istft_pads_beyond_synthesized_span():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(1000)  # not a whole number of hops
    spec = stft(WaveBuffer(x, 16000), CFG)
    recon = istft(spec, CFG, 1000).data
    covered = CFG.covered_len(spec.shape[-1])
    assert covered < 1000
    assert np.all(recon[:, covered:] == 0.0)


def test_envelope_matches_direct_sum():
    env = synthesis_envelope(CFG, 4)
    w2 = hann_window(CFG.window_len) ** 2
    direct = np.zeros(CFG.covered_len(4))
    for t in range(4):
        direct[t * CFG.hop : t * CFG.hop + CFG.window_len] += w2
    np.testing.assert_array_equal(env, direct)
