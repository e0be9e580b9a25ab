"""SI-SDR loss, full-band permutation-invariant training, and metrics.

The training loss compares time-domain signals: predicted full-band spectra
are inverse-transformed inside the graph (a dense inverse-DFT basis matmul
followed by windowed overlap-add), negated SI-SDR is computed per
speaker pair, and one permutation is chosen jointly for all frequencies by
minimizing the summed loss over all N! assignments.  The chosen branch
stays differentiable; the clamp at +/-60 dB keeps exact reconstructions
finite.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import dataset, stft
from .autodiff import Tensor

SDR_CLAMP_DB = 60.0
_RATIO_EPS = 1e-30  # keeps the log finite when the residual vanishes
MAX_EXHAUSTIVE_SPEAKERS = 6


@dataclass
class PermutationAssignment:
    """Best truth-to-prediction label mapping and its total loss."""

    mapping: tuple
    loss: float


# -- scale-invariant SDR --------------------------------------------------------


def si_sdr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """SI-SDR in dB, clamped to +/-60: `si_sdr_loss` negated, in float64.

    A zero-energy estimate scores the -60 dB floor, below every estimate
    that carries any signal (the loss's eps/eps would give it 0 dB).
    """
    reference = np.asarray(reference, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if reference.shape != estimate.shape or reference.ndim != 1:
        raise ValueError(f"length mismatch: {reference.shape} vs {estimate.shape}")
    sdr = -si_sdr_loss(reference, Tensor(estimate)).item()  # checks the reference
    return -SDR_CLAMP_DB if estimate @ estimate == 0.0 else sdr


def si_sdr_loss(reference: np.ndarray, estimate: Tensor) -> Tensor:
    """Differentiable negative SI-SDR of a Tensor estimate vs a fixed reference.

    With ``alpha = (estimate . reference) / ||reference||^2``, SI-SDR is
    ``10 log10(||alpha ref||^2 / ||alpha ref - estimate||^2)``, clamped to +/-60 dB.
    """
    ref = Tensor(np.asarray(reference, dtype=estimate.dtype))
    ref_energy = float(ref.data @ ref.data)
    if ref_energy == 0.0:
        raise ValueError("silent reference")
    alpha = ad.scale(ad.tsum(ad.mul(estimate, ref)), 1.0 / ref_energy)
    target = ad.mul(alpha, ref)
    num = ad.tsum(ad.power(target, 2.0))
    den = ad.tsum(ad.power(ad.sub(target, estimate), 2.0))
    ratio = ad.div(ad.add(num, Tensor(np.asarray(_RATIO_EPS, dtype=estimate.dtype))),
                   ad.add(den, Tensor(np.asarray(_RATIO_EPS, dtype=estimate.dtype))))
    sdr = ad.clip(ad.scale(ad.log10(ratio), 10.0), -SDR_CLAMP_DB, SDR_CLAMP_DB)
    return ad.neg(sdr)


# -- differentiable inverse STFT --------------------------------------------------


def inverse_dft_basis(cfg: stft.StftConfig, dtype=np.float64):
    """Real matrices (W, F) mapping one-sided Re/Im bins to a time frame.

    ``frame = Cr @ real + Ci @ imag`` equals ``irfft`` of the complex bins;
    the imaginary parts of the DC and Nyquist bins have zero weight.
    """
    w, f = cfg.window_len, cfg.n_bins
    l = np.arange(w)[:, None]
    k = np.arange(f)[None, :]
    weight = np.full(f, 2.0)
    weight[0] = 1.0
    weight[-1] = 1.0
    angle = 2.0 * np.pi * l * k / w
    cr = (weight * np.cos(angle)) / w
    ci = (-weight * np.sin(angle)) / w
    ci[:, 0] = 0.0
    ci[:, -1] = 0.0
    return cr.astype(dtype), ci.astype(dtype)


def istft_graph(real: Tensor, imag: Tensor, cfg: stft.StftConfig, out_len: int,
                basis=None) -> Tensor:
    """Differentiable weighted-overlap-add synthesis of (F, T) bin tensors."""
    dtype = real.dtype
    if basis is None:
        basis = inverse_dft_basis(cfg, dtype)
    cr, ci = basis
    frames = ad.add(ad.matmul(Tensor(cr), real), ad.matmul(Tensor(ci), imag))
    window = stft.hann_window(cfg.window_len).astype(dtype)
    frames = ad.mul(frames, Tensor(window[:, None]))
    n_frames = real.shape[-1]
    sig = ad.overlap_add(frames, cfg.hop, out_len)
    env = stft.synthesis_envelope(cfg, n_frames)[:out_len]
    if env.shape[0] < out_len:
        env = np.pad(env, (0, out_len - env.shape[0]))
    inv_env = (1.0 / np.maximum(env, stft.ENVELOPE_FLOOR)).astype(dtype)
    return ad.mul(sig, Tensor(inv_env))


# -- full-band PIT -----------------------------------------------------------------


def _spectra_array(x) -> np.ndarray:
    data = getattr(x, "data", x)  # SeparatedSpectra or plain complex array
    return np.asarray(data)


def _squeeze_row(t: Tensor) -> Tensor:
    # (F, 1, T) -> (F, T)
    return ad.reshape(t, (t.shape[0], t.shape[-1]))


def _estimate_signals(predictions, cfg, out_len):
    """Inverse-transform predictions into per-speaker time-domain Tensors."""
    if isinstance(predictions, Tensor):
        n = predictions.shape[-2] // 2
        basis = inverse_dft_basis(cfg, predictions.dtype)
        signals = []
        for spk in range(n):
            real = _squeeze_row(ad.narrow(predictions, -2, 2 * spk, 1))
            imag = _squeeze_row(ad.narrow(predictions, -2, 2 * spk + 1, 1))
            signals.append(istft_graph(real, imag, cfg, out_len, basis))
        return signals
    data = _spectra_array(predictions)
    return [
        Tensor(stft.istft(stft.ComplexSpectrogram(data[n]), cfg, out_len).data[0])
        for n in range(data.shape[0])
    ]


def _target_signals(targets, cfg, out_len):
    data = _spectra_array(targets)
    return [stft.istft(stft.ComplexSpectrogram(data[n]), cfg, out_len).data[0]
            for n in range(data.shape[0])]


def fpit(predictions, targets, cfg: stft.StftConfig, out_len: int):
    """Permutation-invariant loss over full-band bindings.

    `predictions` is either a Tensor of denormalized per-frequency outputs
    (F, 2N, T) — the differentiable training path — or complex spectra
    (SeparatedSpectra / (N, F, T) array).  `targets` are complex spectra.
    Returns (loss Tensor, PermutationAssignment); the assignment maps
    ground-truth speaker n to prediction mapping[n], chosen as the
    lexicographically smallest minimizer.
    """
    estimates = _estimate_signals(predictions, cfg, out_len)
    references = _target_signals(targets, cfg, out_len)
    n = len(references)
    if len(estimates) != n:
        raise ValueError(f"{len(estimates)} estimates vs {n} targets")
    if n > MAX_EXHAUSTIVE_SPEAKERS:
        raise ValueError("exhaustive PIT limit: more than 6 speakers")

    pair = [[si_sdr_loss(references[i], estimates[j]) for j in range(n)] for i in range(n)]
    perm, value = best_permutation(np.array([[t.data for t in row] for row in pair]))
    loss = functools.reduce(ad.add, [pair[i][perm[i]] for i in range(n)])
    return loss, PermutationAssignment(perm, value)


def best_permutation(cost: np.ndarray):
    """Lexicographically smallest minimizer of ``sum_i cost[i, perm[i]]``.

    `cost` is an (n, n) float table, summed in its dtype; returns (perm, total).
    """
    n = cost.shape[0]
    best_perm, best_total = None, np.inf
    for perm in itertools.permutations(range(n)):
        total = sum((cost[i, perm[i]] for i in range(1, n)), cost[0, perm[0]])
        if total < best_total:
            best_perm, best_total = perm, total
    return best_perm, float(best_total)


# -- evaluation ---------------------------------------------------------------------


@dataclass
class MetricRecord:
    example_id: str
    per_speaker_sdr: list
    mean_sdr: float
    improvement: float
    rtf: float | None = None

    def csv_row(self) -> list:
        row = [self.example_id]
        row += [f"{v:.4f}" for v in self.per_speaker_sdr]
        row += [f"{self.mean_sdr:.4f}", f"{self.improvement:.4f}"]
        row.append("" if self.rtf is None else f"{self.rtf:.4f}")
        return row


def evaluate(example: dataset.MixtureExample, estimates: np.ndarray,
             processing_seconds: float | None = None) -> MetricRecord:
    """Best-permutation SI-SDR of time-domain estimates against the targets.

    Improvement is measured against using the reference-channel mixture as
    the estimate for every speaker; RTF is processing time over duration.
    """
    refs = example.target_waves.data
    estimates = np.asarray(estimates)
    if estimates.shape != refs.shape:
        raise ValueError(f"estimates {estimates.shape} vs targets {refs.shape}")
    n = refs.shape[0]
    if n > MAX_EXHAUSTIVE_SPEAKERS:
        raise ValueError("exhaustive PIT limit: more than 6 speakers")
    table = np.array([[si_sdr(refs[i], estimates[j]) for j in range(n)] for i in range(n)])
    perm, _ = best_permutation(-table)
    per_spk = [table[i, perm[i]] for i in range(n)]
    mixture_ref = example.mixture_wave.data[dataset.REFERENCE_CHANNEL]
    baseline = [si_sdr(refs[i], mixture_ref) for i in range(n)]
    mean_sdr = float(np.mean(per_spk))
    improvement = mean_sdr - float(np.mean(baseline))
    rtf = None
    if processing_seconds is not None:
        rtf = processing_seconds / example.mixture_wave.duration
    return MetricRecord(
        example_id=example.example_id,
        per_speaker_sdr=[float(v) for v in per_spk],
        mean_sdr=mean_sdr,
        improvement=improvement,
        rtf=rtf,
    )
