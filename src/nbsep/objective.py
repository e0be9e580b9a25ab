"""SI-SDR loss, full-band permutation-invariant training, and metrics.

The training loss compares time-domain signals: predicted full-band spectra
are inverse-transformed inside the graph by one node that runs `stft.istft`
forward and `stft.stft` as its adjoint, negated SI-SDR is computed per
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
from .audio import WaveBuffer
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


def istft_graph(pred: Tensor, cfg: stft.StftConfig, out_len: int) -> Tensor:
    """`stft.istft` of every speaker as one graph node: (F, 2N, T) -> (N, out_len).

    `stft.spectra_of_sequences` decodes the rows of `pred` into complex
    (N, F, T) spectra.  The backward rule is the exact adjoint of the
    synthesis: the output gradient is padded or cropped to the synthesized
    span, divided by the floored envelope, analysed with `stft.stft` (whose
    framing and window are those of the synthesis), scaled by the inverse
    real DFT's bin weights, 1/W at DC and Nyquist and 2/W elsewhere, and
    encoded back into rows by `stft.all_frequency_sequences`.
    """
    dtype, shape, n_frames = pred.dtype, pred.shape, pred.shape[-1]
    out = stft.istft(stft.spectra_of_sequences(pred.data), cfg, out_len).data.astype(dtype)

    def vjp(g):
        if not np.all(np.isfinite(g)):  # stft rejects it; let adam_step report it
            return (np.full(shape, np.nan, dtype=dtype),)
        synth = cfg.covered_len(n_frames)
        g = np.pad(g[:, :synth], [(0, 0), (0, max(synth - out_len, 0))])
        g = g / np.maximum(stft.synthesis_envelope(cfg, n_frames), stft.ENVELOPE_FLOOR)
        grad = stft.stft(WaveBuffer(g, cfg.sample_rate), cfg)
        weight = np.full(cfg.n_bins, 2.0 / cfg.window_len)
        weight[[0, -1]] = 1.0 / cfg.window_len
        grad *= weight[:, None]
        return (stft.all_frequency_sequences(grad).astype(dtype),)

    return Tensor._from_op(out, (pred,), vjp)


# -- full-band PIT -----------------------------------------------------------------


def fpit(predictions: Tensor, targets: np.ndarray, cfg: stft.StftConfig, out_len: int):
    """Permutation-invariant loss over full-band bindings.

    `predictions` is the Tensor of denormalized per-frequency outputs
    (F, 2N, T); `targets` are the complex target spectra (N, F, T), as
    `stft.stft` returns them.
    Returns (loss Tensor, PermutationAssignment); the assignment maps
    ground-truth speaker n to prediction mapping[n], chosen as the
    lexicographically smallest minimizer.
    """
    signals = istft_graph(predictions, cfg, out_len)
    references = stft.istft(targets, cfg, out_len).data
    n = references.shape[0]
    if signals.shape[0] != n:
        raise ValueError(f"{signals.shape[0]} estimates vs {n} targets")
    if n > MAX_EXHAUSTIVE_SPEAKERS:
        raise ValueError("exhaustive PIT limit: more than 6 speakers")

    estimates = [ad.reshape(ad.narrow(signals, 0, j, 1), (out_len,)) for j in range(n)]
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
