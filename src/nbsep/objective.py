"""SI-SDR loss, full-band permutation-invariant training, and metrics.

The training loss compares time-domain signals: an iSTFT graph node turns
the predicted spectra into waves, `si_sdr_table` scores every speaker pair
in numpy, one permutation is chosen jointly for all frequencies over all N!
assignments, and the loss is one node holding the closed-form gradient of
the chosen pairs.  The +/-60 dB clamp bounds every score, an exact
reconstruction's too; an eps in each energy keeps gradients finite at silence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import dataset, stft
from .audio import WaveBuffer
from .autodiff import Tensor

SDR_CLAMP_DB = 60.0
MAX_EXHAUSTIVE_SPEAKERS = 6


@dataclass
class PermutationAssignment:
    """Best truth-to-prediction label mapping and its total loss."""

    mapping: tuple
    loss: float


# -- scale-invariant SDR --------------------------------------------------------


def si_sdr_table(references: np.ndarray, estimates: np.ndarray, silent_db=None):
    """Clamped SI-SDR in dB of every (reference i, estimate j) pair, and its gradient.

    (n, L) references against (m, L) estimates, in the estimates' dtype: with
    ``t = (<est, ref> / ||ref||^2) ref`` and ``e = t - est``, the score is
    ``10 log10((||t||^2 + eps) / (||e||^2 + eps))`` clamped to +/-60 dB; a
    zero-energy estimate scores eps/eps, 0 dB, or `silent_db` if given.
    ``grad(perm)`` of the returned (table, grad) is the (m, L) gradient of
    ``sum_i table[i, perm[i]]``: ``(20 / ln 10) (t / (||t||^2 + eps) + e /
    (||e||^2 + eps))`` for each chosen pair, 0 where its clamp holds (Le Roux
    et al. 2019, arXiv:1811.02508).  N! searches read the table, so it
    refuses more than `MAX_EXHAUSTIVE_SPEAKERS` references.
    """
    estimates = np.asarray(estimates)
    references = np.asarray(references, dtype=estimates.dtype)
    if references.shape[0] > MAX_EXHAUSTIVE_SPEAKERS:
        raise ValueError("exhaustive PIT limit: more than 6 speakers")
    eps = np.asarray(1e-30, dtype=estimates.dtype)  # keeps the log finite at e = 0

    def parts(ref, est):  # the tape reference's op order: tests hold the loss to its bits
        ref_energy = float(ref @ ref)
        if ref_energy == 0.0:
            raise ValueError("silent reference")
        target = np.asarray((est * ref).sum()) * (1.0 / ref_energy) * ref
        error = target - est
        return target, error, (target**2.0).sum() + eps, (error**2.0).sum() + eps

    raw = np.empty((len(references), len(estimates)), estimates.dtype)
    for i, j in np.ndindex(raw.shape):
        _, _, num, den = parts(references[i], estimates[j])
        raw[i, j] = np.log10(num / den) * 10.0

    def grad(perm):
        out = np.zeros_like(estimates)
        for i, j in enumerate(perm):
            if not abs(raw[i, j]) > SDR_CLAMP_DB:  # a NaN passes, to reach adam_step
                target, error, num, den = parts(references[i], estimates[j])
                out[j] = (target / num + error / den) * float(20.0 / np.log(10.0))
        return out

    table = np.clip(raw, -SDR_CLAMP_DB, SDR_CLAMP_DB)
    if silent_db is not None:
        table[:, [e @ e == 0.0 for e in estimates]] = silent_db
    return table, grad


def si_sdr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """One entry of the float64 `si_sdr_table`, silence at its -60 dB floor (below any signal)."""
    reference = np.asarray(reference, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if reference.shape != estimate.shape or reference.ndim != 1:
        raise ValueError(f"length mismatch: {reference.shape} vs {estimate.shape}")
    return float(si_sdr_table(reference[None], estimate[None], -SDR_CLAMP_DB)[0][0, 0])


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
    lexicographically smallest minimizer.  The loss is one node on
    `istft_graph`'s output that keeps only G, the gradient of the chosen
    pairs' negated SI-SDR, and whose backward rule is ``g * G``.
    """
    signals = istft_graph(predictions, cfg, out_len)
    references = stft.istft(targets, cfg, out_len).data
    if signals.shape[0] != references.shape[0]:
        raise ValueError(f"{signals.shape[0]} estimates vs {references.shape[0]} targets")
    table, grad = si_sdr_table(references, signals.data)
    perm, value = best_permutation(-table)
    G = -grad(perm) if signals.requires_grad else None
    loss = Tensor._from_op(np.asarray(value, dtype=signals.dtype), (signals,), lambda g: (g * G,))
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
    estimates = np.asarray(estimates, dtype=np.float64)
    if estimates.shape != refs.shape:
        raise ValueError(f"estimates {estimates.shape} vs targets {refs.shape}")
    table, _ = si_sdr_table(refs, estimates, -SDR_CLAMP_DB)
    perm, _ = best_permutation(-table)
    per_spk = [float(table[i, j]) for i, j in enumerate(perm)]
    mixture_ref = example.mixture_wave.data[dataset.REFERENCE_CHANNEL]
    baseline = [si_sdr(ref, mixture_ref) for ref in refs]
    mean_sdr = float(np.mean(per_spk))
    improvement = mean_sdr - float(np.mean(baseline))
    rtf = None if processing_seconds is None else processing_seconds / example.mixture_wave.duration
    return MetricRecord(example.example_id, per_spk, mean_sdr, improvement, rtf)
