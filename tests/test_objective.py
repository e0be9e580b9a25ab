import functools
import itertools

import numpy as np
import pytest

import nbsep.autodiff as ad
from nbsep import dataset, stft
from nbsep.audio import WaveBuffer
from nbsep.autodiff import NumericError, Tensor
from nbsep.objective import (
    SDR_CLAMP_DB,
    MetricRecord,
    best_permutation,
    evaluate,
    fpit,
    istft_graph,
    si_sdr,
    si_sdr_table,
)
from nbsep.trainer import AdamState, adam_step

CFG = stft.StftConfig(window_len=16, hop=8, sample_rate=16000)


def si_sdr_loss(reference, estimate):
    """Tape reference: negated clamped SI-SDR of a Tensor estimate, from generic ops.

    With ``alpha = (estimate . reference) / ||reference||^2``, SI-SDR is
    ``10 log10(||alpha ref||^2 / ||alpha ref - estimate||^2)``, clamped to +/-60 dB.
    """
    eps = Tensor(np.asarray(1e-30, dtype=estimate.dtype))
    ref = Tensor(np.asarray(reference, dtype=estimate.dtype))
    alpha = ad.scale(ad.tsum(ad.mul(estimate, ref)), 1.0 / float(ref.data @ ref.data))
    target = ad.mul(alpha, ref)
    num = ad.tsum(ad.power(target, 2.0))
    den = ad.tsum(ad.power(ad.sub(target, estimate), 2.0))
    ratio = ad.div(ad.add(num, eps), ad.add(den, eps))
    return ad.neg(ad.clip(ad.scale(ad.log10(ratio), 10.0), -SDR_CLAMP_DB, SDR_CLAMP_DB))


def tape_fpit(predictions, targets, cfg, out_len):
    """Tape reference of `fpit`: one `si_sdr_loss` graph per pair, the chosen ones summed."""
    signals = istft_graph(predictions, cfg, out_len)
    references = stft.istft(targets, cfg, out_len).data
    n = references.shape[0]
    estimates = [ad.reshape(ad.narrow(signals, 0, j, 1), (out_len,)) for j in range(n)]
    pair = [[si_sdr_loss(references[i], estimates[j]) for j in range(n)] for i in range(n)]
    perm, value = best_permutation(np.array([[t.data for t in row] for row in pair]))
    return functools.reduce(ad.add, [pair[i][perm[i]] for i in range(n)]), perm, value


def closed_form_loss(reference, estimate):
    """Negated SI-SDR of a Tensor estimate as one node with `si_sdr_table`'s gradient."""
    table, grad = si_sdr_table(reference[None], estimate.data[None])
    g_est = -grad((0,))[0]
    return Tensor._from_op(-table[0, 0], (estimate,), lambda g: (g * g_est,))


def direct_si_sdr(y, y_hat):
    """Independent evaluation of the SI-SDR definition."""
    alpha = np.dot(y_hat, y) / np.dot(y, y)
    num = np.sum((alpha * y) ** 2)
    den = np.sum((alpha * y - y_hat) ** 2)
    return min(max(10.0 * np.log10(num / den), -60.0), 60.0)


def test_scaled_estimate_hits_clamp():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(200)
    for beta in (0.1, 1.0, 7.3):
        assert si_sdr(y, beta * y) == 60.0


def test_orthogonal_error_is_exactly_20db():
    rng = np.random.default_rng(1)
    y = rng.standard_normal(400)
    e = rng.standard_normal(400)
    e -= (e @ y) / (y @ y) * y  # orthogonalize
    e *= np.linalg.norm(y) / (10.0 * np.linalg.norm(e))
    val = si_sdr(y, y + e)
    assert abs(val - 20.0) < 1e-9


def test_matches_direct_formula_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        y = rng.standard_normal(128)
        y_hat = rng.standard_normal(128)
        assert abs(si_sdr(y, y_hat) - direct_si_sdr(y, y_hat)) < 1e-9


def test_estimate_scale_invariance():
    rng = np.random.default_rng(3)
    y = rng.standard_normal(300)
    y_hat = y + 0.3 * rng.standard_normal(300)
    base = si_sdr(y, y_hat)
    for beta in (1e-3, 1.0, 1e3):
        assert abs(si_sdr(y, beta * y_hat) - base) < 1e-9


def test_si_sdr_errors():
    with pytest.raises(ValueError, match="silent reference"):
        si_sdr(np.zeros(10), np.ones(10))
    with pytest.raises(ValueError, match="length mismatch"):
        si_sdr(np.ones(10), np.ones(11))


def test_silent_estimate_ranks_below_poor_estimate():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(200)
    poor = 0.05 * y + rng.standard_normal(200)
    assert si_sdr(y, np.zeros(200)) == -60.0
    assert -60.0 < si_sdr(y, poor) < -10.0
    # the training loss keeps its eps/eps value for silence
    table, grad = si_sdr_table(y[None], np.zeros((1, 200)))
    assert table[0, 0] == 0.0
    np.testing.assert_array_equal(grad((0,)), np.zeros((1, 200)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_si_sdr_table_matches_tape_reference_and_metric(dtype):
    rng = np.random.default_rng(4)
    refs = rng.standard_normal((3, 100))
    ests = rng.standard_normal((2, 100)).astype(dtype)
    ests[1] = 4.0 * refs[2]  # a pair at the +60 dB clamp
    table, _ = si_sdr_table(refs, ests)
    assert table.dtype == dtype and table.shape == (3, 2)
    for i, j in np.ndindex(table.shape):
        assert table[i, j] == -si_sdr_loss(refs[i], Tensor(ests[j])).data  # bit for bit
        if dtype == np.float64:
            assert abs(table[i, j] - si_sdr(refs[i], ests[j])) < 1e-9
    assert table[2, 1] == SDR_CLAMP_DB


def test_si_sdr_table_gradient():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(32)
    est = Tensor(rng.standard_normal(32), requires_grad=True)
    assert ad.grad_check(lambda e: closed_form_loss(y, e), est) < 1e-7
    ad.zero_grad([est])
    ad.backward(si_sdr_loss(y, est))
    _, grad = si_sdr_table(y[None], est.data[None])
    np.testing.assert_allclose(-grad((0,))[0], est.grad, rtol=1e-12, atol=0)


# -- differentiable iSTFT ---------------------------------------------------------


def interleaved(spectra):
    """Complex (N, F, T) spectra as the network's (F, 2N, T) Re/Im rows."""
    return Tensor(stft.all_frequency_sequences(np.asarray(spectra)))


def dense_istft_reference(pred, cfg, out_len):
    """Straight-line in-graph synthesis: a dense inverse-DFT matmul per speaker,
    the synthesis window, `overlap_add`, then the floored envelope.

    Returns one (out_len,) Tensor per speaker.
    """
    w, f, n_frames = cfg.window_len, cfg.n_bins, pred.shape[-1]
    angle = 2.0 * np.pi * np.arange(w)[:, None] * np.arange(f)[None, :] / w
    weight = np.full(f, 2.0)
    weight[[0, -1]] = 1.0
    cr = Tensor(weight * np.cos(angle) / w)
    ci_data = -weight * np.sin(angle) / w
    ci_data[:, [0, -1]] = 0.0
    ci = Tensor(ci_data)
    window = Tensor(stft.hann_window(w)[:, None])
    env = stft.synthesis_envelope(cfg, n_frames)[:out_len]
    env = np.pad(env, (0, out_len - env.shape[0]))
    inv_env = Tensor(1.0 / np.maximum(env, stft.ENVELOPE_FLOOR))
    signals = []
    for spk in range(pred.shape[1] // 2):
        real = ad.reshape(ad.narrow(pred, 1, 2 * spk, 1), (f, n_frames))
        imag = ad.reshape(ad.narrow(pred, 1, 2 * spk + 1, 1), (f, n_frames))
        frames = ad.mul(ad.add(ad.matmul(cr, real), ad.matmul(ci, imag)), window)
        signals.append(ad.mul(ad.overlap_add(frames, cfg.hop, out_len), inv_env))
    return signals


def _istft_cases():
    for w in (8, 512):
        for n_frames in (1, 124):
            synth = (n_frames - 1) * (w // 2) + w
            for out_len in (synth - min(37, synth // 2), synth, synth + 55):
                for n in (1, 2, 3):
                    yield pytest.param(w, n_frames, out_len, n,
                                       id=f"W{w}-T{n_frames}-L{out_len}-N{n}")


@pytest.mark.parametrize("w, n_frames, out_len, n", _istft_cases())
def test_istft_graph_matches_dense_reference(w, n_frames, out_len, n):
    cfg = stft.StftConfig(window_len=w, hop=w // 2)
    rng = np.random.default_rng(w + n_frames + out_len + n)
    x = rng.standard_normal((cfg.n_bins, 2 * n, n_frames))
    seed = rng.standard_normal((n, out_len))

    pred = Tensor(x, requires_grad=True)
    got = istft_graph(pred, cfg, out_len)
    ad.backward(ad.tsum(ad.mul(got, Tensor(seed))))

    ref_pred = Tensor(x, requires_grad=True)
    ref = dense_istft_reference(ref_pred, cfg, out_len)
    ad.backward(functools.reduce(ad.add, [ad.tsum(ad.mul(r, Tensor(seed[i])))
                                          for i, r in enumerate(ref)]))
    want = np.stack([r.data for r in ref])
    assert got.shape == (n, out_len)
    assert np.max(np.abs(got.data - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.max(np.abs(pred.grad - ref_pred.grad)) <= 1e-12 * np.max(np.abs(ref_pred.grad))


def test_istft_graph_matches_numpy_istft():
    # one multichannel synthesis is bit-identical to one stft.istft per speaker
    rng = np.random.default_rng(6)
    data = rng.standard_normal((2, CFG.n_bins, 7)) + 1j * rng.standard_normal((2, CFG.n_bins, 7))
    out_len = CFG.covered_len(7)
    want = [stft.istft(d[None], CFG, out_len).data[0] for d in data]
    np.testing.assert_array_equal(istft_graph(interleaved(data), CFG, out_len).data, want)


def test_istft_graph_gradient():
    rng = np.random.default_rng(8)
    pred = Tensor(rng.standard_normal((CFG.n_bins, 4, 3)), requires_grad=True)
    out_len = CFG.covered_len(3)

    def f(p):
        return ad.tsum(ad.power(istft_graph(p, CFG, out_len), 2.0))

    assert ad.grad_check(f, pred) < 1e-6


def test_istft_graph_keeps_float32():
    rng = np.random.default_rng(9)
    pred = Tensor(rng.standard_normal((CFG.n_bins, 4, 5)).astype(np.float32),
                  requires_grad=True)
    out = istft_graph(pred, CFG, CFG.covered_len(5))
    ad.backward(ad.tsum(ad.power(out, 2.0)))
    assert out.dtype == np.float32 and pred.grad.dtype == np.float32


def test_non_finite_gradient_reaches_adam_not_stft():
    # a NaN in the loss gradient must surface as the optimizer's NumericError
    # (CLI exit 3), not as stft's non-finite-signal ValueError (a data error)
    rng = np.random.default_rng(10)
    pred = Tensor(rng.standard_normal((CFG.n_bins, 4, 3)), requires_grad=True)
    seed = np.ones((2, CFG.covered_len(3)))
    seed[1, 5] = np.nan
    ad.backward(ad.tsum(ad.mul(istft_graph(pred, CFG, seed.shape[1]), Tensor(seed))))
    assert not np.all(np.isfinite(pred.grad))
    params = {"p": pred}
    with pytest.raises(NumericError):
        adam_step(params, {"p": pred.grad}, AdamState.init(params), 1e-3)


# -- fPIT ------------------------------------------------------------------------


def spectra_of(waves):
    return stft.stft(WaveBuffer(waves, CFG.sample_rate), CFG)


def test_single_speaker_identity_permutation():
    rng = np.random.default_rng(9)
    out_len = CFG.covered_len(5)
    target = rng.standard_normal((1, out_len))
    est = rng.standard_normal((1, out_len))
    loss, assignment = fpit(interleaved(spectra_of(est)), spectra_of(target), CFG, out_len)
    assert assignment.mapping == (0,)
    y = stft.istft(spectra_of(target), CFG, out_len).data[0]
    e = stft.istft(spectra_of(est), CFG, out_len).data[0]
    assert loss.item() == pytest.approx(-si_sdr(y, e), abs=1e-9)


def test_swap_symmetry():
    rng = np.random.default_rng(10)
    out_len = CFG.covered_len(4)
    targets = rng.standard_normal((2, out_len))
    ests = rng.standard_normal((2, out_len))
    loss_a, assign_a = fpit(interleaved(spectra_of(ests)), spectra_of(targets), CFG, out_len)
    loss_b, assign_b = fpit(interleaved(spectra_of(ests[::-1])), spectra_of(targets), CFG,
                            out_len)
    assert loss_a.item() == pytest.approx(loss_b.item(), abs=1e-12)
    assert assign_b.mapping == tuple(1 - p for p in assign_a.mapping)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_matches_brute_force_enumeration(n):
    rng = np.random.default_rng(11 + n)
    out_len = CFG.covered_len(3)
    targets = rng.standard_normal((n, out_len))
    ests = rng.standard_normal((n, out_len))
    loss, assignment = fpit(interleaved(spectra_of(ests)), spectra_of(targets), CFG, out_len)

    ys = stft.istft(spectra_of(targets), CFG, out_len).data
    es = stft.istft(spectra_of(ests), CFG, out_len).data
    best = min(
        (sum(-si_sdr(ys[i], es[p[i]]) for i in range(n)), p)
        for p in itertools.permutations(range(n))
    )
    assert loss.item() == pytest.approx(best[0], abs=1e-9)
    assert assignment.mapping == best[1]


def test_permutation_of_predictions_keeps_min_loss():
    rng = np.random.default_rng(15)
    out_len = CFG.covered_len(4)
    targets = rng.standard_normal((3, out_len))
    ests = rng.standard_normal((3, out_len))
    base, _ = fpit(interleaved(spectra_of(ests)), spectra_of(targets), CFG, out_len)
    for p in itertools.permutations(range(3)):
        shuffled = interleaved(spectra_of(ests)[list(p)])
        loss, _ = fpit(shuffled, spectra_of(targets), CFG, out_len)
        assert loss.item() == pytest.approx(base.item(), abs=1e-12)


def test_speaker_limit():
    with pytest.raises(ValueError, match="exhaustive PIT limit"):
        fpit(Tensor(np.zeros((CFG.n_bins, 14, 3))),
             np.ones((7, CFG.n_bins, 3), dtype=complex), CFG, CFG.covered_len(3))


def test_fpit_differentiable_through_chosen_branch():
    rng = np.random.default_rng(16)
    n_frames = 4
    out_len = CFG.covered_len(n_frames)
    targets = spectra_of(rng.standard_normal((2, out_len)))
    pred = Tensor(rng.standard_normal((CFG.n_bins, 4, n_frames)), requires_grad=True)

    def f(p):
        loss, _ = fpit(p, targets, CFG, out_len)
        return loss

    assert ad.grad_check(f, pred) < 1e-5


def _fpit_case(rng, n, case, out_len):
    """Target and estimate waves for one `fpit` reference case."""
    targets = rng.standard_normal((n, out_len))
    ests = rng.standard_normal((n, out_len))
    if case == "tie":  # every permutation of two equal estimates ties
        ests[-1] = ests[0]
    elif case == "clamped":  # a scaled target: the pair sits at the +60 dB clamp
        ests[0] = 3.0 * stft.istft(spectra_of(targets), CFG, out_len).data[0]
    elif case == "silent":
        ests[-1] = 0.0
    return targets, ests


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", ["random", "tie", "clamped", "silent"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fpit_matches_the_tape_reference(n, case, dtype):
    rng = np.random.default_rng(30 + n)
    out_len = CFG.covered_len(9)
    targets, ests = _fpit_case(rng, n, case, out_len)
    x = stft.all_frequency_sequences(spectra_of(ests)).astype(dtype)
    pred = Tensor(x, requires_grad=True)
    loss, assignment = fpit(pred, spectra_of(targets), CFG, out_len)
    ad.backward(loss)
    ref_pred = Tensor(x.copy(), requires_grad=True)
    ref_loss, ref_perm, ref_value = tape_fpit(ref_pred, spectra_of(targets), CFG, out_len)
    assert loss.dtype == dtype and loss.data.tobytes() == ref_loss.data.tobytes()
    assert assignment.mapping == ref_perm and assignment.loss == ref_value
    assert pred.grad.dtype == dtype and np.all(np.isfinite(pred.grad))
    if dtype == np.float64:
        ad.backward(ref_loss)
        err = np.max(np.abs(pred.grad - ref_pred.grad))
        assert err <= 1e-12 * np.max(np.abs(ref_pred.grad))


def test_float32_fpit_gradient_is_finite_for_silent_and_near_silent_estimates():
    # the tape's div backward squares ||e||^2 + 1e-30, which underflows to 0
    # in float32, so its gradient here was non-finite and adam_step refused it
    rng = np.random.default_rng(21)
    out_len = CFG.covered_len(6)
    targets = spectra_of(rng.standard_normal((2, out_len)))
    ests = rng.standard_normal((2, out_len))
    ests[0] = 0.0
    ests[1] *= 1e-20
    pred = Tensor(stft.all_frequency_sequences(spectra_of(ests)).astype(np.float32),
                  requires_grad=True)
    loss, assignment = fpit(pred, targets, CFG, out_len)
    ad.backward(loss)
    assert pred.grad.dtype == np.float32 and np.all(np.isfinite(pred.grad))
    signals = istft_graph(Tensor(pred.data), CFG, out_len).data
    table, _ = si_sdr_table(stft.istft(targets, CFG, out_len).data, signals)
    np.testing.assert_array_equal(table[:, 0], 0.0)  # the silent pairs' eps/eps
    assert loss.item() == -sum(table[i, j] for i, j in enumerate(assignment.mapping))
    params = {"p": pred}
    adam_step(params, {"p": pred.grad}, AdamState.init(params), 1e-3)


def test_fpit_loss_is_one_node_on_the_istft_output():
    # a 4 s, float32, two-speaker loss: the network output, the iSTFT, the loss
    cfg = stft.StftConfig(window_len=512, hop=256, sample_rate=16000)
    out_len = 4 * cfg.sample_rate
    rng = np.random.default_rng(22)
    targets = stft.stft(WaveBuffer(rng.standard_normal((2, out_len)), cfg.sample_rate), cfg)
    x = rng.standard_normal((cfg.n_bins, 4, cfg.n_frames(out_len))).astype(np.float32)
    pred = Tensor(x, requires_grad=True)
    loss, _ = fpit(pred, targets, cfg, out_len)
    (signals,) = loss._parents
    assert signals._parents == (pred,)
    assert signals.data.size == 0  # the loss keeps G, not the signals it scored
    with ad.no_graph():
        free, _ = fpit(Tensor(x), targets, cfg, out_len)
    assert free._parents == () and free.data.tobytes() == loss.data.tobytes()


# -- evaluation -------------------------------------------------------------------


def make_example(rng, n_frames=6):
    out_len = CFG.covered_len(n_frames)
    t1 = rng.standard_normal(out_len)
    t2 = rng.standard_normal(out_len)
    mix = t1 + t2
    mixture_wave = WaveBuffer(np.stack([mix, mix * 0.9]), CFG.sample_rate)
    return dataset.MixtureExample(
        mixture_wave=mixture_wave,
        target_waves=WaveBuffer(np.stack([t1, t2]), CFG.sample_rate),
        example_id="t0",
    )


def test_exact_targets_hit_clamp():
    ex = make_example(np.random.default_rng(17))
    rec = evaluate(ex, ex.target_waves.data)
    assert rec.per_speaker_sdr == [60.0, 60.0]
    assert rec.mean_sdr == 60.0


def test_mixture_as_estimate_zero_improvement():
    ex = make_example(np.random.default_rng(18))
    mix_ref = ex.mixture_wave.data[0]
    rec = evaluate(ex, np.stack([mix_ref, mix_ref]))
    assert rec.improvement == pytest.approx(0.0, abs=1e-12)


def test_evaluate_matches_composition_oracle():
    rng = np.random.default_rng(19)
    ex = make_example(rng)
    ests = rng.standard_normal(ex.target_waves.data.shape)
    rec = evaluate(ex, ests, processing_seconds=0.5)
    refs = ex.target_waves.data
    best = max(np.mean([direct_si_sdr(refs[i], ests[p[i]]) for i in range(2)])
               for p in itertools.permutations(range(2)))
    assert rec.mean_sdr == pytest.approx(best, abs=1e-9)
    assert rec.rtf == pytest.approx(0.5 / ex.mixture_wave.duration, abs=1e-12)
    row = rec.csv_row()
    assert row[0] == "t0" and len(row) == 6


def test_tie_breaks_toward_lexicographically_smallest():
    # two identical estimates: every permutation ties, the first must win
    rng = np.random.default_rng(20)
    out_len = CFG.covered_len(3)
    targets = rng.standard_normal((2, out_len))
    est = rng.standard_normal(out_len)
    _, assignment = fpit(interleaved(spectra_of([est, est])), spectra_of(targets), CFG,
                         out_len)
    assert assignment.mapping == (0, 1)
