import numpy as np
import pytest

from nbsep import parallel, stft
from nbsep.autodiff import NumericError, Tensor
from nbsep.model import ModelConfig, NarrowBandModel, load_checkpoint
from nbsep.objective import evaluate
from nbsep.trainer import (
    AdamState,
    TrainConfig,
    Utterance,
    adam_step,
    batch_loss,
    build_probe_examples,
    clip_gradients,
    global_grad_norm,
    prepare_utterance,
    schedule_lr,
    synthetic_dry_source,
    train,
)

CFG8K = stft.StftConfig(sample_rate=8000)
PROBE_MODEL = ModelConfig(in_channels=2, speakers=2, width=16, inner_width=32,
                          blocks=1, conv_blocks=1, heads=2, dropout=0.0)


# -- Adam -------------------------------------------------------------------------


def test_first_adam_step_matches_hand_recurrence():
    # m1 = 0.1, v1 = 0.001; bias-corrected m=1, v=1 -> delta = -lr / (1 + eps)
    p = {"w": Tensor(np.array([0.0]), requires_grad=True)}
    state = AdamState.init(p)
    adam_step(p, {"w": np.array([1.0])}, state, lr=1e-3)
    expected = -1e-3 * 1.0 / (1.0 + 1e-8)
    np.testing.assert_allclose(p["w"].data, expected, atol=1e-15)
    assert state.step == 1


def test_zero_gradient_keeps_parameters():
    p = {"w": Tensor(np.ones(3), requires_grad=True)}
    state = AdamState.init(p)
    state.m["w"][:] = 0.5
    state.v["w"][:] = 0.25
    adam_step(p, {"w": np.zeros(3)}, state, lr=1e-2)
    # moments decay, parameters move only through the decayed first moment
    np.testing.assert_allclose(state.m["w"], 0.45, atol=1e-15)
    np.testing.assert_allclose(state.v["w"], 0.25 * 0.999, atol=1e-15)


def test_true_zero_moments_zero_update():
    p = {"w": Tensor(np.ones(3), requires_grad=True)}
    state = AdamState.init(p)
    adam_step(p, {"w": np.zeros(3)}, state, lr=1e-2)
    np.testing.assert_array_equal(p["w"].data, np.ones(3))


def test_clipping_scales_exactly_half_at_norm_ten():
    grads = {"a": np.array([6.0, 8.0])}  # norm 10
    clipped, norm = clip_gradients(grads, 5.0)
    assert norm == 10.0
    np.testing.assert_array_equal(clipped["a"], np.array([3.0, 4.0]))


def test_clipping_leaves_small_gradients_untouched():
    grads = {"a": np.array([3.0, 4.0])}  # norm 5 == threshold
    clipped, norm = clip_gradients(grads, 5.0)
    assert norm == 5.0
    assert clipped["a"] is grads["a"]
    assert global_grad_norm(clipped) <= 5.0


def test_nonfinite_gradient_rejected():
    p = {"w": Tensor(np.ones(2), requires_grad=True)}
    state = AdamState.init(p)
    with pytest.raises(NumericError, match="step rejected"):
        adam_step(p, {"w": np.array([np.nan, 1.0])}, state, lr=1e-3)
    np.testing.assert_array_equal(p["w"].data, np.ones(2))
    assert state.step == 0


def test_adam_hand_arithmetic_known_moments():
    p = {"w": Tensor(np.array([2.0]), requires_grad=True)}
    state = AdamState(m={"w": np.array([0.3])}, v={"w": np.array([0.04])}, step=9)
    adam_step(p, {"w": np.array([0.5])}, state, lr=0.01)
    m = 0.9 * 0.3 + 0.1 * 0.5
    v = 0.999 * 0.04 + 0.001 * 0.25
    m_hat = m / (1 - 0.9**10)
    v_hat = v / (1 - 0.999**10)
    want = 2.0 - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
    np.testing.assert_allclose(p["w"].data, want, atol=1e-12)


# -- LR schedule -----------------------------------------------------------------


def test_plateau_of_four_halves_once():
    assert schedule_lr([5.0, 5.1, 5.2, 5.3]) == 5e-4


def test_strictly_decreasing_keeps_lr():
    assert schedule_lr([5.0, 4.0, 3.0, 2.0, 1.0]) == 1e-3


def test_sustained_plateau_sequence_to_floor():
    # the first epoch sets the best, each halving lands after 3 stalled epochs
    lr = 1e-3
    seen = [lr]
    history = []
    for _ in range(16):
        history.append(7.0)
        lr = schedule_lr(history)
        seen.append(lr)
    distinct = [v for i, v in enumerate(seen) if i == 0 or v != seen[i - 1]]
    assert distinct == [1e-3, 5e-4, 2.5e-4, 1.25e-4, 1e-4]
    assert all(a >= b for a, b in zip(seen, seen[1:]))  # monotone non-increasing
    assert min(seen) == 1e-4


def test_improvement_resets_patience():
    history = [5.0, 5.2, 5.1, 4.9, 5.0, 5.05]  # new best at epoch 4 resets the wait
    assert schedule_lr(history) == 1e-3
    assert schedule_lr(history + [4.8]) == 1e-3  # best again, still no halving
    assert schedule_lr(history + [5.01]) == 5e-4  # third stall since epoch 4


# -- batches ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def probe_examples():
    return build_probe_examples(2, CFG8K, seed=0, n_mics=2)


def test_batch_sequence_count(probe_examples):
    utterances = [prepare_utterance(ex, CFG8K) for ex in probe_examples]
    assert [u.sequences.shape[0] for u in utterances] == [257, 257]


def test_duplicated_utterance_loss_equals_single(probe_examples):
    net = NarrowBandModel(PROBE_MODEL, seed=0, dtype=np.float64)
    u = prepare_utterance(probe_examples[0], CFG8K)
    loss_one, _ = batch_loss(net, [u], CFG8K)
    loss_two, _ = batch_loss(net, [u, u], CFG8K)
    assert loss_two == pytest.approx(loss_one, abs=1e-9)


def test_batch_loss_gradients_deterministic(probe_examples):
    net = NarrowBandModel(PROBE_MODEL, seed=1, dtype=np.float64)
    batch = [prepare_utterance(ex, CFG8K) for ex in probe_examples]
    _, g1 = batch_loss(net, batch, CFG8K, accumulate_grads=True)
    _, g2 = batch_loss(net, batch, CFG8K, accumulate_grads=True)
    for name in g1:
        np.testing.assert_array_equal(g1[name], g2[name])


def _chunk_count(net, n_bins):
    return len(list(net.map_bin_chunks(lambda i, bins: bins, n_bins)))


def _largest_interior_value(root):
    """The largest array held by a non-leaf node of root's graph."""
    seen, stack, best = set(), [root], None
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._parents and (best is None or node.data.nbytes > best.nbytes):
            best = node.data
        stack.extend(node._parents)
    return best


def test_batch_loss_frees_a_chunk_graph_before_the_next_forward(probe_examples, monkeypatch):
    import weakref

    net = NarrowBandModel(PROBE_MODEL, seed=6, dtype=np.float64)
    batch = [prepare_utterance(ex, CFG8K) for ex in probe_examples]
    forward = net.forward
    held, alive_at_start = [], []

    def watching_forward(*args, **kwargs):
        alive = [ref() is not None for ref in held]
        out = forward(*args, **kwargs)
        value = _largest_interior_value(out)
        if value is not None:  # graph-free forwards have no interior node
            alive_at_start.append(alive)
            held.append(weakref.ref(value))
        return out

    monkeypatch.setattr(net, "forward", watching_forward)
    batch_loss(net, batch, CFG8K, accumulate_grads=True)
    # every graph-building forward, one per chunk and utterance, finds all earlier graphs dead
    graphs = len(batch) * _chunk_count(net, 257)
    assert alive_at_start == [[False] * k for k in range(graphs)]


def test_chunking_does_not_change_gradients(probe_examples):
    # batch_loss backpropagates one graph per utterance; one graph over the
    # whole batch, its losses summed and scaled by 1/n, must give the same.
    from nbsep import autodiff as ad, objective

    net = NarrowBandModel(PROBE_MODEL, seed=2, dtype=np.float64)
    batch = [prepare_utterance(ex, CFG8K) for ex in probe_examples]
    _, g1 = batch_loss(net, batch, CFG8K, accumulate_grads=True)
    losses = []
    for u in batch:
        out = net.forward(Tensor(u.sequences.astype(np.float64)))
        pred = ad.mul(out, Tensor(u.norm.scale.astype(np.float64)[:, None, None]))
        losses.append(objective.fpit(pred, u.target_waves, CFG8K)[0])
    total = losses[0]
    for loss in losses[1:]:
        total = ad.add(total, loss)
    ad.zero_grad(net.params)
    ad.backward(ad.scale(total, 1.0 / len(batch)))
    assert g1.keys() == net.params.keys()
    for name in g1:
        np.testing.assert_allclose(g1[name], net.params[name].grad, atol=1e-10)
    ad.zero_grad(net.params)


def test_mixed_length_batch_loss_is_the_mean_of_its_utterances(probe_examples):
    short = build_probe_examples(1, CFG8K, seed=1, n_mics=2, duration_samples=4000)[0]
    mixed = [prepare_utterance(ex, CFG8K) for ex in (probe_examples[0], short)]
    assert len({u.sequences.shape[-1] for u in mixed}) == 2
    net = NarrowBandModel(PROBE_MODEL, seed=8, dtype=np.float64)
    loss, grads = batch_loss(net, mixed, CFG8K, accumulate_grads=True)
    singles = [batch_loss(net, [u], CFG8K, accumulate_grads=True) for u in mixed]
    assert loss == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12)
    assert grads.keys() == net.params.keys()
    for name, g in grads.items():
        want = np.mean([s[1][name] for s in singles], axis=0)
        assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want)), name


def _one_graph_gradients(net, batch):
    """Gradients of the batch-mean loss through one graph over all bins of each utterance."""
    from nbsep import autodiff as ad, objective

    ad.zero_grad(net.params)
    for u in batch:
        out = net.forward(Tensor(u.sequences.astype(net.dtype)))
        pred = ad.mul(out, Tensor(u.norm.scale.astype(net.dtype)[:, None, None]))
        loss, _ = objective.fpit(pred, u.target_waves, CFG8K)
        ad.backward(ad.scale(loss, 1.0 / len(batch)))
    grads = {name: t.grad for name, t in net.params.items()}
    ad.zero_grad(net.params)
    return grads


def _workers(monkeypatch, n):
    if n > parallel.usable_cpus():
        pytest.skip(f"needs {n} usable CPUs")
    monkeypatch.setenv("NBC_THREADS", str(n))


@pytest.mark.parametrize("workers", [1, 2])
def test_recomputed_chunk_gradients_equal_one_graph_over_all_bins(
        probe_examples, monkeypatch, workers):
    _workers(monkeypatch, workers)
    net = NarrowBandModel(PROBE_MODEL, seed=10, dtype=np.float64)
    batch = [prepare_utterance(ex, CFG8K) for ex in probe_examples]
    assert _chunk_count(net, 257) > 1
    _, grads = batch_loss(net, batch, CFG8K, accumulate_grads=True)
    want = _one_graph_gradients(net, batch)
    assert grads.keys() == want.keys()
    for name, g in grads.items():
        assert np.max(np.abs(g - want[name])) <= 1e-12 * np.max(np.abs(want[name])), name


DROPOUT_MODEL = ModelConfig(in_channels=2, speakers=2, width=16, inner_width=32,
                            blocks=1, conv_blocks=1, heads=2, dropout=0.1)


def test_dropout_gradients_match_central_differences(probe_examples):
    # passes 1 and 3 of a chunk must draw the same dropout masks: gradients
    # of masks other than those the loss saw would miss by far more than 1e-5
    net = NarrowBandModel(DROPOUT_MODEL, seed=11, dtype=np.float64)
    u = prepare_utterance(probe_examples[0], CFG8K)

    def loss_and_grads(accumulate_grads=False):
        return batch_loss(net, [u], CFG8K, train=True, rng=np.random.default_rng(12),
                          accumulate_grads=accumulate_grads)

    _, grads = loss_and_grads(accumulate_grads=True)
    step = 1e-5
    for name in ("in_conv.w", "block0.attn.wq", "block0.conv0.w", "block0.ff_out.w",
                 "out_conv.b"):
        flat = net.params[name].data.reshape(-1)
        for i in np.argsort(-np.abs(grads[name]).reshape(-1))[:2]:
            orig = flat[i]
            flat[i] = orig + step
            hi, _ = loss_and_grads()
            flat[i] = orig - step
            lo, _ = loss_and_grads()
            flat[i] = orig
            numeric, analytic = (hi - lo) / (2 * step), grads[name].reshape(-1)[i]
            assert abs(analytic - numeric) <= 1e-5 * abs(analytic), (name, i)


def test_threaded_training_gradients_are_bit_reproducible(probe_examples, monkeypatch):
    _workers(monkeypatch, 2)
    net = NarrowBandModel(DROPOUT_MODEL, seed=13, dtype=np.float64)
    batch = [prepare_utterance(ex, CFG8K) for ex in probe_examples]

    def run():
        return batch_loss(net, batch, CFG8K, train=True, rng=np.random.default_rng(14),
                          accumulate_grads=True)

    (loss1, g1), (loss2, g2) = run(), run()
    forward = net.forward
    monkeypatch.setattr(net, "forward", lambda *a, **kw: forward(*a, **kw))
    loss3, g3 = run()  # the same chunks, serially on this thread
    assert loss1 == loss2 == loss3
    for name in g1:
        assert np.array_equal(g1[name], g2[name]) and np.array_equal(g1[name], g3[name]), name


WIDE_DROPOUT_MODEL = ModelConfig(in_channels=2, speakers=2, width=192, inner_width=384,
                                 blocks=1, conv_blocks=1, heads=4, dropout=0.1)


def test_gradients_at_two_workers_match_one_worker(probe_examples, monkeypatch):
    # the chunks, and so the dropout masks drawn per chunk, depend on F alone;
    # width 192 is large enough for OpenBLAS to thread its products, unless
    # parallel_map pins it to one thread at one worker as well as at two
    batch = [prepare_utterance(ex, CFG8K) for ex in probe_examples]
    for cfg, utterances in ((DROPOUT_MODEL, batch), (WIDE_DROPOUT_MODEL, batch[:1])):
        net = NarrowBandModel(cfg, seed=15, dtype=np.float64)

        def run(workers):
            _workers(monkeypatch, workers)
            return batch_loss(net, utterances, CFG8K, train=True,
                              rng=np.random.default_rng(16), accumulate_grads=True)

        (want_loss, want), (loss, got) = run(1), run(2)
        assert loss == want_loss
        assert got.keys() == want.keys() == net.params.keys()
        for name, g in got.items():
            assert np.array_equal(g, want[name]), (cfg.width, name)


def test_training_step_memory_does_not_grow_with_the_bin_count(monkeypatch):
    # a step holds one chunk's graph at a time, so from 33 to 129 bins its
    # peak grows only with the fPIT graph (measured 1.35x); one graph over
    # all bins grows with F (measured 3.9x)
    import tracemalloc

    from nbsep import dataset, model as model_mod

    _workers(monkeypatch, 1)
    monkeypatch.setattr(model_mod, "FREQUENCY_CHUNK", 8)
    net = NarrowBandModel(PROBE_MODEL, seed=16, dtype=np.float64)
    rng = np.random.default_rng(17)
    peaks = []
    for window in (64, 256):
        cfg = stft.StftConfig(window_len=window, hop=window // 2, sample_rate=8000)
        t_frames, n_bins = 40, cfg.n_bins
        u = Utterance(
            sequences=rng.standard_normal((n_bins, 4, t_frames)),
            norm=dataset.NormState(scale=rng.uniform(0.5, 2.0, n_bins)),
            target_waves=rng.standard_normal((2, cfg.covered_len(t_frames))))
        tracemalloc.start()
        try:
            batch_loss(net, [u], cfg, accumulate_grads=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0], peaks


def test_train_holds_one_prepared_batch_whatever_the_corpus_size(tmp_path, monkeypatch):
    # examples wait as waveforms and each batch is prepared just before its
    # step, so eight examples peak no higher than two, within one utterance;
    # an untraced warm-up run first, so neither traced run pays first-call costs
    import tracemalloc

    _workers(monkeypatch, 1)
    examples = build_probe_examples(8, CFG8K, seed=2, n_mics=2)
    cfg = TrainConfig(utterances_per_batch=1, max_epochs=1, seed=0)
    u = prepare_utterance(examples[0], CFG8K, cfg.dtype)  # as train prepares it
    utterance_bytes = u.sequences.nbytes + u.target_waves.nbytes + u.norm.scale.nbytes
    del u
    train(NarrowBandModel(PROBE_MODEL, seed=18, dtype=cfg.dtype), examples, [], cfg, CFG8K,
          tmp_path / "warm-up")
    peaks = []
    for n in (8, 2):
        net = NarrowBandModel(PROBE_MODEL, seed=18, dtype=cfg.dtype)
        tracemalloc.start()
        try:
            train(net, examples[:n], [], cfg, CFG8K, tmp_path / f"n{n}")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[0] - peaks[1]) < utterance_bytes, (peaks, utterance_bytes)


def test_train_runs_on_utterances_of_different_lengths(tmp_path, probe_examples):
    short = build_probe_examples(2, CFG8K, seed=1, n_mics=2, duration_samples=4000)
    cfg = TrainConfig(utterances_per_batch=2, max_epochs=1, seed=0)
    net = NarrowBandModel(PROBE_MODEL, seed=9, dtype=cfg.dtype)
    examples = [probe_examples[0], short[0]]
    result = train(net, examples, [probe_examples[1], short[1]], cfg, CFG8K, tmp_path)
    assert result.steps == 1
    assert np.isfinite(result.best_val)


# -- probe ------------------------------------------------------------------------


def test_synthetic_source_is_normalized():
    wav = synthetic_dry_source(np.random.default_rng(0), 4000, 8000)
    assert wav.n_samples == 4000
    assert np.max(np.abs(wav.data)) == pytest.approx(1.0)


def test_probe_examples_snap_to_frame_grid(probe_examples):
    ex = probe_examples[0]
    t = CFG8K.n_frames(ex.mixture_wave.n_samples)
    assert ex.mixture_wave.n_samples == CFG8K.covered_len(t)
    assert ex.mixture_wave.n_channels == 2


def mean_improvement(net, examples) -> float:
    """Mean SI-SDR improvement, in dB, of `net`'s separations of 8 kHz `examples`."""
    return float(np.mean([evaluate(ex, net.separate(ex.mixture_wave, CFG8K)[0]).improvement
                          for ex in examples]))


def test_probe_step_zero_is_untrained(probe_examples):
    net = NarrowBandModel(PROBE_MODEL, seed=0, dtype=np.float32)
    assert mean_improvement(net, probe_examples[:1]) <= 1.0  # no improvement untrained


def test_probe_loss_decreases_quickly(tmp_path, probe_examples):
    net = NarrowBandModel(PROBE_MODEL, seed=4, dtype=np.float32)
    start = mean_improvement(net, probe_examples)
    cfg = TrainConfig(utterances_per_batch=1, max_epochs=15, seed=4)
    assert train(net, probe_examples, [], cfg, CFG8K, tmp_path).steps == 30
    assert mean_improvement(net, probe_examples) > start - 1.0  # not diverging
    loss, _ = batch_loss(net, [prepare_utterance(ex, CFG8K) for ex in probe_examples], CFG8K)
    assert np.isfinite(loss)


# -- end-to-end training loop -------------------------------------------------------


def test_train_writes_log_and_checkpoints(tmp_path, probe_examples):
    cfg = TrainConfig(utterances_per_batch=2, max_epochs=2, seed=0, precision="float32")
    net = NarrowBandModel(PROBE_MODEL, seed=5, dtype=cfg.dtype)
    result = train(net, probe_examples, probe_examples[:1], cfg, CFG8K, tmp_path)
    assert result.steps == 2
    assert (tmp_path / "train_log.csv").exists()
    for name in ("checkpoint_best", "checkpoint_last"):
        loaded, opt, step = load_checkpoint(tmp_path / name, dtype=cfg.dtype)
        assert loaded.cfg == PROBE_MODEL and 1 <= step == opt["step"] <= 2
    assert step == 2  # checkpoint_last, loaded last, holds the final parameters
    for name, t in net.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, t.data)
    lines = (tmp_path / "train_log.csv").read_text().strip().splitlines()
    assert lines[0] == "step,epoch,train_loss,val_loss,lr,grad_norm"
    assert len(lines) >= 5


def test_train_determinism(tmp_path, probe_examples):
    cfg = TrainConfig(utterances_per_batch=2, max_epochs=2, seed=7, precision="float32")
    logs = []
    for run in ("a", "b"):
        net = NarrowBandModel(PROBE_MODEL, seed=7, dtype=cfg.dtype)
        train(net, probe_examples, probe_examples[:1], cfg, CFG8K, tmp_path / run)
        logs.append((tmp_path / run / "train_log.csv").read_text())
    assert logs[0] == logs[1]


def test_validation_loss_is_graph_free_and_bit_identical(probe_examples, monkeypatch):
    net = NarrowBandModel(PROBE_MODEL, seed=3, dtype=np.float64)
    batch = [prepare_utterance(ex, CFG8K) for ex in probe_examples]
    graph_loss, _ = batch_loss(net, batch, CFG8K, accumulate_grads=True)
    recorded = []
    forward = net.forward

    def recording_forward(*args, **kwargs):
        recorded.append(forward(*args, **kwargs))
        return recorded[-1]

    monkeypatch.setattr(net, "forward", recording_forward)
    free_loss, _ = batch_loss(net, batch, CFG8K)
    assert len(recorded) == len(batch) * _chunk_count(net, 257)
    assert not any(out.requires_grad for out in recorded)
    assert free_loss == graph_loss


def test_the_loss_is_minus_the_summed_si_sdr_that_evaluate_reports(probe_examples):
    # fpit scores what separate writes against the target waveforms that
    # evaluate reads, on the frame grid and off it: 8000 samples at 8 kHz
    # leave 64 past the last frame
    from nbsep import dataset, roomsim

    rng = np.random.default_rng(19)
    scene = roomsim.sample_scene(rng, n_mics=2)
    scene.rt60 = 0.2
    s1, s2 = (synthetic_dry_source(rng, 8000, CFG8K.sample_rate) for _ in range(2))
    off_grid = dataset.mix_pair(s1, s2, 0.7, scene, out_len=8000, stft_cfg=CFG8K)
    assert CFG8K.covered_len(CFG8K.n_frames(8000)) < 8000
    net = NarrowBandModel(PROBE_MODEL, seed=19, dtype=np.float64)
    for ex in [*probe_examples, off_grid]:
        u = prepare_utterance(ex, CFG8K)
        assert np.shares_memory(u.target_waves, ex.target_waves.data)  # a view, not a copy
        loss, _ = batch_loss(net, [u], CFG8K)
        assert loss == -sum(evaluate(ex, net.separate(ex.mixture_wave, CFG8K)[0]).per_speaker_sdr)


@pytest.mark.parametrize("field,value", [("utterances_per_batch", 0), ("graph_chunk", 0),
                                         ("graph_chunk", -2), ("graph_chunk", 2),
                                         ("max_epochs", -1)])
def test_train_config_rejects_counts_out_of_range(field, value):
    with pytest.raises(ValueError, match=rf"{field} must be (>= \d+|1), got {value}$"):
        TrainConfig(**{field: value})
    TrainConfig(max_epochs=0)  # zero epochs is a valid (empty) run


@pytest.mark.parametrize("rates", [dict(lr_init=-1.0, lr_min=-2.0), dict(lr_init=0.0, lr_min=0.0),
                                   dict(lr_min=0.0), dict(lr_min=float("nan")),
                                   dict(clip_norm=0.0)])
def test_train_config_rejects_rates_that_are_not_positive(rates):
    with pytest.raises(ValueError, match="must be positive"):
        TrainConfig(**rates)


def test_ops_kept_for_the_benchmark_have_no_production_caller(probe_examples, monkeypatch):
    # sub, div, neg, power, log10, clip and tsum stay in autodiff only because
    # perfbench/bench_trace.py wraps them by name: a gradient step, a
    # separation and an evaluation call none of them
    from nbsep import autodiff, objective

    calls = []
    for name in ("sub", "div", "neg", "power", "log10", "clip", "tsum"):
        op = getattr(autodiff, name)
        monkeypatch.setattr(autodiff, name,
                            lambda *a, _op=op, _name=name, **k: calls.append(_name) or _op(*a, **k))
    net = NarrowBandModel(DROPOUT_MODEL, seed=17, dtype=np.float64)
    example = probe_examples[0]
    loss, grads = batch_loss(net, [prepare_utterance(example, CFG8K)], CFG8K, train=True,
                             rng=np.random.default_rng(18), accumulate_grads=True)
    assert np.isfinite(loss) and grads
    estimates, _, seconds = net.separate(example.mixture_wave, CFG8K)
    objective.evaluate(example, estimates, seconds)
    assert calls == []
