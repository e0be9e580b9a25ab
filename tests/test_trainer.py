import numpy as np
import pytest

from nbsep import stft
from nbsep.autodiff import NumericError, Tensor
from nbsep.model import ModelConfig, NarrowBandModel
from nbsep.trainer import (
    AdamState,
    TrainConfig,
    adam_step,
    assemble_batch,
    batch_loss,
    build_probe_examples,
    clip_gradients,
    global_grad_norm,
    overfit_probe,
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
    batch = assemble_batch(probe_examples)
    assert batch.n_sequences == 2 * 257
    single = assemble_batch(probe_examples[:1])
    assert single.n_sequences == 257


def test_duplicated_utterance_loss_equals_single(probe_examples):
    net = NarrowBandModel(PROBE_MODEL, seed=0, dtype=np.float64)
    one = assemble_batch([probe_examples[0]])
    two = assemble_batch([probe_examples[0], probe_examples[0]])
    loss_one, _ = batch_loss(net, one, CFG8K, graph_chunk=2)
    loss_two, _ = batch_loss(net, two, CFG8K, graph_chunk=2)
    assert loss_two == pytest.approx(loss_one, abs=1e-9)


def test_batch_loss_gradients_deterministic(probe_examples):
    net = NarrowBandModel(PROBE_MODEL, seed=1, dtype=np.float64)
    batch = assemble_batch(probe_examples)
    _, g1 = batch_loss(net, batch, CFG8K, graph_chunk=1, accumulate_grads=True)
    _, g2 = batch_loss(net, batch, CFG8K, graph_chunk=1, accumulate_grads=True)
    for name in g1:
        np.testing.assert_array_equal(g1[name], g2[name])


def test_chunking_does_not_change_gradients(probe_examples):
    net = NarrowBandModel(PROBE_MODEL, seed=2, dtype=np.float64)
    batch = assemble_batch(probe_examples)
    _, g1 = batch_loss(net, batch, CFG8K, graph_chunk=1, accumulate_grads=True)
    _, g2 = batch_loss(net, batch, CFG8K, graph_chunk=2, accumulate_grads=True)
    for name in g1:
        np.testing.assert_allclose(g1[name], g2[name], atol=1e-10)


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

    from nbsep import trainer

    net = NarrowBandModel(PROBE_MODEL, seed=6, dtype=np.float64)
    batch = assemble_batch(probe_examples)
    utterance_loss = trainer._utterance_loss
    held, alive_at_start = [], []

    def watching_utterance_loss(*args, **kwargs):
        alive_at_start.append([ref() is not None for ref in held])
        loss = utterance_loss(*args, **kwargs)
        held.append(weakref.ref(_largest_interior_value(loss)))
        return loss

    monkeypatch.setattr(trainer, "_utterance_loss", watching_utterance_loss)
    batch_loss(net, batch, CFG8K, graph_chunk=1, accumulate_grads=True)
    assert alive_at_start == [[], [False]]


def test_mixed_length_batch_loss_is_the_mean_of_its_utterances(probe_examples):
    short = build_probe_examples(1, CFG8K, seed=1, n_mics=2, duration_samples=4000)[0]
    mixed = [probe_examples[0], short]
    assert len({ex.mixture.n_frames for ex in mixed}) == 2
    net = NarrowBandModel(PROBE_MODEL, seed=8, dtype=np.float64)
    loss, grads = batch_loss(net, assemble_batch(mixed), CFG8K, graph_chunk=2,
                             accumulate_grads=True)
    singles = [batch_loss(net, assemble_batch([ex]), CFG8K)[0] for ex in mixed]
    assert loss == pytest.approx(np.mean(singles), rel=1e-12)
    assert grads and all(np.all(np.isfinite(g)) for g in grads.values())


def test_train_runs_on_utterances_of_different_lengths(tmp_path, probe_examples):
    short = build_probe_examples(2, CFG8K, seed=1, n_mics=2, duration_samples=4000)
    cfg = TrainConfig(utterances_per_batch=2, max_epochs=1, seed=0, graph_chunk=2)
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
    t = ex.mixture.n_frames
    assert ex.mixture_wave.n_samples == CFG8K.covered_len(t)
    assert ex.mixture.n_channels == 2


def test_probe_step_zero_is_untrained(probe_examples):
    _, curve = overfit_probe(PROBE_MODEL, probe_examples[:1], steps=0,
                             stft_cfg=CFG8K, seed=0)
    assert len(curve) == 1
    assert curve[0][0] == 0
    assert curve[0][1] <= 1.0  # an untrained model yields no improvement


def test_probe_duplicated_example_matches_single(probe_examples):
    _, c1 = overfit_probe(PROBE_MODEL, [probe_examples[0]], steps=3,
                          stft_cfg=CFG8K, seed=3, eval_every=3)
    _, c2 = overfit_probe(PROBE_MODEL, [probe_examples[0]] * 2, steps=3,
                          stft_cfg=CFG8K, seed=3, eval_every=3)
    for (s1, v1), (s2, v2) in zip(c1, c2):
        assert s1 == s2
        assert v1 == pytest.approx(v2, abs=1e-4)  # float32 accumulation order


def test_probe_rejects_unknown_precision(probe_examples):
    with pytest.raises(ValueError, match="unknown precision"):
        overfit_probe(PROBE_MODEL, probe_examples[:1], steps=0, stft_cfg=CFG8K,
                      precision="float16")


def test_probe_loss_decreases_quickly(probe_examples):
    net, curve = overfit_probe(PROBE_MODEL, probe_examples, steps=30,
                               stft_cfg=CFG8K, seed=4, eval_every=30)
    assert curve[-1][1] > curve[0][1] - 1.0  # not diverging
    batch = assemble_batch(probe_examples)
    loss, _ = batch_loss(net, batch, CFG8K, graph_chunk=4)
    assert np.isfinite(loss)


# -- end-to-end training loop -------------------------------------------------------


def test_train_writes_log_and_checkpoints(tmp_path, probe_examples):
    cfg = TrainConfig(utterances_per_batch=2, max_epochs=2, seed=0,
                      precision="float32", graph_chunk=2)
    net = NarrowBandModel(PROBE_MODEL, seed=5, dtype=cfg.dtype)
    result = train(net, probe_examples, probe_examples[:1], cfg, CFG8K, tmp_path)
    assert result.steps == 2
    assert (tmp_path / "train_log.csv").exists()
    assert (tmp_path / "checkpoint_last" / "manifest.json").exists()
    assert (tmp_path / "checkpoint_best" / "manifest.json").exists()
    lines = (tmp_path / "train_log.csv").read_text().strip().splitlines()
    assert lines[0] == "step,epoch,train_loss,val_loss,lr,grad_norm"
    assert len(lines) >= 5


def test_train_determinism(tmp_path, probe_examples):
    cfg = TrainConfig(utterances_per_batch=2, max_epochs=2, seed=7,
                      precision="float32", graph_chunk=2)
    logs = []
    for run in ("a", "b"):
        net = NarrowBandModel(PROBE_MODEL, seed=7, dtype=cfg.dtype)
        train(net, probe_examples, probe_examples[:1], cfg, CFG8K, tmp_path / run)
        logs.append((tmp_path / run / "train_log.csv").read_text())
    assert logs[0] == logs[1]


def test_validation_loss_is_graph_free_and_bit_identical(probe_examples, monkeypatch):
    net = NarrowBandModel(PROBE_MODEL, seed=3, dtype=np.float64)
    batch = assemble_batch(probe_examples)
    graph_loss, _ = batch_loss(net, batch, CFG8K, graph_chunk=1, accumulate_grads=True)
    recorded = []
    forward = net.forward

    def recording_forward(*args, **kwargs):
        recorded.append(forward(*args, **kwargs))
        return recorded[-1]

    monkeypatch.setattr(net, "forward", recording_forward)
    free_loss, _ = batch_loss(net, batch, CFG8K, graph_chunk=1)
    assert len(recorded) == 2 and not any(out.requires_grad for out in recorded)
    assert free_loss == graph_loss


@pytest.mark.parametrize("field,value", [("utterances_per_batch", 0), ("graph_chunk", 0),
                                         ("graph_chunk", -2), ("max_epochs", -1)])
def test_train_config_rejects_counts_out_of_range(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= "):
        TrainConfig(**{field: value})
    TrainConfig(max_epochs=0)  # zero epochs is a valid (empty) run
