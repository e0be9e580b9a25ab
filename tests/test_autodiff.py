import numpy as np
import pytest

import nbsep.autodiff as ad
from nbsep.autodiff import Tensor
from nbsep.gradcheck_suite import primitive_checks


def test_silu_values():
    x = Tensor(np.array([0.0, 50.0, -50.0]))
    y = ad.silu(x).numpy()
    assert y[0] == 0.0
    np.testing.assert_allclose(y[1], 50.0, rtol=1e-12)  # saturates to identity
    np.testing.assert_allclose(y[2], 0.0, atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    y = ad.softmax(Tensor(rng.standard_normal((5, 8)) * 4)).numpy()
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)


def test_depthwise_identity_conv():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3, 1, 10))
    w = np.ones((3, 1, 1))
    y = ad.conv1d(Tensor(x), Tensor(w), Tensor(np.zeros(3)), groups=3).numpy()
    np.testing.assert_array_equal(y, x)


def test_linear_map_gradient():
    rng = np.random.default_rng(2)
    w = Tensor(rng.standard_normal(7), requires_grad=True)
    x = np.linspace(-1, 1, 7)
    loss = ad.tsum(ad.mul(w, Tensor(x)))
    ad.backward(loss)
    np.testing.assert_array_equal(w.grad, x)


def test_square_gradient():
    x = Tensor(np.array(3.0), requires_grad=True)
    ad.backward(ad.power(x, 2.0))
    np.testing.assert_allclose(x.grad, 6.0, rtol=1e-12)


def test_three_op_chain_matches_finite_differences():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)

    def f(t):
        return ad.tsum(ad.silu(ad.matmul(ad.transpose(t, (1, 0)), t)))

    assert ad.grad_check(f, x, step=1e-5) < 1e-7


def test_grad_check_constant_gradient():
    x = Tensor(np.random.default_rng(4).standard_normal(6), requires_grad=True)
    assert ad.grad_check(lambda t: ad.tsum(t), x) < 1e-10


def test_grad_check_layer_norm_chain():
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
    g = Tensor(rng.standard_normal(5), requires_grad=True)
    b = Tensor(rng.standard_normal(5), requires_grad=True)

    def f(xx, gg, bb):
        return ad.tsum(ad.power(ad.layer_norm(xx, gg, bb), 2.0))

    assert ad.grad_check(f, [x, g, b]) < 1e-6


def test_every_primitive_grad_checks():
    for name, err in primitive_checks(seed=0):
        assert err < 1e-6, f"{name}: {err}"


def _randn(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def random_primitive_sweep(trials: int = 100, seed: int = 0, step: float = 1e-5) -> float:
    """Max grad-check error over `trials` random (op, shape) draws."""
    rng = np.random.default_rng(seed)

    def add_case(r):
        rows, cols = int(r.integers(1, 4)), int(r.integers(1, 5))
        return (lambda x, y: ad.tsum(ad.power(ad.add(x, y), 2.0)),
                [_randn(r, rows, cols), _randn(r, 1, cols)])

    cases = [
        add_case,
        lambda r: (lambda x, y: ad.tsum(ad.mul(x, y)),
                   [_randn(r, 2, r.integers(1, 5)), _randn(r, 2, 1)]),
        lambda r: (lambda x, y: ad.tsum(ad.power(ad.matmul(x, y), 2.0)),
                   [_randn(r, r.integers(1, 4), 3), _randn(r, 3, r.integers(1, 4))]),
        lambda r: (lambda x: ad.tsum(ad.power(ad.softmax(x), 2.0)),
                   [_randn(r, r.integers(1, 4), r.integers(2, 6))]),
        lambda r: (lambda x: ad.tsum(ad.silu(x)), [_randn(r, r.integers(1, 6))]),
        lambda r: (lambda x, g, b: ad.tsum(ad.power(ad.layer_norm(x, g, b), 2.0)),
                   [_randn(r, 4, r.integers(1, 4)), _randn(r, 4), _randn(r, 4)]),
        lambda r: (lambda x, w, b: ad.tsum(ad.power(ad.conv1d(x, w, b, padding=(1, 1)), 2.0)),
                   [_randn(r, 2, 1, r.integers(4, 8)), _randn(r, 3, 2, 3), _randn(r, 3)]),
    ]
    worst = 0.0
    for _ in range(trials):
        f, tensors = cases[int(rng.integers(0, len(cases)))](rng)
        worst = max(worst, ad.grad_check(f, tensors, step=step))
    return worst


def test_random_primitive_sweep_100_trials():
    assert random_primitive_sweep(trials=100, seed=7) < 1e-6


def test_unused_leaf_gets_no_gradient():
    x = Tensor(np.ones(3), requires_grad=True)
    y = Tensor(np.ones(3), requires_grad=True)
    ad.backward(ad.tsum(ad.mul(x, x)))
    assert y.grad is None
    # a leaf feeding a zero-weight path gets an exact zero, not None
    z = Tensor(np.ones(3), requires_grad=True)
    loss = ad.tsum(ad.add(ad.mul(z, Tensor(np.zeros(3))), x))
    ad.zero_grad([x])
    ad.backward(loss)
    np.testing.assert_array_equal(z.grad, np.zeros(3))


def test_double_backward_accumulates_exactly_twice():
    rng = np.random.default_rng(6)
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    x = Tensor(rng.standard_normal((3, 2)))

    def build():
        return ad.tsum(ad.power(ad.matmul(w, x), 2.0))

    ad.backward(build())
    once = w.grad.copy()
    ad.backward(build())
    np.testing.assert_array_equal(w.grad, 2.0 * once)


def test_backward_frees_the_graph_as_it_goes_and_refuses_a_second_pass():
    import weakref

    rng = np.random.default_rng(22)
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    h1 = ad.silu(ad.matmul(w, Tensor(rng.standard_normal((3, 4)))))
    h2 = ad.silu(h1)
    loss = ad.tsum(h2)
    h2_value = weakref.ref(h2.data)
    seen = []
    h1_vjp = h1._vjp

    def watching_vjp(g):
        seen.append(h2_value() is None)  # h2 was done before h1's turn
        return h1_vjp(g)

    h1._vjp = watching_vjp
    del h1, h2
    ad.backward(loss)
    assert seen == [True]
    assert loss._parents == ()
    once = w.grad.copy()
    with pytest.raises(RuntimeError, match="already used by backward"):
        ad.backward(loss)
    np.testing.assert_array_equal(w.grad, once)
    assert loss.grad is None
    # a new graph over a node of a consumed one cannot reach the leaves either
    h = ad.mul(w, w)
    ad.backward(ad.tsum(h))
    with pytest.raises(RuntimeError, match="already used by backward"):
        ad.backward(ad.tsum(ad.mul(h, h)))


def _istft_graph(pred):
    from nbsep import objective, stft

    cfg = stft.StftConfig(window_len=8, hop=4, sample_rate=8000)
    return objective.istft_graph(pred, cfg, cfg.covered_len(pred.shape[-1]))


# every graph-recording op that the model or the loss calls: its operand
# shapes, which operands its backward rule reads, and whether it reads its output
GRAPH_OPS = {
    "add": (ad.add, [(3, 4), (3, 4)], (False, False), False),
    "sub": (ad.sub, [(3, 4), (1, 4)], (False, False), False),
    "mul": (ad.mul, [(3, 4), (3, 4)], (True, True), False),
    "div": (ad.div, [(3, 4), (3, 4)], (True, True), False),
    "neg": (ad.neg, [(3, 4)], (False,), False),
    "scale": (lambda a: ad.scale(a, 3.0), [(3, 4)], (False,), False),
    "power": (lambda a: ad.power(a, 2.0), [(3, 4)], (True,), False),
    "log10": (ad.log10, [(3, 4)], (True,), False),
    "clip": (lambda a: ad.clip(a, 0.8, 1.2), [(3, 4)], (True,), False),
    "silu": (ad.silu, [(3, 4)], (True,), True),
    "tsum": (lambda a: ad.tsum(a, axis=1), [(3, 4)], (False,), False),
    "reshape": (lambda a: ad.reshape(a, (4, 3)), [(3, 4)], (False,), False),
    "transpose": (lambda a: ad.transpose(a, (2, 0, 1)), [(2, 3, 4)], (False,), False),
    "narrow": (lambda a: ad.narrow(a, -1, 1, 2), [(3, 4)], (False,), False),
    "matmul": (ad.matmul, [(3, 4), (4, 5)], (True, True), False),
    "layer_norm": (ad.layer_norm, [(4, 2, 5), (4,), (4,)], (False, True, False), False),
    "conv1d": (lambda x, w, b: ad.conv1d(x, w, b, (1, 1), groups=2),
               [(4, 2, 6), (6, 2, 3), (6,)], (True, True, False), False),
    "conv_norm_silu": (lambda x, w, b, gamma, beta: ad.conv_norm_silu(x, w, b, gamma, beta, 2),
                       [(4, 2, 6), (4, 2, 3), (4,), (4,), (4,)],
                       (True, True, False, True, True), True),
    # the kernel is flipped into a copy of its own, which conv1d then reads
    "conv_transpose1d": (ad.conv_transpose1d, [(3, 2, 5), (3, 4, 2), (4,)],
                         (True, False, False), False),
    "rel_attention": (lambda *qkv: ad.rel_attention(*qkv, scale=0.5),
                      [(2, 2, 5, 3), (2, 2, 3, 5), (2, 2, 5, 3), (2, 1, 3), (2, 1, 3), (2, 3, 9)],
                      (True,) * 6, True),
    "dropout": (lambda a: ad.dropout(a, 0.3, np.random.default_rng(1), training=True),
                [(3, 4)], (False,), False),
    "istft_graph": (_istft_graph, [(5, 4, 3)], (False,), False),
}


@pytest.mark.parametrize("name", sorted(GRAPH_OPS))
def test_a_graph_keeps_only_the_values_its_backward_rule_reads(name):
    import weakref

    op, shapes, reads_inputs, reads_output = GRAPH_OPS[name]
    rng = np.random.default_rng(23)
    arrays = [rng.uniform(0.5, 1.5, s) for s in shapes]

    def build():
        # each operand an interior value: an op output, kept only by what refers to it
        leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        ins = [ad.scale(t, 1.0) for t in leaves]
        out = op(*ins)
        return leaves, ins, out, ad.scale(out, 1.0)  # a consumer whose rule reads nothing

    leaves, ins, out, top = build()
    seed = rng.standard_normal(top.shape)
    ad.backward(top, seed)
    want = [t.grad for t in leaves]

    leaves, ins, out, top = build()
    refs = [weakref.ref(t.data) for t in ins]
    out_ref = weakref.ref(out.data)
    del ins, out
    assert [r() is not None for r in refs] == list(reads_inputs)
    assert (out_ref() is not None) == reads_output
    # the values kept are all the backward needs: the same gradients, bit for bit
    ad.backward(top, seed)
    for leaf, grad in zip(leaves, want):
        np.testing.assert_array_equal(leaf.grad, grad)
    assert all(r() is None for r in refs) and out_ref() is None


def test_graph_nodes_report_the_values_they_still_hold():
    import weakref

    w = Tensor(np.ones((3, 3)), requires_grad=True)
    h = ad.matmul(w, Tensor(np.ones((3, 4))))
    y = ad.add(h, Tensor(np.ones((3, 1))))  # add reads no value: only the Tensor h keeps it
    node = y._parents[0]
    assert node.data is h.data and node._parents == (w, ad._CONSTANT)
    value = weakref.ref(h.data)
    del h
    assert value() is None
    assert node.data.shape == (0,) and node.data.nbytes == 0


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(ad.mul(x, x))


def test_seed_gradient_backpropagates_like_a_weighted_sum():
    rng = np.random.default_rng(31)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    seed = rng.standard_normal((3, 4))
    ad.backward(ad.silu(ad.mul(x, x)), seed)
    got, x.grad = x.grad, None
    ad.backward(ad.tsum(ad.mul(ad.silu(ad.mul(x, x)), Tensor(seed))))
    assert np.array_equal(got, x.grad)
    with pytest.raises(ValueError, match=r"seed gradient of shape \(4, 3\) for a \(3, 4\)"):
        ad.backward(ad.mul(x, x), seed.T)


def test_shared_subexpression_accumulates():
    x = Tensor(np.array(2.0), requires_grad=True)
    y = ad.mul(x, x)  # x^2
    loss = ad.add(y, y)  # 2 x^2 -> dl/dx = 4x = 8
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, 8.0, rtol=1e-12)


def test_dropout_eval_is_identity_and_train_preserves_mean():
    rng = np.random.default_rng(8)
    x = Tensor(np.ones(100_000))
    assert ad.dropout(x, 0.3, None, training=False) is x
    out = ad.dropout(x, 0.3, rng, training=True).numpy()
    assert abs(out.mean() - 1.0) < 0.01
    zeros = out == 0.0
    np.testing.assert_allclose(out[~zeros], 1.0 / 0.7, rtol=1e-12)


def test_dropout_needs_rng_in_training():
    with pytest.raises(ValueError, match="rng"):
        ad.dropout(Tensor(np.ones(4)), 0.5, None, training=True)


def test_conv_shape_errors():
    x = Tensor(np.ones((3, 1, 8)))
    with pytest.raises(ValueError, match="conv1d"):
        ad.conv1d(x, Tensor(np.ones((4, 2, 3))), Tensor(np.zeros(4)))
    with pytest.raises(ValueError, match=r"conv1d expects channel-major \(C, B, T\) input, "
                                         r"got \(3, 8\)"):
        ad.conv1d(Tensor(np.ones((3, 8))), Tensor(np.ones((4, 3, 3))), Tensor(np.zeros(4)))
    with pytest.raises(ValueError, match="groups"):
        ad.group_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)), 2)
    with pytest.raises(ValueError, match="conv_transpose1d: input has 3 channels"):
        ad.conv_transpose1d(x, Tensor(np.ones((4, 2, 3))), Tensor(np.zeros(2)))


def test_overlap_add_matches_manual():
    rng = np.random.default_rng(9)
    frames = rng.standard_normal((4, 3))
    out = ad.overlap_add(Tensor(frames), 2, 8).numpy()
    manual = np.zeros(8)
    for t in range(3):
        manual[2 * t : 2 * t + 4] += frames[:, t]
    np.testing.assert_array_equal(out, manual)


def test_rel_gather_values():
    x = np.arange(12.0).reshape(2, 6)
    idx = np.array([[0, 2], [5, 5]])
    out = ad.rel_gather(Tensor(x), idx).numpy()
    np.testing.assert_array_equal(out, [[0.0, 2.0], [11.0, 11.0]])


@pytest.mark.parametrize("t_len", [1, 2, 5, 9])
def test_relative_shift_matches_index_gather(t_len):
    from nbsep.model import relative_index_table

    rng = np.random.default_rng(t_len)
    x = rng.standard_normal((3, 2, t_len, 2 * t_len - 1))
    fast = ad.relative_shift(Tensor(x)).numpy()
    slow = ad.rel_gather(Tensor(x), relative_index_table(t_len)).numpy()
    np.testing.assert_array_equal(fast, slow)


def test_relative_shift_gradient_matches_gather_gradient():
    from nbsep.model import relative_index_table

    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 4, 7))
    a = Tensor(x.copy(), requires_grad=True)
    b = Tensor(x.copy(), requires_grad=True)
    ad.backward(ad.tsum(ad.power(ad.relative_shift(a), 2.0)))
    ad.backward(ad.tsum(ad.power(ad.rel_gather(b, relative_index_table(4)), 2.0)))
    np.testing.assert_allclose(a.grad, b.grad, atol=1e-12)
    assert ad.grad_check(lambda t: ad.tsum(ad.power(ad.relative_shift(t), 2.0)),
                         Tensor(x.copy(), requires_grad=True)) < 1e-7


def test_no_graph_outputs_of_grad_params_are_constants():
    rng = np.random.default_rng(20)
    w = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    x = Tensor(rng.standard_normal((3, 4)))
    with ad.no_graph():
        h = ad.matmul(w, x)
        outs = [h, ad.silu(h), ad.clip(h, -0.5, 0.5), ad.log10(ad.power(h, 2.0))]
    for out in outs:
        assert out._parents == () and out._vjp is None
        assert out.requires_grad is False
    # the same ops outside the mode build a graph and give identical values
    h_graph = ad.matmul(w, x)
    # parents are graph nodes: the leaf w itself and, for the constant x, a stand-in
    assert h_graph.requires_grad and h_graph._parents == (w, ad._CONSTANT)
    graph_outs = [h_graph, ad.silu(h_graph), ad.clip(h_graph, -0.5, 0.5),
                  ad.log10(ad.power(h_graph, 2.0))]
    for free, built in zip(outs, graph_outs):
        np.testing.assert_array_equal(free.data, built.data)


def test_no_graph_restored_after_exception_and_nesting():
    w = Tensor(np.ones(2), requires_grad=True)

    def records():
        return ad.mul(w, w).requires_grad

    with pytest.raises(ValueError, match="boom"):
        with ad.no_graph():
            assert not records()
            raise ValueError("boom")
    assert records()
    with ad.no_graph():
        with ad.no_graph():
            assert not records()
        assert not records()  # leaving the inner block keeps the outer mode
    assert records()


def test_pointwise_gradients_equal_saved_value_formulas_bit_for_bit():
    # large, non-contiguous operands: numpy may then reuse temporaries in
    # place, which changes a gradient's layout and so later summation orders
    rng = np.random.default_rng(21)
    x = Tensor(rng.standard_normal((96, 64, 40)).transpose(1, 0, 2), requires_grad=True)
    g = rng.standard_normal(x.shape)
    s = 1.0 / (1.0 + np.exp(-x.data))
    deriv = s + x.data * s * (1.0 - s)
    mask = ((x.data >= -0.5) & (x.data <= 0.5)).astype(x.dtype)
    inv = 1.0 / (np.abs(x.data) * np.log(10.0))
    scaled = (np.random.default_rng(4).random(x.shape) >= 0.3).astype(x.dtype) / (1.0 - 0.3)
    dropped = ad.dropout(x, 0.3, np.random.default_rng(4), training=True)
    want_out = x.data * scaled
    np.testing.assert_array_equal(dropped.data, want_out)
    assert dropped.data.strides == want_out.strides
    cases = [(ad.silu(x), deriv), (ad.clip(x, -0.5, 0.5), mask),
             (ad.log10(Tensor(np.abs(x.data), requires_grad=True)), inv), (dropped, scaled)]
    g_fortran = np.asfortranarray(g)  # an output gradient of another layout than x's
    for out, factor in cases:
        for seed in (g, g_fortran):
            (grad,) = out._vjp(seed)
            want = seed * factor
            np.testing.assert_array_equal(grad, want)
            assert grad.strides == want.strides


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead,t_len,k", [((16,), 51, 3), ((1,), 257, 3), ((1,), 33, 5)])
@pytest.mark.parametrize("seed_layout", ["contiguous", "transposed"])
def test_conv_norm_silu_equals_conv_group_norm_silu_bit_for_bit(dtype, lead, t_len, k,
                                                                seed_layout):
    # 96 channels: arrays large enough for numpy to reuse temporaries in place,
    # which would show as a different gradient layout
    c, groups = 96, 8
    rng = np.random.default_rng(t_len + k)
    shape = (c,) + lead + (t_len,)
    arrays = [rng.standard_normal(s).astype(dtype)
              for s in (shape, (c, c // groups, k), (c,), (c,), (c,))]
    seed = rng.standard_normal(shape).astype(dtype)
    if seed_layout == "transposed":
        seed = np.ascontiguousarray(seed.T).T

    def unfused(x, w, b, gamma, beta):
        y = ad.conv1d(x, w, b, padding=(k // 2, k // 2), groups=groups)
        return ad.silu(ad.group_norm(y, gamma, beta, groups))

    def fused(x, w, b, gamma, beta):
        return ad.conv_norm_silu(x, w, b, gamma, beta, groups)

    results = []
    for op in (fused, unfused):
        ins = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = op(*ins)
        ad.backward(out, seed)
        results.append([out.data] + [t.grad for t in ins])
    for got, want in zip(*results):
        assert got.dtype == want.dtype == dtype
        np.testing.assert_array_equal(got, want)
        assert got.strides == want.strides
    # without a graph the op works in place and gives the same bits
    with ad.no_graph():
        free = fused(*[Tensor(a, requires_grad=True) for a in arrays])
    assert free._vjp is None
    np.testing.assert_array_equal(free.data, results[0][0])


def _unfused_rel_attention(q, k, v, u, vb, rel, scale):
    content = ad.matmul(ad.add(q, u), k)
    position = ad.relative_shift(ad.matmul(ad.add(q, vb), rel))
    return ad.matmul(ad.softmax(ad.scale(ad.add(content, position), scale)), v)


def _rel_attention_inputs(rng, lead, heads, t_len, dh, dtype):
    shapes = [lead + (heads, t_len, dh), lead + (heads, dh, t_len), lead + (heads, t_len, dh),
              (heads, 1, dh), (heads, 1, dh), (heads, dh, 2 * t_len - 1)]
    return [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True) for s in shapes]


@pytest.mark.parametrize("lead,t_len", [((3,), 7), ((2, 3), 7), ((3,), 1), ((), 7)])
def test_rel_attention_matches_unfused_composition(lead, t_len):
    rng = np.random.default_rng(30 + t_len + len(lead))
    heads, dh = 2, 3
    scale = 1.0 / np.sqrt(dh)  # a numpy float64, as the model passes it
    head = rng.standard_normal(lead + (heads, t_len, dh))
    results = []
    for op in (ad.rel_attention, _unfused_rel_attention):
        ins = _rel_attention_inputs(np.random.default_rng(t_len), lead, heads, t_len, dh,
                                    np.float64)
        out = op(*ins, scale)
        ad.backward(ad.tsum(ad.mul(out, Tensor(head))))
        results.append([out.data] + [t.grad for t in ins])
    for fused, unfused in zip(*results):
        assert fused.shape == unfused.shape
        # at T = 1 the probabilities are constant, so the gradients of q, k,
        # u, vb and rel vanish exactly in the unfused form and to round-off
        # of O(1) terms in the fused one: measure those against 1
        rel_err = np.max(np.abs(fused - unfused)) / max(np.max(np.abs(unfused)), 1.0)
        assert rel_err <= 1e-12

    # float32 in, float32 out: neither the output nor a gradient is promoted
    ins = _rel_attention_inputs(rng, lead, heads, t_len, dh, np.float32)
    sink = []
    out = ad.rel_attention(*ins, scale, probs_sink=sink)
    ad.backward(ad.tsum(ad.mul(out, Tensor(head.astype(np.float32)))))
    assert out.dtype == np.float32 and sink[0].dtype == np.float32
    assert all(t.grad.dtype == np.float32 for t in ins)
    np.testing.assert_allclose(sink[0].sum(axis=-1), 1.0, atol=1e-6)


# -- the channel-major layers against the batch-major forms they replaced -------
#
# Straight-line numpy forms of the former (B, C, T) ops: im2col conv1d,
# col2im conv_transpose1d, and the norms over axis -2.  Each returns the
# output and a function from the output gradient to the input gradients.


def _ref_layer_norm(xd, gamma, beta, eps=1e-5):
    mu = xd.mean(axis=-2, keepdims=True)
    xc = xd - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-2, keepdims=True) + eps)
    xh = xc * inv
    out = gamma.reshape(-1, 1) * xh + beta.reshape(-1, 1)

    def vjp(g):
        red = tuple(i for i in range(g.ndim) if i != g.ndim - 2)
        dxh = g * gamma.reshape(-1, 1)
        m1 = dxh.mean(axis=-2, keepdims=True)
        m2 = (dxh * xh).mean(axis=-2, keepdims=True)
        return inv * (dxh - m1 - xh * m2), (g * xh).sum(axis=red), g.sum(axis=red)

    return out, vjp


def _ref_group_norm(xd, gamma, beta, groups, eps=1e-5):
    c, t = xd.shape[-2], xd.shape[-1]
    gshape = xd.shape[:-2] + (groups, c // groups, t)
    xr = xd.reshape(gshape)
    xc = xr - xr.mean(axis=(-2, -1), keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=(-2, -1), keepdims=True) + eps)
    xh = xc * inv
    out = gamma.reshape(-1, 1) * xh.reshape(xd.shape) + beta.reshape(-1, 1)

    def vjp(g):
        red = tuple(i for i in range(g.ndim) if i != g.ndim - 2)
        dxh = (g * gamma.reshape(-1, 1)).reshape(gshape)
        m1 = dxh.mean(axis=(-2, -1), keepdims=True)
        m2 = (dxh * xh).mean(axis=(-2, -1), keepdims=True)
        dx = (inv * (dxh - m1 - xh * m2)).reshape(xd.shape)
        return dx, (g * xh.reshape(xd.shape)).sum(axis=red), g.sum(axis=red)

    return out, vjp


def _ref_conv1d(xd, wd, bd, padding, groups):
    # im2col over (B, C_in, T): one gemm per group over (C_in/groups * K) rows
    c_out, c_in_g, k = wd.shape
    n_batch = xd.shape[0]
    pl, pr = padding
    xpt = np.pad(xd.transpose(1, 0, 2), [(0, 0), (0, 0), (pl, pr)])  # (C_in, B, Tp)
    tp = xpt.shape[-1]
    t_out = tp - k + 1
    og, cols = c_out // groups, n_batch * t_out
    win = np.lib.stride_tricks.sliding_window_view(xpt, k, axis=2)  # (C_in, B, T_out, K)
    y2 = np.empty((c_out, cols), dtype=xd.dtype)
    for g_i in range(groups):
        ci, co = g_i * c_in_g, g_i * og
        xg = win[ci : ci + c_in_g].transpose(0, 3, 1, 2).reshape(c_in_g * k, cols)
        y2[co : co + og] = wd[co : co + og].reshape(og, c_in_g * k) @ xg
    y = y2.reshape(c_out, n_batch, t_out).transpose(1, 0, 2) + bd.reshape(-1, 1)

    def vjp(g):
        gyt = np.ascontiguousarray(g.transpose(1, 0, 2)).reshape(c_out, cols)
        gxpt = np.zeros_like(xpt)
        gw = np.empty_like(wd)
        for g_i in range(groups):
            ci, co = g_i * c_in_g, g_i * og
            xg = win[ci : ci + c_in_g].transpose(0, 3, 1, 2).reshape(c_in_g * k, cols)
            gy_g = gyt[co : co + og]
            gw[co : co + og] = (gy_g @ xg.T).reshape(og, c_in_g, k)
            gcol = (wd[co : co + og].reshape(og, c_in_g * k).T @ gy_g).reshape(
                c_in_g, k, n_batch, t_out)
            for kk in range(k):  # col2im scatter
                gxpt[ci : ci + c_in_g, :, kk : kk + t_out] += gcol[:, kk]
        gx = np.ascontiguousarray(gxpt[:, :, pl : tp - pr].transpose(1, 0, 2))
        return gx, gw, gyt.sum(axis=1)

    return y, vjp


def _ref_conv_transpose1d(xd, wd, bd):
    c_in, c_out, k = wd.shape
    n_batch, _, t_in = xd.shape
    t_out = t_in + k - 1
    cols = n_batch * t_in
    xt = np.ascontiguousarray(xd.transpose(1, 0, 2)).reshape(c_in, cols)
    yt = np.zeros((c_out, n_batch, t_out), dtype=xd.dtype)
    for kk in range(k):
        yt[:, :, kk : kk + t_in] += (wd[:, :, kk].T @ xt).reshape(c_out, n_batch, t_in)
    y = yt.transpose(1, 0, 2) + bd.reshape(-1, 1)

    def vjp(g):
        gt = np.ascontiguousarray(g.transpose(1, 0, 2))  # (C_out, B, T_out)
        gxt = np.zeros((c_in, cols), dtype=xd.dtype)
        gw = np.empty_like(wd)
        for kk in range(k):
            gs = np.ascontiguousarray(gt[:, :, kk : kk + t_in]).reshape(c_out, cols)
            gxt += wd[:, :, kk] @ gs
            gw[:, :, kk] = xt @ gs.T
        gx = gxt.reshape(c_in, n_batch, t_in).transpose(1, 0, 2)
        return gx, gw, gt.sum(axis=(1, 2))

    return y, vjp


LEADS = [(), (1,), (4,)]  # () is a 2-D (C, T) input, which only the norms take


def _layer_cases():
    for lead in LEADS:
        for t_len in (1, 7):
            for groups in (1, 3):
                for padding, k in (((3, 0), 4), ((1, 1), 3)) if lead else ():
                    yield f"conv1d-g{groups}-p{padding[0]}{padding[1]}-B{lead}-T{t_len}", (
                        "conv1d", lead, t_len, groups, padding, k)
                yield f"group_norm-g{groups}-B{lead}-T{t_len}", (
                    "group_norm", lead, t_len, groups, None, None)
            yield f"layer_norm-B{lead}-T{t_len}", ("layer_norm", lead, t_len, None, None, None)
            if lead:
                yield f"conv_transpose1d-B{lead}-T{t_len}", (
                    "conv_transpose1d", lead, t_len, None, None, 4)


LAYER_CASES = dict(_layer_cases())


def _run_layer(case, dtype, seed):
    """(new outputs and gradients, reference ones), in batch-major float64 for the reference."""
    op, lead, t_len, groups, padding, k = case
    rng = np.random.default_rng(seed)
    c_in, c_out = 6, 9
    x = rng.standard_normal((lead[0] if lead else 1, c_in, t_len))
    if op == "conv1d":
        params = [rng.standard_normal((c_out, c_in // groups, k)), rng.standard_normal(c_out)]
        run = lambda xx, w, b: ad.conv1d(xx, w, b, padding=padding, groups=groups)
        ref = lambda xx, w, b: _ref_conv1d(xx, w, b, padding, groups)
    elif op == "conv_transpose1d":
        params = [rng.standard_normal((c_in, c_out, k)), rng.standard_normal(c_out)]
        run, ref = ad.conv_transpose1d, _ref_conv_transpose1d
    elif op == "layer_norm":
        params = [rng.standard_normal(c_in), rng.standard_normal(c_in)]
        run, ref = ad.layer_norm, _ref_layer_norm
    else:
        params = [rng.standard_normal(c_in), rng.standard_normal(c_in)]
        run = lambda xx, gg, bb: ad.group_norm(xx, gg, bb, groups)
        ref = lambda xx, gg, bb: _ref_group_norm(xx, gg, bb, groups)

    want, ref_vjp = ref(x, *params)
    head = rng.standard_normal(want.shape)
    want_grads = ref_vjp(head)

    xcm = x.transpose(1, 0, 2) if lead else x[0]  # channel-major, or (C, T)
    ins = [Tensor(np.ascontiguousarray(a).astype(dtype), requires_grad=True)
           for a in [xcm] + params]
    out = run(*ins)
    head_cm = head.transpose(1, 0, 2) if lead else head[0]
    ad.backward(ad.tsum(ad.mul(out, Tensor(head_cm.astype(dtype)))))
    gx = ins[0].grad.transpose(1, 0, 2) if lead else ins[0].grad[None]
    got_out = out.data.transpose(1, 0, 2) if lead else out.data[None]
    got = [got_out, gx] + [t.grad for t in ins[1:]]
    return got, [want] + list(want_grads), ins, out


@pytest.mark.parametrize("name", sorted(LAYER_CASES))
def test_channel_major_layer_matches_batch_major_reference(name):
    got, want, _, _ = _run_layer(LAYER_CASES[name], np.float64, seed=len(name))
    for label, a, b in zip(("output", "input grad", "weight grad", "bias grad"), got, want):
        assert a.shape == b.shape, label
        rel = np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)
        assert rel <= 1e-12, f"{label}: relative error {rel:.3g}"


@pytest.mark.parametrize("name", ["conv1d-g3-p11-B(4,)-T7", "conv_transpose1d-B(4,)-T7",
                                  "layer_norm-B(4,)-T7", "group_norm-g3-B(4,)-T7"])
def test_channel_major_layer_keeps_float32(name):
    got, want, ins, out = _run_layer(LAYER_CASES[name], np.float32, seed=3)
    assert out.dtype == np.float32 and all(t.grad.dtype == np.float32 for t in ins)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) / np.max(np.abs(b)) < 1e-5
