"""Finite-difference verification battery for the engine and the full pipeline.

`run_battery` exercises every primitive the network uses on small random
shapes in double precision, then differentiates the complete narrow-band
model + permutation-invariant SI-SDR loss at a tiny configuration.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from . import objective, stft
from .audio import WaveBuffer
from .autodiff import Tensor

TINY_STFT = stft.StftConfig(window_len=8, hop=4, sample_rate=16000)
TINY_MODEL = dict(in_channels=2, speakers=2, width=8, inner_width=16,
                  blocks=1, conv_blocks=1, heads=2, dropout=0.0)


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def primitive_checks(seed: int = 0, step: float = 1e-5):
    """(name, max relative error) for each engine primitive."""
    rng = np.random.default_rng(seed)
    checks = []

    def case(name, f, *tensors):
        checks.append((name, ad.grad_check(f, list(tensors), step=step)))

    a, b = _t(rng, 3, 4), _t(rng, 3, 4)
    case("add", lambda x, y: ad.tsum(ad.mul(ad.add(x, y), ad.add(x, y))), a, b)
    case("sub/mul", lambda x, y: ad.tsum(ad.mul(ad.sub(x, y), x)), a, b)
    case("div", lambda x, y: ad.tsum(ad.div(x, ad.add(ad.mul(y, y), Tensor(1.0)))), a, b)
    case("broadcast add", lambda x, y: ad.tsum(ad.power(ad.add(x, y), 2.0)),
         _t(rng, 2, 3, 4), _t(rng, 3, 1))
    case("power", lambda x: ad.tsum(ad.power(ad.add(ad.mul(x, x), Tensor(0.5)), 1.5)), a)
    case("log10", lambda x: ad.tsum(ad.log10(ad.add(ad.mul(x, x), Tensor(0.3)))), a)
    case("silu", lambda x: ad.tsum(ad.silu(x)), a)
    case("clip", lambda x: ad.tsum(ad.clip(x, -0.7, 0.7)), _t(rng, 5, 5))
    case("softmax", lambda x: ad.tsum(ad.power(ad.softmax(x), 2.0)), _t(rng, 3, 6))
    case("matmul 2d", lambda x, y: ad.tsum(ad.power(ad.matmul(x, y), 2.0)),
         _t(rng, 3, 4), _t(rng, 4, 5))
    case("matmul weight x batch", lambda w, x: ad.tsum(ad.power(ad.matmul(w, x), 2.0)),
         _t(rng, 4, 3), _t(rng, 6, 3, 5))
    case("matmul batched", lambda x, y: ad.tsum(ad.power(ad.matmul(x, y), 2.0)),
         _t(rng, 2, 3, 4), _t(rng, 2, 4, 3))
    case("matmul broadcast", lambda x, y: ad.tsum(ad.power(ad.matmul(x, y), 2.0)),
         _t(rng, 2, 3, 5, 4), _t(rng, 3, 4, 6))
    case("transpose/reshape",
         lambda x: ad.tsum(ad.power(ad.reshape(ad.transpose(x, (1, 0, 2)), (6, -1)), 2.0)),
         _t(rng, 2, 3, 4))
    case("concat", lambda x, y: ad.tsum(ad.power(ad.concat([x, y], axis=1), 2.0)),
         _t(rng, 3, 2), _t(rng, 3, 5))
    case("split", lambda x: ad.tsum(ad.power(ad.split(x, [2, 3], axis=1)[1], 2.0)),
         _t(rng, 3, 5))
    case("narrow", lambda x: ad.tsum(ad.power(ad.narrow(x, -1, 1, 3), 2.0)), _t(rng, 2, 6))
    case("pad_last", lambda x: ad.tsum(ad.power(ad.pad_last(x, 2, 1), 2.0)), _t(rng, 2, 4))
    case("sum axis", lambda x: ad.tsum(ad.power(ad.tsum(x, axis=1, keepdims=True), 2.0)),
         _t(rng, 3, 4, 2))
    case("mean", lambda x: ad.tsum(ad.power(ad.tmean(x, axis=(0, 2)), 2.0)), _t(rng, 3, 4, 2))

    idx = model_mod.relative_index_table(4)
    case("rel_gather",
         lambda x: ad.tsum(ad.power(ad.rel_gather(x, idx), 2.0)), _t(rng, 2, 4, 7))
    case("relative_shift",
         lambda x: ad.tsum(ad.power(ad.relative_shift(x), 2.0)), _t(rng, 2, 4, 7))

    # the network's layers take channel-major (C, B, T) input
    g, bb = _t(rng, 5), _t(rng, 5)
    case("layer_norm", lambda x, gg, b2: ad.tsum(ad.power(ad.layer_norm(x, gg, b2), 2.0)),
         _t(rng, 5, 2, 3), g, bb)
    g2, b2 = _t(rng, 6), _t(rng, 6)
    case("group_norm",
         lambda x, gg, b3: ad.tsum(ad.power(ad.group_norm(x, gg, b3, 2), 2.0)),
         _t(rng, 6, 2, 3), g2, b2)

    # linear ops get a random linear head: gradients stay O(1) in every
    # coordinate, so the comparison is not finite-difference-noise-bound
    def linear_head(shape):
        r = Tensor(rng.standard_normal(shape))
        return lambda y: ad.tsum(ad.mul(y, r))

    head = linear_head((4, 2, 7))
    case("conv1d", lambda x, w, b3: head(ad.conv1d(x, w, b3, padding=(2, 1))),
         _t(rng, 3, 2, 6), _t(rng, 4, 3, 3), _t(rng, 4))
    head_ga = linear_head((6, 2, 8))
    case("conv1d grouped asymmetric padding",
         lambda x, w, b3: head_ga(ad.conv1d(x, w, b3, padding=(3, 0), groups=2)),
         _t(rng, 4, 2, 7), _t(rng, 6, 2, 3), _t(rng, 6))
    head_t = linear_head((4, 2, 8))
    case("conv_transpose1d", lambda x, w, b3: head_t(ad.conv_transpose1d(x, w, b3)),
         _t(rng, 3, 2, 5), _t(rng, 3, 4, 4), _t(rng, 4))
    head_o = linear_head((3, 9))
    case("overlap_add", lambda x: head_o(ad.overlap_add(x, 2, 9)), _t(rng, 3, 4, 4))
    head_a = linear_head((2, 2, 4, 3))
    case("rel_attention",
         lambda q, k, v, u, vb, r: head_a(ad.rel_attention(q, k, v, u, vb, r, 0.7)),
         _t(rng, 2, 2, 4, 3), _t(rng, 2, 2, 3, 4), _t(rng, 2, 2, 4, 3),
         _t(rng, 2, 1, 3), _t(rng, 2, 1, 3), _t(rng, 2, 3, 7))
    head_c = linear_head((4, 2, 5))
    case("conv_norm_silu",
         lambda x, w, b3, gg, bt: head_c(ad.conv_norm_silu(x, w, b3, gg, bt, 2)),
         _t(rng, 4, 2, 5), _t(rng, 4, 2, 3), _t(rng, 4), _t(rng, 4), _t(rng, 4))
    return checks


def full_pipeline_check(seed: int = 0, step: float = 1e-5, wrt: str = "input"):
    """Gradient of the tiny model + fPIT/SI-SDR loss vs central differences.

    With ``wrt="input"`` the loss is differentiated with respect to every
    coordinate of the network input, which backpropagates through every
    layer, the binding, the in-graph inverse STFT and the permutation-
    invariant SI-SDR.  With ``wrt="params"`` all parameter tensors are
    checked instead; some of those coordinates (high-index sine columns of
    the relative-encoding projection at short sequences) have gradients
    around 1e-8, where a central difference of a scalar loss carries an
    absolute noise floor near 1e-10, so the attainable relative agreement
    is bounded around 1e-3 there.  Parameter backward rules are covered
    coordinate-exactly by the per-primitive checks.

    Returns (max relative error, #coordinates checked).
    """
    cfg = model_mod.ModelConfig(**TINY_MODEL)
    scfg = TINY_STFT
    n_frequencies, n_frames = scfg.n_bins, 8
    out_len = scfg.covered_len(n_frames)

    rng = np.random.default_rng(seed)
    net = model_mod.NarrowBandModel(cfg, seed=seed, dtype=np.float64)
    for t in net.params.values():
        t.data = rng.standard_normal(t.shape) * 0.4
    x = Tensor(rng.standard_normal((n_frequencies, 2 * cfg.in_channels, n_frames)),
               requires_grad=True)
    scales = rng.uniform(0.5, 2.0, size=n_frequencies)
    target_waves = rng.standard_normal((cfg.speakers, out_len))
    targets = stft.stft(WaveBuffer(target_waves, scfg.sample_rate), scfg)

    def loss_fn(*_tensors):
        out = net.forward(x)
        pred = ad.mul(out, Tensor(scales[:, None, None]))
        loss, _ = objective.fpit(pred, targets, scfg, out_len)
        return loss

    if wrt == "input":
        tensors = [x]
        for t in net.params.values():
            t.requires_grad = False
    elif wrt == "params":
        tensors = list(net.params.values())
    else:
        raise ValueError(f"unknown wrt {wrt!r}")
    try:
        err = ad.grad_check(loss_fn, tensors, step=step)
    finally:
        for t in net.params.values():
            t.requires_grad = True
    n_coords = int(sum(t.size for t in tensors))
    return err, n_coords


def run_battery(seed: int = 0, step: float = 1e-5):
    """The battery behind `nbsep grad-check`: primitives plus the full model."""
    report = primitive_checks(seed=seed, step=step)
    err, n = full_pipeline_check(seed=seed, step=step, wrt="input")
    report.append((f"full model + fPIT loss, input grads ({n} coords)", err))
    return report
