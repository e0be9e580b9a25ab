"""In-memory span recorder that instruments nbsep from outside.

A traced run replaces the public module-attribute functions of each layer
(``nbsep.roomsim.simulate_rir``, ``nbsep.autodiff.conv1d``, ...) with thin
wrappers that open a span on entry and close it on exit.  Autodiff ops also
wrap the backward closure of the tensor they return, so backward time is
recorded per op as a child span of ``autodiff.backward``.  Spans stay in
memory as (name, start, end, parent) rows and are written out after the run.

Self time of a span is its duration minus the part of its interval that its
child spans cover; summed over all spans it equals the time covered by root
spans, so ``sum(self) + unattributed == traced wall time``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Layers whose public functions are wrapped.  `cli` only parses arguments and
# is covered through the functions its subcommands call.
LAYERS = ("audio", "stft", "roomsim", "dataset", "autodiff", "model", "objective", "trainer")

# Autodiff ops reported one by one; every other op falls into a lumped group.
AUTODIFF_OPS = (
    "conv1d", "conv_transpose1d", "matmul", "softmax", "relative_shift",
    "layer_norm", "group_norm", "silu", "dropout", "overlap_add",
)
AUTODIFF_GROUPS = {
    "elementwise": ("add", "sub", "mul", "div", "neg", "scale", "power", "log10", "clip",
                    "tsum", "tmean"),
    "shape": ("reshape", "transpose", "concat", "split", "narrow", "pad_last", "rel_gather"),
}
AUTODIFF_REPORTED = AUTODIFF_OPS + tuple(AUTODIFF_GROUPS)

# (module, attribute) pairs wrapped as spans named "<module>.<attribute>".
FUNCTIONS = (
    ("roomsim", "sample_scene"), ("roomsim", "simulate_rir"), ("roomsim", "spatialize"),
    ("audio", "read_wav"), ("audio", "write_wav"),
    ("stft", "stft"), ("stft", "istft"),
    ("dataset", "generate_dataset"), ("dataset", "mix_pair"),
    ("dataset", "normalize_spectrogram"),
    ("autodiff", "backward"),
    ("model", "load_checkpoint"), ("model", "save_checkpoint"),
    ("objective", "fpit"), ("objective", "istft_graph"), ("objective", "evaluate"),
    ("trainer", "train"), ("trainer", "batch_loss"), ("trainer", "adam_step"),
    ("trainer", "prepare_utterance"),
)
# NarrowBandModel methods, spans named "model.<method>".
MODEL_METHODS = ("forward", "separate", "bind")


class SpanRecorder:
    """Collects nested spans of one thread; rows are [name, start, end, parent]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = False

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def paused(self):
        """Run untraced (the benchmark's own output checks)."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(spans, wall_s: float) -> dict:
    """Per-name self time and call count, per-layer totals and the remainder.

    Returns {"names": {name: [self_s, calls]}, "layers": {layer: self_s},
    "unattributed_s": float, "wall_s": float}.
    """
    names: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for row, own in zip(spans, self_times(spans)):
        entry = names[row[0]]
        entry[0] += own
        entry[1] += 1
    layers = {layer: 0.0 for layer in LAYERS}
    for name, (own, _) in names.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + own
    attributed = sum(layers.values())
    return {
        "names": dict(names),
        "layers": layers,
        "unattributed_s": wall_s - attributed,
        "wall_s": wall_s,
    }


def _op_name(attr: str) -> str:
    for group, members in AUTODIFF_GROUPS.items():
        if attr in members:
            return group
    return attr


def _matmul_flops(args, out) -> float:
    return 2.0 * out.data.size * args[0].data.shape[-1]


def _conv1d_flops(args, out) -> float:
    w = args[1].data
    return 2.0 * out.data.size * w.shape[1] * w.shape[2]


FLOP_COUNTERS = {"matmul": _matmul_flops, "conv1d": _conv1d_flops}


class Instrumentation:
    """Installs span wrappers on every nbsep module binding of each function.

    Counters gathered at call time (operation counts, bytes written, graph
    sizes, scenes simulated) go into `counters` and `observations`.
    """

    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        self.counters: dict[str, float] = defaultdict(float)
        self.observations: dict[str, list] = defaultdict(list)
        self._restore: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import nbsep.autodiff as ad
        import nbsep.model as model_mod

        mods = {layer: sys.modules[f"nbsep.{layer}"] for layer in LAYERS}
        for layer, attr in FUNCTIONS:
            orig = getattr(mods[layer], attr)
            self._rebind(orig, self._span_wrapper(f"{layer}.{attr}", orig))
        for attr in AUTODIFF_OPS + sum(AUTODIFF_GROUPS.values(), ()):
            orig = getattr(ad, attr)
            self._rebind(orig, self._op_wrapper(_op_name(attr), orig, ad.Tensor))
        for attr in MODEL_METHODS:
            orig = getattr(model_mod.NarrowBandModel, attr)
            self._restore.append((model_mod.NarrowBandModel, attr, orig))
            setattr(model_mod.NarrowBandModel, attr, self._span_wrapper(f"model.{attr}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _rebind(self, orig, wrapper) -> None:
        # `from .audio import write_wav` makes a second binding; replace them all
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "nbsep" or name.startswith("nbsep.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, orig):
        rec = self.rec
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            if not rec.active:
                return orig(*args, **kwargs)
            idx = rec.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                rec.close(idx)
            if observe is not None:
                observe(args, kwargs, out)
            return out

        wrapper.__wrapped__ = orig
        return wrapper

    def _op_wrapper(self, op, orig, tensor_cls):
        rec = self.rec
        fwd_name, bwd_name = f"autodiff.{op}.fwd", f"autodiff.{op}.bwd"
        flops_of = FLOP_COUNTERS.get(op)
        counters = self.counters

        def wrapper(*args, **kwargs):
            if not rec.active:
                return orig(*args, **kwargs)
            idx = rec.open(fwd_name)
            try:
                out = orig(*args, **kwargs)
            finally:
                rec.close(idx)
            flops = 0.0
            if flops_of is not None:
                flops = flops_of(args, out)
                counters[f"autodiff.{op}.flops"] += flops
            # an op may hand back one of its inputs (dropout in eval mode) or a
            # tensor an inner op already wrapped (tmean -> scale): wrap once
            if isinstance(out, tensor_cls) and out._vjp is not None \
                    and not getattr(out._vjp, "_traced", False):
                out._vjp = _traced_vjp(rec, bwd_name, out._vjp, counters,
                                       f"autodiff.{op}.flops", 2.0 * flops)
            return out

        wrapper.__wrapped__ = orig
        return wrapper

    # -- observers (run after the span closed) -------------------------------

    def _observe_roomsim_simulate_rir(self, args, kwargs, rir):
        scene = args[0] if args else kwargs["scene"]
        self.observations["rir"].append((scene, rir.n_taps, rir.sample_rate))

    def _observe_audio_write_wav(self, args, kwargs, _):
        path = args[0] if args else kwargs["path"]
        self.counters["audio.bytes_written"] += os.path.getsize(path)

    def _observe_model_forward(self, args, kwargs, out):
        if isinstance(out, tuple):  # collect_attention
            out = out[0]
        self.observations["forward_graph"].append(graph_size(out))

    def _observe_objective_fpit(self, args, kwargs, out):
        self.observations["loss_graph"].append(graph_size(out[0]))


def _traced_vjp(rec, name, vjp, counters, flop_key, flops):
    def traced(g):
        if not rec.active:
            return vjp(g)
        idx = rec.open(name)
        try:
            return vjp(g)
        finally:
            rec.close(idx)
            if flops:
                counters[flop_key] += flops

    traced._traced = True
    return traced


def graph_size(root) -> tuple[int, int]:
    """Nodes and bytes of node values reachable from `root` through parents."""
    seen, stack, nbytes = set(), [root], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.data.nbytes
        stack.extend(node._parents)
    return len(seen), nbytes


@contextmanager
def traced(recorder: SpanRecorder, instrumentation: Instrumentation):
    """Install wrappers and record spans for the duration of the block."""
    instrumentation.install()
    recorder.active = True
    try:
        yield
    finally:
        recorder.active = False
        instrumentation.uninstall()
