"""Every nbsep name that the benchmark's tracer wraps must still exist.

`perfbench/bench_trace.py` instruments nbsep by attribute name, so deleting
or renaming one of those functions breaks every traced benchmark run.  This
test makes such a change fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

from nbsep import autodiff, model

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def load_bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    bt = load_bench_trace()
    layers = {layer: importlib.import_module(f"nbsep.{layer}") for layer in bt.LAYERS}
    missing = [f"{layer}.{attr}" for layer, attr in bt.FUNCTIONS
               if not callable(getattr(layers[layer], attr, None))]
    ops = bt.AUTODIFF_OPS + sum(bt.AUTODIFF_GROUPS.values(), ())
    missing += [f"autodiff.{op}" for op in ops if not callable(getattr(autodiff, op, None))]
    missing += [f"NarrowBandModel.{m}" for m in bt.MODEL_METHODS
                if not callable(getattr(model.NarrowBandModel, m, None))]
    assert not missing, f"names wrapped by perfbench/bench_trace.py are gone: {missing}"
