#!/usr/bin/env python3
"""Run one nbsep benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {simulate,train,separate} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; nbsep is imported from ./src.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same workload is then replayed
under the span recorder and the per-layer metrics are printed instead.
Lines before it start with ``#`` and carry the environment, the tail
percentiles and the set-up and warm-up times.  Full results (and, when
traced, the spans) are written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# set up at least this often, and for at least this long, and report the median
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
# Printed by every workload with --trace 0, in this order.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("items_per_s", "1/s"), ("rtf_p50", "s/s"))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """One process, at most nproc threads: BLAS uses the caller plus nproc - 1."""
    n = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)
    return n


def import_nbsep():
    src = ROOT / "src"
    if not (src / "nbsep" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'nbsep'} not found; run from an nbsep checkout")
    sys.path.insert(0, str(src))
    import nbsep

    if src.resolve() not in Path(nbsep.__file__).resolve().parents:
        raise SystemExit(f"error: imported nbsep from {nbsep.__file__}, not from {src}")
    return nbsep


def environment(nproc: int) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def tail_percentile(samples) -> dict | None:
    """Highest of p99.9/p99/p95/p90 with at least ten samples above it."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0):
        value = statistics.quantiles(ordered, n=1000, method="inclusive")[int(p * 10) - 1]
        beyond = sum(1 for v in ordered if v > value)
        if beyond >= 10:
            return {"percentile": p, "value": value, "beyond": beyond, "samples": len(ordered)}
    return None


# -- per-layer metrics -----------------------------------------------------------


def per_layer_names():
    """Every per-layer metric as (name, unit, better); all workloads print all."""
    from bench_trace import AUTODIFF_REPORTED, FUNCTIONS, LAYERS, MODEL_METHODS

    rows = []
    spans = [f"{layer}.{attr}" for layer, attr in FUNCTIONS]
    spans += [f"model.{m}" for m in MODEL_METHODS]
    for name in spans:
        rows += [(f"{name}.s", "s", "lower"), (f"{name}.calls", "count", "lower")]
    for op in AUTODIFF_REPORTED:
        rows += [(f"autodiff.{op}.fwd_s", "s", "lower"), (f"autodiff.{op}.bwd_s", "s", "lower"),
                 (f"autodiff.{op}.calls", "count", "lower")]
    rows += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    rows += [
        ("roomsim.images", "count", "lower"),
        ("roomsim.images_per_s", "1/s", "higher"),
        ("roomsim.useful_image_ratio", "ratio", "higher"),
        ("audio.bytes_written", "B", "lower"),
        ("autodiff.graph_nodes", "count", "lower"),
        ("autodiff.graph_bytes", "B", "lower"),
        ("autodiff.matmul.gflops", "GFLOP/s", "higher"),
        ("autodiff.conv1d.gflops", "GFLOP/s", "higher"),
        ("trainer.loss_final", "dB", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.unattributed_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return rows


def per_layer_values(summary, instr, traced_result, overhead_pct) -> dict:
    from bench_trace import AUTODIFF_REPORTED
    from workloads import image_census

    names = summary["names"]
    values = {}
    for name, (own, calls) in names.items():
        if name.startswith("autodiff.") and name.endswith((".fwd", ".bwd")):
            continue
        values[f"{name}.s"], values[f"{name}.calls"] = own, calls
    for op in AUTODIFF_REPORTED:
        fwd, calls = names.get(f"autodiff.{op}.fwd", (0.0, 0))
        values[f"autodiff.{op}.fwd_s"] = fwd
        values[f"autodiff.{op}.bwd_s"] = names.get(f"autodiff.{op}.bwd", (0.0, 0))[0]
        values[f"autodiff.{op}.calls"] = calls
    for layer, own in summary["layers"].items():
        values[f"{layer}.self_s"] = own

    images = useful = 0
    for obs in instr.observations["rir"]:
        total, inside = image_census(*obs)
        images, useful = images + total, useful + inside
    rir_s = names.get("roomsim.simulate_rir", (0.0, 0))[0]
    values["roomsim.images"] = images
    values["roomsim.images_per_s"] = images / rir_s if rir_s else 0.0
    values["roomsim.useful_image_ratio"] = useful / images if images else 0.0
    values["audio.bytes_written"] = instr.counters["audio.bytes_written"]
    graphs = instr.observations["loss_graph"] or instr.observations["forward_graph"]
    values["autodiff.graph_nodes"] = max((n for n, _ in graphs), default=0)
    values["autodiff.graph_bytes"] = max((b for _, b in graphs), default=0)
    for op in ("matmul", "conv1d"):
        busy = values[f"autodiff.{op}.fwd_s"] + values[f"autodiff.{op}.bwd_s"]
        flops = instr.counters[f"autodiff.{op}.flops"]
        values[f"autodiff.{op}.gflops"] = flops / busy / 1e9 if busy else 0.0
    values["trainer.loss_final"] = traced_result.info.get("loss_final", 0.0)
    values["trace.wall_s"] = summary["wall_s"]
    values["trace.unattributed_s"] = summary["unattributed_s"]
    values["trace.overhead_pct"] = overhead_pct
    return values


# -- entry point ------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("simulate", "train", "separate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_blas_threads()
    import_nbsep()
    from bench_trace import Instrumentation, SpanRecorder, summarize, traced
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results = BENCH / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, state = [], None
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
            state = None
            target = work / f"setup{len(setup_times)}"
            shutil.rmtree(target.with_name(f"setup{len(setup_times) - 1}"), ignore_errors=True)
            t0 = time.perf_counter()
            state = workload.setup(args.seed, target)
            setup_times.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        res = workload.run(state, seconds=args.seconds)
        run_wall = time.perf_counter() - t0
        state = None
        attempted, failed = res.attempted, res.failed
        e2e = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "items_per_s": res.items / res.busy_s,
            "rtf_p50": statistics.median(res.rtf),
        }
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "env": environment(nproc), "setup_s": setup_times, "run_wall_s": run_wall,
                  "ops": res.n_ops, "info": res.info, "rtf_samples": res.rtf,
                  "rtf_tail": tail_percentile(res.rtf),
                  "end_to_end": e2e}
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

        if args.trace:
            rec = SpanRecorder()
            instr = Instrumentation(rec)
            t0 = time.perf_counter()
            with traced(rec, instr):
                traced_state = workload.setup(args.seed, work / "traced")
                t1 = time.perf_counter()
                traced_res = workload.run(traced_state, n_ops=res.n_ops, recorder=rec)
                t2 = time.perf_counter()
            wall = time.perf_counter() - t0
            traced_state = None
            attempted += traced_res.attempted
            failed += traced_res.failed
            summary = summarize(rec.spans, wall)
            overhead_pct = 100.0 * (traced_res.busy_s / res.busy_s - 1.0)
            layer = per_layer_values(summary, instr, traced_res, overhead_pct)
            units = {name: unit for name, unit, _ in per_layer_names()}
            if set(layer) - set(units):
                raise RuntimeError(f"undeclared per-layer metrics {sorted(set(layer) - set(units))}")
            metrics = {name: {"value": layer.get(name, 0), "unit": unit}
                       for name, unit in units.items()}
            rec.dump(results / f"spans-{args.workload}-seed{args.seed}.json")
            record["traced"] = {"wall_s": wall, "setup_s": t1 - t0, "run_wall_s": t2 - t1,
                                "info": traced_res.info, "per_layer": layer}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = out
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print("# env " + json.dumps(record["env"]))
    print(f"# setup x{len(setup_times)} median {statistics.median(setup_times):.4f} s"
          f"  ops {res.n_ops}  info "
          + json.dumps({k: v for k, v in res.info.items() if k != "step_s"}, default=str))
    if record["rtf_tail"]:
        print("# rtf tail " + json.dumps(record["rtf_tail"]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
