"""Tests of the benchmark itself: span arithmetic, instrumentation, checks.

    python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import bench_trace
import run
import workloads
from bench_trace import Instrumentation, SpanRecorder, self_times, summarize, traced

BENCH = Path(__file__).resolve().parents[1]


def test_self_time_of_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 3.5, 5.0, 0],
        ["c", 6.0, 7.0, 0],
        ["c.child", 6.2, 6.5, 3],
        ["late", 11.0, 11.5, -1],
    ]
    own = self_times(spans)
    assert own == pytest.approx([10.0 - 2.0 - 1.5 - 1.0, 2.0, 1.5, 0.7, 0.3, 0.5])
    summary = summarize(spans, wall_s=12.0)
    assert summary["names"]["c"] == pytest.approx([0.7, 1])
    assert summary["unattributed_s"] == pytest.approx(12.0 - 10.0 - 0.5)
    total = sum(summary["layers"].values()) + summary["unattributed_s"]
    assert total == pytest.approx(12.0)


def test_self_time_counts_overlapping_children_once():
    spans = [["p", 0.0, 4.0, -1], ["x", 1.0, 3.0, 0], ["y", 2.0, 3.5, 0]]
    assert self_times(spans)[0] == pytest.approx(4.0 - 2.5)


def test_recorder_nests_spans_under_the_open_one():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.close(inner)
    rec.close(outer)
    assert rec.spans == [["outer", 0.0, 3.0, -1], ["inner", 1.0, 2.0, 0]]


def test_instrumentation_records_forward_backward_and_flops():
    import nbsep.autodiff as ad

    orig_matmul = ad.matmul
    rec = SpanRecorder()
    instr = Instrumentation(rec)
    a = ad.Tensor(np.ones((3, 4)), requires_grad=True)
    b = ad.Tensor(np.ones((4, 5)), requires_grad=True)
    with traced(rec, instr):
        loss = ad.tsum(ad.matmul(a, b))
        ad.backward(loss)
    assert ad.matmul is orig_matmul
    names = [row[0] for row in rec.spans]
    assert names[:2] == ["autodiff.matmul.fwd", "autodiff.elementwise.fwd"]
    backward = names.index("autodiff.backward")
    bwd = [row for row in rec.spans if row[0] == "autodiff.matmul.bwd"]
    assert len(bwd) == 1 and bwd[0][3] == backward
    fwd_flops = 2 * 3 * 5 * 4
    assert instr.counters["autodiff.matmul.flops"] == 3 * fwd_flops
    np.testing.assert_allclose(a.grad, np.full((3, 4), 5.0))


def _write_corpus(tmp_path, corrupt: bool) -> Path:
    rng = np.random.default_rng(0)
    t1, t2 = rng.standard_normal((2, 1000)) * 0.1
    mix = np.stack([t1 + t2, t1 - t2])
    if corrupt:
        mix[0, 500] += 1e-3
    wavfile.write(tmp_path / "m.wav", 16000, mix.T.astype(np.float32))
    wavfile.write(tmp_path / "t1.wav", 16000, t1.astype(np.float32))
    wavfile.write(tmp_path / "t2.wav", 16000, t2.astype(np.float32))
    entry = {"id": "ex0", "mixture": "m.wav", "targets": ["t1.wav", "t2.wav"]}
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps(entry) + "\n")
    return manifest


def test_mixture_check_flags_a_corrupted_sample(tmp_path):
    assert workloads.check_mixture_files(_write_corpus(tmp_path, corrupt=False), 1) == []
    problems = workloads.check_mixture_files(_write_corpus(tmp_path, corrupt=True), 1)
    assert len(problems) == 1 and "channel 0" in problems[0]
    assert workloads.check_mixture_files(_write_corpus(tmp_path, corrupt=False), 2)


def test_loss_and_separation_checks_flag_bad_outputs():
    assert workloads.check_losses([3.0, 2.0]) == []
    assert workloads.check_losses([3.0, float("nan")])
    assert workloads.check_losses([2.0, 3.0])
    good = np.zeros((2, 100))
    rows = {4: np.ones((4, 10))}
    assert workloads.check_separation(good, 100, rows, rows) == []
    assert workloads.check_separation(good, 99, rows, rows)
    assert workloads.check_separation(good + np.nan, 100, rows, rows)
    assert workloads.check_separation(good, 100, {4: rows[4] + 1e-6}, rows)


def test_simulate_counts_a_corrupted_mixture_as_failed(tmp_path, monkeypatch):
    orig = workloads.dataset.generate_dataset

    def corrupting(*args, **kwargs):
        manifest = orig(*args, **kwargs)
        entry = json.loads(manifest.read_text().splitlines()[0])
        path = manifest.parent / entry["mixture"]
        rate, data = wavfile.read(path)
        data[100, 0] += 0.5
        wavfile.write(path, rate, data)
        return manifest

    monkeypatch.setattr(workloads, "IMAGE_STRATA", (2000,))
    wl = workloads.Simulate()
    state = wl.setup(seed=3, work=tmp_path)
    monkeypatch.setattr(workloads.dataset, "generate_dataset", corrupting)
    res = wl.run(state, n_ops=1)
    assert (res.attempted, res.failed) == (1, 1)


def test_scene_selection_does_not_follow_nbsep_image_order(monkeypatch):
    scene = workloads.roomsim.sample_scene(np.random.default_rng(5))
    orders = workloads.roomsim.default_image_order(scene)
    assert workloads.reference_images(scene) == np.prod([2 * o + 1 for o in orders])
    before = workloads.reference_images(scene)
    monkeypatch.setattr(workloads.roomsim, "default_image_order", lambda s: (1, 1, 1))
    assert workloads.reference_images(scene) == before
    total, _ = workloads.image_census(scene, n_taps=4000, sample_rate=16000)
    assert total == 27 * scene.n_mics * scene.n_speakers


def test_simulate_counts_a_scene_outside_its_stratum_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "IMAGE_STRATA", (2000,))
    wl = workloads.Simulate()
    state = wl.setup(seed=3, work=tmp_path)
    off = next(s for s in range(100) if not workloads.in_stratum(
        workloads.roomsim.sample_scene(np.random.default_rng([s, 0, 1])), 2000))
    monkeypatch.setattr(workloads, "find_corpus_seed", lambda rng, target: off)
    res = wl.run(state, n_ops=1)
    assert (res.attempted, res.failed) == (1, 1)
    assert "stratum" in res.info["problems"][0]


def test_benchmark_json_declares_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == set(run.per_layer_names())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert set(bench_trace.LAYERS) == {name.split(".")[0] for name, _, _ in declared} - {"trace"}
