"""The nbsep surface that the benchmark relies on must keep working.

`perfbench/bench_trace.py` instruments nbsep by attribute name, and
`perfbench/workloads.step_clock` times training steps by patching
`trainer.batch_loss` and `trainer.adam_step`; a change that breaks either
breaks every benchmark run.  These tests make such a change fail here
instead.
"""

import csv
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from nbsep import autodiff, model, objective, stft, trainer
from nbsep.audio import WaveBuffer

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their module here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    bt = load_perfbench("bench_trace")
    layers = {layer: importlib.import_module(f"nbsep.{layer}") for layer in bt.LAYERS}
    missing = [f"{layer}.{attr}" for layer, attr in bt.FUNCTIONS
               if not callable(getattr(layers[layer], attr, None))]
    ops = bt.AUTODIFF_OPS + sum(bt.AUTODIFF_GROUPS.values(), ())
    missing += [f"autodiff.{op}" for op in ops if not callable(getattr(autodiff, op, None))]
    missing += [f"NarrowBandModel.{m}" for m in bt.MODEL_METHODS
                if not callable(getattr(model.NarrowBandModel, m, None))]
    assert not missing, f"names wrapped by perfbench/bench_trace.py are gone: {missing}"


def test_a_benchmark_example_trains_separates_and_scores():
    # the train and separate workloads hand short_rt60_examples' examples to
    # trainer.train (prepare_utterance, batch_loss), separate and evaluate
    workloads = load_perfbench("workloads")
    (example,) = workloads.short_rt60_examples(1, 0, 8000)
    cfg = workloads.STFT
    n_frames = cfg.n_frames(example.mixture_wave.n_samples)
    u = trainer.prepare_utterance(example, cfg)
    assert u.sequences.shape == (cfg.n_bins, 2 * workloads.SIM_MICS, n_frames)
    assert np.shares_memory(u.target_waves, example.target_waves.data)
    net = model.NarrowBandModel(
        model.ModelConfig(in_channels=workloads.SIM_MICS, speakers=2, width=8, inner_width=16,
                          blocks=1, conv_blocks=1, heads=2, dropout=0.0), seed=0)
    loss, _ = trainer.batch_loss(net, [u], cfg)
    assert np.isfinite(loss)
    estimates, _, seconds = net.separate(example.mixture_wave, cfg)
    assert estimates.shape == example.target_waves.data.shape
    record = objective.evaluate(example, estimates, seconds)
    assert record.example_id == "bench0" and len(record.per_speaker_sdr) == 2
    assert np.isfinite(record.mean_sdr) and np.isfinite(record.improvement)



def test_the_separate_workload_check_passes_and_catches_scaled_spectra():
    # Separate._check recomputes bins through stft, normalize_spectrogram,
    # SeparatedSpectra.data / NormState.scale and a single-bin forward
    workloads = load_perfbench("workloads")
    (example,) = workloads.short_rt60_examples(1, 0, 8000)
    net = model.NarrowBandModel(
        model.ModelConfig(in_channels=workloads.SIM_MICS, speakers=2, width=8, inner_width=16,
                          blocks=1, conv_blocks=1, heads=2, dropout=0.0), seed=0)
    estimates, spectra, _ = net.separate(example.mixture_wave, workloads.STFT)
    check = workloads.Separate._check
    assert check(net, example, estimates, spectra, np.random.default_rng(0)) == []
    scaled = model.SeparatedSpectra(spectra.data * 1.001)
    problems = check(net, example, estimates, scaled, np.random.default_rng(0))
    assert len(problems) == workloads.CHECK_BINS_PER_CLIP
    assert all("batched output differs from single-bin forward" in p for p in problems)

def test_step_clock_marks_one_start_and_one_end_per_logged_step(tmp_path):
    workloads = load_perfbench("workloads")
    cfg8k = stft.StftConfig(sample_rate=8000)
    examples = trainer.build_probe_examples(3, cfg8k, seed=0, n_mics=2)
    net = model.NarrowBandModel(
        model.ModelConfig(in_channels=2, speakers=2, width=16, inner_width=32, blocks=1,
                          conv_blocks=1, heads=2, dropout=0.0), seed=0, dtype=np.float32)
    cfg = trainer.TrainConfig(utterances_per_batch=1, max_epochs=1, seed=0)
    marks: list = []
    with workloads.step_clock(marks):
        result = trainer.train(net, examples[:2], examples[2:], cfg, cfg8k, tmp_path)
    with result.log_path.open(newline="") as fh:
        logged = sum(1 for row in csv.DictReader(fh) if row["train_loss"])
    assert logged == result.steps == 2
    assert [kind for kind, _ in marks] == ["start", "end"] * logged


def test_traced_separate_runs_its_threaded_chunks_serially(monkeypatch):
    # the span recorder keeps one stack for all threads, so chunks on worker
    # threads would close their spans out of order
    bt = load_perfbench("bench_trace")
    monkeypatch.setenv("NBC_THREADS", "2")
    monkeypatch.setattr(model, "FREQUENCY_CHUNK", 1)  # one bin per chunk: 17 chunks
    cfg8k = stft.StftConfig(window_len=32, hop=16, sample_rate=8000)
    wave = WaveBuffer(np.random.default_rng(40).standard_normal((2, 128)), 8000)
    net = model.NarrowBandModel(
        model.ModelConfig(in_channels=2, speakers=2, width=8, inner_width=16, blocks=1,
                          conv_blocks=1, heads=2, dropout=0.0), seed=41)
    want, _, _ = net.separate(wave, cfg8k)  # untraced: on worker threads
    recorder = bt.SpanRecorder()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads would interleave within one small forward
    try:
        with bt.traced(recorder, bt.Instrumentation(recorder)):
            got, _, _ = net.separate(wave, cfg8k)
    finally:
        sys.setswitchinterval(interval)
    names = [row[0] for row in recorder.spans]
    assert names.count("model.separate") == 1 and names.count("model.forward") == 17
    assert not recorder._stack
    assert all(row[2] is not None for row in recorder.spans)
    assert np.array_equal(got, want)


def test_traced_train_runs_its_threaded_chunks_serially(tmp_path, monkeypatch):
    # as for separate: chunk forwards and backwards on worker threads would
    # close their spans out of order
    bt = load_perfbench("bench_trace")
    monkeypatch.setenv("NBC_THREADS", "2")
    cfg8k = stft.StftConfig(sample_rate=8000)
    examples = trainer.build_probe_examples(3, cfg8k, seed=0, n_mics=2)
    mcfg = model.ModelConfig(in_channels=2, speakers=2, width=16, inner_width=32, blocks=1,
                             conv_blocks=1, heads=2, dropout=0.1)
    cfg = trainer.TrainConfig(utterances_per_batch=1, max_epochs=1, seed=0)

    def train_log(run_dir):
        net = model.NarrowBandModel(mcfg, seed=0, dtype=np.float32)
        result = trainer.train(net, examples[:2], examples[2:], cfg, cfg8k, run_dir)
        return result.log_path.read_text()

    want = train_log(tmp_path / "untraced")  # on worker threads
    recorder = bt.SpanRecorder()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with bt.traced(recorder, bt.Instrumentation(recorder)):
            got = train_log(tmp_path / "traced")
    finally:
        sys.setswitchinterval(interval)
    names = [row[0] for row in recorder.spans]
    assert names.count("trainer.train") == 1 and names.count("autodiff.backward") > 2
    assert not recorder._stack
    assert all(row[2] is not None for row in recorder.spans)
    assert got == want


@pytest.mark.parametrize("workload", ["simulate", "train", "separate"])
def test_one_benchmark_operation_passes_its_output_check(tmp_path, workload):
    # the checks the benchmark applies to every operation (check_mixture_files,
    # check_losses, check_separation): a change that trips one fails here too
    w = load_perfbench("workloads").WORKLOADS[workload]
    res = w.run(w.setup(0, tmp_path / workload), n_ops=1)
    assert res.n_ops == 1 and res.attempted >= 1
    assert res.failed == 0 and "problems" not in res.info, res.info.get("problems")


def test_a_train_workload_chunk_graph_holds_at_most_19_mib():
    # the benchmark's train peak RSS is set by the chunk graphs its workers
    # hold: one 15-bin training-mode chunk of its reduced model at T = 124 in
    # float32 holds 18.5 MiB (24.0 MiB while every node pinned its value)
    import tracemalloc

    wl = load_perfbench("workloads")
    t_len = wl.STFT.n_frames(wl.TRAIN_SAMPLES)
    assert (t_len, model.FREQUENCY_CHUNK) == (124, 15)
    cfg = wl.TRAIN_MODEL
    net = model.NarrowBandModel(cfg, seed=1, dtype=np.float32)
    x = autodiff.Tensor(np.random.default_rng(0).standard_normal(
        (model.FREQUENCY_CHUNK, 2 * cfg.in_channels, t_len)).astype(np.float32))
    leaves = {k: autodiff.Tensor(t.data, requires_grad=True) for k, t in net.params.items()}
    tracemalloc.start()
    try:
        y = net.forward(x, train=True, rng=np.random.default_rng(1), params=leaves)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert y.requires_grad
    assert held <= 19 * 2**20, f"{held / 2**20:.2f} MiB"
