import ctypes
import io
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nbsep.model as model_mod
from nbsep import dataset, parallel, stft
from nbsep.audio import WaveBuffer
from nbsep.autodiff import Tensor
from nbsep.model import (
    ModelConfig,
    NarrowBandModel,
    init_parameters,
    load_checkpoint,
    parameter_count,
    relative_index_table,
    save_checkpoint,
)
from nbsep.trainer import AdamState

from reference_forward import forward_ref

TINY = ModelConfig(in_channels=2, speakers=2, width=8, inner_width=16,
                   blocks=1, conv_blocks=1, heads=2, dropout=0.0)


def rand_params_model(cfg, seed=0):
    # spread parameters away from the zero-bias init so the oracle test bites
    net = NarrowBandModel(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for t in net.params.values():
        t.data = rng.standard_normal(t.shape) * 0.4
    return net


def test_shape_contract():
    net = NarrowBandModel(TINY, seed=0)
    out = net.forward(np.random.default_rng(0).standard_normal((4, 8)))
    assert out.shape == (4, 8)


def test_eval_mode_deterministic():
    net = NarrowBandModel(TINY, seed=1)
    x = np.random.default_rng(1).standard_normal((5, 4, 8))
    a = net.forward(x).numpy()
    b = net.forward(x).numpy()
    np.testing.assert_array_equal(a, b)


def test_train_mode_dropout_changes_output():
    cfg = ModelConfig(**{**TINY.__dict__, "dropout": 0.5})
    net = rand_params_model(cfg, seed=2)
    x = np.random.default_rng(2).standard_normal((4, 8))
    rng = np.random.default_rng(3)
    a = net.forward(x, train=True, rng=rng).numpy()
    b = net.forward(x, train=True, rng=rng).numpy()
    assert np.max(np.abs(a - b)) > 1e-6


def test_forward_matches_straight_line_reference():
    net = rand_params_model(TINY, seed=3)
    x = np.random.default_rng(4).standard_normal((4, 8))
    got = net.forward(x).numpy()
    want = forward_ref(x, net.params, TINY)
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_forward_matches_reference_multi_block_with_residual():
    cfg = ModelConfig(in_channels=3, speakers=2, width=12, inner_width=24,
                      blocks=2, conv_blocks=2, heads=3, groups=4, dropout=0.0)
    net = rand_params_model(cfg, seed=5)
    x = np.random.default_rng(6).standard_normal((6, 11))
    np.testing.assert_allclose(net.forward(x).numpy(), forward_ref(x, net.params, cfg),
                               atol=1e-10)


def test_batched_forward_equals_per_sequence():
    net = rand_params_model(TINY, seed=7)
    xs = np.random.default_rng(8).standard_normal((6, 4, 9))
    batched = net.forward(xs).numpy()
    for i in range(6):
        np.testing.assert_allclose(batched[i], net.forward(xs[i]).numpy(), atol=1e-12)


def test_attention_rows_sum_to_one():
    net = rand_params_model(TINY, seed=9)
    x = np.random.default_rng(10).standard_normal((3, 4, 8))
    _, maps = net.forward(x, collect_attention=True)
    for m in maps:
        np.testing.assert_allclose(m.sum(axis=-1), 1.0, atol=1e-6)


def test_positional_logits_depend_only_on_offset():
    # Feed the attention module a constant-over-time sequence: every content
    # query is identical, so logits are a pure function of the offset k - q.
    # Softmax normalizes per row over different supports, but logit
    # differences are recoverable as log-probability differences.
    from nbsep.model import relative_encoding_table

    net = rand_params_model(TINY, seed=11)
    t_len = 8
    col = np.random.default_rng(12).standard_normal(TINY.width)
    xn = Tensor(np.tile(col[:, None, None], (1, 1, t_len)))  # (width, B = 1, T)
    sink = []
    net._rpsa(net.params, xn, 0, Tensor(relative_encoding_table(t_len, TINY.width)), sink)
    logp = np.log(sink[0][0])  # (heads, T, T)
    for h in range(TINY.heads):
        for d in (1, 3, -2):
            vals = [logp[h, q, q + d] - logp[h, q, q]
                    for q in range(t_len) if 0 <= q + d < t_len]
            np.testing.assert_allclose(vals, vals[0], atol=1e-10)


def test_single_head_matches_naive_attention_oracle():
    cfg = ModelConfig(in_channels=2, speakers=1, width=8, inner_width=16,
                      blocks=1, conv_blocks=0, heads=1, dropout=0.0)
    net = rand_params_model(cfg, seed=13)
    x = np.random.default_rng(14).standard_normal((4, 7))
    np.testing.assert_allclose(net.forward(x).numpy(), forward_ref(x, net.params, cfg),
                               atol=1e-10)


@pytest.mark.parametrize("t_len", [1, 2, 5, 16])
def test_time_length_preserved(t_len):
    net = NarrowBandModel(TINY, seed=15)
    out = net.forward(np.random.default_rng(16).standard_normal((4, t_len)))
    assert out.shape == (4, t_len)


def test_frequency_permutation_equivariance():
    net = rand_params_model(TINY, seed=17)
    xs = np.random.default_rng(18).standard_normal((5, 4, 8))
    perm = np.array([3, 0, 4, 1, 2])
    out = net.forward(xs).numpy()
    out_perm = net.forward(xs[perm]).numpy()
    np.testing.assert_array_equal(out_perm, out[perm])


def test_identical_sequences_identical_outputs():
    net = rand_params_model(TINY, seed=19)
    seq = np.random.default_rng(20).standard_normal((4, 8))
    out = net.forward(np.stack([seq, seq])).numpy()
    np.testing.assert_array_equal(out[0], out[1])


def test_relative_index_table():
    idx = relative_index_table(4)
    assert idx.shape == (4, 4)
    assert idx[0, 0] == 3  # offset 0 -> middle of 2T-1 entries
    assert idx[0, 3] == 6  # offset +3
    assert idx[3, 0] == 0  # offset -3


def test_bind_layout_round_trip():
    rng = np.random.default_rng(21)
    net = NarrowBandModel(TINY)
    spec = rng.standard_normal((2, 9, 6)) + 1j * rng.standard_normal((2, 9, 6))
    seqs = stft.all_frequency_sequences(spec)  # (F, 2M, T) with M == N here
    norm = dataset.NormState(np.ones(9))
    bound = net.bind(seqs, norm)
    np.testing.assert_allclose(bound.data, spec, atol=1e-12)


def test_bind_matches_index_arithmetic_oracle():
    rng = np.random.default_rng(22)
    net = NarrowBandModel(TINY)
    outputs = rng.standard_normal((9, 4, 6))
    scale = rng.uniform(0.5, 2.0, size=9)
    bound = net.bind(outputs, dataset.NormState(scale))
    for n in range(2):
        for f in range(9):
            for t in range(6):
                want = (outputs[f, 2 * n, t] + 1j * outputs[f, 2 * n + 1, t]) * scale[f]
                assert bound.data[n, f, t] == pytest.approx(want, abs=1e-12)
    # bind decodes the rows with the stft module's one decoder
    want = stft.spectra_of_sequences(outputs * scale[:, None, None])
    assert np.array_equal(bound.data, want)


def test_bind_missing_frequency_errors():
    net = NarrowBandModel(TINY)
    with pytest.raises(ValueError, match="scales"):
        net.bind(np.zeros((3, 4, 6)), dataset.NormState(np.ones(4)))


def test_attention_maps_shape_and_averaging():
    cfg8k = stft.StftConfig(window_len=32, hop=16, sample_rate=8000)
    rng = np.random.default_rng(23)
    wave = WaveBuffer(rng.standard_normal((2, 32 + 16 * 5)), 8000)
    spec = stft.stft(wave, cfg8k)
    net = rand_params_model(TINY, seed=24)
    maps = net.attention_maps(wave, cfg8k)
    n_frames = spec.shape[-1]
    assert maps.shape == (TINY.blocks, TINY.heads, n_frames, n_frames)
    np.testing.assert_allclose(maps.sum(axis=-1), 1.0, atol=1e-6)
    # the average over all frequencies is the mean of each frequency's own map
    seqs, _ = dataset.normalize_spectrogram(spec)
    own = [net.forward(Tensor(seqs[f]), collect_attention=True)[1][0][0]
           for f in range(spec.shape[1])]
    np.testing.assert_allclose(maps[0], np.mean(own, axis=0), atol=1e-12)


def test_checkpoint_round_trip(tmp_path):
    net = rand_params_model(TINY, seed=25)
    net.astype(np.float32)
    state = AdamState.init(net.params)
    rng = np.random.default_rng(26)
    for name in state.m:
        state.m[name][...] = rng.standard_normal(state.m[name].shape)
        state.v[name][...] = rng.uniform(0.0, 1.0, state.v[name].shape)
    state.step = 17
    save_checkpoint(tmp_path / "ckpt", net, state, step=17)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]  # one file, no ".npz" added
    assert (tmp_path / "ckpt").is_file()
    for dtype in (np.float32, np.float64):
        loaded, opt, step = load_checkpoint(tmp_path / "ckpt", dtype=dtype)
        assert step == 17 and loaded.cfg == net.cfg and loaded.dtype == dtype
        restored = AdamState(**opt)
        assert restored.step == 17
        for name, t in net.params.items():
            np.testing.assert_array_equal(loaded.params[name].data, t.data.astype(dtype))
            for got, want in ((restored.m, state.m), (restored.v, state.v)):
                assert got[name].dtype == dtype
                np.testing.assert_array_equal(got[name], want[name].astype(dtype))

    save_checkpoint(tmp_path / "ckpt", net, step=3)  # no moments
    loaded, opt, step = load_checkpoint(tmp_path / "ckpt")
    assert opt is None and step == 3
    for name, t in net.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, t.data.astype(np.float64))


def _assert_holds(path, net, step):
    loaded, _, got_step = load_checkpoint(path)
    assert got_step == step
    for name, t in net.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, t.data)


class _FillingFile(io.BufferedWriter):
    """A file on a disk that is full after `room` bytes."""

    room = 4096

    def write(self, data):
        if self.tell() + len(data) > self.room:
            raise OSError(28, "No space left on device")
        return super().write(data)


def _failed_save_keeps_the_previous(tmp_path, break_save):
    old = rand_params_model(TINY, seed=28).astype(np.float32)
    save_checkpoint(tmp_path / "ckpt", old, step=1)
    before = (tmp_path / "ckpt").read_bytes()
    assert len(before) > _FillingFile.room
    new = rand_params_model(TINY, seed=29).astype(np.float32)
    with pytest.MonkeyPatch.context() as mp:
        break_save(mp)
        with pytest.raises(OSError):
            save_checkpoint(tmp_path / "ckpt", new, step=2)
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]  # no temporary left behind
    assert (tmp_path / "ckpt").read_bytes() == before
    _assert_holds(tmp_path / "ckpt", old, 1)

    save_checkpoint(tmp_path / "ckpt", new, step=2)  # a complete write replaces it
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
    _assert_holds(tmp_path / "ckpt", new, 2)


def test_failed_checkpoint_write_keeps_the_previous_checkpoint(tmp_path):
    # the disk fills while np.savez is part way through the temporary file
    _failed_save_keeps_the_previous(tmp_path, lambda mp: mp.setattr(
        model_mod.os, "fdopen", lambda fd, mode: _FillingFile(io.FileIO(fd, mode))))


def test_failed_checkpoint_replace_keeps_the_previous_checkpoint(tmp_path):
    def failing_replace(src, dst):
        assert Path(src).parent == tmp_path and Path(src).stat().st_size > _FillingFile.room
        raise OSError("rename failed")

    _failed_save_keeps_the_previous(
        tmp_path, lambda mp: mp.setattr(model_mod.os, "replace", failing_replace))


def _without_entry(src, dst, entry):
    with np.load(src) as z:
        np.savez(dst, **{k: z[k] for k in z.files if k != entry})
    return dst


@pytest.mark.parametrize("case", ["directory", "half_length", "foreign", "empty",
                                  "no_meta", "no_adam_v"])
def test_unreadable_checkpoint_is_a_value_error_naming_it(tmp_path, case):
    net = rand_params_model(TINY, seed=30)
    good = tmp_path / "good"
    save_checkpoint(good, net, AdamState.init(net.params), step=4)
    bad = tmp_path / case
    if case == "directory":  # the layout of older checkpoints
        bad.mkdir()
        (bad / "manifest.json").write_text("{}")
    elif case == "half_length":
        data = good.read_bytes()
        bad.write_bytes(data[: len(data) // 2])
    elif case == "foreign":
        bad.write_text("step,epoch\n1,1\n")
    elif case == "empty":
        bad.write_bytes(b"")
    elif case == "no_meta":
        bad = _without_entry(good, tmp_path / "no_meta.npz", "meta")
    else:
        bad = _without_entry(good, tmp_path / "no_adam_v.npz", "adam_v/in_conv.w")
    with pytest.raises(ValueError, match=re.escape(f"{bad} is not a readable checkpoint")):
        load_checkpoint(bad)


@pytest.mark.parametrize("case,message", [
    ("missing", "lacks entry params/block0.ff_out.w of shape (8, 16)"),
    ("extra", "has entry params/block1.ff_out.w, which its model config has not"),
    ("misshapen", "has entry params/in_conv.w of shape (4, 4, 4), its model config needs (8, 4, 4)"),
])
def test_a_checkpoint_whose_parameters_do_not_fit_its_config_names_the_entry(tmp_path, case,
                                                                             message):
    good = tmp_path / "good"
    save_checkpoint(good, rand_params_model(TINY, seed=31), step=4)
    with np.load(good) as z:
        entries = {k: z[k] for k in z.files}
    if case == "missing":
        del entries["params/block0.ff_out.w"]
    elif case == "extra":
        entries["params/block1.ff_out.w"] = entries["params/block0.ff_out.w"]
    else:
        entries["params/in_conv.w"] = entries["params/in_conv.w"][:4]
    bad = tmp_path / f"{case}.npz"
    np.savez(bad, **entries)
    with pytest.raises(ValueError, match=re.escape(f"{bad} {message}")):
        load_checkpoint(bad)


def test_parameter_count_at_paper_scale():
    cfg = ModelConfig()  # 8 mics, 2 speakers, 192/384, 4 blocks, 3 conv blocks
    count = parameter_count(cfg)  # from the shapes alone, no draws
    assert count == sum(t.size for t in init_parameters(cfg, seed=0, dtype=np.float32).values())
    print(f"parameter count at full configuration: {count} ({count / 1e6:.2f} M)")
    assert abs(count - 2.0e6) / 2.0e6 < 0.15


def test_config_validation():
    with pytest.raises(ValueError, match="divisible by heads"):
        ModelConfig(width=10, heads=4)
    with pytest.raises(ValueError, match="divisible by groups"):
        ModelConfig(inner_width=100, groups=8)
    with pytest.raises(ValueError, match="odd"):
        ModelConfig(conv_kernel=4)
    for rate in (1.5, 1.0, -0.2):
        with pytest.raises(ValueError, match=r"dropout must be in \[0, 1\)"):
            ModelConfig(dropout=rate)
    ModelConfig(dropout=0.0)
    for name in ("in_channels", "speakers", "width", "inner_width", "heads", "groups",
                 "io_kernel", "conv_kernel"):
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got 0"):
            ModelConfig(**{name: 0})
    for name in ("blocks", "conv_blocks"):
        with pytest.raises(ValueError, match=f"{name} must be >= 0, got -1"):
            ModelConfig(**{name: -1})
    assert ModelConfig(blocks=0, conv_blocks=0).blocks == 0


def test_input_row_mismatch_errors():
    net = NarrowBandModel(TINY)
    with pytest.raises(ValueError, match="input rows"):
        net.forward(np.zeros((6, 8)))


def _eight_k_mixture(n_samples, seed):
    # 32-sample frames: 17 frequency bins
    cfg8k = stft.StftConfig(window_len=32, hop=16, sample_rate=8000)
    rng = np.random.default_rng(seed)
    wave = WaveBuffer(rng.standard_normal((2, n_samples)), 8000)
    return cfg8k, wave, stft.stft(wave, cfg8k)


def test_separate_in_ragged_chunks_matches_per_bin_forward(monkeypatch):
    monkeypatch.setenv("NBC_THREADS", "1")
    monkeypatch.setattr(model_mod, "FREQUENCY_CHUNK", 5)  # 17 bins: 5 + 4 + 4 + 4
    cfg8k, wave, _ = _eight_k_mixture(80, seed=30)
    net = rand_params_model(TINY, seed=31)
    calls = []
    forward = net.forward

    def counting_forward(x, **kwargs):
        out = forward(x, **kwargs)
        calls.append((x.shape[0], out.requires_grad))
        return out

    monkeypatch.setattr(net, "forward", counting_forward)
    _, spectra, _ = net.separate(wave, cfg8k)
    assert calls == [(5, False), (4, False), (4, False), (4, False)]
    seqs, norm = dataset.normalize_spectrogram(stft.stft(wave, cfg8k))
    assert seqs.shape[0] == 17
    for f in range(seqs.shape[0]):
        single = forward(Tensor(seqs[f]))  # graph-building path
        assert single.requires_grad
        row = spectra.data[:, f, :] / norm.scale[f]
        np.testing.assert_allclose(row.real, single.data[0::2], rtol=0, atol=1e-9)
        np.testing.assert_allclose(row.imag, single.data[1::2], rtol=0, atol=1e-9)


def test_attention_maps_in_ragged_chunks_match_unchunked_mean(monkeypatch):
    cfg8k, wave, spec = _eight_k_mixture(96, seed=32)
    net = rand_params_model(TINY, seed=33)
    seqs, _ = dataset.normalize_spectrogram(spec)
    _, raw = net.forward(Tensor(seqs), collect_attention=True)
    want = np.stack([m.mean(axis=0) for m in raw])
    # several chunks of unequal size; one chunk of all bins; one bin per chunk
    for chunk in (4, 6, 17, 32, 1):
        monkeypatch.setattr(model_mod, "FREQUENCY_CHUNK", chunk)
        np.testing.assert_allclose(net.attention_maps(wave, cfg8k), want, rtol=0, atol=1e-12)


def _threaded_mixture(monkeypatch, workers):
    """17-bin mixture and model, with `workers` workers over chunks of 5 + 4 + 4 + 4 bins."""
    if workers > parallel.usable_cpus():
        pytest.skip(f"needs {workers} usable CPUs")
    monkeypatch.setenv("NBC_THREADS", str(workers))
    monkeypatch.setattr(model_mod, "FREQUENCY_CHUNK", 5)
    cfg8k, wave, spec = _eight_k_mixture(80, seed=34)
    return cfg8k, wave, spec, rand_params_model(TINY, seed=35)


def test_parallel_separate_is_bit_identical_to_serial(monkeypatch):
    # the same four chunks, on two threads and then on one
    cfg8k, wave, _, net = _threaded_mixture(monkeypatch, 2)
    assert net.chunk_workers() == (2, None)
    waves, spectra, _ = net.separate(wave, cfg8k)
    monkeypatch.setenv("NBC_THREADS", "1")
    assert net.chunk_workers() == (1, None)
    serial_waves, serial_spectra, _ = net.separate(wave, cfg8k)
    assert np.array_equal(spectra.data, serial_spectra.data)
    assert np.array_equal(waves, serial_waves)
    # and still the narrow-band output of each bin alone
    seqs, norm = dataset.normalize_spectrogram(stft.stft(wave, cfg8k))
    for f in range(seqs.shape[0]):
        single = net.forward(Tensor(seqs[f])).data
        row = spectra.data[:, f, :] / norm.scale[f]
        np.testing.assert_allclose(row.real, single[0::2], rtol=0, atol=1e-9)
        np.testing.assert_allclose(row.imag, single[1::2], rtol=0, atol=1e-9)


def test_parallel_attention_maps_match_unchunked_mean(monkeypatch):
    cfg8k, wave, spec, net = _threaded_mixture(monkeypatch, 2)
    seqs, _ = dataset.normalize_spectrogram(spec)
    _, raw = net.forward(Tensor(seqs), collect_attention=True)
    want = np.stack([m.mean(axis=0) for m in raw])
    np.testing.assert_allclose(net.attention_maps(wave, cfg8k), want, rtol=0, atol=1e-12)


def test_separate_without_blas_thread_control_runs_serially(monkeypatch):
    import nbsep.parallel

    cfg8k, wave, _, net = _threaded_mixture(monkeypatch, 2)
    _, want, _ = net.separate(wave, cfg8k)
    monkeypatch.setattr(nbsep.parallel, "_OPENBLAS", None)
    monkeypatch.setattr(nbsep.parallel, "ThreadPoolExecutor", None)  # a pool would fail
    assert net.chunk_workers() == (1, "OpenBLAS thread control not found")
    _, got, _ = net.separate(wave, cfg8k)
    assert np.array_equal(got.data, want.data)


def test_replaced_forward_runs_the_same_chunks_serially(monkeypatch):
    import threading

    cfg8k, wave, _, net = _threaded_mixture(monkeypatch, 2)
    _, want, _ = net.separate(wave, cfg8k)
    forward, threads = net.forward, []

    def spy(x, **kwargs):
        threads.append((threading.get_ident(), x.shape[0]))
        return forward(x, **kwargs)

    monkeypatch.setattr(net, "forward", spy)
    assert net.chunk_workers() == (1, "forward is replaced")
    _, got, _ = net.separate(wave, cfg8k)
    assert threads == [(threading.get_ident(), n) for n in (5, 4, 4, 4)]
    assert np.array_equal(got.data, want.data)


def test_repeated_forward_does_not_fault_its_arrays_in_again():
    # importing nbsep raises glibc's trim and mmap thresholds: a second forward
    # of the same shapes reuses the heap the first one freed (at glibc's
    # defaults this pass takes about 30k minor page faults)
    resource = pytest.importorskip("resource")
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("libc has no mallopt")
    net = NarrowBandModel(ModelConfig(blocks=1, conv_blocks=1), seed=0)
    x = np.random.default_rng(30).standard_normal((32, 16, 30))
    with model_mod.ad.no_graph():
        net.forward(x)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        net.forward(x)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000


def test_a_training_graph_holds_two_arrays_per_conv_sub_block():
    # 4 bins of 64 frames, float64: each (32, 4, 64) inner activation is 64 KB.
    # The graph holds 1.56 MB with two such arrays per conv sub-block, no
    # sigmoid and bool dropout masks, and 2.37 MB if each sub-block keeps six
    # (padded input, conv output, centred output, norm output, sigmoid, SiLU
    # output), silu its sigmoid and dropout a float64 mask
    cfg = ModelConfig(in_channels=2, speakers=2, width=16, inner_width=32, blocks=1,
                      conv_blocks=2, heads=2, dropout=0.1)
    net = NarrowBandModel(cfg, seed=0)
    x = Tensor(np.random.default_rng(1).standard_normal((4, 4, 64)))
    tracemalloc.start()
    try:
        y = net.forward(x, train=True, rng=np.random.default_rng(2))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert y.requires_grad
    assert held < 1_800_000, f"the training graph holds {held} bytes"


def test_heap_thresholds_are_left_alone_without_mallopt(monkeypatch):
    import nbsep

    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # a libc without mallopt
    nbsep._keep_freed_heap_mapped()
