import ctypes
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
                      blocks=2, conv_blocks=2, heads=3, groups=4, dropout=0.0,
                      ff_residual=True)
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
    xn = Tensor(np.tile(col[:, None], (1, t_len)))
    sink = []
    net._rpsa(net.params, xn, 0, Tensor(relative_encoding_table(t_len, TINY.width)), sink)
    logp = np.log(sink[0])  # (heads, T, T)
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
    spec_data = rng.standard_normal((9, 6, 2)) + 1j * rng.standard_normal((9, 6, 2))
    spec = stft.ComplexSpectrogram(spec_data)
    seqs = stft.all_frequency_sequences(spec)  # (F, 2M, T) with M == N here
    norm = dataset.NormState(np.ones(9))
    bound = net.bind(seqs, norm)
    np.testing.assert_allclose(bound.data, spec_data.transpose(2, 0, 1), atol=1e-12)


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
    maps = net.attention_maps(spec)
    assert maps.shape == (TINY.blocks, TINY.heads, spec.n_frames, spec.n_frames)
    np.testing.assert_allclose(maps.sum(axis=-1), 1.0, atol=1e-6)
    # single-frequency average equals that frequency's own map
    single = stft.ComplexSpectrogram(spec.data[:1])
    seqs, _ = dataset.normalize_spectrogram(single)
    _, raw = net.forward(Tensor(seqs), collect_attention=True)
    np.testing.assert_allclose(net.attention_maps(single)[0], raw[0][0], atol=1e-12)


def test_checkpoint_round_trip(tmp_path):
    net = rand_params_model(TINY, seed=25)
    net.astype(np.float32)
    save_checkpoint(tmp_path / "ckpt", net, step=17)
    loaded, opt, step = load_checkpoint(tmp_path / "ckpt")
    assert step == 17 and opt is None
    assert loaded.cfg == net.cfg
    for name, t in net.params.items():
        np.testing.assert_array_equal(loaded.params[name].data,
                                      t.data.astype(np.float64))


def test_failed_checkpoint_write_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    old = rand_params_model(TINY, seed=28).astype(np.float32)
    save_checkpoint(tmp_path / "ckpt", old, step=1)
    new = rand_params_model(TINY, seed=29).astype(np.float32)
    write_bytes, writes = Path.write_bytes, []

    def failing_write(self, data):
        writes.append(self)
        if len(writes) == 3:
            raise OSError("disk full")
        return write_bytes(self, data)

    monkeypatch.setattr(Path, "write_bytes", failing_write)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(tmp_path / "ckpt", new, step=2)
    monkeypatch.undo()
    assert writes[0].parent.parent != tmp_path / "ckpt"  # written beside it, not into it
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]  # no temporary left behind
    loaded, _, step = load_checkpoint(tmp_path / "ckpt")
    assert step == 1
    for name, t in old.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, t.data)

    save_checkpoint(tmp_path / "ckpt", new, step=2)  # a complete write replaces it
    loaded, _, step = load_checkpoint(tmp_path / "ckpt")
    assert step == 2 and [p.name for p in tmp_path.iterdir()] == ["ckpt"]
    for name, t in new.params.items():
        np.testing.assert_array_equal(loaded.params[name].data, t.data)


def test_checkpoint_without_ff_residual_keeps_its_wiring(tmp_path):
    # checkpoints trained before the feed-forward residual became the default
    # record "ff_residual": false and must still run through that wiring
    cfg = ModelConfig(**{**TINY.__dict__, "ff_residual": False})
    net = rand_params_model(cfg, seed=26)
    net.astype(np.float32).astype(np.float64)  # the values a checkpoint stores
    x = np.random.default_rng(27).standard_normal((4, 8))
    before = net.forward(x).numpy()
    save_checkpoint(tmp_path / "ckpt", net)
    assert '"ff_residual": false' in (tmp_path / "ckpt" / "manifest.json").read_text()

    loaded, _, _ = load_checkpoint(tmp_path / "ckpt")
    assert loaded.cfg.ff_residual is False
    got = loaded.forward(x).numpy()
    np.testing.assert_allclose(got, forward_ref(x, loaded.params, loaded.cfg), atol=1e-10)
    np.testing.assert_allclose(got, before, atol=1e-12)
    with_residual = NarrowBandModel(TINY, params=loaded.params).forward(x).numpy()
    assert np.max(np.abs(with_residual - got)) > 1e-3


def test_parameter_count_at_paper_scale():
    cfg = ModelConfig()  # 8 mics, 2 speakers, 192/384, 4 blocks, 3 conv blocks
    count = parameter_count(init_parameters(cfg, seed=0, dtype=np.float32))
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
    _, _, spec = _eight_k_mixture(96, seed=32)
    net = rand_params_model(TINY, seed=33)
    seqs, _ = dataset.normalize_spectrogram(spec)
    _, raw = net.forward(Tensor(seqs), collect_attention=True)
    want = np.stack([m.mean(axis=0) for m in raw])
    # several chunks of unequal size; one chunk of all bins; one bin per chunk
    for chunk in (4, 6, 17, 32, 1):
        monkeypatch.setattr(model_mod, "FREQUENCY_CHUNK", chunk)
        np.testing.assert_allclose(net.attention_maps(spec), want, rtol=0, atol=1e-12)


def _threaded_mixture(monkeypatch, workers, frequency_chunk):
    """17-bin mixture and model, with `workers` workers over chunks of 5 + 4 + 4 + 4 bins."""
    if workers > parallel.usable_cpus():
        pytest.skip(f"needs {workers} usable CPUs")
    monkeypatch.setenv("NBC_THREADS", str(workers))
    monkeypatch.setattr(model_mod, "FREQUENCY_CHUNK", frequency_chunk)
    cfg8k, wave, spec = _eight_k_mixture(80, seed=34)
    return cfg8k, wave, spec, rand_params_model(TINY, seed=35)


def test_parallel_separate_is_bit_identical_to_serial(monkeypatch):
    # the same four chunks, on two threads and then on one
    cfg8k, wave, _, net = _threaded_mixture(monkeypatch, 2, 10)
    assert net.chunk_workers() == (2, None)
    waves, spectra, _ = net.separate(wave, cfg8k)
    monkeypatch.setenv("NBC_THREADS", "1")
    monkeypatch.setattr(model_mod, "FREQUENCY_CHUNK", 5)
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
    _, _, spec, net = _threaded_mixture(monkeypatch, 2, 10)
    seqs, _ = dataset.normalize_spectrogram(spec)
    _, raw = net.forward(Tensor(seqs), collect_attention=True)
    want = np.stack([m.mean(axis=0) for m in raw])
    np.testing.assert_allclose(net.attention_maps(spec), want, rtol=0, atol=1e-12)


def test_separate_without_blas_thread_control_runs_serially(monkeypatch):
    import nbsep.parallel

    cfg8k, wave, _, net = _threaded_mixture(monkeypatch, 2, 10)
    _, want, _ = net.separate(wave, cfg8k)
    monkeypatch.setattr(nbsep.parallel, "_OPENBLAS", None)
    monkeypatch.setattr(nbsep.parallel, "ThreadPoolExecutor", None)  # a pool would fail
    assert net.chunk_workers() == (1, "OpenBLAS thread control not found")
    _, got, _ = net.separate(wave, cfg8k)
    assert np.array_equal(got.data, want.data)


def test_replaced_forward_runs_the_same_chunks_serially(monkeypatch):
    import threading

    cfg8k, wave, _, net = _threaded_mixture(monkeypatch, 2, 10)
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


def test_heap_thresholds_are_left_alone_without_mallopt(monkeypatch):
    import nbsep

    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())  # a libc without mallopt
    nbsep._keep_freed_heap_mapped()
