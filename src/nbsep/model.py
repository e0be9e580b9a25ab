"""Narrow-band separation network.

One shared network maps each frequency's (2M, T) real/imaginary sequence to
the (2N, T) sequences of the separated speakers: an input Conv1d lifts the
sequence to `width` channels, a stack of modified Conformer blocks mixes it,
and a transposed Conv1d projects back.  A block applies

    a   = x + dropout(RPSA(LayerNorm(x)))
    f   = SiLU(Linear(LayerNorm(a)))            -> inner_width channels
    f   = SiLU(GroupNorm(GroupConv(f)))          (conv_blocks times)
    out = a + dropout(Linear(dropout(f)))       -> width channels

so, as in a Conformer block, both modules sit inside a residual connection.
`ff_residual=False` drops the one around the feed-forward path
(out = dropout(Linear(dropout(f)))); it is kept so that checkpoints trained
with that wiring still load and run as they were trained, since every
manifest records the flag.  RPSA is multi-head self-attention with
Transformer-XL style relative positional encoding: learned content/position
bias vectors per head and a shared learned projection of sinusoidal
relative-distance encodings.  Scores, softmax and the weighted sum of
values are one fused op, `autodiff.rel_attention`, whose graph keeps only
the attention probabilities.

`forward` takes (2M, T) or a batch (B, 2M, T) of frequencies and returns
(2N, T) or (B, 2N, T).  Between its input and output convolutions the
activations are channel-major, (C, B, T) read as a C x B·T matrix: every
projection (wq, wk, wv, wo, ff_in, ff_out) is one 2-D GEMM over all B·T
columns, each conv tap one GEMM per group, and layer and group norms
reduce over axis 0 and over (group channels, T) per sequence.  Only the
attention op sees a (B, heads, T, head_dim) layout.

Inference (`separate`, `attention_maps`) and training
(`trainer.batch_loss`) run the network on chunks of frequency bins
(`map_bin_chunks`).  Every frequency is processed on its own, so the chunks
are independent work: with W workers (`parallel.worker_count`, set by
`NBC_THREADS`) the F bins are cut into balanced chunks of at most
`FREQUENCY_CHUNK` // W bins, a multiple of W of them, and W threads run them
at once.  About `FREQUENCY_CHUNK` bins are in flight at a time, so memory is
set by that constant instead of by F x T.  Chunking changes the outputs by
round-off only, and the chunks, and so the outputs to the last bit, are the
same whether they run in parallel or one after another.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import dataset, parallel, stft
from .audio import WaveBuffer
from .autodiff import Tensor

FREQUENCY_CHUNK = 32  # bins in flight at once in inference and in a training step


@dataclass
class ModelConfig:
    in_channels: int = 8  # microphones M
    speakers: int = 2
    width: int = 192  # hidden units inside a block
    inner_width: int = 384  # hidden units of the conv feed-forward path
    blocks: int = 4
    conv_blocks: int = 3  # group-conv sub-blocks per block (the ablation knob)
    heads: int = 8
    groups: int = 8  # group conv / group norm partitions
    io_kernel: int = 4  # first Conv1d and last Conv1dT kernel size
    conv_kernel: int = 3
    dropout: float = 0.1
    ff_residual: bool = True  # False: out = FF(a), the wiring of older checkpoints

    def __post_init__(self):
        if self.width % self.heads:
            raise ValueError(f"width {self.width} not divisible by heads {self.heads}")
        if self.inner_width % self.groups:
            raise ValueError(
                f"inner_width {self.inner_width} not divisible by groups {self.groups}"
            )
        if self.conv_blocks < 0:
            raise ValueError("conv_blocks must be >= 0")
        if self.conv_kernel % 2 == 0:
            raise ValueError("conv_kernel must be odd to preserve the frame count")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def head_dim(self) -> int:
        return self.width // self.heads


@dataclass
class SeparatedSpectra:
    """Per-speaker full-band complex spectra, shape (N, F, T)."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)
        if self.data.ndim != 3:
            raise ValueError(f"expected (N, F, T), got {self.data.shape}")


def _uniform(rng, fan_in, shape, dtype):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_parameters(cfg: ModelConfig, seed: int = 0, dtype=np.float64) -> dict[str, Tensor]:
    """Fan-in uniform weights, zero biases, unit/zero norm affines."""
    rng = np.random.default_rng(seed)
    p: dict[str, np.ndarray] = {}
    h1, h2, dh = cfg.width, cfg.inner_width, cfg.head_dim

    p["in_conv.w"] = _uniform(rng, 2 * cfg.in_channels * cfg.io_kernel,
                              (h1, 2 * cfg.in_channels, cfg.io_kernel), dtype)
    p["in_conv.b"] = np.zeros(h1, dtype=dtype)
    for i in range(cfg.blocks):
        b = f"block{i}"
        p[f"{b}.attn_norm.gamma"] = np.ones(h1, dtype=dtype)
        p[f"{b}.attn_norm.beta"] = np.zeros(h1, dtype=dtype)
        for name in ("wq", "wk", "wv", "wr", "wo"):
            p[f"{b}.attn.{name}"] = _uniform(rng, h1, (h1, h1), dtype)
        p[f"{b}.attn.u"] = np.zeros((cfg.heads, dh), dtype=dtype)
        p[f"{b}.attn.v"] = np.zeros((cfg.heads, dh), dtype=dtype)
        p[f"{b}.ff_norm.gamma"] = np.ones(h1, dtype=dtype)
        p[f"{b}.ff_norm.beta"] = np.zeros(h1, dtype=dtype)
        p[f"{b}.ff_in.w"] = _uniform(rng, h1, (h2, h1), dtype)
        p[f"{b}.ff_in.b"] = np.zeros(h2, dtype=dtype)
        for j in range(cfg.conv_blocks):
            p[f"{b}.conv{j}.w"] = _uniform(
                rng, (h2 // cfg.groups) * cfg.conv_kernel,
                (h2, h2 // cfg.groups, cfg.conv_kernel), dtype,
            )
            p[f"{b}.conv{j}.b"] = np.zeros(h2, dtype=dtype)
            p[f"{b}.conv{j}.norm.gamma"] = np.ones(h2, dtype=dtype)
            p[f"{b}.conv{j}.norm.beta"] = np.zeros(h2, dtype=dtype)
        p[f"{b}.ff_out.w"] = _uniform(rng, h2, (h1, h2), dtype)
        p[f"{b}.ff_out.b"] = np.zeros(h1, dtype=dtype)
    p["out_conv.w"] = _uniform(rng, h1 * cfg.io_kernel,
                               (h1, 2 * cfg.speakers, cfg.io_kernel), dtype)
    p["out_conv.b"] = np.zeros(2 * cfg.speakers, dtype=dtype)
    return {k: Tensor(v, requires_grad=True) for k, v in p.items()}


def parameter_count(params: dict[str, Tensor]) -> int:
    return int(sum(t.size for t in params.values()))


def relative_encoding_table(T: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Sinusoidal encodings of relative offsets -(T-1)..(T-1), shape (2T-1, dim)."""
    offsets = np.arange(-(T - 1), T, dtype=np.float64)
    inv_freq = 1.0 / (10000.0 ** (np.arange(0, dim, 2, dtype=np.float64) / dim))
    angles = offsets[:, None] * inv_freq[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1).astype(dtype)


def relative_index_table(T: int) -> np.ndarray:
    """idx[q, k] maps pair (q, k) to the offset entry for k - q."""
    q = np.arange(T)
    return (q[None, :] - q[:, None]) + (T - 1)


def _linear(w: Tensor, x: Tensor, b: Tensor | None = None) -> Tensor:
    """``W @ x (+ b)`` on channel-major x (C, ...) as one 2-D GEMM over all columns."""
    y = ad.matmul(w, ad.reshape(x, (x.shape[0], -1)))
    if b is not None:
        y = ad.add(y, ad.reshape(b, (-1, 1)))
    return ad.reshape(y, (w.shape[0],) + x.shape[1:])


class NarrowBandModel:
    """Configuration plus named parameter tensors, with forward/inference."""

    def __init__(self, cfg: ModelConfig, params: dict[str, Tensor] | None = None,
                 seed: int = 0, dtype=np.float64):
        self.cfg = cfg
        self.params = params if params is not None else init_parameters(cfg, seed, dtype)
        self.step = 0

    @property
    def dtype(self):
        return self.params["in_conv.w"].dtype

    def astype(self, dtype) -> "NarrowBandModel":
        for t in self.params.values():
            t.data = t.data.astype(dtype)
        return self

    # -- forward ----------------------------------------------------------------

    def forward(self, x, train: bool = False, rng=None, collect_attention: bool = False,
                params: dict[str, Tensor] | None = None):
        """Run the network on (2M, T) or batched (B, 2M, T) sequences.

        Returns the (.., 2N, T) output Tensor, or (output, attention) with
        `collect_attention`, where attention is a list per block of
        (B, heads, T, T) softmax matrices (read-only ndarray, no graph;
        B = 1 for a 2-D input).  Inside, activations are channel-major
        (C, B, T): the input is transposed once on entry and the output
        once on exit.  `params` replaces `self.params` as the leaves the
        graph is built on, so that forwards on several threads each
        backpropagate into their own `.grad`.
        """
        cfg = self.cfg
        p = self.params if params is None else params
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        if x.shape[-2] != 2 * cfg.in_channels:
            raise ValueError(
                f"expected {2 * cfg.in_channels} input rows, got {x.shape[-2]}"
            )
        single = x.ndim == 2
        if single:
            x = ad.reshape(x, (1,) + x.shape)
        t_len = x.shape[-1]
        drop = cfg.dropout if train else 0.0
        attn_maps = []

        h = ad.transpose(x, (1, 0, 2))  # (2M, B, T)
        h = ad.conv1d(h, p["in_conv.w"], p["in_conv.b"], padding=(cfg.io_kernel - 1, 0))
        rel_table = Tensor(relative_encoding_table(t_len, cfg.width, self.dtype))

        for i in range(cfg.blocks):
            b = f"block{i}"
            a = ad.layer_norm(h, p[f"{b}.attn_norm.gamma"], p[f"{b}.attn_norm.beta"])
            a = self._rpsa(p, a, i, rel_table,
                           attn_maps if collect_attention else None)
            a = ad.dropout(a, drop, rng, train)
            h = ad.add(h, a)

            f = ad.layer_norm(h, p[f"{b}.ff_norm.gamma"], p[f"{b}.ff_norm.beta"])
            f = ad.silu(_linear(p[f"{b}.ff_in.w"], f, p[f"{b}.ff_in.b"]))
            for j in range(cfg.conv_blocks):
                f = ad.conv1d(f, p[f"{b}.conv{j}.w"], p[f"{b}.conv{j}.b"],
                              padding=(cfg.conv_kernel // 2, cfg.conv_kernel // 2),
                              groups=cfg.groups)
                f = ad.group_norm(f, p[f"{b}.conv{j}.norm.gamma"],
                                  p[f"{b}.conv{j}.norm.beta"], cfg.groups)
                f = ad.silu(f)
            f = ad.dropout(f, drop, rng, train)
            f = _linear(p[f"{b}.ff_out.w"], f, p[f"{b}.ff_out.b"])
            f = ad.dropout(f, drop, rng, train)
            h = ad.add(f, h) if cfg.ff_residual else f

        out = ad.conv_transpose1d(h, p["out_conv.w"], p["out_conv.b"])
        out = ad.narrow(out, -1, 0, t_len)  # crop the trailing kernel tail
        out = ad.transpose(out, (1, 0, 2))  # (B, 2N, T)
        if single:
            out = ad.reshape(out, out.shape[1:])
        if collect_attention:
            return out, attn_maps
        return out

    def _rpsa(self, p: dict[str, Tensor], xn: Tensor, block: int, rel_table: Tensor,
              attn_sink: list | None) -> Tensor:
        """Self-attention of channel-major xn (width, B, T) or (width, T)."""
        cfg = self.cfg
        b = f"block{block}"
        heads, dh = cfg.heads, cfg.head_dim
        cols = xn.shape[1:]  # (B, T), or (T,) for one sequence
        n = len(cols) - 1  # batch axes
        batch, t_axis = tuple(range(2, 2 + n)), 2 + n

        def project(name):  # (heads, dh, B, T)
            return ad.reshape(_linear(p[f"{b}.attn.{name}"], xn), (heads, dh) + cols)

        q = ad.transpose(project("wq"), batch + (0, t_axis, 1))  # (B, heads, T, dh)
        k = ad.transpose(project("wk"), batch + (0, 1, t_axis))  # (B, heads, dh, T)
        v = ad.transpose(project("wv"), batch + (0, t_axis, 1))

        t_len = cols[-1]
        u = ad.reshape(p[f"{b}.attn.u"], (heads, 1, dh))
        vb = ad.reshape(p[f"{b}.attn.v"], (heads, 1, dh))
        rel = ad.matmul(p[f"{b}.attn.wr"], ad.transpose(rel_table, (1, 0)))
        rel = ad.reshape(rel, (heads, dh, 2 * t_len - 1))
        o = ad.rel_attention(q, k, v, u, vb, rel, 1.0 / np.sqrt(dh),
                             probs_sink=attn_sink)  # (B, heads, T, dh)
        o = ad.transpose(o, (n, n + 2) + tuple(range(n)) + (n + 1,))  # (heads, dh, B, T)
        return _linear(p[f"{b}.attn.wo"], ad.reshape(o, (cfg.width,) + cols))

    # -- full-band inference ------------------------------------------------------

    def bind(self, outputs: np.ndarray, norm: dataset.NormState) -> SeparatedSpectra:
        """Denormalize per-frequency outputs and stack them into full spectra.

        `outputs` is (F, 2N, T); rows 2n / 2n+1 become the real/imaginary
        parts of speaker n.
        """
        if outputs.shape[0] != norm.scale.shape[0]:
            raise ValueError(
                f"{outputs.shape[0]} frequency outputs but {norm.scale.shape[0]} scales"
            )
        denorm = outputs * norm.scale[:, None, None]
        spectra = denorm[:, 0::2, :] + 1j * denorm[:, 1::2, :]  # (F, N, T)
        return SeparatedSpectra(spectra.transpose(1, 0, 2))

    def separate(self, mixture: WaveBuffer, stft_cfg: stft.StftConfig):
        """Separate a mixture waveform; returns (estimates, spectra, seconds).

        Estimates are (N, L) at the mixture's length; `seconds` is the
        processing wall time used for real-time-factor reporting.
        """
        t0 = time.perf_counter()
        spec = stft.stft(mixture, stft_cfg)
        seqs, norm = dataset.normalize_spectrogram(spec)
        out = np.concatenate(list(self._map_bin_chunks(lambda x: self.forward(x).data, seqs)))
        spectra = self.bind(out.astype(np.float64), norm)
        waves = stft.istft(stft.ComplexSpectrogram(spectra.data.transpose(1, 2, 0)),
                           stft_cfg, mixture.n_samples).data
        return waves, spectra, time.perf_counter() - t0

    def attention_maps(self, mixture: stft.ComplexSpectrogram) -> np.ndarray:
        """Frequency-averaged attention of a mixture, shape (blocks, heads, T, T)."""
        seqs, _ = dataset.normalize_spectrogram(mixture)

        def summed_maps(x):
            _, maps = self.forward(x, collect_attention=True)
            return np.stack([m.sum(axis=0) for m in maps])

        return sum(self._map_bin_chunks(summed_maps, seqs)) / seqs.shape[0]

    def chunk_workers(self) -> tuple[int, str | None]:
        """Threads that run the bin chunks, and why one if it fell back."""
        workers = parallel.worker_count()
        if workers > 1 and self._forward_replaced():
            return 1, "forward is replaced"
        return parallel.pool_size(workers, blas_bound=True)

    def _forward_replaced(self) -> bool:
        """Whether `forward` is not this class's own (a tracer or a test spy replaced it).

        The chunks then run serially, since such a wrapper may not expect
        calls from several threads at once.
        """
        return getattr(self.forward, "__func__", None) is not _LIBRARY_FORWARD

    def map_bin_chunks(self, fn, n_bins: int):
        """Yield ``fn(i, bins)`` for each bin chunk, in bin order, on the chunk workers.

        `bins` is chunk i's slice of range(n_bins).  The chunks depend on
        the worker count only, not on whether they run in parallel.  A
        worker thread starts in graph mode, so `fn` enters `ad.no_graph`
        itself where it wants no graph; a graph it builds stays on its
        thread.
        """
        workers = parallel.worker_count()
        n_chunks = -(-n_bins // max(1, FREQUENCY_CHUNK // workers))
        n_chunks = min(n_bins, -(-n_chunks // workers) * workers)
        size, extra = divmod(n_bins, n_chunks)  # np.array_split's balance
        starts = [i * size + min(i, extra) for i in range(n_chunks + 1)]
        chunks = list(enumerate(slice(a, b) for a, b in zip(starts, starts[1:])))
        threads = 1 if self._forward_replaced() else workers
        return parallel.parallel_map(lambda chunk: fn(*chunk), chunks, threads, blas_bound=True)

    def _map_bin_chunks(self, fn, seqs: np.ndarray):
        """Yield `fn` of each bin chunk of (F, 2M, T) sequences, graph-free, in bin order."""
        def run(_, bins):
            with ad.no_graph():  # the graph mode is per thread
                return fn(Tensor(seqs[bins].astype(self.dtype)))

        return self.map_bin_chunks(run, seqs.shape[0])


_LIBRARY_FORWARD = NarrowBandModel.forward


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(path, model: NarrowBandModel, optimizer_state=None, step: int = 0) -> None:
    """Write a checkpoint directory: JSON manifest + one float32 .bin per tensor.

    The files are written to a temporary sibling directory, which is then
    renamed into place; a failure while writing leaves an earlier
    checkpoint at `path` as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f".{path.name}.", dir=path.parent))
    try:
        (tmp / "params").mkdir()
        entries = []
        for name, t in model.params.items():
            (tmp / "params" / f"{name}.bin").write_bytes(
                np.ascontiguousarray(t.data, dtype="<f4").tobytes()
            )
            entries.append({"name": name, "shape": list(t.shape), "dtype": "float32"})
        manifest = {
            "model_config": asdict(model.cfg),
            "training_step": int(step),
            "params": entries,
        }
        if optimizer_state is not None:
            (tmp / "opt").mkdir()
            manifest["optimizer"] = optimizer_state.serialize(tmp / "opt")
        (tmp / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    # a directory cannot be renamed over a non-empty one: move the old one aside
    old = tmp.with_name(tmp.name + ".old")
    if path.exists():
        path.rename(old)
    tmp.rename(path)
    shutil.rmtree(old, ignore_errors=True)


def load_checkpoint(path, dtype=np.float64):
    """Load (model, optimizer_manifest_or_None, step) from a checkpoint dir."""
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    cfg = ModelConfig(**manifest["model_config"])
    params = {}
    for entry in manifest["params"]:
        raw = (path / "params" / f"{entry['name']}.bin").read_bytes()
        arr = np.frombuffer(raw, dtype="<f4").reshape(entry["shape"]).astype(dtype)
        params[entry["name"]] = Tensor(arr, requires_grad=True)
    model = NarrowBandModel(cfg, params)
    model.step = int(manifest.get("training_step", 0))
    return model, manifest.get("optimizer"), model.step
