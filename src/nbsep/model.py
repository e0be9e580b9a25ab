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
RPSA is multi-head self-attention with Transformer-XL style relative
positional encoding: learned content/position bias vectors per head and a
shared learned projection of sinusoidal relative-distance encodings.
Scores, softmax and the weighted sum of values are one fused op,
`autodiff.rel_attention`.  It exponentiates the unshifted logits, scales
the output rows by the reciprocal row sums instead of normalizing the
scores, and rebuilds the logits shifted by their max only in the rows
where exp overflows or the row underflows; its graph keeps the
exponentials and the reciprocal sums, the bytes of the attention
probabilities.  Each conv sub-block is one fused op too,
`autodiff.conv_norm_silu`, whose graph keeps only the centred conv output,
the group factors and the SiLU output; its backward recomputes the rest.

`forward` takes (2M, T) or a batch (B, 2M, T) of frequencies and returns
(2N, T) or (B, 2N, T).  Between its input and output convolutions the
activations are channel-major, (C, B, T) read as a C x B·T matrix: every
projection (wq, wk, wv, wo, ff_in, ff_out) is one 2-D GEMM over all B·T
columns, each conv tap one GEMM per group, and layer and group norms
reduce over axis 0 and over (group channels, T) per sequence.  Only the
attention op sees a (B, heads, T, head_dim) layout.

Inference (`separate`, `attention_maps`) and training
(`trainer.batch_loss`) run the network on chunks of frequency bins
(`map_bin_chunks`).  Every frequency is processed on its own (the attention
decides its overflow rebuild row by row, not per chunk), so the chunks are
independent work.  The F bins are cut into balanced chunks of at most
`FREQUENCY_CHUNK` bins, a cut that depends on F alone; W workers
(`parallel.worker_count`, set by `NBC_THREADS`) run W chunks at once, so
W x `FREQUENCY_CHUNK` bins are in flight instead of F.  Chunking changes the
outputs by round-off only; the chunks do not depend on W, and OpenBLAS
runs at one thread, so the outputs are the same bits at every worker count.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import dataset, parallel, stft
from .audio import WaveBuffer
from .autodiff import Tensor

FREQUENCY_CHUNK = 15  # the most bins in one chunk of inference or of a training step


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

    def __post_init__(self):
        for name in ("in_channels", "speakers", "width", "inner_width", "heads", "groups",
                     "io_kernel", "conv_kernel", "blocks", "conv_blocks"):
            least = 0 if name in ("blocks", "conv_blocks") else 1
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.width % self.heads:
            raise ValueError(f"width {self.width} not divisible by heads {self.heads}")
        if self.inner_width % self.groups:
            raise ValueError(
                f"inner_width {self.inner_width} not divisible by groups {self.groups}"
            )
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


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[tuple[int, ...], int | None]]:
    """Each parameter's name, shape and fan-in, in `init_parameters`' draw order.

    The fan-in is None for a constant: the norm gains (``.gamma``) start at
    one, every other such parameter at zero.
    """
    h1, h2, dh, k = cfg.width, cfg.inner_width, cfg.head_dim, cfg.io_kernel
    p = {"in_conv.w": ((h1, 2 * cfg.in_channels, k), 2 * cfg.in_channels * k),
         "in_conv.b": ((h1,), None)}
    for i in range(cfg.blocks):
        b = f"block{i}"
        p[f"{b}.attn_norm.gamma"] = p[f"{b}.attn_norm.beta"] = ((h1,), None)
        for name in ("wq", "wk", "wv", "wr", "wo"):
            p[f"{b}.attn.{name}"] = ((h1, h1), h1)
        p[f"{b}.attn.u"] = p[f"{b}.attn.v"] = ((cfg.heads, dh), None)
        p[f"{b}.ff_norm.gamma"] = p[f"{b}.ff_norm.beta"] = ((h1,), None)
        p[f"{b}.ff_in.w"], p[f"{b}.ff_in.b"] = ((h2, h1), h1), ((h2,), None)
        for j in range(cfg.conv_blocks):
            c = f"{b}.conv{j}"
            p[f"{c}.w"] = ((h2, h2 // cfg.groups, cfg.conv_kernel),
                           (h2 // cfg.groups) * cfg.conv_kernel)
            p[f"{c}.b"] = p[f"{c}.norm.gamma"] = p[f"{c}.norm.beta"] = ((h2,), None)
        p[f"{b}.ff_out.w"], p[f"{b}.ff_out.b"] = ((h1, h2), h2), ((h1,), None)
    p["out_conv.w"] = ((h1, 2 * cfg.speakers, k), h1 * k)
    p["out_conv.b"] = ((2 * cfg.speakers,), None)
    return p


def init_parameters(cfg: ModelConfig, seed: int = 0, dtype=np.float64) -> dict[str, Tensor]:
    """Fan-in uniform weights, zero biases, unit/zero norm affines."""
    rng = np.random.default_rng(seed)
    p = {}
    for name, (shape, fan_in) in parameter_shapes(cfg).items():
        if fan_in is not None:
            bound = 1.0 / np.sqrt(fan_in)
            p[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
        else:
            p[name] = (np.ones if name.endswith(".gamma") else np.zeros)(shape, dtype=dtype)
    return {k: Tensor(v, requires_grad=True) for k, v in p.items()}


def parameter_count(cfg: ModelConfig) -> int:
    return sum(int(np.prod(shape)) for shape, _ in parameter_shapes(cfg).values())


def relative_encoding_table(T: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Sinusoidal encodings of relative offsets -(T-1)..(T-1), shape (dim, 2T-1)."""
    offsets = np.arange(-(T - 1), T, dtype=np.float64)
    inv_freq = 1.0 / (10000.0 ** (np.arange(0, dim, 2, dtype=np.float64) / dim))
    angles = offsets[:, None] * inv_freq[None, :]
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1).T.astype(dtype, order="C")


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
                c = f"{b}.conv{j}"
                f = ad.conv_norm_silu(f, p[f"{c}.w"], p[f"{c}.b"], p[f"{c}.norm.gamma"],
                                      p[f"{c}.norm.beta"], cfg.groups)
            f = ad.dropout(f, drop, rng, train)
            f = _linear(p[f"{b}.ff_out.w"], f, p[f"{b}.ff_out.b"])
            f = ad.dropout(f, drop, rng, train)
            h = ad.add(f, h)

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
        """Self-attention of channel-major xn (width, B, T); rel_table is (width, 2T-1)."""
        cfg = self.cfg
        b = f"block{block}"
        heads, dh = cfg.heads, cfg.head_dim
        _, n_batch, t_len = xn.shape

        def project(name):  # (heads, dh, B, T)
            return ad.reshape(_linear(p[f"{b}.attn.{name}"], xn), (heads, dh, n_batch, t_len))

        q = ad.transpose(project("wq"), (2, 0, 3, 1))  # (B, heads, T, dh)
        k = ad.transpose(project("wk"), (2, 0, 1, 3))  # (B, heads, dh, T)
        v = ad.transpose(project("wv"), (2, 0, 3, 1))

        u = ad.reshape(p[f"{b}.attn.u"], (heads, 1, dh))
        vb = ad.reshape(p[f"{b}.attn.v"], (heads, 1, dh))
        rel = ad.matmul(p[f"{b}.attn.wr"], rel_table)
        rel = ad.reshape(rel, (heads, dh, 2 * t_len - 1))
        o = ad.rel_attention(q, k, v, u, vb, rel, 1.0 / np.sqrt(dh),
                             probs_sink=attn_sink)  # (B, heads, T, dh)
        o = ad.transpose(o, (1, 3, 0, 2))  # (heads, dh, B, T)
        return _linear(p[f"{b}.attn.wo"], ad.reshape(o, xn.shape))

    # -- full-band inference ------------------------------------------------------

    def bind(self, outputs: np.ndarray, norm: dataset.NormState) -> SeparatedSpectra:
        """Denormalize per-frequency outputs and stack them into full spectra.

        `outputs` is (F, 2N, T), decoded by `stft.spectra_of_sequences`.
        """
        if outputs.shape[0] != norm.scale.shape[0]:
            raise ValueError(
                f"{outputs.shape[0]} frequency outputs but {norm.scale.shape[0]} scales"
            )
        return SeparatedSpectra(stft.spectra_of_sequences(outputs * norm.scale[:, None, None]))

    def separate(self, mixture: WaveBuffer, stft_cfg: stft.StftConfig):
        """Separate a mixture waveform; returns (estimates, spectra, seconds).

        Estimates are (N, L) at the mixture's length; `seconds` is the
        processing wall time used for real-time-factor reporting.
        """
        t0 = time.perf_counter()
        seqs, norm = self._normalized_sequences(mixture, stft_cfg)
        out = np.concatenate(list(self._map_bin_chunks(lambda x: self.forward(x).data, seqs)))
        spectra = self.bind(out.astype(np.float64), norm)
        waves = stft.istft(spectra.data, stft_cfg, mixture.n_samples).data
        return waves, spectra, time.perf_counter() - t0

    def attention_maps(self, mixture: WaveBuffer, stft_cfg: stft.StftConfig) -> np.ndarray:
        """Frequency-averaged attention of a mixture waveform, shape (blocks, heads, T, T)."""
        seqs, _ = self._normalized_sequences(mixture, stft_cfg)

        def summed_maps(x):
            _, maps = self.forward(x, collect_attention=True)
            return np.stack([m.sum(axis=0) for m in maps])

        return sum(self._map_bin_chunks(summed_maps, seqs)) / seqs.shape[0]

    def _normalized_sequences(self, mixture: WaveBuffer, stft_cfg: stft.StftConfig):
        """The mixture's normalized (F, 2M, T) sequences and scales, once its channels fit."""
        if mixture.n_channels != self.cfg.in_channels:
            raise ValueError(f"mixture has {mixture.n_channels} channels, "
                             f"model expects {self.cfg.in_channels}")
        return dataset.normalize_spectrogram(stft.stft(mixture, stft_cfg))

    def chunk_workers(self) -> tuple[int, str | None]:
        """Threads that run the bin chunks, and why one if it fell back."""
        workers = parallel.worker_count()
        if workers > 1 and self._forward_replaced():
            return 1, "forward is replaced"
        if workers > 1 and parallel._OPENBLAS is None:
            # workers that each call a multi-threaded BLAS would oversubscribe the cores
            return 1, "OpenBLAS thread control not found"
        return workers, None

    def _forward_replaced(self) -> bool:
        """Whether `forward` is not this class's own (a tracer or a test spy replaced it).

        The chunks then run serially, since such a wrapper may not expect
        calls from several threads at once.
        """
        return getattr(self.forward, "__func__", None) is not _LIBRARY_FORWARD

    def map_bin_chunks(self, fn, n_bins: int):
        """Yield ``fn(i, bins)`` for each bin chunk, in bin order, on the chunk workers.

        `bins` is chunk i's slice of range(n_bins).  The chunks depend on
        `n_bins` alone, not on the worker count.  A worker thread starts in
        graph mode, so `fn` enters `ad.no_graph` itself where it wants no
        graph; a graph it builds stays on its thread.
        """
        n_chunks = -(-n_bins // FREQUENCY_CHUNK)
        size, extra = divmod(n_bins, n_chunks)  # np.array_split's balance
        starts = [i * size + min(i, extra) for i in range(n_chunks + 1)]
        chunks = list(enumerate(slice(a, b) for a, b in zip(starts, starts[1:])))
        threads, _ = self.chunk_workers()
        return parallel.parallel_map(lambda chunk: fn(*chunk), chunks, threads)

    def _map_bin_chunks(self, fn, seqs: np.ndarray):
        """Yield `fn` of each bin chunk of (F, 2M, T) sequences, graph-free, in bin order."""
        def run(_, bins):
            with ad.no_graph():  # the graph mode is per thread
                return fn(Tensor(seqs[bins].astype(self.dtype)))

        return self.map_bin_chunks(run, seqs.shape[0])


_LIBRARY_FORWARD = NarrowBandModel.forward


# -- checkpoints ---------------------------------------------------------------


def save_checkpoint(path, model: NarrowBandModel, optimizer_state=None, step: int = 0) -> None:
    """Write one npz file of float32 `params/`, `adam_m/` and `adam_v/` entries and `meta`.

    `meta` is the JSON of the model config and the step.  The file is
    written and synced beside `path`, then put in place by one `os.replace`,
    so a failure leaves an earlier checkpoint at `path` as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tensors = {f"params/{name}": t.data for name, t in model.params.items()}
    if optimizer_state is not None:
        for name in model.params:
            tensors[f"adam_m/{name}"] = optimizer_state.m[name]
            tensors[f"adam_v/{name}"] = optimizer_state.v[name]
    meta = json.dumps({"model_config": asdict(model.cfg), "step": int(step)})
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as fh:  # a file object: np.savez appends no ".npz"
            np.savez(fh, meta=np.array(meta),
                     **{k: np.asarray(a, dtype=np.float32) for k, a in tensors.items()})
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def load_checkpoint(path, dtype=np.float64):
    """Load (model, optimizer, step); `trainer.AdamState(**optimizer)` restores the moments.

    `optimizer` is None when the file holds no Adam moments.  A path that
    does not hold a checkpoint, or whose parameter entries are not those of
    its model config, raises ValueError naming it (and the entry).
    """
    path = Path(path)
    try:
        with np.load(path) as entries:
            tensors = {k: entries[k].astype(dtype) for k in entries.files if k != "meta"}
            meta = json.loads(str(entries["meta"]))
        cfg = ModelConfig(**meta["model_config"])
        step = int(meta["step"])
        params = {k.removeprefix("params/"): Tensor(a, requires_grad=True)
                  for k, a in tensors.items() if k.startswith("params/")}
        optimizer = None
        if any(k.startswith("adam_m/") for k in tensors):
            optimizer = {"m": {name: tensors[f"adam_m/{name}"] for name in params},
                         "v": {name: tensors[f"adam_v/{name}"] for name in params},
                         "step": step}
    except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as e:
        raise ValueError(f"{path} is not a readable checkpoint ({type(e).__name__}: {e})") from None
    shapes = {name: shape for name, (shape, _) in parameter_shapes(cfg).items()}
    for name, shape in shapes.items():
        if name not in params:
            raise ValueError(f"{path} lacks entry params/{name} of shape {shape}")
        if params[name].shape != shape:
            raise ValueError(f"{path} has entry params/{name} of shape {params[name].shape}, "
                             f"its model config needs {shape}")
    extra = [name for name in params if name not in shapes]
    if extra:
        raise ValueError(f"{path} has entry params/{extra[0]}, which its model config has not")
    return NarrowBandModel(cfg, params), optimizer, step
