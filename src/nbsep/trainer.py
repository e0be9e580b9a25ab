"""Optimization loop: per-utterance fPIT steps, Adam, plateau LR halving, clipping.

A mini-batch is a list of utterances; every utterance contributes all F of
its normalized narrow-band sequences.  The network treats every frequency
on its own, and the per-utterance loss couples the frequencies only after
it (binding + inverse STFT + permutation-invariant SI-SDR).  So a step
never holds a graph over all F bins: the network runs graph-free on chunks
of bins, fPIT is backpropagated into the joined output alone, and each
chunk then runs again with a graph, seeded with its rows of that output
gradient (recomputation, Chen et al. 2016, arXiv:1604.06174).  Memory is
set by the chunk, not by F, and the chunks run on the model's worker
threads.  Nothing couples two utterances, so utterances of a batch may
differ in length.  The chunks, and so the dropout masks drawn per chunk,
depend on F alone, OpenBLAS runs at one thread, and gradients are summed in
chunk order: a seed gives the same bits on every run at every `NBC_THREADS`.

Examples wait as waveforms.  `train` prepares a batch's utterances (the
mixture and target STFTs) just before its step and validates one
utterance at a time, so at most one batch is held in prepared form.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import dataset, model as model_mod, objective, roomsim, stft
from .audio import WaveBuffer
from .autodiff import NumericError, Tensor


@dataclass
class TrainConfig:
    utterances_per_batch: int = 16
    lr_init: float = 1e-3
    lr_min: float = 1e-4
    plateau_epochs: int = 3
    clip_norm: float = 5.0
    max_epochs: int = 10
    seed: int = 0
    precision: str = "float32"  # float32 for speed, float64 for verification
    # Only 1 is valid: a step backpropagates each bin chunk on its own.  The
    # field stays because perfbench/workloads.py passes graph_chunk=1;
    # ROADMAP item 1's benchmark change deletes it.
    graph_chunk: int = 1

    def __post_init__(self):
        for name, low in (("utterances_per_batch", 1), ("max_epochs", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.graph_chunk != 1:
            raise ValueError(f"graph_chunk must be 1, got {self.graph_chunk}")
        for name in ("lr_init", "lr_min", "clip_norm"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.lr_min > self.lr_init:
            raise ValueError("lr_min must not exceed lr_init")
        if self.precision not in ("float32", "float64"):
            raise ValueError(f"unknown precision {self.precision}")

    @property
    def dtype(self):
        return np.float32 if self.precision == "float32" else np.float64


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter."""

    m: dict
    v: dict
    step: int = 0

    @staticmethod
    def init(params: dict) -> "AdamState":
        return AdamState(
            m={k: np.zeros_like(t.data) for k, t in params.items()},
            v={k: np.zeros_like(t.data) for k, t in params.items()},
        )


def global_grad_norm(grads: dict) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.asarray(g, dtype=np.float64) ** 2))
    return float(np.sqrt(total))


def clip_gradients(grads: dict, clip_norm: float) -> tuple[dict, float]:
    """Scale all gradients by clip_norm/norm when the global norm exceeds it."""
    norm = global_grad_norm(grads)
    if norm > clip_norm:
        factor = clip_norm / norm
        grads = {k: g * factor for k, g in grads.items()}
    return grads, norm


def adam_step(params: dict, grads: dict, state: AdamState, lr: float,
              clip_norm: float | None = None) -> float:
    """One clipped Adam update in place; returns the pre-clip gradient norm.

    Rejects the step (raises NumericError) on any non-finite gradient.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name}; step rejected")
    if clip_norm is not None:
        grads, norm = clip_gradients(grads, clip_norm)
    else:
        norm = global_grad_norm(grads)
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, tensor in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(tensor.data)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        tensor.data = tensor.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return norm


def schedule_lr(history, lr_init: float = 1e-3,
                patience: int = 3, lr_min: float = 1e-4) -> float:
    """Halve the LR when the best validation loss stalls for `patience` epochs.

    Pure function of the full loss history: the wait counter resets on every
    improvement and on every halving, and the LR never drops below `lr_min`.
    """
    if not len(history):
        raise ValueError("history must contain at least one epoch")
    lr = lr_init
    best = np.inf
    wait = 0
    for loss in history:
        if loss < best:
            best = loss
            wait = 0
            continue
        wait += 1
        if wait >= patience:
            lr = max(lr * 0.5, lr_min)
            wait = 0
    return lr


# -- batches ----------------------------------------------------------------------


@dataclass
class Utterance:
    """One example prepared for the network: normalized sequences + targets."""

    sequences: np.ndarray  # (F, 2M, T) normalized, in the model's dtype
    norm: dataset.NormState
    target_spectra: np.ndarray  # complex (N, F, T)
    out_len: int


def prepare_utterance(example: dataset.MixtureExample, stft_cfg: stft.StftConfig,
                      dtype=np.float64) -> Utterance:
    """Take the mixture's and the targets' STFTs and normalize the mixture's into `dtype`."""
    seqs, norm = dataset.normalize_spectrogram(stft.stft(example.mixture_wave, stft_cfg))
    return Utterance(
        sequences=seqs.astype(dtype, copy=False),
        norm=norm,
        target_spectra=stft.stft(example.target_waves, stft_cfg),
        out_len=example.mixture_wave.n_samples,
    )


def batch_loss(model, utterances, cfg_stft, train=False, rng=None,
               accumulate_grads: bool = False):
    """Mean fPIT loss over `utterances` and, with `accumulate_grads`, its gradients.

    Returns (mean, grads).  Each utterance runs in up to three passes over
    the model's bin chunks (`model.map_bin_chunks`, on its worker threads):

    1. every chunk runs forward without a graph;
    2. the outputs, joined in bin order into one (F, 2N, T) leaf, are
       denormalized and scored by fPIT; with `accumulate_grads` the loss,
       scaled by 1/n, is backpropagated into that leaf, whose gradient G
       is all that the network's backward needs;
    3. with `accumulate_grads` only: every chunk runs forward again, now
       with a graph on its own leaves over the shared parameter arrays,
       and backpropagates its rows of G into them.

    The chunk gradients add up, in chunk order and utterance after
    utterance, to the batch-mean gradient.  Without `accumulate_grads`
    `grads` is empty.  Dropout masks come from one generator per chunk,
    seeded from `rng` and the chunk index, so passes 1 and 3 draw the same
    masks, whatever the worker count.
    """
    n = len(utterances)
    dtype = model.dtype
    total = 0.0
    grads: dict[str, np.ndarray] = {}
    for u in utterances:
        seqs = u.sequences.astype(dtype, copy=False)
        seed = int(rng.integers(2**63)) if train and rng is not None else None

        def chunk_rng(i):
            return None if seed is None else np.random.default_rng([seed, i])

        def free_forward(i, bins):
            with ad.no_graph():
                return model.forward(Tensor(seqs[bins]), train=train, rng=chunk_rng(i)).data

        out = Tensor(np.concatenate(list(model.map_bin_chunks(free_forward, len(seqs)))),
                     requires_grad=accumulate_grads)
        pred = ad.mul(out, Tensor(u.norm.scale.astype(dtype)[:, None, None]))
        loss, _ = objective.fpit(pred, u.target_spectra, cfg_stft, u.out_len)
        total += loss.item()
        if not accumulate_grads:
            continue
        ad.backward(ad.scale(loss, 1.0 / n))

        def chunk_grads(i, bins):
            leaves = {k: Tensor(t.data, requires_grad=True) for k, t in model.params.items()}
            y = model.forward(Tensor(seqs[bins]), train=train, rng=chunk_rng(i), params=leaves)
            ad.backward(y, out.grad[bins])
            return {k: t.grad for k, t in leaves.items() if t.grad is not None}

        for chunk in model.map_bin_chunks(chunk_grads, len(seqs)):
            for k, g in chunk.items():
                grads[k] = g if k not in grads else grads[k] + g
    return total / n, grads


# -- training loop ------------------------------------------------------------------


@dataclass
class TrainResult:
    epochs: int
    steps: int
    best_val: float
    log_path: Path
    step_seconds: list[float]  # wall time of each step: batch preparation, loss, Adam


def train(model, train_examples, val_examples, cfg: TrainConfig,
          stft_cfg: stft.StftConfig, out_dir) -> TrainResult:
    """Full optimization run over examples held as waveforms; writes logs and checkpoints."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model.astype(cfg.dtype)
    state = AdamState.init(model.params)
    rng = np.random.default_rng(cfg.seed)
    order_rng = np.random.default_rng(cfg.seed + 1)

    lr = cfg.lr_init
    history: list[float] = []
    best_val = np.inf
    step = 0
    step_seconds = []
    log_path = out_dir / "train_log.csv"
    with log_path.open("w", newline="") as fh:
        log = csv.writer(fh)
        log.writerow(["step", "epoch", "train_loss", "val_loss", "lr", "grad_norm"])
        for epoch in range(1, cfg.max_epochs + 1):
            order = order_rng.permutation(len(train_examples))
            for b0 in range(0, len(order), cfg.utterances_per_batch):
                batch = order[b0 : b0 + cfg.utterances_per_batch]
                t0 = time.perf_counter()
                loss, grads = batch_loss(
                    model, [prepare_utterance(train_examples[i], stft_cfg, cfg.dtype)
                            for i in batch],
                    stft_cfg, train=True, rng=rng, accumulate_grads=True)
                norm = adam_step(model.params, grads, state, lr, cfg.clip_norm)
                step_seconds.append(time.perf_counter() - t0)
                step += 1
                log.writerow([step, epoch, f"{loss:.6f}", "", f"{lr:.6g}", f"{norm:.6f}"])

            val_loss = np.nan
            if val_examples:
                # summed in example order, then over n: the bits of one batch_loss over all
                val_loss = sum(batch_loss(model, [prepare_utterance(ex, stft_cfg, cfg.dtype)],
                                          stft_cfg)[0]
                               for ex in val_examples) / len(val_examples)
                history.append(val_loss)
                lr = schedule_lr(history, lr_init=cfg.lr_init,
                                 patience=cfg.plateau_epochs, lr_min=cfg.lr_min)
            log.writerow([step, epoch, "", f"{val_loss:.6f}", f"{lr:.6g}", ""])
            fh.flush()

            model_mod.save_checkpoint(out_dir / "checkpoint_last", model, state, step)
            if val_examples and val_loss < best_val:
                best_val = val_loss
                model_mod.save_checkpoint(out_dir / "checkpoint_best", model, state, step)
    return TrainResult(epochs=cfg.max_epochs, steps=step, best_val=float(best_val),
                       log_path=log_path, step_seconds=step_seconds)


# -- overfit probe ------------------------------------------------------------------


def synthetic_dry_source(rng, n_samples: int, sample_rate: int) -> WaveBuffer:
    """Speech-like dry signal: amplitude-modulated noise with a random tilt."""
    noise = rng.standard_normal(n_samples)
    t = np.arange(n_samples) / sample_rate
    env = 0.2 + np.abs(np.sin(2.0 * np.pi * rng.uniform(1.0, 4.0) * t + rng.uniform(0, 2 * np.pi)))
    smooth = np.convolve(noise, np.ones(8) / 8.0, mode="same")
    mix = rng.uniform(0.2, 0.8)
    sig = env * (mix * noise + (1.0 - mix) * smooth)
    return WaveBuffer(sig / np.max(np.abs(sig)), sample_rate)


def build_probe_examples(n_examples: int, stft_cfg: stft.StftConfig, seed: int,
                         n_mics: int = 2, duration_samples: int | None = None,
                         rt60: float = 0.2):
    """Small simulated two-speaker mixtures for learning-loop verification.

    The segment length is snapped to the frame grid so the inverse STFT in
    the loss covers every sample.
    """
    if duration_samples is None:
        duration_samples = stft_cfg.sample_rate
    t_frames = stft_cfg.n_frames(duration_samples)
    out_len = stft_cfg.covered_len(t_frames)
    examples = []
    for i in range(n_examples):
        rng = np.random.default_rng([seed, i])
        scene = roomsim.sample_scene(rng, n_mics=n_mics)
        scene.rt60 = float(rt60)  # keep the probe's image count small
        s1 = synthetic_dry_source(rng, out_len, stft_cfg.sample_rate)
        s2 = synthetic_dry_source(rng, out_len, stft_cfg.sample_rate)
        overlap = rng.uniform(0.5, 1.0)
        examples.append(
            dataset.mix_pair(s1, s2, overlap, scene, out_len=out_len,
                             stft_cfg=stft_cfg, example_id=f"probe{i}")
        )
    return examples


def overfit_probe(model_cfg: model_mod.ModelConfig, examples, steps: int,
                  stft_cfg: stft.StftConfig, seed: int = 0, eval_every: int = 200):
    """Train on a fixed set of mixtures and track SI-SDR improvement on them.

    Each Adam step trains on one mixture, in a fixed round-robin order and
    without dropout, at `TrainConfig()`'s learning rate, clipping norm and
    precision; the learning rate stays fixed.  Returns (model, curve) where
    curve lists (step, mean improvement in dB) pairs including step 0 and
    every `eval_every` steps.  Raises NumericError if the loss diverges.
    """
    cfg = TrainConfig()
    model = model_mod.NarrowBandModel(model_cfg, seed=seed, dtype=cfg.dtype)
    state = AdamState.init(model.params)
    utterances = [prepare_utterance(ex, stft_cfg, cfg.dtype) for ex in examples]

    def improvement() -> float:
        vals = []
        for ex in examples:
            est, _, _ = model.separate(ex.mixture_wave, stft_cfg)
            vals.append(objective.evaluate(ex, est).improvement)
        return float(np.mean(vals))

    curve = [(0, improvement())]
    for step in range(1, steps + 1):
        u = utterances[(step - 1) % len(utterances)]
        loss, grads = batch_loss(model, [u], stft_cfg, accumulate_grads=True)
        if not np.isfinite(loss):
            raise NumericError(f"training diverged at step {step}")
        adam_step(model.params, grads, state, cfg.lr_init, cfg.clip_norm)
        if step % eval_every == 0 or step == steps:
            curve.append((step, improvement()))
    return model, curve
