"""The benchmark's three workloads: set-up, closed-loop operations, output checks.

Each workload drives nbsep only through the public functions its CLI
subcommand calls, from one caller that issues its next operation when the
previous one has returned.  Inputs are made from the workload seed.
"""

from __future__ import annotations

import csv
import json
import shutil
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from nbsep import audio, dataset, model, objective, roomsim, stft, trainer
from nbsep.autodiff import Tensor

SAMPLE_RATE = 16000
STFT = stft.StftConfig()

# -- simulate ------------------------------------------------------------------
# One RIR costs about 4.5 us per image per mic-speaker pair, and the image
# count of a paper-recipe scene (RT60 ~ U[0.1, 1.0], rooms 3-8 m) spans
# three decades, so mixtures drawn freely would make throughput a property
# of the seed.  Each panel instead holds one mixture per image-count stratum:
# the 1/6, 1/2 and 5/6 quantiles of the per-pair image count over 4000
# recipe scenes, within +/-5 %.  The seed still draws rooms, RT60s, array and
# speaker positions, sources and overlaps; it no longer draws the amount of
# work in a run.  The count is `reference_images`, a formula frozen here, so
# a change to nbsep's image order changes the work done on the same scenes
# instead of moving the selection to other scenes.
IMAGE_STRATA = (11_913, 90_663, 299_668)
IMAGE_BAND = 0.05
SIM_MICS = 8
SIM_SOURCES = 6
SIM_SOURCE_SECONDS = 5.0
MAX_SEED_SEARCH = 20_000

# -- train -----------------------------------------------------------------------
# The reduced model of the learning probe, two 2 s training mixtures per
# Adam step (one utterance per graph keeps peak memory near 2.8 GB) and one
# validation mixture so that the LR schedule and best-checkpoint saving run.
TRAIN_MODEL = model.ModelConfig(width=32, inner_width=64, blocks=2, conv_blocks=2,
                                heads=4, dropout=0.1)
TRAIN_SAMPLES = 2 * SAMPLE_RATE
TRAIN_UTTERANCES = 2
TRAIN_EPOCHS = 2
# Training and separation mixtures are simulated at set-up at a short RT60,
# in rooms held to the median image count of recipe rooms at that RT60, so
# that set-up time does not depend on the seed's room sizes.
SHORT_RT60 = 0.2
SHORT_RT60_IMAGES = 6_669

# -- separate ----------------------------------------------------------------------
SEPARATE_SAMPLES = SAMPLE_RATE // 2  # 0.5 s -> T = 30 frames
SEPARATE_CLIPS = 3
CHECK_BINS_PER_CLIP = 2
NARROWBAND_TOL = 1e-9


@dataclass
class RunResult:
    """What one measured phase did, as the end-to-end metrics need it."""

    items: int = 0  # mixtures, training utterances or separated clips
    busy_s: float = 0.0  # summed wall time of the timed operations
    rtf: list = field(default_factory=list)  # processing s per audio s, per op
    attempted: int = 0
    failed: int = 0
    n_ops: int = 0  # operations issued; a replay issues exactly this many
    info: dict = field(default_factory=dict)

    def wants_more(self, seconds, n_ops) -> bool:
        """Issue operations until `seconds` of operation time, or replay `n_ops`."""
        return self.n_ops < n_ops if n_ops is not None else self.busy_s < seconds


def _paused(recorder):
    return recorder.paused() if recorder is not None else nullcontext()


# -- output checks (pure functions, so a corrupted output can be fed in) --------


def check_mixture_files(manifest_path, expected_entries: int) -> list[str]:
    """Problems found in a generated corpus; empty when it is correct.

    Channel 0 of every mixture must equal target1 + target2 up to the
    rounding of three float32 WAV writes, and the manifest must list one
    entry per mixture.
    """
    manifest_path = Path(manifest_path)
    entries = [json.loads(line) for line in manifest_path.read_text().splitlines() if line]
    problems = []
    if len(entries) != expected_entries:
        problems.append(f"manifest has {len(entries)} entries, expected {expected_entries}")
    for entry in entries:
        base = manifest_path.parent
        _, mix = wavfile.read(base / entry["mixture"])
        targets = [wavfile.read(base / t)[1].astype(np.float64) for t in entry["targets"]]
        mix = np.atleast_2d(mix.T).astype(np.float64)
        if len(targets) != 2 or any(t.shape != mix[0].shape for t in targets):
            problems.append(f"{entry['id']}: target shapes do not match the mixture")
            continue
        ch0, total = mix[0], targets[0] + targets[1]
        eps32 = np.finfo(np.float32).eps
        tol = eps32 * (np.abs(ch0) + np.abs(targets[0]) + np.abs(targets[1])) + 1e-30
        if not np.all(np.abs(ch0 - total) <= tol):
            worst = float(np.max(np.abs(ch0 - total)))
            problems.append(f"{entry['id']}: channel 0 != target1 + target2 (max err {worst:.3g})")
    return problems


def check_losses(losses) -> list[str]:
    """Training losses of one job: all finite, the last below the first."""
    losses = [float(v) for v in losses]
    if not losses:
        return ["no training loss logged"]
    if not np.all(np.isfinite(losses)):
        return [f"non-finite loss in {losses}"]
    if not losses[-1] < losses[0]:
        return [f"final loss {losses[-1]:.4f} not below first {losses[0]:.4f}"]
    return []


def check_separation(estimates, n_samples: int, batched_rows: dict, single_rows: dict,
                     tol: float = NARROWBAND_TOL) -> list[str]:
    """Estimates finite and full length; batched bins equal single-bin forwards."""
    problems = []
    estimates = np.asarray(estimates)
    if estimates.ndim != 2 or estimates.shape[1] != n_samples:
        problems.append(f"estimates shape {estimates.shape}, mixture has {n_samples} samples")
    if not np.all(np.isfinite(estimates)):
        problems.append("non-finite estimate")
    for f, single in single_rows.items():
        err = float(np.max(np.abs(batched_rows[f] - single)))
        if not err <= tol * max(1.0, float(np.max(np.abs(single)))):
            problems.append(f"bin {f}: batched output differs from single-bin forward by {err:.3g}")
    return problems


# -- simulate ---------------------------------------------------------------------


def reference_images(scene) -> int:
    """Images per mic-speaker pair by the per-axis order ceil(c T60 / 2d) + 1.

    This is the selection rule of the benchmark, not nbsep's: it is the
    image order nbsep's `default_image_order` used when the strata were
    measured, and it stays fixed when nbsep's changes.
    """
    path = scene.sound_speed * max(scene.rt60, 1e-3)
    return int(np.prod([2 * (int(np.ceil(path / (2.0 * d))) + 1) + 1 for d in scene.room_dims]))


def image_census(scene, n_taps: int, sample_rate: int) -> tuple[int, int]:
    """Image sources simulate_rir sums, and how many arrive within the RIR.

    Uses nbsep's own `default_image_order`, so it counts the work the program
    does.  Counts every mic-speaker pair; an image is useful when its delay
    ``d / c * sample_rate`` falls inside the `n_taps` the RIR holds.
    """
    orders = roomsim.default_image_order(scene)
    limit = n_taps * scene.sound_speed / sample_rate
    total = useful = 0
    for src in scene.speaker_positions:
        axes = []
        for pos, length, order in zip(src, scene.room_dims, orders):
            cells = np.arange(-order, order + 1)
            axes.append(cells * length + np.where(cells % 2 == 0, pos, length - pos))
        for mic in scene.mic_positions:
            dx2, dy2, dz2 = ((c - m) ** 2 for c, m in zip(axes, mic))
            d2 = dx2[:, None, None] + dy2[None, :, None] + dz2[None, None, :]
            total += d2.size
            useful += int(np.count_nonzero(d2 < limit * limit))
    return total, useful


def in_stratum(scene, target: int) -> bool:
    return target * (1 - IMAGE_BAND) <= reference_images(scene) <= target * (1 + IMAGE_BAND)


def find_corpus_seed(rng, target: int) -> int:
    """A generate_dataset seed whose first scene has `target` images (+/- band).

    This predicts generate_dataset's scene: nbsep draws example `index` of
    corpus `seed` with ``sample_scene(default_rng([seed, index, 1]))``.
    `stratum_problem` re-reads the scene it wrote and reports a miss.
    """
    for _ in range(MAX_SEED_SEARCH):
        seed = int(rng.integers(0, 2**31 - 1))
        if in_stratum(roomsim.sample_scene(np.random.default_rng([seed, 0, 1]),
                                           n_mics=SIM_MICS), target):
            return seed
    raise RuntimeError(f"no scene with about {target} images in {MAX_SEED_SEARCH} draws")


def stratum_problem(manifest: Path, target: int) -> str | None:
    """A message when the scene generate_dataset wrote is outside its stratum."""
    entry = json.loads(Path(manifest).read_text().splitlines()[0])
    scene = roomsim.SceneConfig.load(Path(manifest).parent / entry["scene"])
    if in_stratum(scene, target):
        return None
    return (f"{entry['id']}: scene has {reference_images(scene)} reference images per pair, "
            f"stratum targets {target}; generate_dataset no longer draws the scene "
            f"find_corpus_seed predicts")


def short_rt60_examples(n: int, seed: int, n_samples: int) -> list:
    """`n` mixtures as trainer.build_probe_examples makes them, in held rooms.

    The segment is snapped to the frame grid; each scene is redrawn until
    its image count at SHORT_RT60 lies in the SHORT_RT60_IMAGES stratum.
    """
    out_len = STFT.covered_len(STFT.n_frames(n_samples))
    rng = np.random.default_rng([seed, 4])
    examples = []
    for i in range(n):
        for _ in range(MAX_SEED_SEARCH):
            scene = roomsim.sample_scene(rng, n_mics=SIM_MICS)
            scene.rt60 = SHORT_RT60
            if in_stratum(scene, SHORT_RT60_IMAGES):
                break
        else:
            raise RuntimeError(f"no room with about {SHORT_RT60_IMAGES} images at RT60 {SHORT_RT60}")
        s1, s2 = (trainer.synthetic_dry_source(rng, out_len, SAMPLE_RATE) for _ in range(2))
        examples.append(dataset.mix_pair(s1, s2, rng.uniform(0.5, 1.0), scene, out_len=out_len,
                                         stft_cfg=STFT, example_id=f"bench{i}"))
    return examples


class Simulate:
    name = "simulate"

    def setup(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 0])
        n = int(SIM_SOURCE_SECONDS * SAMPLE_RATE)
        paths = []
        for i in range(SIM_SOURCES):
            path = work / "sources" / f"src{i}.wav"
            audio.write_wav(path, trainer.synthetic_dry_source(rng, n, SAMPLE_RATE))
            paths.append(path)
        return {"sources": paths, "seed": seed, "work": work}

    def run(self, state, seconds=None, n_ops=None, recorder=None) -> RunResult:
        res = RunResult()
        work = state["work"]
        # warm-up: one cheap mixture, so first-use costs stay out of the samples
        with _paused(recorder):
            warm_seed = find_corpus_seed(np.random.default_rng([state["seed"], 3]), IMAGE_STRATA[0])
        t0 = time.perf_counter()
        dataset.generate_dataset(state["sources"], work / "warmup", n_examples=1,
                                 seed=warm_seed, n_mics=SIM_MICS, workers=1)
        res.info["warmup_s"] = time.perf_counter() - t0
        panel = 0
        while res.wants_more(seconds, n_ops):
            with _paused(recorder):
                rng = np.random.default_rng([state["seed"], 1, panel])
                seeds = [find_corpus_seed(rng, target) for target in IMAGE_STRATA]
            panel_s = 0.0
            for stratum, corpus_seed in enumerate(seeds):
                out = work / f"corpus_p{panel}_s{stratum}"
                t0 = time.perf_counter()
                manifest = dataset.generate_dataset(
                    state["sources"], out, n_examples=1, seed=corpus_seed, n_mics=SIM_MICS,
                    workers=1,
                )
                dt = time.perf_counter() - t0
                panel_s += dt
                res.info.setdefault("mixture_s", []).append(dt)
                res.items += 1
                res.attempted += 1
                with _paused(recorder):
                    problems = check_mixture_files(manifest, 1)
                    miss = stratum_problem(manifest, IMAGE_STRATA[stratum])
                    if miss:
                        problems.append(miss)
                    shutil.rmtree(out)
                if problems:
                    res.failed += 1
                    res.info.setdefault("problems", []).extend(problems)
            # one sample per panel: a single mixture's time is a property of its stratum
            res.busy_s += panel_s
            res.rtf.append(panel_s / (len(seeds) * dataset.DEFAULT_OUT_LEN / SAMPLE_RATE))
            res.n_ops += 1
            panel += 1
        return res


# -- train ------------------------------------------------------------------------


@contextmanager
def step_clock(marks: list):
    """Timestamp the start (batch_loss with gradients) and end (adam_step) of steps."""
    orig_loss, orig_adam = trainer.batch_loss, trainer.adam_step

    def batch_loss(*args, **kwargs):
        if kwargs.get("accumulate_grads"):
            marks.append(("start", time.perf_counter()))
        return orig_loss(*args, **kwargs)

    def adam_step(*args, **kwargs):
        out = orig_adam(*args, **kwargs)
        marks.append(("end", time.perf_counter()))
        return out

    trainer.batch_loss, trainer.adam_step = batch_loss, adam_step
    try:
        yield
    finally:
        trainer.batch_loss, trainer.adam_step = orig_loss, orig_adam


def read_train_losses(log_path) -> list[float]:
    with open(log_path, newline="") as fh:
        return [float(row["train_loss"]) for row in csv.DictReader(fh) if row["train_loss"]]


class Train:
    name = "train"

    def setup(self, seed: int, work: Path):
        examples = short_rt60_examples(TRAIN_UTTERANCES + 1, seed, TRAIN_SAMPLES)
        return {"train": examples[:TRAIN_UTTERANCES], "val": examples[TRAIN_UTTERANCES:],
                "seed": seed, "work": work}

    def run(self, state, seconds=None, n_ops=None, recorder=None) -> RunResult:
        res = RunResult()
        audio_per_step = sum(ex.mixture_wave.duration for ex in state["train"])
        losses_final = []
        # warm-up: one epoch, so first-touch page faults stay out of the samples
        t0 = time.perf_counter()
        self._job(state, -1, 1)
        res.info["warmup_s"] = time.perf_counter() - t0
        job = 0
        while res.wants_more(seconds, n_ops):
            marks: list = []
            with step_clock(marks):
                t0 = time.perf_counter()
                result = self._job(state, job, TRAIN_EPOCHS)
                res.busy_s += time.perf_counter() - t0
            starts = [t for kind, t in marks if kind == "start"]
            ends = [t for kind, t in marks if kind == "end"]
            res.rtf.extend((e - s) / audio_per_step for s, e in zip(starts, ends))
            losses = read_train_losses(result.log_path)
            shutil.rmtree(result.log_path.parent)
            res.items += result.steps * TRAIN_UTTERANCES
            res.attempted += result.steps
            problems = check_losses(losses)
            if len(losses) != result.steps:
                problems.append(f"{len(losses)} losses logged for {result.steps} steps")
            if problems:
                res.failed += 1
                res.info.setdefault("problems", []).extend(problems)
            losses_final.append(losses[-1] if losses else float("nan"))
            res.n_ops += 1
            job += 1
        res.info["loss_final"] = float(np.median(losses_final))
        res.info["step_s"] = [r * audio_per_step for r in res.rtf]
        return res

    @staticmethod
    def _job(state, job: int, epochs: int):
        """One `nbsep train` run from a fresh model; job -1 is the warm-up."""
        job_seed = state["seed"] * 1000 + job + 1
        net = model.NarrowBandModel(TRAIN_MODEL, seed=job_seed, dtype=np.float32)
        cfg = trainer.TrainConfig(utterances_per_batch=TRAIN_UTTERANCES, graph_chunk=1,
                                  max_epochs=epochs, seed=job_seed)
        return trainer.train(net, state["train"], state["val"], cfg, STFT,
                             state["work"] / f"job{job}")


# -- separate -------------------------------------------------------------------------


class Separate:
    name = "separate"

    def setup(self, seed: int, work: Path):
        clips = short_rt60_examples(SEPARATE_CLIPS, seed, SEPARATE_SAMPLES)
        ckpt = work / "checkpoint"
        model.save_checkpoint(ckpt, model.NarrowBandModel(model.ModelConfig(), seed=seed))
        return {"clips": clips, "checkpoint": ckpt, "seed": seed}

    def run(self, state, seconds=None, n_ops=None, recorder=None) -> RunResult:
        res = RunResult()
        t0 = time.perf_counter()
        net, _, _ = model.load_checkpoint(state["checkpoint"])
        res.info["load_checkpoint_s"] = time.perf_counter() - t0
        # warm-up: the first call is about 40 % slower than later ones
        t0 = time.perf_counter()
        net.separate(state["clips"][0].mixture_wave, STFT)
        res.info["first_call_s"] = time.perf_counter() - t0

        rng = np.random.default_rng([state["seed"], 2])
        clips = state["clips"]
        while res.wants_more(seconds, n_ops):
            clip = clips[res.n_ops % len(clips)]
            wave = clip.mixture_wave
            t0 = time.perf_counter()
            estimates, spectra, _ = net.separate(wave, STFT)
            t1 = time.perf_counter()
            objective.evaluate(clip, estimates, t1 - t0)
            res.busy_s += time.perf_counter() - t0
            res.rtf.append((t1 - t0) / wave.duration)
            res.items += 1
            res.attempted += 1
            res.n_ops += 1
            with _paused(recorder):
                problems = self._check(net, clip, estimates, spectra, rng)
            if problems:
                res.failed += 1
                res.info.setdefault("problems", []).extend(problems)
        return res

    @staticmethod
    def _check(net, clip, estimates, spectra, rng) -> list[str]:
        seqs, norm = dataset.normalize_spectrogram(stft.stft(clip.mixture_wave, STFT))
        bins = rng.choice(seqs.shape[0], size=CHECK_BINS_PER_CLIP, replace=False)
        batched, single = {}, {}
        for f in bins:
            row = spectra.data[:, f, :] / norm.scale[f]  # (N, T) complex
            interleaved = np.empty((2 * row.shape[0], row.shape[1]))
            interleaved[0::2], interleaved[1::2] = row.real, row.imag
            batched[int(f)] = interleaved
            single[int(f)] = net.forward(Tensor(seqs[f])).data
        return check_separation(estimates, clip.mixture_wave.n_samples, batched, single)


WORKLOADS = {w.name: w for w in (Simulate(), Train(), Separate())}
