"""Command-line entry point.

Subcommands: simulate, train, separate, eval, attn-export, grad-check, rtf.
Flags can also come from a JSON config file (--config); explicit flags win.
NBC_THREADS sets the worker threads (default: one per usable CPU) that
`simulate` generates mixtures on (or, for a single mixture, the
mic-speaker pairs of its RIR and its two speakers' convolutions) and that
`train`, `separate`, `eval`, `attn-export` and `rtf` run frequency chunks
on; `simulate`, `train`, `separate` and `rtf` print how they used them, and
the last three why they ran serially if they fell back.  Exit codes: 0 ok,
1 usage, 2 data error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import dataset, model as model_mod, objective, parallel, roomsim, stft, trainer
from .audio import WaveBuffer, read_wav, write_wav
from .autodiff import NumericError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -1e-5 is a (negative) number, not an unknown option
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


def _flag_type(convert, ok, want: str):
    """The argparse type of a flag value that `convert` reads and `ok` accepts."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {want}, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text}")
        return value
    return parse


_non_negative_int = _flag_type(int, lambda v: v >= 0, "an integer of at least 0")
_positive_int = _flag_type(int, lambda v: v >= 1, "an integer of at least 1")
_even_positive_int = _flag_type(int, lambda v: v >= 2 and v % 2 == 0,
                                "an even integer of at least 2")
_positive_finite = _flag_type(float, lambda v: np.isfinite(v) and v > 0,
                              "a positive finite number")
_rate = _flag_type(float, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="nbsep", description="Narrow-band multichannel speech separation")
    parser.add_argument("--config", help="JSON file of flag defaults (explicit flags win)")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices

    model_flags = argparse.ArgumentParser(add_help=False)
    model_flags.add_argument("--mics", type=_positive_int, default=None, help="input channels M")
    model_flags.add_argument("--speakers", type=_positive_int, default=None)
    model_flags.add_argument("--width", type=_positive_int, default=None, help="block width H1")
    model_flags.add_argument("--inner-width", type=_positive_int, default=None,
                             help="inner width H2")
    model_flags.add_argument("--blocks", type=_non_negative_int, default=None,
                             help="Conformer blocks L1")
    model_flags.add_argument("--conv-blocks", type=_non_negative_int, default=None,
                             help="group-conv sub-blocks per block L2")
    model_flags.add_argument("--heads", type=_positive_int, default=None)

    stft_flags = argparse.ArgumentParser(add_help=False)
    stft_flags.add_argument("--sample-rate", type=_positive_int, default=16000)
    stft_flags.add_argument("--window-len", type=_even_positive_int, default=512)
    stft_flags.add_argument("--hop", type=_positive_int, default=256,
                            help="at most --window-len")

    p = sub.add_parser("simulate", parents=[stft_flags], help="generate a mixture corpus")
    p.add_argument("--sources", required=True, help="directory of mono WAV files")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=_positive_int, required=True, help="number of mixtures")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--mics", type=_positive_int, default=8)
    p.add_argument("--duration", type=_positive_finite, default=4.0,
                   help="mixture length in seconds")
    p.add_argument("--max-order", type=_non_negative_int, default=None,
                   help="images per axis (default: from RT60)")

    p = sub.add_parser("train", parents=[model_flags, stft_flags], help="train a separator")
    p.add_argument("--manifest", required=True)
    p.add_argument("--val-manifest", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=_non_negative_int, default=10)
    p.add_argument("--batch", type=_positive_int, default=16, help="utterances per mini-batch")
    p.add_argument("--lr", type=_positive_finite, default=1e-3)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--dropout", type=_rate, default=0.1)
    p.add_argument("--precision", choices=["float32", "float64"], default="float32")

    p = sub.add_parser("separate", parents=[stft_flags], help="separate a mixture WAV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="multichannel mixture WAV")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", parents=[stft_flags], help="metrics over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--estimates-dir", default=None,
                   help="evaluate separated WAVs from this directory instead of a model")
    p.add_argument("--estimates-from-targets", action="store_true",
                   help="oracle mode: score the targets against themselves")
    p.add_argument("--out", required=True, help="metrics CSV path")

    p = sub.add_parser("attn-export", parents=[stft_flags],
                       help="export frequency-averaged attention maps")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="multichannel mixture WAV")
    p.add_argument("--out", required=True)

    p = sub.add_parser("grad-check", help="verify gradients against finite differences")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--step", type=_positive_finite, default=1e-5)

    p = sub.add_parser("rtf", parents=[stft_flags], help="measure the real-time factor")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--duration", type=_positive_finite, default=4.0)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    return parser


def _apply_config_file(parser, argv, args):
    if not args.config:
        return args
    try:
        overrides = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {args.config}")
    except json.JSONDecodeError as e:
        raise UsageError(f"config file {args.config}: {e}")
    if not isinstance(overrides, dict):
        raise UsageError("config file must hold a JSON object of flag values")
    overrides = {k.replace("-", "_"): v for k, v in overrides.items()}
    # a typed flag's value goes in as text, so argparse checks it as on the command line
    typed = {a.dest for a in parser.subcommands[args.command]._actions if a.type is not None}
    overrides = {k: str(v) if k in typed and v is not None else v for k, v in overrides.items()}
    # the keys must be flags of the chosen subcommand, not `command` or `config`
    unknown = set(overrides) - (set(vars(args)) - {"command", "config"})
    if unknown:
        raise UsageError(f"config file keys not recognized: {', '.join(sorted(unknown))}")
    # as sub-parser defaults, the config loses to every flag given, however spelled
    parser.subcommands[args.command].set_defaults(**overrides)
    return parser.parse_args(argv)


def _stft_config(args) -> stft.StftConfig:
    if args.hop > args.window_len:
        raise UsageError(f"--hop must be at most --window-len ({args.window_len}), "
                         f"got {args.hop}")
    return stft.StftConfig(window_len=args.window_len, hop=args.hop,
                           sample_rate=args.sample_rate)


def _train_config(args) -> trainer.TrainConfig:
    # an --lr below the schedule's default floor lowers the floor with it
    return trainer.TrainConfig(
        utterances_per_batch=args.batch, lr_init=args.lr,
        lr_min=min(trainer.TrainConfig.lr_min, args.lr), max_epochs=args.epochs,
        seed=args.seed, precision=args.precision,
    )


def _duration_samples(args, cfg: stft.StftConfig) -> int:
    """--duration in samples, a usage error unless it spans one STFT window."""
    n_samples = int(round(args.duration * cfg.sample_rate))
    if n_samples < cfg.window_len:
        raise UsageError(f"--duration must be at least one STFT window ({cfg.window_len} "
                         f"samples), got {args.duration}")
    return n_samples


def _model_config(args, n_mics: int, n_speakers: int) -> model_mod.ModelConfig:
    fields = ("width", "inner_width", "blocks", "conv_blocks", "heads", "dropout")
    kwargs = {f: v for f in fields if (v := getattr(args, f, None)) is not None}
    return model_mod.ModelConfig(in_channels=n_mics, speakers=n_speakers, **kwargs)


# -- subcommands -----------------------------------------------------------------


def _cmd_simulate(args) -> int:
    cfg = _stft_config(args)
    out_len = _duration_samples(args, cfg)
    src_dir = Path(args.sources)
    wavs = sorted(src_dir.glob("*.wav"))
    if len(wavs) < 2:
        raise FileNotFoundError(f"need at least two WAV files in {src_dir}")
    workers = parallel.worker_count()
    t0 = time.perf_counter()
    manifest = dataset.generate_dataset(
        wavs, args.out, args.n, args.seed, stft_cfg=cfg, out_len=out_len,
        n_mics=args.mics, max_order=args.max_order, workers=workers,
    )
    wall = time.perf_counter() - t0
    entries = dataset.read_manifest(manifest)
    images = sum(e["images"] * args.mics * len(e["targets"]) for e in entries)
    at_once = min(workers, args.n)
    # pools do not nest: mixtures made at once each simulate their RIR on one thread
    rir_threads = max(roomsim.rir_threads(e["images"]) for e in entries) if at_once == 1 else 1
    print(f"wrote {args.n} examples, manifest {manifest}, {wall:.3f} s, "
          f"{images / wall:.4g} images/s, examples at once {at_once}, "
          f"RIR threads {rir_threads}")
    return 0


def _workers_note(net) -> str:
    workers, why = net.chunk_workers()
    return f"workers {workers}" + (f", serial: {why}" if why else "")


def _load_examples(manifest_path, cfg):
    base = Path(manifest_path).parent
    entries = dataset.read_manifest(manifest_path)
    if not entries:
        raise ValueError(f"manifest {manifest_path} has no entries")
    return [dataset.load_example(e, base, cfg) for e in entries]


def _cmd_train(args) -> int:
    cfg = _stft_config(args)
    tcfg = _train_config(args)
    _model_config(args, 1, 1)  # reject bad model flags before any data is read
    train_examples = _load_examples(args.manifest, cfg)
    val_examples = _load_examples(args.val_manifest, cfg) if args.val_manifest else []

    def counts(ex):
        return {"channels": ex.mixture_wave.n_channels, "targets": ex.n_speakers}

    first = train_examples[0]
    corpus = counts(first)
    for flag, given, unit in (("--mics", args.mics, "channels"),
                              ("--speakers", args.speakers, "targets")):
        if given is not None and given != corpus[unit]:
            raise UsageError(f"{flag} {given} does not match the {corpus[unit]} {unit} "
                             f"of the corpus {args.manifest}")
    for kind, manifest, examples in (("training", args.manifest, train_examples),
                                     ("validation", args.val_manifest, val_examples)):
        for ex in examples:
            for unit, n in counts(ex).items():
                if n != corpus[unit]:
                    raise ValueError(
                        f"example {ex.example_id} of the {kind} corpus {manifest} has {n} "
                        f"{unit}, example {first.example_id} of the training corpus "
                        f"{args.manifest} has {corpus[unit]}")
    mcfg = _model_config(args, corpus["channels"], corpus["targets"])
    net = model_mod.NarrowBandModel(mcfg, seed=args.seed, dtype=tcfg.dtype)
    print(f"model parameters: {model_mod.parameter_count(net.cfg)} ({_workers_note(net)})")
    result = trainer.train(net, train_examples, val_examples, tcfg, cfg, args.out)
    step_s = float(np.median(result.step_seconds)) if result.step_seconds else 0.0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"trained {result.steps} steps over {result.epochs} epochs, "
          f"best val loss {result.best_val:.3f}; median step {step_s:.3f} s, "
          f"peak RSS {peak_mb:.0f} MB; log at {result.log_path}")
    return 0


def _cmd_separate(args) -> int:
    cfg = _stft_config(args)
    net, _, _ = model_mod.load_checkpoint(args.checkpoint)
    mixture = read_wav(args.input, expect_rate=cfg.sample_rate)
    estimates, _, seconds = net.separate(mixture, cfg)
    out_dir = Path(args.out)
    stem = Path(args.input).stem
    for n in range(estimates.shape[0]):
        write_wav(out_dir / f"{stem}_spk{n + 1}.wav",
                  WaveBuffer(estimates[n], cfg.sample_rate))
    print(f"separated {estimates.shape[0]} speakers in {seconds:.2f} s "
          f"({_workers_note(net)}) -> {out_dir}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _stft_config(args)
    modes = sum(bool(x) for x in
                (args.checkpoint, args.estimates_dir, args.estimates_from_targets))
    if modes != 1:
        raise UsageError("eval needs exactly one of --checkpoint, --estimates-dir, "
                         "--estimates-from-targets")
    examples = _load_examples(args.manifest, cfg)
    net = None
    if args.checkpoint:
        net, _, _ = model_mod.load_checkpoint(args.checkpoint)

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    n_spk = examples[0].n_speakers
    records = []
    for ex in examples:
        if args.estimates_from_targets:
            estimates, seconds = ex.target_waves.data, None
        elif args.estimates_dir:
            est = [read_wav(Path(args.estimates_dir) / f"{ex.example_id}_mix_spk{n + 1}.wav",
                            expect_rate=cfg.sample_rate).data[0]
                   for n in range(n_spk)]
            estimates, seconds = np.stack(est), None
        else:
            estimates, _, seconds = net.separate(ex.mixture_wave, cfg)
        records.append(objective.evaluate(ex, estimates, processing_seconds=seconds))

    with out_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["example_id"] + [f"sisdr_spk{n + 1}" for n in range(n_spk)]
                        + ["mean_sisdr", "improvement", "rtf"])
        for rec in records:
            writer.writerow(rec.csv_row())
    mean = float(np.mean([r.mean_sdr for r in records]))
    imp = float(np.mean([r.improvement for r in records]))
    print(f"mean SI-SDR {mean:.2f} dB, improvement {imp:.2f} dB over {len(records)} examples; "
          f"metrics at {out_path}")
    return 0


def write_pgm(path, img: np.ndarray) -> None:
    """8-bit binary PGM, each map scaled so its maximum maps to 255."""
    peak = float(img.max())
    scaled = np.zeros_like(img) if peak <= 0 else img / peak
    data = np.round(scaled * 255.0).astype(np.uint8)
    h, w = data.shape
    Path(path).write_bytes(b"P5\n%d %d\n255\n" % (w, h) + data.tobytes())


def export_attention_maps(maps: np.ndarray, out_dir) -> list:
    """Write one CSV and one PGM per (block, head); returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    blocks, heads = maps.shape[0], maps.shape[1]
    for i in range(blocks):
        for h in range(heads):
            base = out_dir / f"attn_block{i + 1}_head{h + 1}"
            np.savetxt(base.with_suffix(".csv"), maps[i, h], delimiter=",", fmt="%.8e")
            write_pgm(base.with_suffix(".pgm"), maps[i, h])
            paths.append(base)
    return paths


def _cmd_attn_export(args) -> int:
    cfg = _stft_config(args)
    net, _, _ = model_mod.load_checkpoint(args.checkpoint)
    mixture = read_wav(args.input, expect_rate=cfg.sample_rate)
    maps = net.attention_maps(mixture, cfg)
    export_attention_maps(maps, args.out)
    print(f"exported {maps.shape[0] * maps.shape[1]} attention maps "
          f"({maps.shape[0]} blocks x {maps.shape[1]} heads, {maps.shape[2]} frames) -> {args.out}")
    return 0


def _cmd_grad_check(args) -> int:
    from . import gradcheck_suite

    report = gradcheck_suite.run_battery(seed=args.seed, step=args.step)
    worst = 0.0
    for name, err in report:
        print(f"{name:40s} max rel err {err:.3e}")
        worst = max(worst, err)
    if worst >= 1e-5:
        print(f"FAIL: worst relative error {worst:.3e} >= 1e-5")
        raise NumericError("gradient check failed")
    print(f"OK: worst relative error {worst:.3e}")
    return 0


def _cmd_rtf(args) -> int:
    cfg = _stft_config(args)
    n_samples = _duration_samples(args, cfg)
    net, _, _ = model_mod.load_checkpoint(args.checkpoint)
    rng = np.random.default_rng(args.seed)
    mixture = WaveBuffer(rng.standard_normal((net.cfg.in_channels, n_samples)) * 0.1,
                         cfg.sample_rate)
    faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    net.separate(mixture, cfg)
    elapsed = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_mb = usage.ru_maxrss / 1024  # KiB on Linux
    print(f"RTF {elapsed / args.duration:.3f} ({elapsed:.2f} s for {args.duration:.1f} s audio), "
          f"peak RSS {peak_mb:.0f} MB, minor page faults {usage.ru_minflt - faults0}, "
          f"{_workers_note(net)}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "train": _cmd_train,
    "separate": _cmd_separate,
    "eval": _cmd_eval,
    "attn-export": _cmd_attn_export,
    "grad-check": _cmd_grad_check,
    "rtf": _cmd_rtf,
}


def run(argv) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args = _apply_config_file(parser, argv, args)
    try:  # a malformed NBC_THREADS is bad input: report it before any data is read
        parallel.worker_count()
    except ValueError as e:
        raise UsageError(str(e)) from None
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return run(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except (FileNotFoundError, ValueError, KeyError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
