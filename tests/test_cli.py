import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nbsep import dataset, objective, parallel, roomsim, stft
from nbsep import model as model_mod
from nbsep.audio import WaveBuffer, read_wav, write_wav
from nbsep.cli import _build_parser, _train_config, export_attention_maps, main, write_pgm
from nbsep.model import ModelConfig, NarrowBandModel, load_checkpoint, save_checkpoint

CFG8K_ARGS = ["--sample-rate", "8000"]


def make_sources(tmp_path, n=3, rate=8000, n_samples=12000):
    rng = np.random.default_rng(99)
    src = tmp_path / "sources"
    src.mkdir(exist_ok=True)
    t = np.arange(n_samples) / rate
    for i in range(n):
        sig = np.sin(2 * np.pi * (150 + 40 * i) * t) * (0.5 + 0.4 * np.sin(2 * np.pi * 2 * t))
        sig += 0.05 * rng.standard_normal(n_samples)
        write_wav(src / f"src{i}.wav", WaveBuffer(sig / np.abs(sig).max(), rate))
    return src


def tiny_checkpoint(tmp_path, mics=2):
    cfg = ModelConfig(in_channels=mics, speakers=2, width=16, inner_width=32,
                      blocks=1, conv_blocks=1, heads=2, dropout=0.0)
    net = NarrowBandModel(cfg, seed=0, dtype=np.float32)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(ckpt, net, step=0)
    return ckpt


def simulate(tmp_path, out_name="data", n=2, seed=7, mics=2):
    src = make_sources(tmp_path)
    out = tmp_path / out_name
    rc = main(["simulate", "--sources", str(src), "--out", str(out), "--n", str(n),
               "--seed", str(seed), "--mics", str(mics), "--duration", "1.024",
               "--max-order", "1", *CFG8K_ARGS])
    assert rc == 0
    return out


def test_simulate_idempotent(tmp_path, capsys):
    out1 = simulate(tmp_path, "a")
    out2 = simulate(tmp_path, "b")
    # 2 examples x 27 order-1 images x 2 mics x 2 speakers = 216 images
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    m = re.fullmatch(r"wrote 2 examples, manifest .*manifest\.jsonl, (\S+) s, (\S+) images/s, "
                     r"examples at once \d+, RIR threads \d+", summary)
    assert m, summary
    wall, rate = float(m.group(1)), float(m.group(2))
    # the wall time is printed to the millisecond, the rate to 4 digits
    assert abs(rate * wall - 216) <= rate * 0.0005 + 216 * 1e-3
    files1 = sorted(out1.iterdir())
    files2 = sorted(out2.iterdir())
    assert [f.name for f in files1] == [f.name for f in files2]
    for f1, f2 in zip(files1, files2):
        assert f1.read_bytes() == f2.read_bytes(), f1.name


@pytest.mark.parametrize("n,min_images,line", [
    (2, 0, "examples at once 2, RIR threads 1"),
    (1, 0, "examples at once 1, RIR threads 2"),
    (1, 28, "examples at once 1, RIR threads 1"),  # 27 images a pair
])
def test_simulate_prints_how_it_used_the_workers(tmp_path, capsys, monkeypatch, n, min_images,
                                                 line):
    if parallel.usable_cpus() < 2:
        pytest.skip("needs 2 usable CPUs")
    monkeypatch.setenv("NBC_THREADS", "2")
    monkeypatch.setattr(roomsim, "PAIR_THREADS_MIN_IMAGES", min_images)
    simulate(tmp_path, n=n)
    assert capsys.readouterr().out.rstrip().endswith(f"images/s, {line}")


@pytest.mark.parametrize("flag,value", [
    ("--duration", "inf"), ("--duration", "-1"), ("--duration", "nan"), ("--duration", "0"),
    ("--duration", "0.01"), ("--mics", "0"), ("--mics", "-2"),
])
def test_simulate_rejects_a_bad_duration_or_mic_count(tmp_path, capsys, flag, value):
    # checked before the sources are looked at: a missing directory would exit 2
    rc = main(["simulate", "--sources", str(tmp_path / "absent"), "--out", str(tmp_path / "data"),
               "--n", "1", flag, value, *CFG8K_ARGS])
    assert rc == 1
    err = capsys.readouterr().err
    assert re.search(f"{flag}:? must be .*got {re.escape(value)}", err), err
    assert "Traceback" not in err and not (tmp_path / "data").exists()


def test_simulate_rejects_a_sample_rate_below_one(tmp_path, capsys):
    rc = main(["simulate", "--sources", str(tmp_path / "absent"), "--out", str(tmp_path / "data"),
               "--n", "1", "--sample-rate", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "usage error: argument --sample-rate: must be an integer of at least 1, got 0" in err
    assert "Traceback" not in err and not (tmp_path / "data").exists()


@pytest.mark.parametrize("n", ["0", "-3"])
def test_simulate_rejects_an_empty_corpus(tmp_path, capsys, n):
    src = make_sources(tmp_path)
    rc = main(["simulate", "--sources", str(src), "--out", str(tmp_path / "data"),
               "--n", n, *CFG8K_ARGS])
    assert rc == 1
    assert f"argument --n: must be an integer of at least 1, got {n}" in capsys.readouterr().err
    assert not (tmp_path / "data").exists()


def test_simulate_rejects_a_stereo_source_naming_it(tmp_path, capsys):
    src = make_sources(tmp_path)
    for path in src.glob("*.wav"):
        mono = read_wav(path).data
        write_wav(path, WaveBuffer(np.concatenate([mono, mono]), 8000))
    rc = main(["simulate", "--sources", str(src), "--out", str(tmp_path / "data"),
               "--n", "2", "--max-order", "1", "--duration", "1.024", *CFG8K_ARGS])
    assert rc == 2
    err = capsys.readouterr().err
    assert re.search(r"src\d\.wav: 2 channels, a source must be mono", err), err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag,value", [("--max-order", "-1"), ("--seed", "-5")])
def test_simulate_rejects_a_negative_seed_or_max_order_before_writing(tmp_path, capsys, flag,
                                                                      value):
    src = make_sources(tmp_path)
    rc = main(["simulate", "--sources", str(src), "--out", str(tmp_path / "data"),
               "--n", "1", flag, value, *CFG8K_ARGS])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: must be an integer of at least 0, got {value}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "data").exists()  # no manifest.jsonl.partial either


def test_separate_output_contract(tmp_path, capsys, monkeypatch):
    out = simulate(tmp_path)
    ckpt = tiny_checkpoint(tmp_path)
    entry = dataset.read_manifest(out / "manifest.jsonl")[0]
    sep_dir = tmp_path / "sep"
    monkeypatch.setenv("NBC_THREADS", "1")
    capsys.readouterr()
    rc = main(["separate", "--checkpoint", str(ckpt), "--input", str(out / entry["mixture"]),
               "--out", str(sep_dir), *CFG8K_ARGS])
    assert rc == 0
    assert "(workers 1) ->" in capsys.readouterr().out
    wavs = sorted(sep_dir.glob("*.wav"))
    assert len(wavs) == 2
    mixture = read_wav(out / entry["mixture"])
    for w in wavs:
        est = read_wav(w, expect_rate=8000)
        assert est.n_samples == mixture.n_samples


def test_eval_with_targets_as_estimates_hits_clamp(tmp_path):
    out = simulate(tmp_path)
    metrics = tmp_path / "metrics.csv"
    rc = main(["eval", "--manifest", str(out / "manifest.jsonl"),
               "--estimates-from-targets", "--out", str(metrics), *CFG8K_ARGS])
    assert rc == 0
    rows = metrics.read_text().strip().splitlines()
    assert rows[0] == "example_id,sisdr_spk1,sisdr_spk2,mean_sisdr,improvement,rtf"
    for row in rows[1:]:
        fields = row.split(",")
        assert float(fields[1]) == 60.0
        assert float(fields[2]) == 60.0
        assert float(fields[3]) == 60.0


def test_separate_then_eval_round_trip(tmp_path):
    out = simulate(tmp_path)
    ckpt = tiny_checkpoint(tmp_path)
    entries = dataset.read_manifest(out / "manifest.jsonl")
    sep_dir = tmp_path / "sep"
    for entry in entries:
        rc = main(["separate", "--checkpoint", str(ckpt),
                   "--input", str(out / entry["mixture"]),
                   "--out", str(sep_dir), *CFG8K_ARGS])
        assert rc == 0
    metrics = tmp_path / "metrics.csv"
    rc = main(["eval", "--manifest", str(out / "manifest.jsonl"),
               "--estimates-dir", str(sep_dir), "--out", str(metrics), *CFG8K_ARGS])
    assert rc == 0

    # serialized round trip agrees with the in-process metrics to float32 WAV error
    cfg = stft.StftConfig(sample_rate=8000)
    net, _, _ = load_checkpoint(ckpt)
    rows = metrics.read_text().strip().splitlines()[1:]
    for entry, row in zip(entries, rows):
        ex = dataset.load_example(entry, out, cfg)
        est, _, _ = net.separate(ex.mixture_wave, cfg)
        rec = objective.evaluate(ex, est)
        got_mean = float(row.split(",")[3])
        assert abs(got_mean - rec.mean_sdr) < 1e-3


def test_train_subcommand_smoke(tmp_path, capsys, monkeypatch):
    out = simulate(tmp_path, n=2)
    run_dir = tmp_path / "run"
    monkeypatch.setenv("NBC_THREADS", "2")
    monkeypatch.setattr(parallel, "_OPENBLAS", None)
    capsys.readouterr()
    rc = main(["train", "--manifest", str(out / "manifest.jsonl"),
               "--val-manifest", str(out / "manifest.jsonl"),
               "--out", str(run_dir), "--epochs", "1", "--batch", "2",
               "--width", "16", "--inner-width", "32", "--blocks", "1",
               "--conv-blocks", "1", "--heads", "2", "--dropout", "0.0",
               "--seed", "0", *CFG8K_ARGS])
    assert rc == 0
    printed = capsys.readouterr().out
    assert re.search(r"^model parameters: \d+ \(workers 1, serial: OpenBLAS thread control "
                     r"not found\)$", printed, re.M)
    # the closing line reports the median step time and the process's peak RSS
    done = re.search(r"^trained 1 steps over 1 epochs, best val loss -?[\d.]+; "
                     r"median step ([\d.]+) s, peak RSS (\d+) MB; log at (.+)$", printed, re.M)
    assert done, printed
    assert float(done[1]) > 0 and int(done[2]) > 0
    assert done[3] == str(run_dir / "train_log.csv")
    assert (run_dir / "train_log.csv").exists()
    net, opt, step = load_checkpoint(run_dir / "checkpoint_last")
    assert step == opt["step"] == 1 and net.cfg.width == 16 and net.cfg.in_channels == 2


def test_attn_export(tmp_path):
    out = simulate(tmp_path)
    ckpt = tiny_checkpoint(tmp_path)
    entry = dataset.read_manifest(out / "manifest.jsonl")[0]
    maps_dir = tmp_path / "maps"
    rc = main(["attn-export", "--checkpoint", str(ckpt),
               "--input", str(out / entry["mixture"]),
               "--out", str(maps_dir), *CFG8K_ARGS])
    assert rc == 0
    csvs = sorted(maps_dir.glob("*.csv"))
    pgms = sorted(maps_dir.glob("*.pgm"))
    assert len(csvs) == 2 and len(pgms) == 2  # 1 block x 2 heads
    rows = np.loadtxt(csvs[0], delimiter=",")
    np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-6)
    header = pgms[0].read_bytes()[:2]
    assert header == b"P5"



@pytest.mark.parametrize("command", ["separate", "attn-export", "eval"])
def test_a_mixture_with_other_channels_than_the_model_is_a_data_error(tmp_path, capsys,
                                                                       monkeypatch, command):
    out = simulate(tmp_path)  # 2 channels
    ckpt = tiny_checkpoint(tmp_path, mics=3)
    entry = dataset.read_manifest(out / "manifest.jsonl")[0]

    def no_stft(*_):
        raise AssertionError("stft.stft called before the channel counts were compared")

    monkeypatch.setattr(stft, "stft", no_stft)
    if command == "eval":
        args = ["eval", "--manifest", str(out / "manifest.jsonl"), "--checkpoint", str(ckpt)]
    else:
        args = [command, "--checkpoint", str(ckpt), "--input", str(out / entry["mixture"])]
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "out"), *CFG8K_ARGS]) == 2
    err = capsys.readouterr().err
    assert "error: mixture has 2 channels, model expects 3" in err and "Traceback" not in err


def test_separate_names_the_length_of_a_too_short_input(tmp_path, capsys):
    ckpt = tiny_checkpoint(tmp_path)
    wav = tmp_path / "short.wav"
    write_wav(wav, WaveBuffer(np.random.default_rng(5).uniform(-0.5, 0.5, (2, 100)), 8000))
    capsys.readouterr()
    rc = main(["separate", "--checkpoint", str(ckpt), "--input", str(wav),
               "--out", str(tmp_path / "sep"), *CFG8K_ARGS])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: input too short: 100 samples, fewer than one 512-sample STFT window" in err
    assert "Traceback" not in err and not (tmp_path / "sep").exists()

def test_rtf_reports(tmp_path, capsys):
    ckpt = tiny_checkpoint(tmp_path)
    rc = main(["rtf", "--checkpoint", str(ckpt), "--duration", "0.5", *CFG8K_ARGS])
    assert rc == 0
    out = capsys.readouterr().out
    assert "RTF" in out
    peak = re.search(r"peak RSS (\d+) MB, minor page faults (\d+), workers (\d+)$", out)
    assert peak and int(peak.group(1)) > 0
    assert int(peak.group(3)) == parallel.worker_count()


def test_rtf_names_why_it_ran_serially(tmp_path, capsys, monkeypatch):
    ckpt = tiny_checkpoint(tmp_path)
    monkeypatch.setenv("NBC_THREADS", "2")
    monkeypatch.setattr(parallel, "_OPENBLAS", None)
    assert main(["rtf", "--checkpoint", str(ckpt), "--duration", "0.5", *CFG8K_ARGS]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("workers 1, serial: OpenBLAS thread control not found")


@pytest.mark.parametrize("duration", ["-1", "0", "nan", "inf"])
def test_rtf_rejects_a_duration_that_is_not_positive(tmp_path, capsys, duration):
    # checked before the checkpoint is read: a missing one would exit 2
    rc = main(["rtf", "--checkpoint", str(tmp_path / "nope"), "--duration", duration])
    assert rc == 1
    assert "argument --duration: must be a positive finite number" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "train", "grad-check", "rtf"])
@pytest.mark.parametrize("seed,message", [("-5", "must be an integer of at least 0, got -5"),
                                          ("1.5", "expected an integer of at least 0, got '1.5'")])
def test_a_seed_that_is_not_a_non_negative_integer_is_a_usage_error(tmp_path, capsys, command,
                                                                    seed, message):
    # the data and the checkpoint named do not exist: the flag is rejected before either is read
    required = {"simulate": ["--sources", str(tmp_path), "--out", str(tmp_path / "o"),
                             "--n", "1"],
                "train": ["--manifest", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path)],
                "grad-check": [],
                "rtf": ["--checkpoint", str(tmp_path / "nope")]}[command]
    assert main([command, *required, "--seed", seed]) == 1
    err = capsys.readouterr().err
    assert f"usage error: argument --seed: {message}" in err and "Traceback" not in err


@pytest.mark.parametrize("step", ["0", "-0.5", "nan", "inf", "tiny", "-1e-5"])
def test_grad_check_step_must_be_a_positive_finite_number(capsys, step):
    assert main(["grad-check", "--step", step]) == 1
    err = capsys.readouterr().err
    assert "usage error: argument --step: " in err and "Traceback" not in err


@pytest.mark.parametrize("flag,value,message", [
    ("--max-order", "1.5", "expected an integer of at least 0, got '1.5'"),
    ("--max-order", "two", "expected an integer of at least 0, got 'two'"),
    ("--step", "tiny", "expected a positive finite number, got 'tiny'"),
    ("--step", "-1e-5", "must be a positive finite number, got -1e-5"),
])
def test_a_flag_value_of_the_wrong_kind_says_what_was_expected(tmp_path, capsys, flag, value,
                                                               message):
    argv = (["grad-check"] if flag == "--step" else
            ["simulate", "--sources", str(tmp_path), "--out", str(tmp_path / "o"), "--n", "1"])
    assert main([*argv, flag, value]) == 1
    err = capsys.readouterr().err
    assert f"usage error: argument {flag}: {message}" in err and "Traceback" not in err
    assert "_non_negative_int" not in err and "_positive_finite" not in err


def test_a_config_file_seed_is_checked_like_the_flag(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"seed": -5}))
    assert main(["--config", str(cfgfile), "grad-check"]) == 1
    assert "argument --seed: must be an integer of at least 0, got -5" in capsys.readouterr().err


@pytest.mark.parametrize("checkpoint", ["directory", "half_length"])
def test_an_unreadable_checkpoint_is_a_data_error(tmp_path, capsys, checkpoint):
    ckpt = tiny_checkpoint(tmp_path)
    bad = tmp_path / checkpoint
    if checkpoint == "directory":  # the layout of older checkpoints
        bad.mkdir()
        (bad / "manifest.json").write_text("{}")
    else:
        data = ckpt.read_bytes()
        bad.write_bytes(data[: len(data) // 2])
    wav = tmp_path / "mix.wav"
    write_wav(wav, WaveBuffer(np.zeros((2, 4000)), 8000))
    assert main(["separate", "--checkpoint", str(bad), "--input", str(wav),
                 "--out", str(tmp_path / "sep"), *CFG8K_ARGS]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad} is not a readable checkpoint" in err and "Traceback" not in err


def test_a_checkpoint_without_a_parameter_is_a_data_error_naming_it(tmp_path, capsys):
    bad = tmp_path / "bad.npz"
    with np.load(tiny_checkpoint(tmp_path)) as z:
        np.savez(bad, **{k: z[k] for k in z.files if k != "params/block0.ff_out.w"})
    wav = tmp_path / "mix.wav"
    write_wav(wav, WaveBuffer(np.zeros((2, 4000)), 8000))
    assert main(["separate", "--checkpoint", str(bad), "--input", str(wav),
                 "--out", str(tmp_path / "sep"), *CFG8K_ARGS]) == 2
    err = capsys.readouterr().err
    assert f"error: {bad} lacks entry params/block0.ff_out.w" in err and "Traceback" not in err
    assert not (tmp_path / "sep").exists()


@pytest.mark.parametrize("flags,code,message", [
    pytest.param(["--graph-chunk", "1"], 1, "unrecognized arguments: --graph-chunk",
                 id="graph-chunk"),
    pytest.param(["--batch", "0"], 1, "argument --batch: must be an integer of at least 1, got 0",
                 id="batch"),
    pytest.param(["--epochs", "-1"], 1,
                 "argument --epochs: must be an integer of at least 0, got -1", id="epochs"),
    pytest.param(["--lr", "0"], 1, "argument --lr: must be a positive finite number, got 0",
                 id="lr-zero"),
    pytest.param(["--lr", "nan"], 1, "argument --lr: must be a positive finite number, got nan",
                 id="lr-nan"),
    pytest.param(["--dropout", "1.5"], 1, "argument --dropout: must be a number in [0, 1), "
                 "got 1.5", id="dropout"),
    pytest.param(["--hop", "0"], 1, "argument --hop: must be an integer of at least 1, got 0",
                 id="hop"),
    pytest.param(["--window-len", "7"], 1,
                 "argument --window-len: must be an even integer of at least 2, got 7",
                 id="window-len"),
    pytest.param(["--window-len", "64", "--hop", "65"], 1,
                 "--hop must be at most --window-len (64), got 65", id="hop-above-window"),
    pytest.param(["--heads", "0"], 1, "argument --heads: must be an integer of at least 1, "
                 "got 0", id="heads-zero"),
    pytest.param(["--blocks", "-1"], 1, "argument --blocks: must be an integer of at least 0, "
                 "got -1", id="blocks-negative"),
    pytest.param(["--speakers", "0"], 1, "argument --speakers: must be an integer of at least "
                 "1, got 0", id="speakers-zero"),
    pytest.param(["--width", "0"], 1, "argument --width: must be an integer of at least 1, "
                 "got 0", id="width-zero"),
    pytest.param(["--width", "10", "--heads", "4"], 2, "width 10 not divisible by heads 4",
                 id="width-heads"),
])
def test_train_rejects_bad_flags_before_reading_data(tmp_path, capsys, flags, code, message):
    rc = main(["train", "--manifest", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path),
               *flags])
    assert rc == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("mics", ["0", "-2"])
def test_train_rejects_a_mic_count_below_one_before_reading_data(tmp_path, capsys, mics):
    rc = main(["train", "--manifest", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path),
               "--mics", mics])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"argument --mics: must be an integer of at least 1, got {mics}" in err
    assert "Traceback" not in err


def test_train_rejects_mics_that_differ_from_the_corpus(tmp_path, capsys, monkeypatch):
    out = simulate(tmp_path)  # 2 channels
    monkeypatch.setattr(model_mod, "NarrowBandModel", None)  # building one would fail
    capsys.readouterr()
    rc = main(["train", "--manifest", str(out / "manifest.jsonl"), "--out", str(tmp_path / "run"),
               "--mics", "3", *CFG8K_ARGS])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--mics 3 does not match the 2 channels of the corpus" in err
    assert "Traceback" not in err and not (tmp_path / "run").exists()


def test_train_rejects_a_validation_corpus_with_other_channels(tmp_path, capsys, monkeypatch):
    train_dir = simulate(tmp_path, "train")  # 2 channels
    val_dir = simulate(tmp_path, "val", mics=3)
    monkeypatch.setattr(model_mod, "NarrowBandModel", None)  # building one would fail
    capsys.readouterr()
    rc = main(["train", "--manifest", str(train_dir / "manifest.jsonl"),
               "--val-manifest", str(val_dir / "manifest.jsonl"),
               "--out", str(tmp_path / "run"), *CFG8K_ARGS])
    assert rc == 2
    captured = capsys.readouterr()
    first_train, first_val = (dataset.read_manifest(d / "manifest.jsonl")[0]["id"]
                              for d in (train_dir, val_dir))
    assert (f"example {first_val} of the validation corpus {val_dir / 'manifest.jsonl'} "
            f"has 3 channels, example {first_train} of the training corpus "
            f"{train_dir / 'manifest.jsonl'} has 2") in captured.err
    assert "model parameters" not in captured.out
    assert "Traceback" not in captured.err and not (tmp_path / "run").exists()


def test_train_rejects_speakers_that_differ_from_the_corpus(tmp_path, capsys, monkeypatch):
    out = simulate(tmp_path)  # 2 targets
    monkeypatch.setattr(model_mod, "NarrowBandModel", None)  # building one would fail
    capsys.readouterr()
    rc = main(["train", "--manifest", str(out / "manifest.jsonl"), "--out", str(tmp_path / "run"),
               "--speakers", "3", *CFG8K_ARGS])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--speakers 3 does not match the 2 targets of the corpus" in err
    assert "Traceback" not in err and not (tmp_path / "run").exists()


def test_train_rejects_a_validation_corpus_with_other_targets(tmp_path, capsys, monkeypatch):
    train_dir = simulate(tmp_path, "train")  # 2 targets
    val_dir = simulate(tmp_path, "val")
    val_manifest = val_dir / "manifest.jsonl"
    entries = dataset.read_manifest(val_manifest)
    for e in entries:
        e["targets"] = e["targets"] + e["targets"][:1]  # a third target
    val_manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))
    monkeypatch.setattr(model_mod, "NarrowBandModel", None)  # building one would fail
    capsys.readouterr()
    rc = main(["train", "--manifest", str(train_dir / "manifest.jsonl"),
               "--val-manifest", str(val_manifest), "--out", str(tmp_path / "run"),
               *CFG8K_ARGS])
    assert rc == 2
    captured = capsys.readouterr()
    first_train = dataset.read_manifest(train_dir / "manifest.jsonl")[0]["id"]
    assert (f"example {entries[0]['id']} of the validation corpus {val_manifest} has 3 "
            f"targets, example {first_train} of the training corpus "
            f"{train_dir / 'manifest.jsonl'} has 2") in captured.err
    assert "model parameters" not in captured.out
    assert "Traceback" not in captured.err and not (tmp_path / "run").exists()


def test_train_checks_every_example_before_building_the_model(tmp_path, capsys, monkeypatch):
    out = simulate(tmp_path)  # 2 examples, 2 targets each
    manifest = out / "manifest.jsonl"
    entries = dataset.read_manifest(manifest)
    entries[1]["targets"] = entries[1]["targets"] + entries[1]["targets"][:1]  # a third target
    manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))
    monkeypatch.setattr(model_mod, "NarrowBandModel", None)  # building one would fail
    capsys.readouterr()
    rc = main(["train", "--manifest", str(manifest), "--out", str(tmp_path / "run"),
               *CFG8K_ARGS])
    assert rc == 2
    captured = capsys.readouterr()
    assert (f"example {entries[1]['id']} of the training corpus {manifest} has 3 targets, "
            f"example {entries[0]['id']} of the training corpus {manifest} has 2") in captured.err
    assert "model parameters" not in captured.out
    assert "Traceback" not in captured.err and not (tmp_path / "run").exists()


@pytest.mark.parametrize("cut", [[0, 1], [1]])
def test_a_target_shorter_than_its_mixture_is_a_data_error_naming_it(tmp_path, capsys,
                                                                     monkeypatch, cut):
    out = simulate(tmp_path)  # 8192 samples an example
    entry = dataset.read_manifest(out / "manifest.jsonl")[0]
    for n in cut:
        path = out / entry["targets"][n]
        write_wav(path, WaveBuffer(read_wav(path).data[:, :5000], 8000))
    monkeypatch.setattr(model_mod, "NarrowBandModel", None)  # building one would fail
    message = (f"example {entry['id']}: target {out / entry['targets'][cut[0]]} has 5000 "
               f"samples, the mixture 8192")
    for command in (["train", "--out", str(tmp_path / "run")],
                    ["eval", "--estimates-from-targets", "--out", str(tmp_path / "m.csv")]):
        capsys.readouterr()
        rc = main([*command, "--manifest", str(out / "manifest.jsonl"), *CFG8K_ARGS])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
    assert not (tmp_path / "run").exists() and not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("modes", [[], ["--checkpoint", "ckpt", "--estimates-from-targets"]])
def test_eval_checks_its_modes_before_reading_the_manifest(tmp_path, capsys, modes):
    rc = main(["eval", "--manifest", str(tmp_path / "absent.jsonl"), *modes,
               "--out", str(tmp_path / "run" / "metrics.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert ("usage error: eval needs exactly one of --checkpoint, --estimates-dir, "
            "--estimates-from-targets") in err
    assert "Traceback" not in err and not (tmp_path / "run").exists()


def test_small_lr_lowers_the_schedule_floor():
    args = _build_parser().parse_args(["train", "--manifest", "m.jsonl", "--out", "o",
                                       "--lr", "5e-5"])
    cfg = _train_config(args)
    assert cfg.lr_init == cfg.lr_min == 5e-5
    assert _train_config(_build_parser().parse_args(
        ["train", "--manifest", "m.jsonl", "--out", "o"])).lr_min == 1e-4


def test_exit_codes(tmp_path, capsys):
    assert main(["frobnicate"]) == 1  # unknown subcommand -> usage
    assert main([]) == 1
    assert main(["separate", "--checkpoint", str(tmp_path / "nope"),
                 "--input", str(tmp_path / "nope.wav"), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize("command", [["train"], ["eval", "--estimates-from-targets"]])
def test_empty_manifest_is_a_data_error(tmp_path, capsys, command):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text("")
    assert main([*command, "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"manifest {manifest} has no entries" in err
    assert "Traceback" not in err


def test_config_file_merging(tmp_path):
    out = simulate(tmp_path)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"n": 1, "seed": 3}))
    src = make_sources(tmp_path)
    rc = main(["--config", str(cfgfile), "simulate", "--sources", str(src),
               "--out", str(tmp_path / "c"), "--n", "2", "--mics", "2",
               "--duration", "1.024", "--max-order", "1", *CFG8K_ARGS])
    assert rc == 0
    # explicit --n 2 wins over the config's n=1; config's seed=3 applies
    assert len(dataset.read_manifest(tmp_path / "c" / "manifest.jsonl")) == 2
    entry = dataset.read_manifest(tmp_path / "c" / "manifest.jsonl")[0]
    assert entry["seed"] == [3, 0]
    del out


def test_config_file_loses_to_abbreviated_flag(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"seed": 3}))
    src = make_sources(tmp_path)
    rc = main(["--config", str(cfgfile), "simulate", "--sources", str(src),
               "--out", str(tmp_path / "c"), "--n", "1", "--mics", "2", "--see", "5",
               "--duration", "1.024", "--max-order", "1", *CFG8K_ARGS])
    assert rc == 0
    assert dataset.read_manifest(tmp_path / "c" / "manifest.jsonl")[0]["seed"] == [5, 0]


def test_config_file_cannot_choose_the_subcommand(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"command": "rtf"}))
    rc = main(["--config", str(cfgfile), "grad-check"])
    assert rc == 1
    assert "not recognized: command" in capsys.readouterr().err


def test_config_file_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"frob": 1}))
    rc = main(["--config", str(cfgfile), "grad-check"])
    assert rc == 1
    assert "not recognized" in capsys.readouterr().err


def test_write_pgm(tmp_path):
    img = np.array([[0.0, 0.5], [0.25, 1.0]])
    write_pgm(tmp_path / "x.pgm", img)
    raw = (tmp_path / "x.pgm").read_bytes()
    assert raw.startswith(b"P5\n2 2\n255\n")
    assert list(raw[-4:]) == [0, 128, 64, 255]


def test_export_attention_maps_paths(tmp_path):
    maps = np.random.default_rng(0).uniform(size=(2, 3, 4, 4))
    maps /= maps.sum(axis=-1, keepdims=True)
    paths = export_attention_maps(maps, tmp_path)
    assert len(paths) == 6
    assert (tmp_path / "attn_block2_head3.csv").exists()


def test_console_entry_point():
    # the child imports the same checkout whether or not nbsep is installed
    src = str(Path(dataset.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "nbsep.cli", "--help"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_public_surface_resolves():
    import nbsep

    assert [name for name in nbsep.__all__ if not hasattr(nbsep, name)] == []
    for gone in ("frequency_sequence", "normalize", "ComplexSpectrogram", "overfit_probe"):
        assert gone not in nbsep.__all__ and not hasattr(nbsep, gone)


def test_worker_count_env(tmp_path, capsys, monkeypatch):
    from nbsep.parallel import usable_cpus, worker_count

    cpus = usable_cpus()
    monkeypatch.delenv("NBC_THREADS", raising=False)
    assert worker_count() == cpus  # one worker per usable CPU by default
    monkeypatch.setenv("NBC_THREADS", "2")
    assert worker_count() == min(2, cpus)
    monkeypatch.setenv("NBC_THREADS", "0")
    assert worker_count() == 1
    monkeypatch.setenv("NBC_THREADS", "100000")  # clamped, so no thread per example
    assert worker_count() == cpus
    monkeypatch.setenv("NBC_THREADS", "zero")
    with pytest.raises(ValueError, match="NBC_THREADS must be an integer, got 'zero'"):
        worker_count()
    # from the CLI a usage error, raised before the checkpoint is read (a missing one exits 2)
    assert main(["rtf", "--checkpoint", str(tmp_path / "nope"), "--duration", "1"]) == 1
    assert "NBC_THREADS must be an integer, got 'zero'" in capsys.readouterr().err


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_train_and_separate_write_the_same_bits_at_one_and_two_workers(tmp_path, capsys,
                                                                       monkeypatch, precision):
    # the bin chunks, and so the dropout masks, depend on F alone: 257 bins
    # are 18 chunks at any worker count
    if parallel.usable_cpus() < 2:
        pytest.skip("needs 2 usable CPUs")
    data = simulate(tmp_path, n=2)
    mixture = str(data / dataset.read_manifest(data / "manifest.jsonl")[0]["mixture"])
    runs = {}
    for workers in ("1", "2"):
        monkeypatch.setenv("NBC_THREADS", workers)
        run_dir, sep_dir = tmp_path / f"run{workers}", tmp_path / f"sep{workers}"
        assert main(["train", "--manifest", str(data / "manifest.jsonl"),
                     "--val-manifest", str(data / "manifest.jsonl"), "--out", str(run_dir),
                     "--epochs", "1", "--batch", "1", "--width", "16", "--inner-width", "32",
                     "--blocks", "1", "--conv-blocks", "1", "--heads", "2", "--dropout", "0.1",
                     "--precision", precision, *CFG8K_ARGS]) == 0
        assert main(["separate", "--checkpoint", str(run_dir / "checkpoint_last"),
                     "--input", mixture, "--out", str(sep_dir), *CFG8K_ARGS]) == 0
        assert f"workers {workers})" in capsys.readouterr().out
        with np.load(run_dir / "checkpoint_last") as z:
            entries = {k: z[k] for k in z.files}
        wavs = {p.name: p.read_bytes() for p in sorted(sep_dir.glob("*.wav"))}
        runs[workers] = ((run_dir / "train_log.csv").read_bytes(), entries, wavs)
    (log1, entries1, wavs1), (log2, entries2, wavs2) = runs["1"], runs["2"]
    assert log1 == log2
    assert entries1.keys() == entries2.keys()
    assert any(k.startswith("adam_m/") for k in entries1)
    for k in entries1:
        assert np.array_equal(entries1[k], entries2[k]), k
    assert len(wavs1) == 2 and wavs1 == wavs2
