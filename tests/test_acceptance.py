"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The overfit training runs (criteria 4 and 10) take ~1 minute together.
"""

import time

import numpy as np
import pytest

from convmamba import cli
from convmamba.audio import StftConfig, Waveform, istft, magnitude, mix_at_snr, stft
from convmamba.masks import apply_mask, irm
from convmamba.metrics import si_sdr
from convmamba.network import ModelConfig, count_params
from convmamba.scan import SelectiveInputs, selective_scan_seq, zoh_terms
from convmamba.tensor import Tensor
from convmamba.training import warmup_lr

from conftest import (causal_conv, discretize_zoh, init_ssm_params,
                      lti_kernel, naive_scan, synth_speechlike)


def report(num: int, ok: bool, detail: str):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def t64(a):
    return Tensor(np.asarray(a, dtype=np.float64), dtype=np.float64)


# -- criterion 1: scan-form equivalence -------------------------------------

def test_c1_scan_form_equivalence(chunk16):
    # the production scan, chunked every 16 frames, against two oracles that
    # share none of its chunking: a per-step float64 loop, and a causal
    # convolution with the scan's kernel when delta, B and C do not change
    # over time
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_loop = 0.0
    worst_lti = 0.0
    for _ in range(50):
        length = int(rng.integers(2, 129))
        d_inner = int(rng.integers(1, 17))
        n = int(rng.integers(1, 9))
        p = init_ssm_params(d_inner, n, max(1, d_inner // 4), rng,
                            dtype=np.float64)
        u = t64(rng.standard_normal((length, d_inner)))
        si = SelectiveInputs(delta=t64(rng.uniform(1e-3, 0.5, (length, d_inner))),
                             b=t64(rng.standard_normal((length, n))),
                             c=t64(rng.standard_normal((length, n))))
        z_seq = selective_scan_seq(u, si, p).data
        z_loop = naive_scan(u.data, si.delta.data, si.b.data, si.c.data,
                            -np.exp(p.a_log.data), p.d_skip.data)
        worst_loop = max(worst_loop, float(np.max(np.abs(z_seq - z_loop))))

        delta_row = rng.uniform(0.05, 0.5, d_inner)
        b_row = rng.standard_normal(n)
        c_row = rng.standard_normal(n)
        si_const = SelectiveInputs(delta=t64(np.tile(delta_row, (length, 1))),
                                   b=t64(np.tile(b_row, (length, 1))),
                                   c=t64(np.tile(c_row, (length, 1))))
        z_const = selective_scan_seq(u, si_const, p).data
        a_bar, b_bar = discretize_zoh(-np.exp(p.a_log.data), b_row[None, :],
                                      delta_row[:, None])
        z_kern = causal_conv(u.data, lti_kernel(a_bar, b_bar, c_row, length))
        worst_lti = max(worst_lti, float(np.max(np.abs(z_const - z_kern))))
    elapsed = time.perf_counter() - start
    ok = worst_loop < 1e-10 and worst_lti < 1e-8 and elapsed < 30.0
    report(1, ok, f"scan-form equivalence over 50 configs: seq-vs-loop "
                  f"{worst_loop:.2e} (<1e-10), seq-vs-kernel {worst_lti:.2e} "
                  f"(<1e-8), {elapsed:.1f}s (<30s)")


# -- criterion 2: ZOH discretization ----------------------------------------

def test_c2_zoh_against_series_oracle():
    # the scan's own ZOH terms (scan.zoh_terms), one draw per channel
    rng = np.random.default_rng(202)
    n = 10_000
    a = -rng.uniform(0.01, 16.0, n)
    delta = np.exp(rng.uniform(np.log(1e-5), np.log(0.25), n))
    b = rng.standard_normal(n)
    ea, a_bar = np.empty((2, n))
    zoh_terms(delta, a, 1.0 / a, ea, a_bar)
    b_bar = ea * b
    x = delta * a
    series = np.zeros_like(x)
    fact = 1.0
    power = np.ones_like(x)
    for k in range(30):
        fact *= (k + 1)
        series = series + power / fact
        power = power * x
    want_b = series * delta * b
    err_b = float(np.max(np.abs(b_bar - want_b) / np.maximum(1.0, np.abs(want_b))))
    err_a = float(np.max(np.abs(a_bar - np.exp(x))))
    # near x = 0, where expm1(x)/x would need a series branch without expm1:
    # at A = -1 and delta = -x0, ea/delta is expm1(x0)/x0
    jumps = []
    for x0 in (-1e-4, -1e-8, -1e-12):
        ea0, a_bar0 = np.empty((2, 1))
        zoh_terms(np.array([-x0]), np.array([-1.0]), np.array([-1.0]), ea0, a_bar0)
        taylor = 1.0 + x0 / 2.0 + x0 ** 2 / 6.0 + x0 ** 3 / 24.0
        jumps.append(abs(taylor - ea0[0] / -x0))
    ok = err_b < 1e-12 and err_a < 1e-12 and max(jumps) < 1e-10
    report(2, ok, f"ZOH vs 30-term series on 1e4 draws: b_bar err {err_b:.2e} "
                  f"(<1e-12), branch jump {max(jumps):.2e} (<1e-10)")


# -- criterion 3: gradient suite --------------------------------------------

def test_c3_gradient_suite(capsys):
    start = time.perf_counter()
    code = cli.main(["gradcheck"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    ok = code == 0 and elapsed < 120.0
    report(3, ok, f"gradcheck exit code {code} (want 0) in {elapsed:.1f}s (<120s)")


# -- criteria 4 and 10: overfit run and its determinism ----------------------

def overfit_corpus(root):
    from convmamba.audio import save_wav
    (root / "clean").mkdir(parents=True)
    (root / "noise").mkdir(parents=True)
    t = np.arange(16000) / 16000.0
    save_wav(root / "clean" / "tone.wav",
             Waveform(0.5 * np.sin(2 * np.pi * 440.0 * t)), encoding="float32")
    rng = np.random.default_rng(0)
    save_wav(root / "noise" / "white.wav",
             Waveform(0.25 * rng.standard_normal(16000)), encoding="float32")
    return root / "clean", root / "noise"


def run_overfit(clean_dir, noise_dir, out_dir):
    """Drive the bundled overfit config through the CLI."""
    from pathlib import Path
    config = Path(__file__).resolve().parent.parent / "configs" / "overfit.cfg"
    code = cli.main(["--config", str(config),
                     "--set", f"data.clean_dir={clean_dir}",
                     "--set", f"data.noise_dir={noise_dir}",
                     "--set", f"out.dir={out_dir}", "train"])
    return code, out_dir / "metrics.csv", out_dir / "checkpoints" / "final.ckpt"


@pytest.fixture(scope="module")
def overfit_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("overfit")
    clean_dir, noise_dir = overfit_corpus(root / "data")
    start = time.perf_counter()
    code, csv_path, ckpt_path = run_overfit(clean_dir, noise_dir, root / "run_a")
    elapsed = time.perf_counter() - start
    return dict(clean_dir=clean_dir, noise_dir=noise_dir, exit_code=code,
                csv=csv_path, ckpt=ckpt_path, elapsed=elapsed, root=root)


def test_c4_overfit_reaches_target(overfit_run):
    losses = [float(line.split(",")[3])
              for line in overfit_run["csv"].read_text().splitlines()[1:]
              if line.split(",")[2] == "train"]
    best = min(losses)
    ok = (overfit_run["exit_code"] == 0 and len(losses) <= 2000
          and best < 1e-3 and overfit_run["elapsed"] < 300.0)
    report(4, ok, f"overfit via bundled config: exit {overfit_run['exit_code']}, "
                  f"mask MSE reached {best:.2e} (<1e-3) within {len(losses)} "
                  f"steps in {overfit_run['elapsed']:.0f}s (<300s)")


def test_c10_overfit_determinism(overfit_run):
    code, csv_b, ckpt_b = run_overfit(overfit_run["clean_dir"],
                                      overfit_run["noise_dir"],
                                      overfit_run["root"] / "run_b")
    same_ckpt = overfit_run["ckpt"].read_bytes() == ckpt_b.read_bytes()
    same_csv = overfit_run["csv"].read_bytes() == csv_b.read_bytes()
    report(10, code == 0 and same_ckpt and same_csv,
           f"repeat run: checkpoints bit-identical={same_ckpt}, "
           f"metric CSVs byte-identical={same_csv}")


# -- criterion 5: oracle mask gain -------------------------------------------

def test_c5_oracle_mask_gain():
    rng = np.random.default_rng(505)
    clean = synth_speechlike(rng, seconds=1.0)
    noise = Waveform(rng.standard_normal(24000))
    noisy, used = mix_at_snr(clean, noise, 0.0, rng)
    cfg = StftConfig()
    mask = irm(magnitude(stft(clean, cfg)), magnitude(stft(used, cfg)))
    enhanced = istft(apply_mask(stft(noisy, cfg), mask), cfg, out_len=len(clean))
    base = si_sdr(noisy, clean)
    boosted = si_sdr(enhanced, clean)
    ok = boosted - base >= 5.0
    report(5, ok, f"oracle ratio mask at 0 dB: SI-SDR {base:.2f} -> "
                  f"{boosted:.2f} dB (gain {boosted - base:.2f} >= 5)")


# -- criterion 6: STFT round trip and SNR mixing ------------------------------

def test_c6_stft_round_trip_and_mixing():
    rng = np.random.default_rng(606)
    cfg = StftConfig()
    worst_rel = 0.0
    for _ in range(100):
        n = int(rng.integers(2000, 20_000))
        wav = Waveform(rng.uniform(-0.9, 0.9, n))
        rec = istft(stft(wav, cfg), cfg, out_len=n)
        # sample 0 has zero analysis weight under the sqrt-Hann window
        num = np.linalg.norm(rec.samples[1:] - wav.samples[1:])
        worst_rel = max(worst_rel, num / np.linalg.norm(wav.samples[1:]))
    worst_snr = 0.0
    for _ in range(100):
        clean = Waveform(rng.standard_normal(4000) * rng.uniform(0.05, 1.0))
        noise = Waveform(rng.standard_normal(9000) * rng.uniform(0.05, 1.0))
        snr = rng.uniform(-10, 20)
        _, used = mix_at_snr(clean, noise, snr, rng)
        measured = 10.0 * np.log10(clean.power() / used.power())
        worst_snr = max(worst_snr, abs(measured - snr))
    ok = worst_rel < 1e-6 and worst_snr < 0.01
    report(6, ok, f"round-trip rel err {worst_rel:.2e} (<1e-6) over 100 "
                  f"waveforms; SNR err {worst_snr:.2e} dB (<0.01)")


# -- criterion 7: parameter-count presets -------------------------------------

def test_c7_parameter_counts():
    published = {"mamba-4": 1.88e6, "convmamba-4": 1.92e6,
                 "convmamba-7": 3.26e6, "convmamba-13": 5.94e6}
    details = []
    ok = True
    for name, want in published.items():
        got = count_params(ModelConfig.preset(name))
        rel = (got - want) / want
        ok = ok and abs(rel) < 0.05
        details.append(f"{name}={got/1e6:.3f}M ({rel:+.1%})")
    report(7, ok, "preset sizes within +/-5%: " + ", ".join(details))


# -- criterion 8: warm-up schedule values -------------------------------------

def test_c8_schedule_values():
    mid = warmup_lr(40_000, 256, 40_000)
    first = warmup_lr(1, 256, 40_000)
    decay_branch = 40_000 ** -0.5
    linear_branch = (40_000 / 40_000) * 40_000 ** -0.5
    ok = (abs(mid - 3.125e-4) < 1e-9 and abs(first - 7.8125e-9) < 1e-15
          and decay_branch == linear_branch)
    report(8, ok, f"lr(40000, 256) = {mid:.6e} (want 3.125e-4 +/- 1e-9); "
                  f"branches equal at crossover: {decay_branch == linear_branch}")


# -- criterion 9: sequential-scan linear scaling -------------------------------

def test_c9_sequential_scan_linear_scaling():
    # narrow channels keep the per-step recurrence (strictly linear, stable
    # cost) dominant over the vectorized, bandwidth-sensitive precompute
    import gc
    rng = np.random.default_rng(909)
    d_inner, n = 4, 2
    p = init_ssm_params(d_inner, n, 1, rng)
    problems = {}
    for exp in range(10, 15):
        length = 1 << exp
        u = Tensor(rng.standard_normal((length, d_inner)))
        si = SelectiveInputs(delta=Tensor(rng.uniform(1e-3, 0.3, (length, d_inner))),
                             b=Tensor(rng.standard_normal((length, n))),
                             c=Tensor(rng.standard_normal((length, n))))
        problems[length] = (u, si)
    times = {length: np.inf for length in problems}
    gc.collect()
    gc.disable()
    try:
        for length, (u, si) in problems.items():
            selective_scan_seq(u, si, p)  # warm caches and allocator
        # round-robin passes so transient machine load cannot bias one size;
        # batch short problems per sample to sit well above the timer floor
        for _ in range(7):
            for length, (u, si) in problems.items():
                calls = max(1, 16384 // length)
                sample = _timed(selective_scan_seq, u, si, p, calls=calls)
                times[length] = min(times[length], sample / calls)
    finally:
        gc.enable()
    ratios = [times[1 << (e + 1)] / times[1 << e] for e in range(10, 14)]
    ok = max(ratios) <= 2.4
    detail = ", ".join(f"{1 << e}->{1 << (e + 1)}: {r:.2f}"
                       for e, r in zip(range(10, 14), ratios))
    report(9, ok, f"per-doubling time ratios (<=2.4): {detail}")


def _timed(fn, *args, calls=1):
    # this thread's CPU time: time the host spends on other processes while
    # the scan waits to run is not the scan's cost
    start = time.thread_time()
    for _ in range(calls):
        fn(*args)
    return time.thread_time() - start
