"""The three workloads. Each is a closed loop with one client.

A workload gets a Run (seed, seconds, trace flag, scratch directory, the
imported program), does its own set-up, measures, checks every output and
returns its metrics. Untraced runs fill Run.metrics with the end-to-end
metrics; traced runs fill it with the per-layer ones.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import corpus
import spec
from tracer import StepClock, Tracer

clock = time.perf_counter

SETUP_REPEATS = 3
# Round-0 files up to this length are enhanced again in float64; the float32
# output must match that reference to within F64_TOL (full scale is 1.0).
F64_SUBSET_MAX_S = 4.0
F64_TOL = 1e-4
# The traced run's span self times must add up to its wall time within this.
SELF_SUM_SLACK = 0.02
# A measuring loop whose operations keep failing stops after this many
# times --seconds of wall time.
GIVE_UP_FACTOR = 3


@dataclass
class Run:
    program: object
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path
    spans_path: Path
    import_s: float
    attempted: int = 0
    failed: int = 0

    def __post_init__(self):
        self.metrics: dict[str, tuple[float, str]] = {}
        self.report: list[tuple[str, float, str]] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def operation_failed(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"operation failed: {what}", file=sys.stderr)
        traceback.print_exc()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def trace_units(seconds: float, unit_s: float) -> int:
    """Operations for the traced run: about half the run each for the
    untraced and the traced pass, fixed for a given --seconds."""
    return max(1, round(seconds / 2 / unit_s))


def keep_going(run: Run, timed: list[tuple], units: int) -> bool:
    """Whether to start another unit of work (an enhance round, a train
    call): stop at the unit boundary nearest to --seconds of timed work."""
    done = sum(t for t, _, _ in timed)
    return units == 0 or done + 0.5 * done / units < run.seconds


class SpeedProbe:
    """A fixed piece of NumPy and Python work, timed now and then in a run.

    On a shared host the same work runs up to 1.5x slower for seconds to
    minutes at a time while neighbours are busy. The median probe time of a
    run says how fast the host was during it; multiplying the run's times by
    REF_S over that median gives times at the reference speed, which is what
    stays put from run to run. The probe mixes what the workloads do: many
    small ops, a 16 MB elementwise pass and a BLAS matmul. A change to the
    program moves the run's times but not the probe, so it shows in full.
    """

    REF_S = 0.025   # the probe on an idle 2-core Xeon host

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random((64, 64))
        self.vec = rng.random(4096)
        self.big = rng.random(1 << 21)     # 16 MB, well past the 4 MB L2
        self.out = self.big.copy()
        self.mat = rng.random((256, 256))
        self.times: list[float] = []

    def __call__(self) -> None:
        t0 = clock()
        for _ in range(450):
            (self.small @ self.small).sum()
            np.exp(self.vec * 1e-3).sum()
            [i for i in range(50)]
        np.multiply(self.big, 0.5, out=self.out)
        np.sqrt(self.out, out=self.out)
        self.out.sum()
        for _ in range(8):
            self.mat @ self.mat
        self.times.append(clock() - t0)

    def scale(self) -> float:
        return self.REF_S / statistics.median(self.times)


def timing_metrics(run: Run, label: str, ops: list[tuple[float, int, float]],
                   probe: SpeedProbe, setup_s: float) -> None:
    """End-to-end metrics from the timed operations, each (wall s, items,
    audio s). Times are rescaled to the reference speed (see SpeedProbe); the
    raw wall-clock figures are printed next to them."""
    scale = probe.scale()
    for tag, k in (("raw_", 1.0), ("", scale)):
        rtf = [k * t / a for t, _, a in ops]
        wall = k * sum(t for t, _, _ in ops)
        p90 = float(np.percentile(rtf, 90))
        figures = {
            "rtf_p50": (float(np.percentile(rtf, 50)), "s/s"),
            "audio_s_per_s": (sum(a for _, _, a in ops) / wall, "s/s"),
            "items_per_s": (sum(n for _, n, _ in ops) / wall, "1/s"),
            "setup_s": (k * setup_s, "s"),
        }
        run.report += [(f"{label}_{tag}{name}", v, u) for name, (v, u) in figures.items()]
        # too few operations lie beyond p90 to bound it, so it is only printed
        run.report.append((f"{label}_{tag}rtf_p90", p90, "s/s"))
    run.report += [
        (f"{label}_ops_timed", len(rtf), "count"),
        (f"{label}_ops_beyond_p90", sum(r > p90 for r in rtf), "count"),
        ("speed_probe_ms_median", 1e3 * statistics.median(probe.times), "ms"),
        ("speed_probe_ms_min", 1e3 * min(probe.times), "ms"),
        ("speed_probe_ms_max", 1e3 * max(probe.times), "ms"),
        ("speed_probes", len(probe.times), "count"),
    ]
    figures["peak_rss_mb"] = (peak_rss_mb(), "MiB")
    run.metrics = figures   # the rescaled ones, from the loop's last pass


def traced_pass(run: Run, n_ops: int, op, check, losses: list[float]) -> None:
    """Run op(i, tag) for every i < n_ops untraced, then all of them again
    traced, in the same order so both passes allocate alike; each op is one
    request. Only op is timed; check(i, tag, result) runs afterwards."""
    tracer = Tracer(run.program)
    results = {"untraced": [], "traced": []}
    t0 = clock()
    for i in range(n_ops):
        results["untraced"].append(op(i, "untraced"))
    untraced_s = clock() - t0
    with tracer:
        t0 = clock()
        for i in range(n_ops):
            with tracer.root("bench.op", i):
                results["traced"].append(op(i, "traced"))
        traced_s = clock() - t0
    for tag, outs in results.items():
        for i, result in enumerate(outs):
            check(i, tag, result)
    record_trace(run, tracer, untraced_s, traced_s, n_ops, losses)


def record_trace(run: Run, tracer: Tracer, untraced_s: float, traced_s: float,
                 n_ops: int, losses: list[float]) -> None:
    """Per-layer metrics, counts, tracing overhead and the self-time check."""
    m = tracer.layer_metrics()
    self_s, _ = tracer.self_times()
    root_self = sum(v for k, v in self_s.items() if k.startswith("bench."))
    total_self = sum(self_s.values())
    ratio = total_self / traced_s
    run.check(abs(ratio - 1.0) <= SELF_SUM_SLACK,
              f"span self times sum to {ratio:.4f} of traced wall time")
    slabs = tracer.slab_bytes
    m.update({
        "tensor.ops_per_step": statistics.mean(tracer.tape_ops) if tracer.tape_ops else 0,
        "scan.slab_bytes": statistics.mean(slabs) if slabs else 0,
        "scan.slab_bytes_max": max(slabs) if slabs else 0,
        "training.loss_at_end": statistics.median(losses) if losses else 0.0,
        "bench.self_ms": 1e3 * root_self,
        "trace.ops": n_ops,
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "trace.self_sum_ratio": ratio,
    })
    units = {n: u for n, u, _ in spec.per_layer()}
    run.metrics = {k: (float(v), units[k]) for k, v in m.items()}
    tracer.write(run.spans_path)
    print(f"spans: {len(tracer.spans)} written to {run.spans_path}")


# ---------------------------------------------------------------------------
# enhance_mixed_len
# ---------------------------------------------------------------------------

ENHANCE_ROUND_S = 3.5   # about one round on a 2-core Xeon host; sizes traced runs


def _enhance_file(p, src: Path, dst: Path, weights, cfg):
    """What `convmamba enhance` does with a loaded checkpoint."""
    noisy = p.audio.load_wav(src)
    enhanced, mask = p.pipeline.enhance_waveform(noisy, weights, cfg, p.audio.StftConfig())
    p.audio.save_wav(dst, enhanced, encoding="pcm16")
    return noisy, enhanced, mask


def _check_enhanced(run: Run, name: str, dst: Path, noisy, enhanced, mask) -> None:
    y = enhanced.samples
    run.check(bool(np.isfinite(y).all()) and len(y) == len(noisy)
              and corpus.wav_frames(dst) == len(noisy)
              and bool(np.isfinite(mask).all())
              and float(mask.min()) >= 0.0 and float(mask.max()) <= 1.0,
              f"{name}: output must be finite, input-length, mask in [0, 1]")


def _write_round(run: Run, index: int) -> list[tuple[Path, float]]:
    files = []
    for i, (seconds, snr_db, samples) in enumerate(corpus.enhance_round(run.seed, index)):
        path = run.work / f"r{index:03d}_{i}_{int(seconds)}s_{snr_db:+d}dB.wav"
        corpus.write_wav(path, samples)
        files.append((path, seconds))
    return files


def _f64_matches(run: Run, ckpt: Path, kept: list) -> float:
    """Largest float32-vs-float64 output difference over the kept files."""
    p = run.program
    worst = 0.0
    p.tensor.set_default_dtype("f64")
    try:
        weights, cfg = p.checkpoint.load_checkpoint(ckpt)
        for path, y32 in kept:
            y64, _ = p.pipeline.enhance_waveform(p.audio.load_wav(path), weights, cfg,
                                                 p.audio.StftConfig())
            err = float(np.max(np.abs(y32 - y64.samples)))
            run.check(err <= F64_TOL,
                      f"{path.name}: float32 vs float64 max error {err:.2e} > {F64_TOL:g}")
            worst = max(worst, err)
    finally:
        p.tensor.set_default_dtype("f32")
    return worst


def enhance_mixed_len(run: Run) -> None:
    p = run.program
    cfg = p.network.ModelConfig.preset("convmamba-4")
    ckpt = run.work / "convmamba-4.ckpt"
    p.checkpoint.save_checkpoint(ckpt, p.network.init_params(cfg, run.seed), cfg)
    warm_in, warm_out = run.work / "warmup.wav", run.work / "warmup.out.wav"
    corpus.write_wav(warm_in, corpus.noisy_file(np.random.default_rng([run.seed, 1]), 1.0, 5))

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        weights, cfg = p.checkpoint.load_checkpoint(ckpt)
        _enhance_file(p, warm_in, warm_out, weights, cfg)
        setups.append(clock() - t0)

    if run.trace:
        _enhance_traced(run, ckpt, (warm_in, warm_out), weights, cfg)
        return

    probe = SpeedProbe()
    timed: list[tuple[float, int, float]] = []   # (wall s, files, audio s)
    kept = []
    rounds = 0
    deadline = clock() + GIVE_UP_FACTOR * run.seconds
    # whole rounds only, so every length is timed equally often
    while keep_going(run, timed, rounds) and clock() < deadline:
        probe()
        for path, seconds in _write_round(run, rounds):
            out = path.with_suffix(".out.wav")
            try:
                t0 = clock()
                noisy, enhanced, mask = _enhance_file(p, path, out, weights, cfg)
                wall = clock() - t0
            except Exception:
                run.operation_failed(path.name)
                continue
            timed.append((wall, 1, seconds))
            _check_enhanced(run, path.name, out, noisy, enhanced, mask)
            if rounds == 0 and seconds <= F64_SUBSET_MAX_S:
                kept.append((path, enhanced.samples))
            else:
                path.unlink()
            out.unlink()
        rounds += 1
    probe()
    if not timed:
        raise RuntimeError("no file was enhanced")
    f64_err = _f64_matches(run, ckpt, kept)
    run.report.append((f"enhance_f64_max_err (tolerance {F64_TOL:g}, {len(kept)} files)",
                       f64_err, ""))
    timing_metrics(run, "enhance", timed, probe, run.import_s + statistics.median(setups))


def _enhance_traced(run: Run, ckpt: Path, warm: tuple[Path, Path], weights, cfg) -> None:
    """Op 0 is one set-up (checkpoint load and warm-up file), the rest are
    the files of whole rounds."""
    p = run.program
    files = [warm] + [(path, path.with_suffix(".out.wav")) for r in
                      range(trace_units(run.seconds, ENHANCE_ROUND_S))
                      for path, _ in _write_round(run, r)]

    def op(i: int, tag: str):
        if i == 0:
            return _enhance_file(p, *warm, *p.checkpoint.load_checkpoint(ckpt))
        return _enhance_file(p, *files[i], weights, cfg)

    def check(i: int, tag: str, result) -> None:
        _check_enhanced(run, f"{tag} {files[i][0].name}", files[i][1], *result)

    traced_pass(run, len(files), op, check, [])


# ---------------------------------------------------------------------------
# train_c4_b10 and train_tiny
# ---------------------------------------------------------------------------

@dataclass
class TrainSetup:
    model: dict              # ModelConfig preset name or keyword arguments
    train: dict              # TrainConfig keyword arguments
    steps: int               # fixed step count of one train_loop call
    n_clean: int
    clean_s: tuple[float, float]
    n_noise: int
    noise_s: float
    probe_every: int         # steps between speed probes
    call_s: float            # about one call on a 2-core Xeon host; sizes traced runs


TRAIN_SETUPS = {
    # the paper's batch of 10, 1-3 s utterances, default SNR range, IRM target
    # and the warm-up schedule, shortened so that a 14-step call learns;
    # one call is one epoch
    "train_c4_b10": TrainSetup(
        model=dict(preset="convmamba-4"),
        train=dict(batch_size=10, use_warmup=True, warmup_steps=4, lr_scale=0.1),
        steps=14, n_clean=140, clean_s=(1.0, 3.0), n_noise=4, noise_s=4.0,
        probe_every=1, call_s=30.0),
    # the configs/overfit.cfg model and recipe: one fixed 1 s mixture at 0 dB
    "train_tiny": TrainSetup(
        model=dict(d_model=32, n_layers=2),
        train=dict(batch_size=1, snr_lo=0, snr_hi=0, use_warmup=False, lr_base=1e-3),
        steps=200, n_clean=1, clean_s=(1.0, 1.0), n_noise=1, noise_s=1.0,
        probe_every=50, call_s=2.5),
}


def _model_config(p, model: dict):
    kwargs = dict(model)
    preset = kwargs.pop("preset", None)
    if preset is not None:
        return p.network.ModelConfig.preset(preset, **kwargs)
    return p.network.ModelConfig(**kwargs)


def _check_train(run: Run, name: str, result, steps: int) -> float | None:
    """Checks on one train_loop call; returns its final loss if all pass."""
    rows = [line.split(",") for line in
            result.metrics_csv.read_text(encoding="utf-8").splitlines()[1:]]
    losses = [float(r[3]) for r in rows if r[2] == "train"]
    ok = all([run.check(math.isfinite(v), f"{name}: step {i + 1} loss {v}")
              for i, v in enumerate(losses)])
    ok &= run.check(len(losses) == steps == result.steps,
                    f"{name}: {len(losses)} steps logged, {steps} requested")
    ok &= run.check(bool(losses) and losses[-1] < losses[0],
                    f"{name}: end loss not below first-step loss")
    return result.final_train_loss if ok else None


def train(run: Run) -> None:
    p = run.program
    ts = TRAIN_SETUPS[run.workload]
    model_cfg = _model_config(p, ts.model)
    clean, noise = corpus.train_corpus(run.work / "corpus", run.seed, ts.n_clean,
                                       ts.clean_s, ts.n_noise, ts.noise_s)
    base = p.training.TrainConfig(epochs=ts.steps, max_steps=ts.steps, val_items=1,
                                  val_every=10 ** 9, checkpoint_every=0, **ts.train)

    def call_cfg(i: int):
        return replace(base, seed=run.seed * 1000 + i)

    t0 = clock()
    pools = (p.training.WavPool(clean), p.training.WavPool(noise))
    for pool in pools:
        for i in range(len(pool)):
            pool.load(i)
    preload = clock() - t0
    setups = []
    warm = replace(base, batch_size=1, epochs=1, max_steps=1)
    for i in range(SETUP_REPEATS):
        t0 = clock()
        p.training.train_loop(model_cfg, replace(warm, seed=i), *pools, run.work / "warmup")
        setups.append(clock() - t0)

    if run.trace:
        _train_traced(run, model_cfg, call_cfg, pools, ts)
        return

    probe = SpeedProbe()
    timed: list[tuple[float, int, float]] = []   # (wall s, items, audio s)
    losses = []
    call = 0
    deadline = clock() + GIVE_UP_FACTOR * run.seconds
    while keep_going(run, timed, call) and clock() < deadline:
        name = f"call {call}"
        try:
            with StepClock(p, between_steps=probe, every=ts.probe_every) as step_clock:
                result = p.training.train_loop(model_cfg, call_cfg(call), *pools,
                                               run.work / f"call{call}")
        except Exception:
            run.operation_failed(name)
            call += 1
            continue
        # step 1 also holds init_params and validation sampling
        timed += step_clock.durations()[1:]
        loss = _check_train(run, name, result, ts.steps)
        if loss is not None:
            losses.append(loss)
        call += 1

    if not timed:
        raise RuntimeError("no train step was timed")
    run.report += [
        ("train_loss_at_end", statistics.median(losses) if losses else math.nan, "mse"),
        ("train_calls", call, "count"),
    ]
    timing_metrics(run, "train", timed, probe,
                   run.import_s + preload + statistics.median(setups))


def _train_traced(run: Run, model_cfg, call_cfg, pools, ts: TrainSetup) -> None:
    # one untimed full-batch step first, so the untraced pass does not pay
    # alone for growing the heap to a full step's tape
    run.program.training.train_loop(model_cfg, replace(call_cfg(0), max_steps=1), *pools,
                                    run.work / "warmup")
    losses = []

    def op(i: int, tag: str):
        return run.program.training.train_loop(model_cfg, call_cfg(i), *pools,
                                               run.work / f"{tag}{i}")

    def check(i: int, tag: str, result) -> None:
        loss = _check_train(run, f"{tag} call {i}", result, ts.steps)
        if tag == "traced" and loss is not None:
            losses.append(loss)

    traced_pass(run, trace_units(run.seconds, ts.call_s), op, check, losses)


WORKLOADS = {"enhance_mixed_len": enhance_mixed_len,
             "train_c4_b10": train, "train_tiny": train}
