#!/usr/bin/env python3
"""Benchmark for convmamba: enhance real-time factor and train throughput.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # each workload in its own process
    python3 perfbench/run.py --write-spec        # regenerate BENCHMARK.json

Run from anywhere inside a checkout: the program is imported from the
checkout's own src/ directory, never from an installed copy. One run is
one process and one workload. The last line of standard output is a JSON
object {"correct", "attempted", "failed", "metrics"}: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1. See perfbench/README.md.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import spec  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# One BLAS thread: the run is a single closed-loop client, and on a 2-core
# machine a second BLAS thread moved enhance RTF by about 15% run to run.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROGRAM_MODULES = ("audio", "checkpoint", "layers", "masks", "metrics",
                   "network", "pipeline", "scan", "tensor", "training")


class BenchError(Exception):
    """The benchmark cannot run here; exit nonzero without a result."""


def import_program() -> types.SimpleNamespace:
    src = ROOT / "src"
    if not (src / "convmamba" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {src}")
    sys.path.insert(0, str(src))
    import importlib
    package = importlib.import_module("convmamba")
    if Path(package.__file__).resolve().parent != (src / "convmamba").resolve():
        raise BenchError(f"convmamba imported from {package.__file__}, not {src}")
    mods = {m: importlib.import_module(f"convmamba.{m}") for m in PROGRAM_MODULES}
    return types.SimpleNamespace(package=package, MODULES=("package",) + PROGRAM_MODULES,
                                 **mods)


def environment(seed: int) -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_THREADS, "seed": seed}


def run_one(args) -> int:
    for var in BLAS_VARS:   # before NumPy is first imported
        os.environ[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    program = import_program()
    import workloads
    import_s = time.perf_counter() - _STARTED

    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    print("env: " + json.dumps(environment(args.seed)))
    work = HERE / "_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    run = workloads.Run(program=program, workload=args.workload, seed=args.seed,
                        seconds=args.seconds, trace=bool(args.trace), work=work,
                        spans_path=HERE / "_out" / f"spans-{args.workload}-s{args.seed}.csv",
                        import_s=import_s)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = {m[0] for m in (spec.per_layer() if args.trace else spec.END_TO_END)}
    if set(run.metrics) != wanted:
        raise BenchError(f"metrics {sorted(set(run.metrics) ^ wanted)} disagree with spec.py")
    for name, value, unit in run.report:
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_rate = {run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed} failed of {run.attempted} checks)")
    for name, (value, unit) in run.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, one after the other."""
    status = 0
    for name, _ in spec.WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    names = [n for n, _ in spec.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        print(f"wrote {spec.write_benchmark_json(ROOT)}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
