"""scripts/fingerprint.py: the same digests on every run, in a few seconds."""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_fingerprint() -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "fingerprint.py")],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    return done.stdout


def test_fingerprint_is_stable_run_to_run():
    start = time.perf_counter()
    first = run_fingerprint()
    second = run_fingerprint()
    elapsed = time.perf_counter() - start
    assert first == second
    lines = first.splitlines()
    names = [line.split()[0] for line in lines]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines), first
    assert len(set(names)) == len(names)
    for prefix in ("init_params/", "checkpoint/", "sample_mixture/", "wav_pool/",
                   "train/", "enhance_waveform/", "eval/", "grad/"):
        assert any(name.startswith(prefix) for name in names), prefix
    assert elapsed < 20.0, f"two runs took {elapsed:.1f}s"
