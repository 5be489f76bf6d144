"""scripts/fingerprint.py: the same digests on every run, in a few seconds."""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_fingerprint_is_stable_run_to_run():
    """One run here and one, through --against, in a subprocess under the
    same src/: the same lines, so no diff and exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "fingerprint.py"),
                           "--against", str(ROOT / "src")],
                          env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    names = [line.split()[0] for line in lines]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in lines), done.stdout
    assert len(set(names)) == len(names)
    for prefix in ("init_params/", "checkpoint/", "sample_mixture/", "wav_pool/",
                   "train/", "enhance_waveform/", "eval/", "grad/"):
        assert any(name.startswith(prefix) for name in names), prefix
    assert elapsed < 20.0, f"two runs took {elapsed:.1f}s"
