#!/usr/bin/env python3
"""Print one "name sha256" line per fixed-seed artefact of the program.

    PYTHONPATH=src python3 scripts/fingerprint.py

Two source trees that print the same lines compute the same bits for:
init_params (two presets, both dtypes), a checkpoint save -> load -> save,
training mixtures with their IRM and PSM targets, a PCM16 and a float32
file each loaded twice through a WavPool, short training runs
(batch 1, and batch 3 with IRM and PSM targets on two worker processes:
metrics.csv and the final checkpoint), enhance_waveform on a 1 s file and
on a 500-frame file (four time blocks, on two layer groups), the eval CSV in
each mode, and one convmamba-4 item's loss and gradient (a 2 s,
125-frame item, whose scans the adjoint recomputes chunk by chunk). The
run takes a few seconds and writes only to a temporary directory.

To compare this tree with another, name the other tree's src/:

    PYTHONPATH=src python3 scripts/fingerprint.py --against OTHER/src

which prints this tree's lines, runs the script again in a subprocess with
PYTHONPATH set to OTHER/src alone, prints a unified diff of the other
tree's lines against these, and exits 1 if they differ.
"""

import argparse
import difflib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from convmamba import network, training
from convmamba.audio import StftConfig, Waveform, load_wav, magnitude, save_wav
from convmamba.checkpoint import load_checkpoint, save_checkpoint
from convmamba.masks import MaskKind, mask_target
from convmamba.network import ModelConfig, init_params
from convmamba.pipeline import enhance_waveform, evaluate_corpus, rows_to_csv
from convmamba.training import (TrainConfig, TrainItem, WavPool, list_pool,
                                sample_mixture, train_loop)

RATE = 16000


def digest(data) -> str:
    return hashlib.sha256(data).hexdigest()


def write_corpus(root: Path, rng: np.random.Generator) -> tuple[Path, Path]:
    """Six 0.5 s two-tone utterances and two 1.2 s white-noise clips."""
    clean_dir, noise_dir = root / "clean", root / "noise"
    clean_dir.mkdir()
    noise_dir.mkdir()
    t = np.arange(RATE // 2) / RATE
    for i in range(6):
        f0 = rng.uniform(150.0, 500.0)
        env = 0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(1.0, 4.0) * t)
        tone = env * (0.3 * np.sin(2 * np.pi * f0 * t) + 0.1 * np.sin(4 * np.pi * f0 * t))
        save_wav(clean_dir / f"clean_{i}.wav", Waveform(tone), encoding="float32")
    for i in range(2):
        noise = 0.3 * rng.standard_normal(int(1.2 * RATE))
        save_wav(noise_dir / f"noise_{i}.wav", Waveform(noise), encoding="float32")
    return clean_dir, noise_dir


def fingerprints(root: Path):
    for preset in ("convmamba-4", "mamba-4"):
        for dtype in (np.float32, np.float64):
            weights = init_params(ModelConfig.preset(preset), seed=0, dtype=dtype)
            yield f"init_params/{preset}/{np.dtype(dtype).name}", digest(weights.flat.tobytes())

    big_cfg = ModelConfig.preset("convmamba-4")
    big = init_params(big_cfg, seed=0)
    save_checkpoint(root / "a.ckpt", big, big_cfg)
    save_checkpoint(root / "b.ckpt", *load_checkpoint(root / "a.ckpt"))
    yield "checkpoint/save", digest((root / "a.ckpt").read_bytes())
    yield "checkpoint/save_load_save", digest((root / "b.ckpt").read_bytes())

    rng = np.random.default_rng(2024)
    clean_dir, noise_dir = write_corpus(root, rng)
    pools = (WavPool(list_pool(clean_dir)), WavPool(list_pool(noise_dir)))
    for target in (MaskKind.IRM, MaskKind.PSM):
        draw = np.random.default_rng(5)
        items = [sample_mixture(*pools, TrainConfig(target=target), draw)
                 for _ in range(4)]
        yield (f"sample_mixture/{target.value}",
               digest(b"".join(i.noisy_mag.tobytes() + i.target.tobytes() for i in items)))

    # the corpus decode: a PCM16 and a float32 file, each loaded twice
    draw = np.random.default_rng(4)
    for encoding in ("pcm16", "float32"):
        path = root / f"decode_{encoding}.wav"
        save_wav(path, Waveform(0.5 * draw.standard_normal(RATE)), encoding=encoding)
        pool = WavPool([path])
        yield (f"wav_pool/{encoding}",
               digest(pool.load(0).samples.tobytes() + pool.load(0).samples.tobytes()))

    small = ModelConfig(d_model=16, n_layers=2)
    runs = (("batch1_irm", 1, MaskKind.IRM), ("batch3_irm", 3, MaskKind.IRM),
            ("batch3_psm", 3, MaskKind.PSM))
    # two workers on any host, so the batch-3 runs take the worker-process path
    network._usable_cores = lambda: 2
    for name, batch, target in runs:
        cfg = TrainConfig(batch_size=batch, target=target, snr_lo=-5, snr_hi=10,
                          use_warmup=False, lr_base=1e-3, epochs=3, max_steps=6,
                          val_items=2, checkpoint_every=0, seed=11)
        result = train_loop(small, cfg, *pools, root / name)
        yield f"train/{name}/metrics.csv", digest(result.metrics_csv.read_bytes())
        yield f"train/{name}/final.ckpt", digest(result.final_checkpoint.read_bytes())

    noisy = Waveform(0.2 * np.sin(2 * np.pi * 300.0 * np.arange(RATE) / RATE)
                     + 0.1 * rng.standard_normal(RATE))
    save_wav(root / "noisy.wav", noisy, encoding="float32")
    enhanced, mask = enhance_waveform(load_wav(root / "noisy.wav"), big, big_cfg)
    yield "enhance_waveform/samples", digest(enhanced.samples.tobytes())
    yield "enhance_waveform/mask", digest(mask.tobytes())
    # 8 s and 256 samples are 500 frames: the layers run block by block, and
    # on two threads, since _usable_cores reads 2 here
    n = 8 * RATE + 256
    draw = np.random.default_rng(8)
    long_noisy = Waveform(0.2 * np.sin(2 * np.pi * 300.0 * np.arange(n) / RATE)
                          + 0.1 * draw.standard_normal(n))
    enhanced, mask = enhance_waveform(long_noisy, big, big_cfg)
    yield "enhance_waveform/8s/samples", digest(enhanced.samples.tobytes())
    yield "enhance_waveform/8s/mask", digest(mask.tobytes())

    trained, trained_cfg = load_checkpoint(root / "batch1_irm" / "checkpoints" / "final.ckpt")
    for mode in ("model", "oracle", "passthrough"):
        rows = evaluate_corpus(*pools, [-5, 0, 5], mode, trained, trained_cfg,
                               StftConfig(), seed=3, max_items=3)
        yield f"eval/{mode}.csv", digest(rows_to_csv(rows).encode())

    # 125 frames are 8 scan chunks at d_inner 512 (the runs above have one)
    n = 2 * RATE + 256
    draw = np.random.default_rng(7)
    clean = Waveform(0.3 * np.sin(2 * np.pi * 220.0 * np.arange(n) / RATE))
    noisy = Waveform(clean.samples + 0.1 * draw.standard_normal(n))
    spec_y, target = mask_target(clean, noisy, MaskKind.IRM, StftConfig())
    loss = training.batch_gradients([TrainItem(magnitude(spec_y), target, {})], big, big_cfg)
    yield ("grad/convmamba-4/float32",
           digest(np.float64(loss).tobytes() + big.flat_grad.tobytes()))


def run_under(src: Path) -> list[str]:
    """This script's output lines with PYTHONPATH set to src alone."""
    done = subprocess.run([sys.executable, __file__],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(f"{done.stderr}fingerprint.py under {src} exited with code "
                         f"{done.returncode}\n")
        raise SystemExit(2)
    return done.stdout.splitlines(keepends=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="OTHER_SRC", type=Path,
                        help="run again under another tree's src/, print a unified "
                             "diff of the two outputs, and exit 1 if they differ")
    args = parser.parse_args()
    lines = []
    with tempfile.TemporaryDirectory(prefix="convmamba-fingerprint-") as tmp:
        for name, value in fingerprints(Path(tmp)):
            lines.append(f"{name} {value}\n")
            print(lines[-1], end="", flush=True)
    if args.against is None:
        return 0
    here = Path(network.__file__).resolve().parents[1]
    diff = list(difflib.unified_diff(run_under(args.against), lines,
                                     fromfile=str(args.against), tofile=str(here)))
    sys.stdout.writelines(diff)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
