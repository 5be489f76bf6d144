"""Command-line interface: train | enhance | eval | gradcheck.

Every command reads one run config, built from --config, --set and --seed
before it starts. All commands are deterministic under a fixed seed, and
every error path exits nonzero with a single "error: ..." line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import tensor as tz
from .audio import AudioError, load_wav, save_wav
from .checkpoint import CheckpointError, load_checkpoint
from .pipeline import enhance_waveform, evaluate_corpus, rows_to_csv
from .runconfig import ConfigError, RunConfig, load_run_config
from .training import WavPool, list_pool, train_loop

GRAD_TOLERANCE = 1e-4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="convmamba",
                description="Selective state-space speech enhancement")
    p.add_argument("--config", metavar="PATH", help="key = value run config")
    p.add_argument("--seed", type=int, help="override train.seed / sampling seed")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   dest="overrides", help="override a config key (repeatable)")
    p.add_argument("--precision", choices=["f32", "f64"], default="f32")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("train", help="run the training loop")

    e = sub.add_parser("enhance", help="enhance one WAV file")
    e.add_argument("checkpoint")
    e.add_argument("input_wav")
    e.add_argument("output_wav")

    v = sub.add_parser("eval", help="mix, enhance, and report metrics")
    v.add_argument("checkpoint", nargs="?", default=None)
    v.add_argument("--snrs", default="0", help="comma-separated dB list")
    v.add_argument("--mode", choices=["model", "oracle", "passthrough"],
                   default="model")
    v.add_argument("--count", type=int, default=None,
                   help="limit the number of clean files")
    v.add_argument("--out", default=None, help="write the CSV here")

    sub.add_parser("gradcheck", help="finite-difference gradient audit")
    return p


def corpus_pools(rc: RunConfig) -> list[WavPool]:
    """The clean and noise pools that the data.* keys name."""
    if rc.clean_dir is None or rc.noise_dir is None:
        raise ConfigError("data.clean_dir and data.noise_dir are required")
    pools = []
    for name, root, manifest in (("clean", rc.clean_dir, rc.clean_manifest),
                                 ("noise", rc.noise_dir, rc.noise_manifest)):
        try:
            pools.append(WavPool(list_pool(root, manifest)))
        except FileNotFoundError as exc:
            raise ConfigError(f"{name} root not found or empty: {exc}") from exc
    return pools


def cmd_train(args, rc: RunConfig) -> int:
    result = train_loop(rc.model, rc.train, *corpus_pools(rc), rc.out_dir, rc.stft)
    print(f"trained {result.steps} steps; final train loss "
          f"{result.final_train_loss:.6e}; best epoch {result.best_epoch} "
          f"(val {result.best_val_loss:.6e})")
    print(f"final checkpoint: {result.final_checkpoint}")
    print(f"metrics: {result.metrics_csv}")
    return 0


def cmd_enhance(args, rc: RunConfig) -> int:
    weights, cfg = load_checkpoint(args.checkpoint)
    noisy = load_wav(args.input_wav)
    enhanced, _ = enhance_waveform(noisy, weights, cfg, rc.stft)
    save_wav(args.output_wav, enhanced, encoding="pcm16")
    print(f"wrote {args.output_wav} ({len(enhanced)} samples)")
    return 0


def cmd_eval(args, rc: RunConfig) -> int:
    snrs = []
    for item in filter(str.strip, args.snrs.split(",")):
        try:
            snrs.append(int(item))
        except ValueError:
            raise ConfigError(f"--snrs takes whole dB values, got {item.strip()!r}") from None
    if not snrs:
        raise ConfigError(f"--snrs lists no value: {args.snrs!r}")
    if args.count is not None and args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    weights = cfg = None
    if args.mode == "model":
        if args.checkpoint is None:
            raise ConfigError("eval in model mode needs a checkpoint")
        weights, cfg = load_checkpoint(args.checkpoint)
    rows = evaluate_corpus(*corpus_pools(rc), snrs, args.mode, weights, cfg,
                           rc.stft, rc.train.seed, rc.train.target, args.count)
    csv_text = rows_to_csv(rows)
    if args.out:
        Path(args.out).write_text(csv_text, encoding="utf-8")
        print(f"wrote {args.out} ({len(rows)} items)")
    else:
        sys.stdout.write(csv_text)
    return 0


def cmd_gradcheck(args, rc: RunConfig) -> int:
    from .gradcheck import run_suite
    results = run_suite()
    failures = []
    for name, err in results:
        status = "ok" if err < GRAD_TOLERANCE else "FAIL"
        print(f"{name:28s} max_rel_err={err:.3e} {status}")
        if err >= GRAD_TOLERANCE:
            failures.append(name)
    if failures:
        print(f"gradcheck failed for: {', '.join(failures)}")
        return 1
    print(f"gradcheck passed: {len(results)} checks below {GRAD_TOLERANCE:g}")
    return 0


_COMMANDS = {"train": cmd_train, "enhance": cmd_enhance, "eval": cmd_eval,
             "gradcheck": cmd_gradcheck}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        rc = load_run_config(args.config, args.overrides, args.seed)
        tz.set_default_dtype(args.precision)
        return _COMMANDS[args.command](args, rc)
    except (ConfigError, AudioError, CheckpointError, FileNotFoundError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        tz.set_default_dtype("f32")


if __name__ == "__main__":
    sys.exit(main())
