"""Seeded byte-mutation fuzzing of the three parsers: WAV files,
checkpoints and run configs.

Every mutant of a valid file (bytes flipped, cut off, inserted or
overwritten) must either raise the parser's own error naming the path, or
load to a result that saves and loads back to the same values. Half of the
edits land in the file's first bytes, where the parsers read their fields.
A run config, or a --set item, must raise a ConfigError naming its key
(its section, for a rule across keys), or parse back to an equal config
from its written form.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from convmamba.audio import AudioError, Waveform, load_wav, read_wav, save_wav
from convmamba.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from convmamba.masks import MaskKind
from convmamba.network import ModelConfig, init_params
from convmamba.runconfig import (SCHEMA, ConfigError, RunConfig, build_run_config,
                                 load_run_config, parse_config_text, parse_overrides)

MUTANTS = 500


def mutate(raw: bytes, rng: np.random.Generator, head: int) -> bytes:
    """One to three random edits of raw."""
    out = bytearray(raw)
    for _ in range(int(rng.integers(1, 4))):
        span = min(head, len(out)) if rng.random() < 0.5 else len(out)
        at = int(rng.integers(0, span + 1))
        op = rng.integers(0, 4)
        if op == 0:                        # flip some bits of one byte
            if at < len(out):
                out[at] ^= int(rng.integers(1, 256))
        elif op == 1:                      # cut the file off
            del out[at:]
        elif op == 2:                      # insert up to 8 random bytes
            out[at:at] = rng.bytes(int(rng.integers(1, 9)))
        else:                              # overwrite up to 4 bytes, often with 0xFF
            n = int(rng.integers(1, 5))
            out[at:at + n] = b"\xff" * n if rng.random() < 0.5 else rng.bytes(n)
    return bytes(out)


def fuzz(path, raw, head, seed, round_trip, error):
    """Write MUTANTS mutants of raw to path in turn; return how many loaded."""
    rng = np.random.default_rng(seed)
    loaded = 0
    for i in range(MUTANTS):
        path.write_bytes(mutate(raw, rng, head))
        try:
            round_trip(path)
        except error as exc:
            assert str(path) in str(exc), (i, exc)
        else:
            loaded += 1
    return loaded


@pytest.mark.parametrize("encoding,seed", [("pcm16", 1), ("float32", 2)])
def test_wav_mutants_raise_audio_error_or_round_trip(tmp_path, encoding, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path / "clip.wav"
    save_wav(path, Waveform(rng.uniform(-0.9, 0.9, 800)), encoding=encoding)
    raw = path.read_bytes()
    again = tmp_path / "again.wav"

    def round_trip(mutant):
        wav = load_wav(mutant)
        # save in the encoding the mutant holds, which may differ from raw's
        kept = "pcm16" if read_wav(mutant)[0].dtype == np.int16 else "float32"
        save_wav(again, wav, encoding=kept)
        assert load_wav(again).samples.tobytes() == wav.samples.tobytes()

    loaded = fuzz(path, raw, 64, seed, round_trip, AudioError)
    assert 0 < loaded < MUTANTS


def test_checkpoint_mutants_raise_checkpoint_error_or_round_trip(tmp_path):
    cfg = ModelConfig(d_model=8, n_layers=1, n_state=4, bins=9)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(cfg, 0), cfg)
    raw = path.read_bytes()
    again = tmp_path / "again.ckpt"

    def round_trip(mutant):
        weights, got = load_checkpoint(mutant)
        save_checkpoint(again, weights, got)
        back, back_cfg = load_checkpoint(again)
        assert back_cfg == got
        assert back.flat.tobytes() == weights.flat.tobytes()

    loaded = fuzz(path, raw, 512, 3, round_trip, CheckpointError)
    assert 0 < loaded < MUTANTS


CONFIG_TEXT = (Path(__file__).resolve().parent.parent / "configs" / "overfit.cfg").read_bytes()
CONFIG_BYTES = b"=#.\n 0123456789e"


def mutate_config(raw: bytes, rng: np.random.Generator) -> bytes:
    """One to three edits of raw, half of them at the start of a value: a
    byte's bits flipped, up to 4 bytes deleted, or up to 3 of CONFIG_BYTES
    inserted or written over it."""
    out = bytearray(raw)
    for _ in range(int(rng.integers(1, 4))):
        values = [i + 2 for i, byte in enumerate(out) if byte == ord("=")]
        at = (int(rng.choice(values)) if values and rng.random() < 0.5
              else int(rng.integers(0, len(out) + 1)))
        at = min(at, len(out))
        op = rng.integers(0, 4)
        if op == 0:
            if at < len(out):
                out[at] ^= int(rng.integers(1, 256))
        elif op == 1:
            del out[at:at + int(rng.integers(1, 5))]
        else:
            new = bytes(rng.choice(list(CONFIG_BYTES), int(rng.integers(1, 4))).tolist())
            out[at:at + (len(new) if op == 3 else 0)] = new
    return bytes(out)


def where(message: str, source: str) -> str | None:
    """What a ConfigError names: "line", the source and line of a line that is
    no known `key = value`; "key", the key of a bad value; or "section", the
    section and one of its keys, for a rule of the section's constructor."""
    if message.startswith(f"{source}:"):
        return "line"
    bad_section = re.match(r"bad (\w+) config: ", message)
    if bad_section:
        named = any(re.search(rf"\b{key.split('.')[1]}\b", message)
                    for key in SCHEMA if key.startswith(bad_section[1] + "."))
        return "section" if named else None
    bad_value = re.match(r"bad value for (\S+): ", message)
    if bad_value:
        return "key" if bad_value[1] in SCHEMA else None
    return "key" if any(key in message for key in SCHEMA) else None


def write_back(rc: RunConfig) -> list[str]:
    """rc as one `key = value` item per SCHEMA key, without model.preset and
    the data.* keys it leaves unset."""
    lines = []
    for key in SCHEMA:
        if key == "model.preset":
            continue
        section, name = key.split(".")
        if section in ("model", "train", "stft"):
            value = getattr(getattr(rc, section), name)
        else:
            value = rc.out_dir if key == "out.dir" else getattr(rc, name)
        if value is None:
            continue
        if isinstance(value, bool):
            value = str(value).lower()
        elif isinstance(value, MaskKind):
            value = value.value
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return lines


def config_outcome(build, source, parse):
    """What a ConfigError names (see where), or "loaded" for a RunConfig that
    parse, given its written-back items, builds again equal."""
    try:
        rc = build()
    except ConfigError as exc:
        named = where(str(exc), source)
        assert named, exc
        return named
    assert build_run_config(parse(write_back(rc))) == rc
    return "loaded"


def test_config_mutants_raise_config_error_naming_the_key_or_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "run.cfg"
    outcomes = []
    for _ in range(MUTANTS):
        raw = mutate_config(CONFIG_TEXT, rng)
        path.write_bytes(raw)
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            with pytest.raises(ConfigError, match=re.escape(str(path))):
                load_run_config(path, [])
            outcomes.append("undecodable")
            continue
        outcomes.append(config_outcome(lambda: load_run_config(path, []), str(path),
                                       lambda lines: parse_config_text("\n".join(lines))))
    # mutated --set items, decoded as a POSIX argv is; '#' starts no comment there
    items = [line for line in CONFIG_TEXT.split(b"\n") if b"=" in line and not line.startswith(b"#")]
    for i in range(MUTANTS):
        item = mutate_config(items[i % len(items)], rng).decode("utf-8", "surrogateescape")
        outcomes.append(config_outcome(lambda: build_run_config(parse_overrides([item])),
                                       "--set", parse_overrides))
    counts = {kind: outcomes.count(kind)
              for kind in ("undecodable", "line", "key", "section", "loaded")}
    assert min(counts.values()) > 0, counts
