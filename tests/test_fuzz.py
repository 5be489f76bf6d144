"""Seeded byte-mutation fuzzing of the two binary parsers: WAV files and
checkpoints.

Every mutant of a valid file (bytes flipped, cut off, inserted or
overwritten) must either raise the parser's own error naming the path, or
load to a result that saves and loads back to the same values. Half of the
edits land in the file's first bytes, where the parsers read their fields.
"""

import numpy as np
import pytest

from convmamba.audio import AudioError, Waveform, load_wav, read_wav, save_wav
from convmamba.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from convmamba.network import ModelConfig, init_params

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
