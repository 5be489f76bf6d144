"""Seeded synthetic corpora: speech-like tones, coloured noise, PCM16 WAVs.

Nothing here imports the program under test; the program only ever sees
the files written by write_wav. The same seed always yields the same
samples.
"""

from __future__ import annotations

import wave
from pathlib import Path

import numpy as np

RATE = 16000
NOISE_COLOURS = ("white", "pink", "brown")
ENHANCE_LENGTHS_S = (1, 2, 4, 8, 16, 32)
ENHANCE_SNR_DB = (-10, 20)


def speech_like(rng: np.random.Generator, seconds: float) -> np.ndarray:
    """Harmonic tone with a wandering pitch and slow syllable/phrase envelopes."""
    n = int(round(seconds * RATE))
    t = np.arange(n) / RATE
    f0 = rng.uniform(100.0, 250.0) * (
        1.0 + 0.05 * np.sin(2 * np.pi * rng.uniform(0.2, 1.0) * t))
    phase = 2 * np.pi * np.cumsum(f0) / RATE
    x = np.zeros(n)
    for k in range(5):
        x += 0.7 ** k * np.sin((k + 1) * phase + rng.uniform(0, 2 * np.pi))
    syllable = 0.55 + 0.45 * np.sin(2 * np.pi * rng.uniform(2.0, 5.0) * t
                                    + rng.uniform(0, 2 * np.pi))
    phrase = 0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(0.2, 0.6) * t
                                + rng.uniform(0, 2 * np.pi))
    x *= syllable * phrase
    return 0.5 * x / np.max(np.abs(x))


def noise(rng: np.random.Generator, seconds: float, colour: str) -> np.ndarray:
    """Gaussian noise with a 1/f^0 (white), 1/f (pink) or 1/f^2 (brown)
    power spectrum, scaled to an RMS of 0.1."""
    n = int(round(seconds * RATE))
    x = rng.standard_normal(n)
    if colour != "white":
        slope = {"pink": 0.5, "brown": 1.0}[colour]
        spec = np.fft.rfft(x)
        f = np.arange(spec.size, dtype=np.float64)
        f[0] = 1.0
        x = np.fft.irfft(spec / f ** slope, n=n)
    return 0.1 * x / np.sqrt(np.mean(x ** 2))


def mix(clean: np.ndarray, noise_seg: np.ndarray, snr_db: float) -> np.ndarray:
    """clean + noise at the given SNR, scaled down if it would clip."""
    gain = np.sqrt(np.mean(clean ** 2) / (np.mean(noise_seg ** 2) * 10 ** (snr_db / 10)))
    noisy = clean + gain * noise_seg
    peak = np.max(np.abs(noisy))
    return noisy * (0.95 / peak) if peak > 0.95 else noisy


def write_wav(path: Path, samples: np.ndarray) -> None:
    """Mono 16 kHz PCM16 little-endian WAV."""
    pcm = np.clip(np.rint(samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(RATE)
        fh.writeframes(pcm.tobytes())


def wav_frames(path: Path) -> int:
    with wave.open(str(path), "rb") as fh:
        return fh.getnframes()


def noisy_file(rng: np.random.Generator, seconds: float, snr_db: int) -> np.ndarray:
    clean = speech_like(rng, seconds)
    colour = NOISE_COLOURS[int(rng.integers(len(NOISE_COLOURS)))]
    return mix(clean, noise(rng, seconds, colour), snr_db)


def enhance_round(seed: int, index: int) -> list[tuple[float, int, np.ndarray]]:
    """One file of each length in ENHANCE_LENGTHS_S, in a seeded order, each
    at an integer SNR drawn uniformly from ENHANCE_SNR_DB: [(s, dB, samples)]."""
    rng = np.random.default_rng([seed, index])
    out = []
    for seconds in rng.permutation(ENHANCE_LENGTHS_S):
        snr_db = int(rng.integers(ENHANCE_SNR_DB[0], ENHANCE_SNR_DB[1] + 1))
        out.append((float(seconds), snr_db, noisy_file(rng, float(seconds), snr_db)))
    return out


def train_corpus(root: Path, seed: int, n_clean: int, clean_s: tuple[float, float],
                 n_noise: int, noise_s: float) -> tuple[list[Path], list[Path]]:
    """Write clean utterances with lengths evenly spaced over clean_s, in a
    seeded order (so every seed has the same total duration), and noise
    clips cycling through the colours; return (clean paths, noise paths)."""
    rng = np.random.default_rng(seed)
    (root / "clean").mkdir(parents=True, exist_ok=True)
    (root / "noise").mkdir(parents=True, exist_ok=True)
    clean = []
    for i, seconds in enumerate(rng.permutation(np.linspace(*clean_s, n_clean))):
        path = root / "clean" / f"utt{i:03d}.wav"
        write_wav(path, speech_like(rng, seconds))
        clean.append(path)
    noises = []
    for i in range(n_noise):
        colour = NOISE_COLOURS[i % len(NOISE_COLOURS)]
        path = root / "noise" / f"{colour}{i:02d}.wav"
        write_wav(path, noise(rng, noise_s, colour))
        noises.append(path)
    return clean, noises
