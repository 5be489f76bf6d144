"""Waveform I/O, STFT analysis/synthesis, and SNR-controlled mixing.

All pipeline audio is mono 16 kHz. Analysis uses a square-root periodic Hann
window (length 512, hop 256 by default), which satisfies COLA at 50% overlap,
so synthesis with the same window reconstructs exactly after dividing by the
summed squared windows. Signals are end-padded with zeros to a whole number
of frames; there is no center padding.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

PIPELINE_RATE = 16000


class AudioError(ValueError):
    """Unsupported or malformed audio input."""


class DegenerateSignalError(AudioError):
    """Signal has no power where power is required."""


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int = PIPELINE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size < 1:
            raise AudioError("waveform must be a non-empty 1-D signal")
        if not np.isfinite(self.samples).all():
            raise AudioError("non-finite samples")

    def __len__(self):
        return self.samples.size

    def power(self) -> float:
        return float(np.mean(self.samples ** 2))


@dataclass
class StftConfig:
    win_length: int = 512
    hop: int = 256
    fft_size: int = 512

    def __post_init__(self):
        if not (1 <= self.hop <= self.win_length <= self.fft_size):
            raise AudioError("require hop <= win_length <= fft_size")

    @property
    def bins(self) -> int:
        return self.fft_size // 2 + 1

    def window_values(self) -> np.ndarray:
        # periodic (DFT-even) Hann, then square root: exact COLA at hop = win/2
        n = np.arange(self.win_length)
        hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / self.win_length)
        return np.sqrt(hann)


# ---------------------------------------------------------------------------
# RIFF/WAVE files: mono 16 kHz, PCM16 or IEEE float32 only
# ---------------------------------------------------------------------------

def load_wav(path) -> Waveform:
    """Read a mono 16 kHz WAV file (PCM16 little-endian or IEEE float32)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise AudioError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise AudioError(f"{path}: truncated {cid.decode('latin-1')!r} chunk,"
                             f" {size} bytes declared but {len(body)} present")
        if cid == b"fmt ":
            fmt = body
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise AudioError(f"{path}: missing fmt or data chunk")
    audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format == 0xFFFE and len(fmt) >= 26:  # WAVE_FORMAT_EXTENSIBLE
        (audio_format,) = struct.unpack_from("<H", fmt, 24)
    if channels != 1:
        raise AudioError(f"{path}: unsupported channel count {channels}")
    if rate != PIPELINE_RATE:
        raise AudioError(f"{path}: unsupported sample rate {rate}")
    if audio_format == 1 and bits == 16:
        dtype, scale = "<i2", 32768.0
    elif audio_format == 3 and bits == 32:
        dtype, scale = "<f4", 1.0
    else:
        raise AudioError(f"{path}: unsupported encoding (format {audio_format}, {bits}-bit)")
    if len(data) % (bits // 8):
        raise AudioError(f"{path}: data chunk of {len(data)} bytes is not a whole"
                         f" number of {bits}-bit samples")
    samples = np.frombuffer(data, dtype=dtype).astype(np.float64) / scale
    try:
        return Waveform(samples, rate)
    except AudioError as exc:
        raise AudioError(f"{path}: {exc}") from None


def save_wav(path, wav: Waveform, encoding: str = "pcm16") -> None:
    """Write a mono WAV file; PCM16 clips to [-1, 1] before quantizing."""
    if encoding == "pcm16":
        clipped = np.clip(wav.samples, -1.0, 1.0)
        payload = np.clip(np.rint(clipped * 32768.0), -32768, 32767).astype("<i2").tobytes()
        audio_format, bits = 1, 16
    elif encoding == "float32":
        payload = wav.samples.astype("<f4").tobytes()
        audio_format, bits = 3, 32
    else:
        raise AudioError(f"unsupported encoding {encoding!r}")
    block = bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, audio_format, 1, wav.sample_rate,
        wav.sample_rate * block, block, bits,
        b"data", len(payload))
    with open(path, "wb") as fh:
        fh.write(header + payload)


# ---------------------------------------------------------------------------
# STFT / iSTFT
# ---------------------------------------------------------------------------

def num_frames(n_samples: int, cfg: StftConfig) -> int:
    extra = max(0, n_samples - cfg.win_length)
    return 1 + int(np.ceil(extra / cfg.hop))


def stft(wav: Waveform, cfg: StftConfig | None = None) -> np.ndarray:
    """One-sided complex STFT of shape (frames, bins); frame l covers samples
    [l*hop, l*hop + win_length).

    The signal is end-padded with zeros so the last frame is complete.
    """
    cfg = cfg or StftConfig()
    x = wav.samples
    frames = num_frames(x.size, cfg)
    padded = np.zeros((frames - 1) * cfg.hop + cfg.win_length)
    padded[:x.size] = x
    framed = np.lib.stride_tricks.sliding_window_view(padded, cfg.win_length)[::cfg.hop]
    windowed = framed * cfg.window_values()
    return np.fft.rfft(windowed, n=cfg.fft_size, axis=1)


def istft(spec: np.ndarray, cfg: StftConfig, out_len: int | None = None) -> Waveform:
    """Overlap-add synthesis of a (frames, bins) complex spectrum analysed
    with cfg, using the analysis window normalized by its summed squares,
    truncated to out_len samples."""
    if spec.ndim != 2 or spec.shape[1] != cfg.bins:
        raise AudioError(f"expected (frames, {cfg.bins}) spectrum, got {spec.shape}")
    total = (spec.shape[0] - 1) * cfg.hop + cfg.win_length
    if out_len is None:
        out_len = total
    if out_len > total:
        raise AudioError(f"out_len {out_len} exceeds reconstructable length {total}")
    win = cfg.window_values()
    frames_td = np.fft.irfft(spec, n=cfg.fft_size, axis=1)
    frames_td = frames_td[:, :cfg.win_length] * win
    out = _overlap_add(frames_td, cfg.hop)
    wsum = _overlap_add(np.broadcast_to(win ** 2, frames_td.shape), cfg.hop)
    covered = wsum > 1e-10
    out[covered] /= wsum[covered]
    out[~covered] = 0.0
    return Waveform(out[:out_len])


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    """Sum (n, win) frames placed hop samples apart into one signal of
    (n - 1) * hop + win samples.

    Each frame is zero-padded to k = ceil(win / hop) blocks of hop samples,
    and block j of every frame is added as one slab, shifted j blocks. Going
    from j = k - 1 down to 0 adds each sample's contributions in increasing
    frame order onto a zero start, as a per-sample loop would. The padding
    adds +0.0, which changes no sum: one that starts at +0.0 is never -0.0.
    """
    n, win = frames.shape
    k = -(-win // hop)
    blocks = np.zeros((n, k * hop))
    blocks[:, :win] = frames
    blocks = blocks.reshape(n, k, hop)
    out = np.zeros((n + k - 1, hop))
    for j in range(k - 1, -1, -1):
        out[j:j + n] += blocks[:, j]
    return out.reshape(-1)[:(n - 1) * hop + win]


def magnitude(spec: np.ndarray) -> np.ndarray:
    return np.sqrt(spec.real ** 2 + spec.imag ** 2)


# ---------------------------------------------------------------------------
# SNR mixing
# ---------------------------------------------------------------------------

def mix_at_snr(clean: Waveform, noise: Waveform, snr_db: float,
               rng: np.random.Generator) -> tuple[Waveform, Waveform]:
    """Add a random contiguous noise segment to clean at the requested SNR.

    Returns (noisy, noise_used) where noise_used is the scaled segment that
    was added.
    """
    if len(noise) < len(clean):
        raise AudioError("noise must be at least as long as clean")
    p_clean = clean.power()
    if p_clean <= 0.0:
        raise DegenerateSignalError("clean signal has zero power")
    start = int(rng.integers(0, len(noise) - len(clean) + 1))
    segment = noise.samples[start:start + len(clean)]
    p_noise = float(np.mean(segment ** 2))
    if p_noise <= 0.0:
        raise DegenerateSignalError("noise segment has zero power")
    gain = np.sqrt(p_clean / (p_noise * 10.0 ** (snr_db / 10.0)))
    noise_used = Waveform(gain * segment, clean.sample_rate)
    noisy = Waveform(clean.samples + noise_used.samples, clean.sample_rate)
    return noisy, noise_used
