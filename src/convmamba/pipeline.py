"""End-to-end enhancement and corpus evaluation used by the CLI."""

from __future__ import annotations

from collections import deque

import numpy as np

from .audio import (OverlapAdd, StftConfig, Waveform, istft, magnitude,
                    mix_at_snr, num_frames, stft_frames)
from .masks import MaskKind, apply_mask, mask_target
from .metrics import seg_snr, si_sdr
from .network import ModelConfig, NetworkWeights, stream_mask
from .tensor import Tensor, default_dtype
from .training import WavPool


class _Frames:
    """The magnitude frames of a waveform's STFT, computed as they are read
    (the source of network.stream_mask); each read block's complex rows are
    kept until take hands them out, in frame order."""

    def __init__(self, wav: Waveform, cfg: StftConfig):
        self.samples, self.cfg = wav.samples, cfg
        self.frames = num_frames(len(wav), cfg)
        self.dtype = default_dtype()
        self.kept: deque[np.ndarray] = deque()
        self.used = 0   # rows of kept[0] already taken

    def __len__(self) -> int:
        return self.frames

    def __getitem__(self, span: slice) -> np.ndarray:
        stop = min(span.stop, self.frames)
        spec = stft_frames(self.samples, span.start, stop - span.start, self.cfg)
        self.kept.append(spec)
        return Tensor(magnitude(spec)).data

    def take(self, n: int) -> np.ndarray:
        """The next n complex rows."""
        parts = []
        while n:
            part = self.kept[0][self.used:self.used + n]
            parts.append(part)
            n -= len(part)
            self.used += len(part)
            if self.used == len(self.kept[0]):
                self.kept.popleft()
                self.used = 0
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def enhance_waveform(noisy: Waveform, weights: NetworkWeights, cfg: ModelConfig,
                     stft_cfg: StftConfig | None = None) -> tuple[Waveform, np.ndarray]:
    """Mask-based enhancement: STFT, estimated mask on the noisy phase,
    inverse STFT trimmed to the input length. Returns (waveform, mask).

    A unidirectional model takes each time block of frames through the STFT,
    the network and the overlap-add in the layer-group pipeline
    (network.stream_mask), so of the arrays it makes only the output samples
    and the mask span the whole file."""
    stft_cfg = stft_cfg or StftConfig()
    if stft_cfg.bins != cfg.bins:
        raise ValueError(f"the STFT (fft_size {stft_cfg.fft_size}) gives "
                         f"{stft_cfg.bins} bins, but the model takes {cfg.bins}")
    frames = _Frames(noisy, stft_cfg)
    synth = OverlapAdd(len(frames), stft_cfg, out_len=len(noisy))
    mask = stream_mask(frames, weights, cfg,
                       lambda rows: synth.add(apply_mask(frames.take(len(rows)), rows)))
    return synth.result(), mask


def evaluate_pair(clean: Waveform, noisy: Waveform, mode: str,
                  weights: NetworkWeights | None, cfg: ModelConfig | None,
                  stft_cfg: StftConfig,
                  target_kind: MaskKind = MaskKind.IRM) -> dict[str, float]:
    """Enhance one mixture under the given mode and score it against clean:
    the SI-SDR of the input and of the output, the output's segmental SNR,
    and mask_mse, which compares the mask that was applied against the ideal
    target for the pair."""
    spec_y, target = mask_target(clean, noisy, target_kind, stft_cfg)

    if mode == "passthrough":
        enhanced = noisy
        used_mask = np.ones_like(target)
    elif mode == "oracle":
        enhanced = istft(apply_mask(spec_y, target), stft_cfg, out_len=len(noisy))
        used_mask = target
    elif mode == "model":
        enhanced, used_mask = enhance_waveform(noisy, weights, cfg, stft_cfg)
    else:
        raise ValueError(f"unknown eval mode {mode!r}")

    return dict(si_sdr_noisy_db=si_sdr(noisy, clean),
                si_sdr_db=si_sdr(enhanced, clean),
                seg_snr_db=seg_snr(enhanced, clean, frame=stft_cfg.win_length,
                                   hop=stft_cfg.hop),
                mask_mse=float(np.mean((used_mask.astype(np.float64) - target) ** 2)))


def evaluate_corpus(clean_pool: WavPool, noise_pool: WavPool, snrs: list[int],
                    mode: str, weights, cfg, stft_cfg: StftConfig, seed: int,
                    target_kind: MaskKind = MaskKind.IRM,
                    max_items: int | None = None) -> list[dict]:
    """Mix every clean utterance with a random noise clip at each SNR,
    enhance, and score; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    rows = []
    n_clean = len(clean_pool) if max_items is None else min(max_items, len(clean_pool))
    for snr_db in snrs:
        for ci in range(n_clean):
            clean = clean_pool.load(ci)
            ni = int(rng.integers(0, len(noise_pool)))
            noisy, _ = mix_at_snr(clean, noise_pool.load(ni), snr_db, rng)
            rows.append(dict(clean=clean_pool.paths[ci].name,
                             noise=noise_pool.paths[ni].name, snr_db=snr_db,
                             **evaluate_pair(clean, noisy, mode, weights, cfg,
                                             stft_cfg, target_kind)))
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    header = "clean,noise,snr_db,si_sdr_noisy_db,si_sdr_db,seg_snr_db,mask_mse"
    lines = [header]
    for r in rows:
        lines.append(f"{r['clean']},{r['noise']},{r['snr_db']},"
                     f"{r['si_sdr_noisy_db']:.6f},{r['si_sdr_db']:.6f},"
                     f"{r['seg_snr_db']:.6f},{r['mask_mse']:.8f}")
    if rows:
        mean = {k: float(np.mean([r[k] for r in rows]))
                for k in ("si_sdr_noisy_db", "si_sdr_db", "seg_snr_db", "mask_mse")}
        lines.append(f"mean,,,{mean['si_sdr_noisy_db']:.6f},{mean['si_sdr_db']:.6f},"
                     f"{mean['seg_snr_db']:.6f},{mean['mask_mse']:.8f}")
    return "\n".join(lines) + "\n"
