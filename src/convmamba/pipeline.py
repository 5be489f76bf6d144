"""End-to-end enhancement and corpus evaluation used by the CLI."""

from __future__ import annotations

import numpy as np

from .audio import StftConfig, Waveform, istft, magnitude, mix_at_snr, stft
from .masks import MaskKind, apply_mask, mask_target
from .metrics import MetricReport, seg_snr, si_sdr
from .network import ModelConfig, NetworkWeights, forward
from .tensor import Tensor
from .training import WavPool


def enhance_waveform(noisy: Waveform, weights: NetworkWeights, cfg: ModelConfig,
                     stft_cfg: StftConfig | None = None) -> tuple[Waveform, np.ndarray]:
    """Mask-based enhancement: STFT, estimated mask on the noisy phase,
    inverse STFT trimmed to the input length. Returns (waveform, mask)."""
    stft_cfg = stft_cfg or StftConfig()
    spec = stft(noisy, stft_cfg)
    mask = forward(Tensor(magnitude(spec)), weights, cfg).data
    return istft(apply_mask(spec, mask), stft_cfg, out_len=len(noisy)), mask


def evaluate_pair(clean: Waveform, noisy: Waveform, mode: str,
                  weights: NetworkWeights | None, cfg: ModelConfig | None,
                  stft_cfg: StftConfig,
                  target_kind: MaskKind = MaskKind.IRM) -> tuple[MetricReport, float]:
    """Enhance one mixture under the given mode and score it against clean.

    Returns (report, input SI-SDR). mask_mse compares the mask that was
    applied against the ideal target for the pair.
    """
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

    report = MetricReport(
        si_sdr_db=si_sdr(enhanced, clean),
        seg_snr_db=seg_snr(enhanced, clean, frame=stft_cfg.win_length,
                           hop=stft_cfg.hop),
        mask_mse=float(np.mean((used_mask.astype(np.float64) - target) ** 2)))
    return report, si_sdr(noisy, clean)


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
            report, si_sdr_in = evaluate_pair(clean, noisy, mode, weights, cfg,
                                              stft_cfg, target_kind)
            rows.append(dict(clean=clean_pool.paths[ci].name,
                             noise=noise_pool.paths[ni].name,
                             snr_db=snr_db, si_sdr_noisy_db=si_sdr_in,
                             si_sdr_db=report.si_sdr_db,
                             seg_snr_db=report.seg_snr_db,
                             mask_mse=report.mask_mse))
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
