"""Time-frequency mask targets, mask application, and the training loss.

Two soft masks in [0, 1]: the magnitude-ratio mask built from clean and noise
magnitudes, and the phase-sensitive mask that additionally weights by the
cosine of the clean/noisy phase difference (clipped into [0, 1] to match the
sigmoid output range). Masks multiply the complex noisy spectrum, so the noisy
phase is reused at synthesis time.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import tensor as tz
from .audio import StftConfig, Waveform, magnitude, stft
from .tensor import Tensor


class MaskKind(Enum):
    IRM = "irm"
    PSM = "psm"


def irm(s_mag: np.ndarray, d_mag: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Magnitude-ratio mask sqrt(S^2 / (S^2 + D^2 + eps))."""
    if s_mag.shape != d_mag.shape:
        raise ValueError("magnitude shape mismatch")
    if s_mag.min() < 0.0 or d_mag.min() < 0.0:
        raise ValueError("magnitudes must be nonnegative")
    values = np.sqrt(s_mag ** 2 / (s_mag ** 2 + d_mag ** 2 + eps))
    return np.clip(values, 0.0, 1.0)


def psm(s: np.ndarray, y: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Phase-sensitive mask clip((|S|/(|Y|+eps)) * cos(phi_s - phi_y), 0, 1)
    of complex clean and noisy spectra."""
    if s.shape != y.shape:
        raise ValueError("spectrogram shape mismatch")
    s_mag = np.hypot(s.real, s.imag)
    y_mag = np.hypot(y.real, y.imag)
    dphi = np.arctan2(s.imag, s.real) - np.arctan2(y.imag, y.real)
    raw = s_mag / (y_mag + eps) * np.cos(dphi)
    return np.clip(raw, 0.0, 1.0)


def mask_target(clean: Waveform, noisy: Waveform, kind: MaskKind,
                cfg: StftConfig) -> tuple[np.ndarray, np.ndarray]:
    """The noisy spectrum of a mixture noisy = clean + noise and its ideal
    mask of the given kind; the noise spectrum is stft(noisy) - stft(clean)."""
    spec_y = stft(noisy, cfg)
    spec_s = stft(clean, cfg)
    if kind is MaskKind.IRM:
        return spec_y, irm(magnitude(spec_s), magnitude(spec_y - spec_s))
    return spec_y, psm(spec_s, spec_y)


def apply_mask(spec: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Scale the real and imaginary parts of a complex spectrum, keeping the
    noisy phase. Each part is multiplied on its own: a complex-by-real
    multiply can flip the sign of a zero."""
    if mask.shape != spec.shape:
        raise ValueError("mask/spectrogram shape mismatch")
    out = np.empty_like(spec)
    np.multiply(spec.real, mask, out=out.real)
    np.multiply(spec.imag, mask, out=out.imag)
    return out


def mask_mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared error over all frames x bins; target is a constant."""
    if pred.data.shape != target.shape:
        raise ValueError("pred/target shape mismatch")
    if pred.data.size == 0:
        raise ValueError("loss needs at least one frame")
    diff = tz.sub(pred, Tensor(target, dtype=pred.data.dtype))
    return tz.scale(tz.sum_all(tz.mul(diff, diff)), 1.0 / pred.data.size)
