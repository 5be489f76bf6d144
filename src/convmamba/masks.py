"""Time-frequency mask targets, mask application, and the training loss.

Two soft masks in [0, 1]: the magnitude-ratio mask built from clean and noise
magnitudes, and the phase-sensitive mask that additionally weights by the
cosine of the clean/noisy phase difference (clipped into [0, 1] to match the
sigmoid output range). Masks multiply the complex noisy spectrum, so the noisy
phase is reused at synthesis time.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import tensor as tz
from .audio import Spectrogram, StftConfig, Waveform, magnitude, stft
from .tensor import Tensor


class MaskKind(Enum):
    IRM = "irm"
    PSM = "psm"


@dataclass
class Mask:
    values: Tensor
    kind: MaskKind

    def __post_init__(self):
        v = self.values.data
        if v.min() < 0.0 or v.max() > 1.0:
            raise ValueError("mask values must lie in [0, 1]")


def irm(s_mag: Tensor, d_mag: Tensor, eps: float = 1e-8) -> Mask:
    """Magnitude-ratio mask sqrt(S^2 / (S^2 + D^2 + eps))."""
    s = s_mag.data
    d = d_mag.data
    if s.shape != d.shape:
        raise ValueError("magnitude shape mismatch")
    if s.min() < 0.0 or d.min() < 0.0:
        raise ValueError("magnitudes must be nonnegative")
    values = np.sqrt(s ** 2 / (s ** 2 + d ** 2 + eps))
    return Mask(Tensor(np.clip(values, 0.0, 1.0), dtype=s.dtype), MaskKind.IRM)


def psm(s: Spectrogram, y: Spectrogram, eps: float = 1e-8) -> Mask:
    """Phase-sensitive mask clip((|S|/(|Y|+eps)) * cos(phi_s - phi_y), 0, 1)."""
    if s.re.shape != y.re.shape:
        raise ValueError("spectrogram shape mismatch")
    s_mag = np.hypot(s.re, s.im)
    y_mag = np.hypot(y.re, y.im)
    dphi = np.arctan2(s.im, s.re) - np.arctan2(y.im, y.re)
    raw = s_mag / (y_mag + eps) * np.cos(dphi)
    return Mask(Tensor(np.clip(raw, 0.0, 1.0), dtype=s.re.dtype), MaskKind.PSM)


def mask_target(clean: Waveform, noisy: Waveform, kind: MaskKind,
                cfg: StftConfig) -> tuple[Spectrogram, np.ndarray]:
    """The noisy spectrogram of a mixture noisy = clean + noise and its ideal
    mask of the given kind; the noise spectrum is stft(noisy) - stft(clean)."""
    spec_y = stft(noisy, cfg)
    spec_s = stft(clean, cfg)
    if kind is MaskKind.IRM:
        spec_d = Spectrogram(spec_y.re - spec_s.re, spec_y.im - spec_s.im, cfg)
        target = irm(magnitude(spec_s), magnitude(spec_d))
    else:
        target = psm(spec_s, spec_y)
    return spec_y, target.values.data


def apply_mask(y: Spectrogram, m: Mask) -> Spectrogram:
    """Scale both real and imaginary parts, keeping the noisy phase."""
    v = m.values.data
    if v.shape != y.re.shape:
        raise ValueError("mask/spectrogram shape mismatch")
    return Spectrogram(y.re * v, y.im * v, y.cfg)


def mask_mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all frames x bins; target is a constant."""
    if pred.data.shape != target.data.shape:
        raise ValueError("pred/target shape mismatch")
    if pred.data.size == 0:
        raise ValueError("loss needs at least one frame")
    diff = tz.sub(pred, Tensor(target.data, dtype=pred.data.dtype))
    return tz.scale(tz.sum_all(tz.mul(diff, diff)), 1.0 / pred.data.size)
