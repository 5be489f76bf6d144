"""Desk-scale objective metrics for enhanced speech.

Scale-invariant SDR and segmental SNR, which need no external reference
binaries, stand in for the usual perceptual metric suite.
"""

from __future__ import annotations

import numpy as np

from .audio import Waveform

SI_SDR_CAP_DB = 60.0


def si_sdr(est: Waveform, ref: Waveform) -> float:
    """Scale-invariant SDR in dB, capped at +60 for perfect reconstruction.

    The estimate is projected onto the reference (optimal scaling), so any
    positive rescaling of est leaves the score unchanged.
    """
    e = est.samples
    r = ref.samples
    if e.size != r.size:
        raise ValueError("si_sdr requires equal lengths")
    ref_energy = float(np.dot(r, r))
    if ref_energy <= 0.0:
        raise ValueError("silent reference")
    alpha = float(np.dot(e, r)) / ref_energy
    target = alpha * r
    resid = e - target
    num = float(np.dot(target, target))
    den = float(np.dot(resid, resid))
    if den <= 0.0 or num / den >= 10.0 ** (SI_SDR_CAP_DB / 10.0):
        return SI_SDR_CAP_DB
    return 10.0 * np.log10(num / den)


def seg_snr(est: Waveform, ref: Waveform, frame: int = 512, hop: int = 256,
            floor_db: float = -10.0, ceil_db: float = 35.0) -> float:
    """Mean of per-frame SNR in dB, clamped to [floor, ceil], silent
    reference frames skipped."""
    e = est.samples
    r = ref.samples
    if e.size != r.size:
        raise ValueError("seg_snr requires equal lengths")
    vals = []
    for start in range(0, max(1, r.size - frame + 1), hop):
        rf = r[start:start + frame]
        ef = e[start:start + frame]
        p_ref = float(np.dot(rf, rf))
        if p_ref <= 0.0:
            continue
        p_err = float(np.dot(rf - ef, rf - ef))
        if p_err <= 0.0:
            vals.append(ceil_db)
            continue
        vals.append(float(np.clip(10.0 * np.log10(p_ref / p_err), floor_db, ceil_db)))
    if not vals:
        raise ValueError("all reference frames silent")
    return float(np.mean(vals))
