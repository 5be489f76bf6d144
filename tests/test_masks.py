"""Mask construction, application, and the masked MSE loss."""

import numpy as np
import pytest

from convmamba.audio import (Spectrogram, StftConfig, Waveform, istft, magnitude,
                             mix_at_snr, stft)
from convmamba.masks import (MaskKind, apply_mask, irm, mask_mse_loss, mask_target,
                             psm)
from convmamba.metrics import si_sdr
from convmamba.tensor import Tape, Tensor, backward

from conftest import synth_speechlike


def tens(a):
    return Tensor(np.asarray(a, dtype=np.float64), dtype=np.float64)


def spec_of(re2, im2):
    k = np.asarray(re2).shape[1]
    cfg = StftConfig(win_length=2 * (k - 1), hop=k - 1, fft_size=2 * (k - 1))
    return Spectrogram(np.asarray(re2, float), np.asarray(im2, float), cfg)


def test_irm_three_four_five():
    m = irm(tens([[3.0]]), tens([[4.0]]))
    assert abs(m.values.data[0, 0] - 0.6) < 1e-9
    assert m.kind is MaskKind.IRM


def test_irm_noise_free_cell():
    m = irm(tens([[2.0]]), tens([[0.0]]))
    assert abs(m.values.data[0, 0] - 1.0) < 1e-8


def test_irm_silent_cell_maps_to_zero():
    m = irm(tens([[0.0]]), tens([[0.0]]))
    assert m.values.data[0, 0] == 0.0


def test_irm_against_direct_formula():
    rng = np.random.default_rng(4)
    s = np.abs(rng.standard_normal((6, 9)))
    d = np.abs(rng.standard_normal((6, 9)))
    eps = 1e-8
    want = np.sqrt(s ** 2 / (s ** 2 + d ** 2 + eps))
    got = irm(tens(s), tens(d), eps).values.data
    assert np.max(np.abs(got - want)) < 1e-12


def test_irm_rejects_negative_magnitudes():
    with pytest.raises(ValueError):
        irm(tens([[-1.0]]), tens([[1.0]]))


def test_irm_scale_invariance():
    # the absolute eps in the denominator bounds invariance; at spectral
    # magnitudes that are not vanishingly small its effect is < 1e-10
    rng = np.random.default_rng(8)
    s = rng.uniform(10.0, 30.0, (5, 7))
    d = rng.uniform(10.0, 30.0, (5, 7))
    base = irm(tens(s), tens(d)).values.data
    for alpha in (0.5, 3.0, 17.0):
        scaled = irm(tens(alpha * s), tens(alpha * d)).values.data
        assert np.max(np.abs(scaled - base)) < 1e-10


def test_irm_psm_range_over_random_grids():
    rng = np.random.default_rng(15)
    for _ in range(25):
        s = np.abs(rng.standard_normal((4, 5))) * rng.uniform(0.1, 10)
        d = np.abs(rng.standard_normal((4, 5))) * rng.uniform(0.1, 10)
        v = irm(tens(s), tens(d)).values.data
        assert v.min() >= 0.0 and v.max() <= 1.0
        sp = spec_of(rng.standard_normal((4, 5)), rng.standard_normal((4, 5)))
        yp = spec_of(rng.standard_normal((4, 5)), rng.standard_normal((4, 5)))
        v = psm(sp, yp).values.data
        assert v.min() >= 0.0 and v.max() <= 1.0


def test_psm_identity_when_clean_equals_noisy():
    rng = np.random.default_rng(2)
    re = rng.standard_normal((3, 5)) + 2.0
    im = rng.standard_normal((3, 5))
    m = psm(spec_of(re, im), spec_of(re, im))
    assert np.max(np.abs(m.values.data - 1.0)) < 1e-7


def test_psm_opposite_phase_clips_to_zero():
    m = psm(spec_of([[1.0, 2.0]], [[0.0, 0.0]]),
            spec_of([[-1.0, -2.0]], [[0.0, 0.0]]))
    assert np.max(m.values.data) == 0.0


def test_psm_against_direct_formula():
    rng = np.random.default_rng(6)
    sre, sim = rng.standard_normal((2, 4, 6))
    yre, yim = rng.standard_normal((2, 4, 6))
    eps = 1e-8
    want = np.clip(
        np.hypot(sre, sim) / (np.hypot(yre, yim) + eps)
        * np.cos(np.arctan2(sim, sre) - np.arctan2(yim, yre)), 0.0, 1.0)
    got = psm(spec_of(sre, sim), spec_of(yre, yim), eps).values.data
    assert np.max(np.abs(got - want)) < 1e-12


def test_apply_mask_extremes_and_elementwise():
    rng = np.random.default_rng(1)
    y = spec_of(rng.standard_normal((3, 5)), rng.standard_normal((3, 5)))
    ones = irm(tens(np.ones((3, 5))), tens(np.zeros((3, 5))))
    out = apply_mask(y, ones)
    assert np.max(np.abs(out.re - y.re)) < 1e-7 * np.max(np.abs(y.re))
    zeros = irm(tens(np.zeros((3, 5))), tens(np.ones((3, 5))))
    out = apply_mask(y, zeros)
    assert np.max(np.abs(out.re)) < 1e-4 * np.max(np.abs(y.re))
    v = np.clip(np.abs(rng.standard_normal((3, 5))), 0, 1)
    from convmamba.masks import Mask
    m = Mask(tens(v), MaskKind.IRM)
    out = apply_mask(y, m)
    np.testing.assert_allclose(out.re, y.re * v, atol=1e-15)
    np.testing.assert_allclose(out.im, y.im * v, atol=1e-15)


def test_loss_zero_when_equal():
    rng = np.random.default_rng(3)
    p = rng.uniform(0, 1, (4, 6))
    loss = mask_mse_loss(tens(p), tens(p.copy()))
    assert loss.item() == 0.0


def test_loss_hand_case():
    pred = tens([[1.0, 0.0], [0.0, 0.0]])
    target = tens([[0.0, 0.0], [0.0, 0.0]])
    loss = mask_mse_loss(pred, target)
    assert abs(loss.item() - 0.25) < 1e-12


def test_loss_requires_a_valid_frame():
    with pytest.raises(ValueError, match="at least one frame"):
        mask_mse_loss(tens(np.zeros((0, 2))), tens(np.zeros((0, 2))))


def test_loss_gradient_flows():
    pred = Tensor(np.array([[0.5, 0.25]]), requires_grad=True, dtype=np.float64)
    target = tens([[0.0, 0.0]])
    with Tape() as tape:
        loss = mask_mse_loss(pred, target)
    backward(loss, tape)
    np.testing.assert_allclose(pred.grad, 2 * pred.data / 2.0, atol=1e-14)


def test_oracle_mask_improves_si_sdr():
    # applying the true ratio mask with noisy phase beats the raw mixture
    rng = np.random.default_rng(12)
    t = np.arange(8000) / 16000.0
    clean = Waveform(0.4 * np.sin(2 * np.pi * 350.0 * t) * (1 + 0.3 * np.sin(2 * np.pi * 2.0 * t)))
    for snr in (-5.0, 0.0, 5.0, 10.0):
        noise = Waveform(rng.standard_normal(16000))
        from convmamba.audio import mix_at_snr
        noisy, used = mix_at_snr(clean, noise, snr, rng)
        S, D, Y = stft(clean), stft(used), stft(noisy)
        from convmamba.audio import magnitude
        m = irm(magnitude(S), magnitude(D))
        enhanced = istft(apply_mask(Y, m), out_len=len(clean))
        base = si_sdr(noisy, clean)
        boosted = si_sdr(enhanced, clean)
        assert boosted > base, f"no oracle gain at {snr} dB: {boosted} <= {base}"


def test_two_stft_targets_match_three_stft_oracle():
    # oracle: the IRM from a third STFT of the noise that was added, which
    # mask_target replaces with stft(noisy) - stft(clean)
    rng = np.random.default_rng(71)
    cfg = StftConfig()
    worst = 0.0
    for _ in range(50):
        clean = synth_speechlike(rng, seconds=rng.uniform(0.1, 1.0))
        noise = Waveform(rng.standard_normal(len(clean) + 800))
        noisy, used = mix_at_snr(clean, noise, int(rng.integers(-10, 21)), rng)
        spec_s, spec_y = stft(clean, cfg), stft(noisy, cfg)
        want = irm(magnitude(spec_s), magnitude(stft(used, cfg))).values.data
        got_y, got = mask_target(clean, noisy, MaskKind.IRM, cfg)
        assert got.dtype == np.float64
        worst = max(worst, float(np.max(np.abs(got - want))))
        np.testing.assert_array_equal(got_y.re, spec_y.re)
        np.testing.assert_array_equal(got_y.im, spec_y.im)
        _, got_psm = mask_target(clean, noisy, MaskKind.PSM, cfg)
        np.testing.assert_array_equal(got_psm, psm(spec_s, spec_y).values.data)
    assert worst <= 1e-12, worst
