"""Depthwise convolution and the Mamba / conv-Mamba layers."""

import numpy as np
import pytest

from convmamba.layers import (LayerState, LayerWeights, MambaWeights,
                              conv_mamba_layer, depthwise_conv1d, mamba_layer)
from convmamba.network import ModelConfig, init_params
from convmamba.tensor import Tensor, finite_diff_check, sum_all


def t64(a, requires_grad=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=requires_grad,
                  dtype=np.float64)


def tiny_weights(d_model=8, seed=0, **cfg_kwargs):
    cfg = ModelConfig(d_model=d_model, n_layers=1, n_state=4,
                      inner_conv_width=4, bins=17, **cfg_kwargs)
    w = init_params(cfg, seed, dtype=np.float64)
    return cfg, w


def test_dwconv_delta_kernel_identity():
    rng = np.random.default_rng(0)
    x = t64(rng.standard_normal((10, 3)))
    bias = t64(np.zeros(3))
    k_causal = np.zeros((3, 4))
    k_causal[:, 3] = 1.0  # newest tap
    out = depthwise_conv1d(x, t64(k_causal), bias)
    np.testing.assert_array_equal(out.data, x.data)
    k_centered = np.zeros((3, 3))
    k_centered[:, 1] = 1.0  # middle tap
    out = depthwise_conv1d(x, t64(k_centered), bias, flush=1, skip=1)
    np.testing.assert_array_equal(out.data, x.data)


def test_dwconv_centered_moving_average():
    x = t64(np.full((8, 2), 5.0))
    kernel = t64(np.full((2, 3), 1.0 / 3.0))
    out = depthwise_conv1d(x, kernel, t64(np.zeros(2)), flush=1, skip=1)
    np.testing.assert_allclose(out.data[1:-1], 5.0, atol=1e-12)
    np.testing.assert_allclose(out.data[0], 5.0 * 2 / 3, atol=1e-12)


def test_dwconv_causal_sees_no_future():
    rng = np.random.default_rng(1)
    x1 = rng.standard_normal((12, 4))
    x2 = x1.copy()
    t0 = 7
    x2[t0] += 3.0
    kernel = t64(rng.standard_normal((4, 4)))
    bias = t64(rng.standard_normal(4))
    out1 = depthwise_conv1d(t64(x1), kernel, bias).data
    out2 = depthwise_conv1d(t64(x2), kernel, bias).data
    np.testing.assert_array_equal(out1[:t0], out2[:t0])
    assert np.abs(out1[t0:] - out2[t0:]).max() > 0


def test_dwconv_even_centered_rejected():
    with pytest.raises(ValueError, match="odd"):
        ModelConfig(outer_dw_kernel=4)
    cfg = ModelConfig(outer_dw_kernel=4, outer_conv_causal=True)
    assert init_params(cfg, 0).layers[0].lookahead == 0
    assert init_params(ModelConfig(outer_dw_kernel=5), 0).layers[0].lookahead == 2


def test_dwconv_carried_rows_continue_the_causal_conv():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((11, 3))
    kernel = t64(rng.standard_normal((3, 4)))
    bias = t64(rng.standard_normal(3))
    past = np.zeros((3, 3))
    # a 2-row block is shorter than the 3 carried rows
    parts = [depthwise_conv1d(t64(x[rows]), kernel, bias, past).data
             for rows in (slice(0, 2), slice(2, 7), slice(7, 11))]
    np.testing.assert_array_equal(np.concatenate(parts),
                                  depthwise_conv1d(t64(x), kernel, bias).data)
    np.testing.assert_array_equal(past, x[-3:])
    # a centred width-3 conv looks one row ahead: the first block skips the
    # row before frame 0, and the last flushes the row after the end
    kernel = t64(rng.standard_normal((3, 3)))
    past = np.zeros((2, 3))
    cuts = [0, 1, 3, 8, 11]
    parts = [depthwise_conv1d(t64(x[a:b]), kernel, bias, past,
                              flush=int(b == 11), skip=int(a == 0)).data
             for a, b in zip(cuts, cuts[1:])]
    assert [len(p) for p in parts] == [0, 2, 5, 4]
    np.testing.assert_array_equal(
        np.concatenate(parts), depthwise_conv1d(t64(x), kernel, bias, flush=1, skip=1).data)
    np.testing.assert_array_equal(past, x[-2:])


def test_dwconv_gradients():
    rng = np.random.default_rng(5)
    x0 = rng.standard_normal((7, 3))
    k0 = rng.standard_normal((3, 4))
    b0 = rng.standard_normal(3)
    for width, lookahead in ((4, 0), (3, 1)):
        k = t64(k0[:, :width].copy())
        b = t64(b0.copy())

        def wrt_x(t):
            return sum_all(mamba_like(depthwise_conv1d(t, k, b, flush=lookahead,
                                                       skip=lookahead)))

        def mamba_like(y):
            from convmamba.tensor import silu
            return silu(y)

        assert finite_diff_check(wrt_x, t64(x0.copy())) < 1e-4
        x = t64(x0.copy())
        assert finite_diff_check(
            lambda t: sum_all(depthwise_conv1d(x, t, b, flush=lookahead, skip=lookahead)),
            t64(k0[:, :width].copy())) < 1e-4
        assert finite_diff_check(
            lambda t: sum_all(depthwise_conv1d(x, k, t, flush=lookahead, skip=lookahead)),
            t64(b0.copy())) < 1e-4


def test_mamba_layer_zero_input_zero_bias_gives_zero():
    cfg, w = tiny_weights()
    m = w.layers[0].mamba
    m.conv_bias.data[:] = 0.0
    m.ln_beta.data[:] = 0.0
    out = mamba_layer(t64(np.zeros((5, cfg.d_model))), m)
    assert np.max(np.abs(out.data)) == 0.0


def test_mamba_layer_shape_contract():
    cfg, w = tiny_weights()
    rng = np.random.default_rng(2)
    for length in (1, 4, 23):
        out = mamba_layer(t64(rng.standard_normal((length, cfg.d_model))),
                          w.layers[0].mamba)
        assert out.data.shape == (length, cfg.d_model)


def test_mamba_layer_gradient_vs_finite_differences():
    cfg, w = tiny_weights(seed=3)
    rng = np.random.default_rng(4)
    x0 = rng.standard_normal((6, cfg.d_model))

    def f(t):
        return sum_all(mamba_layer(t, w.layers[0].mamba))

    assert finite_diff_check(f, t64(x0)) < 1e-4


def test_layer_residual_identity_with_zero_subblocks():
    cfg, w = tiny_weights()
    layer = w.layers[0]
    for tensor in (layer.mamba.in_proj_x, layer.mamba.in_proj_gate,
                   layer.mamba.conv_kernel, layer.mamba.conv_bias,
                   layer.mamba.ssm.x_proj_weight, layer.mamba.ssm.dt_proj_weight,
                   layer.mamba.ssm.dt_proj_bias, layer.mamba.ln_gamma,
                   layer.mamba.ln_beta, layer.mamba.out_proj,
                   layer.conv_ln_gamma, layer.conv_ln_beta,
                   layer.conv_kernel, layer.conv_bias):
        tensor.data[:] = 0.0
    rng = np.random.default_rng(6)
    h = t64(rng.standard_normal((9, cfg.d_model)))
    out = conv_mamba_layer(h, layer)
    np.testing.assert_array_equal(out.data, h.data)


def test_layer_shape_and_composition_oracle():
    from convmamba.tensor import layer_norm
    cfg, w = tiny_weights(seed=9)
    layer = w.layers[0]
    rng = np.random.default_rng(7)
    h = t64(rng.standard_normal((11, cfg.d_model)))
    out = conv_mamba_layer(h, layer)
    assert out.data.shape == h.data.shape

    # recompose from independently computed sub-block outputs
    normed = layer_norm(h, layer.mamba_ln_gamma, layer.mamba_ln_beta)
    e = mamba_layer(normed, layer.mamba).data + h.data
    refined = depthwise_conv1d(
        layer_norm(t64(e), layer.conv_ln_gamma, layer.conv_ln_beta),
        layer.conv_kernel, layer.conv_bias, flush=1, skip=1).data
    np.testing.assert_allclose(out.data, refined + e, atol=1e-12)


def test_layer_without_conv_refine_is_residual_mamba_only():
    cfg, w = tiny_weights(conv_refine=False)
    layer = w.layers[0]
    assert layer.conv_kernel is None
    rng = np.random.default_rng(8)
    h = t64(rng.standard_normal((5, cfg.d_model)))
    from convmamba.tensor import layer_norm
    want = mamba_layer(layer_norm(h, layer.mamba_ln_gamma, layer.mamba_ln_beta),
                       layer.mamba).data + h.data
    np.testing.assert_allclose(conv_mamba_layer(h, layer).data, want, atol=1e-12)


@pytest.mark.parametrize("causal", [False, True])
def test_layer_block_by_block_matches_whole_sequence(causal):
    """Blocks of 1 to 5 rows, some shorter than the centred width-5 conv's
    two-frame lookahead or the inner conv's three carried rows."""
    cfg, w = tiny_weights(seed=4, outer_dw_kernel=5, outer_conv_causal=causal)
    layer = w.layers[0]
    rng = np.random.default_rng(5)
    h = rng.standard_normal((16, cfg.d_model))
    state = LayerState.zeros(layer, np.float64)
    cuts = [0, 1, 2, 5, 10, 11, 16]
    parts = [conv_mamba_layer(t64(h[a:b]), layer, state, final=b == 16).data
             for a, b in zip(cuts, cuts[1:])]
    blocked = np.concatenate(parts)
    # output rows lag input rows by the lookahead (2 frames here) until the end
    lag = 0 if causal else 2
    assert [len(p) for p in parts] == [max(0, b - lag) - max(0, a - lag)
                                       for a, b in zip(cuts, cuts[1:-1])] + [16 - 11 + lag]
    np.testing.assert_allclose(blocked, conv_mamba_layer(t64(h), layer).data,
                               rtol=0, atol=1e-12)


def test_bidirectional_layer_refuses_carried_state():
    cfg, w = tiny_weights(bidirectional=True)
    layer = w.layers[0]
    with pytest.raises(ValueError, match="bidirectional"):
        conv_mamba_layer(t64(np.zeros((4, cfg.d_model))), layer,
                         LayerState.zeros(layer, np.float64))
