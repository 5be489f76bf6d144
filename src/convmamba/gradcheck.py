"""Central-difference gradient verification for every op and the full network.

All checks run in float64 with h = 1e-5 and report the max relative error
|g_analytic - g_fd| / max(1, |g_fd|) per checked tensor group.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tz
from .layers import conv_mamba_layer, depthwise_conv1d, mamba_layer
from .masks import mask_mse_loss
from .network import ModelConfig, forward, init_params
from .scan import selective_scan_seq, ssm_parameterize
from .tensor import Tensor, sum_all


def _t(rng, *shape):
    return Tensor(rng.standard_normal(shape), dtype=np.float64)


def run_suite() -> list[tuple[str, float]]:
    """Gradient-check every primitive, each layer type, and the full network
    at tiny sizes; returns (check name, max relative error) pairs."""
    rng = np.random.default_rng(20_240_601)
    results: list[tuple[str, float]] = []

    def record(name, loss_fn, tensors):
        results.append((name, max(tz.finite_diff_check(lambda _: loss_fn(), t)
                                  for t in tensors.values())))

    x = _t(rng, 3, 4)
    y = _t(rng, 3, 4)
    w = _t(rng, 4, 2)
    bias = _t(rng, 4)
    record("matmul", lambda: sum_all(tz.silu(tz.matmul(x, w))), {"x": x, "w": w})
    record("add", lambda: sum_all(tz.mul(tz.add(x, y), x)), {"x": x, "y": y})
    record("add_bias", lambda: sum_all(tz.sigmoid(tz.add(x, bias))), {"b": bias})
    record("sub", lambda: sum_all(tz.mul(tz.sub(x, y), y)), {"x": x, "y": y})
    record("mul", lambda: sum_all(tz.mul(x, y)), {"x": x, "y": y})
    record("scale", lambda: sum_all(tz.scale(tz.mul(x, x), 0.7)), {"x": x})
    xs = Tensor(rng.uniform(0.5, 2.0, (3, 4)), dtype=np.float64)
    record("relu", lambda: sum_all(tz.relu(xs)), {"x": xs})
    record("sigmoid", lambda: sum_all(tz.sigmoid(x)), {"x": x})
    record("silu", lambda: sum_all(tz.silu(x)), {"x": x})
    record("softplus", lambda: sum_all(tz.softplus(x)), {"x": x})
    gamma = _t(rng, 4)
    beta = _t(rng, 4)
    record("layer_norm",
           lambda: sum_all(tz.sigmoid(tz.layer_norm(x, gamma, beta))),
           {"x": x, "gamma": gamma, "beta": beta})
    record("slice_cols", lambda: sum_all(tz.mul(tz.slice_cols(x, 1, 3),
                                                tz.slice_cols(x, 0, 2))), {"x": x})
    record("flip_time", lambda: sum_all(tz.mul(tz.flip_time(x), x)), {"x": x})

    xc = _t(rng, 7, 3)
    for padding, width in (("causal", 4), ("centered", 3)):
        kernel = _t(rng, 3, width)
        cbias = _t(rng, 3)
        record(f"depthwise_conv1d_{padding}",
               lambda: sum_all(tz.silu(depthwise_conv1d(xc, kernel, cbias, padding))),
               {"x": xc, "kernel": kernel, "bias": cbias})

    scan_cfg = ModelConfig(d_model=2, n_layers=1, n_state=3, bins=1,
                           learnable_skip=True)
    ssm = init_params(scan_cfg, 3, dtype=np.float64).layers[0].mamba.ssm
    u = _t(rng, 6, 4)

    def scan_loss():
        si = ssm_parameterize(u, ssm)
        return sum_all(selective_scan_seq(u, si, ssm))

    record("selective_scan", scan_loss,
           {"u": u, "a_log": ssm.a_log, "d_skip": ssm.d_skip,
            "x_proj": ssm.x_proj_weight, "dt_proj_w": ssm.dt_proj_weight,
            "dt_proj_b": ssm.dt_proj_bias})

    cfg = ModelConfig(d_model=8, n_layers=2, n_state=4, inner_conv_width=4, bins=17)
    weights = init_params(cfg, 7, dtype=np.float64)
    layer = weights.layers[0]
    f_in = _t(rng, 6, cfg.d_model)
    mamba_tensors = {"f": f_in}
    m = layer.mamba
    for name in ("in_proj_x", "in_proj_gate", "conv_kernel", "conv_bias",
                 "ln_gamma", "ln_beta", "out_proj"):
        mamba_tensors[name] = getattr(m, name)
    record("mamba_layer", lambda: sum_all(mamba_layer(f_in, m)), mamba_tensors)
    record("conv_mamba_layer",
           lambda: sum_all(conv_mamba_layer(f_in, layer)),
           {"f": f_in, "outer_kernel": layer.conv_kernel,
            "outer_bias": layer.conv_bias, "ln_gamma": layer.conv_ln_gamma})

    y_mag = Tensor(np.abs(rng.standard_normal((6, cfg.bins))) + 0.1, dtype=np.float64)
    target = rng.uniform(0.0, 1.0, (6, cfg.bins))

    def net_loss():
        return mask_mse_loss(forward(y_mag, weights, cfg), target)

    net_tensors = {"input": y_mag}
    for p in weights.named_parameters():
        net_tensors[p.name] = p.tensor
    record("full_network", net_loss, net_tensors)
    return results
