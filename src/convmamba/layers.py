"""Network building blocks: depthwise 1-D convolution and the Mamba layers.

The Mamba layer runs two parallel branches over an (L, d_model) sequence:
a gate branch (linear + SiLU) and a state branch (linear, causal depthwise
conv, SiLU, selective scan, layer norm). Their elementwise product is
projected back to d_model. A layer of the full network wraps the Mamba
layer in a residual, then applies a second residual depthwise-convolution
sub-layer that refines local structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .scan import SsmParams, selective_scan_seq, ssm_parameterize
from .tensor import Tensor


def depthwise_conv1d(x: Tensor, kernel: Tensor, bias: Tensor,
                     padding: str = "causal") -> Tensor:
    """Per-channel 1-D convolution over the time axis with zero padding.

    kernel has shape (channels, width). Causal padding places the newest
    sample at the last tap, so output t never sees input beyond t; centered
    padding (odd width only) aligns the middle tap with the current frame.
    """
    length, channels = x.data.shape
    width = kernel.data.shape[1]
    if kernel.data.shape[0] != channels:
        raise ValueError("kernel channel count mismatch")
    if padding == "causal":
        offset = width - 1
    elif padding == "centered":
        if width % 2 == 0:
            raise ValueError("centered padding requires an odd kernel width")
        offset = (width - 1) // 2
    else:
        raise ValueError(f"unknown padding {padding!r}")

    xp = np.zeros((length + width - 1, channels), dtype=x.data.dtype)
    xp[offset:offset + length] = x.data
    out_data = np.zeros_like(x.data)
    for j in range(width):
        out_data += kernel.data[:, j] * xp[j:j + length]
    out_data += bias.data

    def bwd(g):
        dx = dk = db = None
        if kernel.requires_grad:
            dk = np.empty_like(kernel.data)
            for j in range(width):
                dk[:, j] = (g * xp[j:j + length]).sum(axis=0)
        if bias.requires_grad:
            db = g.sum(axis=0)
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for j in range(width):
                dxp[j:j + length] += g * kernel.data[:, j]
            dx = dxp[offset:offset + length]
        return dx, dk, db

    return tz._finish("depthwise_conv1d", out_data, (x, kernel, bias), bwd)


@dataclass
class MambaWeights:
    in_proj_x: Tensor     # (d_model, d_inner)
    in_proj_gate: Tensor  # (d_model, d_inner)
    conv_kernel: Tensor   # (d_inner, width)
    conv_bias: Tensor     # (d_inner,)
    ssm: SsmParams
    ln_gamma: Tensor      # (d_inner,)
    ln_beta: Tensor
    out_proj: Tensor      # (d_inner, d_model)


@dataclass
class LayerWeights:
    """One stacked layer: residual Mamba sub-layer, then optionally a
    residual depthwise-conv sub-layer; a reverse-direction Mamba block is
    present in bidirectional models."""

    mamba_ln_gamma: Tensor
    mamba_ln_beta: Tensor
    mamba: MambaWeights
    mamba_rev: MambaWeights | None = None
    conv_ln_gamma: Tensor | None = None
    conv_ln_beta: Tensor | None = None
    conv_kernel: Tensor | None = None   # (d_model, width)
    conv_bias: Tensor | None = None


def mamba_layer(f: Tensor, w: MambaWeights) -> Tensor:
    """Gated selective-SSM block, (L, d_model) -> (L, d_model)."""
    state = tz.matmul(f, w.in_proj_x)
    state = depthwise_conv1d(state, w.conv_kernel, w.conv_bias, "causal")
    state = tz.silu(state)
    si = ssm_parameterize(state, w.ssm)
    state = selective_scan_seq(state, si, w.ssm)
    state = tz.layer_norm(state, w.ln_gamma, w.ln_beta)
    gate = tz.silu(tz.matmul(f, w.in_proj_gate))
    return tz.matmul(tz.mul(state, gate), w.out_proj)


def conv_mamba_layer(h_prev: Tensor, w: LayerWeights,
                     outer_padding: str = "centered") -> Tensor:
    """Residual Mamba sub-layer followed by a residual depthwise-conv
    sub-layer; reverse-direction stream summed in when present."""
    normed = tz.layer_norm(h_prev, w.mamba_ln_gamma, w.mamba_ln_beta)
    e = tz.add(mamba_layer(normed, w.mamba), h_prev)
    if w.mamba_rev is not None:
        rev = tz.flip_time(mamba_layer(tz.flip_time(normed), w.mamba_rev))
        e = tz.add(e, rev)
    if w.conv_kernel is None:
        return e
    refined = depthwise_conv1d(
        tz.layer_norm(e, w.conv_ln_gamma, w.conv_ln_beta),
        w.conv_kernel, w.conv_bias, outer_padding)
    return tz.add(refined, e)
