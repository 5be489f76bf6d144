"""Network building blocks: depthwise 1-D convolution and the Mamba layers.

The Mamba layer runs two parallel branches over an (L, d_model) sequence:
a gate branch (linear + SiLU) and a state branch (linear, causal depthwise
conv, SiLU, selective scan, layer norm). Their elementwise product is
projected back to d_model. A layer of the full network wraps the Mamba
layer in a residual, then applies a second residual depthwise-convolution
sub-layer that refines local structure.

A layer runs over a whole sequence, or over one time block of it at a time
with a LayerState that carries what the next block needs: the inner conv's
last input rows, the scan's hidden state and the outer conv's last input
rows. A centred outer conv looks (width - 1) / 2 frames ahead, so blocked,
its output lags its input by that many frames, and the final block flushes
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .scan import SsmParams, selective_scan_seq, ssm_parameterize
from .tensor import Tensor


def depthwise_conv1d(x: Tensor, kernel: Tensor, bias: Tensor,
                     padding: str = "causal", past: np.ndarray | None = None) -> Tensor:
    """Per-channel 1-D convolution over the time axis with zero padding.

    kernel has shape (channels, width). Causal padding places the newest
    sample at the last tap, so output t never sees input beyond t; centered
    padding (odd width only) aligns the middle tap with the current frame.

    past, for a causal conv over one time block, holds the (width - 1,
    channels) input rows before x in place of the zero padding, and is
    overwritten with the last width - 1 rows of past and x: the past of the
    next block. It carries no gradient.
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
    if past is not None and offset != width - 1:
        raise ValueError("carried rows need causal padding")

    xp = np.zeros((length + width - 1, channels), dtype=x.data.dtype)
    xp[offset:offset + length] = x.data
    if past is not None:
        xp[:offset] = past
        past[...] = xp[length:]
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


@dataclass
class LayerState:
    """What one layer carries from a time block to the next, updated in
    place by each block: the last width - 1 rows that each depthwise conv
    read, the scan's (n_state, d_inner) hidden state, and the residual rows
    whose output still waits for a centred outer conv's lookahead."""

    conv: np.ndarray            # (inner width - 1, d_inner)
    scan: np.ndarray            # (n_state, d_inner)
    outer: np.ndarray | None    # (outer width - 1, d_model)
    pending: np.ndarray         # (at most the lookahead, d_model)

    @classmethod
    def zeros(cls, w: LayerWeights, dtype) -> "LayerState":
        """The state before the first block: the convs' zero padding, h = 0."""
        def past(kernel: Tensor) -> np.ndarray:
            channels, width = kernel.data.shape
            return np.zeros((width - 1, channels), dtype=dtype)

        return cls(conv=past(w.mamba.conv_kernel),
                   scan=np.zeros(w.mamba.ssm.a_log.data.shape[::-1], dtype=dtype),
                   outer=None if w.conv_kernel is None else past(w.conv_kernel),
                   pending=np.zeros((0, w.mamba_ln_gamma.data.shape[0]), dtype=dtype))


def mamba_layer(f: Tensor, w: MambaWeights, carry: LayerState | None = None) -> Tensor:
    """Gated selective-SSM block, (L, d_model) -> (L, d_model); one time
    block of a longer sequence when carry is given."""
    conv_past, h = (None, None) if carry is None else (carry.conv, carry.scan)
    state = tz.matmul(f, w.in_proj_x)
    state = depthwise_conv1d(state, w.conv_kernel, w.conv_bias, "causal", conv_past)
    state = tz.silu(state)
    si = ssm_parameterize(state, w.ssm)
    state = selective_scan_seq(state, si, w.ssm, h)
    state = tz.layer_norm(state, w.ln_gamma, w.ln_beta)
    gate = tz.silu(tz.matmul(f, w.in_proj_gate))
    return tz.matmul(tz.mul(state, gate), w.out_proj)


def conv_mamba_layer(h_prev: Tensor, w: LayerWeights,
                     outer_padding: str = "centered",
                     carry: LayerState | None = None, final: bool = False) -> Tensor:
    """Residual Mamba sub-layer followed by a residual depthwise-conv
    sub-layer; reverse-direction stream summed in when present.

    With carry, h_prev is the next time block of a unidirectional layer's
    input, and the output is the block of rows that the input so far
    determines: with a centred outer conv, it ends lookahead rows before the
    input does, except on the final block.
    """
    if carry is not None and w.mamba_rev is not None:
        raise ValueError("a bidirectional layer cannot run block by block")
    normed = tz.layer_norm(h_prev, w.mamba_ln_gamma, w.mamba_ln_beta)
    e = tz.add(mamba_layer(normed, w.mamba, carry), h_prev)
    if w.mamba_rev is not None:
        rev = tz.flip_time(mamba_layer(tz.flip_time(normed), w.mamba_rev))
        e = tz.add(e, rev)
    if w.conv_kernel is None:
        return e
    normed_e = tz.layer_norm(e, w.conv_ln_gamma, w.conv_ln_beta)
    if carry is None:
        refined = depthwise_conv1d(normed_e, w.conv_kernel, w.conv_bias, outer_padding)
        return tz.add(refined, e)
    # run causally over the carried rows: a centred conv's output row for
    # frame t then comes out with input row t + lookahead, and the final
    # block appends the zero rows past the end
    width = w.conv_kernel.data.shape[1]
    lookahead = (width - 1) // 2 if outer_padding == "centered" else 0
    if final and lookahead:
        normed_e = Tensor._checked(
            np.concatenate([normed_e.data, np.zeros((lookahead, normed_e.data.shape[1]),
                                                    dtype=normed_e.data.dtype)]), False)
    refined = depthwise_conv1d(normed_e, w.conv_kernel, w.conv_bias, "causal", carry.outer)
    residual = np.concatenate([carry.pending, e.data])
    done = len(residual) if final else max(0, len(residual) - lookahead)
    carry.pending = residual[done:]
    # the leading rows of the first blocks belong to frames before 0
    return tz.add(Tensor._checked(refined.data[len(refined.data) - done:], False),
                  Tensor._checked(residual[:done], False))
