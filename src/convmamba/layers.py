"""Network building blocks: depthwise 1-D convolution and the Mamba layers.

The Mamba layer runs two parallel branches over an (L, d_model) sequence:
a gate branch (linear + SiLU) and a state branch (linear, causal depthwise
conv, SiLU, selective scan, layer norm). Their elementwise product is
projected back to d_model. A layer of the full network wraps the Mamba
layer in a residual, then applies a second residual depthwise-convolution
sub-layer that refines local structure.

Both depthwise convs are one causal op: it reads carried rows (or zeros)
before its input, appends flush zero rows after it and drops its first skip
output rows. A layer runs over a sequence one time block at a time, with a
LayerState that carries what the next block needs: the inner conv's last
input rows, the scan's hidden state and the outer conv's last input rows. A
whole sequence is one final block with no carried state. A centred outer
conv looks LayerWeights.lookahead = (width - 1) / 2 frames ahead, so a
layer's output lags its input by that many frames: the first blocks skip
the output rows before frame 0, and the final block flushes the lag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .scan import SsmParams, selective_scan_seq, ssm_parameterize
from .tensor import Tensor


def depthwise_conv1d(x: Tensor, kernel: Tensor, bias: Tensor,
                     past: np.ndarray | None = None, flush: int = 0,
                     skip: int = 0) -> Tensor:
    """Causal per-channel 1-D convolution over the time axis.

    kernel has shape (channels, width), with the newest sample at the last
    tap, so output t never sees input beyond t. The conv reads the
    (width - 1, channels) rows of past before x (zeros when past is None)
    and flush zero rows after it, and drops its first skip output rows: it
    returns len(x) + flush - skip rows. A centred conv of odd width over a
    whole sequence is flush = skip = (width - 1) / 2.

    past, for one time block of a longer sequence, is overwritten with the
    last width - 1 rows of past and x: the past of the next block. It
    carries no gradient.
    """
    length, channels = x.data.shape
    width = kernel.data.shape[1]
    if kernel.data.shape[0] != channels:
        raise ValueError("kernel channel count mismatch")
    rows = length + flush - skip
    xp = np.zeros((width - 1 + length + flush, channels), dtype=x.data.dtype)
    xp[width - 1:width - 1 + length] = x.data
    if past is not None:
        xp[:width - 1] = past
        past[...] = xp[length:length + width - 1]
    out_data = np.zeros((rows, channels), dtype=x.data.dtype)
    for j in range(width):
        out_data += kernel.data[:, j] * xp[skip + j:skip + j + rows]
    out_data += bias.data

    def bwd(g):
        dx = dk = db = None
        if kernel.requires_grad:
            dk = np.empty_like(kernel.data)
            for j in range(width):
                dk[:, j] = (g * xp[skip + j:skip + j + rows]).sum(axis=0)
        if bias.requires_grad:
            db = g.sum(axis=0)
        if x.requires_grad:
            dxp = np.zeros_like(xp)
            for j in range(width):
                dxp[skip + j:skip + j + rows] += g * kernel.data[:, j]
            dx = dxp[width - 1:width - 1 + length]
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
    # frames the outer conv looks ahead: (width - 1) / 2 centred, 0 causal
    lookahead: int = 0


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
    state = depthwise_conv1d(state, w.conv_kernel, w.conv_bias, conv_past)
    state = tz.silu(state)
    si = ssm_parameterize(state, w.ssm)
    state = selective_scan_seq(state, si, w.ssm, h)
    state = tz.layer_norm(state, w.ln_gamma, w.ln_beta)
    gate = tz.silu(tz.matmul(f, w.in_proj_gate))
    return tz.matmul(tz.mul(state, gate), w.out_proj)


def conv_mamba_layer(h_prev: Tensor, w: LayerWeights,
                     carry: LayerState | None = None, final: bool = False) -> Tensor:
    """Residual Mamba sub-layer followed by a residual depthwise-conv
    sub-layer; reverse-direction stream summed in when present.

    With carry, h_prev is the next time block of a unidirectional layer's
    input, and the output is the block of rows that the input so far
    determines: it ends w.lookahead rows before the input does, except on
    the final block. Without carry, h_prev is a whole sequence: one final
    block.
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
    # output row t comes out with input row t + lookahead; the leading rows
    # belong to frames before 0, and the final block flushes the lag
    past, pending = (None, 0) if carry is None else (carry.outer, len(carry.pending))
    flush = w.lookahead if final or carry is None else 0
    skip = min(len(e.data) + flush, w.lookahead - pending)
    refined = depthwise_conv1d(normed_e, w.conv_kernel, w.conv_bias, past, flush, skip)
    if carry is not None:
        residual = np.concatenate([carry.pending, e.data])
        e = Tensor._checked(residual[:len(refined.data)], False)
        carry.pending = residual[len(refined.data):]
    return tz.add(refined, e)
