"""Selective state-space core: ZOH discretization and the selective scan.

Per channel d the recurrence over an N-dimensional hidden state is

    h_t = a_bar_t * h_{t-1} + b_bar_t * u_t        (elementwise over N)
    z_t = <c_t, h_t> + d_skip * u_t

where (a_bar_t, b_bar_t) come from zero-order-hold discretization of the
diagonal A < 0 and B_t at a per-timestep, per-channel step size delta_t > 0
(Mamba's eq. 4 with a diagonal A):

    a_bar_t = exp(delta_t A),    b_bar_t = expm1(delta_t A) / A * B_t

delta, B and C are themselves projections of the input sequence. The scan
evaluates the recurrence step by step, from h_0 = 0 or from a given state,
and can hand its final state on, so consecutive calls over consecutive time
blocks continue one recurrence.

The scan runs over time chunks whose (frames, N, d_inner) buffers take at
most 512 KiB (chunk_frames: 16 frames at N 16, d_inner 512 in float32, where
the adjoint's five fit a 4 MiB L2 cache). A taped scan keeps its inputs, the
state entering each chunk and the final chunk's four buffers (ZOH terms, drive
and states: at most 2 MiB). Its adjoint starts on that final chunk and
recomputes every chunk before it, in reverse, from its entering state.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .tensor import Tensor


@dataclass
class SsmParams:
    """Continuous-time parameters and the selective projection weights.

    a_log stores log(-A) so the state matrix A = -exp(a_log) is negative by
    construction; d_skip is the optional feedthrough (zero when disabled).
    """

    a_log: Tensor            # (d_inner, n_state)
    d_skip: Tensor           # (d_inner,)
    x_proj_weight: Tensor    # (d_inner, dt_rank + 2*n_state)
    dt_proj_weight: Tensor   # (dt_rank, d_inner)
    dt_proj_bias: Tensor     # (d_inner,)

    @property
    def n_state(self) -> int:
        return self.a_log.data.shape[1]

    @property
    def dt_rank(self) -> int:
        return self.x_proj_weight.data.shape[1] - 2 * self.n_state


@dataclass
class SelectiveInputs:
    """Per-timestep step sizes and input/output projections (shared over channels)."""

    delta: Tensor   # (L, d_inner), strictly positive
    b: Tensor       # (L, n_state)
    c: Tensor       # (L, n_state)

    def __post_init__(self):
        if (self.delta.data <= 0).any():
            raise ValueError("delta must be strictly positive")


def dt_rank_for(d_model: int) -> int:
    return max(1, -(-d_model // 16))


def softplus_inverse(y):
    return np.log(np.expm1(y))


def a_log_init(d_inner: int, n_state: int) -> np.ndarray:
    """log(-A) for A = -(1..N) in every channel."""
    return np.log(np.tile(np.arange(1, n_state + 1, dtype=np.float64), (d_inner, 1)))


def dt_bias_init(d_inner: int, rng: np.random.Generator) -> np.ndarray:
    """Biases whose softplus is log-uniform in [1e-3, 1e-1]."""
    return softplus_inverse(np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), d_inner)))


# ---------------------------------------------------------------------------
# zero-order hold
# ---------------------------------------------------------------------------

def zoh_terms(delta, a_t, inv_a, ea, a_bar) -> None:
    """Zero-order-hold terms of dh/dt = A*h + B*u over steps delta, written
    into ea and a_bar: with x = delta*A, a_bar = exp(x) and ea = expm1(x)/A,
    so b_bar = ea*B.

    delta broadcasts against the diagonal A = a_t < 0, and inv_a = 1/a_t.
    expm1 keeps ea accurate as x goes to zero.
    """
    np.multiply(delta, a_t, out=ea)
    np.expm1(ea, out=ea)
    np.add(ea, 1.0, out=a_bar)
    ea *= inv_a


# ---------------------------------------------------------------------------
# selective parameterization
# ---------------------------------------------------------------------------

def ssm_parameterize(x: Tensor, p: SsmParams) -> SelectiveInputs:
    """Project the input sequence to per-timestep (delta, B, C).

    x (L, d_inner) is projected by x_proj_weight and split into a low-rank
    delta precursor and the B/C rows; delta = softplus(dt_low @ dt_proj + bias)
    is positive by construction.
    """
    n = p.n_state
    r = p.dt_rank
    proj = tz.matmul(x, p.x_proj_weight)
    dt_low = tz.slice_cols(proj, 0, r)
    b = tz.slice_cols(proj, r, r + n)
    c = tz.slice_cols(proj, r + n, r + 2 * n)
    delta = tz.softplus(tz.add(tz.matmul(dt_low, p.dt_proj_weight), p.dt_proj_bias))
    return SelectiveInputs(delta=delta, b=b, c=c)


# ---------------------------------------------------------------------------
# selective scan
# ---------------------------------------------------------------------------

def _states_sequential(h0: np.ndarray, a_bar: np.ndarray, s: np.ndarray,
                       h: np.ndarray) -> np.ndarray:
    # h[t] = a_bar[t]*h[t-1] + s[t] from h[-1] = h0, written in place
    prev = h0
    for a_bar_t, s_t, h_t in zip(a_bar, s, h):
        np.multiply(a_bar_t, prev, out=h_t)
        h_t += s_t
        prev = h_t
    return h


def _chunk_states(h0, delta, b, u, a_t, inv_a, ea, a_bar, s, h):
    """States (n, N, D) of one chunk entered with state h0, written into h.

    Also fills, for the chunk, ea and a_bar (see zoh_terms) and the drive
    s = b_bar*u; ea and h may share a buffer.
    """
    zoh_terms(delta[:, None, :], a_t, inv_a, ea, a_bar)
    np.multiply(ea, u[:, None, :], out=s)
    s *= b[:, :, None]
    return _states_sequential(h0, a_bar, s, h)


def chunk_frames(n_state: int, d_inner: int, itemsize: int) -> int:
    """Frames per scan chunk: as many as fit a (frames, N, d_inner) buffer in 512 KiB."""
    return max(1, 512 * 1024 // (n_state * d_inner * itemsize))


class _Spare(threading.local):
    """Chunk blocks of this thread's finished taped scans, for its next ones.

    A taped scan holds its (4, frames, N, d_inner) block from its forward to
    the end of its adjoint, so a train step's blocks are live at once. Freed
    when the step ends, they would leave the top of the heap free, glibc
    would return it to the kernel, and the next step would take those pages
    again as faults (380-550 a step at d_model 32 on 58-62 frames). A block
    carries no values from one scan to the next, since a scan writes every
    row it reads; a thread keeps at most as many as it had live at once.
    An untaped scan frees its block on return, as it did before.
    """

    def __init__(self):
        self.blocks: list[np.ndarray] = []


_spare = _Spare()


def _take_block(shape: tuple, dtype) -> np.ndarray:
    """An unfilled block of this shape, reused from this thread if it has one."""
    blocks = _spare.blocks
    if blocks and blocks[-1].shape == shape and blocks[-1].dtype == dtype:
        return blocks.pop()
    return np.empty(shape, dtype=dtype)


def _give_back(block: np.ndarray) -> None:
    """Keep a block for this thread's next scans; kept ones of another shape go."""
    blocks = _spare.blocks
    if blocks and (blocks[-1].shape, blocks[-1].dtype) != (block.shape, block.dtype):
        blocks.clear()
    blocks.append(block)


def selective_scan_seq(u: Tensor, si: SelectiveInputs, p: SsmParams,
                       state: np.ndarray | None = None) -> Tensor:
    """Evaluate the recurrence step by step from h_0 = 0.

    state, if given, is the (n_state, d_inner) hidden state entering the
    sequence in place of zeros, and is overwritten with the state after its
    last step: the entering state of the next time block. It carries no
    gradient.
    """
    udata = u.data
    delta = si.delta.data
    bdata = si.b.data
    cdata = si.c.data
    # state slabs are laid out (time, N, D) so every broadcast runs along D
    a_t = np.ascontiguousarray(-np.exp(p.a_log.data).T)
    inv_a = 1.0 / a_t
    dtype = delta.dtype
    step = min(chunk_frames(*a_t.shape, dtype.itemsize), max(1, len(delta)))
    spans = [(t0, min(t0 + step, len(delta))) for t0 in range(0, len(delta), step)]
    boundary = np.empty((len(spans) + 1,) + a_t.shape, dtype=dtype)  # h entering chunk k
    boundary[0] = 0.0 if state is None else state
    inputs = (u, si.delta, si.b, si.c, p.a_log, p.d_skip)
    # a taped scan's block outlives this call, so it is reused (see _Spare)
    taped = tz.recording_tape(inputs) is not None
    block = (_take_block if taped else np.empty)((4, step) + a_t.shape, dtype)
    ea, a_bar, s, h = block
    last = len(spans) - 1
    z = np.empty_like(udata)
    for k, (t0, t1) in enumerate(spans):
        n = t1 - t0
        # earlier chunks write their states over ea; the final chunk's go to h,
        # so all four of its buffers are left for the adjoint
        hc = _chunk_states(boundary[k], delta[t0:t1], bdata[t0:t1], udata[t0:t1],
                           a_t, inv_a, ea[:n], a_bar[:n], s[:n],
                           (h if k == last else ea)[:n])
        np.matmul(cdata[t0:t1, None, :], hc, out=z[t0:t1, None, :])
        boundary[k + 1] = hc[-1]
    z += udata * p.d_skip.data
    if state is not None:
        state[...] = boundary[-1]

    def bwd(g):
        g_u = g * p.d_skip.data
        g_delta = np.empty_like(delta)
        g_b = np.empty_like(bdata)
        g_c = np.empty_like(cdata)
        g_a = np.zeros_like(a_t)
        lam = np.empty((step,) + a_t.shape, dtype=dtype)
        prod = np.empty_like(a_t)
        carry = np.zeros_like(a_t)                 # a_bar[t+1]*lam[t+1] past the chunk
        for k in range(last, -1, -1):
            t0, t1 = spans[k]
            n = t1 - t0
            ac, sc, ec, hc, lc = a_bar[:n], s[:n], ea[:n], h[:n], lam[:n]
            bc, uc, gc = bdata[t0:t1], udata[t0:t1], g[t0:t1]
            if k < last:                           # the final chunk is kept
                _chunk_states(boundary[k], delta[t0:t1], bc, uc, a_t, inv_a,
                              ec, ac, sc, hc)
            # lam[t] = dL/dh[t] = c[t] g[t] + a_bar[t+1] lam[t+1]
            np.multiply(cdata[t0:t1, :, None], gc[:, None, :], out=lc)
            lc[-1] += carry
            for a_next, lam_next, lam_t in zip(ac[:0:-1], lc[:0:-1], lc[-2::-1]):
                np.multiply(a_next, lam_next, out=prod)
                lam_t += prod
            np.multiply(ac[0], lc[0], out=carry)
            np.matmul(hc, gc[:, :, None], out=g_c[t0:t1, :, None])
            # through s = expm1(x)/A * u*b with x = delta*A held fixed:
            # q = lam*expm1(x)/A contracted over N and over D
            ec *= lc
            g_u[t0:t1] += np.matmul(bc[:, None, :], ec)[:, 0, :]
            np.matmul(ec, uc[:, :, None], out=g_b[t0:t1, :, None])
            # through x: d a_bar/dx = a_bar and d expm1(x)/dx = a_bar, so with
            # a_bar*h[t-1] = h[t] - s, dL/dx * A = lam*(h*A + u*b)
            np.multiply(bc[:, :, None], uc[:, None, :], out=ec)
            hc *= a_t
            hc += ec
            hc *= lc
            g_delta[t0:t1] = hc.sum(axis=1)
            # dL/da_log = A dL/dA = sum_t delta * dL/dx*A - lam*s, the last
            # term from the 1/A factor of s
            g_a += np.einsum("tnd,td->nd", hc, delta[t0:t1])
            sc *= lc
            g_a -= sc.sum(axis=0)
        _give_back(block)
        return g_u, g_delta, g_b, g_c, g_a.T, (g * udata).sum(axis=0)

    return tz._finish("selective_scan", z, inputs, bwd)
