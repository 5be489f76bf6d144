"""Selective state-space core: ZOH discretization and the selective scan.

Per channel d the recurrence over an N-dimensional hidden state is

    h_t = a_bar_t * h_{t-1} + b_bar_t * u_t        (elementwise over N)
    z_t = <c_t, h_t> + d_skip * u_t

where (a_bar_t, b_bar_t) come from zero-order-hold discretization of the
diagonal A < 0 and B_t at a per-timestep, per-channel step size delta_t > 0
(Mamba's eq. 4 with a diagonal A):

    a_bar_t = exp(delta_t A),    b_bar_t = expm1(delta_t A) / A * B_t

delta, B and C are themselves projections of the input sequence. The scan
evaluates the recurrence step by step.

The scan runs over time chunks whose (frames, N, d_inner) buffers take at
most 512 KiB (chunk_frames: 16 frames at N 16, d_inner 512 in float32, where
the adjoint's five fit a 4 MiB L2 cache). A taped scan keeps its inputs and
the state entering each chunk, from which its adjoint recomputes it in reverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .tensor import Tensor, _accum


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


def init_ssm_params(d_inner: int, n_state: int, dt_rank: int,
                    rng: np.random.Generator, learnable_skip: bool = False,
                    dtype=None) -> SsmParams:
    """Standard initialization: A = -(1..N) per channel, fan-in uniform
    projections, and dt bias set so softplus(bias) is log-uniform in
    [1e-3, 1e-1]."""
    dtype = dtype or tz.default_dtype()
    a_log = a_log_init(d_inner, n_state)
    x_proj = rng.uniform(-1, 1, (d_inner, dt_rank + 2 * n_state)) / np.sqrt(d_inner)
    dt_w = rng.uniform(-1, 1, (dt_rank, d_inner)) / np.sqrt(dt_rank)
    dt_bias = dt_bias_init(d_inner, rng)
    d_skip = np.ones(d_inner) if learnable_skip else np.zeros(d_inner)
    return SsmParams(
        a_log=Tensor(a_log, requires_grad=True, dtype=dtype),
        d_skip=Tensor(d_skip, requires_grad=learnable_skip, dtype=dtype),
        x_proj_weight=Tensor(x_proj, requires_grad=True, dtype=dtype),
        dt_proj_weight=Tensor(dt_w, requires_grad=True, dtype=dtype),
        dt_proj_bias=Tensor(dt_bias, requires_grad=True, dtype=dtype))


# ---------------------------------------------------------------------------
# zero-order hold
# ---------------------------------------------------------------------------

def discretize_zoh(a, b, delta):
    """Zero-order-hold discretization of dh/dt = a*h + b*u over a step delta.

    a_bar = exp(delta*a) and b_bar = expm1(delta*a)/a * b, elementwise on
    scalars or broadcastable arrays. a must be negative, as the network's
    A = -exp(a_log) always is.
    """
    a = np.asarray(a, dtype=np.float64)
    if (a >= 0).any():
        raise ValueError("a must be negative")
    e = np.expm1(np.asarray(delta, dtype=np.float64) * a)
    return e + 1.0, e / a * np.asarray(b, dtype=np.float64)


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
    for t in range(s.shape[0]):
        np.multiply(a_bar[t], prev, out=h[t])
        h[t] += s[t]
        prev = h[t]
    return h


def _chunk_states(h0, delta, b, u, a_t, inv_a, ea, a_bar, s, h):
    """States (n, N, D) of one chunk entered with state h0, written into h.

    Also fills, for the chunk, ea = expm1(delta*A)/A, a_bar = exp(delta*A)
    and the drive s = b_bar*u; ea and h may share a buffer.
    """
    np.multiply(delta[:, None, :], a_t, out=ea)
    np.expm1(ea, out=ea)
    np.add(ea, 1.0, out=a_bar)
    ea *= inv_a
    np.multiply(ea, u[:, None, :], out=s)
    s *= b[:, :, None]
    return _states_sequential(h0, a_bar, s, h)


def chunk_frames(n_state: int, d_inner: int, itemsize: int) -> int:
    """Frames per scan chunk: as many as fit a (frames, N, d_inner) buffer in 512 KiB."""
    return max(1, 512 * 1024 // (n_state * d_inner * itemsize))


def selective_scan_seq(u: Tensor, si: SelectiveInputs, p: SsmParams) -> Tensor:
    """Evaluate the recurrence step by step from h_0 = 0."""
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
    boundary = np.zeros((len(spans) + 1,) + a_t.shape, dtype=dtype)  # h entering chunk k
    x, a_bar, s = np.empty((3, step) + a_t.shape, dtype=dtype)
    z = np.empty_like(udata)
    for k, (t0, t1) in enumerate(spans):
        n = t1 - t0
        hc = _chunk_states(boundary[k], delta[t0:t1], bdata[t0:t1], udata[t0:t1],
                           a_t, inv_a, x[:n], a_bar[:n], s[:n], x[:n])
        np.matmul(cdata[t0:t1, None, :], hc, out=z[t0:t1, None, :])
        boundary[k + 1] = hc[-1]
    z += udata * p.d_skip.data

    inputs = (u, si.delta, si.b, si.c, p.a_log, p.d_skip)

    def bwd(g):
        g_u = g * p.d_skip.data
        g_delta = np.empty_like(delta)
        g_b = np.empty_like(bdata)
        g_c = np.empty_like(cdata)
        g_a = np.zeros_like(a_t)
        x, a_bar, s, ea, lam = np.empty((5, step) + a_t.shape, dtype=dtype)
        carry = np.zeros_like(a_t)                 # a_bar[t+1]*lam[t+1] past the chunk
        for k in range(len(spans) - 1, -1, -1):
            t0, t1 = spans[k]
            n = t1 - t0
            ac, sc, ec, lc = a_bar[:n], s[:n], ea[:n], lam[:n]
            bc, uc, gc = bdata[t0:t1], udata[t0:t1], g[t0:t1]
            hc = _chunk_states(boundary[k], delta[t0:t1], bc, uc, a_t, inv_a,
                               ec, ac, sc, x[:n])
            # lam[t] = dL/dh[t] = c[t] g[t] + a_bar[t+1] lam[t+1]
            np.multiply(cdata[t0:t1, :, None], gc[:, None, :], out=lc)
            lc[-1] += carry
            for t in range(n - 2, -1, -1):
                lc[t] += ac[t + 1] * lc[t + 1]
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
        grads = (g_u, g_delta, g_b, g_c, g_a.T, (g * udata).sum(axis=0))
        for t, grad in zip(inputs, grads):
            if t.requires_grad:
                _accum(t, grad)

    return tz._finish("selective_scan", z, inputs, bwd)
