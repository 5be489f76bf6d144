"""Selective state-space core: ZOH discretization and the selective scan.

Per channel d the recurrence over an N-dimensional hidden state is

    h_t = a_bar_t * h_{t-1} + b_bar_t * u_t        (elementwise over N)
    z_t = <c_t, h_t> + d_skip * u_t

where (a_bar_t, b_bar_t) come from zero-order-hold discretization of a
continuous pair (A, B) at a per-timestep, per-channel step size delta_t > 0,
and delta, B, C are themselves projections of the input sequence. The scan
evaluates the recurrence step by step.

The scan runs over cache-sized chunks of CHUNK frames (the adjoint's five
(16, N, d_inner) float32 buffers take 2.5 MiB at d_inner 512, N 16); the
state carried into a chunk is folded into its first drive term,
s[0] += a_bar[0]*h, so each chunk's recurrence starts from zero. A taped scan
keeps its inputs and the state entering each chunk, from which its adjoint
recomputes the chunk in reverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .tensor import Tensor, _accum

TAYLOR_THRESHOLD = 1e-4
CHUNK = 16


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


def softplus_inverse(y: float) -> float:
    return float(np.log(np.expm1(y)))


def init_ssm_params(d_inner: int, n_state: int, dt_rank: int,
                    rng: np.random.Generator, learnable_skip: bool = False,
                    dtype=None) -> SsmParams:
    """Standard initialization: A = -(1..N) per channel, fan-in uniform
    projections, and dt bias set so softplus(bias) is log-uniform in
    [1e-3, 1e-1]."""
    dtype = dtype or tz.default_dtype()
    a_log = np.log(np.tile(np.arange(1, n_state + 1, dtype=np.float64), (d_inner, 1)))
    x_proj = rng.uniform(-1, 1, (d_inner, dt_rank + 2 * n_state)) / np.sqrt(d_inner)
    dt_w = rng.uniform(-1, 1, (dt_rank, d_inner)) / np.sqrt(dt_rank)
    dt_init = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), d_inner))
    dt_bias = np.log(np.expm1(dt_init))
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

def _zoh(x, a_bar=None, phi=None, dphi=None):
    """Return a_bar = exp(x) and phi = (exp(x) - 1)/x, filling the arrays given;
    with dphi given, also write phi'(x) = (exp(x) - phi)/x into it.

    expm1 keeps phi accurate down to |x| = TAYLOR_THRESHOLD; below it both come
    from three-term Taylor series, well within 1e-12 of the exact ratios there.
    """
    a_bar = np.empty_like(x) if a_bar is None else a_bar
    phi = np.empty_like(x) if phi is None else phi
    with np.errstate(divide="ignore", invalid="ignore"):
        np.expm1(x, out=phi)
        np.add(phi, 1.0, out=a_bar)
        phi /= x
        if dphi is not None:
            np.subtract(a_bar, phi, out=dphi)
            dphi /= x
    # two reductions rule out the mask pass when no entry lies near zero
    if x.max() > -TAYLOR_THRESHOLD and x.min() < TAYLOR_THRESHOLD:
        small = np.abs(x) < TAYLOR_THRESHOLD
        xs = x[small]
        x2 = xs * xs
        x3 = x2 * xs
        phi[small] = 1.0 + 0.5 * xs + x2 * (1.0 / 6.0) + x3 * (1.0 / 24.0)
        if dphi is not None:
            dphi[small] = 0.5 + xs * (1.0 / 3.0) + x2 * 0.125 + x3 * (1.0 / 30.0)
    return a_bar, phi


def discretize_zoh(a, b, delta):
    """Zero-order-hold discretization of dh/dt = a*h + b*u over a step delta.

    a_bar = exp(delta*a); b_bar = (delta*a)^-1 (exp(delta*a) - 1) * delta*b,
    evaluated as phi(delta*a) * delta * b with the series branch near zero.
    Works elementwise on scalars or broadcastable arrays.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    a_bar, phi = _zoh(np.asarray(delta * a))
    return a_bar, phi * delta * b


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

def _states_sequential(a_bar: np.ndarray, s: np.ndarray, h: np.ndarray) -> np.ndarray:
    # h[t] = a_bar[t]*h[t-1] + s[t], written in place
    h[0] = s[0]
    for t in range(1, s.shape[0]):
        np.multiply(a_bar[t], h[t - 1], out=h[t])
        h[t] += s[t]
    return h


def _chunk_states(h0, delta, b, du, a_t, x, a_bar, phi, s, dphi=None):
    """States (n, N, D) of one chunk entered with state h0, written over x.

    Also fills a_bar, phi and dphi for the chunk; phi and s may share a buffer.
    """
    np.multiply(delta[:, None, :], a_t, out=x)
    _zoh(x, a_bar, phi, dphi)
    np.multiply(phi, du[:, None, :], out=s)       # phi*delta*u
    s *= b[:, :, None]                             # b_bar*u
    s[0] += a_bar[0] * h0
    return _states_sequential(a_bar, s, x)


def selective_scan_seq(u: Tensor, si: SelectiveInputs, p: SsmParams) -> Tensor:
    """Evaluate the recurrence step by step from h_0 = 0."""
    udata = u.data
    delta = si.delta.data
    bdata = si.b.data
    cdata = si.c.data
    # state slabs are laid out (time, N, D) so every broadcast runs along D
    a_t = np.ascontiguousarray(-np.exp(p.a_log.data).T)
    dtype = delta.dtype
    spans = [(t0, min(t0 + CHUNK, len(delta))) for t0 in range(0, len(delta), CHUNK)]
    boundary = np.zeros((len(spans) + 1,) + a_t.shape, dtype=dtype)  # h entering chunk k
    x, a_bar, s = np.empty((3, CHUNK) + a_t.shape, dtype=dtype)
    z = np.empty_like(udata)
    for k, (t0, t1) in enumerate(spans):
        n = t1 - t0
        hc = _chunk_states(boundary[k], delta[t0:t1], bdata[t0:t1],
                           delta[t0:t1] * udata[t0:t1], a_t, x[:n], a_bar[:n], s[:n], s[:n])
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
        x, a_bar, phi, dphi, lam = np.empty((5, CHUNK) + a_t.shape, dtype=dtype)
        carry = np.zeros_like(a_t)                 # a_bar[t+1]*lam[t+1] past the chunk
        for k in range(len(spans) - 1, -1, -1):
            t0, t1 = spans[k]
            n = t1 - t0
            ac, pc, dc, lc = a_bar[:n], phi[:n], dphi[:n], lam[:n]
            bc, duc, gc = bdata[t0:t1], delta[t0:t1] * udata[t0:t1], g[t0:t1]
            hc = _chunk_states(boundary[k], delta[t0:t1], bc, duc, a_t,
                               x[:n], ac, pc, lc, dc)
            # lam[t] = dL/dh[t] = c[t] g[t] + a_bar[t+1] lam[t+1]
            np.multiply(cdata[t0:t1, :, None], gc[:, None, :], out=lc)
            lc[-1] += carry
            for t in range(n - 2, -1, -1):
                lc[t] += ac[t + 1] * lc[t + 1]
            np.multiply(ac[0], lc[0], out=carry)
            np.matmul(hc, gc[:, :, None], out=g_c[t0:t1, :, None])
            # through x = delta*a: dL/dx = lam*(a_bar*h[t-1] + dphi*delta*u*b),
            # using a_bar*h[t-1] = h[t] - phi*delta*u*b
            dc -= pc
            dc *= duc[:, None, :]
            dc *= bc[:, :, None]
            dc += hc
            dc *= lc
            dc *= a_t                                  # dL/dx * dx/ddelta
            g_delta[t0:t1] = dc.sum(axis=1)
            g_a += np.einsum("tnd,td->nd", dc, delta[t0:t1])
            # through b_bar = phi*delta*b: lam*phi contracted over N and over D
            pc *= lc
            lpb = np.matmul(bc[:, None, :], pc)[:, 0, :]
            g_u[t0:t1] += delta[t0:t1] * lpb
            g_delta[t0:t1] += udata[t0:t1] * lpb
            np.matmul(pc, duc[:, :, None], out=g_b[t0:t1, :, None])
        grads = (g_u, g_delta, g_b, g_c, g_a.T, (g * udata).sum(axis=0))
        for t, grad in zip(inputs, grads):
            if t.requires_grad:
                _accum(t, grad)

    return tz._finish("selective_scan", z, inputs, bwd)
