"""Shared synthetic-audio fixtures, the scan oracles, and the SSM init that
the scan tests draw their parameters from."""

from contextlib import contextmanager

import numpy as np
import pytest

from convmamba import scan
from convmamba import tensor as tz
from convmamba.audio import Waveform, save_wav
from convmamba.scan import SsmParams, a_log_init, dt_bias_init
from convmamba.tensor import Tensor, set_default_dtype


@contextmanager
def f64_mode():
    set_default_dtype("f64")
    try:
        yield
    finally:
        set_default_dtype("f32")


def synth_speechlike(rng, seconds=0.5, rate=16000):
    """Tonal signal with a slow envelope; enough structure to separate from
    white noise in the magnitude domain."""
    t = np.arange(int(seconds * rate)) / rate
    f0 = rng.uniform(200.0, 500.0)
    env = 0.6 + 0.4 * np.sin(2 * np.pi * rng.uniform(1.0, 3.0) * t)
    x = env * (0.5 * np.sin(2 * np.pi * f0 * t)
               + 0.25 * np.sin(2 * np.pi * 2 * f0 * t))
    return Waveform(0.5 * x / np.max(np.abs(x)), rate)


def write_corpus(root, n_clean=3, n_noise=2, seconds=0.5, seed=0):
    rng = np.random.default_rng(seed)
    clean_dir = root / "clean"
    noise_dir = root / "noise"
    clean_dir.mkdir(parents=True)
    noise_dir.mkdir(parents=True)
    for i in range(n_clean):
        save_wav(clean_dir / f"clean_{i:02d}.wav", synth_speechlike(rng, seconds))
    for i in range(n_noise):
        noise = Waveform(0.3 * rng.standard_normal(int(2 * seconds * 16000)))
        save_wav(noise_dir / f"noise_{i:02d}.wav", noise)
    return clean_dir, noise_dir


def write_nan_wav(path, n=4000, at=1234):
    """A float32 WAV whose sample `at` is patched to a NaN."""
    save_wav(path, Waveform(np.full(n, 0.1)), encoding="float32")
    raw = bytearray(path.read_bytes())
    raw[44 + 4 * at:48 + 4 * at] = np.array(np.nan, dtype="<f4").tobytes()
    path.write_bytes(bytes(raw))
    return path


@pytest.fixture
def corpus(tmp_path):
    return write_corpus(tmp_path)


EDGE_CHUNK = 16


@pytest.fixture
def chunk16(monkeypatch):
    """Chunk every scan at EDGE_CHUNK frames, so tests reach chunk edges at
    shapes (float64, a few channels) where the byte rule gives one chunk."""
    monkeypatch.setattr(scan, "chunk_frames", lambda *shape: EDGE_CHUNK)


def init_ssm_params(d_inner, n_state, dt_rank, rng, dtype=None):
    """One SSM's parameters at the network's init: A = -(1..N) per channel,
    fan-in uniform projections, dt bias set so softplus(bias) is log-uniform
    in [1e-3, 1e-1], and a fixed zero skip."""
    dtype = dtype or tz.default_dtype()
    a_log = a_log_init(d_inner, n_state)
    x_proj = rng.uniform(-1, 1, (d_inner, dt_rank + 2 * n_state)) / np.sqrt(d_inner)
    dt_w = rng.uniform(-1, 1, (dt_rank, d_inner)) / np.sqrt(dt_rank)
    dt_bias = dt_bias_init(d_inner, rng)
    return SsmParams(
        a_log=Tensor(a_log, requires_grad=True, dtype=dtype),
        d_skip=Tensor(np.zeros(d_inner), dtype=dtype),
        x_proj_weight=Tensor(x_proj, requires_grad=True, dtype=dtype),
        dt_proj_weight=Tensor(dt_w, requires_grad=True, dtype=dtype),
        dt_proj_bias=Tensor(dt_bias, requires_grad=True, dtype=dtype))


def discretize_zoh(a, b, delta):
    """Zero-order-hold discretization of dh/dt = a*h + b*u over a step delta,
    in float64: a_bar = exp(delta*a) and b_bar = expm1(delta*a)/a * b,
    elementwise on scalars or broadcastable arrays. a must be negative, as
    the network's A = -exp(a_log) always is."""
    a = np.asarray(a, dtype=np.float64)
    if (a >= 0).any():
        raise ValueError("a must be negative")
    e = np.expm1(np.asarray(delta, dtype=np.float64) * a)
    return e + 1.0, e / a * np.asarray(b, dtype=np.float64)


def naive_scan(u, delta, b, c, a, d_skip):
    """Selective scan as a per-step float64 loop: no chunks, no state fold-in."""
    length, d_inner = u.shape
    n = b.shape[1]
    z = np.zeros_like(u)
    h = np.zeros((d_inner, n))
    for t in range(length):
        a_bar, b_bar = discretize_zoh(a, b[t][None, :], delta[t][:, None])
        h = a_bar * h + b_bar * u[t][:, None]
        z[t] = h @ c[t] + d_skip * u[t]
    return z


def lti_kernel(a_bar, b_bar, c, length):
    """Causal kernel K[t] = <c, a_bar^t * b_bar> per channel, shape (length, D),
    of a scan whose (a_bar, b_bar, c) do not change over time."""
    kernel = np.empty((length, a_bar.shape[0]))
    power = np.ones_like(a_bar)
    for t in range(length):
        kernel[t] = (power * b_bar) @ c
        power = power * a_bar
    return kernel


def causal_conv(u, kernel):
    """z[t] = sum_{tau<=t} K[tau] * u[t-tau] per channel, for u of shape (L, D)."""
    z = np.zeros_like(u)
    for tau in range(len(u)):
        z[tau:] += kernel[tau] * u[:len(u) - tau]
    return z
