"""ZOH discretization and the selective scan, checked against the per-step
loop and convolution oracles in conftest."""

import threading
import tracemalloc

import numpy as np
import pytest

from convmamba.scan import (SelectiveInputs, SsmParams, chunk_frames,
                            dt_rank_for, selective_scan_seq, softplus_inverse,
                            ssm_parameterize, zoh_terms)
from convmamba.tensor import (Tape, Tensor, backward, finite_diff_check, mul,
                              scale, sum_all)

from conftest import (EDGE_CHUNK, discretize_zoh, init_ssm_params,
                      lti_kernel, naive_scan)


def t64(a, requires_grad=False):
    return Tensor(np.asarray(a, dtype=np.float64), requires_grad=requires_grad,
                  dtype=np.float64)


def make_params(d_inner, n_state, rng, dt_rank=None):
    dt_rank = dt_rank or max(1, d_inner // 4)
    p = init_ssm_params(d_inner, n_state, dt_rank, rng, dtype=np.float64)
    return p


def random_inputs(rng, length, d_inner, n_state):
    si = SelectiveInputs(
        delta=t64(rng.uniform(1e-3, 0.5, (length, d_inner))),
        b=t64(rng.standard_normal((length, n_state))),
        c=t64(rng.standard_normal((length, n_state))))
    u = t64(rng.standard_normal((length, d_inner)))
    return u, si


def phi_series(x, terms=30):
    # (exp(x)-1)/x = sum_{k>=0} x^k/(k+1)!  -- converges to 1e-12 for |x| <= 4
    acc = np.zeros_like(np.asarray(x, dtype=np.float64))
    fact = 1.0
    power = np.ones_like(acc)
    for k in range(terms):
        fact *= (k + 1)
        acc = acc + power / fact
        power = power * x
    return acc


def production_zoh(a, b, delta):
    """(a_bar, b_bar) from the scan's scan.zoh_terms, in float64."""
    a, delta = np.atleast_1d(a, delta)
    ea, a_bar = np.empty((2,) + np.broadcast(delta, a).shape)
    zoh_terms(delta, a, 1.0 / a, ea, a_bar)
    return a_bar, ea * b


def test_zoh_closed_form_scalar():
    a_bar, b_bar = production_zoh(-1.0, 1.0, np.log(2.0))
    assert abs(a_bar[0] - 0.5) < 1e-15
    assert abs(b_bar[0] - 0.5) < 1e-15


def test_zoh_small_step_limit():
    a_bar, b_bar = production_zoh(-1.0, 3.0, 1e-9)
    assert abs(a_bar[0] - 1.0) < 1e-8
    # phi deviates from 1 by x/2 = 5e-10, so b_bar - delta*b ~ 1.5e-18
    assert abs(b_bar[0] - 3e-9) < 1e-17


def test_zoh_matches_series_oracle():
    rng = np.random.default_rng(13)
    a = -rng.uniform(0.01, 16.0, 2000)
    delta = np.exp(rng.uniform(np.log(1e-5), np.log(0.25), 2000))
    b = rng.standard_normal(2000)
    a_bar, b_bar = production_zoh(a, b, delta)
    x = delta * a
    want_b = phi_series(x) * delta * b
    np.testing.assert_allclose(a_bar, np.exp(x), rtol=0, atol=1e-15)
    err = np.abs(b_bar - want_b) / np.maximum(1.0, np.abs(want_b))
    assert err.max() < 1e-12


@pytest.mark.parametrize("a", [0.0, 0.5, [-1.0, 0.0]])
def test_zoh_rejects_nonnegative_a(a):
    with pytest.raises(ValueError, match="negative"):
        discretize_zoh(a, 1.0, 0.1)


def test_parameterize_delta_from_bias():
    rng = np.random.default_rng(0)
    p = make_params(6, 4, rng)
    p.dt_proj_bias.data[:] = softplus_inverse(0.01)
    si = ssm_parameterize(t64(np.zeros((5, 6))), p)
    np.testing.assert_allclose(si.delta.data, 0.01, atol=1e-12)


def test_parameterize_shapes_and_positivity():
    rng = np.random.default_rng(4)
    p = make_params(8, 4, rng, dt_rank=2)
    x = t64(rng.standard_normal((7, 8)))
    si = ssm_parameterize(x, p)
    assert si.delta.data.shape == (7, 8)
    assert si.b.data.shape == (7, 4)
    assert si.c.data.shape == (7, 4)
    for seed in range(1000):
        x = np.random.default_rng(seed).uniform(-10, 10, (1, 8))
        si = ssm_parameterize(t64(x), p)
        assert (si.delta.data > 0).all()


def test_dt_rank_default():
    assert dt_rank_for(256) == 16
    assert dt_rank_for(8) == 1
    assert dt_rank_for(17) == 2


def test_scan_single_step_is_cb_times_u():
    rng = np.random.default_rng(9)
    p = make_params(3, 5, rng)
    u, si = random_inputs(rng, 1, 3, 5)
    z = selective_scan_seq(u, si, p).data
    a = -np.exp(p.a_log.data)
    _, b_bar = discretize_zoh(a, si.b.data[0][None, :], si.delta.data[0][:, None])
    want = (b_bar @ si.c.data[0]) * u.data[0]
    np.testing.assert_allclose(z[0], want, atol=1e-14)


def test_scan_memoryless_when_decay_is_total():
    rng = np.random.default_rng(10)
    p = make_params(2, 3, rng)
    p.a_log.data[:] = np.log(1e8)  # a_bar underflows to exactly zero
    u, si = random_inputs(rng, 6, 2, 3)
    si.delta.data[:] = 1.0
    z = selective_scan_seq(u, si, p).data
    a = -np.exp(p.a_log.data)
    for t in range(6):
        _, b_bar = discretize_zoh(a, si.b.data[t][None, :], si.delta.data[t][:, None])
        want = (b_bar @ si.c.data[t]) * u.data[t]
        np.testing.assert_allclose(z[t], want, atol=1e-14)


def test_scan_matches_unrolled_expansion():
    rng = np.random.default_rng(21)
    p = make_params(4, 3, rng)
    u, si = random_inputs(rng, 3, 4, 3)
    z = selective_scan_seq(u, si, p).data
    a = -np.exp(p.a_log.data)
    a_bars, b_bars = [], []
    for t in range(3):
        ab, bb = discretize_zoh(a, si.b.data[t][None, :], si.delta.data[t][:, None])
        a_bars.append(ab)
        b_bars.append(bb)
    want = np.zeros_like(z)
    for t in range(3):
        for tau in range(t + 1):
            decay = np.ones_like(a)
            for sigma in range(tau + 1, t + 1):
                decay = decay * a_bars[sigma]
            want[t] += (decay * b_bars[tau] * u.data[tau][:, None]) @ si.c.data[t]
    assert np.max(np.abs(z - want)) < 1e-12


def test_scan_matches_naive_reference():
    rng = np.random.default_rng(3)
    p = make_params(5, 4, rng)
    u, si = random_inputs(rng, 40, 5, 4)
    z = selective_scan_seq(u, si, p).data
    want = naive_scan(u.data, si.delta.data, si.b.data, si.c.data,
                      -np.exp(p.a_log.data), p.d_skip.data)
    assert np.max(np.abs(z - want)) < 1e-12


def test_lti_kernel_values():
    k = lti_kernel(np.array([[0.0]]), np.array([[2.0]]), np.array([1.0]), 4)
    np.testing.assert_allclose(k[:, 0], [2.0, 0.0, 0.0, 0.0], atol=0)
    k = lti_kernel(np.array([[0.5]]), np.array([[1.0]]), np.array([1.0]), 3)
    np.testing.assert_allclose(k[:, 0], [1.0, 0.5, 0.25], atol=0)


def test_stability_over_long_sequences():
    rng = np.random.default_rng(5)
    length, d_inner, n = 10_000, 2, 4
    p = make_params(d_inner, n, rng)
    si = SelectiveInputs(delta=t64(rng.uniform(0.01, 1.0, (length, d_inner))),
                         b=t64(rng.uniform(-1, 1, (length, n))),
                         c=t64(rng.uniform(-1, 1, (length, n))))
    u = t64(rng.uniform(-1, 1, (length, d_inner)))
    z = selective_scan_seq(u, si, p).data
    assert np.isfinite(z).all()
    # geometric bound: |h| <= max|b_bar*u| / (1 - max a_bar)
    a = -np.exp(p.a_log.data)
    a_bar, b_bar = discretize_zoh(a[None], si.b.data[:, None, :],
                                  si.delta.data[:, :, None])
    bound = np.max(np.abs(b_bar * u.data[:, :, None])) / (1.0 - a_bar.max())
    assert np.max(np.abs(z)) <= bound * n * np.max(np.abs(si.c.data)) + 1e-9


def test_scan_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    d_inner, n, length = 4, 3, 6
    p = make_params(d_inner, n, rng, dt_rank=2)
    p.d_skip.data[:] = rng.uniform(0.1, 1.0, d_inner)
    p.d_skip.requires_grad = True
    u0 = rng.standard_normal((length, d_inner))

    def full(u):
        si = ssm_parameterize(u, p)
        return sum_all(selective_scan_seq(u, si, p))

    assert finite_diff_check(full, t64(u0.copy())) < 1e-4

    u_fixed = t64(u0.copy())
    for weight in (p.a_log, p.x_proj_weight, p.dt_proj_weight, p.dt_proj_bias,
                   p.d_skip):
        err = finite_diff_check(lambda _t: full(u_fixed), weight)
        assert err < 1e-4, f"gradient mismatch for {weight}"


def test_scan_gradient_direct_inputs():
    rng = np.random.default_rng(14)
    p = make_params(3, 4, rng)
    u, si = random_inputs(rng, 5, 3, 4)

    def wrt_delta(_):
        return sum_all(selective_scan_seq(u, si, p))

    for field in (si.delta, si.b, si.c):
        assert finite_diff_check(wrt_delta, field) < 1e-4


def test_chunk_frames_sized_by_bytes(monkeypatch):
    import convmamba.scan as scan
    assert chunk_frames(16, 512, 4) == 16           # convmamba-4, float32
    assert chunk_frames(16, 512, 8) == 8
    assert chunk_frames(10 ** 9, 512, 8) == 1       # never below one frame
    # C9's narrow float32 scan: one chunk of 16384 frames fills the budget
    assert chunk_frames(2, 4, 4) * 2 * 4 * 4 <= 512 * 1024
    assert chunk_frames(2, 4, 4) >= 16384
    # d_model 32 (d_inner 64): a 1 s utterance's 62-frame scan is one chunk
    calls = []
    chunk_states = scan._chunk_states
    monkeypatch.setattr(scan, "_chunk_states",
                        lambda *a: calls.append(len(a[1])) or chunk_states(*a))
    rng = np.random.default_rng(5)
    p = init_ssm_params(64, 16, 2, rng, dtype=np.float32)
    u, si = random_inputs(rng, 62, 64, 16)
    f32 = [Tensor(t.data, dtype=np.float32) for t in (u, si.delta, si.b, si.c)]
    selective_scan_seq(f32[0], SelectiveInputs(*f32[1:]), p)
    assert calls == [62]


# Scans chunked every EDGE_CHUNK frames (the chunk16 fixture): lengths around
# the chunk length, plus fixed ones (63, 64, 65, 197) that straddle chunk
# edges for any chunk length that is a power of two up to 64.
@pytest.mark.parametrize("length", sorted({1, 63, 64, 65, 197, EDGE_CHUNK - 1,
                                           EDGE_CHUNK, EDGE_CHUNK + 1,
                                           3 * EDGE_CHUNK + 5}))
def test_scan_across_chunk_edges_matches_loop(length, chunk16):
    rng = np.random.default_rng(length)
    p = make_params(6, 4, rng)
    p.d_skip.data[:] = rng.uniform(0.1, 1.0, 6)
    u, si = random_inputs(rng, length, 6, 4)
    want = naive_scan(u.data, si.delta.data, si.b.data, si.c.data,
                      -np.exp(p.a_log.data), p.d_skip.data)
    assert np.max(np.abs(selective_scan_seq(u, si, p).data - want)) < 1e-10


@pytest.mark.parametrize("cut", [1, EDGE_CHUNK, EDGE_CHUNK + 3])
def test_scan_carried_state_continues_the_recurrence(cut, chunk16):
    """Two calls that hand the state on give one call's bits, and leave the
    state after the last step."""
    rng = np.random.default_rng(cut)
    d_inner, n, length = 6, 4, 2 * EDGE_CHUNK + 5
    p = make_params(d_inner, n, rng)
    p.d_skip.data[:] = rng.uniform(0.1, 1.0, d_inner)
    u, si = random_inputs(rng, length, d_inner, n)
    state = np.zeros((n, d_inner))
    parts = []
    for rows in (slice(0, cut), slice(cut, length)):
        part = SelectiveInputs(*(t64(t.data[rows]) for t in (si.delta, si.b, si.c)))
        parts.append(selective_scan_seq(t64(u.data[rows]), part, p, state).data)
    np.testing.assert_array_equal(np.concatenate(parts),
                                  selective_scan_seq(u, si, p).data)
    a = -np.exp(p.a_log.data)
    h = np.zeros((d_inner, n))
    for t in range(length):
        a_bar, b_bar = discretize_zoh(a, si.b.data[t][None, :], si.delta.data[t][:, None])
        h = a_bar * h + b_bar * u.data[t][:, None]
    np.testing.assert_allclose(state, h.T, rtol=1e-12, atol=1e-14)


# one-entry parametrisation keeps the test id it had beside a second evaluator
@pytest.mark.parametrize("scan", [selective_scan_seq])
def test_scan_gradients_across_chunk_edges(scan, chunk16):
    rng = np.random.default_rng(31)
    d_inner, n, length = 3, 2, 2 * EDGE_CHUNK + 3
    p = make_params(d_inner, n, rng)
    p.d_skip.data[:] = rng.uniform(0.1, 1.0, d_inner)
    p.d_skip.requires_grad = True
    u, si = random_inputs(rng, length, d_inner, n)
    weights = t64(rng.standard_normal((length, d_inner)))

    def loss(_):
        return sum_all(mul(scan(u, si, p), weights))

    for field in (u, si.delta, si.b, si.c, p.a_log, p.d_skip):
        assert finite_diff_check(loss, field) < 1e-4, field


def test_scan_gradients_at_tiny_steps(chunk16):
    # |delta*A| down to 1e-7, where expm1(x)/A nearly cancels to delta
    rng = np.random.default_rng(41)
    d_inner, n, length = 3, 4, 2 * EDGE_CHUNK + 3
    p = make_params(d_inner, n, rng)
    p.d_skip.data[:] = rng.uniform(0.1, 1.0, d_inner)
    p.d_skip.requires_grad = True
    u, si = random_inputs(rng, length, d_inner, n)
    si.delta.data[:] = np.exp(rng.uniform(np.log(1e-7), np.log(1e-4), (length, d_inner)))
    weights = t64(rng.standard_normal((length, d_inner)))

    def loss(_):
        return sum_all(mul(selective_scan_seq(u, si, p), weights))

    def lifted(_):
        # the B, C and a_log gradients shrink with delta; scaled up, they sit
        # above the absolute floor of finite_diff_check's max(1, |fd|)
        return scale(loss(_), 1e4)

    assert finite_diff_check(loss, si.delta, h=1e-9) < 1e-4  # keeps delta > 0
    for f, field in ((loss, u), (lifted, si.b), (lifted, si.c), (lifted, p.a_log),
                     (loss, p.d_skip)):
        assert finite_diff_check(f, field) < 1e-4, field


def test_float32_scan_tracks_float64():
    rng = np.random.default_rng(43)
    d_inner, n, length = 8, 16, 197
    p = make_params(d_inner, n, rng)
    p.d_skip.data[:] = rng.uniform(0.1, 1.0, d_inner)
    u, si = random_inputs(rng, length, d_inner, n)
    weights = rng.standard_normal((length, d_inner))
    results = []
    for dtype in (np.float64, np.float32):
        def cast(t):
            return Tensor(t.data, requires_grad=True, dtype=dtype)
        pc = SsmParams(cast(p.a_log), cast(p.d_skip), p.x_proj_weight,
                       p.dt_proj_weight, p.dt_proj_bias)
        sic = SelectiveInputs(cast(si.delta), cast(si.b), cast(si.c))
        uc = cast(u)
        with Tape() as tape:
            z = selective_scan_seq(uc, sic, pc)
            loss = sum_all(mul(z, Tensor(weights, dtype=dtype)))
        grads = backward(loss, tape)
        results.append([z.data] + [grads[t] for t in (uc, sic.delta, sic.b, sic.c,
                                                      pc.a_log, pc.d_skip)])
    for name, want, got in zip(("z", "u", "delta", "b", "c", "a_log", "d_skip"),
                               *results):
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err < 1e-5, (name, err)


def test_taped_scan_keeps_less_than_one_state_slab():
    rng = np.random.default_rng(2)
    length, d_inner, n = 1024, 64, 16
    p = make_params(d_inner, n, rng)
    u, si = random_inputs(rng, length, d_inner, n)
    u.requires_grad = True
    slab = length * d_inner * n * 8
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = sum_all(selective_scan_seq(u, si, p))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < slab, f"{held} bytes held between forward and backward"
    grads = backward(loss, tape)
    assert u in grads and p.a_log in grads


def scan_with_grads(u, si, p, weights):
    """Output of a taped scan and its (u, delta, B, C, a_log, d_skip)
    gradients under the loss sum(z * weights)."""
    leaves = (u, si.delta, si.b, si.c, p.a_log, p.d_skip)
    for t in leaves:
        t.requires_grad = True
    with Tape() as tape:
        z = selective_scan_seq(u, si, p)
        loss = sum_all(mul(z, Tensor(weights, dtype=z.data.dtype)))
    grads = backward(loss, tape)
    return [z.data] + [grads[t] for t in leaves]


def count_chunk_states(monkeypatch):
    import convmamba.scan as scan
    calls = []
    chunk_states = scan._chunk_states
    monkeypatch.setattr(scan, "_chunk_states",
                        lambda *a: calls.append(len(a[1])) or chunk_states(*a))
    return calls


@pytest.mark.parametrize("length", [1, 15, 16, 17, 62])
def test_adjoint_recomputes_every_chunk_but_the_final_one(length, chunk16, monkeypatch):
    calls = count_chunk_states(monkeypatch)
    rng = np.random.default_rng(length)
    p = make_params(6, 4, rng)
    u, si = random_inputs(rng, length, 6, 4)
    u.requires_grad = True
    with Tape() as tape:
        loss = sum_all(selective_scan_seq(u, si, p))
    chunks = -(-length // EDGE_CHUNK)
    assert len(calls) == chunks
    backward(loss, tape)
    assert calls[chunks:] == [EDGE_CHUNK] * (chunks - 1)


def test_one_chunk_taped_scan_runs_its_steps_once(monkeypatch):
    # d_model 32 (d_inner 64) in float32: a 62-frame scan is one kept chunk
    calls = count_chunk_states(monkeypatch)
    rng = np.random.default_rng(5)
    p = init_ssm_params(64, 16, 2, rng, dtype=np.float32)
    u, si = random_inputs(rng, 62, 64, 16)
    f32 = [Tensor(t.data, requires_grad=True, dtype=np.float32)
           for t in (u, si.delta, si.b, si.c)]
    with Tape() as tape:
        loss = sum_all(selective_scan_seq(f32[0], SelectiveInputs(*f32[1:]), p))
    assert calls == [62]
    backward(loss, tape)
    assert calls == [62]


def test_kept_final_chunk_matches_recomputed_chunks(monkeypatch):
    import convmamba.scan as scan
    rng = np.random.default_rng(62)
    length, d_inner, n = 62, 64, 16
    assert chunk_frames(n, d_inner, 8) >= length      # one chunk, kept whole
    p = make_params(d_inner, n, rng)
    p.d_skip.data[:] = rng.uniform(0.1, 1.0, d_inner)
    u, si = random_inputs(rng, length, d_inner, n)
    weights = rng.standard_normal((length, d_inner))
    one = scan_with_grads(u, si, p, weights)
    monkeypatch.setattr(scan, "chunk_frames", lambda *shape: EDGE_CHUNK)
    four = scan_with_grads(u, si, p, weights)         # three recomputed, one kept
    names = ("z", "u", "delta", "b", "c", "a_log", "d_skip")
    for name, want, got in zip(names, one, four):
        if name == "a_log":     # the chunks sum their a_log terms in another order
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        else:
            assert np.array_equal(got, want), name


def test_adjoint_allocates_one_chunk_buffer(chunk16):
    rng = np.random.default_rng(40)
    length, d_inner, n = 40, 256, 32
    p = make_params(d_inner, n, rng)
    u, si = random_inputs(rng, length, d_inner, n)
    u.requires_grad = True
    with Tape() as tape:
        loss = sum_all(selective_scan_seq(u, si, p))
    tracemalloc.start()
    try:
        grads = backward(loss, tape)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Past the gradients it returns, the adjoint's one chunk buffer is lam; the
    # rest are (frames, d_inner) rows and the ufunc buffers, here 0.4 chunk.
    # The chunks before the final one are recomputed into the kept buffers.
    chunk = EDGE_CHUNK * n * d_inner * 8
    assert peak - held < 2 * chunk, (peak - held) / chunk
    assert u in grads and p.a_log in grads


def test_reused_chunk_block_leaves_no_trace():
    import convmamba.scan as scan
    rng = np.random.default_rng(17)
    p = make_params(64, 16, rng)
    other, inputs = (random_inputs(rng, 62, 64, 16) for _ in range(2))
    weights = rng.standard_normal((62, 64))
    fresh = []                          # a new thread has no block to reuse
    worker = threading.Thread(
        target=lambda: fresh.extend(scan_with_grads(*inputs, p, weights)))
    worker.start()
    worker.join()
    scan_with_grads(*other, p, weights)
    assert scan._spare.blocks[-1].shape == (4, 62, 16, 64)
    reused = scan_with_grads(*inputs, p, weights)     # in the other scan's block
    for want, got in zip(fresh, reused):
        assert np.array_equal(got, want)
