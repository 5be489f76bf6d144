"""ZOH discretization and the three scan evaluators."""

import tracemalloc

import numpy as np
import pytest

from convmamba.scan import (CHUNK, SelectiveInputs, SsmParams, discretize_zoh,
                            dt_rank_for, init_ssm_params, lti_apply,
                            lti_kernel, selective_scan_parallel,
                            selective_scan_seq, softplus_inverse,
                            ssm_parameterize)
from convmamba.tensor import (Tape, Tensor, backward, finite_diff_check, mul,
                              sum_all)


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


def naive_scan(u, delta, b, c, a, d_skip):
    length, d_inner = u.shape
    n = b.shape[1]
    z = np.zeros_like(u)
    h = np.zeros((d_inner, n))
    for t in range(length):
        a_bar, b_bar = discretize_zoh(a, b[t][None, :], delta[t][:, None])
        h = a_bar * h + b_bar * u[t][:, None]
        z[t] = h @ c[t] + d_skip * u[t]
    return z


def test_zoh_closed_form_scalar():
    a_bar, b_bar = discretize_zoh(-1.0, 1.0, np.log(2.0))
    assert abs(a_bar - 0.5) < 1e-15
    assert abs(b_bar - 0.5) < 1e-15


def test_zoh_small_step_limit():
    a_bar, b_bar = discretize_zoh(-1.0, 3.0, 1e-9)
    assert abs(a_bar - 1.0) < 1e-8
    # phi deviates from 1 by x/2 = 5e-10, so b_bar - delta*b ~ 1.5e-18
    assert abs(b_bar - 3e-9) < 1e-17


def test_zoh_matches_series_oracle():
    rng = np.random.default_rng(13)
    a = -rng.uniform(0.01, 16.0, 2000)
    delta = np.exp(rng.uniform(np.log(1e-5), np.log(0.25), 2000))
    b = rng.standard_normal(2000)
    a_bar, b_bar = discretize_zoh(a, b, delta)
    x = delta * a
    want_b = phi_series(x) * delta * b
    np.testing.assert_allclose(a_bar, np.exp(x), rtol=0, atol=1e-15)
    err = np.abs(b_bar - want_b) / np.maximum(1.0, np.abs(want_b))
    assert err.max() < 1e-12


def test_zoh_taylor_branch_continuous_at_threshold():
    from convmamba.scan import _phi
    for x0 in (1e-4, -1e-4):
        taylor = 1.0 + x0 / 2.0 + x0 ** 2 / 6.0 + x0 ** 3 / 24.0
        direct = np.expm1(x0) / x0
        assert abs(taylor - direct) < 1e-10
        jump = abs(float(_phi(np.array(x0 * (1 - 1e-12))))
                   - float(_phi(np.array(x0 * (1 + 1e-12)))))
        assert jump < 1e-10


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


def test_scan_operator_associativity():
    rng = np.random.default_rng(17)

    def op(p, q):
        return (q[0] * p[0], q[0] * p[1] + q[1])

    for _ in range(200):
        x, y, z = ((rng.standard_normal(4), rng.standard_normal(4)) for _ in range(3))
        left = op(op(x, y), z)
        right = op(x, op(y, z))
        assert np.max(np.abs(left[0] - right[0])) < 1e-12
        assert np.max(np.abs(left[1] - right[1])) < 1e-12


def test_parallel_matches_sequential_short_and_long():
    rng = np.random.default_rng(30)
    for length in (1, 2, 5, 31, 32, 33, 64, 100, 128):
        p = make_params(8, 4, rng)
        u, si = random_inputs(rng, length, 8, 4)
        z_seq = selective_scan_seq(u, si, p).data
        z_par = selective_scan_parallel(u, si, p).data
        assert np.max(np.abs(z_seq - z_par)) < 1e-10, f"L={length}"
    # below the parallel threshold the fallback is bit-identical
    u, si = random_inputs(rng, 7, 8, 4)
    np.testing.assert_array_equal(selective_scan_seq(u, si, p).data,
                                  selective_scan_parallel(u, si, p).data)


def test_lti_kernel_values():
    k = lti_kernel(np.array([[0.0]]), np.array([[2.0]]), np.array([1.0]), 4)
    np.testing.assert_allclose(k[:, 0], [2.0, 0.0, 0.0, 0.0], atol=0)
    k = lti_kernel(np.array([[0.5]]), np.array([[1.0]]), np.array([1.0]), 3)
    np.testing.assert_allclose(k[:, 0], [1.0, 0.5, 0.25], atol=0)


def test_lti_apply_matches_scan_with_constant_inputs():
    rng = np.random.default_rng(8)
    d_inner, n, length = 3, 4, 24
    p = make_params(d_inner, n, rng)
    delta_row = rng.uniform(0.05, 0.5, d_inner)
    b_row = rng.standard_normal(n)
    c_row = rng.standard_normal(n)
    si = SelectiveInputs(delta=t64(np.tile(delta_row, (length, 1))),
                         b=t64(np.tile(b_row, (length, 1))),
                         c=t64(np.tile(c_row, (length, 1))))
    u = t64(rng.standard_normal((length, d_inner)))
    z = selective_scan_seq(u, si, p).data
    a_bar, b_bar = discretize_zoh(-np.exp(p.a_log.data), b_row[None, :],
                                  delta_row[:, None])
    kernel = lti_kernel(a_bar, b_bar, c_row, length)
    want = lti_apply(u.data, kernel)
    assert np.max(np.abs(z - want)) < 1e-10


def test_three_form_equivalence_random_configs():
    rng = np.random.default_rng(77)
    for _ in range(15):
        length = int(rng.integers(2, 129))
        d_inner = int(rng.integers(1, 17))
        n = int(rng.integers(1, 9))
        p = make_params(d_inner, n, rng)
        u, si = random_inputs(rng, length, d_inner, n)
        z_seq = selective_scan_seq(u, si, p).data
        z_par = selective_scan_parallel(u, si, p).data
        assert np.max(np.abs(z_seq - z_par)) < 1e-10


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
    x = si.delta.data[:, :, None] * a[None]
    a_bar = np.exp(x)
    from convmamba.scan import _phi
    b_bar = _phi(x) * si.delta.data[:, :, None] * si.b.data[:, None, :]
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
        return sum_all(selective_scan_parallel(u, si, p))

    for field in (si.delta, si.b, si.c):
        assert finite_diff_check(wrt_delta, field) < 1e-4


@pytest.mark.parametrize("length", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_scan_across_chunk_edges_matches_loop(length):
    rng = np.random.default_rng(length)
    p = make_params(6, 4, rng)
    p.d_skip.data[:] = rng.uniform(0.1, 1.0, 6)
    u, si = random_inputs(rng, length, 6, 4)
    want = naive_scan(u.data, si.delta.data, si.b.data, si.c.data,
                      -np.exp(p.a_log.data), p.d_skip.data)
    for scan in (selective_scan_seq, selective_scan_parallel):
        assert np.max(np.abs(scan(u, si, p).data - want)) < 1e-10, scan.__name__


@pytest.mark.parametrize("scan", [selective_scan_seq, selective_scan_parallel])
def test_scan_gradients_across_chunk_edges(scan):
    rng = np.random.default_rng(31)
    d_inner, n, length = 3, 2, 2 * CHUNK + 3
    p = make_params(d_inner, n, rng)
    p.d_skip.data[:] = rng.uniform(0.1, 1.0, d_inner)
    p.d_skip.requires_grad = True
    u, si = random_inputs(rng, length, d_inner, n)
    weights = t64(rng.standard_normal((length, d_inner)))

    def loss(_):
        return sum_all(mul(scan(u, si, p), weights))

    for field in (u, si.delta, si.b, si.c, p.a_log, p.d_skip):
        assert finite_diff_check(loss, field) < 1e-4, field


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
    backward(loss, tape)
    assert u.grad is not None and p.a_log.grad is not None
