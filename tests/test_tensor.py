"""Tensor engine: op semantics, adjoints vs finite differences, tape contract."""

import tracemalloc

import numpy as np
import pytest

from convmamba import tensor as T
from convmamba.tensor import (Tape, Tensor, add, backward, finite_diff_check,
                              layer_norm, matmul, mul, scale, sigmoid, silu,
                              slice_cols, softplus, sub, sum_all)


def t64(data, requires_grad=False):
    return Tensor(data, requires_grad=requires_grad, dtype=np.float64)


def test_matmul_identity():
    b = t64([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = matmul(t64(np.eye(2)), b)
    np.testing.assert_array_equal(out.data, b.data)


def test_matmul_scalar_case():
    out = matmul(t64([[2.0]]), t64([[3.0]]))
    assert out.data[0, 0] == 6.0


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((5, 3))
    want = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            for k in range(5):
                want[i, j] += a[i, k] * b[k, j]
    got = matmul(t64(a), t64(b)).data
    assert np.max(np.abs(got - want)) < 1e-12


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))


def test_matmul_associative_with_identity():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = t64(rng.standard_normal((4, 4)))
        b = t64(rng.standard_normal((4, 4)))
        c = t64(rng.standard_normal((4, 4)))
        left = matmul(matmul(a, b), c).data
        right = matmul(a, matmul(b, c)).data
        rel = np.max(np.abs(left - right)) / max(1.0, np.max(np.abs(left)))
        assert rel < 1e-10
        np.testing.assert_array_equal(matmul(t64(np.eye(4)), a).data, a.data)


def test_activation_fixed_points():
    z = t64([0.0])
    assert silu(z).data[0] == 0.0
    assert sigmoid(z).data[0] == 0.5
    assert abs(softplus(z).data[0] - np.log(2.0)) < 1e-15


def test_activation_saturation_stays_finite():
    x = t64([-50.0, 50.0])
    for fn in (T.relu, sigmoid, silu, softplus):
        assert np.isfinite(fn(x).data).all(), fn.__name__
    s = sigmoid(t64([-20.0, 20.0])).data
    assert 0.0 < s[0] and s[1] < 1.0
    assert softplus(x).data[0] > 0.0


def test_sigmoid_matches_logistic_at_extremes():
    # a tanh-based form loses the tail below about -20 to cancellation
    x = np.array([-700.0, -100.0, -20.0, 20.0, 100.0])
    want = np.exp(x) / (1.0 + np.exp(x))
    got = sigmoid(t64(x)).data
    assert np.max(np.abs(got - want) / want) < 1e-15


def test_layer_norm_constant_row():
    x = t64(np.full((2, 5), 3.7))
    out = layer_norm(x, t64(np.ones(5)), t64(np.zeros(5)), eps=1e-5)
    assert np.max(np.abs(out.data)) == 0.0


def test_layer_norm_standardizes():
    rng = np.random.default_rng(3)
    x = t64(rng.standard_normal((4, 16)) * 2.0 + 1.0)
    out = layer_norm(x, t64(np.ones(16)), t64(np.zeros(16)), eps=1e-12).data
    assert np.max(np.abs(out.mean(axis=1))) < 1e-12
    assert np.max(np.abs(out.var(axis=1) - 1.0)) < 1e-9


def test_layer_norm_against_direct_formula():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((3, 4))
    gamma = rng.standard_normal(4)
    beta = rng.standard_normal(4)
    eps = 1e-5
    want = np.empty_like(x)
    for i in range(3):
        row = x[i]
        want[i] = (row - row.mean()) / np.sqrt(row.var() + eps) * gamma + beta
    got = layer_norm(t64(x), t64(gamma), t64(beta), eps=eps).data
    assert np.max(np.abs(got - want)) < 1e-12


def mean_var_layer_norm(x, gamma, beta, g, eps=1e-5):
    """Layer norm through np.mean and np.var, and its x, gamma and beta
    gradients for the output gradient g: the oracle for the one-pass form."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    gx = g * gamma
    m1 = gx.mean(axis=-1, keepdims=True)
    m2 = (gx * xhat).mean(axis=-1, keepdims=True)
    return (xhat * gamma + beta, inv * (gx - m1 - xhat * m2),
            (g * xhat).sum(axis=0), g.sum(axis=0))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(62, 257), (62, 32), (2000, 512)])
def test_layer_norm_bits_match_mean_var_oracle(shape, dtype):
    rng = np.random.default_rng(shape[1])
    x, g = (rng.standard_normal((2,) + shape) * 3.0 + 1.0).astype(dtype)
    gamma, beta = rng.standard_normal((2, shape[1])).astype(dtype)
    xt, gt, bt = (Tensor(a, requires_grad=True, dtype=dtype) for a in (x, gamma, beta))
    with Tape() as tape:
        out = layer_norm(xt, gt, bt)
        loss = sum_all(mul(out, Tensor(g, dtype=dtype)))
    grads = backward(loss, tape)
    got = (out.data, grads[xt], grads[gt], grads[bt])
    for name, want, have in zip(("out", "x", "gamma", "beta"),
                                mean_var_layer_norm(x, gamma, beta, g), got):
        assert have.dtype == dtype, name
        np.testing.assert_array_equal(have, want, err_msg=name)


def test_backward_square():
    x = t64([3.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(mul(x, x))
    assert abs(backward(loss, tape)[x][0] - 6.0) < 1e-14


def test_backward_matches_hand_chain_rule():
    # loss = sum(sigmoid(W x)); dloss/dW = s(1-s) x^T, dloss/dx = W^T s(1-s)
    rng = np.random.default_rng(9)
    w = t64(rng.standard_normal((3, 2)), requires_grad=True)
    x = t64(rng.standard_normal((2, 1)), requires_grad=True)
    with Tape() as tape:
        y = matmul(w, x)
        loss = sum_all(sigmoid(y))
    grads = backward(loss, tape)
    s = 1.0 / (1.0 + np.exp(-(w.data @ x.data)))
    np.testing.assert_allclose(grads[w], (s * (1 - s)) @ x.data.T, rtol=0, atol=1e-14)
    np.testing.assert_allclose(grads[x], w.data.T @ (s * (1 - s)), rtol=0, atol=1e-14)


def test_backward_composed_graph_vs_finite_diff():
    rng = np.random.default_rng(21)
    w = rng.standard_normal((4, 4))

    def f(x):
        h = silu(matmul(x, Tensor(w, dtype=np.float64)))
        return sum_all(mul(h, sigmoid(h)))

    err = finite_diff_check(f, t64(rng.standard_normal((3, 4))))
    assert err < 1e-6


def test_backward_requires_scalar_loss():
    x = t64([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
    with pytest.raises(ValueError):
        backward(y, tape)


def test_tape_single_use():
    x = t64([2.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(mul(x, x))
    backward(loss, tape)
    with pytest.raises(RuntimeError):
        backward(loss, tape)


def test_finite_diff_on_sum():
    rng = np.random.default_rng(1)
    x = t64(rng.standard_normal(6))
    assert finite_diff_check(sum_all, x) < 1e-10


def _unary_cases():
    return [
        ("relu", lambda x: sum_all(relu_shifted(x))),
        ("sigmoid", lambda x: sum_all(sigmoid(x))),
        ("silu", lambda x: sum_all(silu(x))),
        ("softplus", lambda x: sum_all(softplus(x))),
        ("scale", lambda x: sum_all(scale(x, 1.7))),
        ("slice", lambda x: sum_all(slice_cols(x, 1, 3))),
        ("flip", lambda x: sum_all(mul(T.flip_time(x), x))),
    ]


def relu_shifted(x):
    # keep coordinates away from the kink so central differences are valid
    return T.relu(add(x, Tensor(np.full(x.shape[-1], 0.5), dtype=np.float64)))


def test_every_primitive_gradient_over_seeds():
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        x = t64(rng.uniform(-2.0, 2.0, size=(3, 4)))
        for name, f in _unary_cases():
            err = finite_diff_check(f, Tensor(x.data.copy(), dtype=np.float64))
            assert err < 1e-4, f"{name} grad check failed at seed {seed}: {err}"

        a = t64(rng.standard_normal((3, 4)))
        b = t64(rng.standard_normal((4, 2)))
        err = finite_diff_check(lambda t: sum_all(silu(matmul(t, b))), a)
        assert err < 1e-4
        err = finite_diff_check(lambda t: sum_all(silu(matmul(a, t))),
                                Tensor(b.data.copy(), dtype=np.float64))
        assert err < 1e-4

        for op in (add, sub, mul):
            other = t64(rng.standard_normal((3, 4)))
            err = finite_diff_check(lambda t: sum_all(mul(op(t, other), t)),
                                    Tensor(x.data.copy(), dtype=np.float64))
            assert err < 1e-4, f"{op.__name__} failed at seed {seed}"
        bias = t64(rng.standard_normal(4))
        err = finite_diff_check(lambda t: sum_all(sigmoid(add(x, t))),
                                Tensor(bias.data.copy(), dtype=np.float64))
        assert err < 1e-4

        gamma = rng.standard_normal(4)
        beta = rng.standard_normal(4)
        err = finite_diff_check(
            lambda t: sum_all(sigmoid(layer_norm(t, t64(gamma), t64(beta)))),
            Tensor(x.data.copy(), dtype=np.float64))
        assert err < 1e-4
        err = finite_diff_check(
            lambda t: sum_all(sigmoid(layer_norm(x, t, t64(beta)))),
            Tensor(gamma.copy(), dtype=np.float64))
        assert err < 1e-4


def test_no_nan_inf_for_bounded_inputs():
    rng = np.random.default_rng(42)
    x = t64(rng.uniform(-50.0, 50.0, size=(8, 8)))
    y = t64(rng.uniform(-50.0, 50.0, size=(8, 8)))
    for out in (matmul(x, y), add(x, y), sub(x, y), mul(x, y),
                T.relu(x), sigmoid(x), silu(x), softplus(x),
                layer_norm(x, t64(np.ones(8)), t64(np.zeros(8))),
                sum_all(x), scale(x, 3.0)):
        assert np.isfinite(out.data).all()


def test_nonfinite_op_output_raises():
    big = t64([1e200, 1e300])
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        mul(big, big)


def test_no_recording_without_tape():
    x = t64([1.0, 2.0], requires_grad=True)
    out = mul(x, x)
    assert not out.requires_grad


def test_grad_shape_and_accumulation():
    x = t64([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = sum_all(add(mul(x, x), x))
    grad = backward(loss, tape)[x]
    assert grad.shape == x.data.shape
    np.testing.assert_allclose(grad, 2 * x.data + 1, atol=1e-14)


def test_backward_frees_intermediate_gradients():
    # each op's output gradient is dropped once its adjoint has run, so the
    # peak holds a few arrays of x's size, not one per op of the chain
    x = t64(np.random.default_rng(4).standard_normal((256, 256)), requires_grad=True)
    with Tape() as tape:
        y = x
        for _ in range(32):
            y = scale(y, 1.001)
        loss = sum_all(y)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = backward(loss, tape)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 8 * x.data.nbytes, peak / x.data.nbytes
    assert set(grads) == {x}


def test_default_dtype_switch():
    T.set_default_dtype("f64")
    try:
        assert Tensor([1.0]).data.dtype == np.float64
    finally:
        T.set_default_dtype("f32")
    assert Tensor([1.0]).data.dtype == np.float32
    for name in ("f16", "float64"):
        with pytest.raises(ValueError):
            T.set_default_dtype(name)


def test_nonfinite_op_output_names_the_op():
    with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="non-finite values produced by mul"):
        mul(t64([1e200]), t64([1e200]))


def test_one_isfinite_pass_per_op(monkeypatch):
    x = t64([[0.5, -1.0], [2.0, 0.25]], requires_grad=True)
    gamma, beta = t64([1.0, 1.0], requires_grad=True), t64([0.0, 0.0])
    ops = [lambda: matmul(x, x), lambda: add(x, x), lambda: silu(x),
           lambda: sigmoid(x), lambda: layer_norm(x, gamma, beta),
           lambda: sum_all(x), lambda: scale(x, 3.0)]
    calls = []
    real = np.isfinite

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting)
    for op in ops:
        calls.clear()
        with Tape():
            op()
        assert len(calls) == 1
        calls.clear()
        op()
        assert len(calls) == 1


def test_tape_records_only_its_own_thread():
    import threading
    x = t64([1.0, 2.0], requires_grad=True)
    seen = {}

    def other():
        seen["untaped"] = mul(x, x)
        with Tape() as inner:
            mul(x, x)
        seen["inner_len"] = len(inner)

    with Tape() as tape:
        worker = threading.Thread(target=other)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert len(tape) == 0
        mul(x, x)
    assert len(tape) == 1
    assert not seen["untaped"].requires_grad
    assert seen["inner_len"] == 1
