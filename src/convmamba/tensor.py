"""Dense tensors with reverse-mode automatic differentiation on an explicit tape.

Just enough machinery for the mask-estimation network: 2-D matmul, the
activations the layers use, frame-wise layer norm, a couple of shape ops,
and a central-difference gradient checker. float32 by default, float64
selectable for tight-tolerance tests.
"""

from __future__ import annotations

import threading

import numpy as np

_DEFAULT_DTYPE = np.float32

_DTYPE_NAMES = {"f32": np.float32, "f64": np.float64}


def set_default_dtype(name: str) -> None:
    """Set the dtype used for newly constructed tensors ("f32" or "f64")."""
    global _DEFAULT_DTYPE
    if name not in _DTYPE_NAMES:
        raise ValueError(f"unknown precision {name!r}")
    _DEFAULT_DTYPE = _DTYPE_NAMES[name]


def default_dtype():
    return _DEFAULT_DTYPE


class Tensor:
    """N-dimensional float array, optionally participating in a gradient tape."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype if dtype is not None else _DEFAULT_DTYPE)
        if not np.isfinite(arr).all():
            raise ValueError("tensor construction from non-finite values")
        self.data = arr
        self.requires_grad = requires_grad

    @classmethod
    def _checked(cls, data: np.ndarray, requires_grad: bool) -> "Tensor":
        """Wrap values the caller has already found finite, with no copy."""
        t = cls.__new__(cls)
        t.data = np.asarray(data)
        t.requires_grad = requires_grad
        return t

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class Parameter:
    """A uniquely named trainable tensor."""

    __slots__ = ("name", "tensor")

    def __init__(self, name: str, tensor: Tensor):
        tensor.requires_grad = True
        self.name = name
        self.tensor = tensor

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.tensor.shape})"


class Tape:
    """Ordered record of primitive ops; replayed in reverse by backward().

    Single use: one backward pass consumes the tape, a second raises. A tape
    records only the ops of the thread that opened it.
    """

    def __init__(self):
        self._ops: list[tuple[Tensor, tuple, callable]] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        _TAPES.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPES.stack.pop()
        assert popped is self

    def record(self, out: Tensor, inputs, backward_fn) -> None:
        self._ops.append((out, inputs, backward_fn))

    def __len__(self) -> int:
        return len(self._ops)


class _TapeStack(threading.local):
    """The open tapes of the current thread, innermost last."""

    def __init__(self):
        self.stack: list[Tape] = []


_TAPES = _TapeStack()


def _active_tape() -> Tape | None:
    stack = _TAPES.stack
    return stack[-1] if stack else None


def _finish(op_name: str, out_data: np.ndarray, inputs, backward_fn) -> Tensor:
    """Wrap an op result; register the adjoint if a tape is live and needed.

    backward_fn maps the output's gradient to one gradient per input, None
    for an input it skips.
    """
    if not np.isfinite(out_data).all():
        raise ValueError(f"non-finite values produced by {op_name}")
    tape = _active_tape()
    needs = any(t.requires_grad for t in inputs)
    out = Tensor._checked(out_data, needs and tape is not None)
    if tape is not None and needs:
        tape.record(out, inputs, backward_fn)
    return out


def backward(loss: Tensor, tape: Tape) -> dict[Tensor, np.ndarray]:
    """Gradients of the scalar loss, keyed by each leaf tensor it depends on
    that requires a gradient.

    Ops run in reverse tape order and each sums into its inputs in input
    order; an op's output gradient is freed once its adjoint has run.
    """
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")
    if tape.consumed:
        raise RuntimeError("tape already consumed by a previous backward pass")
    tape.consumed = True
    grads = {loss: np.ones_like(loss.data)}
    for out, inputs, backward_fn in reversed(tape._ops):
        g = grads.pop(out, None)
        if g is None:
            continue
        for t, gt in zip(inputs, backward_fn(g)):
            if gt is None or not t.requires_grad:
                continue
            if t in grads:
                grads[t] += gt
            else:
                # a copy: adjoints may return views, or one array twice
                grads[t] = np.array(gt, dtype=t.data.dtype, copy=True)
    return grads


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        return (g @ b.data.T if a.requires_grad else None,
                a.data.T @ g if b.requires_grad else None)

    return _finish("matmul", out_data, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may also be a rank-1 bias broadcast over rows of a."""
    _check_broadcast("add", a, b)
    out_data = a.data + b.data

    def bwd(g):
        if not b.requires_grad:
            return g, None
        return g, g if b.data.shape == g.shape else g.sum(axis=0)

    return _finish("add", out_data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    out_data = a.data - b.data

    def bwd(g):
        if not b.requires_grad:
            return g, None
        return g, -g if b.data.shape == g.shape else -g.sum(axis=0)

    return _finish("sub", out_data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    out_data = a.data * b.data

    def bwd(g):
        ga = g * b.data if a.requires_grad else None
        if not b.requires_grad:
            return ga, None
        gb = g * a.data
        return ga, gb if b.data.shape == gb.shape else gb.sum(axis=0)

    return _finish("mul", out_data, (a, b), bwd)


def _check_broadcast(op, a: Tensor, b: Tensor) -> None:
    if a.data.shape == b.data.shape:
        return
    if b.data.ndim == 1 and a.data.ndim >= 1 and a.data.shape[-1] == b.data.shape[0]:
        return
    raise ValueError(f"{op} shape mismatch: {a.data.shape} vs {b.data.shape}")


def scale(x: Tensor, c: float) -> Tensor:
    out_data = x.data * x.data.dtype.type(c)

    def bwd(g):
        return (g * x.data.dtype.type(c),)

    return _finish("scale", out_data, (x,), bwd)


def sum_all(x: Tensor) -> Tensor:
    out_data = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def bwd(g):
        return (np.broadcast_to(g, x.data.shape),)

    return _finish("sum_all", out_data, (x,), bwd)


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0)

    def bwd(g):
        return (g * (x.data > 0),)

    return _finish("relu", out_data, (x,), bwd)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(min(x, 0)) / (1 + exp(-|x|)) is 1/(1 + e^-x) for x >= 0 and
    # e^x/(1 + e^x) below; neither exp argument is positive, so none overflows
    out = np.minimum(x, 0)
    np.exp(out, out=out)
    den = np.abs(x)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out /= den
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)

    def bwd(g):
        return (g * s * (1.0 - s),)

    return _finish("sigmoid", s, (x,), bwd)


def silu(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    out_data = x.data * s

    def bwd(g):
        return (g * (s * (1.0 + x.data * (1.0 - s))),)

    return _finish("silu", out_data, (x,), bwd)


def _softplus(x: np.ndarray) -> np.ndarray:
    # softplus(x) = max(x, 0) + log1p(exp(-|x|)) stays finite for any x
    return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))


def softplus(x: Tensor) -> Tensor:
    out_data = _softplus(x.data)

    def bwd(g):
        return (g * _sigmoid(x.data),)

    return _finish("softplus", out_data, (x,), bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of x over its last axis (biased variance), then affine."""
    if x.data.shape[-1] != gamma.data.shape[0] or gamma.data.shape != beta.data.shape:
        raise ValueError("layer_norm parameter shape mismatch")
    # centred once; sum/n is how np.mean and np.var divide, so the bits match
    n = x.data.shape[-1]
    d = x.data - x.data.sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt((d * d).sum(axis=-1, keepdims=True) / n + eps)
    xhat = d * inv
    out_data = xhat * gamma.data + beta.data

    def bwd(g):
        g_gamma = g_beta = g_x = None
        if gamma.requires_grad:
            g_gamma = (g * xhat).reshape(-1, g.shape[-1]).sum(axis=0)
        if beta.requires_grad:
            g_beta = g.reshape(-1, g.shape[-1]).sum(axis=0)
        if x.requires_grad:
            gx = g * gamma.data
            m1 = gx.sum(axis=-1, keepdims=True) / n
            m2 = (gx * xhat).sum(axis=-1, keepdims=True) / n
            g_x = inv * (gx - m1 - xhat * m2)
        return g_x, g_gamma, g_beta

    return _finish("layer_norm", out_data, (x, gamma, beta), bwd)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of a 2-D tensor."""
    if x.data.ndim != 2:
        raise ValueError("slice_cols expects a 2-D tensor")
    out_data = np.ascontiguousarray(x.data[:, start:stop])

    def bwd(g):
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        return (full,)

    return _finish("slice_cols", out_data, (x,), bwd)


def flip_time(x: Tensor) -> Tensor:
    """Reverse the first (time) axis."""
    out_data = np.ascontiguousarray(x.data[::-1])

    def bwd(g):
        return (g[::-1],)

    return _finish("flip_time", out_data, (x,), bwd)


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def finite_diff_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    f maps a Tensor to a scalar Tensor. Requires float64 inputs; h should sit
    in [1e-6, 1e-4] so truncation and rounding errors both stay small.
    """
    if x.data.dtype != np.float64:
        raise ValueError("finite_diff_check requires a float64 tensor")
    x.requires_grad = True
    with Tape() as tape:
        loss = f(x)
    analytic = backward(loss, tape).get(x, np.zeros_like(x.data))

    flat = x.data.reshape(-1)
    fd = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = float(f(x).data)
        flat[i] = orig - h
        lo = float(f(x).data)
        flat[i] = orig
        fd[i] = (hi - lo) / (2.0 * h)
    fd = fd.reshape(x.data.shape)
    denom = np.maximum(1.0, np.abs(fd))
    return float(np.max(np.abs(analytic - fd) / denom))
