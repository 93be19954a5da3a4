"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor wraps an ndarray plus an optional gradient slot; every op below
records a closure that maps the upstream gradient to per-input gradients.
backward() walks the recorded graph once from a scalar loss; calling it
again on the same loss without rebuilding the graph is an error.

Single-threaded during a forward/backward pass; distinct graphs are
independent, and inference over plain ndarrays never touches the tape.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self._consumed = False

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(data):
    """A trainable leaf: participates in backward() and accumulates .grad."""
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True)


def constant(data):
    return Tensor(data, requires_grad=False)


def as_tensor(value):
    return value if isinstance(value, Tensor) else constant(value)


def _tracked(*inputs):
    return any(t.requires_grad or t._parents for t in inputs)


def _make(data, inputs, backward_fn):
    """backward_fn(g) must return one gradient array per entry of `inputs`."""
    if _tracked(*inputs):
        return Tensor(data, _parents=tuple(inputs), _backward=backward_fn)
    return Tensor(data)


def _unbroadcast(grad, shape):
    """Sum grad down to `shape` after numpy broadcasting."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data, (a, b), lambda g: (g * b.data, g * a.data))


def neg(a):
    a = as_tensor(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def scale(a, c):
    """Multiply by a python float (no tensor allocated for the constant)."""
    a = as_tensor(a)
    c = float(c)
    return _make(a.data * c, (a,), lambda g: (g * c,))


def add_const(a, c):
    a = as_tensor(a)
    return _make(a.data + float(c), (a,), lambda g: (g,))


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    return _make(
        a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g)
    )


def exp(a):
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make(out, (a,), lambda g: (g * out,))


def expm1(a):
    a = as_tensor(a)
    out = np.expm1(a.data)
    return _make(out, (a,), lambda g: (g * (out + 1.0),))


def log(a):
    a = as_tensor(a)
    if np.any(a.data <= 0.0):
        raise ValueError("log requires strictly positive input")
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def sigmoid(a):
    a = as_tensor(a)
    out = 1.0 / (1.0 + np.exp(-a.data))
    return _make(out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a):
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _make(out, (a,), lambda g: (g * (1.0 - out * out),))


def swish(a):
    """x * sigmoid(x)."""
    a = as_tensor(a)
    s = 1.0 / (1.0 + np.exp(-a.data))
    out = a.data * s
    return _make(out, (a,), lambda g: (g * (s + out * (1.0 - s)),))


def clip(a, lo, hi):
    """Clamp; gradient passes through inside [lo, hi] and is zero outside."""
    a = as_tensor(a)
    mask = np.ones_like(a.data, dtype=bool)
    if lo is not None:
        mask &= a.data >= lo
    if hi is not None:
        mask &= a.data <= hi
    return _make(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


def slice_cols(a, start, stop):
    a = as_tensor(a)

    def backward_fn(g):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        return (full,)

    return _make(a.data[:, start:stop], (a,), backward_fn)


def sum_axis(a, axis):
    a = as_tensor(a)
    return _make(
        a.data.sum(axis=axis),
        (a,),
        lambda g: (np.broadcast_to(np.expand_dims(g, axis), a.data.shape),),
    )


def mean_all(a):
    a = as_tensor(a)
    n = a.data.size
    return _make(
        np.asarray(a.data.mean()),
        (a,),
        lambda g: (np.full(a.data.shape, float(g) / n),),
    )


def layer_norm(a, eps=1e-5):
    """Normalize over the last axis to zero mean, unit variance (no affine)."""
    a = as_tensor(a)
    mu = a.data.mean(axis=-1, keepdims=True)
    xc = a.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    out = xc * inv

    def backward_fn(g):
        g_mean = g.mean(axis=-1, keepdims=True)
        gy_mean = (g * out).mean(axis=-1, keepdims=True)
        return (inv * (g - g_mean - out * gy_mean),)

    return _make(out, (a,), backward_fn)


def custom_unary(a, value, derivative):
    """Lift a numpy function with known elementwise derivative into the graph."""
    a = as_tensor(a)
    out = value(a.data)
    return _make(out, (a,), lambda g: (g * derivative(a.data),))


def backward(loss: Tensor):
    """Reverse pass from a scalar loss; fills .grad on trainable leaves.

    Raises if loss is not a scalar or if called twice on the same graph.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._consumed:
        raise RuntimeError("backward already ran on this graph; rebuild the loss first")
    loss._consumed = True

    order = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    # `order` keeps every node alive for the whole pass, so id() keys are stable.
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            if node.grad is None:
                node.grad = g.copy()
            else:
                node.grad = node.grad + g
        if node._backward is None:
            continue
        parent_grads = node._backward(g)
        for parent, pg in zip(node._parents, parent_grads):
            pg = _unbroadcast(pg, parent.data.shape)
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


def zero_grads(params):
    for p in params:
        p.grad = None
