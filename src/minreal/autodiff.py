"""Minimal reverse-mode automatic differentiation on float64 numpy arrays.

A Tensor wraps an ndarray plus an optional gradient slot; every op below
records a closure that maps the upstream gradient to per-input gradients.
make() builds every node. nets and qvae build their fused nodes with it too:
one per network (Mlp.forward), one per likelihood head (gaussian_log_prob_t,
cb_log_prob_t), one per reparameterized sample (reparam_sample) and one per
deformed chain (qvae._deformed_sum_t), each with a hand-written backward
from its net's raw output. The ops here are only the add, mean and
negation that finish the losses.
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


def tracked(*inputs):
    """Whether any input is a parameter or depends on one."""
    return any(t.requires_grad or t._parents for t in inputs)


def make(data, inputs, backward_fn):
    """A node of value `data`, recorded when any input is tracked.
    backward_fn(g) must return one gradient array per entry of `inputs`,
    or None for an untracked entry, whose gradient backward() drops."""
    if tracked(*inputs):
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
    return make(a.data + b.data, (a, b), lambda g: (g, g))


def neg(a):
    a = as_tensor(a)
    return make(-a.data, (a,), lambda g: (-g,))


def mean_all(a):
    a = as_tensor(a)
    n = a.data.size
    return make(
        np.asarray(a.data.mean()),
        (a,),
        lambda g: (np.full(a.data.shape, float(g) / n),),
    )


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
            if not tracked(parent):  # a constant: its gradient goes nowhere
                continue
            pg = _unbroadcast(pg, parent.data.shape)
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg


def zero_grads(params):
    for p in params:
        p.grad = None
