"""Small feedforward networks with hand-written reverse-mode gradients and an
adaptive-moment optimizer.  Hidden layers use a leaky elementwise
nonlinearity; the output layer is linear.

A network's parameters live in one contiguous float64 vector, all weights
first and then all biases, layer by layer; ``Mlp.weights`` and
``Mlp.biases`` are views into it.  Gradients use the same layout, so the
optimizer updates every parameter with a few whole-vector operations."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def mlp_size(widths: tuple[int, ...]) -> int:
    """Number of parameters of a network with these layer widths."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths[:-1], widths[1:]))


def param_views(widths: tuple[int, ...], flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weight matrices (fan_out, fan_in) and bias vectors as views into
    ``flat``, in the vector's layout."""
    weights, biases, offset = [], [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(flat[offset:offset + fan_out * fan_in].reshape(fan_out, fan_in))
        offset += fan_out * fan_in
    for fan_out in widths[1:]:
        biases.append(flat[offset:offset + fan_out])
        offset += fan_out
    return weights, biases


@dataclass
class Mlp:
    flat: np.ndarray  # every parameter, in ``params()`` order
    widths: tuple[int, ...]
    slope: float
    weights: list[np.ndarray] = field(init=False, repr=False)  # each (fan_out, fan_in)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.slope <= 1.0:
            raise ValueError(f"leaky slope must lie in [0, 1], got {self.slope}")
        self.weights, self.biases = param_views(self.widths, self.flat)

    def params(self) -> list[np.ndarray]:
        return list(self.weights) + list(self.biases)


def init_mlp(
    widths: tuple[int, ...], slope: float, rng: np.random.Generator, out: np.ndarray | None = None
) -> Mlp:
    """He-scaled normal weights and zero biases, written into ``out`` when
    given (a vector of ``mlp_size(widths)`` floats) or a new vector."""
    net = Mlp(np.empty(mlp_size(widths)) if out is None else out, widths, slope)
    for w in net.weights:
        w[...] = np.sqrt(2.0 / max(1, w.shape[1])) * rng.standard_normal(w.shape)
    for b in net.biases:
        b[...] = 0.0
    return net


def mlp_forward(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Returns the output and a cache of (layer input, pre-activation)."""
    cache = []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = x @ w.T
        pre += b
        cache.append((x, pre))
        # With slope in [0, 1] the larger of pre and slope * pre is the leaky unit.
        x = pre if i == last else np.maximum(pre, net.slope * pre)
    return x, cache


def mlp_backward(
    net: Mlp, cache: list, grad_out: np.ndarray, out: np.ndarray, input_grad: bool = True
) -> np.ndarray | None:
    """Writes the gradient of every parameter into ``out`` (laid out like
    ``net.flat``) and returns the gradient w.r.t. the input, or None when
    ``input_grad`` is False."""
    grads_w, grads_b = param_views(net.widths, out)
    grad = grad_out
    last = len(net.weights) - 1
    for i in range(last, -1, -1):
        x_in, pre = cache[i]
        if i != last:
            grad = np.where(pre >= 0, grad, net.slope * grad)
        np.matmul(grad.T, x_in, out=grads_w[i])
        grad.sum(axis=0, out=grads_b[i])
        if i or input_grad:
            grad = grad @ net.weights[i]
    return grad if input_grad else None


class Adam:
    def __init__(self, params: list[np.ndarray], step_size: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.step_size = step_size
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Update ``params`` in place.  Pass each network's flat vector, so
        the update is a few whole-vector operations into preallocated
        scratch; the arithmetic is the same elementwise for any split."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for p, g, m, v, (a, b) in zip(params, grads, self.m, self.v, self._scratch):
            m *= b1
            np.multiply(1 - b1, g, out=a)
            m += a
            v *= b2
            np.multiply(1 - b2, g, out=a)
            a *= g
            v += a
            np.divide(v, c2, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += self.eps
            np.divide(m, c1, out=a)  # m_hat
            a *= self.step_size
            a /= b
            p -= a
