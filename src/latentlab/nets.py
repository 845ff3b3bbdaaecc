"""Small feedforward networks with hand-written reverse-mode gradients and an
adaptive-moment optimizer.  Hidden layers use a leaky elementwise
nonlinearity; the output layer is linear.

The forward pass computes each hidden layer's gate, the unit's derivative
(1.0 where the pre-activation is >= 0, the slope elsewhere), applies the
unit as one multiply by it, and keeps it for the backward pass, which
scales the gradient by the same array.  The gate is built from a
comparison and a maximum, which have no per-element branch.  A select
(numpy's ``where``) branches on every element, and on fresh GEMM output of
mixed sign that branch mispredicts often enough to make the select several
times as slow as the multiply that replaces it.

A network's parameters live in one contiguous vector, all weights first and
then all biases, layer by layer; ``Mlp.weights`` and ``Mlp.biases`` are
views into it.  Gradients use the same layout, so the optimizer updates
every parameter with a few whole-vector operations.  ``init_mlp`` draws
float64 values; the forward and backward passes and the optimizer compute
at the dtype of the arrays they are given."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


# Row blocks for products that must round exactly as one unblocked product
# would.  With OpenBLAS a row of a product can round differently depending on
# where it falls in the kernel's row unroll, and products of at most 100**3
# multiply-adds take a separate small-matrix kernel.  Blocks that start at
# multiples of ROW_ALIGN rows and hold at least BLOCK_ENTRIES entries keep
# every row on the kernel path it takes in the unblocked product at one BLAS
# thread (tests/test_blocking.py compares them).  At more threads a large
# product is split between threads at row offsets that depend on its size,
# so for some row counts the last bits can differ.
BLOCK_ENTRIES = 1 << 19
ROW_ALIGN = 192


def row_blocks(n_rows: int, row_size: int) -> list[slice]:
    """Consecutive row ranges covering ``n_rows`` rows of ``row_size``
    entries each.  Every range starts at a multiple of ``ROW_ALIGN``, and
    when there is more than one, each holds at least ``BLOCK_ENTRIES``
    entries and two rows: a shorter remainder joins the range before it (a
    lone row would go to numpy's matrix-vector path), so no range is more
    than twice the usual length."""
    min_rows = max(2, -(-BLOCK_ENTRIES // max(1, row_size)))
    step = -(-min_rows // ROW_ALIGN) * ROW_ALIGN
    starts = list(range(0, max(n_rows, 1), step))
    if len(starts) > 1 and n_rows - starts[-1] < min_rows:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_rows])]


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
    flat: np.ndarray  # every weight, then every bias, layer by layer
    widths: tuple[int, ...]
    slope: float
    weights: list[np.ndarray] = field(init=False, repr=False)  # each (fan_out, fan_in)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.slope <= 1.0:
            raise ValueError(f"leaky slope must lie in [0, 1], got {self.slope}")
        self.weights, self.biases = param_views(self.widths, self.flat)


def init_mlp(net: Mlp, rng: np.random.Generator) -> None:
    """Fill ``net``'s parameters: He-scaled normal weights and zero biases."""
    for w in net.weights:
        w[...] = np.sqrt(2.0 / max(1, w.shape[1])) * rng.standard_normal(w.shape)
    for b in net.biases:
        b[...] = 0.0


def _leaky_gate(pre: np.ndarray, slope: float) -> np.ndarray:
    """The leaky unit's derivative at ``pre``: exactly 1.0 where
    ``pre >= 0`` and ``slope`` (rounded to ``pre``'s dtype) elsewhere, NaN
    included.  With ``slope`` in [0, 1], ``pre * gate`` is, bit for bit,
    ``pre`` where ``pre >= 0`` and ``slope * pre`` elsewhere."""
    gate = np.greater_equal(pre, 0.0, out=np.empty_like(pre))
    return np.maximum(gate, pre.dtype.type(slope), out=gate)


def mlp_forward(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Returns the output and a cache of (layer input, gate) per layer; the
    output layer is linear, so its gate is None."""
    cache = []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = x @ w.T
        pre += b
        gate = None
        if i != last:
            gate = _leaky_gate(pre, net.slope)
            pre *= gate
        cache.append((x, gate))
        x = pre
    return x, cache


def mlp_backward(
    net: Mlp, cache: list, grad_out: np.ndarray, out: np.ndarray, input_grad: bool = True
) -> np.ndarray | None:
    """Writes the gradient of every parameter into ``out`` (laid out like
    ``net.flat``) and returns the gradient w.r.t. the input, or None when
    ``input_grad`` is False.  Each hidden layer's gradient is scaled by its
    cached gate in place, in the array ``grad @ W`` made for it, so
    ``grad_out`` is never written."""
    grads_w, grads_b = param_views(net.widths, out)
    grad = grad_out
    for i in range(len(net.weights) - 1, -1, -1):
        x_in, gate = cache[i]
        if gate is not None:
            grad *= gate
        np.matmul(grad.T, x_in, out=grads_w[i])
        np.add.reduce(grad, axis=0, out=grads_b[i])
        if i or input_grad:
            grad = grad @ net.weights[i]
    return grad if input_grad else None


class Adam:
    def __init__(self, params: list[np.ndarray], step_size: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999):
        self.step_size = step_size
        self.beta1, self.beta2 = beta1, beta2
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t = 0

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """Update ``params`` in place.  Pass each network's flat vector, so
        the update is a few whole-vector operations into preallocated
        scratch; the arithmetic is the same elementwise for any split.

        The bias corrections c1 and c2 are folded into the step size and
        epsilon, ``p -= (step * sqrt(c2) / c1) * m / (sqrt(v) + eps * sqrt(c2))``,
        which is the textbook update with no pass over the moments to
        correct them."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        step_size = self.step_size * math.sqrt(c2) / c1
        eps = 1e-8 * math.sqrt(c2)
        for p, g, m, v, (a, b) in zip(params, grads, self.m, self.v, self._scratch):
            m *= b1
            np.multiply(1 - b1, g, out=a)
            m += a
            v *= b2
            np.multiply(1 - b2, g, out=a)
            a *= g
            v += a
            np.sqrt(v, out=b)
            b += eps
            np.multiply(m, step_size, out=a)
            a /= b
            p -= a
