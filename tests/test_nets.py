"""The leaky unit's gate against select-based definitions of the unit and
its derivative, on edge values: signed zeros, infinities and NaN, at
slopes 0, 0.2 and 1."""

import numpy as np
import pytest

from latentlab.nets import _leaky_gate, init_mlp, mlp_backward, mlp_forward

# inf * 0, inf - inf and overflow are the point here, not faults.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SLOPES = [0.0, 0.2, 1.0]
EDGES = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1.5, -2.0, 5e-324, -5e-324, 1e308, -1e308])


def assert_same(actual, expected):
    """Equal bytes wherever the values are not NaN, and NaN in the same places."""
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert actual[~nan].tobytes() == expected[~nan].tobytes()


def where_forward(net, x):
    cache = []
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = x @ w.T + b
        cache.append((x, pre))
        x = pre if i == last else np.where(pre >= 0, pre, net.slope * pre)
    return x, cache


def where_backward(net, cache, grad):
    """The parameter-gradient vector (all weights, then all biases) and the
    input gradient."""
    grads_w, grads_b = [], []
    last = len(net.weights) - 1
    for i in range(last, -1, -1):
        x_in, pre = cache[i]
        if i != last:
            grad = np.where(pre >= 0, grad, net.slope * grad)
        grads_w.insert(0, grad.T @ x_in)
        grads_b.insert(0, grad.sum(axis=0))
        grad = grad @ net.weights[i]
    return np.concatenate([g.ravel() for g in grads_w + grads_b]), grad


@pytest.mark.parametrize("slope", SLOPES)
def test_gate_matches_select_on_edge_values(slope):
    pre = np.tile(EDGES, (3, 1))
    grad = np.random.default_rng(0).standard_normal(pre.shape)
    gate = _leaky_gate(pre, slope)
    assert gate.tobytes() == np.where(pre >= 0, 1.0, slope).tobytes()
    assert_same(pre * gate, np.where(pre >= 0, pre, slope * pre))
    assert_same(grad * gate, np.where(pre >= 0, grad, slope * grad))
    assert np.signbit((pre * gate)[:, 0]).all()  # -0.0 stays -0.0
    # The unit as np.maximum(pre, slope * pre) agrees too, except where
    # slope * pre is 0 * inf = NaN, which np.maximum propagates.
    maximum = np.maximum(pre, slope * pre)
    differs = np.isnan(maximum) != np.isnan(pre * gate)
    assert np.array_equal(differs, (pre == np.inf) & (slope == 0.0))
    assert_same(maximum[~differs], (pre * gate)[~differs])


@pytest.mark.parametrize("with_edges", [True, False])
@pytest.mark.parametrize("slope", SLOPES)
def test_forward_and_backward_match_select(slope, with_edges):
    """With the edge values in the batch most gradients are NaN; without
    them every value is finite and compared byte for byte."""
    rng = np.random.default_rng(1)
    net = init_mlp((1, 6, 5, 2), slope, rng)
    # The first layer passes the inputs through with both signs, halved and
    # zeroed (0 * inf is NaN), so both hidden layers see each edge value.
    net.weights[0][:, 0] = [1.0, -1.0, 0.5, 0.0, 2.0, -3.0]
    net.biases[0][:] = [0.0, 0.0, -0.0, 0.0, 0.25, -0.5]
    net.biases[1][:] = rng.standard_normal(5)
    rows = [rng.standard_normal(40), np.zeros(3)] + ([EDGES] if with_edges else [])
    x = np.concatenate(rows)[:, None]
    grad_out = rng.standard_normal((x.shape[0], 2))
    grad_out_before = grad_out.copy()

    ref_out, ref_cache = where_forward(net, x)
    pre = ref_cache[0][1]
    assert ((pre == 0) & ~np.signbit(pre)).any()
    assert np.isposinf(pre).any() == np.isneginf(pre).any() == np.isnan(pre).any() == with_edges
    ref_params, ref_input = where_backward(net, ref_cache, grad_out)

    out, cache = mlp_forward(net, x)
    params = np.empty_like(net.flat)
    input_grad = mlp_backward(net, cache, grad_out, out=params)
    assert_same(out, ref_out)
    assert_same(input_grad, ref_input)
    assert_same(params, ref_params)
    assert np.isfinite(params).all() != with_edges
    assert grad_out.tobytes() == grad_out_before.tobytes()
