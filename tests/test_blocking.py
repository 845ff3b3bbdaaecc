"""Row-blocked kernel ridge and encoder against copies of the unblocked code
they replaced.

The comparisons run in a child process at one BLAS thread.  At more threads
OpenBLAS splits one large product between threads at row offsets that depend
on the product's size, so a blocked and an unblocked product can differ in
the last bits for some row counts; at one thread they must not.  Run this
file as a script to print the comparison table.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import latentlab
from latentlab import Mask
from latentlab.ident import KernelRidge, median_distance
from latentlab.mae import _plan, encode, init_mae_model
from latentlab.nets import BLOCK_ENTRIES, ROW_ALIGN, mlp_forward, row_blocks

# -- the unblocked code, as it was ---------------------------------------------


class UnblockedKernelRidge:
    def __init__(self, ridge):
        self.ridge = ridge

    def _gram(self, a, b):
        sq = (
            np.sum(a ** 2, axis=1)[:, None]
            + np.sum(b ** 2, axis=1)[None, :]
            - 2.0 * (a @ b.T)
        )
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-sq / (2.0 * self.bandwidth ** 2))

    def fit(self, x, y, median_rows, rng):
        self.x_mean, self.x_std = x.mean(axis=0), x.std(axis=0)
        self.x_std = np.where(self.x_std == 0, 1.0, self.x_std)
        xs = (x - self.x_mean) / self.x_std
        self.y_mean, self.y_std = y.mean(axis=0), y.std(axis=0)
        self.y_std = np.where(self.y_std == 0, 1.0, self.y_std)
        ys = (y - self.y_mean) / self.y_std
        sub = xs if xs.shape[0] <= median_rows else xs[rng.choice(xs.shape[0], median_rows, replace=False)]
        diff = sub[:, None, :] - sub[None, :, :]
        dists = np.sqrt(np.sum(diff ** 2, axis=-1))
        median = float(np.median(dists[np.triu_indices_from(dists, k=1)]))
        self.bandwidth = median if median > 0 else 1.0
        self.x_train = xs
        gram = self._gram(xs, xs)
        gram[np.diag_indices_from(gram)] += self.ridge
        self.dual = np.linalg.solve(gram, ys)
        return self

    def predict(self, x):
        xs = (x - self.x_mean) / self.x_std
        return (self._gram(xs, self.x_train) @ self.dual) * self.y_std + self.y_mean


def unblocked_encode(model, x_visible, mask):
    x_visible = np.asarray(x_visible, dtype=float)
    single = x_visible.ndim == 1
    rows = np.atleast_2d(x_visible)
    plan = _plan(model, mask, rows.shape[0])
    plan.enc_in[:, : model.obs_width][:, plan.visible] = rows
    chat, _ = mlp_forward(model.encoder, plan.enc_in)
    return chat[0] if single else chat


# -- the comparison table ------------------------------------------------------------

TRAIN_ROWS = (50, 333, 1200, 2000)  # 1200 and 2000 take the median over a subsample
PREDICT_TRAIN_ROWS = (333, 2000)
WIDTHS = (1, 3, 9)
TARGETS = (1, 3, 7)  # 7: evaluate's code fit, a one-column c beside a six-column s_m
CODE_WIDTHS = (1, 3)
LAYOUT = tuple(f"x{i}" for i in range(1, 7))
PIXEL_WIDTHS = dict(zip(LAYOUT, (3, 6, 6, 5, 5, 3)))
MASK = Mask({"x1", "x2", "x3"})


def block_rows(row_size):
    return row_blocks(1 << 22, row_size)[0].stop


def predict_rows(n_train):
    step = block_rows(n_train)
    return (1, step - 1, step, step + 1, 4001)


def encode_rows(model):
    step = block_rows(max(model.encoder.widths))
    return (1, 2, step - 1, step, step + 1, 2 * step + 1, 20_000)


def ridge_case(n, d, k):
    return f"ridge-n{n}-d{d}-k{k}"


def predict_case(n, d, k, m):
    return f"predict-n{n}-d{d}-k{k}-m{m}"


def encode_case(d_c, m):
    return f"encode-dc{d_c}-m{m}"


CASES = (
    [ridge_case(n, d, k) for n in TRAIN_ROWS for d in WIDTHS for k in TARGETS]
    + [predict_case(n, d, k, m) for n in PREDICT_TRAIN_ROWS for d in WIDTHS for k in TARGETS
       for m in predict_rows(n)]
    + [encode_case(d_c, m) for d_c in CODE_WIDTHS
       for m in encode_rows(init_mae_model(LAYOUT, PIXEL_WIDTHS, d_c, 2, hidden=(64, 64), slope=0.2, seed=0)) + ("1d",)]
)


def compare_all() -> dict[str, bool]:
    """Case name -> whether the blocked code's bytes equal the unblocked
    code's."""
    rng = np.random.default_rng(0)
    same = {}
    for n in TRAIN_ROWS:
        for d in WIDTHS:
            for k in TARGETS:
                x = rng.standard_normal((n, d))
                y = np.tanh(x[:, :1] + x[:, -1:] ** 2) + 0.1 * rng.standard_normal((n, k))
                old = UnblockedKernelRidge(1e-3).fit(x, y, 1000, np.random.default_rng(n))
                new = KernelRidge(1e-3).fit(x, y, 1000, np.random.default_rng(n))
                same[ridge_case(n, d, k)] = old.bandwidth == new.bandwidth and np.array_equal(
                    old.dual, new.dual)
                if n not in PREDICT_TRAIN_ROWS:
                    continue
                for m in predict_rows(n):
                    x_test = 1.5 * rng.standard_normal((m, d))
                    same[predict_case(n, d, k, m)] = np.array_equal(old.predict(x_test), new.predict(x_test))
    for d_c in CODE_WIDTHS:
        model = init_mae_model(LAYOUT, PIXEL_WIDTHS, d_c, 2, hidden=(64, 64), slope=0.2, seed=d_c)
        visible = sum(PIXEL_WIDTHS[v] for v in LAYOUT if v not in MASK.masked)
        for m in encode_rows(model):
            x = rng.standard_normal((m, visible))
            same[encode_case(d_c, m)] = np.array_equal(unblocked_encode(model, x, MASK), encode(model, x, MASK))
        x = rng.standard_normal(visible)
        same[encode_case(d_c, "1d")] = np.array_equal(unblocked_encode(model, x, MASK), encode(model, x, MASK))
    return same


@pytest.fixture(scope="module")
def same_bytes():
    src = str(Path(latentlab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("case", CASES)
def test_blocked_bytes_equal_unblocked(same_bytes, case):
    assert same_bytes[case]


# -- blocks and memory -------------------------------------------------------------


@pytest.mark.parametrize("n_rows", [0, 1, 2, 1727, 1728, 1729, 3455, 3457, 10_000])
@pytest.mark.parametrize("row_size", [1, 333, 2000, 10 ** 6])
def test_row_blocks_cover_aligned_and_large(n_rows, row_size):
    blocks = row_blocks(n_rows, row_size)
    assert blocks[0].start == 0 and blocks[-1].stop == n_rows
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert all(b.start % ROW_ALIGN == 0 for b in blocks)
    sizes = [b.stop - b.start for b in blocks]
    if len(blocks) > 1:
        assert min(sizes) * row_size >= BLOCK_ENTRIES
        assert min(sizes) >= 2
    assert max(sizes) <= 2 * sizes[0]


def test_median_distance_matches_pairwise_definition():
    """Exactly ``np.median`` of every pair's distance, on an even (780) and
    an odd (741) pair count and on rows repeated three times (435 pairs, a
    quarter of them 0); a NaN anywhere makes the median NaN, read as 1.0."""
    def pairwise_median(x):
        m = x.shape[0]
        return float(np.median([np.sqrt(np.sum((x[i] - x[j]) ** 2)) for i in range(m) for j in range(i + 1, m)]))

    x = np.random.default_rng(0).standard_normal((40, 3))
    for rows in (x, x[:39], np.repeat(x[:10], 3, axis=0)):
        assert median_distance(rows) == pairwise_median(rows)
    with_nan = x.copy()
    with_nan[7, 1] = np.nan
    assert np.isnan(pairwise_median(with_nan))
    assert median_distance(with_nan) == 1.0
    assert median_distance(x[:1]) == 1.0
    assert median_distance(np.zeros((5, 2))) == 1.0


def test_predict_memory_is_bounded_by_one_block():
    """One unblocked kernel of 10,000 x 500 entries is 40 MB."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((500, 3))
    model = KernelRidge(1e-3).fit(x, np.tanh(x[:, :1]), 500, rng)
    x_test = rng.standard_normal((10_000, 3))
    tracemalloc.start()
    try:
        pred = model.predict(x_test)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pred.shape == (10_000, 1)
    assert peak < 10 * 2 ** 20


def test_encode_holds_one_row_block_at_a_time():
    """Rows that span three row blocks cost no more, beyond the code they
    return, than the largest of those blocks alone: each block's forward
    activations are freed before the next block's forward pass runs."""
    model = init_mae_model(LAYOUT, PIXEL_WIDTHS, 8, 2, hidden=(64, 64), slope=0.2, seed=0)
    visible = sum(PIXEL_WIDTHS[v] for v in LAYOUT if v not in MASK.masked)
    m = 3 * block_rows(max(model.encoder.widths)) + 5000
    blocks = row_blocks(m, max(model.encoder.widths))
    assert len(blocks) == 3
    rng = np.random.default_rng(0)

    def peak_beyond_code(rows):
        x = rng.standard_normal((rows, visible))
        tracemalloc.start()
        try:
            chat = encode(model, x, MASK)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - chat.nbytes

    assert peak_beyond_code(m) <= 1.1 * peak_beyond_code(max(b.stop - b.start for b in blocks))


if __name__ == "__main__":
    print(json.dumps(compare_all()))
