"""Numerical block-identifiability scoring.

Whether a learned code stands in one-to-one correspondence with a ground
truth block is measured as bidirectional nonlinear predictability: fit a
regressor each way and score held-out R^2.  A third probe scores leakage of
the masked-side noise into the code; it shares the code's fit, whose
targets are the block and the noise side by side.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass

import numpy as np

from latentlab.nets import row_blocks

# Rows per elementwise pass over a kernel block, so that the pass's one
# temporary (the sums of squared norms) stays small next to the block.
_RBF_CHUNK_ROWS = 32


@dataclass(frozen=True)
class RegressorConfig:
    ridge: float = 1e-3
    split: float = 0.8
    seed: int = 0
    max_train_rows: int = 2000  # kernel solve stays tractable at large n
    median_rows: int = 1000

    def __post_init__(self):
        for name, least in (("max_train_rows", 50), ("median_rows", 2)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        if not 0.0 < self.split < 1.0:
            raise ValueError(f"split fraction must be in (0, 1), got {self.split}")
        if not 0 < self.ridge <= sys.float_info.max:
            raise ValueError(f"ridge penalty must be positive and finite, got {self.ridge}")


@dataclass(frozen=True)
class IdentReport:
    r2_c_from_chat: float
    r2_chat_from_c: float
    r2_sm_from_chat: float
    per_dim_c_from_chat: tuple[float, ...]
    per_dim_chat_from_c: tuple[float, ...]
    per_dim_sm_from_chat: tuple[float, ...]
    n_train: int
    n_test: int
    config: dict

    def to_dict(self) -> dict:
        return asdict(self)


class KernelRidge:
    """RBF kernel ridge with the median pairwise-distance bandwidth.

    Inputs are standardized per column and targets scaled to unit variance
    internally, so the ridge penalty has a scale-free meaning; predictions
    are returned in the original target units.  The n x n Gram matrix (and
    the copy LAPACK's solver makes of it) is the only array that grows with
    the square of the row count: ``predict`` builds the kernel one block of
    test rows at a time.
    """

    def __init__(self, ridge: float):
        self.ridge = ridge
        self.x_train: np.ndarray | None = None
        self.train_sq: np.ndarray | None = None  # squared norm of each training row
        self.dual: np.ndarray | None = None
        self.bandwidth: float = 1.0
        self.x_mean: np.ndarray | None = None
        self.x_std: np.ndarray | None = None
        self.y_mean: np.ndarray | None = None
        self.y_std: np.ndarray | None = None

    def _rbf(self, cross: np.ndarray, a_sq: np.ndarray) -> None:
        """Turn ``cross``, the products of rows ``a`` (squared norms
        ``a_sq``) with the training rows, into their RBF kernel in place:
        ``exp(-max(|a|^2 + |b|^2 - 2 a.b, 0) / (2 bw^2))``, rounded step by
        step as the whole-matrix expression would be."""
        scale = 2.0 * self.bandwidth ** 2
        for start in range(0, cross.shape[0], _RBF_CHUNK_ROWS):
            part = cross[start:start + _RBF_CHUNK_ROWS]
            part *= 2.0
            np.subtract(np.add.outer(a_sq[start:start + _RBF_CHUNK_ROWS], self.train_sq), part, out=part)
            np.maximum(part, 0.0, out=part)
            np.negative(part, out=part)
            part /= scale
            np.exp(part, out=part)

    def fit(self, x: np.ndarray, y: np.ndarray, median_rows: int, rng: np.random.Generator):
        self.x_mean, self.x_std = x.mean(axis=0), x.std(axis=0)
        if np.all(self.x_std == 0):
            raise ValueError("input matrix has zero variance in every column")
        self.x_std = np.where(self.x_std == 0, 1.0, self.x_std)
        xs = (x - self.x_mean) / self.x_std
        self.y_mean, self.y_std = y.mean(axis=0), y.std(axis=0)
        self.y_std = np.where(self.y_std == 0, 1.0, self.y_std)
        ys = (y - self.y_mean) / self.y_std
        sub = xs if xs.shape[0] <= median_rows else xs[rng.choice(xs.shape[0], median_rows, replace=False)]
        self.bandwidth = median_distance(sub)
        self.x_train = xs
        self.train_sq = np.sum(xs ** 2, axis=1)
        gram = xs @ xs.T  # the solve needs it whole, so it is one product
        self._rbf(gram, self.train_sq)
        gram[np.diag_indices_from(gram)] += self.ridge
        self.dual = np.linalg.solve(gram, ys)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.dual is None:
            raise RuntimeError("regressor is not fitted")
        xs = (x - self.x_mean) / self.x_std
        out = np.empty((xs.shape[0], self.dual.shape[1]))
        blocks = row_blocks(xs.shape[0], self.x_train.shape[0])
        kernel = np.empty((max(b.stop - b.start for b in blocks), self.x_train.shape[0]))
        for rows in blocks:
            block = kernel[: rows.stop - rows.start]
            np.matmul(xs[rows], self.x_train.T, out=block)
            self._rbf(block, np.sum(xs[rows] ** 2, axis=1))
            np.matmul(block, self.dual, out=out[rows])
        out *= self.y_std
        out += self.y_mean
        return out


def median_distance(x: np.ndarray) -> float:
    """Median Euclidean distance over the pairs of rows of ``x``, filled one
    row of the upper triangle at a time into a scratch array that the median
    then partitions in place; 1.0 when it is not positive or there is no
    pair."""
    m = x.shape[0]
    dists = np.empty(m * (m - 1) // 2)
    at = 0
    for i in range(m - 1):
        row = dists[at:at + m - 1 - i]
        np.sqrt(np.sum((x[i] - x[i + 1:]) ** 2, axis=-1), out=row)
        at += row.size
    median = float(np.median(dists, overwrite_input=True)) if dists.size else 0.0
    return median if median > 0 else 1.0


def fit_regressor(x: np.ndarray, y: np.ndarray, cfg: RegressorConfig) -> KernelRidge:
    """Fit kernel ridge on the given rows (no splitting here); deterministic
    given the seed."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if x.shape[0] != y.shape[0]:
        raise ValueError("input and target row counts differ")
    if x.shape[0] < 50:
        raise ValueError(f"need at least 50 rows to fit, got {x.shape[0]}")
    rng = np.random.default_rng(cfg.seed)
    if x.shape[0] > cfg.max_train_rows:
        keep = rng.choice(x.shape[0], cfg.max_train_rows, replace=False)
        x, y = x[keep], y[keep]
    return KernelRidge(cfg.ridge).fit(x, y, cfg.median_rows, rng)


def r2_per_dimension(pred: np.ndarray, y_test: np.ndarray) -> tuple[float, tuple[float, ...]]:
    """Held-out R^2 of the predictions ``pred`` per target dimension and their
    average; zero-variance dimensions score nan and are excluded from the
    average, and no dimension at all scores nan and ``()``."""
    y_test = np.atleast_2d(np.asarray(y_test, dtype=float))
    sse = np.sum((pred - y_test) ** 2, axis=0)
    sst = np.sum((y_test - y_test.mean(axis=0)) ** 2, axis=0)
    per_dim = np.where(sst > 0, 1.0 - sse / np.where(sst > 0, sst, 1.0), np.nan)
    defined = per_dim[~np.isnan(per_dim)]
    mean = float(defined.mean()) if defined.size else float("nan")
    return mean, tuple(float(v) for v in per_dim)


def block_identifiability(
    chat: np.ndarray, c: np.ndarray, s_m: np.ndarray, cfg: RegressorConfig = RegressorConfig()
) -> IdentReport:
    """Score the code against ground truth: predictability in both directions
    plus the noise-leakage probe, everything on held-out rows.  Each input is
    fitted once: ``chat`` against ``c`` and ``s_m`` side by side, scored on
    column slices of one prediction, and ``c`` against ``chat``."""
    chat = np.atleast_2d(np.asarray(chat, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    s_m = np.atleast_2d(np.asarray(s_m, dtype=float))
    n = chat.shape[0]
    if c.shape[0] != n or s_m.shape[0] != n:
        raise ValueError("chat, c, and s_m must have the same number of rows")
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(n)
    n_train = int(round(cfg.split * n))
    train_idx, test_idx = order[:n_train], order[n_train:]
    if len(test_idx) == 0:
        raise ValueError("split leaves no held-out rows")

    targets = np.hstack([c, s_m])
    pred = fit_regressor(chat[train_idx], targets[train_idx], cfg).predict(chat[test_idx])
    d_c = c.shape[1]
    r2_c, per_c = r2_per_dimension(pred[:, :d_c], c[test_idx])
    r2_sm, per_sm = r2_per_dimension(pred[:, d_c:], s_m[test_idx])
    pred = fit_regressor(c[train_idx], chat[train_idx], cfg).predict(c[test_idx])
    r2_chat, per_chat = r2_per_dimension(pred, chat[test_idx])
    return IdentReport(
        r2_c_from_chat=r2_c,
        r2_chat_from_c=r2_chat,
        r2_sm_from_chat=r2_sm,
        per_dim_c_from_chat=per_c,
        per_dim_chat_from_c=per_chat,
        per_dim_sm_from_chat=per_sm,
        n_train=len(train_idx),
        n_test=len(test_idx),
        config=asdict(cfg),
    )
