"""Numerical block-identifiability scoring.

Whether a learned code stands in one-to-one correspondence with a ground
truth block is measured as bidirectional nonlinear predictability: fit a
regressor each way and score held-out R^2.  A third regression probes
leakage of the masked-side noise into the code.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from latentlab.nets import Adam, init_mlp, mlp_backward, mlp_forward


@dataclass(frozen=True)
class RegressorConfig:
    family: str = "kernel_ridge"  # "kernel_ridge" or "mlp"
    ridge: float = 1e-3
    split: float = 0.8
    seed: int = 0
    max_train_rows: int = 2000  # kernel solve stays tractable at large n
    median_rows: int = 1000
    mlp_hidden: tuple[int, ...] = (64, 64)
    mlp_epochs: int = 300
    mlp_step_size: float = 1e-2

    def __post_init__(self):
        if not 0.0 < self.split < 1.0:
            raise ValueError(f"split fraction must be in (0, 1), got {self.split}")
        if self.ridge <= 0:
            raise ValueError(f"ridge penalty must be positive, got {self.ridge}")
        if self.family not in ("kernel_ridge", "mlp"):
            raise ValueError(f"unknown regressor family {self.family!r}")


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
    are returned in the original target units.
    """

    def __init__(self, ridge: float):
        self.ridge = ridge
        self.x_train: np.ndarray | None = None
        self.dual: np.ndarray | None = None
        self.bandwidth: float = 1.0
        self.x_mean: np.ndarray | None = None
        self.x_std: np.ndarray | None = None
        self.y_mean: np.ndarray | None = None
        self.y_std: np.ndarray | None = None

    def _gram(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = (
            np.sum(a ** 2, axis=1)[:, None]
            + np.sum(b ** 2, axis=1)[None, :]
            - 2.0 * (a @ b.T)
        )
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-sq / (2.0 * self.bandwidth ** 2))

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
        diff = sub[:, None, :] - sub[None, :, :]
        dists = np.sqrt(np.sum(diff ** 2, axis=-1))
        median = float(np.median(dists[np.triu_indices_from(dists, k=1)]))
        self.bandwidth = median if median > 0 else 1.0
        self.x_train = xs
        gram = self._gram(xs, xs)
        gram[np.diag_indices_from(gram)] += self.ridge
        self.dual = np.linalg.solve(gram, ys)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.dual is None:
            raise RuntimeError("regressor is not fitted")
        xs = (x - self.x_mean) / self.x_std
        return (self._gram(xs, self.x_train) @ self.dual) * self.y_std + self.y_mean


class MlpRegressor:
    """Small feedforward network fit by full-batch adaptive-moment descent."""

    def __init__(self, hidden: tuple[int, ...], epochs: int, step_size: float):
        self.hidden = hidden
        self.epochs = epochs
        self.step_size = step_size
        self.net = None
        self.x_scale: tuple[np.ndarray, np.ndarray] | None = None

    def fit(self, x: np.ndarray, y: np.ndarray, rng: np.random.Generator):
        if np.allclose(x.std(axis=0), 0.0):
            raise ValueError("input matrix has zero variance in every column")
        mean, std = x.mean(axis=0), x.std(axis=0)
        std[std == 0] = 1.0
        self.x_scale = (mean, std)
        xs = (x - mean) / std
        self.net = init_mlp((x.shape[1], *self.hidden, y.shape[1]), 0.2, rng)
        params = [self.net.flat]
        grads = np.empty_like(self.net.flat)
        optimizer = Adam(params, self.step_size)
        for _ in range(self.epochs):
            out, cache = mlp_forward(self.net, xs)
            grad = 2.0 * (out - y) / out.size
            mlp_backward(self.net, cache, grad, out=grads, input_grad=False)
            optimizer.step(params, [grads])
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.net is None:
            raise RuntimeError("regressor is not fitted")
        mean, std = self.x_scale
        out, _ = mlp_forward(self.net, (x - mean) / std)
        return out


def fit_regressor(x: np.ndarray, y: np.ndarray, cfg: RegressorConfig):
    """Fit the configured family on the given rows (no splitting here);
    deterministic given the seed."""
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
    if cfg.family == "kernel_ridge":
        return KernelRidge(cfg.ridge).fit(x, y, cfg.median_rows, rng)
    return MlpRegressor(cfg.mlp_hidden, cfg.mlp_epochs, cfg.mlp_step_size).fit(x, y, rng)


def r2_per_dimension(regressor, x_test: np.ndarray, y_test: np.ndarray) -> tuple[float, tuple[float, ...]]:
    """Held-out R^2 per target dimension and their average; zero-variance
    dimensions score nan and are excluded from the average."""
    pred = regressor.predict(np.atleast_2d(np.asarray(x_test, dtype=float)))
    y_test = np.atleast_2d(np.asarray(y_test, dtype=float))
    sse = np.sum((pred - y_test) ** 2, axis=0)
    sst = np.sum((y_test - y_test.mean(axis=0)) ** 2, axis=0)
    per_dim = np.where(sst > 0, 1.0 - sse / np.where(sst > 0, sst, 1.0), np.nan)
    defined = per_dim[~np.isnan(per_dim)]
    mean = float(defined.mean()) if defined.size else float("nan")
    return mean, tuple(float(v) for v in per_dim)


def r2(regressor, x_test: np.ndarray, y_test: np.ndarray) -> float:
    value, _ = r2_per_dimension(regressor, x_test, y_test)
    return value


def _fit_and_score(x: np.ndarray, y: np.ndarray, train_idx, test_idx, cfg: RegressorConfig):
    if y.shape[1] == 0:
        return float("nan"), ()
    model = fit_regressor(x[train_idx], y[train_idx], cfg)
    return r2_per_dimension(model, x[test_idx], y[test_idx])


def block_identifiability(
    chat: np.ndarray, c: np.ndarray, s_m: np.ndarray, cfg: RegressorConfig = RegressorConfig()
) -> IdentReport:
    """Score the code against ground truth: predictability in both directions
    plus the noise-leakage probe, everything on held-out rows."""
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

    r2_c, per_c = _fit_and_score(chat, c, train_idx, test_idx, cfg)
    r2_chat, per_chat = _fit_and_score(c, chat, train_idx, test_idx, cfg)
    r2_sm, per_sm = _fit_and_score(chat, s_m, train_idx, test_idx, cfg)
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
