import numpy as np
import pytest

from latentlab import Mask, ident
from latentlab.ident import (
    KernelRidge,
    RegressorConfig,
    block_identifiability,
    fit_regressor,
    r2_per_dimension,
)
from latentlab.locate import locate_shared_info
from latentlab.scm import ScmSettings, build_scm, extract_blocks, sample

CFG = RegressorConfig(seed=1)


def split(x, y, frac=0.8):
    n = int(frac * x.shape[0])
    return x[:n], y[:n], x[n:], y[n:]


# -- fit and score ------------------------------------------------------------


def test_identity_regression_is_near_exact():
    x = np.random.default_rng(0).standard_normal((2000, 1))
    xtr, ytr, xte, yte = split(x, x)
    model = fit_regressor(xtr, ytr, RegressorConfig(seed=1, ridge=1e-8))
    assert r2_per_dimension(model.predict(xte), yte)[0] == pytest.approx(1.0, abs=1e-8)


def test_independent_target_scores_near_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2000, 3))
    y = rng.standard_normal((2000, 2))
    xtr, ytr, xte, yte = split(x, y)
    model = fit_regressor(xtr, ytr, CFG)
    assert r2_per_dimension(model.predict(xte), yte)[0] <= 0.05


def test_elementwise_tanh_is_learned():
    x = np.random.default_rng(0).standard_normal((2000, 3))
    xtr, ytr, xte, yte = split(x, np.tanh(x))
    model = fit_regressor(xtr, ytr, CFG)
    assert r2_per_dimension(model.predict(xte), yte)[0] >= 0.95


def test_fit_requires_rows_and_variance():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="50 rows"):
        fit_regressor(rng.standard_normal((10, 2)), rng.standard_normal((10, 1)), CFG)
    with pytest.raises(ValueError, match="row counts"):
        fit_regressor(rng.standard_normal((100, 2)), rng.standard_normal((99, 1)), CFG)
    with pytest.raises(ValueError, match="zero variance"):
        fit_regressor(np.ones((100, 2)), rng.standard_normal((100, 1)), CFG)


def test_r2_mean_predictor_is_zero():
    y = np.random.default_rng(0).standard_normal((200, 2))
    assert r2_per_dimension(np.tile(y.mean(axis=0), (200, 1)), y)[0] == pytest.approx(0.0)


def test_r2_worse_than_mean_is_negative():
    y = np.random.default_rng(0).standard_normal((100, 1))
    assert r2_per_dimension(np.full((100, 1), 100.0), y)[0] < 0


def test_r2_excludes_zero_variance_dimension():
    y = np.column_stack([np.zeros(100), np.random.default_rng(0).standard_normal(100)])
    mean, per_dim = r2_per_dimension(np.zeros((100, 2)), y)
    assert np.isnan(per_dim[0])
    assert mean == pytest.approx(per_dim[1])


# -- block identifiability -------------------------------------------------------


def test_exact_code_scores_perfectly():
    rng = np.random.default_rng(0)
    c = rng.standard_normal((2000, 2))
    s_m = rng.standard_normal((2000, 3))
    report = block_identifiability(c, c, s_m, CFG)
    assert report.r2_c_from_chat >= 0.999
    assert report.r2_chat_from_c >= 0.999
    assert report.r2_sm_from_chat <= 0.05


def test_rotated_code_scores_high_both_ways():
    rng = np.random.default_rng(0)
    c = rng.standard_normal((2000, 3))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    report = block_identifiability(c @ q, c, rng.standard_normal((2000, 2)), CFG)
    assert report.r2_c_from_chat >= 0.99
    assert report.r2_chat_from_c >= 0.99


def test_information_drop_shows_asymmetry():
    rng = np.random.default_rng(0)
    c = rng.standard_normal((2000, 3))
    report = block_identifiability(c[:, :1], c, rng.standard_normal((2000, 2)), CFG)
    assert report.r2_c_from_chat < report.r2_chat_from_c


def test_monotone_reparameterization_changes_little():
    rng = np.random.default_rng(0)
    c = rng.standard_normal((2000, 1))
    s_m = rng.standard_normal((2000, 2))
    base = block_identifiability(c, c, s_m, CFG)
    warped = block_identifiability(c + 0.3 * c ** 3, c, s_m, CFG)
    assert abs(base.r2_c_from_chat - warped.r2_c_from_chat) <= 0.03


def test_leakage_bound_on_simulated_ground_truth(fig4):
    spec = build_scm(fig4, ScmSettings(seed=3, alpha=0.5))
    ds = sample(spec, 2000, seed=4)
    info = locate_shared_info(fig4, Mask({"x1", "x2", "x3"}))
    c, s_m = extract_blocks(ds, info)
    report = block_identifiability(c, c, s_m, CFG)
    assert report.r2_sm_from_chat <= 0.05


def test_report_is_deterministic():
    rng = np.random.default_rng(0)
    c = rng.standard_normal((500, 2))
    chat = np.tanh(c)
    s_m = rng.standard_normal((500, 1))
    a = block_identifiability(chat, c, s_m, CFG)
    b = block_identifiability(chat, c, s_m, CFG)
    assert a == b


def test_row_mismatch_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="same number of rows"):
        block_identifiability(
            rng.standard_normal((100, 1)),
            rng.standard_normal((99, 1)),
            rng.standard_normal((100, 1)),
            CFG,
        )


def test_report_serializes():
    rng = np.random.default_rng(0)
    c = rng.standard_normal((200, 1))
    report = block_identifiability(c, c, rng.standard_normal((200, 1)), CFG)
    as_dict = report.to_dict()
    assert set(as_dict) >= {"r2_c_from_chat", "r2_chat_from_c", "r2_sm_from_chat", "n_train", "n_test"}


def separate_fits(chat, c, s_m, cfg):
    """The three probes as they were before the code's fit was shared: one
    fit per target block, each on the same split and seed."""
    order = np.random.default_rng(cfg.seed).permutation(chat.shape[0])
    n_train = int(round(cfg.split * chat.shape[0]))
    tr, te = order[:n_train], order[n_train:]

    def score(x, y):
        if y.shape[1] == 0:
            return float("nan"), ()
        return r2_per_dimension(fit_regressor(x[tr], y[tr], cfg).predict(x[te]), y[te])

    return score(chat, c), score(c, chat), score(chat, s_m)


def fig4_like_blocks(n=1500):
    """A one-column ``c``, a six-column ``s_m`` of which one column leaks
    into the code, and a two-column code."""
    rng = np.random.default_rng(5)
    c = rng.standard_normal((n, 1))
    s_m = rng.standard_normal((n, 6))
    chat = np.column_stack([np.tanh(c[:, 0]) + 0.05 * s_m[:, 0], c[:, 0] ** 3 + 0.1 * rng.standard_normal(n)])
    return chat, c, s_m


def test_shared_code_fit_matches_separate_fits():
    chat, c, s_m = fig4_like_blocks()
    report = block_identifiability(chat, c, s_m, CFG)
    (r2_c, per_c), (r2_chat, per_chat), (r2_sm, per_sm) = separate_fits(chat, c, s_m, CFG)
    assert len(report.per_dim_c_from_chat) == 1 and len(report.per_dim_sm_from_chat) == 6
    assert report.per_dim_sm_from_chat[0] > 0.1  # the leaking column is seen
    got = [report.r2_c_from_chat, report.r2_chat_from_c, report.r2_sm_from_chat, *report.per_dim_c_from_chat,
           *report.per_dim_chat_from_c, *report.per_dim_sm_from_chat]
    want = [r2_c, r2_chat, r2_sm, *per_c, *per_chat, *per_sm]
    assert np.allclose(got, want, rtol=0, atol=1e-9)


def test_empty_noise_block_scores_nan_and_keeps_the_code_scores():
    chat, c, s_m = fig4_like_blocks()
    report = block_identifiability(chat, c, s_m[:, :0], CFG)
    (r2_c, per_c), (r2_chat, per_chat), _ = separate_fits(chat, c, s_m[:, :0], CFG)
    assert np.isnan(report.r2_sm_from_chat) and report.per_dim_sm_from_chat == ()
    got = [report.r2_c_from_chat, report.r2_chat_from_c, *report.per_dim_c_from_chat, *report.per_dim_chat_from_c]
    assert np.allclose(got, [r2_c, r2_chat, *per_c, *per_chat], rtol=0, atol=1e-9)


def test_each_input_is_fitted_once(monkeypatch):
    """``chat`` is fitted once for ``c`` and ``s_m`` together, and ``c`` once."""
    inputs = []
    fit = KernelRidge.fit

    def counted(self, x, y, median_rows, rng):
        inputs.append((x.shape[1], y.shape[1]))
        return fit(self, x, y, median_rows, rng)

    monkeypatch.setattr(ident.KernelRidge, "fit", counted)
    chat, c, s_m = fig4_like_blocks(300)
    block_identifiability(chat, c, s_m, CFG)
    assert inputs == [(2, 7), (1, 2)]


@pytest.mark.parametrize("ridge", [float("nan"), float("inf"), 10**400], ids=["nan", "inf", "1e400"])
def test_regressor_config_refuses_non_finite_ridge(ridge):
    with pytest.raises(ValueError, match="ridge penalty must be positive and finite"):
        RegressorConfig(ridge=ridge)


@pytest.mark.parametrize(
    "field, value",
    [("max_train_rows", 0), ("max_train_rows", 10), ("max_train_rows", 49), ("max_train_rows", 2000.0),
     ("max_train_rows", "2000"), ("max_train_rows", True), ("median_rows", 1), ("median_rows", 0),
     ("median_rows", 2.5)],
)
def test_regressor_config_row_bounds(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer of at least"):
        RegressorConfig(**{field: value})


def test_regressor_config_row_floors_are_allowed():
    cfg = RegressorConfig(max_train_rows=50, median_rows=2)
    x = np.random.default_rng(0).standard_normal((80, 2))
    model = fit_regressor(x, np.tanh(x[:, :1]), cfg)
    assert model.x_train.shape == (50, 2)
