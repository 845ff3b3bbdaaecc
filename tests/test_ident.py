import numpy as np
import pytest

from latentlab import Mask
from latentlab.ident import (
    RegressorConfig,
    block_identifiability,
    fit_regressor,
    r2,
    r2_per_dimension,
)
from latentlab.locate import locate_shared_info
from latentlab.scm import build_scm, extract_blocks, sample

CFG = RegressorConfig(seed=1)


def split(x, y, frac=0.8):
    n = int(frac * x.shape[0])
    return x[:n], y[:n], x[n:], y[n:]


# -- fit and score ------------------------------------------------------------


def test_identity_regression_is_near_exact():
    x = np.random.default_rng(0).standard_normal((2000, 1))
    xtr, ytr, xte, yte = split(x, x)
    model = fit_regressor(xtr, ytr, RegressorConfig(seed=1, ridge=1e-8))
    assert r2(model, xte, yte) == pytest.approx(1.0, abs=1e-8)


def test_independent_target_scores_near_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2000, 3))
    y = rng.standard_normal((2000, 2))
    xtr, ytr, xte, yte = split(x, y)
    model = fit_regressor(xtr, ytr, CFG)
    assert r2(model, xte, yte) <= 0.05


def test_elementwise_tanh_is_learned():
    x = np.random.default_rng(0).standard_normal((2000, 3))
    xtr, ytr, xte, yte = split(x, np.tanh(x))
    model = fit_regressor(xtr, ytr, CFG)
    assert r2(model, xte, yte) >= 0.95


def test_mlp_family_learns_tanh():
    x = np.random.default_rng(0).standard_normal((2000, 3))
    xtr, ytr, xte, yte = split(x, np.tanh(x))
    model = fit_regressor(xtr, ytr, RegressorConfig(family="mlp", seed=1))
    assert r2(model, xte, yte) >= 0.95


def test_fit_requires_rows_and_variance():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="50 rows"):
        fit_regressor(rng.standard_normal((10, 2)), rng.standard_normal((10, 1)), CFG)
    with pytest.raises(ValueError, match="row counts"):
        fit_regressor(rng.standard_normal((100, 2)), rng.standard_normal((99, 1)), CFG)
    with pytest.raises(ValueError, match="zero variance"):
        fit_regressor(np.ones((100, 2)), rng.standard_normal((100, 1)), CFG)


def test_r2_mean_predictor_is_zero():
    class MeanPredictor:
        def __init__(self, mean):
            self.mean = mean

        def predict(self, x):
            return np.tile(self.mean, (x.shape[0], 1))

    y = np.random.default_rng(0).standard_normal((200, 2))
    assert r2(MeanPredictor(y.mean(axis=0)), np.zeros((200, 3)), y) == pytest.approx(0.0)


def test_r2_worse_than_mean_is_negative():
    class BadPredictor:
        def predict(self, x):
            return np.full((x.shape[0], 1), 100.0)

    y = np.random.default_rng(0).standard_normal((100, 1))
    assert r2(BadPredictor(), np.zeros((100, 1)), y) < 0


def test_r2_excludes_zero_variance_dimension():
    class ZeroPredictor:
        def predict(self, x):
            return np.zeros((x.shape[0], 2))

    y = np.column_stack([np.zeros(100), np.random.default_rng(0).standard_normal(100)])
    mean, per_dim = r2_per_dimension(ZeroPredictor(), np.zeros((100, 1)), y)
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
    spec = build_scm(fig4, seed=3, alpha=0.5)
    ds = sample(spec, 2000, seed=4)
    info = locate_shared_info(fig4, Mask({"x1", "x2", "x3"}))
    c, s_m, *_ = extract_blocks(ds, info)
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
