import json
import math

import numpy as np
import pytest

from latentlab import Mask
from latentlab.mae import (
    MaeModel,
    MaskSampler,
    TrainConfig,
    TrainingDiverged,
    encode,
    grad_check,
    init_mae_model,
    load_model,
    sample_mask,
    save_model,
    train,
)
from latentlab.mae import _with_params
from latentlab.scm import Dataset, ScmSettings, build_scm, sample


def unit_layout(n):
    return tuple(f"o{i}" for i in range(n))


def unit_model(n=6, d_c=2, d_sm=1, hidden=(8,), seed=0):
    layout = unit_layout(n)
    return init_mae_model(layout, {v: 1 for v in layout}, d_c, d_sm, hidden=hidden, slope=0.2, seed=seed)


def float32_model(model: MaeModel) -> MaeModel:
    """``model`` as ``train`` starts from it: its float64 draws rounded once
    to float32."""
    return _with_params(model, model.flat.astype(np.float32))


def model_views(model: MaeModel) -> list[np.ndarray]:
    """The encoder's weights and biases, then the decoder's: views into
    ``model.flat``, in its order."""
    return [p for net in (model.encoder, model.decoder) for p in net.weights + net.biases]


def constant_dataset(n_rows=64, row=(0.3, -0.7, 1.1, 0.2)):
    layout = unit_layout(len(row))
    spans = {v: (i, 1) for i, v in enumerate(layout)}
    return Dataset(values=np.tile(np.array([row]), (n_rows, 1)), column_spans=spans, layout=layout)


# -- mask sampling ----------------------------------------------------------------


def test_sample_mask_half_of_four_patches():
    sampler = MaskSampler(0.5, 2, unit_layout(8))
    mask = sample_mask(sampler, np.random.default_rng(0))
    assert len(mask.masked) == 4


def test_sample_mask_ninety_percent():
    sampler = MaskSampler(0.9, 1, unit_layout(10))
    mask = sample_mask(sampler, np.random.default_rng(0))
    assert len(mask.masked) == 9


def test_sample_mask_clamps_to_one_patch():
    sampler = MaskSampler(0.05, 2, unit_layout(4))
    mask = sample_mask(sampler, np.random.default_rng(0))
    assert len(mask.masked) == 2  # one patch of two pixels


@pytest.mark.parametrize("count", [0, 1, 7])
def test_draw_many_shape(count):
    sampler = MaskSampler(0.3, 2, unit_layout(11))
    assert sampler.draw_many(np.random.default_rng(4), count).shape == (count, sampler.num_masked_patches)


@pytest.mark.parametrize("r, s, n", [(0.3, 2, 11), (0.5, 1, 32), (0.9, 4, 32), (0.05, 1, 7)])
def test_draw_many_rows_are_k_distinct_patches(r, s, n):
    sampler = MaskSampler(r, s, unit_layout(n))
    draws = sampler.draw_many(np.random.default_rng(5), 500)
    assert draws.min() >= 0 and draws.max() < sampler.num_patches
    assert all(len(set(row)) == sampler.num_masked_patches for row in draws.tolist())


def test_draw_many_row_i_is_the_ith_single_draw_and_sample_mask():
    sampler = MaskSampler(0.3, 2, unit_layout(11))
    batch = sampler.draw_many(np.random.default_rng(4), 20)
    singles, masks = np.random.default_rng(4), np.random.default_rng(4)
    for row in batch:
        assert row.tolist() == sampler.draw_many(singles, 1)[0].tolist()
        assert sample_mask(sampler, masks).masked == {v for i in row for v in sampler.patches[i]}


def test_draw_many_first_row_does_not_depend_on_the_count():
    sampler = MaskSampler(0.5, 1, unit_layout(32))
    first = sampler.draw_many(np.random.default_rng(9), 1)[0].tolist()
    for count in (2, 10, 1000):
        assert sampler.draw_many(np.random.default_rng(9), count)[0].tolist() == first


def test_draw_many_is_uniform_over_the_subsets():
    """Each of the C(4, 2) = 6 two-patch masks of a 4-node layout comes out
    within five binomial standard deviations of n / 6 over n draws."""
    n = 60_000
    draws = MaskSampler(0.5, 1, unit_layout(4)).draw_many(np.random.default_rng(11), n)
    subsets, counts = np.unique(np.sort(draws, axis=1), axis=0, return_counts=True)
    assert len(subsets) == math.comb(4, 2)
    assert np.all(np.abs(counts - n / 6) <= 5 * math.sqrt(n * (1 / 6) * (5 / 6)))


def test_sampler_rejects_degenerate_layout():
    with pytest.raises(ValueError, match="two patches"):
        MaskSampler(0.5, 4, unit_layout(4))


@pytest.mark.parametrize("r", [round(0.1 * k, 1) for k in range(1, 10)])
@pytest.mark.parametrize("s", [1, 2, 4])
def test_empirical_mask_ratio(r, s):
    layout = unit_layout(40)
    sampler = MaskSampler(r, s, layout)
    rng = np.random.default_rng(123)
    bound = 1.0 / sampler.num_patches
    counts = [len(sample_mask(sampler, rng).masked) for _ in range(10_000)]
    for count in counts:
        assert abs(count / len(layout) - r) <= bound + 1e-12


# -- encode -----------------------------------------------------------------------


def test_encode_zero_final_layer_gives_zero_code():
    model = unit_model()
    model.encoder.weights[-1][...] = 0.0
    model.encoder.biases[-1][...] = 0.0
    mask = Mask({"o0", "o1"})
    assert np.allclose(encode(model, np.zeros(4), mask), 0.0)


def test_encode_deterministic_and_coordinate_sensitive():
    model = unit_model()
    mask = Mask({"o0", "o1"})
    x = np.random.default_rng(1).standard_normal(4)
    assert np.array_equal(encode(model, x, mask), encode(model, x, mask))
    swapped = x.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert not np.allclose(encode(model, x, mask), encode(model, swapped, mask))


def test_encode_width_mismatch():
    model = unit_model()
    with pytest.raises(ValueError, match="visible width"):
        encode(model, np.zeros(3), Mask({"o0", "o1"}))


# -- training -----------------------------------------------------------------------


def test_train_learns_constant_target():
    cfg = TrainConfig(epochs=200, batch_size=16, seed=5)
    _, curve = train(constant_dataset(), Mask({"o0", "o1"}), d_c=1, d_sm=0, cfg=cfg, hidden=(8,), slope=0.2)
    assert curve[-1] <= 1e-6


def test_train_deterministic():
    cfg = TrainConfig(epochs=30, batch_size=16, seed=5)
    ds = constant_dataset()
    _, a = train(ds, Mask({"o0", "o1"}), d_c=1, d_sm=2, cfg=cfg, hidden=(8,), slope=0.2)
    _, b = train(ds, Mask({"o0", "o1"}), d_c=1, d_sm=2, cfg=cfg, hidden=(8,), slope=0.2)
    assert a == b


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_detected():
    cfg = TrainConfig(epochs=5, batch_size=16, step_size=1e200, seed=0)
    with pytest.raises(TrainingDiverged, match=r"at epoch 0, step 1; last finite loss \d"):
        train(constant_dataset(), Mask({"o0", "o1"}), d_c=1, d_sm=0, cfg=cfg, hidden=(8,), slope=0.2)


def test_train_divergence_on_first_step_says_no_finite_loss():
    ds = constant_dataset(row=(1e300, -1e300, 1e300, 1e300))
    cfg = TrainConfig(epochs=1, batch_size=16, seed=0)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="step 0; no finite loss before it"):
        train(ds, Mask({"o0", "o1"}), d_c=1, d_sm=0, cfg=cfg, hidden=(8,), slope=0.2)


@pytest.mark.parametrize("slope", [-0.1, 1.5])
def test_model_rejects_slope_outside_unit_interval(slope):
    layout = unit_layout(4)
    with pytest.raises(ValueError, match="leaky slope must lie in"):
        init_mae_model(layout, {v: 1 for v in layout}, 1, 0, hidden=(64, 64), slope=slope)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)
    for step_size in (float("nan"), float("inf"), 10**400):
        with pytest.raises(ValueError, match="step size finite"):
            TrainConfig(step_size=step_size)


# -- gradient check -----------------------------------------------------------------


def test_grad_check_small_models():
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 7))
        model = unit_model(n=n, d_c=int(rng.integers(1, 3)), d_sm=int(rng.integers(0, 3)),
                           hidden=(int(rng.integers(4, 9)),), seed=trial)
        batch = rng.standard_normal((int(rng.integers(2, 6)), n))
        k = int(rng.integers(1, n))
        mask = Mask(set(model.layout[:k]))
        worst = max(worst, grad_check(model, batch, mask, rng=np.random.default_rng(trial)))
    assert worst <= 1e-4


def test_grad_check_detects_corruption():
    model = unit_model()
    batch = np.random.default_rng(1).standard_normal((4, 6))
    mask = Mask({"o0", "o1"})

    import latentlab.mae as mae_module

    original = mae_module._loss_and_grads

    def corrupted(*args, **kwargs):
        value, grads = original(*args, **kwargs)
        return value, -grads

    mae_module._loss_and_grads = corrupted
    try:
        deviation = grad_check(model, batch, mask)
    finally:
        mae_module._loss_and_grads = original
    assert deviation > 1e-2


def test_grad_check_rejects_large_models():
    model = unit_model(n=6, hidden=(128, 128))
    with pytest.raises(ValueError, match="parameters"):
        grad_check(model, np.zeros((2, 6)), Mask({"o0"}))


# -- checkpoints ----------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    model = float32_model(unit_model(seed=9))
    save_model(model, tmp_path / "ckpt")
    back = load_model(tmp_path / "ckpt")
    for a, b in zip(model_views(model), model_views(back)):
        assert np.array_equal(a, b)
    assert back.layout == model.layout and back.d_c == model.d_c


def test_checkpoint_bytes_are_the_parameter_vector(tmp_path, monkeypatch):
    model = float32_model(unit_model(n=5, d_c=2, d_sm=3, hidden=(7, 4), seed=9))
    save_model(model, tmp_path / "ckpt")
    data = (tmp_path / "ckpt.bin").read_bytes()
    assert data == model.flat.tobytes()
    # the vector's order: encoder weights, encoder biases, decoder weights, decoder biases
    assert data == np.concatenate([p.ravel() for p in model_views(model)]).tobytes()

    def no_rng(*args, **kwargs):
        raise AssertionError("load_model must not draw from an RNG")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    monkeypatch.setattr(np.random, "SeedSequence", no_rng)
    back = load_model(tmp_path / "ckpt")
    assert back.flat.tobytes() == data
    assert all(np.shares_memory(p, back.flat) for p in model_views(back))
    batch = np.random.Generator(np.random.PCG64(1)).standard_normal((3, 5))
    assert np.array_equal(encode(back, batch[:, 2:], Mask({"o0", "o1"})),
                          encode(model, batch[:, 2:], Mask({"o0", "o1"})))


def test_load_model_rejects_size_mismatch_and_non_finite(tmp_path):
    model = float32_model(unit_model(seed=9))
    save_model(model, tmp_path / "ckpt")
    bin_path = tmp_path / "ckpt.bin"
    data = bin_path.read_bytes()
    bin_path.write_bytes(data[:-3])
    with pytest.raises(ValueError, match=rf"ckpt\.bin holds {len(data) - 3} bytes, but its header calls for {len(data)}"):
        load_model(tmp_path / "ckpt")
    flat = model.flat.copy()
    flat[5] = np.inf
    bin_path.write_bytes(flat.tobytes())
    with pytest.raises(ValueError, match=r"ckpt\.bin: non-finite"):
        load_model(tmp_path / "ckpt")


def test_save_model_rounds_float64_parameters(tmp_path):
    model = unit_model(seed=9)
    save_model(model, tmp_path / "ckpt")
    assert (tmp_path / "ckpt.bin").read_bytes() == model.flat.astype(np.float32).tobytes()


@pytest.mark.parametrize("dtype", [None, "float64", 32])
def test_load_model_refuses_a_header_without_float32_dtype(tmp_path, dtype):
    save_model(float32_model(unit_model(seed=9)), tmp_path / "ckpt")
    json_path = tmp_path / "ckpt.json"
    header = json.loads(json_path.read_text())
    if dtype is None:
        del header["dtype"]
        found = " has no 'dtype' field"
    else:
        header["dtype"] = dtype
        found = f": its 'dtype' field must be \"float32\", got {json.dumps(dtype)}"
    json_path.write_text(json.dumps(header))
    with pytest.raises(ValueError) as err:
        load_model(tmp_path / "ckpt")
    assert str(err.value) == f"{json_path}{found}; run train again"


def test_load_model_refuses_a_header_that_is_not_an_object(tmp_path):
    save_model(float32_model(unit_model(seed=9)), tmp_path / "ckpt")
    (tmp_path / "ckpt.json").write_text("[1]\n")
    with pytest.raises(ValueError, match=r"ckpt\.json is not a checkpoint header; run train again"):
        load_model(tmp_path / "ckpt")


def small_trained_model(fig4):
    ds = sample(build_scm(fig4, ScmSettings(alpha=0.5, seed=4)), 200, seed=5)
    cfg = TrainConfig(epochs=3, batch_size=32, seed=6)
    model, _ = train(ds, Mask({"x1", "x2", "x3"}), d_c=2, d_sm=2, cfg=cfg, hidden=(8, 8), slope=0.2)
    return model, ds


def test_train_returns_float32_parameters(fig4):
    model, ds = small_trained_model(fig4)
    assert model.flat.dtype == np.float32
    assert all(p.dtype == np.float32 and np.shares_memory(p, model.flat) for p in model_views(model))
    # encode computes from the exactly upcast parameters, in float64
    visible = [v for v in ds.layout if v not in {"x1", "x2", "x3"}]
    chat = encode(model, ds.stack(visible), Mask({"x1", "x2", "x3"}))
    assert chat.dtype == np.float64 and chat.shape == (ds.n, 2)


def test_grad_check_on_a_trained_model(fig4):
    model, ds = small_trained_model(fig4)
    before = model.flat.tobytes()
    batch = ds.stack(ds.layout)[:5]
    assert grad_check(model, batch, Mask({"x1", "x2", "x3"}), rng=np.random.default_rng(0)) <= 1e-4
    assert model.flat.tobytes() == before


def test_checkpoint_round_trip_keeps_trained_float32_bytes(fig4, tmp_path):
    model, _ = small_trained_model(fig4)
    save_model(model, tmp_path / "ckpt")
    assert json.loads((tmp_path / "ckpt.json").read_text())["dtype"] == "float32"
    assert (tmp_path / "ckpt.bin").stat().st_size == 4 * model.flat.size
    back = load_model(tmp_path / "ckpt")
    assert back.flat.dtype == np.float32
    assert back.flat.tobytes() == model.flat.tobytes()


# -- the trainer against a copy of the list-based trainer it replaced ----------------
#
# One array per weight and bias, ``np.where`` activations, a per-array Adam and
# per-step column bookkeeping, all in float32 from initial parameters drawn in
# float64 and rounded once.  ``train`` must give the same bytes.


def _ref_init(widths, rng):
    weights = [np.sqrt(2.0 / max(1, a)) * rng.standard_normal((b, a)) for a, b in zip(widths[:-1], widths[1:])]
    return [w.astype(np.float32) for w in weights], [np.zeros(b, np.float32) for b in widths[1:]]


def _ref_forward(net, x, slope):
    weights, biases = net
    cache = []
    for i, (w, b) in enumerate(zip(weights, biases)):
        pre = x @ w.T + b
        cache.append((x, pre))
        x = pre if i == len(weights) - 1 else np.where(pre >= 0, pre, slope * pre)
    return x, cache


def _ref_backward(net, cache, grad, slope):
    weights, _ = net
    grads_w, grads_b = [None] * len(weights), [None] * len(weights)
    for i in range(len(weights) - 1, -1, -1):
        x_in, pre = cache[i]
        if i != len(weights) - 1:
            grad = grad * np.where(pre >= 0, np.float32(1.0), np.float32(slope))
        grads_w[i] = grad.T @ x_in
        grads_b[i] = grad.sum(axis=0)
        grad = grad @ weights[i]
    return grads_w + grads_b, grad


def _ref_adam_step(state, params, grads, cfg):
    """Adam with the bias corrections folded into the step size and epsilon."""
    state["t"] += 1
    b1, b2 = cfg.beta1, cfg.beta2
    c1, c2 = 1 - b1 ** state["t"], 1 - b2 ** state["t"]
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        p -= cfg.step_size * math.sqrt(c2) / c1 * m / (np.sqrt(v) + 1e-8 * math.sqrt(c2))


def _ref_train(ds, mask, d_c, d_sm, cfg, hidden, slope=0.2):
    layout = ds.layout
    widths = {v: ds.column_spans[v][1] for v in layout}
    offsets = dict(zip(layout, np.cumsum([0] + [widths[v] for v in layout])))
    rows = ds.stack(layout).astype(np.float32)
    obs = sum(widths.values())

    def columns(nodes):
        return np.asarray([c for v in sorted(nodes, key=layout.index)
                           for c in range(offsets[v], offsets[v] + widths[v])], dtype=int)

    def indicator(n):
        return np.broadcast_to(np.array([1.0 if v in mask.masked else 0.0 for v in layout], np.float32),
                               (n, len(layout)))

    param_ss, shuffle_ss, noise_ss = np.random.SeedSequence(cfg.seed).spawn(3)
    param_seed = int(param_ss.generate_state(1)[0])
    enc_rng, dec_rng = (np.random.default_rng(c) for c in np.random.SeedSequence(param_seed).spawn(2))
    enc = _ref_init((obs + len(layout), *hidden, d_c), enc_rng)
    dec = _ref_init((d_c + d_sm + len(layout), *hidden, obs), dec_rng)
    params = enc[0] + enc[1] + dec[0] + dec[1]
    state = {"t": 0, "m": [np.zeros_like(p) for p in params], "v": [np.zeros_like(p) for p in params]}
    shuffle_rng, noise_rng = np.random.default_rng(shuffle_ss), np.random.default_rng(noise_ss)

    masked = columns(mask.masked)
    curve = []
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(ds.n)
        losses = []
        for start in range(0, ds.n, cfg.batch_size):
            batch = rows[order[start:start + cfg.batch_size]]
            n = batch.shape[0]
            s_hat = noise_rng.standard_normal((n, d_sm), dtype=np.float32)
            x = batch.copy()
            x[:, masked] = 0.0
            chat, enc_cache = _ref_forward(enc, np.hstack([x, indicator(n)]), slope)
            recon, dec_cache = _ref_forward(dec, np.hstack([chat, s_hat, indicator(n)]), slope)
            err = recon[:, masked] - batch[:, masked]
            losses.append(float(np.mean(err ** 2)))
            grad_recon = np.zeros_like(recon)
            grad_recon[:, masked] = 2.0 * err / err.size
            dec_grads, grad_dec_in = _ref_backward(dec, dec_cache, grad_recon, slope)
            enc_grads, _ = _ref_backward(enc, enc_cache, grad_dec_in[:, :d_c], slope)
            _ref_adam_step(state, params, enc_grads + dec_grads, cfg)
        curve.append(float(np.mean(losses)))
    return np.concatenate([p.ravel() for p in params]), curve


SMALL = (2, (16, 8), 64)  # d_c, hidden widths, batch size
BENCHMARK = (1, (64, 64), 128)  # those of perfbench's experiment_fig4, where the trainer is timed


# The first three ids are kept from earlier versions of this test, whose cases
# also named a mask mode, a mask kind and boundary exclusion, so that each case's
# results can be followed across versions.
@pytest.mark.parametrize(
    "masked, d_sm, shape",
    [
        pytest.param(("x1", "x2", "x3"), 2, SMALL, id="fixed-mask-False-2"),
        pytest.param(("x1", "x2", "x3"), 0, SMALL, id="fixed-mask-False-0"),
        pytest.param(("x1", "x2", "x3"), 6, BENCHMARK, id="fixed-mask-False-6-benchmark"),
        pytest.param(("x2", "x5"), 3, SMALL, id="mask-x2-x5-3"),  # three visible runs
    ],
)
def test_train_matches_list_based_trainer(fig4, masked, d_sm, shape):
    d_c, hidden, batch_size = shape
    ds = sample(build_scm(fig4, ScmSettings(alpha=0.5, seed=4)), 300, seed=5)  # 300 = 4 * 64 + 44 = 2 * 128 + 44: a partial last batch
    mask = Mask(masked)
    cfg = TrainConfig(epochs=3, batch_size=batch_size, seed=6)
    model, curve = train(ds, mask, d_c=d_c, d_sm=d_sm, cfg=cfg, hidden=hidden, slope=0.2)
    ref_flat, ref_curve = _ref_train(ds, mask, d_c, d_sm, cfg, hidden)
    assert model.mask == masked
    assert ref_flat.dtype == np.float32
    assert model.flat.tobytes() == ref_flat.tobytes()
    assert curve == ref_curve
