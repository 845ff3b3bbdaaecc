import math
from types import SimpleNamespace

import numpy as np
import pytest

from latentlab import Mask
from latentlab.mae import (
    MaskSampler,
    TrainConfig,
    TrainingDiverged,
    active_masked_nodes,
    decode,
    encode,
    grad_check,
    init_mae_model,
    load_model,
    loss,
    reconstruction_metrics,
    sample_mask,
    save_model,
    train,
)
from latentlab.scm import Dataset, build_scm, sample


def unit_layout(n):
    return tuple(f"o{i}" for i in range(n))


def unit_model(n=6, d_c=2, d_sm=1, hidden=(8,), seed=0):
    layout = unit_layout(n)
    return init_mae_model(layout, {v: 1 for v in layout}, d_c, d_sm, hidden=hidden, seed=seed)


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


# -- encode / decode ----------------------------------------------------------------


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


def test_decode_deterministic_and_degenerate_noise():
    model = unit_model(d_sm=0)
    mask = Mask({"o0"})
    chat = np.array([0.3, -0.2])
    out1 = decode(model, chat, np.empty(0), mask)
    out2 = decode(model, chat, np.empty(0), mask)
    assert np.array_equal(out1, out2)
    assert out1.shape == (6,)


def test_decode_width_mismatch():
    model = unit_model()
    with pytest.raises(ValueError, match="code width"):
        decode(model, np.zeros(5), np.zeros(1), Mask({"o0"}))


# -- loss ---------------------------------------------------------------------------


def test_loss_zero_on_exact_reconstruction():
    # all-zero model reconstructs an all-zero target exactly
    model = unit_model(d_sm=0)
    for p in model.params():
        p[...] = 0.0
    assert loss(model, np.zeros((4, 6)), Mask({"o0", "o1"}), np.random.default_rng(0)) == 0.0


def test_loss_constant_offset():
    model = unit_model(d_sm=0)
    for p in model.params():
        p[...] = 0.0
    delta = 0.37
    model.decoder.biases[-1][...] = delta
    value = loss(model, np.zeros((4, 6)), Mask({"o0", "o1"}), np.random.default_rng(0))
    assert value == pytest.approx(delta ** 2)


def test_loss_permutation_equivariant():
    model = unit_model(d_sm=0)
    mask = Mask({"o0", "o1"})
    batch = np.random.default_rng(3).standard_normal((8, 6))
    rng = np.random.default_rng
    value = loss(model, batch, mask, rng(0))
    shuffled = batch[np.random.default_rng(4).permutation(8)]
    assert loss(model, shuffled, mask, rng(0)) == pytest.approx(value)


def test_boundary_exclusion_rule():
    model = unit_model(n=6)
    layout = model.layout
    mask = Mask(set(layout[:3]))
    assert active_masked_nodes(model, mask, boundary_exclusion=False) == list(layout[:3])
    assert active_masked_nodes(model, mask, boundary_exclusion=True) == list(layout[:2])


def test_boundary_exclusion_can_empty_the_mask():
    model = unit_model(n=4)
    mask = Mask({model.layout[1]})  # lone interior pixel, both neighbors visible
    with pytest.raises(ValueError, match="removed every masked"):
        active_masked_nodes(model, mask, boundary_exclusion=True)


# -- training -----------------------------------------------------------------------


def test_train_learns_constant_target():
    cfg = TrainConfig(epochs=200, batch_size=16, seed=5)
    _, curve = train(constant_dataset(), Mask({"o0", "o1"}), d_c=1, d_sm=0, cfg=cfg, hidden=(8,))
    assert curve[-1] <= 1e-6


def test_train_deterministic():
    cfg = TrainConfig(epochs=30, batch_size=16, seed=5)
    ds = constant_dataset()
    _, a = train(ds, Mask({"o0", "o1"}), d_c=1, d_sm=2, cfg=cfg, hidden=(8,))
    _, b = train(ds, Mask({"o0", "o1"}), d_c=1, d_sm=2, cfg=cfg, hidden=(8,))
    assert a == b


def test_train_resampled_mode_needs_sampler():
    cfg = TrainConfig(epochs=1, mask_mode="resampled", seed=0)
    with pytest.raises(ValueError, match="MaskSampler"):
        train(constant_dataset(), Mask({"o0"}), d_c=1, d_sm=0, cfg=cfg)


def test_train_resampled_mode_runs(fig4):
    spec = build_scm(fig4, seed=1)
    ds = sample(spec, 256, seed=2)
    sampler = MaskSampler(0.5, 2, ds.layout)
    cfg = TrainConfig(epochs=2, batch_size=64, seed=3, mask_mode="resampled")
    _, curve = train(ds, sampler, d_c=2, d_sm=2, cfg=cfg, hidden=(16,))
    assert len(curve) == 2 and all(np.isfinite(curve))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_detected():
    cfg = TrainConfig(epochs=5, batch_size=16, step_size=1e200, seed=0)
    with pytest.raises(TrainingDiverged, match=r"at epoch 0, step 1; last finite loss \d"):
        train(constant_dataset(), Mask({"o0", "o1"}), d_c=1, d_sm=0, cfg=cfg, hidden=(8,))


def test_train_divergence_on_first_step_says_no_finite_loss():
    ds = constant_dataset(row=(1e300, -1e300, 1e300, 1e300))
    cfg = TrainConfig(epochs=1, batch_size=16, seed=0)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="step 0; no finite loss before it"):
        train(ds, Mask({"o0", "o1"}), d_c=1, d_sm=0, cfg=cfg, hidden=(8,))


@pytest.mark.parametrize("slope", [-0.1, 1.5])
def test_model_rejects_slope_outside_unit_interval(slope):
    layout = unit_layout(4)
    with pytest.raises(ValueError, match="leaky slope must lie in"):
        init_mae_model(layout, {v: 1 for v in layout}, 1, 0, slope=slope)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)
    with pytest.raises(ValueError):
        TrainConfig(mask_mode="sometimes")


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


# -- metrics and checkpoints ----------------------------------------------------------


def test_reconstruction_metrics_examples():
    assert reconstruction_metrics(np.full(10, 0.1), np.zeros(10), peak=1.0)["psnr"] == pytest.approx(20.0)
    perfect = reconstruction_metrics(np.ones(5), np.ones(5), peak=1.0)
    assert perfect["mse"] == 0.0 and perfect["psnr"] == math.inf


def test_psnr_monotone_in_mse():
    target = np.zeros(100)
    values = [
        reconstruction_metrics(np.full(100, eps), target, peak=1.0)["psnr"]
        for eps in (0.01, 0.1, 0.5)
    ]
    assert values[0] > values[1] > values[2]


def test_checkpoint_round_trip(tmp_path):
    model = unit_model(seed=9)
    save_model(model, tmp_path / "ckpt")
    back = load_model(tmp_path / "ckpt")
    for a, b in zip(model.params(), back.params()):
        assert np.array_equal(a, b)
    assert back.layout == model.layout and back.d_c == model.d_c


def test_checkpoint_bytes_are_the_parameter_vector(tmp_path, monkeypatch):
    model = unit_model(n=5, d_c=2, d_sm=3, hidden=(7, 4), seed=9)
    save_model(model, tmp_path / "ckpt")
    data = (tmp_path / "ckpt.bin").read_bytes()
    assert data == model.flat.tobytes()
    # the vector's order: encoder weights, encoder biases, decoder weights, decoder biases
    assert data == np.concatenate([p.ravel() for p in model.params()]).tobytes()

    def no_rng(*args, **kwargs):
        raise AssertionError("load_model must not draw from an RNG")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    monkeypatch.setattr(np.random, "SeedSequence", no_rng)
    back = load_model(tmp_path / "ckpt")
    assert back.flat.tobytes() == data
    assert all(np.shares_memory(p, back.flat) for p in back.params())
    batch = np.random.Generator(np.random.PCG64(1)).standard_normal((3, 5))
    assert np.array_equal(encode(back, batch[:, 2:], Mask({"o0", "o1"})),
                          encode(model, batch[:, 2:], Mask({"o0", "o1"})))


def test_load_model_rejects_size_mismatch_and_non_finite(tmp_path):
    model = unit_model(seed=9)
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


# -- the trainer against a copy of the list-based trainer it replaced ----------------
#
# One array per weight and bias, ``np.where`` activations, a per-array Adam and
# per-step column bookkeeping.  ``train`` must give the same bytes.


def _ref_init(widths, rng):
    weights = [np.sqrt(2.0 / max(1, a)) * rng.standard_normal((b, a)) for a, b in zip(widths[:-1], widths[1:])]
    return weights, [np.zeros(b) for b in widths[1:]]


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
            grad = grad * np.where(pre >= 0, 1.0, slope)
        grads_w[i] = grad.T @ x_in
        grads_b[i] = grad.sum(axis=0)
        grad = grad @ weights[i]
    return grads_w + grads_b, grad


def _ref_adam_step(state, params, grads, cfg):
    state["t"] += 1
    b1, b2 = cfg.beta1, cfg.beta2
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** state["t"])
        v_hat = v / (1 - b2 ** state["t"])
        p -= cfg.step_size * m_hat / (np.sqrt(v_hat) + 1e-8)


def _ref_train(ds, mask_spec, d_c, d_sm, cfg, hidden, slope=0.2):
    layout = ds.layout
    widths = {v: ds.column_spans[v][1] for v in layout}
    offsets = dict(zip(layout, np.cumsum([0] + [widths[v] for v in layout])))
    rows = ds.stack(layout)
    obs = sum(widths.values())

    def columns(nodes):
        return np.asarray([c for v in sorted(nodes, key=layout.index)
                           for c in range(offsets[v], offsets[v] + widths[v])], dtype=int)

    def indicator(mask, n):
        return np.broadcast_to(np.array([1.0 if v in mask.masked else 0.0 for v in layout]), (n, len(layout)))

    def active_columns(mask):
        return columns(active_masked_nodes(SimpleNamespace(layout=layout), mask, cfg.boundary_exclusion))

    param_ss, shuffle_ss, noise_ss, mask_ss = np.random.SeedSequence(cfg.seed).spawn(4)
    param_seed = int(param_ss.generate_state(1)[0])
    enc_rng, dec_rng = (np.random.default_rng(c) for c in np.random.SeedSequence(param_seed).spawn(2))
    enc = _ref_init((obs + len(layout), *hidden, d_c), enc_rng)
    dec = _ref_init((d_c + d_sm + len(layout), *hidden, obs), dec_rng)
    params = enc[0] + enc[1] + dec[0] + dec[1]
    state = {"t": 0, "m": [np.zeros_like(p) for p in params], "v": [np.zeros_like(p) for p in params]}
    shuffle_rng, noise_rng, mask_rng = (np.random.default_rng(s) for s in (shuffle_ss, noise_ss, mask_ss))

    sampler = mask_spec if isinstance(mask_spec, MaskSampler) else None
    mask = sample_mask(sampler, mask_rng) if sampler else mask_spec
    active = active_columns(mask)
    curve = []
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(ds.n)
        losses = []
        for start in range(0, ds.n, cfg.batch_size):
            batch = rows[order[start:start + cfg.batch_size]]
            n = batch.shape[0]
            if cfg.mask_mode == "resampled":
                mask = sample_mask(sampler, mask_rng)
                active = active_columns(mask)
            s_hat = noise_rng.standard_normal((n, d_sm))
            x = batch.copy()
            x[:, columns(mask.masked)] = 0.0
            chat, enc_cache = _ref_forward(enc, np.hstack([x, indicator(mask, n)]), slope)
            recon, dec_cache = _ref_forward(dec, np.hstack([chat, s_hat, indicator(mask, n)]), slope)
            err = recon[:, active] - batch[:, active]
            losses.append(float(np.mean(err ** 2)))
            grad_recon = np.zeros_like(recon)
            grad_recon[:, active] = 2.0 * err / err.size
            dec_grads, grad_dec_in = _ref_backward(dec, dec_cache, grad_recon, slope)
            enc_grads, _ = _ref_backward(enc, enc_cache, grad_dec_in[:, :d_c], slope)
            _ref_adam_step(state, params, enc_grads + dec_grads, cfg)
        curve.append(float(np.mean(losses)))
    return np.concatenate([p.ravel() for p in params]), curve


SMALL = (2, (16, 8), 64)  # d_c, hidden widths, batch size
BENCHMARK = (1, (64, 64), 128)  # those of perfbench's experiment_fig4, where the trainer is timed


@pytest.mark.parametrize(
    "mode, spec, boundary_exclusion, d_sm, shape",
    [
        pytest.param("fixed", "mask", False, 2, SMALL, id="fixed-mask-False-2"),
        pytest.param("fixed", "mask", True, 2, SMALL, id="fixed-mask-True-2"),
        pytest.param("fixed", "mask", False, 0, SMALL, id="fixed-mask-False-0"),
        pytest.param("fixed", "sampler", True, 0, SMALL, id="fixed-sampler-True-0"),
        pytest.param("resampled", "sampler", False, 3, SMALL, id="resampled-sampler-False-3"),
        pytest.param("resampled", "sampler", True, 1, SMALL, id="resampled-sampler-True-1"),
        pytest.param("fixed", "mask", False, 6, BENCHMARK, id="fixed-mask-False-6-benchmark"),
    ],
)
def test_train_matches_list_based_trainer(fig4, mode, spec, boundary_exclusion, d_sm, shape):
    d_c, hidden, batch_size = shape
    ds = sample(build_scm(fig4, alpha=0.5, seed=4), 300, seed=5)  # 300 = 4 * 64 + 44 = 2 * 128 + 44: a partial last batch
    mask_spec = Mask({"x1", "x2", "x3"}) if spec == "mask" else MaskSampler(0.5, 3, ds.layout)
    cfg = TrainConfig(epochs=3, batch_size=batch_size, seed=6, mask_mode=mode, boundary_exclusion=boundary_exclusion)
    model, curve = train(ds, mask_spec, d_c=d_c, d_sm=d_sm, cfg=cfg, hidden=hidden)
    ref_flat, ref_curve = _ref_train(ds, mask_spec, d_c, d_sm, cfg, hidden)
    assert model.flat.tobytes() == ref_flat.tobytes()
    assert curve == ref_curve
