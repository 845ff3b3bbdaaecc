import numpy as np
import pytest

from latentlab import LatentGraph, Mask, load_graph, fixture_path
from latentlab.graph import graph_from_dict, graph_to_dict
from latentlab.locate import SharedInfo, locate_shared_info
from latentlab.scm import (
    Dataset,
    MixingFunction,
    ScmSettings,
    build_scm,
    extract_blocks,
    invert_node,
    invert_observables,
    jacobian_min_singular_value,
    load_dataset,
    sample,
    save_dataset,
    _random_orthogonal,
)

FIXTURES = ["fig4", "fig2", "bench3"]


def chain_graph(exo_z_dim=2):
    g = LatentGraph(
        [("z", "latent"), ("x", "observable"), ("eps_z", "exogenous"), ("eps_x", "exogenous")],
        [("eps_z", "z"), ("z", "x"), ("eps_x", "x")],
        ["x"],
    )
    return g, {"eps_z": exo_z_dim}


# -- build -------------------------------------------------------------------


def test_build_dims_additive_chain():
    g, exo = chain_graph()
    spec = build_scm(g, ScmSettings(exo_dims=exo, seed=1))
    assert spec.dims["z"] == 2
    assert spec.dims["x"] == 3


def test_build_dims_fig4(fig4):
    spec = build_scm(fig4, ScmSettings(seed=1))
    assert spec.dims["x6"] == spec.dims["z6"] + 1 == 3


def test_build_deterministic(fig4):
    a = build_scm(fig4, ScmSettings(seed=7))
    b = build_scm(fig4, ScmSettings(seed=7))
    for v in a.mixers:
        for wa, wb in zip(a.mixers[v].weights, b.mixers[v].weights):
            assert np.array_equal(wa, wb)


def test_build_is_input_order_invariant(fig4):
    data = graph_to_dict(fig4)
    rng = np.random.default_rng(0)
    rng.shuffle(data["nodes"])
    rng.shuffle(data["edges"])
    shuffled = build_scm(graph_from_dict(data), ScmSettings(seed=7))
    reference = build_scm(fig4, ScmSettings(seed=7))
    for v in reference.mixers:
        for wa, wb in zip(reference.mixers[v].weights, shuffled.mixers[v].weights):
            assert np.array_equal(wa, wb)


def test_build_rejects_invalid_graph():
    g = LatentGraph(
        [("z", "latent"), ("x", "observable"), ("eps_z", "exogenous")],
        [("eps_z", "z"), ("z", "x")],
        ["x"],
    )
    with pytest.raises(ValueError, match="invalid graph"):
        build_scm(g, ScmSettings())


# -- sampling ----------------------------------------------------------------


def test_sample_empty():
    g, exo = chain_graph()
    ds = sample(build_scm(g, ScmSettings(exo_dims=exo)), 0)
    assert ds.n == 0
    assert ds.values.shape == (0, 2 + 3 + 2 + 1)
    assert set(ds.column_spans) == {"z", "x", "eps_z", "eps_x"}


def test_sample_exogenous_clt_bound():
    g, exo = chain_graph()
    ds = sample(build_scm(g, ScmSettings(exo_dims=exo, seed=2)), 1000, seed=9)
    exo_cols = ds.stack(["eps_z", "eps_x"])
    assert np.abs(exo_cols.mean(axis=0)).max() < 5 / np.sqrt(1000)


def test_sample_deterministic(fig4):
    spec = build_scm(fig4, ScmSettings(seed=0))
    a = sample(spec, 4, seed=0)
    b = sample(spec, 4, seed=0)
    assert np.array_equal(a.values, b.values)


def test_sample_graph_order_invariant(fig4):
    data = graph_to_dict(fig4)
    rng = np.random.default_rng(3)
    rng.shuffle(data["nodes"])
    rng.shuffle(data["edges"])
    a = sample(build_scm(fig4, ScmSettings(seed=5)), 16, seed=11)
    b = sample(build_scm(graph_from_dict(data), ScmSettings(seed=5)), 16, seed=11)
    for v in a.column_spans:
        assert np.array_equal(a.columns(v), b.columns(v))


# -- inversion ----------------------------------------------------------------


def test_invert_node_round_trip(fig4):
    spec = build_scm(fig4, ScmSettings(seed=4))
    rng = np.random.default_rng(0)
    mixer = spec.mixers["x2"]
    x = rng.standard_normal(mixer.dim)
    parents = invert_node(spec, "x2", mixer.forward(x))
    rebuilt = np.concatenate([parents[p] for p in mixer.input_order])
    assert np.allclose(rebuilt, x, rtol=1e-9, atol=1e-12)


def test_invert_zero_is_zero():
    g, exo = chain_graph()
    spec = build_scm(g, ScmSettings(exo_dims=exo, seed=8))
    parents = invert_node(spec, "x", np.zeros(spec.dims["x"]))
    for block in parents.values():
        assert np.allclose(block, 0.0)


def test_invert_node_dimension_mismatch(fig4):
    spec = build_scm(fig4, ScmSettings(seed=4))
    with pytest.raises(ValueError, match="width"):
        invert_node(spec, "x2", np.zeros(2))


@pytest.mark.parametrize("name", FIXTURES)
def test_global_inversion_recovers_noise(name):
    g = load_graph(fixture_path(name))
    spec = build_scm(g, ScmSettings(seed=13))
    ds = sample(spec, 100, seed=29)
    recovered = invert_observables(spec, {v: ds.columns(v) for v in g.observables})
    for v in g.exogenous:
        truth = ds.columns(v)
        scale = max(1e-12, float(np.abs(truth).max()))
        assert np.abs(recovered[v] - truth).max() / scale <= 1e-6


# -- jacobian ------------------------------------------------------------------


def test_jacobian_orthogonal_layer_only():
    rng = np.random.default_rng(0)
    mix = MixingFunction(("a",), (3,), (_random_orthogonal(3, rng),), (np.zeros(3),), 1.0)
    jac = mix.jacobian(rng.standard_normal(3))
    assert np.allclose(np.linalg.svd(jac, compute_uv=False), 1.0)


def test_jacobian_all_negative_preactivation():
    mix = MixingFunction(("a",), (2,), (np.eye(2),), (np.zeros(2),), 0.2)
    jac = mix.jacobian(np.array([-1.0, -3.0]))
    assert np.isclose(np.linalg.svd(jac, compute_uv=False)[-1], 0.2)


@pytest.mark.parametrize("name", FIXTURES)
def test_jacobian_lower_bound(name):
    g = load_graph(fixture_path(name))
    spec = build_scm(g, ScmSettings(seed=21))
    node = sorted(g.observables)[-1]
    rng = np.random.default_rng(17)
    bound = spec.settings.alpha ** spec.settings.layers
    for _ in range(100):
        point = rng.standard_normal(spec.dims[node])
        assert jacobian_min_singular_value(spec, node, point) >= bound * (1 - 1e-9)


# -- blocks and files ------------------------------------------------------------


def test_extract_blocks_widths(fig4):
    spec = build_scm(fig4, ScmSettings(seed=1))
    ds = sample(spec, 8, seed=1)
    info = locate_shared_info(fig4, Mask({"x1", "x2", "x3"}))
    C, S_m, S_mc, X_m, X_mc = extract_blocks(ds, info)
    assert C.shape == (8, spec.dims["z2"])
    assert S_m.shape[1] == len(info.s_m)
    assert X_m.shape[1] + X_mc.shape[1] == sum(spec.dims[v] for v in fig4.observables)


def test_extract_blocks_empty_smc(fig4):
    spec = build_scm(fig4, ScmSettings(seed=1))
    ds = sample(spec, 5, seed=2)
    info = SharedInfo(
        c=frozenset({"z2"}), s_m=frozenset(), s_mc=frozenset(), mask=Mask({"x1"})
    )
    _, S_m, S_mc, _, _ = extract_blocks(ds, info)
    assert S_m.shape == (5, 0)
    assert S_mc.shape == (5, 0)


def test_extract_blocks_missing_node(fig4):
    ds = Dataset(values=np.zeros((2, 1)), column_spans={"z1": (0, 1)}, layout=())
    info = locate_shared_info(fig4, Mask({"x1"}))
    with pytest.raises(KeyError):
        extract_blocks(ds, info)


def test_dataset_round_trip(tmp_path, fig4):
    spec = build_scm(fig4, ScmSettings(seed=9))
    ds = sample(spec, 50, seed=9)
    paths = save_dataset(ds, tmp_path / "data", seed=9)
    assert set(paths) == {"bin", "json", "csv"}
    back = load_dataset(tmp_path / "data")
    assert np.array_equal(back.values, ds.values)
    assert back.column_spans == ds.column_spans
    assert back.layout == ds.layout


def test_dataset_csv_skipped_for_large_n(tmp_path, fig4):
    spec = build_scm(fig4, ScmSettings(seed=9))
    ds = sample(spec, 1001, seed=9)
    paths = save_dataset(ds, tmp_path / "data")
    assert "csv" not in paths
