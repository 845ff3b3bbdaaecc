"""The simulator: dimensions, sampling, inversion, Jacobians and files.

The pinned digests are computed in a child process at one BLAS thread, where
every product's bytes are fixed.  Run this file as a script to print them.
"""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import latentlab
from latentlab import LatentGraph, Mask, load_graph, fixture_path
from latentlab.graph import derive_dims, graph_from_dict, graph_to_dict
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


@pytest.mark.parametrize("exo_dims, stray", [({"z1": 3, "nope": 2}, "nope"), ({"eps_z1": 2, "z1": 3}, "z1")])
def test_build_refuses_an_exo_dims_key_that_is_not_exogenous(fig4, exo_dims, stray):
    with pytest.raises(ValueError, match=f"exo_dims entry '{stray}' is not an exogenous node"):
        build_scm(fig4, ScmSettings(exo_dims=exo_dims))
    with pytest.raises(ValueError, match=f"exo_dims entry '{stray}'"):
        derive_dims(fig4, exo_dims)


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


def simulator_digests() -> dict[str, str]:
    """SHA-256 of the bytes of 3,000 sampled rows on each fixture, of two
    fig4 variants (wider noise, biased layers), and of every node value that
    ``invert_observables`` recovers from 50 rows of the fig4 sample."""
    settings = ScmSettings(layers=2, alpha=0.5, seed=11)
    cases = {name: (name, settings) for name in FIXTURES}
    cases["fig4_exo_dims"] = ("fig4", ScmSettings(exo_dims={"eps_z1": 2, "eps_z4": 3}, layers=2, alpha=0.5, seed=11))
    cases["fig4_bias"] = ("fig4", ScmSettings(layers=2, alpha=0.5, seed=11, bias=True))
    digests = {}
    for case, (name, case_settings) in cases.items():
        g = load_graph(fixture_path(name))
        spec = build_scm(g, case_settings)
        ds = sample(spec, 3000, seed=12)
        digests[case] = hashlib.sha256(ds.values.tobytes()).hexdigest()
        if case == "fig4":
            recovered = invert_observables(spec, {v: ds.columns(v)[:50] for v in g.observables})
            h = hashlib.sha256()
            for v in sorted(recovered):
                h.update(v.encode() + recovered[v].tobytes())
            digests["fig4_inverted"] = h.hexdigest()
    return digests


PINNED_DIGESTS = {
    "fig4": "5c5bb07914bd87c379f3ceb0cb139cc110d1b18c7d15da88a6a8eeb21830cc61",
    "fig2": "89ee0b5af52d7c87bf8b0fcc0556e9fa19e239844bce815f54cd8d3d5ad21990",
    "bench3": "9ff05622a955ee335a94aedffb84e8a04d6cc55b80cb32ce6a8da976da29a986",
    "fig4_exo_dims": "18ffa07c84a5ab85d79aaf4965377dd327fdd02b9fd95450773532ee0688d49a",
    "fig4_bias": "5488fd144fd1ff5b6851de90ca699018dced040f042356bd79a63d1fc0308b44",
    "fig4_inverted": "da600c9bddc371ad0a490c482e0f73447b598f1ccbeb01d292d4266af7da625f",
}


@pytest.fixture(scope="module")
def one_thread_digests():
    src = str(Path(latentlab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("case", PINNED_DIGESTS)
def test_simulator_bytes_are_pinned(one_thread_digests, case):
    assert one_thread_digests[case] == PINNED_DIGESTS[case]


def test_sample_holds_little_beyond_its_dataset(bench3):
    """``sample`` writes each node's values straight into the dataset
    matrix, so its traced peak stays well under two copies of that matrix."""
    spec = build_scm(bench3, ScmSettings(seed=3))
    tracemalloc.start()
    try:
        ds = sample(spec, 5000, seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * ds.values.nbytes


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


if __name__ == "__main__":
    print(json.dumps(simulator_digests()))
