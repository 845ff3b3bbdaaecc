import functools
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentlab import (
    LatentGraph,
    Mask,
    NodeKind,
    UnknownNodeError,
    derive_dims,
    graph_from_dict,
    validate_graph,
)
from latentlab.graph import graph_to_dict
from latentlab.locate import locate_shared_info

from conftest import d_separated, random_hierarchy, reference_index, reference_violations

MINIMAL_CHAIN = LatentGraph(
    [("z", "latent"), ("x", "observable"), ("eps_z", "exogenous"), ("eps_x", "exogenous")],
    [("eps_z", "z"), ("z", "x"), ("eps_x", "x")],
    ["x"],
)


# -- validation -------------------------------------------------------------


def test_minimal_chain_is_valid():
    assert validate_graph(MINIMAL_CHAIN).ok


def test_fixtures_are_valid(fig4, fig2, bench3):
    for g in (fig4, fig2, bench3):
        report = validate_graph(g)
        assert report.ok, report.violations


def test_observable_out_edge_and_cycle_rejected():
    g = LatentGraph(
        [("z", "latent"), ("x", "observable"), ("eps_z", "exogenous"), ("eps_x", "exogenous")],
        [("eps_z", "z"), ("z", "x"), ("eps_x", "x"), ("x", "z")],
        ["x"],
    )
    report = validate_graph(g)
    assert not report.ok
    assert any("cycle" in v for v in report.violations)
    assert any("observable has out-edge" in v for v in report.violations)


@pytest.mark.parametrize(
    "mutate, expected",
    [
        (lambda d: d["edges"].append(["x1", "x2"]), "edge between observables"),
        (lambda d: d["edges"].remove(["eps_z1", "z1"]), "0 exogenous parents"),
        (lambda d: d["edges"].append(["eps_z1", "z2"]), "out-degree 2"),
        (lambda d: d["layout"].pop(), "layout is not a permutation"),
        (lambda d: d["edges"].append(["z4", "z1"]), "cycle"),
    ],
)
def test_single_invariant_mutations_rejected(fig4, mutate, expected):
    data = graph_to_dict(fig4)
    mutate(data)
    report = validate_graph(graph_from_dict(data))
    assert not report.ok
    assert any(expected in v for v in report.violations), report.violations


def test_cycle_reads_as_closed_path():
    g = LatentGraph(
        [("a", "latent"), ("b", "latent"), ("c", "latent"), ("d", "latent")],
        [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")],
        [],
    )
    assert "cycle: a -> b -> c -> a" in validate_graph(g).violations


def test_long_cycle_is_recovered_without_recursion():
    n = 3000
    names = [f"n{i:04d}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    edges.append(("root", names[0]))
    g = LatentGraph([(v, "latent") for v in ["root"] + names], edges, [])
    (line,) = [v for v in validate_graph(g).violations if v.startswith("cycle: ")]
    path = line[len("cycle: "):].split(" -> ")
    assert path[0] == path[-1] and len(path) == n + 1
    assert all(edge in g.edges for edge in zip(path, path[1:]))


def _deep_or_wide(n: int, deep: bool) -> LatentGraph:
    """``n`` latents each with one observable child, chained one below the
    next (deep) or all children of one root latent ``z0`` (wide)."""
    nodes = [] if deep else [("z0", "latent")]
    edges, layout = [], []
    for i in range(1, n + 1):
        nodes += [(f"z{i}", "latent"), (f"x{i}", "observable")]
        edges.append((f"z{i}", f"x{i}"))
        if not deep:
            edges.append(("z0", f"z{i}"))
        elif i > 1:
            edges.append((f"z{i - 1}", f"z{i}"))
        layout.append(f"x{i}")
    for v, _ in list(nodes):
        nodes.append((f"eps_{v}", "exogenous"))
        edges.append((f"eps_{v}", v))
    return LatentGraph(nodes, edges, layout)


@pytest.mark.parametrize("deep, expected_c", [(True, {"z625"}), (False, {"z0"})])
def test_large_graphs_validate_and_locate_quickly(deep, expected_c):
    g = _deep_or_wide(1250, deep)
    assert len(g.node_ids) >= 5000
    start = time.perf_counter()
    assert validate_graph(g).ok
    info = locate_shared_info(g, Mask(f"x{i}" for i in range(1, 626)))
    assert time.perf_counter() - start < 10.0
    assert info.c == expected_c
    assert {f"eps_x{i}" for i in range(1, 626)} <= info.s_m


def test_duplicate_and_empty_ids_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        LatentGraph([("a", "latent"), ("a", "latent")], [], [])
    with pytest.raises(ValueError, match="non-empty"):
        LatentGraph([("", "latent")], [], [])
    with pytest.raises(UnknownNodeError):
        LatentGraph([("a", "latent")], [("a", "b")], [])


def _index_tables(g: LatentGraph) -> dict:
    idx = g.bit_index()
    return {"ids": idx.ids, "parents": idx.parents, "ancestors": idx.ancestors,
            "level": idx.level, "dim": idx.dim}


def test_fixture_indexes_match_the_accessor_reference(fig4, fig2, bench3):
    for g in (fig4, fig2, bench3):
        assert validate_graph(g).violations == reference_violations(g) == ()
        assert _index_tables(g) == reference_index(g)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_bit_index_matches_the_accessor_reference(seed):
    """The one-pass index over the graph's own tables holds the bit order,
    parent and ancestor masks, levels and unit dimensions that the
    accessor-based construction gives."""
    g = random_hierarchy(np.random.default_rng(seed), max_latents=14, max_observables=12)
    assert validate_graph(g).violations == reference_violations(g) == ()
    assert _index_tables(g) == reference_index(g)


FAULTS = ("cycle", "exogenous_in_edge", "observable_out_edge", "two_exogenous_parents",
          "missing_exogenous_parent", "layout")


def _broken_hierarchy(seed: int, faults: list[str]) -> LatentGraph:
    """A random hierarchy with each of ``faults`` added: a two-latent cycle
    (a self-loop when both ends coincide), an edge into an exogenous node, an
    edge out of an observable, a second exogenous parent, a dropped
    exogenous edge, or a layout that is not a permutation of the observables."""
    rng = np.random.default_rng(seed)
    g = random_hierarchy(rng, max_latents=8, max_observables=8)
    latents, observables, exogenous = sorted(g.latents), sorted(g.observables), sorted(g.exogenous)
    edges, layout = sorted(g.edges), list(g.layout)

    def pick(seq):
        return seq[int(rng.integers(len(seq)))]
    for fault in faults:
        if fault == "cycle":
            a, b = pick(latents), pick(latents)
            edges += [(a, b), (b, a)]
        elif fault == "exogenous_in_edge":
            edges.append((pick(latents + observables + exogenous), pick(exogenous)))
        elif fault == "observable_out_edge":
            edges.append((pick(observables), pick(latents + observables)))
        elif fault == "two_exogenous_parents":
            edges.append((pick(exogenous), pick(latents + observables)))
        elif fault == "missing_exogenous_parent":
            edges.remove(pick([e for e in edges if e[0] in exogenous]))
        else:
            layout = pick([layout[:-1], layout + layout[:1], layout + [pick(latents)], layout[::-1][1:]])
    return LatentGraph([(v, g.kind(v)) for v in g.node_ids], edges, layout)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.lists(st.sampled_from(FAULTS), min_size=1, max_size=4))
def test_violations_match_the_accessor_reference(seed, faults):
    """The one-pass check reports the same violations, with the same
    wording and in the same order, as the accessor-based check that reads
    every edge; the index refuses the graph naming them all."""
    g = _broken_hierarchy(seed, faults)
    expected = reference_violations(g)
    assert validate_graph(g).violations == expected
    if expected:
        with pytest.raises(ValueError) as err:
            g.bit_index()
        assert str(err.value) == "invalid graph: " + "; ".join(expected)
    else:
        assert _index_tables(g) == reference_index(g)


# -- parents / ancestors / descendants ---------------------------------------


def test_parents_fig4(fig4):
    assert fig4.parents("x2") == {"z3", "z4", "eps_x2"}
    assert fig4.parents("z1") == {"eps_z1"}
    assert fig4.parents("eps_z1") == frozenset()
    with pytest.raises(UnknownNodeError):
        fig4.parents("nope")


def test_ancestors_descendants_fig4(fig4):
    assert fig4.descendants("z2") == {"z4", "z5", "z6", "x2", "x3", "x4", "x5", "x6"}
    assert fig4.ancestors("x6") == {"z6", "z2", "eps_z6", "eps_z2", "eps_x6"}
    assert fig4.ancestors("eps_z1") == set()


def test_is_ancestor_of_any(fig4):
    assert fig4.is_ancestor_of_any("z2", {"x4", "x5", "x6"})
    assert not fig4.is_ancestor_of_any("z3", {"x4", "x5", "x6"})
    assert not fig4.is_ancestor_of_any("x4", {"x4"})


def test_directed_path_nodes(fig4):
    assert fig4.directed_path_nodes("z2", {"x6"}) == {"z6", "x6"}
    assert fig4.directed_path_nodes("z6", {"x6"}) == {"x6"}
    assert fig4.directed_path_nodes("z3", {"x6"}) == set()


def test_topo_depth(fig4):
    assert fig4.topo_depth("z3") == 1
    assert fig4.topo_depth("z1") == 2
    assert MINIMAL_CHAIN.topo_depth("z") == 1
    with pytest.raises(ValueError):
        fig4.topo_depth("x1")


def test_topo_order_parents_first(fig2):
    order = fig2.topo_order()
    pos = {v: i for i, v in enumerate(order)}
    for p, c in fig2.edges:
        assert pos[p] < pos[c]


def test_kahn_runs_once_per_graph(monkeypatch, fig4):
    """Validation and the topological order read one pass of Kahn's
    algorithm; a cyclic graph's cycle and refused order come from one too."""
    expected = fig4.topo_order()
    runs, kahn = [], LatentGraph._kahn.func
    counted = functools.cached_property(lambda g: runs.append(g) or kahn(g))
    counted.__set_name__(LatentGraph, "_kahn")
    monkeypatch.setattr(LatentGraph, "_kahn", counted)
    g = graph_from_dict(graph_to_dict(fig4))
    assert validate_graph(g).ok
    assert g.topo_order() == expected
    g.bit_index()
    cyclic = LatentGraph([(v, "latent") for v in "abc"], [("a", "b"), ("b", "c"), ("c", "a")], [])
    assert "cycle: a -> b -> c -> a" in validate_graph(cyclic).violations
    with pytest.raises(ValueError, match="cycle"):
        cyclic.topo_order()
    assert runs == [g, cyclic]


# -- d-separation -------------------------------------------------------------


def _three_chain():
    return LatentGraph(
        [("a", "latent"), ("b", "latent"), ("c", "latent")],
        [("a", "b"), ("b", "c")],
        [],
    )


def test_d_separation_chain():
    g = _three_chain()
    assert not d_separated(g, {"a"}, {"c"}, set())
    assert d_separated(g, {"a"}, {"c"}, {"b"})


def test_d_separation_collider():
    g = LatentGraph(
        [("a", "latent"), ("b", "latent"), ("c", "latent")],
        [("a", "b"), ("c", "b")],
        [],
    )
    assert d_separated(g, {"a"}, {"c"}, set())
    assert not d_separated(g, {"a"}, {"c"}, {"b"})


def test_d_separation_fig4c(fig4):
    s_m = {"eps_z1", "eps_z3", "eps_z4", "eps_x1", "eps_x2", "eps_x3"}
    assert d_separated(fig4, s_m, {"z2", "x4", "x5", "x6"}, set())


def test_d_separation_rejects_overlap():
    g = _three_chain()
    with pytest.raises(ValueError):
        d_separated(g, {"a"}, {"a", "c"}, set())


# -- brute-force oracle for d-separation ---------------------------------------


def _active_path_exists(g: LatentGraph, a: set, b: set, z: set) -> bool:
    """Enumerate all simple undirected paths between a and b; check the
    textbook per-node blocking rules along each."""
    neighbors = {v: set(g.parents(v)) | set(g.children(v)) for v in g.node_ids}

    def path_is_active(path: list) -> bool:
        for i in range(1, len(path) - 1):
            prev_node, node, next_node = path[i - 1], path[i], path[i + 1]
            into_left = (prev_node, node) in g.edges
            into_right = (next_node, node) in g.edges
            if into_left and into_right:  # collider
                if node not in z and not (g.descendants(node) & z):
                    return False
            else:  # chain or fork
                if node in z:
                    return False
        return True

    def extend(path: list) -> bool:
        node = path[-1]
        if node in b:
            return path_is_active(path)
        for nxt in sorted(neighbors[node]):
            if nxt in path or (nxt in a):
                continue
            if extend(path + [nxt]):
                return True
        return False

    return any(extend([start]) for start in sorted(a))


def _random_dag(rng: np.random.Generator, n_nodes: int):
    names = [f"n{i}" for i in range(n_nodes)]
    edges = []
    for i, j in itertools.combinations(range(n_nodes), 2):
        if rng.random() < 0.3:
            edges.append((names[i], names[j]))
    return LatentGraph([(v, "latent") for v in names], edges, [])


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_d_separation_matches_path_enumeration(seed):
    rng = np.random.default_rng(seed)
    g = _random_dag(rng, int(rng.integers(3, 13)))
    nodes = list(g.node_ids)
    rng.shuffle(nodes)
    size_a = int(rng.integers(1, 3))
    size_b = int(rng.integers(1, 3))
    size_z = int(rng.integers(0, 4))
    if size_a + size_b + size_z > len(nodes):
        size_z = max(0, len(nodes) - size_a - size_b)
    a = set(nodes[:size_a])
    b = set(nodes[size_a:size_a + size_b])
    z = set(nodes[size_a + size_b:size_a + size_b + size_z])
    if not b:
        return
    expected = not _active_path_exists(g, a, b, z)
    assert d_separated(g, a, b, z) == expected


# -- randomized structural properties -----------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_ancestor_descendant_duality(seed):
    g = random_hierarchy(np.random.default_rng(seed))
    for u in g.node_ids:
        for v in g.ancestors(u):
            assert u in g.descendants(v)
        for w in g.descendants(u):
            assert u in g.ancestors(w)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_directed_path_nodes_within_descendants(seed):
    rng = np.random.default_rng(seed)
    g = random_hierarchy(rng)
    targets = set(rng.choice(sorted(g.observables), size=2, replace=True).tolist())
    for z in g.latents:
        assert g.directed_path_nodes(z, targets) <= g.descendants(z)


# -- dimensions ----------------------------------------------------------------


def test_derive_dims_chain():
    g = LatentGraph(
        [("z", "latent"), ("x", "observable"), ("eps_z", "exogenous"), ("eps_x", "exogenous")],
        [("eps_z", "z"), ("z", "x"), ("eps_x", "x")],
        ["x"],
    )
    dims = derive_dims(g, {"eps_z": 2})
    assert dims["z"] == 2 and dims["x"] == 3


def test_derive_dims_fig4(fig4):
    dims = derive_dims(fig4)
    assert dims["z6"] == dims["z2"] + 1
    assert dims["x6"] == dims["z6"] + 1 == 3


# -- loader ---------------------------------------------------------------------


def test_implicit_exogenous_synthesis(fig4):
    assert "eps_z1" in fig4
    assert fig4.kind("eps_z1") is NodeKind.EXOGENOUS
    assert fig4.children("eps_z1") == {"z1"}


def test_layout_preserved(fig2):
    assert fig2.layout == tuple(f"x{i}" for i in range(1, 12))
