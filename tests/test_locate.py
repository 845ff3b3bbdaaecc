import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentlab import LatentGraph, Mask, NodeKind, ScmSettings, UnknownNodeError, build_scm, derive_dims, validate_graph
from latentlab import graph as graph_module
from latentlab import locate as locate_module
from latentlab.cli import sweep_rows
from latentlab.graph import graph_from_dict, graph_to_dict
from latentlab.locate import (
    ORACLE_MAX_LATENTS,
    OracleResult,
    SharedInfo,
    _locate_rows,
    _undetermined,
    brute_force_minimal_c,
    locate_many,
    locate_shared_info,
    verify_conditions,
)

from conftest import d_separated, random_hierarchy, random_mask

FIG4C_MASK = Mask({"x1", "x2", "x3"})
FIG4C_SM = frozenset({"eps_z1", "eps_z3", "eps_z4", "eps_x1", "eps_x2", "eps_x3"})


def single_latent_graph():
    return LatentGraph(
        [("z", "latent"), ("x1", "observable"), ("x2", "observable"),
         ("eps_z", "exogenous"), ("eps_x1", "exogenous"), ("eps_x2", "exogenous")],
        [("eps_z", "z"), ("z", "x1"), ("z", "x2"), ("eps_x1", "x1"), ("eps_x2", "x2")],
        ["x1", "x2"],
    )


# -- locating c -----------------------------------------------------------------


def test_locate_c_conservative_mask(fig4):
    info = locate_shared_info(fig4, Mask({"x1"}))
    assert info.c == {"z3"}
    assert info.s_m == {"eps_x1"}


def test_locate_c_aggressive_mask_exercises_pruning(fig4):
    assert locate_shared_info(fig4, Mask({"x1", "x2", "x3", "x4", "x5"})).c == {"z6"}


def test_locate_c_ideal_mask(fig4):
    info = locate_shared_info(fig4, FIG4C_MASK)
    assert info.c == {"z2"}
    assert info.s_m == FIG4C_SM


@pytest.mark.parametrize("graph_name, digest", [
    ("fig2", "cc34fa43bacfdb38fb85ea623df7c66460bb96accff79be80f1a40310b85c476"),
    ("fig4", "e807f881348c691d598f6f6c7f2a93748ca42f7703cf0af9a14b8cbb666ef196"),
    ("bench3", "9d8fee289e5e703a1841623608183cced3c8bfea18ce3c501ab82930d8a0f286"),
])
def test_located_triples_are_pinned(request, graph_name, digest):
    """The sorted ``(c, s_m, s_mc)`` of 300 seeded masks hash to the digest
    the search has always given, whichever way it computes them: one mask
    at a time or all 300 as one batch."""
    g = request.getfixturevalue(graph_name)
    rng = np.random.default_rng(20_261_021)
    masks = [random_mask(rng, g) for _ in range(300)]
    for infos in ([locate_shared_info(g, mask) for mask in masks], locate_many(g, masks)):
        rows = [[sorted(info.c), sorted(info.s_m), sorted(info.s_mc)] for info in infos]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


def test_locate_c_rejects_empty_sides(fig4):
    with pytest.raises(ValueError):
        locate_shared_info(fig4, Mask(set()))
    with pytest.raises(ValueError):
        locate_shared_info(fig4, Mask(set(fig4.observables)))


def test_locate_c_rejects_invalid_graph(fig4):
    data = graph_to_dict(fig4)
    data["edges"].append(["x1", "x2"])
    with pytest.raises(ValueError, match="invalid graph"):
        locate_shared_info(graph_from_dict(data), Mask({"x1"}))


# Every reader of a graph's bit index, each called on graph ``g``.
INDEX_READERS = {
    "locate_shared_info": lambda g: locate_shared_info(g, FIG4C_MASK),
    "locate_many": lambda g: locate_many(g, [FIG4C_MASK]),
    "brute_force_minimal_c": lambda g: brute_force_minimal_c(g, FIG4C_MASK, dict.fromkeys(g.node_ids, 1)),
    "verify_conditions": lambda g: verify_conditions(
        g, FIG4C_MASK, SharedInfo(c=frozenset({"z2"}), s_m=frozenset(), s_mc=frozenset(), mask=FIG4C_MASK)),
    "derive_dims": derive_dims,
    "topo_depth": lambda g: g.topo_depth("z2"),
    "build_scm": lambda g: build_scm(g, ScmSettings()),
    "sweep_rows": lambda g: sweep_rows(g, [0.5], [1], 2, seed=0),
}


@pytest.mark.parametrize("reader", INDEX_READERS)
def test_index_readers_refuse_invalid_graph(monkeypatch, fig4, reader):
    """Without its ``eps_z3 -> z3`` edge fig4 stays acyclic but breaks the
    one-exogenous-parent rule; every reader of the index refuses it with
    the full violation list, and on a valid graph the invariants are
    checked once however many readers run."""
    data = graph_to_dict(fig4)
    data["edges"].remove(["eps_z3", "z3"])
    broken = graph_from_dict(data)
    expected = "invalid graph: " + "; ".join(validate_graph(broken).violations)
    with pytest.raises(ValueError) as err:
        INDEX_READERS[reader](broken)
    assert str(err.value) == expected

    runs, check = [], graph_module._check_invariants
    monkeypatch.setattr(graph_module, "_check_invariants", lambda g: runs.append(g) or check(g))
    g = graph_from_dict(graph_to_dict(fig4))
    INDEX_READERS[reader](g)
    for read in INDEX_READERS.values():
        read(g)
    assert validate_graph(g).ok
    assert runs == [g]


def test_locate_c_order_invariant(fig4):
    data = graph_to_dict(fig4)
    rng = np.random.default_rng(5)
    for _ in range(5):
        rng.shuffle(data["nodes"])
        rng.shuffle(data["edges"])
        g = graph_from_dict(data)
        assert locate_shared_info(g, FIG4C_MASK) == locate_shared_info(fig4, FIG4C_MASK)


# -- locating s_mc ----------------------------------------------------------------


def test_locate_smc_ideal_mask(fig4):
    info = locate_shared_info(fig4, FIG4C_MASK)
    assert info.c == {"z2"}
    assert info.s_mc == {"eps_x4", "eps_x5", "eps_x6", "eps_z5", "eps_z6"}


def test_locate_smc_single_latent():
    g = single_latent_graph()
    info = locate_shared_info(g, Mask({"x1"}))
    assert info.c == {"z"}
    assert info.s_mc == {"eps_x2"}


def test_fig2_pipeline_passes_conditions(fig2):
    mask = Mask({f"x{i}" for i in range(1, 8)})
    info = locate_shared_info(fig2, mask)
    report = verify_conditions(fig2, mask, info, dims=derive_dims(fig2))
    assert report.all_ok, report.witnesses


# -- information closure ---------------------------------------------------------


def closure(g: LatentGraph, known) -> set:
    """Every node that ``known`` determines, by ``_undetermined`` over all nodes."""
    idx = g.bit_index()
    every = (1 << len(idx.ids)) - 1
    return idx.decode(every & ~_undetermined(idx, every, idx.encode(known)))


def test_closure_full_inversion_from_observable():
    g = LatentGraph(
        [("z", "latent"), ("x", "observable"), ("eps_z", "exogenous"), ("eps_x", "exogenous")],
        [("eps_z", "z"), ("z", "x"), ("eps_x", "x")],
        ["x"],
    )
    assert closure(g, {"x"}) == {"x", "z", "eps_z", "eps_x"}
    assert closure(g, {"eps_z", "eps_x"}) == {"x", "z", "eps_z", "eps_x"}


def test_closure_covers_masked_side(fig4):
    assert {"x1", "x2", "x3"} <= closure(fig4, {"z2"} | FIG4C_SM)


def test_closure_exogenous_not_free(fig4):
    # without the child's value or the noise itself, noise stays unknown
    assert "eps_x6" not in closure(fig4, {"z2"})


def test_closure_rejects_unknown_nodes(fig4):
    with pytest.raises(UnknownNodeError):
        closure(fig4, {"z2", "nope"})


def _naive_closure(g: LatentGraph, known) -> set:
    """Both rules applied over the edge list until nothing changes."""
    closure = set(known)
    changed = True
    while changed:
        changed = False
        for parent, child in g.edges:
            if child in closure and parent not in closure:
                closure.add(parent)
                changed = True
        for v in g.node_ids:
            if v not in closure and g.parents(v) and g.parents(v) <= closure:
                closure.add(v)
                changed = True
    return closure


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_closure_matches_naive_fixpoint(seed):
    rng = np.random.default_rng(seed)
    g = random_hierarchy(rng)
    nodes = sorted(g.node_ids)
    known = {str(v) for v in rng.choice(nodes, size=int(rng.integers(0, 5)), replace=False)}
    assert closure(g, known) == _naive_closure(g, known)


def _check_oracle_graph_facts(g: LatentGraph, rng, n_masks: int) -> None:
    """The two facts about a valid graph that the oracle's search rests on:
    a mask's closure is its ancestor-or-self set, and the mask's exogenous
    ancestors ``E`` determine it together with any latent set ``C'``."""
    idx = g.bit_index()
    latents = sorted(g.latents)
    for _ in range(n_masks):
        mask = random_mask(rng, g).masked
        anc = idx.ancestors_or_self(idx.encode(mask))
        assert _naive_closure(g, mask) == idx.decode(anc)
        chosen = idx.encode(v for v in latents if rng.random() < 0.5)
        assert mask <= _naive_closure(g, idx.decode(idx.ancestors_or_self(chosen) | anc & idx.exogenous))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_oracle_graph_facts_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    _check_oracle_graph_facts(random_hierarchy(rng, max_latents=24, max_observables=12), rng, 5)


@pytest.mark.parametrize("graph_name", ["fig2", "fig4", "bench3"])
def test_oracle_graph_facts_on_fixtures(request, graph_name):
    _check_oracle_graph_facts(request.getfixturevalue(graph_name), np.random.default_rng(3), 50)


# -- verify_conditions -------------------------------------------------------------


def test_verify_conditions_located_triple(fig4):
    info = locate_shared_info(fig4, FIG4C_MASK)
    report = verify_conditions(fig4, FIG4C_MASK, info, dims=derive_dims(fig4))
    assert report.all_ok
    assert report.minimal_ok is True
    assert report.total_dim_c == 1
    assert report.witnesses == ()


def test_verify_conditions_unpruned_not_minimal(fig4):
    mask = Mask({"x1", "x2", "x3", "x4", "x5"})
    unpruned = SharedInfo(
        c=frozenset({"z2", "z6"}),
        s_m=locate_shared_info(fig4, mask).s_m,
        s_mc=_set_locate_smc(fig4, mask, {"z2", "z6"}),
        mask=mask,
    )
    report = verify_conditions(fig4, mask, unpruned, dims=derive_dims(fig4))
    assert report.minimal_ok is False
    assert report.total_dim_c > 1


def test_verify_conditions_missing_noise_breaks_invertibility(fig4):
    info = locate_shared_info(fig4, FIG4C_MASK)
    broken = SharedInfo(
        c=info.c, s_m=info.s_m - {"eps_x1"}, s_mc=info.s_mc, mask=info.mask
    )
    report = verify_conditions(fig4, FIG4C_MASK, broken)
    assert not report.invertible_masked
    assert any("x1" in w for w in report.witnesses)


def test_verify_conditions_minimal_absent_without_dims(fig4):
    info = locate_shared_info(fig4, FIG4C_MASK)
    report = verify_conditions(fig4, FIG4C_MASK, info)
    assert report.minimal_ok is None
    assert report.total_dim_c == 1  # unit-noise dimensions by default


def test_closure_and_verify_conditions_reject_cyclic_graph(fig4):
    # Closures and dimensions need a topological order; the Bayes-ball walk
    # in d_separated does not.
    data = graph_to_dict(fig4)
    data["edges"].append(["z4", "z1"])
    g = graph_from_dict(data)
    info = SharedInfo(c=frozenset({"z2"}), s_m=frozenset(), s_mc=frozenset(), mask=FIG4C_MASK)
    with pytest.raises(ValueError, match="cycle"):
        closure(g, {"z1"})
    with pytest.raises(ValueError, match="cycle"):
        verify_conditions(g, FIG4C_MASK, info)
    with pytest.raises(ValueError, match="cycle"):
        verify_conditions(g, FIG4C_MASK, info, dims={v: 1 for v in g.node_ids})
    assert d_separated(g, {"x1"}, {"x6"}, set()) is False


def test_shared_info_requires_disjoint_sets(fig4):
    with pytest.raises(ValueError, match="disjoint"):
        SharedInfo(
            c=frozenset({"z2"}),
            s_m=frozenset({"eps_z2"}),
            s_mc=frozenset({"eps_z2"}),
            mask=FIG4C_MASK,
        )


# -- brute-force oracle ---------------------------------------------------------


def test_oracle_ideal_mask(fig4):
    res = brute_force_minimal_c(fig4, FIG4C_MASK, derive_dims(fig4))
    assert res.c == {"z2"}
    assert res.s_m == FIG4C_SM
    assert res.total_dim == 1
    assert res.ties == ()


def test_oracle_conservative_mask(fig4):
    res = brute_force_minimal_c(fig4, Mask({"x1"}), derive_dims(fig4))
    assert res.c == {"z3"}


def test_oracle_latent_cap(bench3):
    with pytest.raises(ValueError, match="cap"):
        brute_force_minimal_c(bench3, Mask({"p01"}), derive_dims(bench3))


def _eager_oracle(g: LatentGraph, mask: Mask, dims) -> OracleResult:
    """The oracle as first written: every latent subset built and sorted by
    (total dimension, members) up front, then tried in that order."""
    masked = set(mask.masked)
    visible = set(g.observables) - masked
    latents = sorted(g.latents)
    exo_anc_masked = {
        v for v in (g.ancestors_of_set(masked) | masked) if g.kind(v) is NodeKind.EXOGENOUS
    }

    def satisfies(candidate):
        s_prime = frozenset(exo_anc_masked - closure(g, candidate))
        if not masked <= closure(g, candidate | s_prime):
            return False, s_prime
        if not (candidate | s_prime) <= closure(g, masked):
            return False, s_prime
        if s_prime and not d_separated(g, s_prime, candidate | visible, set()):
            return False, s_prime
        return True, s_prime

    subsets = sorted(
        (frozenset(latents[i] for i in range(len(latents)) if bits >> i & 1)
         for bits in range(1 << len(latents))),
        key=lambda s: (sum(dims[v] for v in s), tuple(sorted(s))),
    )
    best, ties = None, []
    for candidate in subsets:
        total = sum(dims[v] for v in candidate)
        if best is not None and total > best.total_dim:
            break
        ok, s_prime = satisfies(candidate)
        if ok and best is None:
            best = OracleResult(c=candidate, s_m=s_prime, total_dim=total)
        elif ok:
            ties.append(candidate)
    return OracleResult(c=best.c, s_m=best.s_m, total_dim=best.total_dim, ties=tuple(ties))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.booleans())
def test_oracle_matches_eager_enumeration(seed, latent_dims):
    """Unequal dimensions, either derived from random noise widths or drawn
    per latent from 0-3; the latter makes equal-dimension ties common, and
    zero-dimension latents make supersets of a minimal set ties too."""
    rng = np.random.default_rng(seed)
    g = random_hierarchy(rng)
    mask = random_mask(rng, g)
    if latent_dims:
        dims = {v: int(rng.integers(0, 4)) for v in g.latents}
    else:
        dims = derive_dims(g, {v: int(rng.integers(1, 4)) for v in g.exogenous})
    got, expected = brute_force_minimal_c(g, mask, dims), _eager_oracle(g, mask, dims)
    assert got.c == expected.c
    assert got.s_m == expected.s_m
    assert got.total_dim == expected.total_dim
    assert got.ties == expected.ties


def test_oracle_rejects_negative_dimensions(fig4):
    dims = dict(derive_dims(fig4), z1=-1)
    with pytest.raises(ValueError, match="non-negative"):
        brute_force_minimal_c(fig4, FIG4C_MASK, dims)


def test_oracle_matches_algorithm_on_fig2(fig2):
    rng = np.random.default_rng(41)
    dims = derive_dims(fig2)
    for _ in range(50):
        mask = random_mask(rng, fig2)
        info = locate_shared_info(fig2, mask)
        res = brute_force_minimal_c(fig2, mask, dims)
        assert info.c == res.c and info.s_m == res.s_m, sorted(mask.masked)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_oracle_matches_algorithm_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    g = random_hierarchy(rng)
    mask = random_mask(rng, g)
    dims = derive_dims(g)
    info = locate_shared_info(g, mask)
    res = brute_force_minimal_c(g, mask, dims)
    assert info.c == res.c
    assert info.s_m == res.s_m
    assert sum(dims[v] for v in info.c) == res.total_dim


def test_oracle_matches_algorithm_up_to_the_cap():
    rng = np.random.default_rng(20_230_607)
    for n_latents in range(14, ORACLE_MAX_LATENTS + 1):
        g = random_hierarchy(rng, min_latents=n_latents, max_latents=n_latents)
        dims = derive_dims(g)
        for _ in range(2):
            mask = random_mask(rng, g)
            res = brute_force_minimal_c(g, mask, dims)
            info = locate_shared_info(g, mask)
            assert (info.c, info.s_m) == (res.c, res.s_m), sorted(mask.masked)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_located_triples_pass_all_flags(seed):
    rng = np.random.default_rng(seed)
    g = random_hierarchy(rng)
    mask = random_mask(rng, g)
    info = locate_shared_info(g, mask)
    report = verify_conditions(g, mask, info)
    assert report.invertible_masked
    assert report.invertible_visible
    assert report.recoverable_from_masked
    assert report.independence_ok


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_pruned_set_has_no_internal_downstream_member(seed):
    rng = np.random.default_rng(seed)
    g = random_hierarchy(rng)
    mask = random_mask(rng, g)
    c = locate_shared_info(g, mask).c
    visible = set(g.observables) - set(mask.masked)
    for d in c:
        assert not (g.directed_path_nodes(d, visible) & (c - {d}))


# -- levels -----------------------------------------------------------------------


def test_level_peak_at_intermediate_mask(fig4):
    """Contiguous windows over the six-pixel layout: the mid-size mask is the
    only one whose shared set reaches level 2."""
    layout = list(fig4.layout)

    def best_level(width):
        levels = []
        for start in range(len(layout) - width + 1):
            c = locate_shared_info(fig4, Mask(layout[start:start + width])).c
            levels.append(max(fig4.topo_depth(v) for v in c))
        return max(levels)

    assert best_level(3) == 2
    assert best_level(1) == 1
    assert best_level(5) == 1


# -- set-based references ---------------------------------------------------------
#
# The library answers locate, smc, verify and sweep queries on the graph's
# BitIndex.  These references work on node-id sets over `parents`/`children`
# and `d_separated`, with no BitIndex, and must give the same answers.


def _set_descendants(g: LatentGraph, v) -> set:
    seen, stack = set(), [v]
    while stack:
        for c in g.children(stack.pop()):
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def _set_levels(g: LatentGraph) -> dict:
    """Longest directed path down to an observable; None where there is none."""
    levels = {}

    def level(v):
        if v not in levels:
            if g.kind(v) is NodeKind.OBSERVABLE:
                levels[v] = 0
            else:
                below = [d for d in map(level, g.children(v)) if d is not None]
                levels[v] = 1 + max(below) if below else None
        return levels[v]

    for v in g.node_ids:
        level(v)
    return levels


def _set_dims(g: LatentGraph) -> dict:
    dims = {}

    def dim(v):
        if v not in dims:
            kind = g.kind(v)
            dims[v] = 1 if kind is NodeKind.EXOGENOUS else sum(map(dim, g.parents(v)))
        return dims[v]

    for v in g.node_ids:
        dim(v)
    return dims


def _set_locate_c(g: LatentGraph, mask: Mask):
    """Walk up from the masked observables, then prune: a candidate goes when
    another candidate lies on one of its directed paths to the visible side."""
    masked = set(mask.masked)
    visible = set(g.observables) - masked
    reaches_visible = {v for v in g.node_ids if _set_descendants(g, v) & visible}
    candidates, s_m, walked = set(), set(), set(masked)
    frontier = list(masked)
    while frontier:
        for p in g.parents(frontier.pop()):
            if g.kind(p) is NodeKind.EXOGENOUS:
                s_m.add(p)
            elif p in reaches_visible:
                candidates.add(p)
            elif p not in walked:
                walked.add(p)
                frontier.append(p)
    pruned = set()
    for d in candidates:
        on_paths = {
            v for v in _set_descendants(g, d)
            if v in visible or _set_descendants(g, v) & visible
        }
        if not on_paths & (candidates - {d}):
            pruned.add(d)
    return frozenset(pruned), frozenset(s_m)


def _set_locate_smc(g: LatentGraph, mask: Mask, c) -> frozenset:
    c = frozenset(c)
    s_mc, processed = set(), set()
    frontier = set(g.observables) - set(mask.masked)
    while frontier:
        v = frontier.pop()
        if v in processed:
            continue
        processed.add(v)
        parents = g.parents(v)
        if parents & c:
            s_mc |= parents - c
        else:
            for p in parents:
                if g.kind(p) is NodeKind.EXOGENOUS:
                    s_mc.add(p)
                else:
                    frontier.add(p)
    return frozenset(s_mc)


def _set_verify_conditions(g: LatentGraph, mask: Mask, info: SharedInfo, dims=None):
    """The four flags, the witnesses and the total dimension, on sets, with
    the minimality check against `_eager_oracle`."""
    masked = set(mask.masked)
    visible = set(g.observables) - masked
    witnesses = []
    bad_c = {v for v in info.c if g.kind(v) is not NodeKind.LATENT}
    if bad_c:
        witnesses.append(f"c contains non-latent nodes: {sorted(bad_c)}")
    bad_sm = {v for v in info.s_m if g.kind(v) is not NodeKind.EXOGENOUS}
    if bad_sm:
        witnesses.append(f"s_m contains non-exogenous nodes: {sorted(bad_sm)}")
    masked_side = _naive_closure(g, info.c | info.s_m)
    invertible_masked = masked <= masked_side
    if not invertible_masked:
        witnesses.append(f"masked observables not determined by c + s_m: {sorted(masked - masked_side)}")
    visible_side = _naive_closure(g, info.c | info.s_mc)
    invertible_visible = visible <= visible_side
    if not invertible_visible:
        witnesses.append(
            f"visible observables not determined by c + s_mc: {sorted(visible - visible_side)}"
        )
    of_masked = _naive_closure(g, masked)
    recoverable = (info.c | info.s_m) <= of_masked
    if not recoverable:
        witnesses.append(
            "c + s_m not recoverable from the masked observables: "
            f"{sorted((info.c | info.s_m) - of_masked)}"
        )
    other = info.c | info.s_mc
    independence_ok = not info.s_m or not other or d_separated(g, info.s_m, other, set())
    if not independence_ok:
        witnesses.append("s_m is d-connected to c + s_mc given the empty set")
    effective_dims = _set_dims(g) if dims is None else dims
    total_dim_c = sum(effective_dims[v] for v in info.c)
    minimal_ok = None
    if dims is not None:
        oracle = _eager_oracle(g, mask, dims)
        minimal_ok = total_dim_c == oracle.total_dim
        if not minimal_ok:
            witnesses.append(
                f"c has total dimension {total_dim_c}, minimum is {oracle.total_dim} "
                f"(achieved by {sorted(oracle.c)})"
            )
    return (invertible_masked, invertible_visible, recoverable, independence_ok,
            total_dim_c, minimal_ok, tuple(witnesses))


def _set_sweep_rows(g: LatentGraph, ratios, patches, k_masks, seed):
    from latentlab.mae import MaskSampler, sample_mask

    levels, dims = _set_levels(g), _set_dims(g)
    cells = sorted({(float(r), int(s)) for r in ratios for s in patches})
    rows = []
    for (r, s), cell_seed in zip(cells, np.random.SeedSequence(seed).spawn(len(cells))):
        rng = np.random.default_rng(cell_seed)
        sampler = MaskSampler(r, s, tuple(g.layout))
        for i in range(k_masks):
            mask = sample_mask(sampler, rng)
            c = sorted(_set_locate_c(g, mask)[0])
            depth = [levels[v] or 0 for v in c]
            mean = sum(depth) / len(depth) if c else 0.0
            rows.append([r, s, k_masks, i, len(mask.masked), float(mean),
                         max(depth, default=0), sum(dims[v] for v in c)])
    return rows


def _corrupted_triples(rng, g: LatentGraph, info: SharedInfo):
    """The located triple and variants with one part added to, dropped from
    or replaced; members are kept pairwise disjoint."""
    latents, exogenous = sorted(g.latents), sorted(g.exogenous)

    def pick(pool):
        return str(rng.choice(sorted(pool))) if pool else None

    def triple(c, s_m, s_mc):
        c = frozenset(c)
        s_m = frozenset(s_m) - c
        return SharedInfo(c=c, s_m=s_m, s_mc=frozenset(s_mc) - c - s_m, mask=info.mask)

    yield info
    for name in ("c", "s_m", "s_mc"):
        part = getattr(info, name)
        if part:
            yield triple(*(getattr(info, n) - ({pick(part)} if n == name else set())
                           for n in ("c", "s_m", "s_mc")))
    extra = pick(set(latents) - info.c)
    if extra:
        yield triple(info.c | {extra}, info.s_m, info.s_mc)
    yield triple(info.c, info.s_m | {pick(latents)}, info.s_mc)
    yield triple(info.c | {pick(exogenous)}, info.s_m, info.s_mc)
    random_c = {v for v in latents if rng.random() < 0.3}
    yield triple(random_c, info.s_m, _set_locate_smc(g, info.mask, random_c))
    yield triple(info.c, {v for v in exogenous if rng.random() < 0.3}, info.s_mc)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_smc_and_conditions_match_set_references(seed):
    rng = np.random.default_rng(seed)
    g = random_hierarchy(rng)
    mask = random_mask(rng, g)
    info = locate_shared_info(g, mask)
    assert (info.c, info.s_m) == _set_locate_c(g, mask)
    assert info.s_mc == _set_locate_smc(g, mask, info.c)
    dims = derive_dims(g, {v: int(rng.integers(1, 4)) for v in g.exogenous})
    for triple in _corrupted_triples(rng, g, info):
        for d in (None, dims):
            report = verify_conditions(g, mask, triple, dims=d)
            got = (report.invertible_masked, report.invertible_visible,
                   report.recoverable_from_masked, report.independence_ok,
                   report.total_dim_c, report.minimal_ok, report.witnesses)
            assert got == _set_verify_conditions(g, mask, triple, dims=d), triple


# The witness kinds each fixture's pinned reports reach; minimality is not
# checked on bench3, which is above the oracle's cap.
WITNESS_KINDS = ("c contains", "s_m contains", "masked observables", "visible observables",
                 "c + s_m not", "s_m is d-connected", "c has total")


@pytest.mark.parametrize("graph_name, digest", [
    ("fig2", "f71f18ff891d602d3bdf30c73a8f31c4af3e0a7d2baafaba8aaf1ddbea7deaa2"),
    ("fig4", "226c91f02459cb41aa3e2fdfdbea69df56d3c1c423e713acdd2a5abc30202554"),
    ("bench3", "7a22929e399b1d45a2ec5d221dda4e147e91561b11f83ac32af3676b09c6fb52"),
])
def test_condition_reports_are_pinned(request, graph_name, digest):
    """The reports of ``verify_conditions`` on the located triples of 100
    seeded masks and on their ``_corrupted_triples`` hash to the digest the
    checks have always given, with the oracle's minimality check too where
    the graph is under its cap."""
    g = request.getfixturevalue(graph_name)
    rng = np.random.default_rng(20_261_023)
    masks = [random_mask(rng, g) for _ in range(100)]
    dim_maps = [None] if len(g.latents) > ORACLE_MAX_LATENTS else [None, derive_dims(g)]
    rows, kinds = [], set()
    for mask, info in zip(masks, locate_many(g, masks)):
        for triple in _corrupted_triples(rng, g, info):
            for dims in dim_maps:
                report = verify_conditions(g, mask, triple, dims=dims)
                rows.append([sorted(triple.c), sorted(triple.s_m), sorted(triple.s_mc),
                             report.invertible_masked, report.invertible_visible,
                             report.recoverable_from_masked, report.independence_ok,
                             report.total_dim_c, report.minimal_ok, list(report.witnesses)])
                kinds |= {kind for kind in WITNESS_KINDS for w in report.witnesses if w.startswith(kind)}
    assert kinds == set(WITNESS_KINDS[:-1] if dim_maps == [None] else WITNESS_KINDS)
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


@pytest.mark.parametrize("graph_name", ["bench3", "fig2", "fig4"])
@pytest.mark.parametrize("seed", [1, 3, 11])
def test_sweep_rows_match_set_reference(request, graph_name, seed):
    g = request.getfixturevalue(graph_name)
    ratios, patches = [0.1, 0.3, 0.5, 0.7, 0.9], [1, 2, 4]
    assert sweep_rows(g, ratios, patches, 6, seed) == _set_sweep_rows(g, ratios, patches, 6, seed)


def test_sweep_rows_match_set_reference_on_random_graphs():
    rng = np.random.default_rng(20_261_018)
    empty_c_rows = 0
    for trial in range(40):
        g = random_hierarchy(rng, max_observables=12)
        patches = [s for s in (1, 2, 4) if -(-len(g.layout) // s) >= 2]
        rows = sweep_rows(g, [0.2, 0.5, 0.8], patches, 5, seed=trial)
        assert rows == _set_sweep_rows(g, [0.2, 0.5, 0.8], patches, 5, seed=trial)
        empty_c_rows += sum(row[-1] == 0 for row in rows)
    assert empty_c_rows > 0


# -- the batch search -------------------------------------------------------------


def _check_batch_c(g: LatentGraph, masks: list[Mask]) -> list[frozenset]:
    """``_locate_rows`` on ``masks`` as one batch against the set references
    ``_set_locate_c`` and ``_set_locate_smc`` on each mask, for ``c``,
    ``s_m`` and ``s_mc``; returns the ``c`` sets."""
    idx = g.bit_index()
    masked = np.zeros((len(masks), len(idx.ids)), dtype=bool)
    for row, mask in zip(masked, masks):
        row[[idx.bit[v] for v in mask.masked]] = True
    given = masked.copy()
    triple_rows = _locate_rows(idx.matrices, masked)
    for rows in triple_rows:
        assert rows.shape == masked.shape and rows.dtype == bool
    assert (masked == given).all()
    got = [tuple(frozenset(idx.ids[i] for i in np.flatnonzero(row).tolist()) for row in triple)
           for triple in zip(*triple_rows)]
    want = []
    for mask in masks:
        c, s_m = _set_locate_c(g, mask)
        want.append((c, s_m, _set_locate_smc(g, mask, c)))
    assert got == want
    return [c for c, _, _ in got]


@pytest.mark.parametrize("graph_name", ["fig2", "fig4", "bench3"])
def test_batch_c_matches_single_mask_search(request, graph_name):
    g = request.getfixturevalue(graph_name)
    rng = np.random.default_rng(20_261_019)
    masks = [random_mask(rng, g) for _ in range(200)]
    assert _check_batch_c(g, []) == []
    _check_batch_c(g, masks[:1])
    _check_batch_c(g, masks)


def test_batch_c_holds_empty_rows():
    """Two disjoint trees: a mask that splits neither tree shares no latent,
    and its row stays empty beside a mask whose ``c`` is not."""
    g = graph_from_dict({
        "nodes": [{"id": v, "kind": k} for v, k in (("z1", "latent"), ("z2", "latent"), ("x1", "observable"),
                                                     ("x2", "observable"), ("x3", "observable"))],
        "edges": [["z1", "x1"], ["z1", "x2"], ["z2", "x3"]],
        "layout": ["x1", "x2", "x3"],
        "implicit_exogenous": True,
    })
    c = _check_batch_c(g, [Mask({"x3"}), Mask({"x1"}), Mask({"x1", "x2"})])
    assert c == [frozenset(), {"z1"}, frozenset()]


def test_locate_many_answers_each_mask_as_alone(fig2):
    rng = np.random.default_rng(20_261_021)
    masks = [random_mask(rng, fig2) for _ in range(20)]
    alone = [locate_shared_info(fig2, mask) for mask in masks]
    assert locate_many(fig2, masks) == alone
    assert locate_many(fig2, (mask for mask in masks)) == alone
    assert locate_many(fig2, []) == []


def test_locate_many_checks_every_mask_first(monkeypatch, fig4):
    searches = []
    monkeypatch.setattr(locate_module, "_locate_c_rows", lambda *args: searches.append(args))
    with pytest.raises(ValueError, match="mask names are not observables"):
        locate_many(fig4, [FIG4C_MASK, Mask({"z2"})])
    assert searches == []


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=100_000), st.integers(min_value=0, max_value=12))
def test_batch_c_matches_single_mask_search_on_random_graphs(seed, k_masks):
    rng = np.random.default_rng(seed)
    g = random_hierarchy(rng)
    _check_batch_c(g, [random_mask(rng, g) for _ in range(k_masks)])
