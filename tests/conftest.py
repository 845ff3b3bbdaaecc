import csv
import json
from collections import deque
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

import numpy as np
import pytest

from latentlab import LatentGraph, Mask, NodeKind, UnknownNodeError, fixture_path, graph_to_dict, load_graph


@pytest.fixture(scope="session")
def fig4():
    return load_graph(fixture_path("fig4"))


@pytest.fixture(scope="session")
def fig2():
    return load_graph(fixture_path("fig2"))


@pytest.fixture(scope="session")
def bench3():
    return load_graph(fixture_path("bench3"))


def random_hierarchy(
    rng: np.random.Generator,
    max_latents: int = 8,
    max_observables: int = 10,
    min_latents: int = 2,
) -> LatentGraph:
    """A random valid graph: latent-to-latent edges respect a fixed order,
    observables are sinks with 1-3 latent parents, one exogenous per node."""
    n_lat = int(rng.integers(min_latents, max_latents + 1))
    n_obs = int(rng.integers(2, max_observables + 1))
    latents = [f"z{i}" for i in range(1, n_lat + 1)]
    observables = [f"x{j}" for j in range(1, n_obs + 1)]
    edges = []
    for i in range(n_lat):
        for j in range(i + 1, n_lat):
            if rng.random() < 0.35:
                edges.append((latents[i], latents[j]))
    for obs in observables:
        k = int(rng.integers(1, min(3, n_lat) + 1))
        for z in rng.choice(latents, size=k, replace=False):
            edges.append((str(z), obs))
    nodes = [(z, "latent") for z in latents] + [(x, "observable") for x in observables]
    for v, _ in list(nodes):
        nodes.append((f"eps_{v}", "exogenous"))
        edges.append((f"eps_{v}", v))
    return LatentGraph(nodes, edges, observables)


def random_mask(rng: np.random.Generator, g: LatentGraph) -> Mask:
    n_obs = len(g.observables)
    k = int(rng.integers(1, n_obs))
    chosen = rng.choice(sorted(g.observables), size=k, replace=False)
    return Mask(str(v) for v in chosen)


def d_separated(g: LatentGraph, a: Iterable[str], b: Iterable[str], z: Iterable[str]) -> bool:
    """True iff every undirected path between ``a`` and ``b`` is blocked by
    ``z``: chains/forks block when their middle node is conditioned on,
    colliders block unless the collider or one of its descendants is.

    The three sets must be pairwise disjoint.  This Bayes-ball walk over
    ``parents``/``children`` is the naive reference that the bit-mask
    answers of ``latentlab.locate`` are checked against.
    """
    a, b, z = set(a), set(b), set(z)
    for v in a | b | z:
        if v not in g:
            raise UnknownNodeError(f"unknown node id {v!r}")
    if a & b or a & z or b & z:
        raise ValueError("d-separation requires pairwise disjoint node sets")
    if not a or not b:
        return True

    # Upward closure of z: nodes that are in z or have a descendant in z.
    z_up = set(z)
    queue = deque(z)
    while queue:
        v = queue.popleft()
        for p in g.parents(v):
            if p not in z_up:
                z_up.add(p)
                queue.append(p)

    # Walk active trails from `a`; a state is (node, direction of arrival).
    up, down = 0, 1
    visited: set[tuple[str, int]] = set()
    agenda: deque[tuple[str, int]] = deque((v, up) for v in a)
    while agenda:
        v, direction = agenda.popleft()
        if (v, direction) in visited:
            continue
        visited.add((v, direction))
        if v not in z and v in b:
            return False
        if direction == up and v not in z:
            for p in g.parents(v):
                agenda.append((p, up))
            for c in g.children(v):
                agenda.append((c, down))
        elif direction == down:
            if v not in z:
                for c in g.children(v):
                    agenda.append((c, down))
            if v in z_up:
                for p in g.parents(v):
                    agenda.append((p, up))
    return True


# -- reference graph checks and index ---------------------------------------
#
# The validation and bit index as first written, through the checked
# ``kind``/``parents``/``children`` accessors and one lookup per edge.  The
# package reads its own tables in one pass; tests compare the two.


def reference_violations(g: LatentGraph) -> tuple[str, ...]:
    """Every violation ``validate_graph`` must report, in its order."""
    violations: list[str] = []

    cycle = _reference_cycle(g)
    if cycle:
        violations.append("cycle: " + " -> ".join(cycle))

    for parent, child in sorted(g.edges):
        p_kind, c_kind = g.kind(parent), g.kind(child)
        if p_kind is NodeKind.OBSERVABLE and c_kind is NodeKind.OBSERVABLE:
            violations.append(f"edge between observables: {parent} -> {child}")
        elif p_kind is NodeKind.OBSERVABLE:
            violations.append(f"observable has out-edge: {parent} -> {child}")
        if c_kind is NodeKind.EXOGENOUS:
            violations.append(f"exogenous node has in-edge: {parent} -> {child}")

    for v in g.node_ids:
        kind = g.kind(v)
        if kind is NodeKind.EXOGENOUS:
            out = len(g.children(v))
            if out != 1:
                violations.append(f"exogenous node {v} has out-degree {out}, expected 1")
        else:
            exo_parents = [p for p in g.parents(v) if g.kind(p) is NodeKind.EXOGENOUS]
            if len(exo_parents) != 1:
                violations.append(
                    f"{kind.value} node {v} has {len(exo_parents)} exogenous parents, expected 1"
                )

    observables = set(g.observables)
    layout = list(g.layout)
    if len(set(layout)) != len(layout) or set(layout) != observables:
        violations.append(
            f"layout is not a permutation of the observables: layout={layout}, "
            f"observables={sorted(observables)}"
        )
    return tuple(violations)


def _reference_cycle(g: LatentGraph) -> list[str] | None:
    """The closed path ``a -> ... -> a`` found by walking up, smallest
    parent first, from the smallest node that Kahn's algorithm leaves over."""
    in_deg = {v: len(g.parents(v)) for v in g.node_ids}
    queue = deque(v for v, d in in_deg.items() if d == 0)
    while queue:
        v = queue.popleft()
        for c in g.children(v):
            in_deg[c] -= 1
            if in_deg[c] == 0:
                queue.append(c)
    left = {v for v, d in in_deg.items() if d > 0}
    if not left:
        return None
    walk = [min(left)]
    seen = {walk[0]: 0}
    while True:
        v = min(p for p in g.parents(walk[-1]) if p in left)
        if v in seen:
            return (walk[seen[v]:] + [v])[::-1]
        seen[v] = len(walk)
        walk.append(v)


def reference_index(g: LatentGraph) -> dict:
    """``ids``, ``parents``, ``ancestors``, ``level`` and ``dim`` that a valid
    graph's ``BitIndex`` must hold."""
    ids = g.topo_order()
    bit = {v: i for i, v in enumerate(ids)}
    parents: list[int] = []
    ancestors: list[int] = []
    observables = 0
    for i, v in enumerate(ids):
        own = up = 0
        for p in g.parents(v):
            own |= 1 << bit[p]
            up |= ancestors[bit[p]]
        parents.append(own)
        ancestors.append(up | own)
        if g.kind(v) is NodeKind.OBSERVABLE:
            observables |= 1 << i
    depth: list[int | None] = [None] * len(ids)
    for i in reversed(range(len(ids))):
        if observables >> i & 1:
            depth[i] = 0
            continue
        below = [depth[bit[c]] for c in g.children(ids[i])]
        below = [d for d in below if d is not None]
        depth[i] = 1 + max(below) if below else None
    dim: list[int] = []
    for i, v in enumerate(ids):
        if g.kind(v) is NodeKind.EXOGENOUS:
            dim.append(1)
        else:
            dim.append(sum(dim[j] for j in range(i) if parents[i] >> j & 1))
    return {"ids": ids, "parents": parents, "ancestors": ancestors,
            "level": tuple(d or 0 for d in depth), "dim": tuple(dim)}


# -- reference writers ----------------------------------------------------------
# The artifact writers as they stood before `latentlab.artifacts` took them
# over, kept so that tests can require byte-identical output from the same
# in-memory objects.


def reference_save_dataset(ds, basepath, seed=None, scm=None) -> dict[str, Path]:
    base = Path(basepath)
    base.parent.mkdir(parents=True, exist_ok=True)
    bin_path = base.with_suffix(".bin")
    bin_path.write_bytes(np.asfortranarray(ds.values).tobytes(order="F"))
    header = {
        "n": ds.n,
        "total_dim": int(ds.values.shape[1]),
        "dtype": "float64",
        "order": "F",
        "column_spans": {v: list(span) for v, span in sorted(ds.column_spans.items())},
        "layout": list(ds.layout),
        "seed": seed,
        "scm": None if scm is None else asdict(scm),
    }
    json_path = base.with_suffix(".json")
    json_path.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    written = {"bin": bin_path, "json": json_path}
    if ds.n <= 1000:
        csv_path = base.with_suffix(".csv")
        names = [
            f"{v}[{i}]"
            for v, (offset, length) in sorted(ds.column_spans.items(), key=lambda kv: kv[1][0])
            for i in range(length)
        ]
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            for row in ds.values:
                writer.writerow([repr(float(x)) for x in row])
        written["csv"] = csv_path
    return written


def reference_save_model(model, basepath) -> dict[str, Path]:
    base = Path(basepath)
    base.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "layout": list(model.layout),
        "widths": {v: model.widths[v] for v in model.layout},
        "d_c": model.d_c,
        "d_sm": model.d_sm,
        "hidden": list(model.encoder.widths[1:-1]),
        "slope": model.encoder.slope,
        "param_seed": model.param_seed,
        "n_params": int(model.flat.size),
        "dtype": "float32",
        "mask": None if model.mask is None else list(model.mask),
    }
    json_path = base.with_suffix(".json")
    json_path.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    bin_path = base.with_suffix(".bin")
    bin_path.write_bytes(model.flat.astype(np.float32, copy=False).tobytes())
    return {"json": json_path, "bin": bin_path}


def reference_save_loss_curve(curve: list[float], path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["epoch,loss"] + [f"{i},{value!r}" for i, value in enumerate(curve)]
    path.write_text("\n".join(lines) + "\n")
    return path


def reference_dump_json(data, path: Path | None) -> str:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return text


def reference_save_graph(g: LatentGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_dict(g), fh, indent=2, sort_keys=True)
        fh.write("\n")


def reference_write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    row_format = ",".join(["%s"] * len(header))
    lines = [",".join(header)]
    lines += [row_format % tuple(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def reference_append_summary(summary: Path, row: list) -> None:
    if not summary.exists():
        summary.write_text("graph,mask,n,r2_c_from_chat,r2_chat_from_c,r2_sm_from_chat,n_train,n_test\n")
    with open(summary, "a") as fh:
        fh.write(",".join(map(str, row)) + "\n")
