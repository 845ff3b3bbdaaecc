"""Hierarchical latent-variable DAGs with reachability queries, a bit index
and its 0/1 matrices.

A graph has three node kinds: latent variables, observable variables (the
"pixels"), and exogenous noise variables.  Observables are sinks, never
connected to each other, and every latent/observable has exactly one
exogenous parent.  The ``layout`` is the fixed pixel order used by mask
sampling.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from latentlab.artifacts import write_json

NodeId = str


class NodeKind(str, Enum):
    LATENT = "latent"
    OBSERVABLE = "observable"
    EXOGENOUS = "exogenous"


class UnknownNodeError(KeyError):
    """Raised when an operation references a node id not in the graph."""


@dataclass(frozen=True)
class Mask:
    """A subset of observable node ids designated as masked."""

    masked: frozenset[NodeId]

    def __init__(self, masked: Iterable[NodeId]):
        object.__setattr__(self, "masked", frozenset(masked))

    def check(self, observables: frozenset[NodeId]) -> None:
        """The one check of a mask over ``observables``: it refuses a mask
        that is empty, names an id that is not an observable, or names every
        observable."""
        if not self.masked:
            raise ValueError("mask is empty")
        if not self.masked <= observables:
            raise ValueError(f"mask names are not observables: {sorted(self.masked - observables)}")
        if self.masked == observables:
            raise ValueError("mask names every observable; at least one must stay visible")


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...] = ()


class LatentGraph:
    """Immutable DAG over latent, observable, and exogenous nodes.

    ``nodes`` is an ordered list of ``(id, kind)`` pairs, ``edges`` a
    collection of ``(parent, child)`` pairs, and ``layout`` the ordered list
    of observable ids.  Construction only requires edge endpoints to be
    declared nodes; all structural invariants (acyclicity, observables as
    sinks, exogenous wiring, layout permutation) are checked by
    :func:`validate_graph` and reported as data rather than raised, and
    :meth:`bit_index`, which every reader of the graph's index goes through,
    refuses a graph that breaks one.
    """

    def __init__(
        self,
        nodes: Iterable[tuple[NodeId, NodeKind | str]],
        edges: Iterable[tuple[NodeId, NodeId]],
        layout: Sequence[NodeId],
    ):
        kinds: dict[NodeId, NodeKind] = {}
        of_kind: dict[NodeKind, list[NodeId]] = {k: [] for k in NodeKind}
        for node_id, kind in nodes:
            if not node_id:
                raise ValueError("node ids must be non-empty strings")
            if node_id in kinds:
                raise ValueError(f"duplicate node id {node_id!r}")
            if type(kind) is not NodeKind:
                kind = NodeKind(kind)
            kinds[node_id] = kind
            of_kind[kind].append(node_id)
        edge_set: set[tuple[NodeId, NodeId]] = set()
        for parent, child in edges:
            for endpoint in (parent, child):
                if endpoint not in kinds:
                    raise UnknownNodeError(f"edge endpoint {endpoint!r} is not a declared node")
            edge_set.add((parent, child))
        # Lists, not sets: each distinct edge is added once.
        parent_map: dict[NodeId, list[NodeId]] = {v: [] for v in kinds}
        child_map: dict[NodeId, list[NodeId]] = {v: [] for v in kinds}
        for parent, child in edge_set:
            parent_map[child].append(parent)
            child_map[parent].append(child)
        self._kinds = kinds
        self._of_kind = {k: tuple(vs) for k, vs in of_kind.items()}
        self._observable_set = frozenset(self._of_kind[NodeKind.OBSERVABLE])
        self._parents = {v: frozenset(ps) for v, ps in parent_map.items()}
        self._children = {v: frozenset(cs) for v, cs in child_map.items()}
        self.edges = frozenset(edge_set)
        self.layout = tuple(layout)

    # -- basic queries ------------------------------------------------

    @property
    def node_ids(self) -> tuple[NodeId, ...]:
        return tuple(self._kinds)

    def __contains__(self, v: NodeId) -> bool:
        return v in self._kinds

    def kind(self, v: NodeId) -> NodeKind:
        self._require(v)
        return self._kinds[v]

    def nodes_of_kind(self, kind: NodeKind) -> tuple[NodeId, ...]:
        return self._of_kind[kind]

    @property
    def latents(self) -> tuple[NodeId, ...]:
        return self.nodes_of_kind(NodeKind.LATENT)

    @property
    def observables(self) -> tuple[NodeId, ...]:
        return self.nodes_of_kind(NodeKind.OBSERVABLE)

    @property
    def exogenous(self) -> tuple[NodeId, ...]:
        return self.nodes_of_kind(NodeKind.EXOGENOUS)

    def parents(self, v: NodeId) -> frozenset[NodeId]:
        """All parents of ``v``, including its exogenous parent."""
        self._require(v)
        return self._parents[v]

    def children(self, v: NodeId) -> frozenset[NodeId]:
        self._require(v)
        return self._children[v]

    def _require(self, v: NodeId) -> None:
        if v not in self._kinds:
            raise UnknownNodeError(f"unknown node id {v!r}")

    # -- reachability --------------------------------------------------

    def ancestors(self, v: NodeId) -> set[NodeId]:
        """Proper ancestors of ``v`` (``v`` excluded, exogenous included)."""
        self._require(v)
        return self._reach(v, self._parents)

    def descendants(self, v: NodeId) -> set[NodeId]:
        """Proper descendants of ``v`` (``v`` excluded)."""
        self._require(v)
        return self._reach(v, self._children)

    def ancestors_of_set(self, targets: Iterable[NodeId]) -> set[NodeId]:
        """Union of proper ancestors over ``targets`` (a target appears only
        if it is an ancestor of another target)."""
        targets = set(targets)
        for t in targets:
            self._require(t)
        seen: set[NodeId] = set()
        queue = deque(targets)
        while queue:
            v = queue.popleft()
            for p in self._parents[v]:
                if p not in seen:
                    seen.add(p)
                    queue.append(p)
        return seen

    def _reach(self, start: NodeId, step: Mapping[NodeId, frozenset[NodeId]]) -> set[NodeId]:
        seen: set[NodeId] = set()
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in step[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        seen.discard(start)
        return seen

    def is_ancestor_of_any(self, v: NodeId, targets: Iterable[NodeId]) -> bool:
        """True iff a directed path leads from ``v`` to some target (proper:
        a node does not count as its own ancestor)."""
        targets = set(targets)
        for t in targets:
            self._require(t)
        return bool(self.descendants(v) & targets)

    def directed_path_nodes(self, src: NodeId, targets: Iterable[NodeId]) -> set[NodeId]:
        """All nodes other than ``src`` lying on a directed path from ``src``
        to some target, targets themselves included when reached."""
        targets = set(targets)
        for t in targets:
            self._require(t)
        down = self.descendants(src)
        up = self.ancestors_of_set(targets)
        return down & (up | targets)

    # -- order and depth ------------------------------------------------

    def topo_order(self) -> tuple[NodeId, ...]:
        """Parents-before-children order (ties broken by node id).

        Raises ValueError when the edge relation has a cycle.
        """
        if len(self._kahn) != len(self._kinds):
            raise ValueError("graph has a cycle; no topological order exists")
        return self._kahn

    @cached_property
    def _kahn(self) -> tuple[NodeId, ...]:
        """Kahn's algorithm, smallest ready id first, run once per graph for
        both ``topo_order`` and validation.  On a cyclic graph the order
        stops short: the nodes left out are exactly those on a cycle or
        downstream of one."""
        in_deg = {v: len(self._parents[v]) for v in self._kinds}
        ready = [v for v, d in in_deg.items() if d == 0]
        heapq.heapify(ready)
        order: list[NodeId] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for c in self._children[v]:
                in_deg[c] -= 1
                if in_deg[c] == 0:
                    heapq.heappush(ready, c)
        return tuple(order)

    def topo_depth(self, v: NodeId) -> int:
        """Level of a latent: length of its longest directed path down to an
        observable.  A latent whose children are all observables has level 1.
        """
        if self.kind(v) is not NodeKind.LATENT:
            raise ValueError(f"topo_depth is defined for latent nodes, got {v!r}")
        idx = self.bit_index()
        return idx.level[idx.bit[v]]

    def bit_index(self) -> "BitIndex":
        """The graph's nodes interned to bit positions, built on first use.
        Raises ValueError naming every violation on a graph that
        :func:`validate_graph` refuses."""
        return self._bit_index

    @cached_property
    def _report(self) -> ValidationReport:
        return _check_invariants(self)

    @cached_property
    def _bit_index(self) -> "BitIndex":
        if not self._report.ok:
            raise ValueError("invalid graph: " + "; ".join(self._report.violations))
        return BitIndex(self)

    def __repr__(self) -> str:
        return (
            f"LatentGraph(latents={len(self.latents)}, observables={len(self.observables)}, "
            f"exogenous={len(self.exogenous)}, edges={len(self.edges)})"
        )


class BitIndex:
    """Node sets of one valid graph as Python ints, one bit per node.

    Bit ``i`` stands for ``ids[i]``; positions follow the topological order,
    so every parent sits on a lower bit than its children.  ``parents[i]``
    and ``ancestors[i]`` are the masks of node ``i``'s parents and of its
    proper ancestors; ``exogenous``, ``latents`` and ``observables`` mask
    the nodes of each kind.  ``level[i]`` is the length of node ``i``'s
    longest directed path down to an observable (0 where there is none), and
    ``dim[i]`` its dimension under unit noise widths.  ``matrices`` holds the
    tables as 0/1 matrices; it and ``dim`` are built on first use.
    """

    def __init__(self, g: LatentGraph):
        # One pass in topological order over the graph's own tables, whose
        # ids the validation behind ``bit_index`` has already checked.
        ids = self.ids = g.topo_order()
        bit = self.bit = {v: i for i, v in enumerate(ids)}
        kinds, parents_of, children_of = g._kinds, g._parents, g._children
        self.parents: list[int] = []
        self.ancestors: list[int] = []
        kind_masks = dict.fromkeys(NodeKind, 0)
        for i, v in enumerate(ids):
            parents = ancestors = 0
            for p in parents_of[v]:
                j = bit[p]
                parents |= 1 << j
                ancestors |= self.ancestors[j]
            self.parents.append(parents)
            self.ancestors.append(ancestors | parents)
            kind_masks[kinds[v]] |= 1 << i
        self.exogenous = kind_masks[NodeKind.EXOGENOUS]
        self.latents = kind_masks[NodeKind.LATENT]
        self.observables = kind_masks[NodeKind.OBSERVABLE]
        # Children come after their parents, so one backward pass settles
        # every level; None marks nodes with no directed path to an observable.
        depth: list[int | None] = [None] * len(ids)
        for i in reversed(range(len(ids))):
            if self.observables >> i & 1:
                depth[i] = 0
                continue
            below = [depth[bit[c]] for c in children_of[ids[i]]]
            below = [d for d in below if d is not None]
            depth[i] = 1 + max(below) if below else None
        self.level: tuple[int, ...] = tuple(d or 0 for d in depth)

    @cached_property
    def dim(self) -> tuple[int, ...]:
        return tuple(self.dims())

    @cached_property
    def matrices(self) -> "BitMatrices":
        return BitMatrices(self)

    def dims(self, exo_dims: Mapping[NodeId, int] | None = None) -> list[int]:
        """Dimension of every node by bit, under the additive rule of
        :func:`derive_dims`; an ``exo_dims`` key that is not an exogenous
        node is refused."""
        exo_dims = exo_dims or {}
        stray = sorted(set(exo_dims) - self.decode(self.exogenous))
        if stray:
            raise ValueError(f"exo_dims entry {stray[0]!r} is not an exogenous node")
        dims: list[int] = []
        for i, v in enumerate(self.ids):
            if self.exogenous >> i & 1:
                d = int(exo_dims.get(v, 1))
                if d <= 0:
                    raise ValueError(f"exogenous dimension for {v} must be positive, got {d}")
            else:
                d = sum(dims[j] for j in self.positions(self.parents[i]))
            dims.append(d)
        return dims

    def encode(self, nodes: Iterable[NodeId]) -> int:
        mask = 0
        for v in nodes:
            i = self.bit.get(v)
            if i is None:
                raise UnknownNodeError(f"unknown node id {v!r}")
            mask |= 1 << i
        return mask

    def decode(self, mask: int) -> set[NodeId]:
        ids = self.ids
        return {ids[i] for i in self.positions(mask)}

    @staticmethod
    def positions(mask: int) -> list[int]:
        """The set bits of ``mask``, lowest first."""
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def ancestors_or_self(self, members: int) -> int:
        """``members`` with every ancestor of a member; the exogenous
        members, the graph's roots, add none."""
        out, rest = members, members & ~self.exogenous
        while rest:
            low = rest & -rest
            out |= self.ancestors[low.bit_length() - 1]
            rest ^= low
        return out


class BitMatrices:
    """A bit index's ``parents`` and ``ancestors`` tables as dense 0/1
    matrices over the latent columns, the only nodes a walk up past the
    observables reaches: entry ``(i, j)`` says whether ``latents[j]`` is in
    node ``i``'s set, so the product of a K x n 0/1 matrix of node sets with
    one, compared ``> 0``, holds each set's union among the latents.  The
    entries are float32 so the products run in BLAS; each sum counts at most
    n ones, exact in float32 in any order, so no rounding and no thread count
    can change a comparison.  ``latent_parents`` and ``latent_ancestors`` are
    their latent rows.  ``observables`` is the boolean row of the observable
    bits; ``noise`` lists the exogenous positions and ``noise_child`` the one
    child of each; ``ids`` holds the node ids by position."""

    def __init__(self, idx: BitIndex):
        n = len(idx.ids)
        parents = _bool_rows(idx.parents, n)
        self.observables, latents, exogenous = _bool_rows([idx.observables, idx.latents, idx.exogenous], n)
        self.ids = np.array(idx.ids, dtype=object)
        self.latents = np.flatnonzero(latents)
        self.noise = np.flatnonzero(exogenous)
        self.noise_child = np.arange(n) @ parents[:, self.noise]  # one True per column
        self.parents = parents[:, self.latents].astype(np.float32)
        self.ancestors = _bool_rows(idx.ancestors, n)[:, self.latents].astype(np.float32)
        self.latent_parents = self.parents[self.latents]
        self.latent_ancestors = self.ancestors[self.latents]


def _bool_rows(masks: Sequence[int], n: int) -> np.ndarray:
    """The K x n boolean matrix whose row k holds the n low bits of ``masks[k]``."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    return np.unpackbits(raw.reshape(len(masks), width), axis=1, count=n, bitorder="little").astype(bool)


# -- validation ----------------------------------------------------------


def validate_graph(g: LatentGraph) -> ValidationReport:
    """Check every structural invariant; violations are returned, not raised.
    The report is kept on the (immutable) graph, so later calls are free."""
    return g._report


def _check_invariants(g: LatentGraph) -> ValidationReport:
    """Every violation, in a fixed order: a cycle, then the bad edges in
    sorted order, then the nodes with the wrong exogenous wiring in node
    order, then the layout.  It reads the graph's own tables, whose ids are
    all declared nodes."""
    kinds, parents_of, children_of = g._kinds, g._parents, g._children
    observables, exogenous = g.observables, g.exogenous
    violations: list[str] = []

    cycle = _find_cycle(g)
    if cycle:
        violations.append("cycle: " + " -> ".join(cycle))

    # An edge breaks a rule only when it leaves an observable or enters an
    # exogenous node, so only those edges are gathered and sorted.
    bad_edges = {(v, c) for v in observables for c in children_of[v]}
    bad_edges.update((p, v) for v in exogenous for p in parents_of[v])
    for parent, child in sorted(bad_edges):
        p_kind, c_kind = kinds[parent], kinds[child]
        if p_kind is NodeKind.OBSERVABLE and c_kind is NodeKind.OBSERVABLE:
            violations.append(f"edge between observables: {parent} -> {child}")
        elif p_kind is NodeKind.OBSERVABLE:
            violations.append(f"observable has out-edge: {parent} -> {child}")
        if c_kind is NodeKind.EXOGENOUS:
            violations.append(f"exogenous node has in-edge: {parent} -> {child}")

    exogenous_set = frozenset(exogenous)
    for v, kind in kinds.items():
        if kind is NodeKind.EXOGENOUS:
            out = len(children_of[v])
            if out != 1:
                violations.append(f"exogenous node {v} has out-degree {out}, expected 1")
        else:
            exo_parents = len(parents_of[v] & exogenous_set)
            if exo_parents != 1:
                violations.append(f"{kind.value} node {v} has {exo_parents} exogenous parents, expected 1")

    layout = list(g.layout)
    if len(set(layout)) != len(layout) or set(layout) != g._observable_set:
        violations.append(
            f"layout is not a permutation of the observables: layout={layout}, "
            f"observables={sorted(observables)}"
        )

    return ValidationReport(ok=not violations, violations=tuple(violations))


def _find_cycle(g: LatentGraph) -> list[NodeId] | None:
    """One cycle as a closed path ``a -> ... -> a``, or None.  Every node
    Kahn's algorithm leaves over has a parent that is left over too, so
    walking up from one of them must come back to a node already seen."""
    if len(g._kahn) == len(g._kinds):
        return None
    left = set(g._kinds).difference(g._kahn)
    walk = [min(left)]
    seen = {walk[0]: 0}
    while True:
        v = min(p for p in g._parents[walk[-1]] if p in left)
        if v in seen:
            cycle = walk[seen[v]:] + [v]
            return cycle[::-1]
        seen[v] = len(walk)
        walk.append(v)


# -- dimensions -------------------------------------------------------------


def derive_dims(g: LatentGraph, exo_dims: Mapping[NodeId, int] | None = None) -> dict[NodeId, int]:
    """Dimension of every node under the additive rule: exogenous nodes get
    their assigned width (1 unless ``exo_dims`` sets it; a key that is not
    an exogenous node is refused), every other node the sum of its parents'
    widths.  Unit widths are read from the index's ``dim``, so they are
    derived once per graph."""
    idx = g.bit_index()
    return dict(zip(idx.ids, idx.dims(exo_dims) if exo_dims else idx.dim))


# -- file format -------------------------------------------------------------

EXOGENOUS_PREFIX = "eps_"
_KINDS = {kind.value: kind for kind in NodeKind}


def _edge(entry) -> tuple[NodeId, NodeId]:
    parent, child = entry
    return str(parent), str(child)


def _entries(data: Mapping, field: str, read, form: str) -> list:
    """``read`` of each entry of ``data[field]``; a field that is missing or
    not a list, or an entry that ``read`` refuses, is a ``ValueError``
    naming it and the ``form`` an entry must have."""
    if field not in data:
        raise ValueError(f"its {field!r} field is missing")
    try:
        entries = list(data[field])
    except TypeError:
        raise ValueError(f"its {field!r} field must be a list, got {data[field]!r}") from None
    read_entries = []
    for i, entry in enumerate(entries):
        try:
            read_entries.append(read(entry))
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"its {field!r} entry {i} must be {form}, got {entry!r}") from None
    return read_entries


def graph_from_dict(data: Mapping) -> LatentGraph:
    """Build a graph from its dict form.  With ``implicit_exogenous`` set,
    every latent/observable lacking an exogenous parent gets a synthetic
    ``eps_<id>`` parent node.  Data of another form is a ``ValueError``
    naming the field or entry at fault."""
    if not isinstance(data, Mapping):
        raise ValueError(f"a graph must be an object, got {data!r}")
    nodes = _entries(data, "nodes", lambda n: (str(n["id"]), _KINDS[str(n["kind"]).lower()]),
                     "an object with an 'id' and a 'kind' (latent, observable, exogenous)")
    edges = _entries(data, "edges", _edge, "a [parent, child] pair")
    layout = _entries({"layout": [], **data}, "layout", str, "an id")
    if data.get("implicit_exogenous", False):
        kinds = dict(nodes)
        with_exo = {
            c for p, c in edges if kinds.get(p) is NodeKind.EXOGENOUS
        }
        for node_id, kind in list(nodes):
            if kind is NodeKind.EXOGENOUS or node_id in with_exo:
                continue
            eps = EXOGENOUS_PREFIX + node_id
            if eps in kinds:
                raise ValueError(f"synthetic exogenous id {eps!r} collides with a declared node")
            nodes.append((eps, NodeKind.EXOGENOUS))
            edges.append((eps, node_id))
    return LatentGraph(nodes, edges, layout)


def graph_to_dict(g: LatentGraph) -> dict:
    return {
        "nodes": [{"id": v, "kind": g.kind(v).value} for v in g.node_ids],
        "edges": [[p, c] for p, c in sorted(g.edges)],
        "layout": list(g.layout),
        "implicit_exogenous": False,
    }


def load_graph(path: str | Path) -> LatentGraph:
    """The graph in a UTF-8 JSON file; a file that does not hold a graph's
    dict form is a ``ValueError`` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return graph_from_dict(json.load(fh))
        except UnicodeDecodeError:
            raise ValueError(f"{path} is not UTF-8 text") from None
        except (KeyError, ValueError) as exc:  # an edge to an undeclared node is a KeyError
            raise ValueError(f"{path}: {exc.args[0]}") from None


def save_graph(g: LatentGraph, path: str | Path) -> None:
    write_json(graph_to_dict(g), Path(path))
