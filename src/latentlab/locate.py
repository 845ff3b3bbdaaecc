"""Locating the latent information shared across a mask.

For a mask over the observables, the shared set ``c`` is the minimal set of
latent variables carrying all statistical dependence between the masked and
visible parts.  ``locate_many`` finds it for a batch of masks, and
``locate_shared_info`` for one, by backtracking from the masked observables
and pruning, one search for every caller: ``_locate_c_rows`` runs it for all
the masks at once as 0/1 matrix products, observable columns in (one per
layout position) and latent columns out.  ``_locate_rows`` takes and gives
K x nodes matrices: it adds each mask's masked-side noise ``s_m`` and
visible-side remainder ``s_mc``, the latter from a second batched walk, up
from the visible observables to the children of ``c``.
``brute_force_minimal_c`` is an independent oracle, an exact branch and
bound over the latents among the mask's ancestors for the cheapest set
whose ancestors hold every exogenous node above both sides of the mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from latentlab.graph import BitIndex, BitMatrices, LatentGraph, Mask, NodeId, _bool_rows

# Largest latent count the exhaustive oracle accepts.  Its branch and bound
# is still exponential in the worst case: at 24 latents, the slowest of 400
# seeded masks on random hierarchies took 10.3 ms.
ORACLE_MAX_LATENTS = 24


@dataclass(frozen=True)
class SharedInfo:
    """The located triple for one mask: shared latents ``c``, masked-side
    noise ``s_m`` (exogenous only), and a visible-side remainder ``s_mc``
    (exogenous members plus latent spouses of ``c``)."""

    c: frozenset[NodeId]
    s_m: frozenset[NodeId]
    s_mc: frozenset[NodeId]
    mask: Mask

    def __post_init__(self):
        if self.c & self.s_m or self.c & self.s_mc or self.s_m & self.s_mc:
            raise ValueError("c, s_m, s_mc must be pairwise disjoint")


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the structural checks for one (mask, SharedInfo) pair."""

    invertible_masked: bool
    invertible_visible: bool
    recoverable_from_masked: bool
    independence_ok: bool
    total_dim_c: int
    minimal_ok: bool | None = None
    witnesses: tuple[str, ...] = ()

    @property
    def all_ok(self) -> bool:
        flags = (
            self.invertible_masked,
            self.invertible_visible,
            self.recoverable_from_masked,
            self.independence_ok,
        )
        return all(flags) and self.minimal_ok is not False


@dataclass(frozen=True)
class OracleResult:
    """Minimal shared set found by exhaustive search.  ``ties`` lists any
    other latent subsets of equal total dimension that also satisfy all
    conditions; an empty tuple means the minimum is unique."""

    c: frozenset[NodeId]
    s_m: frozenset[NodeId]
    total_dim: int
    ties: tuple[frozenset[NodeId], ...] = ()


def _split_mask(g: LatentGraph, mask: Mask) -> tuple[BitIndex, int, int]:
    """The graph's bit index, with the masked and the visible observables as
    bit masks, after ``Mask.check`` against the graph's observables."""
    idx = g.bit_index()
    mask.check(g._observable_set)
    masked_bits = idx.encode(mask.masked)
    return idx, masked_bits, idx.observables & ~masked_bits


def _walk_up(mats: BitMatrices, above: np.ndarray, halts: np.ndarray) -> np.ndarray:
    """The K x L boolean matrix of the latents each row reaches walking up
    from its start nodes, given ``above``, the K x L matrix of their latent
    parents: every latent in ``above`` and every latent parent of a reached
    latent outside the row's ``halts`` (K x L).  The rows walk in lock step,
    one level per product, until every frontier is empty."""
    reached = np.zeros_like(above)
    while above.any():
        frontier = above & ~reached
        reached |= frontier
        above = (frontier & ~halts) @ mats.latent_parents > 0
    return reached


def _locate_c_rows(mats: BitMatrices, masked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``c`` search of ``locate_shared_info`` for a batch of masks: from
    the K x layout boolean matrix of each mask's masked observables, one
    column per layout position and each row with some observable left
    visible, to the K x L boolean matrices of each mask's ``c`` and of the
    latents walked through.  The walk up from the masked observables halts
    at the latents that reach a visible observable, the candidates; pruning
    is one more product."""
    reaches_visible = ~masked @ mats.layout_ancestors > 0
    reached = _walk_up(mats, masked @ mats.layout_parents > 0, reaches_visible)
    candidates = reached & reaches_visible
    # Every candidate lies upstream of the visible side, so another candidate
    # on one of d's paths there is simply a candidate below d.
    return candidates & ~(candidates @ mats.latent_ancestors > 0), reached & ~reaches_visible


def _noise(mats: BitMatrices, nodes: np.ndarray) -> np.ndarray:
    """The K x n boolean matrix of the exogenous parents of each row's
    ``nodes``, gathered from each exogenous node's one child."""
    noise = np.zeros_like(nodes)
    noise[:, mats.noise] = nodes.take(mats.noise_child, axis=1)
    return noise


def _locate_rows(mats: BitMatrices, masked: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``c``, ``s_m`` and ``s_mc`` of a batch of masks as K x n boolean
    matrices, from the K x n boolean matrix of each mask's masked
    observables, whose layout columns ``_locate_c_rows`` searches.  ``s_m``
    is the noise of the masked observables and of the latents walked
    through.  ``s_mc`` comes from a walk up from the visible observables that
    halts at each node with a parent in ``c``: it is the noise of the visible
    observables and of the latents walked through, plus the latent parents
    outside ``c`` of the nodes where the walk halted."""
    c_latents, walked = _locate_c_rows(mats, masked[:, mats.layout])
    masked_side = masked.copy()
    masked_side[:, mats.latents] = walked
    visible = mats.observables & ~masked
    halts = c_latents @ mats.parents.T > 0
    visible_side = visible.copy()
    above = (visible & ~halts) @ mats.parents > 0
    visible_side[:, mats.latents] = _walk_up(mats, above, halts[:, mats.latents])
    s_mc = _noise(mats, visible_side)
    s_mc[:, mats.latents] = ((visible_side & halts) @ mats.parents > 0) & ~c_latents
    c = np.zeros_like(masked)
    c[:, mats.latents] = c_latents
    return c, _noise(mats, masked_side), s_mc


def locate_shared_info(g: LatentGraph, mask: Mask) -> SharedInfo:
    """Find the shared latent set ``c``, the masked-side noise ``s_m`` and
    a visible-side remainder ``s_mc``, and bundle the triple with its mask:
    ``locate_many`` on one mask.

    Selection walks up from every masked observable: exogenous parents are
    collected into ``s_m``, latent parents that can reach a visible
    observable join the candidate set, and everything else is backtracked
    further.  Pruning then drops any candidate with another pre-pruning
    candidate on one of its directed paths to the visible side.  ``s_mc``
    backtracks from every visible observable: a node with a parent in ``c``
    contributes all its non-``c`` parents (the spouses, plus its own noise)
    and those are not backtracked further; otherwise exogenous parents are
    collected and latent parents backtracked.  Every stage is
    order-independent.  ``s_mc`` is not unique in general; this returns the
    one induced by that reading.
    """
    return locate_many(g, [mask])[0]


def locate_many(g: LatentGraph, masks: Iterable[Mask]) -> list[SharedInfo]:
    """``locate_shared_info`` on each mask, all checked first, then answered in one batch."""
    masks = list(masks)
    masked = [_split_mask(g, mask)[1] for mask in masks]
    mats = g.bit_index().matrices
    return [SharedInfo(c=frozenset(mats.ids[c]), s_m=frozenset(mats.ids[s_m]),
                       s_mc=frozenset(mats.ids[s_mc]), mask=mask)
            for mask, c, s_m, s_mc in zip(masks, *_locate_rows(mats, _bool_rows(masked, len(mats.ids))))]


def _undetermined(idx: BitIndex, targets: int, known: int) -> int:
    """The ``targets`` that the values of the ``known`` nodes leave
    undetermined, on bit masks.  Knowing a node reveals its parents (each
    generating step is invertible), and knowing all of a node's parents
    reveals the node.  In a valid graph the roots are exactly the exogenous
    nodes, so a node is determined exactly when every exogenous node among
    its ancestors-or-self lies in ``anc(known)``, the known set's
    ancestor-or-self set."""
    missing = idx.exogenous & ~idx.ancestors_or_self(known)
    return sum(1 << i for i in idx.positions(targets) if (idx.ancestors[i] | 1 << i) & missing)


def verify_conditions(
    g: LatentGraph,
    mask: Mask,
    info: SharedInfo,
    dims: Mapping[NodeId, int] | None = None,
) -> ConditionReport:
    """Check the four structural conditions on a triple, plus minimality
    against the exhaustive oracle when a dimension map is supplied.

    Condition failures are reported as witnesses, not raised.  The mask
    must split the observables (ValueError otherwise).
    """
    idx, masked, visible = _split_mask(g, mask)
    c, s_m, s_mc = idx.encode(info.c), idx.encode(info.s_m), idx.encode(info.s_mc)
    witnesses: list[str] = []

    if c & ~idx.latents:
        witnesses.append(f"c contains non-latent nodes: {sorted(idx.decode(c & ~idx.latents))}")
    if s_m & ~idx.exogenous:
        witnesses.append(f"s_m contains non-exogenous nodes: {sorted(idx.decode(s_m & ~idx.exogenous))}")

    undetermined = _undetermined(idx, masked, c | s_m)
    invertible_masked = not undetermined
    if undetermined:
        witnesses.append(
            f"masked observables not determined by c + s_m: {sorted(idx.decode(undetermined))}"
        )

    undetermined = _undetermined(idx, visible, c | s_mc)
    invertible_visible = not undetermined
    if undetermined:
        witnesses.append(
            f"visible observables not determined by c + s_mc: {sorted(idx.decode(undetermined))}"
        )

    # The masked observables determine their ancestor-or-self set and no more
    # (see brute_force_minimal_c).
    unrecovered = (c | s_m) & ~idx.ancestors_or_self(masked)
    recoverable = not unrecovered
    if unrecovered:
        witnesses.append(
            "c + s_m not recoverable from the masked observables: "
            f"{sorted(idx.decode(unrecovered))}"
        )

    # SharedInfo keeps s_m apart from c + s_mc.  Given the empty set only
    # colliders block a trail, so two disjoint sets are d-separated exactly
    # when they share no ancestor-or-self.
    independence_ok = not (idx.ancestors_or_self(s_m) & idx.ancestors_or_self(c | s_mc))
    if not independence_ok:
        witnesses.append("s_m is d-connected to c + s_mc given the empty set")

    if dims is None:
        total_dim_c = sum(idx.dim[i] for i in idx.positions(c))
    else:
        total_dim_c = sum(dims[v] for v in info.c)

    minimal_ok: bool | None = None
    if dims is not None:
        oracle = brute_force_minimal_c(g, mask, dims)
        minimal_ok = total_dim_c == oracle.total_dim
        if not minimal_ok:
            witnesses.append(
                f"c has total dimension {total_dim_c}, minimum is {oracle.total_dim} "
                f"(achieved by {sorted(oracle.c)})"
            )

    return ConditionReport(
        invertible_masked=invertible_masked,
        invertible_visible=invertible_visible,
        recoverable_from_masked=recoverable,
        independence_ok=independence_ok,
        total_dim_c=total_dim_c,
        minimal_ok=minimal_ok,
        witnesses=tuple(witnesses),
    )


def _oracle_latents(g: LatentGraph) -> list[NodeId]:
    """The sorted latents the oracle searches, refused above ``ORACLE_MAX_LATENTS``."""
    if len(g.latents) > ORACLE_MAX_LATENTS:
        raise ValueError(f"graph has {len(g.latents)} latents, above the exhaustive-search cap {ORACLE_MAX_LATENTS}")
    return sorted(g.latents)


def brute_force_minimal_c(g: LatentGraph, mask: Mask, dims: Mapping[NodeId, int]) -> OracleResult:
    """Exhaustive search for the minimal shared set, independent of the
    backtracking algorithm.

    A latent set ``C'`` is feasible when, with the masked-side noise forced
    to ``S' = E - closure(C')`` (``E``: the exogenous ancestors of the mask),
    the mask is determined by ``C' + S'``, the pair is recoverable from the
    mask (lies in ``closure(mask)``), and ``S'`` is d-separated from
    ``C' + visible``.  The result's ``c`` is the feasible set of minimum
    total dimension whose sorted members come first lexicographically, and
    ``ties`` lists every other feasible set of that total, in the same
    order.  Latent dimensions must be non-negative, and a graph with more
    than ``ORACLE_MAX_LATENTS`` latents is refused.

    By the rule of ``_undetermined``, ``closure(mask)`` is ``anc(mask)``,
    the mask's ancestor-or-self set: a node outside it has its exogenous
    parent, which has no other child, outside it too.  ``C' + E`` always
    determines the mask, as ``E`` holds every exogenous node above it, and
    an exogenous node is determined only inside ``anc(C')``, so
    ``S' = E - anc(C')``.  The tests thus reduce to ``C' <= anc(mask)`` and,
    as ``S'`` are roots, ``E & anc(visible) <= anc(C')``: the search is a
    weighted cover of those needed nodes by latents in ``anc(mask)``.  It is
    an exact depth-first branch and bound: a branch is dropped once adding
    every latent still undecided would not cover them, or once its total
    plus a lower bound on what it still needs passes the best found.  The
    bound: each needed node outside ``anc(C')`` costs at least the least
    dimension among the undecided latents above it, and the largest of
    these costs is still to be paid.
    """
    idx, masked_bits, visible_bits = _split_mask(g, mask)
    latents = _oracle_latents(g)
    if any(dims[v] < 0 for v in latents):
        raise ValueError("latent dimensions must be non-negative")

    mask_anc = idx.ancestors_or_self(masked_bits)
    exo = mask_anc & idx.exogenous
    # The exogenous nodes above both sides, which anc(C') must hold.
    needed = exo & idx.ancestors_or_self(visible_bits)
    pool = [v for v in latents if mask_anc >> idx.bit[v] & 1]
    weight = [dims[v] for v in pool]
    up = [idx.ancestors[b] | 1 << b for b in (idx.bit[v] for v in pool)]
    # skip[i]: the needed nodes that pool[i + 1:] cannot cover, so pool[i]
    # must be taken unless anc holds them.  bound[i]: the needed nodes that
    # pool[i:] covers, grouped by the least weight above them in pool[i:] as
    # (weight, nodes), largest weight first.  bound[i] is bound[i + 1] with
    # the needed nodes of up[i] whose least weight was above weight[i], and
    # those not yet covered, moved into weight[i]'s group.
    n = len(pool)
    skip = [0] * n
    bound: list[list[tuple[int, int]]] = [[]] * (n + 1)
    covered = 0  # the ancestor-or-self mask of pool[i + 1:]
    for i in reversed(range(n)):
        w, here, later = weight[i], needed & up[i], bound[i + 1]
        skip[i] = needed & ~covered
        covered |= up[i]
        moved, groups, k = here & skip[i], [], 0
        for v, nodes in later:
            if v < w:
                break
            k += 1
            if v == w:
                moved |= nodes
                break
            moved |= nodes & here
            if nodes & ~here:
                groups.append((v, nodes & ~here))
        if moved:
            groups.append((w, moved))
        bound[i] = groups + later[k:]

    best: int | None = None
    found: list[tuple[int, ...]] = []

    def search(i: int, members: tuple[int, ...], total: int, anc: int) -> None:
        # pool[i:] covers every needed node outside anc.
        nonlocal best, found
        if best is not None:
            still = 0
            for w, nodes in bound[i]:
                if nodes & ~anc:
                    still = w
                    break
            if total + still > best:
                return
        if i == n:
            if best is None or total < best:
                best, found = total, []
            found.append(members)
            return
        if not skip[i] & ~anc:
            search(i + 1, members, total, anc)
        search(i + 1, members + (i,), total + weight[i], anc | up[i])

    if needed & ~covered:
        raise RuntimeError("exhaustive search found no satisfying subset; graph invariants violated")
    search(0, (), 0, 0)
    found.sort()
    c, *ties = (frozenset(pool[i] for i in members) for members in found)
    s_m = exo & ~idx.ancestors_or_self(idx.encode(c))
    return OracleResult(c=c, s_m=frozenset(idx.decode(s_m)), total_dim=best, ties=tuple(ties))
