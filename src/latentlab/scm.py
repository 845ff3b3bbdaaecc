"""Concrete invertible simulator over a latent graph.

Every latent and observable node gets a bijective mixing function (stacked
orthogonal-linear layers with a leaky elementwise nonlinearity) applied to
the concatenation of its parent values; exogenous nodes carry i.i.d. standard
normal noise.  Dimensions follow the additive rule: a node is as wide as its
parents combined, so each mixing function is square and exactly invertible.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from latentlab.artifacts import DATASET_FIELDS, read_array, read_header, write_artifact
from latentlab.graph import LatentGraph, NodeId, derive_dims
from latentlab.locate import SharedInfo

# Largest number of mixing weights, layers x the sum of dim^2 over the latent
# and observable nodes, that build_scm draws; the fig2 fixture, the widest at
# unit noise, needs 3,892 a layer.
MAX_SCM_WEIGHTS = 10**8
# Largest dataset, n x the total width x 8 bytes, that sample allocates; the
# acceptance run's 20,000 rows would take 4e7 on bench3, the widest fixture at
# unit noise (width 250).
MAX_DATASET_BYTES = 10**9


def _node_stream(seed: int, node_id: NodeId, purpose: int) -> np.random.Generator:
    # Stream depends on (seed, node id, purpose) only, never on iteration order.
    digest = hashlib.blake2b(node_id.encode("utf-8"), digest_size=8).digest()
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), purpose, int.from_bytes(digest, "big")])
    )


def _random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _leaky(x: np.ndarray, slope: float) -> np.ndarray:
    return np.where(x >= 0, x, slope * x)


def _leaky_inv(y: np.ndarray, slope: float) -> np.ndarray:
    return np.where(y >= 0, y, y / slope)


@dataclass(frozen=True)
class MixingFunction:
    """Bijection ``concat(parent blocks) -> node value``.

    Each layer applies a square orthogonal matrix, adds the bias, and passes
    the result through a leaky elementwise nonlinearity with slope in (0, 1].
    Parent blocks are concatenated with non-exogenous parents sorted by id
    and the exogenous parent last.
    """

    input_order: tuple[NodeId, ...]
    block_sizes: tuple[int, ...]
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    slope: float

    def __post_init__(self):
        if not 0.0 < self.slope <= 1.0:
            raise ValueError(f"slope must be in (0, 1], got {self.slope}")

    @property
    def dim(self) -> int:
        return int(sum(self.block_sizes))

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected input width {self.dim}, got {x.shape[-1]}")
        for w, b in zip(self.weights, self.biases):
            x = _leaky(x @ w.T + b, self.slope)
        return x

    def inverse(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != self.dim:
            raise ValueError(f"expected value width {self.dim}, got {y.shape[-1]}")
        for w, b in zip(reversed(self.weights), reversed(self.biases)):
            y = (_leaky_inv(y, self.slope) - b) @ w
        return y

    def split(self, x: np.ndarray) -> dict[NodeId, np.ndarray]:
        """Break a concatenated input back into per-parent blocks."""
        out: dict[NodeId, np.ndarray] = {}
        offset = 0
        for parent, size in zip(self.input_order, self.block_sizes):
            out[parent] = x[..., offset:offset + size]
            offset += size
        return out

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Forward Jacobian at a single input point."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a point of shape ({self.dim},), got {x.shape}")
        jac = np.eye(self.dim)
        for w, b in zip(self.weights, self.biases):
            pre = x @ w.T + b
            scale = np.where(pre >= 0, 1.0, self.slope)
            jac = (scale[:, None] * w) @ jac
            x = _leaky(pre, self.slope)
        return jac


@dataclass(frozen=True)
class ScmSettings:
    """The simulator's settings, the config's ``scm`` section: ``build_scm``'s
    arguments besides the graph, as ``dataset.json`` records them.  An empty
    ``exo_dims`` is kept as None."""

    exo_dims: dict[NodeId, int] | None = field(
        default=None, metadata={"kind": "an object", "entries": "a positive integer"})
    layers: int = field(default=2, metadata={"kind": "a positive integer"})
    alpha: float = field(default=0.2, metadata={"kind": "a number in (0, 1]"})
    seed: int = 0
    bias: bool = False

    def __post_init__(self):
        object.__setattr__(self, "exo_dims", self.exo_dims or None)


@dataclass(frozen=True)
class ScmSpec:
    """A graph with node dimensions and one mixing function per non-exogenous
    node, ``mixers`` in the graph's topological order; immutable and fully
    determined by its build arguments."""

    graph: LatentGraph
    dims: dict[NodeId, int]
    mixers: dict[NodeId, MixingFunction]
    settings: ScmSettings


@dataclass(frozen=True)
class Dataset:
    """Samples over every node coordinate: ``values`` is ``n`` rows by the
    total width, ``column_spans`` maps each node to its (offset, length),
    and ``layout`` records the observable order used downstream."""

    values: np.ndarray
    column_spans: dict[NodeId, tuple[int, int]]
    layout: tuple[NodeId, ...]

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    def columns(self, v: NodeId) -> np.ndarray:
        offset, length = self.column_spans[v]
        return self.values[:, offset:offset + length]

    def stack(self, nodes: Iterable[NodeId]) -> np.ndarray:
        """Column concatenation over ``nodes`` in the given order."""
        nodes = list(nodes)
        if not nodes:
            return np.empty((self.n, 0))
        return np.hstack([self.columns(v) for v in nodes])


def build_scm(g: LatentGraph, settings: ScmSettings) -> ScmSpec:
    """Derive dimensions and construct every mixing function, reading the
    graph through its bit index alone.

    Deterministic given the graph and ``settings``, and invariant to the
    input order of the graph's node and edge lists.  A simulator of more
    than ``MAX_SCM_WEIGHTS`` weights is refused before any is drawn.
    """
    if settings.layers < 1:
        raise ValueError("at least one layer is required")
    idx = g.bit_index()
    dims = derive_dims(g, settings.exo_dims)
    positions = idx.positions(idx.latents | idx.observables)
    count = settings.layers * sum(dims[idx.ids[i]] ** 2 for i in positions)
    if count > MAX_SCM_WEIGHTS:
        raise ValueError(
            f"layers {settings.layers} asks for {count} mixing weights (layers x the sum of dim^2 "
            f"over latent and observable nodes), above the limit of {MAX_SCM_WEIGHTS}"
        )
    mixers: dict[NodeId, MixingFunction] = {}
    for i in positions:
        v, parents = idx.ids[i], idx.parents[i]
        order = (*sorted(idx.decode(parents & idx.latents)), *idx.decode(parents & idx.exogenous))
        dim = dims[v]
        rng = _node_stream(settings.seed, v, purpose=0)
        weights = tuple(_random_orthogonal(dim, rng) for _ in range(settings.layers))
        biases = tuple(
            0.1 * rng.standard_normal(dim) if settings.bias else np.zeros(dim) for _ in range(settings.layers)
        )
        mixers[v] = MixingFunction(
            input_order=order,
            block_sizes=tuple(dims[p] for p in order),
            weights=weights,
            biases=biases,
            slope=settings.alpha,
        )
    return ScmSpec(graph=g, dims=dims, mixers=mixers, settings=settings)


def sample(scm: ScmSpec, n: int, seed: int = 0) -> Dataset:
    """Draw ``n`` rows by ancestral evaluation: exogenous coordinates are
    i.i.d. standard normal, every other node applies its mixing function to
    its parents.  Each node's values are written once, into its columns of
    the returned matrix.  Deterministic given the seed and order-invariant.
    A matrix of more than ``MAX_DATASET_BYTES`` bytes is refused before it is
    allocated."""
    if n < 0:
        raise ValueError("sample count must be non-negative")
    spans: dict[NodeId, tuple[int, int]] = {}
    offset = 0
    for v in sorted(scm.dims):
        spans[v] = (offset, scm.dims[v])
        offset += scm.dims[v]
    if n * offset * 8 > MAX_DATASET_BYTES:
        raise ValueError(
            f"n {n} asks for {n * offset * 8} dataset bytes (n x the total width {offset} x 8), "
            f"above the limit of {MAX_DATASET_BYTES}"
        )
    ds = Dataset(values=np.empty((n, offset)), column_spans=spans, layout=tuple(scm.graph.layout))
    for v, dim in scm.dims.items():
        if v not in scm.mixers:
            ds.columns(v)[:] = _node_stream(seed, v, purpose=1).standard_normal((n, dim))
    for v, mixer in scm.mixers.items():
        ds.columns(v)[:] = mixer.forward(ds.stack(mixer.input_order))
    return ds


def invert_node(scm: ScmSpec, v: NodeId, value: np.ndarray) -> dict[NodeId, np.ndarray]:
    """Exact inverse of one node's mixing function, split into parent blocks."""
    if v not in scm.mixers:
        raise ValueError(f"{v!r} has no mixing function (exogenous or unknown)")
    mixer = scm.mixers[v]
    value = np.asarray(value, dtype=float)
    if value.shape[-1] != scm.dims[v]:
        raise ValueError(f"expected width {scm.dims[v]} for {v}, got {value.shape[-1]}")
    return mixer.split(mixer.inverse(value))


def invert_observables(scm: ScmSpec, observed: Mapping[NodeId, np.ndarray]) -> dict[NodeId, np.ndarray]:
    """Recover every node value (latents and noise included) from the full
    observable vector by walking the graph bottom-up."""
    g = scm.graph
    missing = set(g.observables) - set(observed)
    if missing:
        raise ValueError(f"missing observable values: {sorted(missing)}")
    values: dict[NodeId, np.ndarray] = {
        v: np.asarray(observed[v], dtype=float) for v in g.observables
    }
    for v in reversed(scm.mixers):
        if v not in values:
            raise ValueError(f"value of {v!r} is not determined by the observables")
        for parent, block in invert_node(scm, v, values[v]).items():
            values.setdefault(parent, block)
    return values


def jacobian_min_singular_value(scm: ScmSpec, v: NodeId, point: np.ndarray) -> float:
    """Smallest singular value of the node's forward Jacobian at a point;
    bounded below by slope**layers by construction."""
    if v not in scm.mixers:
        raise ValueError(f"{v!r} has no mixing function (exogenous or unknown)")
    jac = scm.mixers[v].jacobian(np.asarray(point, dtype=float))
    return float(np.linalg.svd(jac, compute_uv=False)[-1])


def extract_blocks(ds: Dataset, info: SharedInfo) -> tuple[np.ndarray, np.ndarray]:
    """The column blocks (C, S_m) of the located ``c`` and ``s_m``, each
    concatenated in sorted node-id order."""
    for v in sorted(info.c | info.s_m):
        if v not in ds.column_spans:
            raise KeyError(f"node {v!r} not present in the dataset")
    return ds.stack(sorted(info.c)), ds.stack(sorted(info.s_m))


# -- on-disk format ------------------------------------------------------------


def save_dataset(
    ds: Dataset,
    basepath: str | Path,
    seed: int | None = None,
    scm: ScmSettings | None = None,
) -> dict[str, Path]:
    """Write ``<base>.bin`` (float64, column-major) plus a ``<base>.json``
    header, which records the sampling ``seed`` and the simulator settings
    ``scm`` (null when not given); datasets of at most 1000 rows also get a
    ``<base>.csv``."""
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
    spans = sorted(ds.column_spans.items(), key=lambda kv: kv[1][0])
    names = [f"{v}[{i}]" for v, (_, length) in spans for i in range(length)] if ds.n <= 1000 else None
    return write_artifact(Path(basepath), header, ds.values, "F", names)


def load_dataset(basepath: str | Path, header: dict | None = None) -> Dataset:
    """Read a dataset written by ``save_dataset``; ``header`` is its
    ``dataset.json`` if the caller has read it with ``DATASET_FIELDS``.  A
    header that table refuses or whose column span for a node runs past
    ``total_dim``, or a ``.bin`` whose size does not match the header or
    that holds a non-finite value, is a ``ValueError`` naming the file (and
    the node, or for a value the nodes)."""
    base = Path(basepath)
    json_path = base.with_suffix(".json")
    header = header or read_header(json_path, "dataset", DATASET_FIELDS, "simulate")
    n, total = header["n"], header["total_dim"]
    spans = {v: tuple(span) for v, span in header["column_spans"].items()}
    for v, (offset, length) in sorted(spans.items()):
        if offset + length > total:
            raise ValueError(f"{json_path}: its 'column_spans' field entry {v!r} [{offset}, {length}] "
                             f"runs past total_dim {total}; run simulate again")
    def non_finite_nodes(values: np.ndarray) -> str:
        finite = np.isfinite(values).all(axis=0)
        bad = sorted(v for v, (offset, length) in spans.items() if not finite[offset:offset + length].all())
        return f"values in node(s) {', '.join(bad)}"

    values = read_array(base.with_suffix(".bin"), (n, total), np.float64, header["order"], non_finite_nodes)
    return Dataset(values=values.copy(), column_spans=spans, layout=tuple(header["layout"]))
