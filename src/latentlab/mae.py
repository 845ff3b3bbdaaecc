"""Toy masked autoencoder over a pixel layout.

The encoder reads the visible coordinates (masked slots zero-filled, binary
mask indicator appended) and emits a code of width ``d_c``; the decoder reads
the code plus a fresh noise vector of width ``d_sm`` and the indicator, and
reconstructs the full pixel row.  Training minimizes the squared error on
the masked coordinates only.

``train`` runs in float32: it rounds the float64 initial parameters once
and keeps the rows, the noise draws, the optimizer state and every
intermediate in float32.  Checkpoints hold those float32 parameters.
``encode`` and ``grad_check`` compute from an exact float64 copy of them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from latentlab.artifacts import MODEL_FIELDS, read_array, read_header, write_artifact
from latentlab.graph import Mask, NodeId
from latentlab.nets import Adam, Mlp, init_mlp, mlp_backward, mlp_forward, mlp_size, row_blocks
from latentlab.scm import Dataset

# Largest model, the encoder's and the decoder's parameters together, that
# init_mae_model allocates; the acceptance run's fig4 model has 13,341, and
# hidden (64, 64) on bench3 with 10-wide code and noise would have 30,986.
MAX_MODEL_PARAMS = 10**7


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True)
class MaskSampler:
    """Uniform patch masking: the layout is split into ceil(len/s) contiguous
    patches and round(r * num_patches) of them are masked, clamped so that at
    least one patch stays on each side."""

    r: float
    s: int
    layout: tuple[NodeId, ...]

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"masking ratio must be in (0, 1), got {self.r}")
        if self.s < 1:
            raise ValueError(f"patch size must be positive, got {self.s}")
        if self.num_patches < 2:
            raise ValueError(
                f"patch size {self.s} leaves the {len(self.layout)}-node layout in one patch, "
                "but masking needs at least two patches"
            )

    @cached_property
    def num_patches(self) -> int:
        return math.ceil(len(self.layout) / self.s)

    @cached_property
    def num_masked_patches(self) -> int:
        k = int(math.floor(self.r * self.num_patches + 0.5))
        return min(max(k, 1), self.num_patches - 1)

    def draw_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """A ``count`` x ``len(layout)`` boolean matrix of the masked layout
        positions, which every sampled mask goes through.  Row i masks the
        patches with the smallest uniforms in row i of one
        ``rng.random((count, num_patches))`` draw, the same stream as
        ``count`` successive ``rng.random(num_patches)`` draws; so row i is
        the i-th mask drawn one at a time, and row 0 does not depend on
        ``count``.  Position j lies in patch ``j // s``."""
        keys = rng.random((count, self.num_patches))
        picked = np.argsort(keys, axis=1, kind="stable")[:, :self.num_masked_patches]
        chosen = np.zeros(keys.shape, dtype=bool)
        np.put_along_axis(chosen, picked, True, axis=1)
        return chosen[:, np.arange(len(self.layout)) // self.s]


def sample_mask(sampler: MaskSampler, rng: np.random.Generator) -> Mask:
    return Mask(v for v, masked in zip(sampler.layout, sampler.draw_many(rng, 1)[0]) if masked)


@dataclass
class MaeModel:
    """The model's architecture and its parameters; ``encoder`` and
    ``decoder`` are built from them, their weights and biases views of
    ``flat``, so ``dataclasses.replace(model, flat=...)`` is the same model
    on other parameters."""

    layout: tuple[NodeId, ...]
    widths: dict[NodeId, int]  # coordinate width per pixel node
    d_c: int
    d_sm: int
    hidden: tuple[int, ...]
    slope: float
    param_seed: int
    flat: np.ndarray  # encoder.flat then decoder.flat, as one contiguous vector
    mask: tuple[NodeId, ...] | None = None  # sorted masked nodes it was trained on; None if unknown
    encoder: Mlp = field(init=False, repr=False)
    decoder: Mlp = field(init=False, repr=False)

    def __post_init__(self):
        enc_widths, dec_widths = _net_widths(self.layout, self.widths, self.d_c, self.d_sm, self.hidden)
        n_enc = mlp_size(enc_widths)
        self.encoder = Mlp(self.flat[:n_enc], enc_widths, self.slope)
        self.decoder = Mlp(self.flat[n_enc:], dec_widths, self.slope)

    @property
    def obs_width(self) -> int:
        return sum(self.widths[v] for v in self.layout)

    @cached_property
    def column_nodes(self) -> np.ndarray:
        """Layout position of the pixel node behind each coordinate column."""
        return np.repeat(np.arange(len(self.layout)), [self.widths[v] for v in self.layout])


def _net_widths(
    layout: tuple[NodeId, ...], widths: Mapping[NodeId, int], d_c: int, d_sm: int, hidden: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Encoder and decoder layer widths; both inputs end with the mask
    indicator, one entry per pixel node."""
    obs_width = sum(widths[v] for v in layout)
    encoder = (obs_width + len(layout), *hidden, d_c)
    decoder = (d_c + d_sm + len(layout), *hidden, obs_width)
    return encoder, decoder


def _n_params(*architecture) -> int:
    """Parameters of the encoder and the decoder that ``_net_widths`` lays
    out for ``architecture``, counted before any is allocated."""
    return sum(map(mlp_size, _net_widths(*architecture)))


def init_mae_model(
    layout: Sequence[NodeId], widths: Mapping[NodeId, int], d_c: int, d_sm: int,
    *, hidden: tuple[int, ...], slope: float, seed: int = 0,
) -> MaeModel:
    """A model of freshly drawn float64 parameters; one of more than
    ``MAX_MODEL_PARAMS`` parameters is refused before any is allocated."""
    if d_c < 1:
        raise ValueError("code width d_c must be at least 1")
    if d_sm < 0:
        raise ValueError("noise width d_sm must be non-negative")
    layout, hidden = tuple(layout), tuple(hidden)
    widths = {v: int(widths[v]) for v in layout}
    n_params = _n_params(layout, widths, d_c, d_sm, hidden)
    if n_params > MAX_MODEL_PARAMS:
        raise ValueError(
            f"hidden {list(hidden)}, d_c {d_c} and d_sm {d_sm} ask for {n_params} model parameters "
            f"(encoder and decoder), above the limit of {MAX_MODEL_PARAMS}"
        )
    model = MaeModel(layout, widths, d_c, d_sm, hidden, slope, param_seed=seed, flat=np.empty(n_params))
    for net, child in zip((model.encoder, model.decoder), np.random.SeedSequence(seed).spawn(2)):
        init_mlp(net, np.random.default_rng(child))
    return model


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    batch_size: int = 128
    step_size: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or not 0 < self.step_size <= sys.float_info.max:
            raise ValueError("epochs, batch size, and step size must be positive, and the step size finite")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("moment decay rates must lie in (0, 1)")


@dataclass(frozen=True)
class MaeSettings:
    """The autoencoder's settings, the config's ``mae`` section.  A ``d_c``
    or ``d_sm`` of None is the total width of the located ``c`` or ``s_m``.
    ``hidden`` is kept as a tuple."""

    d_c: int | None = field(default=None, metadata={"kind": "a positive integer"})
    d_sm: int | None = field(default=None, metadata={"kind": "a non-negative integer"})
    hidden: tuple[int, ...] = field(default=(64, 64), metadata={"kind": "a list", "entries": "a positive integer"})
    slope: float = field(default=0.2, metadata={"kind": "a number in [0, 1]"})
    train: TrainConfig = TrainConfig()

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))


# -- coordinate bookkeeping -----------------------------------------------------


@dataclass(frozen=True)
class _MaskPlan:
    """What one mask fixes for every batch: coordinate columns in layout
    order, and input buffers for up to ``rows`` rows, at the model's dtype,
    whose masked coordinates stay zero and whose indicator columns are
    written once."""

    visible: np.ndarray  # bool per coordinate column
    visible_runs: tuple[slice, ...]  # the visible columns as runs of adjacent columns
    masked_cols: np.ndarray  # the masked coordinate columns, which the loss reads
    enc_in: np.ndarray  # rows x (obs_width + len(layout))
    dec_in: np.ndarray  # rows x (d_c + d_sm + len(layout))
    grad_recon: np.ndarray  # rows x obs_width, zero outside masked_cols


def _plan(model: MaeModel, mask: Mask, rows: int) -> _MaskPlan:
    mask.check(frozenset(model.layout))
    masked = np.array([v in mask.masked for v in model.layout])
    visible = ~masked[model.column_nodes]
    obs = model.obs_width
    dtype = model.flat.dtype
    enc_in = np.zeros((rows, obs + len(model.layout)), dtype)
    enc_in[:, obs:] = masked
    dec_in = np.zeros((rows, model.d_c + model.d_sm + len(model.layout)), dtype)
    dec_in[:, model.d_c + model.d_sm:] = masked
    edges = np.flatnonzero(np.diff(np.concatenate(([False], visible, [False]))))
    return _MaskPlan(
        visible=visible,
        visible_runs=tuple(slice(a, b) for a, b in zip(edges[::2].tolist(), edges[1::2].tolist())),
        masked_cols=np.flatnonzero(~visible),
        enc_in=enc_in,
        dec_in=dec_in,
        grad_recon=np.zeros((rows, obs), dtype),
    )


# -- forward passes ---------------------------------------------------------------


def encode(model: MaeModel, x_visible: np.ndarray, mask: Mask) -> np.ndarray:
    """Deterministic code for the visible coordinates (given in layout order),
    computed in float64 over row blocks through one plan sized to a block."""
    model = replace(model, flat=model.flat.astype(np.float64))  # an exact upcast
    x_visible = np.asarray(x_visible, dtype=float)
    single = x_visible.ndim == 1
    rows = np.atleast_2d(x_visible)
    blocks = row_blocks(rows.shape[0], max(model.encoder.widths))
    plan = _plan(model, mask, max(b.stop - b.start for b in blocks))
    width = int(np.count_nonzero(plan.visible))
    if rows.shape[1] != width:
        raise ValueError(f"expected visible width {width}, got {rows.shape[1]}")
    chat = np.empty((rows.shape[0], model.d_c))
    for block in blocks:
        enc_in = plan.enc_in[: block.stop - block.start]
        enc_in[:, : model.obs_width][:, plan.visible] = rows[block]
        chat[block] = mlp_forward(model.encoder, enc_in)[0]
    return chat[0] if single else chat


def _loss_and_grads(
    model: MaeModel,
    batch: np.ndarray,
    plan: _MaskPlan,
    s_hat: np.ndarray,
    grads: np.ndarray,
) -> tuple[float, np.ndarray]:
    """The masked-coordinate loss on ``batch``; the gradient of every
    parameter is written into ``grads`` (laid out like ``model.flat``),
    which is returned.  Computes at the dtype of ``model.flat``."""
    n = batch.shape[0]
    d_c = model.d_c
    enc_in = plan.enc_in[:n]
    for run in plan.visible_runs:
        enc_in[:, run] = batch[:, run]
    chat, enc_cache = mlp_forward(model.encoder, enc_in)
    dec_in = plan.dec_in[:n]
    dec_in[:, :d_c] = chat
    dec_in[:, d_c: d_c + model.d_sm] = s_hat
    recon, dec_cache = mlp_forward(model.decoder, dec_in)

    masked_cols = plan.masked_cols
    err = recon[:, masked_cols] - batch[:, masked_cols]
    value = float(np.add.reduce(err ** 2, axis=None) / err.size)  # np.mean's sum, without its wrapper

    grad_recon = plan.grad_recon[:n]
    grad_recon[:, masked_cols] = 2.0 * err / err.size
    n_enc = model.encoder.flat.size
    grad_dec_in = mlp_backward(model.decoder, dec_cache, grad_recon, out=grads[n_enc:])
    mlp_backward(model.encoder, enc_cache, grad_dec_in[:, :d_c], out=grads[:n_enc], input_grad=False)
    return value, grads


def train(
    dataset: Dataset, mask: Mask, d_c: int, d_sm: int, cfg: TrainConfig = TrainConfig(),
    *, hidden: tuple[int, ...], slope: float,
) -> tuple[MaeModel, list[float]]:
    """Minibatch adaptive-moment training of the masked-reconstruction
    objective in float32; returns the model, whose parameters are float32,
    and the per-epoch loss curve.  Every step reads the same ``mask``, whose
    sorted masked nodes the model records.  Fully deterministic given the
    config seed."""
    if dataset.n == 0:
        raise ValueError("dataset is empty")
    layout = dataset.layout
    widths = {v: dataset.column_spans[v][1] for v in layout}
    rows = dataset.stack(layout).astype(np.float32)

    ss = np.random.SeedSequence(cfg.seed)
    param_ss, shuffle_ss, noise_ss = ss.spawn(3)
    param_seed = int(param_ss.generate_state(1)[0])
    model = init_mae_model(layout, widths, d_c, d_sm, hidden=hidden, slope=slope, seed=param_seed)
    model = replace(model, flat=model.flat.astype(np.float32))

    shuffle_rng = np.random.default_rng(shuffle_ss)
    noise_rng = np.random.default_rng(noise_ss)
    plan = _plan(model, mask, min(cfg.batch_size, dataset.n))

    grads = np.empty_like(model.flat)
    optimizer = Adam([model.flat], cfg.step_size, cfg.beta1, cfg.beta2)
    curve: list[float] = []
    last_finite = None
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(dataset.n)
        epoch_losses = []
        for start in range(0, dataset.n, cfg.batch_size):
            batch = rows[order[start:start + cfg.batch_size]]
            s_hat = noise_rng.standard_normal((batch.shape[0], model.d_sm), dtype=np.float32)
            value, grads = _loss_and_grads(model, batch, plan, s_hat, grads)
            if not np.isfinite(value):
                before = (
                    "no finite loss before it" if last_finite is None else f"last finite loss {last_finite!r}"
                )
                raise TrainingDiverged(
                    f"non-finite loss {value} at epoch {epoch}, step {start // cfg.batch_size}; {before}"
                )
            optimizer.step([model.flat], [grads])
            epoch_losses.append(value)
            last_finite = value
        curve.append(float(np.mean(epoch_losses)))
    model.mask = tuple(sorted(mask.masked))
    return model, curve


def grad_check(
    model: MaeModel,
    batch: np.ndarray,
    mask: Mask,
    rng: np.random.Generator | None = None,
    step: float = 1e-5,
) -> float:
    """Max relative deviation between the analytic gradient and central finite
    differences over every parameter, both taken in float64 on a copy of
    the parameters; the noise draw is frozen across all evaluations."""
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    model = replace(model, flat=model.flat.astype(np.float64))
    flat = model.flat
    if flat.size > 10_000:
        raise ValueError(f"model has {flat.size} parameters, too many for finite differences")
    plan = _plan(model, mask, batch.shape[0])
    rng = rng or np.random.default_rng(0)
    s_hat = rng.standard_normal((batch.shape[0], model.d_sm))

    _, analytic = _loss_and_grads(model, batch, plan, s_hat, np.empty_like(flat))
    scratch = np.empty_like(flat)
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        up, _ = _loss_and_grads(model, batch, plan, s_hat, scratch)
        flat[i] = original - step
        down, _ = _loss_and_grads(model, batch, plan, s_hat, scratch)
        flat[i] = original
        numeric[i] = (up - down) / (2 * step)

    denom = np.maximum(1e-6, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


# -- checkpoints -------------------------------------------------------------------


def save_model(model: MaeModel, basepath: str | Path) -> dict[str, Path]:
    """Write ``<base>.json`` (architecture, seeds, ``"dtype": "float32"``
    and the masked nodes the model was trained on, null when unknown) plus ``<base>.bin`` (``model.flat`` as native float32:
    encoder weights, encoder biases, decoder weights, decoder biases, layer
    by layer, each weight matrix row-major as (fan_out, fan_in)).  A
    trained model's bytes are its parameters; float64 parameters, as
    ``init_mae_model`` makes, are rounded to nearest."""
    header = {
        "layout": list(model.layout),
        "widths": {v: model.widths[v] for v in model.layout},
        "d_c": model.d_c,
        "d_sm": model.d_sm,
        "hidden": list(model.hidden),
        "slope": model.slope,
        "param_seed": model.param_seed,
        "n_params": int(model.flat.size),
        "dtype": "float32",
        "mask": None if model.mask is None else list(model.mask),
    }
    return write_artifact(Path(basepath), header, model.flat.astype(np.float32, copy=False))


def load_model(basepath: str | Path, header: dict | None = None) -> MaeModel:
    """Rebuild a checkpoint: the architecture from ``<base>.json`` (or
    ``header``, if the caller has read it) and the float32 parameter vector
    read straight from ``<base>.bin``.  A header that ``MODEL_FIELDS``
    refuses (as one written before checkpoints were float32, which has no
    ``dtype``), or that lacks a layout node's entry in ``widths``, a file
    whose size does not match the header, or one that holds a non-finite
    value, is a ``ValueError`` naming the file."""
    base = Path(basepath)
    json_path = base.with_suffix(".json")
    header = header or read_header(json_path, "checkpoint", MODEL_FIELDS, "train")
    layout = tuple(header["layout"])
    missing = [v for v in layout if v not in header["widths"]]
    if missing:
        raise ValueError(
            f"{json_path}: its 'widths' field has no entry for layout node(s) "
            f"{', '.join(map(repr, missing))}; run train again"
        )
    widths = {v: header["widths"][v] for v in layout}
    architecture = (layout, widths, header["d_c"], header["d_sm"], tuple(header["hidden"]))
    n_params = _n_params(*architecture)
    if header["n_params"] != n_params:
        raise ValueError(
            f"{json_path}: n_params is {header['n_params']}, but the architecture it describes has {n_params}"
        )
    flat = read_array(base.with_suffix(".bin"), (n_params,), np.float32, "C", lambda _: "parameter values")
    return MaeModel(*architecture, header["slope"], param_seed=header["param_seed"], flat=flat,
                    mask=None if header.get("mask") is None else tuple(header["mask"]))
