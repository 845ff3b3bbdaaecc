"""Toy masked autoencoder over a pixel layout.

The encoder reads the visible coordinates (masked slots zero-filled, binary
mask indicator appended) and emits a code of width ``d_c``; the decoder reads
the code plus a fresh noise vector of width ``d_sm`` and the indicator, and
reconstructs the full pixel row.  Training minimizes the squared error on
the masked coordinates only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from latentlab.graph import Mask, NodeId
from latentlab.nets import Adam, Mlp, init_mlp, mlp_backward, mlp_forward, mlp_size, row_blocks
from latentlab.scm import Dataset, read_float64


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
            raise ValueError("layout must split into at least two patches")

    @property
    def num_patches(self) -> int:
        return math.ceil(len(self.layout) / self.s)

    def patches(self) -> list[tuple[NodeId, ...]]:
        return [tuple(self.layout[i:i + self.s]) for i in range(0, len(self.layout), self.s)]

    def num_masked_patches(self) -> int:
        k = int(math.floor(self.r * self.num_patches + 0.5))
        return min(max(k, 1), self.num_patches - 1)


def sample_mask(sampler: MaskSampler, rng: np.random.Generator) -> Mask:
    patches = sampler.patches()
    chosen = rng.choice(len(patches), size=sampler.num_masked_patches(), replace=False)
    return Mask(v for i in chosen for v in patches[i])


@dataclass
class MaeModel:
    encoder: Mlp
    decoder: Mlp
    layout: tuple[NodeId, ...]
    widths: dict[NodeId, int]  # coordinate width per pixel node
    d_c: int
    d_sm: int
    hidden: tuple[int, ...]
    slope: float
    param_seed: int
    flat: np.ndarray  # encoder.flat then decoder.flat, as one contiguous vector
    mask: tuple[NodeId, ...] | None = None  # sorted masked nodes it was trained on; None if resampled or unknown

    @property
    def obs_width(self) -> int:
        return sum(self.widths[v] for v in self.layout)

    @cached_property
    def column_nodes(self) -> np.ndarray:
        """Layout position of the pixel node behind each coordinate column."""
        return np.repeat(np.arange(len(self.layout)), [self.widths[v] for v in self.layout])

    def params(self) -> list[np.ndarray]:
        return self.encoder.params() + self.decoder.params()


def _net_widths(
    layout: tuple[NodeId, ...], widths: Mapping[NodeId, int], d_c: int, d_sm: int, hidden: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Encoder and decoder layer widths; both inputs end with the mask
    indicator, one entry per pixel node."""
    obs_width = sum(widths[v] for v in layout)
    encoder = (obs_width + len(layout), *hidden, d_c)
    decoder = (d_c + d_sm + len(layout), *hidden, obs_width)
    return encoder, decoder


def init_mae_model(
    layout: Sequence[NodeId],
    widths: Mapping[NodeId, int],
    d_c: int,
    d_sm: int,
    hidden: tuple[int, ...] = (64, 64),
    slope: float = 0.2,
    seed: int = 0,
) -> MaeModel:
    if d_c < 1:
        raise ValueError("code width d_c must be at least 1")
    if d_sm < 0:
        raise ValueError("noise width d_sm must be non-negative")
    layout = tuple(layout)
    widths = {v: int(widths[v]) for v in layout}
    enc_widths, dec_widths = _net_widths(layout, widths, d_c, d_sm, tuple(hidden))
    n_enc = mlp_size(enc_widths)
    flat = np.empty(n_enc + mlp_size(dec_widths))
    ss = np.random.SeedSequence(seed)
    enc_rng, dec_rng = (np.random.default_rng(child) for child in ss.spawn(2))
    return MaeModel(
        encoder=init_mlp(enc_widths, slope, enc_rng, out=flat[:n_enc]),
        decoder=init_mlp(dec_widths, slope, dec_rng, out=flat[n_enc:]),
        layout=layout,
        widths=widths,
        d_c=d_c,
        d_sm=d_sm,
        hidden=tuple(hidden),
        slope=slope,
        param_seed=seed,
        flat=flat,
    )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 150
    batch_size: int = 128
    step_size: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    seed: int = 0
    mask_mode: str = "fixed"  # "fixed" or "resampled"
    boundary_exclusion: bool = False

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.step_size <= 0:
            raise ValueError("epochs, batch size, and step size must be positive")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1):
            raise ValueError("moment decay rates must lie in (0, 1)")
        if self.mask_mode not in ("fixed", "resampled"):
            raise ValueError(f"unknown mask mode {self.mask_mode!r}")


# -- coordinate bookkeeping -----------------------------------------------------


def _check_mask(model: MaeModel, mask: Mask) -> None:
    unknown = mask.masked - set(model.layout)
    if unknown:
        raise ValueError(f"mask refers to nodes outside the layout: {sorted(unknown)}")
    if not mask.masked or mask.masked == set(model.layout):
        raise ValueError("mask must leave both a masked and a visible part")


def active_masked_nodes(model: MaeModel, mask: Mask, boundary_exclusion: bool) -> list[NodeId]:
    """Masked pixels contributing to the loss.  With boundary exclusion on,
    masked pixels adjacent to a visible pixel in the layout are dropped."""
    _check_mask(model, mask)
    if not boundary_exclusion:
        return [v for v in model.layout if v in mask.masked]
    keep = []
    for i, v in enumerate(model.layout):
        if v not in mask.masked:
            continue
        neighbors = [model.layout[j] for j in (i - 1, i + 1) if 0 <= j < len(model.layout)]
        if all(w in mask.masked for w in neighbors):
            keep.append(v)
    if not keep:
        raise ValueError("boundary exclusion removed every masked coordinate")
    return keep


@dataclass(frozen=True)
class _MaskPlan:
    """What one mask fixes for every batch: coordinate columns in layout
    order, and input buffers for up to ``rows`` rows whose masked
    coordinates stay zero and whose indicator columns are written once."""

    visible: np.ndarray  # bool per coordinate column
    visible_runs: tuple[slice, ...]  # the visible columns as runs of adjacent columns
    active_cols: np.ndarray  # masked coordinates the loss reads
    enc_in: np.ndarray  # rows x (obs_width + len(layout))
    dec_in: np.ndarray  # rows x (d_c + d_sm + len(layout))
    grad_recon: np.ndarray  # rows x obs_width, zero outside active_cols


def _plan(model: MaeModel, mask: Mask, rows: int, boundary_exclusion: bool = False) -> _MaskPlan:
    active = set(active_masked_nodes(model, mask, boundary_exclusion))
    masked = np.array([v in mask.masked for v in model.layout])
    visible = ~masked[model.column_nodes]
    obs = model.obs_width
    enc_in = np.zeros((rows, obs + len(model.layout)))
    enc_in[:, obs:] = masked
    dec_in = np.zeros((rows, model.d_c + model.d_sm + len(model.layout)))
    dec_in[:, model.d_c + model.d_sm:] = masked
    edges = np.flatnonzero(np.diff(np.concatenate(([False], visible, [False]))))
    return _MaskPlan(
        visible=visible,
        visible_runs=tuple(slice(a, b) for a, b in zip(edges[::2].tolist(), edges[1::2].tolist())),
        active_cols=np.flatnonzero(np.array([v in active for v in model.layout])[model.column_nodes]),
        enc_in=enc_in,
        dec_in=dec_in,
        grad_recon=np.zeros((rows, obs)),
    )


# -- forward passes ---------------------------------------------------------------


def encode(model: MaeModel, x_visible: np.ndarray, mask: Mask) -> np.ndarray:
    """Deterministic code for the visible coordinates (given in layout order),
    computed over row blocks through one plan sized to a block."""
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
        chat[block], _ = mlp_forward(model.encoder, enc_in)
    return chat[0] if single else chat


def decode(model: MaeModel, chat: np.ndarray, s_hat: np.ndarray, mask: Mask) -> np.ndarray:
    """Full-width reconstruction from a code and a noise draw; only the masked
    coordinates are meaningful to the loss."""
    _check_mask(model, mask)
    chat = np.asarray(chat, dtype=float)
    single = chat.ndim == 1
    chat = np.atleast_2d(chat)
    s_hat = np.asarray(s_hat, dtype=float).reshape(chat.shape[0], model.d_sm)
    if chat.shape[1] != model.d_c:
        raise ValueError(f"expected code width {model.d_c}, got {chat.shape[1]}")
    dec_in = _plan(model, mask, chat.shape[0]).dec_in
    dec_in[:, : model.d_c] = chat
    dec_in[:, model.d_c: model.d_c + model.d_sm] = s_hat
    out, _ = mlp_forward(model.decoder, dec_in)
    return out[0] if single else out


def _loss_and_grads(
    model: MaeModel,
    batch: np.ndarray,
    plan: _MaskPlan,
    s_hat: np.ndarray,
    grads: np.ndarray,
) -> tuple[float, np.ndarray]:
    """The masked-coordinate loss on ``batch``; the gradient of every
    parameter is written into ``grads`` (laid out like ``model.flat``),
    which is returned."""
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

    active_cols = plan.active_cols
    err = recon[:, active_cols] - batch[:, active_cols]
    value = float(np.add.reduce(err ** 2, axis=None) / err.size)  # np.mean's sum, without its wrapper

    grad_recon = plan.grad_recon[:n]
    grad_recon[:, active_cols] = 2.0 * err / err.size
    n_enc = model.encoder.flat.size
    grad_dec_in = mlp_backward(model.decoder, dec_cache, grad_recon, out=grads[n_enc:])
    mlp_backward(model.encoder, enc_cache, grad_dec_in[:, :d_c], out=grads[:n_enc], input_grad=False)
    return value, grads


def loss(
    model: MaeModel,
    batch: np.ndarray,
    mask: Mask,
    rng: np.random.Generator,
    boundary_exclusion: bool = False,
) -> float:
    """Mean squared error on the masked coordinates, averaged over the batch;
    the decoder noise is drawn per example from ``rng``."""
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    if batch.shape[1] != model.obs_width:
        raise ValueError(f"expected rows of width {model.obs_width}, got {batch.shape[1]}")
    plan = _plan(model, mask, batch.shape[0], boundary_exclusion)
    s_hat = rng.standard_normal((batch.shape[0], model.d_sm))
    value, _ = _loss_and_grads(model, batch, plan, s_hat, np.empty_like(model.flat))
    return value


def train(
    dataset: Dataset,
    mask_spec: Mask | MaskSampler,
    d_c: int,
    d_sm: int,
    cfg: TrainConfig = TrainConfig(),
    hidden: tuple[int, ...] = (64, 64),
    slope: float = 0.2,
) -> tuple[MaeModel, list[float]]:
    """Minibatch adaptive-moment training of the masked-reconstruction
    objective; returns the model and the per-epoch loss curve.  Under a
    fixed mask the model records its sorted masked nodes in ``mask``.
    Fully deterministic given the config seed."""
    if dataset.n == 0:
        raise ValueError("dataset is empty")
    layout = dataset.layout
    widths = {v: dataset.column_spans[v][1] for v in layout}
    rows = dataset.stack(layout)

    ss = np.random.SeedSequence(cfg.seed)
    param_ss, shuffle_ss, noise_ss, mask_ss = ss.spawn(4)
    param_seed = int(param_ss.generate_state(1)[0])
    model = init_mae_model(layout, widths, d_c, d_sm, hidden=hidden, slope=slope, seed=param_seed)

    shuffle_rng = np.random.default_rng(shuffle_ss)
    noise_rng = np.random.default_rng(noise_ss)
    mask_rng = np.random.default_rng(mask_ss)

    if isinstance(mask_spec, MaskSampler):
        sampler = mask_spec
        mask = sample_mask(sampler, mask_rng)
    else:
        sampler = None
        mask = mask_spec
    if cfg.mask_mode == "resampled" and sampler is None:
        raise ValueError("resampled mask mode requires a MaskSampler")
    plan_rows = min(cfg.batch_size, dataset.n)
    plan = _plan(model, mask, plan_rows, cfg.boundary_exclusion)

    grads = np.empty_like(model.flat)
    optimizer = Adam([model.flat], cfg.step_size, cfg.beta1, cfg.beta2)
    curve: list[float] = []
    last_finite = None
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(dataset.n)
        epoch_losses = []
        for start in range(0, dataset.n, cfg.batch_size):
            batch = rows[order[start:start + cfg.batch_size]]
            if cfg.mask_mode == "resampled":
                mask = sample_mask(sampler, mask_rng)
                plan = _plan(model, mask, plan_rows, cfg.boundary_exclusion)
            s_hat = noise_rng.standard_normal((batch.shape[0], model.d_sm))
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
    if cfg.mask_mode == "fixed":
        model.mask = tuple(sorted(mask.masked))
    return model, curve


def grad_check(
    model: MaeModel,
    batch: np.ndarray,
    mask: Mask,
    rng: np.random.Generator | None = None,
    boundary_exclusion: bool = False,
    step: float = 1e-5,
) -> float:
    """Max relative deviation between the analytic gradient and central finite
    differences over every parameter; the noise draw is frozen across all
    evaluations."""
    batch = np.atleast_2d(np.asarray(batch, dtype=float))
    flat = model.flat
    if flat.size > 10_000:
        raise ValueError(f"model has {flat.size} parameters, too many for finite differences")
    plan = _plan(model, mask, batch.shape[0], boundary_exclusion)
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


def reconstruction_metrics(reconstruction: np.ndarray, target: np.ndarray, peak: float) -> dict[str, float]:
    """Pixel-level fidelity: mean squared error and peak signal-to-noise ratio
    (infinite when the error vanishes)."""
    reconstruction = np.asarray(reconstruction, dtype=float)
    target = np.asarray(target, dtype=float)
    if reconstruction.shape != target.shape:
        raise ValueError("reconstruction and target must have identical shapes")
    if peak <= 0:
        raise ValueError("peak must be positive")
    mse = float(np.mean((reconstruction - target) ** 2))
    psnr = math.inf if mse == 0 else 10.0 * math.log10(peak ** 2 / mse)
    return {"mse": mse, "psnr": psnr}


# -- checkpoints -------------------------------------------------------------------


def save_model(model: MaeModel, basepath: str | Path) -> dict[str, Path]:
    """Write ``<base>.json`` (architecture, seeds and the masked nodes the
    model was trained on, null when unknown or resampled) plus ``<base>.bin``
    (the bytes of ``model.flat``: encoder weights, encoder biases, decoder
    weights, decoder biases, layer by layer, each weight matrix row-major
    as (fan_out, fan_in); native float64)."""
    base = Path(basepath)
    base.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "layout": list(model.layout),
        "widths": {v: model.widths[v] for v in model.layout},
        "d_c": model.d_c,
        "d_sm": model.d_sm,
        "hidden": list(model.hidden),
        "slope": model.slope,
        "param_seed": model.param_seed,
        "n_params": int(model.flat.size),
        "mask": None if model.mask is None else list(model.mask),
    }
    json_path = base.with_suffix(".json")
    json_path.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    bin_path = base.with_suffix(".bin")
    bin_path.write_bytes(model.flat.tobytes())
    return {"json": json_path, "bin": bin_path}


def load_model(basepath: str | Path) -> MaeModel:
    """Rebuild a checkpoint: the architecture from ``<base>.json`` and the
    parameter vector read straight from ``<base>.bin``.  A file whose size
    does not match the header, or that holds a non-finite value, is a
    ``ValueError`` naming the file."""
    base = Path(basepath)
    json_path, bin_path = base.with_suffix(".json"), base.with_suffix(".bin")
    header = json.loads(json_path.read_text())
    layout = tuple(header["layout"])
    widths = {v: int(header["widths"][v]) for v in layout}
    d_c, d_sm, hidden = int(header["d_c"]), int(header["d_sm"]), tuple(header["hidden"])
    enc_widths, dec_widths = _net_widths(layout, widths, d_c, d_sm, hidden)
    n_enc = mlp_size(enc_widths)
    n_params = n_enc + mlp_size(dec_widths)
    if header["n_params"] != n_params:
        raise ValueError(
            f"{json_path}: n_params is {header['n_params']}, but the architecture it describes has {n_params}"
        )
    flat = read_float64(bin_path, n_params)
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"{bin_path}: non-finite parameter values")
    return MaeModel(
        encoder=Mlp(flat[:n_enc], enc_widths, header["slope"]),
        decoder=Mlp(flat[n_enc:], dec_widths, header["slope"]),
        layout=layout,
        widths=widths,
        d_c=d_c,
        d_sm=d_sm,
        hidden=hidden,
        slope=header["slope"],
        param_seed=header["param_seed"],
        flat=flat,
        mask=None if header.get("mask") is None else tuple(header["mask"]),
    )


def save_loss_curve(curve: list[float], path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["epoch,loss"] + [f"{i},{value!r}" for i, value in enumerate(curve)]
    path.write_text("\n".join(lines) + "\n")
    return path
