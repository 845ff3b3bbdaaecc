"""Command-line front door.

Six subcommands: ``locate`` and ``verify`` work directly on a graph file;
``simulate``, ``train``, and ``evaluate`` run the staged experiment described
by a config file; ``sweep`` scans masking ratios and patch sizes.  Exit
codes: 0 success, 1 usage error, 2 data or validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from latentlab import fixtures
from latentlab.artifacts import DATASET_FIELDS, MODEL_FIELDS, Field, check_fields, read_header, require_current
from latentlab.artifacts import write_csv, write_json
from latentlab.graph import LatentGraph, Mask, derive_dims, load_graph
from latentlab.ident import RegressorConfig, block_identifiability
from latentlab.locate import (
    SharedInfo,
    _locate_c_rows,
    _oracle_latents,
    _split_mask,
    brute_force_minimal_c,
    locate_many,
    locate_shared_info,
    verify_conditions,
)
from latentlab.mae import (
    MaeSettings,
    MaskSampler,
    TrainingDiverged,
    encode,
    load_model,
    sample_mask,
    save_model,
    train,
)
from latentlab.nets import row_blocks
from latentlab.scm import ScmSettings, build_scm, extract_blocks, load_dataset, sample, save_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# Largest sweep grid (distinct cells x --masks-per-cell rows) and largest
# --trials that are drawn.  At the limit, bench3's 5 x 3 grid at 66,666
# masks a cell peaks at 383 MB resident; CI's largest grid has 15,000 rows.
# verify holds one block of VERIFY_BLOCK trials at a time, so its memory
# does not grow with --trials and its limit bounds time: verify fig2 at the
# limit takes 13-16 s on a 2-core x86 machine.
MAX_SWEEP_ROWS = 10**6
MAX_VERIFY_TRIALS = 10**5
VERIFY_BLOCK = 1024


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _resolve_graph(path: str) -> LatentGraph:
    candidate = Path(path)
    if not candidate.exists():
        try:
            candidate = fixtures.fixture_path(path)
        except FileNotFoundError:
            raise ConfigError(f"graph file not found: {path}")
    g = load_graph(candidate)
    g.bit_index()  # an invalid graph stops every command here
    return g


# -- experiment config ------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """A config file that its field tables accept: one attribute per
    top-level key, each settings section as its dataclass, and ``out_dir``
    resolved against the file's directory."""

    graph: str
    mask: dict
    scm: ScmSettings
    n: int
    sample_seed: int
    mae: MaeSettings
    ident: RegressorConfig
    out_dir: Path

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except UnicodeDecodeError:
            raise ConfigError(f"config file {path} is not UTF-8 text") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        _check_section(raw, CONFIG_FIELDS, "")
        mask = raw["mask"]
        _check_section(mask, LISTED_MASK_FIELDS if "observables" in mask or not mask else SAMPLED_MASK_FIELDS, "mask")
        return cls(**{  # every stage rejects bad settings before it runs
            **raw,
            "scm": _build_section(ScmSettings, raw["scm"], "scm"),
            "mae": _build_section(MaeSettings, raw["mae"], "mae"),
            "ident": _build_section(RegressorConfig, raw["ident"], "ident"),
            "out_dir": path.parent / raw["out_dir"],  # an absolute out_dir stays as it is
        })

    def load_graph(self) -> tuple[LatentGraph, Mask]:
        """The config's graph and its mask, the listed one or the sampled
        draw; so every stage refuses an ``scm.exo_dims`` key that is not an
        exogenous node, and a mask or patch size the graph refuses."""
        g = _resolve_graph(self.graph)
        derive_dims(g, self.scm.exo_dims)
        if "observables" in self.mask:
            mask = Mask(self.mask["observables"])
            _split_mask(g, mask)
            return g, mask
        sampler = _sampler(float(self.mask["ratio"]), self.mask["patch"], g, "mask.ratio", "mask.patch")
        return g, sample_mask(sampler, np.random.default_rng(self.mask["seed"]))


# One field table per config section.  A mask is a list of observables or
# a sampler entry; the other sections take theirs from their settings
# classes (`settings_fields`).
CONFIG_FIELDS = {
    "graph": Field("a string"), "mask": Field("an object"), "scm": Field("an object"),
    "n": Field("a non-negative integer"), "sample_seed": Field("a non-negative integer"),
    "mae": Field("an object"), "ident": Field("an object"), "out_dir": Field("a string"),
}
SEED = Field("a non-negative integer")
LISTED_MASK_FIELDS = {"observables": Field("a list", entries="a string")}
SAMPLED_MASK_FIELDS = {"ratio": Field("a number in (0, 1)"), "patch": Field("an integer"), "seed": SEED}
ANNOTATED_KINDS = {"int": "an integer", "float": "a finite number", "bool": "a boolean"}


def settings_fields(kind) -> dict[str, Field]:
    """The field table of the config section behind the settings dataclass
    ``kind``: each field of the ``JSON_KINDS`` kind that its metadata names
    as ``kind`` (and ``entries``, for a list or an object) where the config's
    range is narrower than its annotated type, or else of that type.  Only
    the seed and a nested settings field, an object, are required."""
    def entry(f) -> Field:
        if f.name == "seed":
            return SEED
        if is_dataclass(f.default):
            return Field("an object")
        return Field(f.metadata.get("kind") or ANNOTATED_KINDS[f.type], False, f.metadata.get("entries"))
    return {f.name: entry(f) for f in fields(kind)}


def _check_section(section: dict, table: dict[str, Field], name: str) -> None:
    """``check_fields`` on a config section (``name`` "" is the top level),
    its report worded as a ``ConfigError`` naming the key."""
    if report := check_fields(section, table):
        key, problem = report
        label = f"{name}.{key}" if name else key
        raise ConfigError({
            "missing": f"config is missing the {label!r} entry",
            "unknown": f"config{f' section {name!r}' if name else ''} has unknown key(s): {key}",
        }.get(problem, f"config value {label!r} {problem}"))


def _build_section(kind, params: dict, name: str):
    """The settings dataclass ``kind`` from its config section, checked
    against ``settings_fields(kind)`` and then each nested section in field
    order; a null value takes the field's default, and a value of a field
    annotated ``float`` is kept as a float.  A value that a table or a class
    refuses is a ``ConfigError`` naming the key or the section."""
    _check_section(params, settings_fields(kind), name)

    def value(f):
        if is_dataclass(f.default):
            return _build_section(type(f.default), params[f.name], f"{name}.{f.name}")
        return float(params[f.name]) if f.type == "float" else params[f.name]
    values = {f.name: value(f) for f in fields(kind) if params.get(f.name) is not None}
    try:
        return kind(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config section {name!r}: {exc}") from exc


def _sampler(r: float, s: int, g: LatentGraph, ratio_flag: str, patch_flag: str) -> MaskSampler:
    """A mask sampler over the graph's layout; a ratio or patch size it
    refuses is a ``ConfigError`` naming both settings."""
    try:
        return MaskSampler(r, s, tuple(g.layout))
    except ValueError as exc:
        raise ConfigError(f"{exc} ({ratio_flag} {r}, {patch_flag} {s})") from exc


# -- subcommands -------------------------------------------------------------------


def cmd_locate(args) -> int:
    g = _resolve_graph(args.graph)
    sampling = (args.ratio, args.patch, args.seed) != (None, None, None)
    if args.mask is not None and not sampling:
        mask = Mask(token.strip() for token in args.mask.split(",") if token.strip())
    elif args.mask is None and args.ratio is not None:
        if args.patch is None or args.seed is None:
            raise ConfigError("sampled masks need --ratio, --patch, and --seed")
        _require_count(args.seed, "--seed")
        sampler = _sampler(args.ratio, args.patch, g, "--ratio", "--patch")
        mask = sample_mask(sampler, np.random.default_rng(args.seed))
    else:
        raise ConfigError("provide either --mask or --ratio/--patch/--seed")
    info = locate_shared_info(g, mask)
    dims = derive_dims(g) if args.check_minimal else None
    report = verify_conditions(g, mask, info, dims=dims)
    payload = {
        "graph": args.graph,
        "mask": sorted(mask.masked),
        "c": sorted(info.c),
        "s_m": sorted(info.s_m),
        "s_mc": sorted(info.s_mc),
        "report": asdict(report),
    }
    print(write_json(payload, Path(args.out) if args.out else None), end="")
    return EXIT_OK if report.all_ok else EXIT_DATA


def _require_count(value: int, flag: str) -> None:
    if value < 0:
        raise ConfigError(f"{flag} must be a non-negative integer, got {value}")


def cmd_verify(args) -> int:
    _require_count(args.trials, "--trials")
    _require_count(args.seed, "--seed")
    if args.trials > MAX_VERIFY_TRIALS:
        raise ConfigError(f"--trials {args.trials} is above the limit of {MAX_VERIFY_TRIALS} trials")
    g = _resolve_graph(args.graph)
    observables = sorted(g.observables)
    if len(observables) < 2:
        raise ConfigError(f"verify needs at least two observables, but graph {args.graph} has {len(observables)}")
    _oracle_latents(g)  # a graph above the oracle's cap is refused before any mask is drawn
    dims = derive_dims(g)
    n = len(observables)
    rng = np.random.default_rng(args.seed)
    mismatches, flag_failures, ties = [], 0, 0
    for start in range(0, args.trials, VERIFY_BLOCK):
        # Row i of the one stream of uniforms is trial i, whatever the block
        # size or --trials: its last uniform sets the size k, uniform over
        # 1..n-1, and the observables at its k smallest other uniforms form
        # the mask.
        keys = rng.random((min(VERIFY_BLOCK, args.trials - start), n + 1))
        sizes = (1 + np.floor(keys[:, -1] * (n - 1))).astype(int).tolist()
        order = np.argsort(keys[:, :-1], axis=1, kind="stable").tolist()
        masks = [Mask(observables[j] for j in row[:k]) for row, k in zip(order, sizes)]
        for mask, info in zip(masks, locate_many(g, masks)):
            oracle = brute_force_minimal_c(g, mask, dims)
            if (info.c, info.s_m) != (oracle.c, oracle.s_m):
                mismatches.append(mask)
            ties += len(oracle.ties)
            flag_failures += not verify_conditions(g, mask, info).all_ok
    print(f"trials={args.trials} mismatches={len(mismatches)} flag_failures={flag_failures} ties={ties}")
    for mask in mismatches:
        print(f"  mismatch on mask {','.join(sorted(mask.masked))}")
    return EXIT_OK if not mismatches and not flag_failures else EXIT_DATA


def cmd_simulate(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    g, _ = cfg.load_graph()
    ds = sample(build_scm(g, cfg.scm), cfg.n, seed=cfg.sample_seed)
    written = save_dataset(ds, cfg.out_dir / "dataset", seed=cfg.sample_seed, scm=cfg.scm)
    for kind, path in sorted(written.items()):
        print(f"{kind}: {path}")
    return EXIT_OK


def _load_current_dataset(cfg: ExperimentConfig, g: LatentGraph):
    """The dataset under ``cfg.out_dir``, refused when its header shows it
    was written for another graph (by its nodes, then its layout), ``n``,
    ``sample_seed`` or ``scm`` section."""
    base = cfg.out_dir / "dataset"
    header = read_header(base.with_suffix(".json"), "dataset", DATASET_FIELDS, "simulate")
    recorded_scm = header.get("scm") or {}
    require_current(base.with_suffix(".json"), "simulate", [
        ("graph", set(header["column_spans"]), set(g.node_ids)),
        ("graph.layout", header["layout"], list(g.layout)),
        ("n", header["n"], cfg.n), ("sample_seed", header.get("seed"), cfg.sample_seed),
        *((f"scm.{key}", recorded_scm.get(key), value) for key, value in asdict(cfg.scm).items()),
    ])
    return load_dataset(base, header)


def _trainable_info(g: LatentGraph, mask: Mask) -> SharedInfo:
    """The located shared set for a mask a model is to be trained on.  A
    mask whose ``c`` is empty is refused whatever ``mae.d_c`` says: no
    latent links its two sides, so a code would have nothing to identify."""
    info = locate_shared_info(g, mask)
    if not info.c:
        raise ConfigError(
            f"mask {','.join(sorted(mask.masked))}: the masked and visible observables share no "
            "latent (the located c is empty), so there is no shared code to train"
        )
    return info


def _train_cell(cfg: ExperimentConfig, ds, mask: Mask, info: SharedInfo):
    """Train the masked autoencoder on ``mask``, whose shared set ``info``
    comes from ``_trainable_info``; returns ``(model, curve)``.  The code
    and noise widths are ``mae.d_c``/``mae.d_sm``, or the located
    ``c``/``s_m``'s total width read from the dataset's columns."""
    widths = {v: length for v, (_, length) in ds.column_spans.items()}
    mae = cfg.mae
    d_c = sum(widths[v] for v in info.c) if mae.d_c is None else mae.d_c
    d_sm = sum(widths[v] for v in info.s_m) if mae.d_sm is None else mae.d_sm
    return train(ds, mask, d_c, d_sm, mae.train, hidden=mae.hidden, slope=mae.slope)


def _code_and_blocks(ds, model, mask: Mask, info: SharedInfo) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``model``'s code ``chat`` for ``mask``, encoded from the visible
    columns, and the located ``c`` and ``s_m`` blocks: the inputs of
    ``block_identifiability``, each a copy that holds no reference to ``ds``."""
    visible_nodes = [v for v in ds.layout if v not in mask.masked]
    return encode(model, ds.stack(visible_nodes), mask), *extract_blocks(ds, info)


def cmd_train(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    g, mask = cfg.load_graph()
    ds = _load_current_dataset(cfg, g)
    model, curve = _train_cell(cfg, ds, mask, _trainable_info(g, mask))
    written = save_model(model, cfg.out_dir / "model")
    curve_path = write_csv(cfg.out_dir / "loss_curve.csv", ["epoch", "loss"], list(enumerate(curve)))
    print(f"checkpoint: {written['json']}")
    print(f"loss_curve: {curve_path}")
    print(f"final_loss: {curve[-1]!r}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    g, mask = cfg.load_graph()
    model_base = cfg.out_dir / "model"
    model_header = read_header(model_base.with_suffix(".json"), "checkpoint", MODEL_FIELDS, "train")
    ds = _load_current_dataset(cfg, g)
    model = load_model(model_base, model_header)
    expected = tuple(sorted(mask.masked))
    require_current(model_base.with_suffix(".json"), "train", [("mask", model.mask, expected)])
    info = locate_shared_info(g, mask)
    chat, c_block, s_m_block = _code_and_blocks(ds, model, mask, info)
    n = ds.n
    del ds  # released before the kernel fits, which need only the code and the two blocks
    report = block_identifiability(chat, c_block, s_m_block, cfg.ident)
    payload = report.to_dict()
    payload["mask"] = sorted(mask.masked)
    payload["c"] = sorted(info.c)
    write_json(payload, cfg.out_dir / "ident_report.json")
    row = [cfg.graph, ";".join(expected), n, report.r2_c_from_chat, report.r2_chat_from_c,
           report.r2_sm_from_chat, report.n_train, report.n_test]
    write_csv(cfg.out_dir / "summary.csv", ["graph", "mask", "n", "r2_c_from_chat", "r2_chat_from_c", "r2_sm_from_chat",
                                            "n_train", "n_test"], [row], append=True)
    print(f"ident_report: {cfg.out_dir / 'ident_report.json'}")
    print(f"r2_c_from_chat: {report.r2_c_from_chat!r}")
    print(f"r2_chat_from_c: {report.r2_chat_from_c!r}")
    print(f"r2_sm_from_chat: {report.r2_sm_from_chat!r}")
    return EXIT_OK


def _cells(
    g: LatentGraph, ratios: Sequence[float], patches: Sequence[int], seed: int
) -> list[tuple[MaskSampler, np.random.Generator]]:
    """Each distinct (ratio, patch) cell once, in sorted order, as its
    ``_sampler`` with its own generator spawned from ``seed``; every cell is
    built, and the first refused one is a ``ConfigError``, before any mask
    is drawn.  A cell's masks are its generator's successive draws,
    ``mask_idx`` 0 first; the training sweep trains that first one."""
    cells = sorted({(float(r), int(s)) for r in ratios for s in patches})
    samplers = [_sampler(r, s, g, "--ratios", "--patches") for r, s in cells]
    return list(zip(samplers, map(np.random.default_rng, np.random.SeedSequence(seed).spawn(len(cells)))))


def sweep_rows(
    g: LatentGraph,
    ratios: Sequence[float],
    patches: Sequence[int],
    k_masks: int,
    seed: int,
) -> list[list]:
    """One row per sampled mask: level statistics of the located shared set.

    Each cell's masks are drawn by one ``MaskSampler.draw_many`` call, whose
    K x layout rows fill the cell's slice of one (cells x K) x layout
    boolean matrix of masked observables.  ``_locate_c_rows`` answers the
    whole grid from the graph's cached matrices, over ``nets.row_blocks``
    of its rows, and gives every mask's ``c`` on the latent columns,
    gathering no ``s_m`` or ``s_mc``.  The row's statistics are vector sums
    and maxima over the latents' level and dimension tables, emitted as
    Python ints and floats.  A cell that ``_cells`` refuses, or a grid of
    more than ``MAX_SWEEP_ROWS`` rows, is a ``ConfigError`` before any mask
    is drawn."""
    bits = g.bit_index()
    mats = bits.matrices
    level, dim = np.array(bits.level)[mats.latents], np.array(bits.dim)[mats.latents]
    cells = _cells(g, ratios, patches, seed)
    if len(cells) * k_masks > MAX_SWEEP_ROWS:
        raise ConfigError(
            f"--masks-per-cell {k_masks} over {len(cells)} cells asks for {len(cells) * k_masks} sweep rows, "
            f"above the limit of {MAX_SWEEP_ROWS}"
        )
    masked = np.empty((len(cells) * k_masks, len(g.layout)), dtype=bool)
    for i, (sampler, rng) in enumerate(cells):
        masked[i * k_masks:(i + 1) * k_masks] = sampler.draw_many(rng, k_masks)
    c = np.empty((len(masked), len(mats.latents)), dtype=bool)
    for block in row_blocks(len(masked), max(masked.shape[1], c.shape[1])):
        c[block] = _locate_c_rows(mats, masked[block])[0]
    count = c.sum(axis=1)
    stats = zip(masked.sum(axis=1).tolist(), (c @ level / np.maximum(count, 1)).tolist(),
                (c * level).max(axis=1, initial=0).tolist(), (c @ dim).tolist())
    return [[sampler.r, sampler.s, k_masks, i, *next(stats)] for sampler, _ in cells for i in range(k_masks)]


SWEEP_HEADER = ["r", "s", "k_masks", "mask_idx", "n_masked", "mean_level", "max_level", "total_dim"]
TRAINING_SWEEP_HEADER = ["r", "s", "mask", "d_c", "d_sm", "final_loss",
                         "r2_c_from_chat", "r2_chat_from_c", "r2_sm_from_chat"]


def training_cells(
    g: LatentGraph, ratios: Sequence[float], patches: Sequence[int], seed: int
) -> list[tuple[float, int, Mask, SharedInfo]]:
    """Each cell's first sampled mask with its located shared set, all
    refused by ``_trainable_info`` before any cell is trained."""
    cells = []
    for sampler, rng in _cells(g, ratios, patches, seed):
        mask = sample_mask(sampler, rng)
        cells.append((sampler.r, sampler.s, mask, _trainable_info(g, mask)))
    return cells


def training_sweep_rows(
    ds, cells: Sequence[tuple[float, int, Mask, SharedInfo]], cfg: ExperimentConfig
) -> list[list]:
    """Slow path: per cell from ``training_cells``, train and score on its
    mask, as ``train`` and ``evaluate`` do.  The dataset, the one that
    ``simulate`` wrote, is mask-independent and shared across cells."""
    rows = []
    for r, s, mask, info in cells:
        model, curve = _train_cell(cfg, ds, mask, info)
        report = block_identifiability(*_code_and_blocks(ds, model, mask, info), cfg.ident)
        rows.append([
            r, s, ";".join(sorted(mask.masked)), model.d_c, model.d_sm, curve[-1],
            report.r2_c_from_chat, report.r2_chat_from_c, report.r2_sm_from_chat,
        ])
    return rows


def _parse_values(raw: str, kind, flag: str, what: str) -> list:
    try:
        return [kind(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"{flag} must be a comma-separated list of {what}, got {raw}") from None


def cmd_sweep(args) -> int:
    _require_count(args.masks_per_cell, "--masks-per-cell")
    _require_count(args.seed, "--seed")
    g = _resolve_graph(args.graph)
    ratios = _parse_values(args.ratios, float, "--ratios", "numbers")
    patches = _parse_values(args.patches, int, "--patches", "integers")
    if not ratios or not patches:
        raise ConfigError("sweep needs at least one ratio and one patch size")
    rows = sweep_rows(g, ratios, patches, args.masks_per_cell, args.seed)  # refuses a bad grid first
    if args.config is not None:
        cfg = ExperimentConfig.load(args.config)
        config_graph, _ = cfg.load_graph()
        if (config_graph.edges, config_graph.layout) != (g.edges, g.layout):
            raise ConfigError(
                f"the config's graph {cfg.graph!r} is not the swept graph {args.graph!r}; "
                "the training sweep trains on the dataset that simulate wrote for the config"
            )
        cells = training_cells(g, ratios, patches, args.seed)
        ds = _load_current_dataset(cfg, g)
    out = Path(args.out)
    write_csv(out, SWEEP_HEADER, rows)
    print(f"sweep: {out} ({len(rows)} rows)")
    if args.config is not None:
        training_out = out.with_name(out.stem + "_training" + out.suffix)
        training = training_sweep_rows(ds, cells, cfg)
        write_csv(training_out, TRAINING_SWEEP_HEADER, training)
        print(f"training sweep: {training_out} ({len(training)} rows)")
    return EXIT_OK


# -- entry point ---------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call only: argparse
    spends about 1 ms per build, mostly per-argument lookups, and parsing
    leaves the parser as it was, so every ``main`` call of a process can
    share one."""
    parser = _Parser(prog="latentlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("locate", help="locate the shared latent set for a mask")
    p.add_argument("graph", help="graph JSON file (or packaged fixture name)")
    p.add_argument("--mask", help="comma-separated observable ids")
    p.add_argument("--ratio", type=float, help="sample the mask: masking ratio in (0,1)")
    p.add_argument("--patch", type=int, help="sample the mask: patch size")
    p.add_argument("--seed", type=int, help="sample the mask: draw seed")
    p.add_argument("--check-minimal", action="store_true",
                   help="also compare against the exhaustive oracle (small graphs only)")
    p.add_argument("--out", help="write the JSON report here as well")

    p = sub.add_parser("verify", help="compare the search against the exhaustive oracle")
    p.add_argument("graph")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("simulate", help="build the simulator and write a dataset")
    p.add_argument("--config", required=True)

    p = sub.add_parser("train", help="train the masked autoencoder on a dataset")
    p.add_argument("--config", required=True)

    p = sub.add_parser("evaluate", help="score block identifiability of a checkpoint")
    p.add_argument("--config", required=True)

    p = sub.add_parser("sweep", help="scan masking ratio and patch size cells")
    p.add_argument("graph")
    p.add_argument("--ratios", required=True, help="comma-separated ratios in (0,1)")
    p.add_argument("--patches", required=True, help="comma-separated patch sizes")
    p.add_argument("--masks-per-cell", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--config", help="experiment config: also train and score a model on each cell's first "
                                    "mask, on the dataset simulate wrote for it (slow)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Looked up by name on every call, so that a wrapper or stand-in bound
        # to ``cmd_<name>`` after the parser was built is the one that runs.
        return globals()["cmd_" + args.command](args)
    except (OSError, KeyError, ValueError, MemoryError) as exc:  # a ConfigError is a ValueError
        print(f"latentlab: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDiverged, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"latentlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
