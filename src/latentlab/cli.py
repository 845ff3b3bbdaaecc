"""Command-line front door.

Six subcommands: ``locate`` and ``verify`` work directly on a graph file;
``simulate``, ``train``, and ``evaluate`` run the staged experiment described
by a config file; ``sweep`` scans masking ratios and patch sizes.  Exit
codes: 0 success, 1 usage error, 2 data or validation error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from latentlab import fixtures
from latentlab.graph import LatentGraph, Mask, derive_dims, load_graph, validate_graph
from latentlab.ident import RegressorConfig, block_identifiability
from latentlab.locate import (
    ORACLE_MAX_LATENTS,
    brute_force_minimal_c,
    level_stats,
    locate_c,
    locate_shared_info,
    verify_conditions,
)
from latentlab.mae import (
    MaskSampler,
    TrainConfig,
    TrainingDiverged,
    encode,
    load_model,
    sample_mask,
    save_loss_curve,
    save_model,
    train,
)
from latentlab.scm import build_scm, extract_blocks, load_dataset, sample, save_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


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
    report = validate_graph(g)
    if not report.ok:
        raise ConfigError("invalid graph: " + "; ".join(report.violations))
    return g


def _parse_mask_list(g: LatentGraph, raw: str) -> Mask:
    ids = [token.strip() for token in raw.split(",") if token.strip()]
    if not ids:
        raise ConfigError("mask is empty")
    unknown = [v for v in ids if v not in set(g.observables)]
    if unknown:
        raise ConfigError(f"mask names are not observables: {unknown}")
    return Mask(ids)


def _dump_json(data, path: Path | None) -> str:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return text


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _csv_cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


# -- experiment config ------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    graph_path: str
    mask_spec: dict
    scm_params: dict
    n: int
    sample_seed: int
    mae_params: dict
    ident_params: dict
    out_dir: Path

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        for key in ("graph", "mask", "scm", "n", "sample_seed", "mae", "ident", "out_dir"):
            if key not in raw:
                raise ConfigError(f"config is missing the {key!r} entry")
        _check_kinds(raw, "")
        scm_params = _section(raw["scm"], "scm")
        if "seed" not in scm_params:
            raise ConfigError("scm config must carry an explicit seed")
        mae_params = _section(raw["mae"], "mae")
        train_params = _section(mae_params.get("train", {}), "mae.train")
        if "seed" not in train_params:
            raise ConfigError("mae.train config must carry an explicit seed")
        mae_params["train"] = train_params
        ident_params = _section(raw["ident"], "ident")
        if "seed" not in ident_params:
            raise ConfigError("ident config must carry an explicit seed")
        mask_spec = _section(raw["mask"], "mask")
        if "observables" not in mask_spec and "seed" not in mask_spec:
            raise ConfigError("sampled masks must carry an explicit seed")
        cfg = cls(
            graph_path=str(raw["graph"]),
            mask_spec=mask_spec,
            scm_params=scm_params,
            n=int(raw["n"]),
            sample_seed=int(raw["sample_seed"]),
            mae_params=mae_params,
            ident_params=ident_params,
            out_dir=path.parent / raw["out_dir"] if not Path(raw["out_dir"]).is_absolute() else Path(raw["out_dir"]),
        )
        cfg.train_config()  # every stage rejects bad settings before it runs
        cfg.regressor_config()
        return cfg

    def graph(self) -> LatentGraph:
        return _resolve_graph(self.graph_path)

    def mask(self, g: LatentGraph) -> Mask:
        if "observables" in self.mask_spec:
            return _parse_mask_list(g, ",".join(self.mask_spec["observables"]))
        sampler = MaskSampler(
            float(self.mask_spec["ratio"]), int(self.mask_spec["patch"]), tuple(g.layout)
        )
        return sample_mask(sampler, np.random.default_rng(int(self.mask_spec["seed"])))

    def build(self, g: LatentGraph):
        params = self.scm_params
        return build_scm(
            g,
            exo_dims=params.get("exo_dims") or None,
            layers=int(params.get("layers", 2)),
            alpha=float(params.get("alpha", 0.2)),
            seed=int(params["seed"]),
            bias=bool(params.get("bias", False)),
        )

    def train_config(self) -> TrainConfig:
        cfg = _build_section(TrainConfig, self.mae_params["train"], "mae.train")
        if cfg.mask_mode != "fixed":
            raise ConfigError(
                f"config value 'mae.train.mask_mode' is {cfg.mask_mode!r}, but the CLI trains "
                "the one mask in 'mask'; set it to 'fixed'"
            )
        return cfg

    def regressor_config(self) -> RegressorConfig:
        params = dict(self.ident_params)
        if "mlp_hidden" in params:
            params["mlp_hidden"] = tuple(params["mlp_hidden"])
        return _build_section(RegressorConfig, params, "ident")


def _section(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object, got {type(value).__name__}")
    _check_kinds(value, name)
    return dict(value)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_KINDS = {
    "an integer": _is_integer,
    "an integer or null": lambda v: v is None or _is_integer(v),
    "a number": lambda v: _is_integer(v) or isinstance(v, float),
    "a boolean": lambda v: isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "a list of integers": lambda v: isinstance(v, list) and all(map(_is_integer, v)),
    "an object of integers or null": lambda v: v is None
    or isinstance(v, dict) and all(map(_is_integer, v.values())),
}

# The JSON type of each config value that the `mae.train` and `ident`
# settings classes do not check themselves, by section ("" is the top level).
_VALUE_KINDS = {
    "": {"graph": "a string", "n": "an integer", "sample_seed": "an integer", "out_dir": "a string"},
    "mask": {"observables": "a list of strings", "ratio": "a number", "patch": "an integer",
             "seed": "an integer"},
    "scm": {"exo_dims": "an object of integers or null", "layers": "an integer",
            "alpha": "a number", "seed": "an integer", "bias": "a boolean"},
    "mae": {"d_c": "an integer or null", "d_sm": "an integer or null",
            "hidden": "a list of integers", "slope": "a number"},
}


def _check_kinds(section: dict, name: str) -> None:
    for key, kind in _VALUE_KINDS.get(name, {}).items():
        if key in section and not _KINDS[kind](section[key]):
            label = f"{name}.{key}" if name else key
            raise ConfigError(f"config value {label!r} must be {kind}, got {json.dumps(section[key])}")


def _build_section(kind, params: dict, name: str):
    """The settings dataclass ``kind`` from a config section; an unknown key
    or a rejected value is a ``ConfigError`` naming the section."""
    unknown = sorted(set(params) - {f.name for f in fields(kind)})
    if unknown:
        raise ConfigError(f"config section {name!r} has unknown key(s): {', '.join(map(repr, unknown))}")
    try:
        return kind(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config section {name!r}: {exc}") from exc


def _model_dims(cfg: ExperimentConfig, g: LatentGraph, spec) -> tuple[int, int, Mask]:
    mask = cfg.mask(g)
    info = locate_shared_info(g, mask)
    d_c = cfg.mae_params.get("d_c")
    d_sm = cfg.mae_params.get("d_sm")
    if d_c is None:
        d_c = sum(spec.dims[v] for v in info.c)
    if d_sm is None:
        d_sm = sum(spec.dims[v] for v in info.s_m)
    if d_c < 1:
        raise ConfigError("located shared set is empty; set mae.d_c explicitly")
    return int(d_c), int(d_sm), mask


# -- subcommands -------------------------------------------------------------------


def cmd_locate(args) -> int:
    g = _resolve_graph(args.graph)
    if args.mask is not None:
        mask = _parse_mask_list(g, args.mask)
    elif args.ratio is not None:
        if args.patch is None or args.seed is None:
            raise ConfigError("sampled masks need --ratio, --patch, and --seed")
        sampler = MaskSampler(args.ratio, args.patch, tuple(g.layout))
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
        "report": {
            "invertible_masked": report.invertible_masked,
            "invertible_visible": report.invertible_visible,
            "recoverable_from_masked": report.recoverable_from_masked,
            "independence_ok": report.independence_ok,
            "minimal_ok": report.minimal_ok,
            "total_dim_c": report.total_dim_c,
            "witnesses": list(report.witnesses),
        },
    }
    print(_dump_json(payload, Path(args.out) if args.out else None), end="")
    return EXIT_OK if report.all_ok else EXIT_DATA


def cmd_verify(args) -> int:
    g = _resolve_graph(args.graph)
    if len(g.latents) > args.max_latents:
        raise ConfigError(
            f"graph has {len(g.latents)} latents, above the oracle cap {args.max_latents}"
        )
    dims = derive_dims(g)
    observables = sorted(g.observables)
    seeds = np.random.SeedSequence(args.seed).spawn(args.trials)

    def run_trial(trial_seed) -> dict:
        rng = np.random.default_rng(trial_seed)
        k = int(rng.integers(1, len(observables)))
        mask = Mask(str(v) for v in rng.choice(observables, size=k, replace=False))
        info = locate_shared_info(g, mask)
        oracle = brute_force_minimal_c(g, mask, dims, max_latents=args.max_latents)
        flags = verify_conditions(g, mask, info)
        return {
            "mask": sorted(mask.masked),
            "match": info.c == oracle.c and info.s_m == oracle.s_m,
            "ties": len(oracle.ties),
            "flags_ok": flags.invertible_masked
            and flags.invertible_visible
            and flags.recoverable_from_masked
            and flags.independence_ok,
        }

    results = [run_trial(trial_seed) for trial_seed in seeds]
    mismatches = [r for r in results if not r["match"]]
    flag_failures = [r for r in results if not r["flags_ok"]]
    ties = sum(r["ties"] for r in results)
    print(f"trials={args.trials} mismatches={len(mismatches)} "
          f"flag_failures={len(flag_failures)} ties={ties}")
    for r in mismatches:
        print(f"  mismatch on mask {','.join(r['mask'])}")
    return EXIT_OK if not mismatches and not flag_failures else EXIT_DATA


def cmd_simulate(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    g = cfg.graph()
    spec = cfg.build(g)
    ds = sample(spec, cfg.n, seed=cfg.sample_seed)
    written = save_dataset(ds, cfg.out_dir / "dataset", seed=cfg.sample_seed)
    for kind, path in sorted(written.items()):
        print(f"{kind}: {path}")
    return EXIT_OK


def _load_current_dataset(cfg: ExperimentConfig, g: LatentGraph):
    """The dataset under ``cfg.out_dir``, refused when its header shows it
    was written for another graph, ``n`` or ``sample_seed``."""
    base = cfg.out_dir / "dataset"
    header_path = base.with_suffix(".json")
    if not header_path.exists():
        raise ConfigError(f"dataset not found under {cfg.out_dir}; run simulate first")
    header = json.loads(header_path.read_text())
    if not isinstance(header, dict):
        raise ConfigError(f"{header_path} is not a dataset header; run simulate again")
    if set(header.get("column_spans", ())) != set(g.node_ids):
        raise ConfigError(
            f"{header_path} is stale: its nodes are not those of the config's graph "
            f"{cfg.graph_path!r}; run simulate again"
        )
    for field, key, expected in (("n", "n", cfg.n), ("seed", "sample_seed", cfg.sample_seed)):
        if header.get(field) != expected:
            raise ConfigError(
                f"{header_path} is stale: its {field} is {header.get(field)!r}, "
                f"but the config's {key!r} is {expected!r}; run simulate again"
            )
    return load_dataset(base)


def cmd_train(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    g = cfg.graph()
    ds = _load_current_dataset(cfg, g)
    spec = cfg.build(g)
    d_c, d_sm, mask = _model_dims(cfg, g, spec)
    model, curve = train(
        ds,
        mask,
        d_c=d_c,
        d_sm=d_sm,
        cfg=cfg.train_config(),
        hidden=tuple(cfg.mae_params.get("hidden", (64, 64))),
        slope=float(cfg.mae_params.get("slope", 0.2)),
    )
    written = save_model(model, cfg.out_dir / "model")
    curve_path = save_loss_curve(curve, cfg.out_dir / "loss_curve.csv")
    print(f"checkpoint: {written['json']}")
    print(f"loss_curve: {curve_path}")
    print(f"final_loss: {curve[-1]!r}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    g = cfg.graph()
    model_base = cfg.out_dir / "model"
    if not model_base.with_suffix(".json").exists():
        raise ConfigError(f"checkpoint not found under {cfg.out_dir}; run train first")
    ds = _load_current_dataset(cfg, g)
    model = load_model(model_base)
    mask = cfg.mask(g)
    expected = tuple(sorted(mask.masked))
    if model.mask != expected:
        trained = "no mask" if model.mask is None else f"mask {','.join(map(str, model.mask))}"
        raise ConfigError(
            f"{model_base.with_suffix('.json')} records {trained}, but the config's mask is "
            f"{','.join(expected)}; run train again"
        )
    info = locate_shared_info(g, mask)
    visible_nodes = [v for v in ds.layout if v not in mask.masked]
    chat = encode(model, ds.stack(visible_nodes), mask)
    c_block, s_m_block, *_ = extract_blocks(ds, info)
    report = block_identifiability(chat, c_block, s_m_block, cfg.regressor_config())
    payload = report.to_dict()
    payload["mask"] = sorted(mask.masked)
    payload["c"] = sorted(info.c)
    _dump_json(payload, cfg.out_dir / "ident_report.json")
    summary = cfg.out_dir / "summary.csv"
    header = "graph,mask,n,r2_c_from_chat,r2_chat_from_c,r2_sm_from_chat,n_train,n_test"
    line = ",".join(
        [
            cfg.graph_path,
            ";".join(sorted(mask.masked)),
            str(ds.n),
            repr(report.r2_c_from_chat),
            repr(report.r2_chat_from_c),
            repr(report.r2_sm_from_chat),
            str(report.n_train),
            str(report.n_test),
        ]
    )
    if not summary.exists():
        summary.write_text(header + "\n" + line + "\n")
    else:
        with open(summary, "a") as fh:
            fh.write(line + "\n")
    print(f"ident_report: {cfg.out_dir / 'ident_report.json'}")
    print(f"r2_c_from_chat: {report.r2_c_from_chat!r}")
    print(f"r2_chat_from_c: {report.r2_chat_from_c!r}")
    print(f"r2_sm_from_chat: {report.r2_sm_from_chat!r}")
    return EXIT_OK


def sweep_rows(
    g: LatentGraph,
    ratios: Sequence[float],
    patches: Sequence[int],
    k_masks: int,
    seed: int,
) -> list[list]:
    """One row per sampled mask: level statistics of the located shared set."""
    dims = derive_dims(g)
    cells = sorted((float(r), int(s)) for r in ratios for s in patches)
    cell_seeds = np.random.SeedSequence(seed).spawn(len(cells))

    rows = []
    for (r, s), cell_seed in zip(cells, cell_seeds):
        rng = np.random.default_rng(cell_seed)
        sampler = MaskSampler(r, s, tuple(g.layout))
        for idx in range(k_masks):
            mask = sample_mask(sampler, rng)
            c, _ = locate_c(g, mask)
            stats = level_stats(g, c, dims=dims)
            rows.append(
                [r, s, k_masks, idx, len(mask.masked),
                 float(stats["mean_level"]), int(stats["max_level"]), int(stats["total_dim"])]
            )
    return rows


SWEEP_HEADER = ["r", "s", "k_masks", "mask_idx", "n_masked", "mean_level", "max_level", "total_dim"]
TRAINING_SWEEP_HEADER = ["r", "s", "mask", "d_c", "d_sm", "final_loss",
                         "r2_c_from_chat", "r2_chat_from_c", "r2_sm_from_chat"]


def training_sweep_rows(
    g: LatentGraph,
    ratios: Sequence[float],
    patches: Sequence[int],
    seed: int,
    cfg: ExperimentConfig,
) -> list[list]:
    """Slow path: per cell, train and score on that cell's first sampled mask.
    The dataset is mask-independent and shared across cells."""
    spec = cfg.build(g)
    ds = sample(spec, cfg.n, seed=cfg.sample_seed)
    cells = sorted((float(r), int(s)) for r in ratios for s in patches)
    cell_seeds = np.random.SeedSequence(seed).spawn(len(cells))
    rows = []
    for (r, s), cell_seed in zip(cells, cell_seeds):
        sampler = MaskSampler(r, s, tuple(g.layout))
        mask = sample_mask(sampler, np.random.default_rng(cell_seed))
        info = locate_shared_info(g, mask)
        d_c = max(1, sum(spec.dims[v] for v in info.c))
        d_sm = sum(spec.dims[v] for v in info.s_m)
        model, curve = train(
            ds, mask, d_c=d_c, d_sm=d_sm, cfg=cfg.train_config(),
            hidden=tuple(cfg.mae_params.get("hidden", (64, 64))),
            slope=float(cfg.mae_params.get("slope", 0.2)),
        )
        visible_nodes = [v for v in ds.layout if v not in mask.masked]
        chat = encode(model, ds.stack(visible_nodes), mask)
        c_block, s_m_block, *_ = extract_blocks(ds, locate_shared_info(g, mask))
        report = block_identifiability(chat, c_block, s_m_block, cfg.regressor_config())
        rows.append([
            r, s, ";".join(sorted(mask.masked)), d_c, d_sm, curve[-1],
            report.r2_c_from_chat, report.r2_chat_from_c, report.r2_sm_from_chat,
        ])
    return rows


def cmd_sweep(args) -> int:
    g = _resolve_graph(args.graph)
    ratios = [float(x) for x in args.ratios.split(",") if x.strip()]
    patches = [int(x) for x in args.patches.split(",") if x.strip()]
    if not ratios or not patches:
        raise ConfigError("sweep needs at least one ratio and one patch size")
    rows = sweep_rows(g, ratios, patches, args.masks_per_cell, args.seed)
    out = Path(args.out)
    _write_csv(out, SWEEP_HEADER, rows)
    print(f"sweep: {out} ({len(rows)} rows)")
    if args.with_training:
        if not args.config:
            raise ConfigError("--with-training needs --config for simulator and training settings")
        cfg = ExperimentConfig.load(args.config)
        training_out = out.with_name(out.stem + "_training" + out.suffix)
        training = training_sweep_rows(g, ratios, patches, args.seed, cfg)
        _write_csv(training_out, TRAINING_SWEEP_HEADER, training)
        print(f"training sweep: {training_out} ({len(training)} rows)")
    return EXIT_OK


# -- entry point ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(fn=cmd_locate)

    p = sub.add_parser("verify", help="compare the search against the exhaustive oracle")
    p.add_argument("graph")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-latents", type=int, default=ORACLE_MAX_LATENTS)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="build the simulator and write a dataset")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("train", help="train the masked autoencoder on a dataset")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="score block identifiability of a checkpoint")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("sweep", help="scan masking ratio and patch size cells")
    p.add_argument("graph")
    p.add_argument("--ratios", required=True, help="comma-separated ratios in (0,1)")
    p.add_argument("--patches", required=True, help="comma-separated patch sizes")
    p.add_argument("--masks-per-cell", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--with-training", action="store_true",
                   help="also train and score a model per cell (slow; needs --config)")
    p.add_argument("--config", help="experiment config for the training sweep")
    p.set_defaults(fn=cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"latentlab: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingDiverged, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"latentlab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
