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
from latentlab.graph import LatentGraph, Mask, derive_dims, load_graph
from latentlab.ident import IdentReport, RegressorConfig, block_identifiability
from latentlab.locate import (
    ORACLE_MAX_LATENTS,
    SharedInfo,
    _locate_bits,
    _require_valid,
    brute_force_minimal_c,
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
from latentlab.scm import JSON_KINDS, build_scm, extract_blocks, load_dataset, read_header, sample, save_dataset

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
    _require_valid(g)
    return g


def _parse_mask_list(g: LatentGraph, raw: str) -> Mask:
    ids = [token.strip() for token in raw.split(",") if token.strip()]
    if not ids:
        raise ConfigError("mask is empty")
    observables = set(g.observables)
    unknown = [v for v in ids if v not in observables]
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
    lines += (",".join(map(_csv_cell, row)) for row in rows)
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
        sampler = _sampler(
            float(self.mask_spec["ratio"]), int(self.mask_spec["patch"]), g, "mask.ratio", "mask.patch"
        )
        return sample_mask(sampler, np.random.default_rng(int(self.mask_spec["seed"])))

    def scm_settings(self) -> dict:
        """The ``scm`` section with its defaults filled in: ``build_scm``'s
        arguments besides the graph, as ``dataset.json`` records them."""
        params = self.scm_params
        return {
            "exo_dims": params.get("exo_dims") or None,
            "layers": int(params.get("layers", 2)),
            "alpha": float(params.get("alpha", 0.2)),
            "seed": int(params["seed"]),
            "bias": bool(params.get("bias", False)),
        }

    def build(self, g: LatentGraph):
        return build_scm(g, **self.scm_settings())

    def train_config(self) -> TrainConfig:
        return _build_section(TrainConfig, self.mae_params["train"], "mae.train")

    def regressor_config(self) -> RegressorConfig:
        return _build_section(RegressorConfig, self.ident_params, "ident")


def _section(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object, got {type(value).__name__}")
    _check_kinds(value, name)
    return dict(value)


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
        if key in section and not JSON_KINDS[kind](section[key]):
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
    if args.mask is not None:
        mask = _parse_mask_list(g, args.mask)
    elif args.ratio is not None:
        if args.patch is None or args.seed is None:
            raise ConfigError("sampled masks need --ratio, --patch, and --seed")
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


def _require_count(value: int, flag: str) -> None:
    if value < 0:
        raise ConfigError(f"{flag} must be a non-negative count, got {value}")


def cmd_verify(args) -> int:
    _require_count(args.trials, "--trials")
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
    written = save_dataset(ds, cfg.out_dir / "dataset", seed=cfg.sample_seed, scm=cfg.scm_settings())
    for kind, path in sorted(written.items()):
        print(f"{kind}: {path}")
    return EXIT_OK


def _load_current_dataset(cfg: ExperimentConfig, g: LatentGraph):
    """The dataset under ``cfg.out_dir``, refused when its header shows it
    was written for another graph, ``n``, ``sample_seed`` or ``scm``
    section."""
    base = cfg.out_dir / "dataset"
    header_path = base.with_suffix(".json")
    if not header_path.exists():
        raise ConfigError(f"dataset not found under {cfg.out_dir}; run simulate first")
    schema = {"column_spans": "an object", "n": "an integer", "seed": "an integer", "scm": "an object"}
    header = read_header(header_path, "dataset", schema, "simulate")
    if set(header["column_spans"]) != set(g.node_ids):
        raise ConfigError(
            f"{header_path} is stale: its nodes are not those of the config's graph "
            f"{cfg.graph_path!r}; run simulate again"
        )
    for field, key, expected in (("n", "n", cfg.n), ("seed", "sample_seed", cfg.sample_seed)):
        if header[field] != expected:
            raise ConfigError(
                f"{header_path} is stale: its {field} is {header[field]!r}, "
                f"but the config's {key!r} is {expected!r}; run simulate again"
            )
    recorded = header["scm"]
    for key, expected in cfg.scm_settings().items():
        if recorded.get(key) != expected:
            raise ConfigError(
                f"{header_path} is stale: its scm.{key} is {recorded.get(key)!r}, "
                f"but the config's 'scm.{key}' is {expected!r}; run simulate again"
            )
    return load_dataset(base)


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
    d_c, d_sm = cfg.mae_params.get("d_c"), cfg.mae_params.get("d_sm")
    return train(
        ds,
        mask,
        d_c=sum(widths[v] for v in info.c) if d_c is None else d_c,
        d_sm=sum(widths[v] for v in info.s_m) if d_sm is None else d_sm,
        cfg=cfg.train_config(),
        hidden=tuple(cfg.mae_params.get("hidden", (64, 64))),
        slope=float(cfg.mae_params.get("slope", 0.2)),
    )


def _score_cell(cfg: ExperimentConfig, ds, model, mask: Mask, info: SharedInfo) -> IdentReport:
    """Block identifiability of ``model``'s code for ``mask``, encoded from
    the visible columns, against the located ``c`` and ``s_m``."""
    visible_nodes = [v for v in ds.layout if v not in mask.masked]
    chat = encode(model, ds.stack(visible_nodes), mask)
    c_block, s_m_block, *_ = extract_blocks(ds, info)
    return block_identifiability(chat, c_block, s_m_block, cfg.regressor_config())


def cmd_train(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    g = cfg.graph()
    ds = _load_current_dataset(cfg, g)
    mask = cfg.mask(g)
    model, curve = _train_cell(cfg, ds, mask, _trainable_info(g, mask))
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
    report = _score_cell(cfg, ds, model, mask, info)
    payload = report.to_dict()
    payload["mask"] = sorted(mask.masked)
    payload["c"] = sorted(info.c)
    _dump_json(payload, cfg.out_dir / "ident_report.json")
    summary = cfg.out_dir / "summary.csv"
    if not summary.exists():
        summary.write_text("graph,mask,n,r2_c_from_chat,r2_chat_from_c,r2_sm_from_chat,n_train,n_test\n")
    row = [cfg.graph_path, ";".join(expected), ds.n, report.r2_c_from_chat, report.r2_chat_from_c,
           report.r2_sm_from_chat, report.n_train, report.n_test]
    with open(summary, "a") as fh:
        fh.write(",".join(map(_csv_cell, row)) + "\n")
    print(f"ident_report: {cfg.out_dir / 'ident_report.json'}")
    print(f"r2_c_from_chat: {report.r2_c_from_chat!r}")
    print(f"r2_chat_from_c: {report.r2_chat_from_c!r}")
    print(f"r2_sm_from_chat: {report.r2_sm_from_chat!r}")
    return EXIT_OK


def _cells(ratios: Sequence[float], patches: Sequence[int], seed: int):
    """Each (ratio, patch) cell in sorted order with its own generator,
    spawned from ``seed``.  A cell's masks are its generator's successive
    draws, ``mask_idx`` 0 first; the training sweep trains that first one."""
    cells = sorted((float(r), int(s)) for r in ratios for s in patches)
    for (r, s), cell_seed in zip(cells, np.random.SeedSequence(seed).spawn(len(cells))):
        yield r, s, np.random.default_rng(cell_seed)


def sweep_rows(
    g: LatentGraph,
    ratios: Sequence[float],
    patches: Sequence[int],
    k_masks: int,
    seed: int,
) -> list[list]:
    """One row per sampled mask: level statistics of the located shared set.

    The graph is checked once.  Each cell's masks are drawn as patch
    indices, and each mask goes through ``locate_c``'s bit-mask core on
    per-patch tables: the patch's node bits, their proper ancestors and its
    size.  The layout is a permutation of the observables, so the patches
    left unchosen hold the visible side.  The row is read from the graph's
    level and dimension tables."""
    _require_valid(g)
    bits = g.bit_index()
    level, dim = bits.level, bits.dim
    rows = []
    for r, s, rng in _cells(ratios, patches, seed):
        sampler = MaskSampler(r, s, tuple(g.layout))
        patch_bits = [bits.encode(patch) for patch in sampler.patches]
        patch_anc = [bits.proper_ancestors(b) for b in patch_bits]
        patch_size = [len(patch) for patch in sampler.patches]
        every_patch = (1 << len(patch_bits)) - 1
        for idx in range(k_masks):
            masked = chosen = n_masked = 0
            for i in sampler.draw(rng).tolist():
                masked |= patch_bits[i]
                chosen |= 1 << i
                n_masked += patch_size[i]
            c, _ = _locate_bits(bits, masked, bits.union(patch_anc, every_patch & ~chosen))
            members = bits.positions(c)
            if members:
                levels = [level[i] for i in members]
                stats = [sum(levels) / len(levels), max(levels), sum(dim[i] for i in members)]
            else:
                stats = [0.0, 0, 0]
            rows.append([r, s, k_masks, idx, n_masked, *stats])
    return rows


SWEEP_HEADER = ["r", "s", "k_masks", "mask_idx", "n_masked", "mean_level", "max_level", "total_dim"]
TRAINING_SWEEP_HEADER = ["r", "s", "mask", "d_c", "d_sm", "final_loss",
                         "r2_c_from_chat", "r2_chat_from_c", "r2_sm_from_chat"]


def training_cells(
    g: LatentGraph, ratios: Sequence[float], patches: Sequence[int], seed: int
) -> list[tuple[float, int, Mask, SharedInfo]]:
    """Each cell's first sampled mask with its located shared set, all
    refused by ``_trainable_info`` before any cell is trained."""
    cells = []
    for r, s, rng in _cells(ratios, patches, seed):
        mask = sample_mask(MaskSampler(r, s, tuple(g.layout)), rng)
        cells.append((r, s, mask, _trainable_info(g, mask)))
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
        report = _score_cell(cfg, ds, model, mask, info)
        rows.append([
            r, s, ";".join(sorted(mask.masked)), model.d_c, model.d_sm, curve[-1],
            report.r2_c_from_chat, report.r2_chat_from_c, report.r2_sm_from_chat,
        ])
    return rows


def cmd_sweep(args) -> int:
    _require_count(args.masks_per_cell, "--masks-per-cell")
    g = _resolve_graph(args.graph)
    ratios = [float(x) for x in args.ratios.split(",") if x.strip()]
    patches = [int(x) for x in args.patches.split(",") if x.strip()]
    if not ratios or not patches:
        raise ConfigError("sweep needs at least one ratio and one patch size")
    for r in ratios:
        for s in patches:
            _sampler(r, s, g, "--ratios", "--patches")
    cfg = cells = ds = None
    if args.with_training:
        if not args.config:
            raise ConfigError("--with-training needs --config for simulator and training settings")
        cfg = ExperimentConfig.load(args.config)
        config_graph = cfg.graph()
        if (config_graph.edges, config_graph.layout) != (g.edges, g.layout):
            raise ConfigError(
                f"the config's graph {cfg.graph_path!r} is not the swept graph {args.graph!r}; "
                "the training sweep trains on the dataset that simulate wrote for the config"
            )
        cells = training_cells(g, ratios, patches, args.seed)
        ds = _load_current_dataset(cfg, g)
    rows = sweep_rows(g, ratios, patches, args.masks_per_cell, args.seed)
    out = Path(args.out)
    _write_csv(out, SWEEP_HEADER, rows)
    print(f"sweep: {out} ({len(rows)} rows)")
    if cfg is not None:
        training_out = out.with_name(out.stem + "_training" + out.suffix)
        training = training_sweep_rows(ds, cells, cfg)
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
