"""Acceptance suite: every criterion checks its stated tolerance and prints
one PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

All artifacts are produced once per session with fixed seeds; the final
criterion regenerates everything into a second directory and requires the
primary outputs to be byte-identical.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from latentlab import Mask, derive_dims, fixture_path, load_graph
from latentlab.cli import main as cli_main
from latentlab.locate import (
    brute_force_minimal_c,
    locate_shared_info,
    verify_conditions,
)
from latentlab.mae import grad_check, init_mae_model
from latentlab.scm import ScmSettings, build_scm, invert_observables, jacobian_min_singular_value, sample
from latentlab.artifacts import write_csv
from latentlab.cli import sweep_rows, SWEEP_HEADER

from conftest import random_hierarchy, random_mask

MASTER_SEED = 20_260_810
N_ORACLE_PAIRS = 200
SCM_ALPHA = 0.5  # experiment mixing slope; module default stays 0.2
FIXTURES = ["fig4", "fig2", "bench3"]

EXPERIMENT_CONFIG = {
    "graph": "fig4",
    "mask": {"observables": ["x1", "x2", "x3"]},
    "scm": {"layers": 2, "alpha": SCM_ALPHA, "seed": 11},
    "n": 20_000,
    "sample_seed": 12,
    "mae": {"d_c": None, "d_sm": None, "hidden": [64, 64],
            "train": {"seed": 13}},  # TrainConfig defaults otherwise
    "ident": {"seed": 14},
    "out_dir": "run",
}


def announce(criterion: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion} [{label}]: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {criterion} [{label}] failed {suffix}"


# -- artifact generation (shared by the determinism rerun) -----------------------


def generate_oracle_pairs_csv(path: Path) -> None:
    rng = np.random.default_rng(MASTER_SEED)
    rows = []
    for trial in range(N_ORACLE_PAIRS):
        g = random_hierarchy(rng)
        mask = random_mask(rng, g)
        dims = derive_dims(g)
        info = locate_shared_info(g, mask)
        c, s_m = info.c, info.s_m
        oracle = brute_force_minimal_c(g, mask, dims)
        flags = verify_conditions(g, mask, info)
        rows.append([
            trial, len(g.latents), len(g.observables), ";".join(sorted(mask.masked)),
            int(c == oracle.c), int(s_m == oracle.s_m), len(oracle.ties),
            int(flags.invertible_masked), int(flags.invertible_visible),
            int(flags.recoverable_from_masked), int(flags.independence_ok),
        ])
    write_csv(path, ["trial", "n_latents", "n_observables", "mask", "c_match",
                      "s_m_match", "ties", "inv_masked", "inv_visible",
                      "recoverable", "independent"], rows)


def generate_roundtrip_csv(path: Path) -> None:
    rows = []
    for name in FIXTURES:
        g = load_graph(fixture_path(name))
        spec = build_scm(g, ScmSettings(seed=21, alpha=SCM_ALPHA))
        ds = sample(spec, 100, seed=22)
        recovered = invert_observables(spec, {v: ds.columns(v) for v in g.observables})
        worst = 0.0
        for v in g.exogenous:
            truth = ds.columns(v)
            scale = max(1e-12, float(np.abs(truth).max()))
            worst = max(worst, float(np.abs(recovered[v] - truth).max()) / scale)
        node = sorted(g.observables)[-1]
        rng = np.random.default_rng(23)
        sigma_min = min(
            jacobian_min_singular_value(spec, node, rng.standard_normal(spec.dims[node]))
            for _ in range(100)
        )
        rows.append([name, repr(worst), repr(sigma_min), repr(spec.settings.alpha ** spec.settings.layers)])
    write_csv(path, ["fixture", "max_rel_inversion_error", "min_sigma", "bound"], rows)


def generate_grad_check_csv(path: Path) -> None:
    rng = np.random.default_rng(MASTER_SEED + 1)
    rows = []
    for trial in range(20):
        n_pixels = int(rng.integers(4, 7))
        layout = tuple(f"o{i}" for i in range(n_pixels))
        model = init_mae_model(
            layout, {v: 1 for v in layout},
            d_c=int(rng.integers(1, 3)), d_sm=int(rng.integers(0, 3)),
            hidden=(int(rng.integers(4, 9)),), slope=0.2, seed=trial,
        )
        batch = rng.standard_normal((int(rng.integers(2, 6)), n_pixels))
        mask = Mask(set(layout[: int(rng.integers(1, n_pixels))]))
        deviation = grad_check(model, batch, mask, rng=np.random.default_rng(trial))
        rows.append([trial, repr(deviation)])
    write_csv(path, ["trial", "max_relative_deviation"], rows)


def generate_all(root: Path) -> dict[str, float]:
    """Produce every acceptance artifact under ``root``; returns wall times."""
    timings: dict[str, float] = {}

    def stage(name, fn):
        start = time.perf_counter()
        fn()
        timings[name] = time.perf_counter() - start

    def locate_reports():
        for mask, suffix in (("x1", "a"), ("x1,x2,x3,x4,x5", "b"), ("x1,x2,x3", "c")):
            code = cli_main(["locate", "fig4", "--mask", mask,
                             "--out", str(root / f"locate_fig4_{suffix}.json")])
            assert code == 0

    stage("locate", locate_reports)
    stage("oracle_pairs", lambda: generate_oracle_pairs_csv(root / "oracle_pairs.csv"))
    stage("scm_roundtrip", lambda: generate_roundtrip_csv(root / "scm_roundtrip.csv"))
    stage("grad_check", lambda: generate_grad_check_csv(root / "grad_check.csv"))

    def sweep():
        g = load_graph(fixture_path("bench3"))
        rows = sweep_rows(g, [0.1, 0.5, 0.9], [1], 100, seed=MASTER_SEED + 2)
        write_csv(root / "sweep_bench3.csv", SWEEP_HEADER, rows)

    stage("sweep", sweep)

    config_path = root / "experiment.json"
    config_path.write_text(json.dumps(EXPERIMENT_CONFIG, indent=2, sort_keys=True) + "\n")
    stage("simulate", lambda: cli_main(["simulate", "--config", str(config_path)]))
    stage("train", lambda: cli_main(["train", "--config", str(config_path)]))
    stage("evaluate", lambda: cli_main(["evaluate", "--config", str(config_path)]))
    (root / "timings.json").write_text(json.dumps(timings, indent=2, sort_keys=True) + "\n")
    return timings


PRIMARY_OUTPUTS = [
    "locate_fig4_a.json",
    "locate_fig4_b.json",
    "locate_fig4_c.json",
    "oracle_pairs.csv",
    "scm_roundtrip.csv",
    "grad_check.csv",
    "sweep_bench3.csv",
    "run/dataset.json",
    "run/dataset.bin",
    "run/model.json",
    "run/model.bin",
    "run/loss_curve.csv",
    "run/ident_report.json",
    "run/summary.csv",
]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    timings = generate_all(root)
    return root, timings


def read_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# -- criteria -----------------------------------------------------------------------


def test_criterion_1_fixture_masks(fig4):
    start = time.perf_counter()
    results = {
        "a": locate_shared_info(fig4, Mask({"x1"})).c,
        "b": locate_shared_info(fig4, Mask({"x1", "x2", "x3", "x4", "x5"})).c,
        "c": locate_shared_info(fig4, Mask({"x1", "x2", "x3"})).c,
    }
    elapsed = time.perf_counter() - start
    ok = (
        results["a"] == {"z3"}
        and results["b"] == {"z6"}
        and results["c"] == {"z2"}
        and elapsed < 1.0
    )
    announce(1, "fixture masks", ok,
             f"c: {sorted(results['a'])}/{sorted(results['b'])}/{sorted(results['c'])}, {elapsed:.3f}s")


def test_criterion_2_oracle_equivalence(artifacts):
    root, timings = artifacts
    rows = read_csv(root / "oracle_pairs.csv")
    mismatches = [r for r in rows if r["c_match"] != "1" or r["s_m_match"] != "1"]
    ok = len(rows) >= 200 and not mismatches and timings["oracle_pairs"] < 300.0
    announce(2, "oracle equivalence", ok,
             f"{len(rows)} pairs, {len(mismatches)} mismatches, {timings['oracle_pairs']:.1f}s")


def test_criterion_3_condition_flags(artifacts):
    root, _ = artifacts
    rows = read_csv(root / "oracle_pairs.csv")
    failures = [
        r for r in rows
        if not all(r[k] == "1" for k in ("inv_masked", "inv_visible", "recoverable", "independent"))
    ]
    announce(3, "condition flags", not failures, f"{len(failures)} failures over {len(rows)} pairs")


def test_criterion_4_scm_round_trip(artifacts):
    root, _ = artifacts
    rows = read_csv(root / "scm_roundtrip.csv")
    bad = [
        r for r in rows
        if float(r["max_rel_inversion_error"]) > 1e-6
        or float(r["min_sigma"]) < float(r["bound"]) * (1 - 1e-9)
    ]
    detail = "; ".join(
        f"{r['fixture']}: err={float(r['max_rel_inversion_error']):.1e}, "
        f"sigma={float(r['min_sigma']):.3f}" for r in rows
    )
    announce(4, "simulator round trip", len(rows) == len(FIXTURES) and not bad, detail)


def test_criterion_5_gradient_correctness(artifacts):
    root, _ = artifacts
    rows = read_csv(root / "grad_check.csv")
    worst = max(float(r["max_relative_deviation"]) for r in rows)
    announce(5, "gradient correctness", len(rows) == 20 and worst <= 1e-4, f"worst={worst:.2e}")


def test_criterion_6_end_to_end_identifiability(artifacts):
    root, timings = artifacts
    report = json.loads((root / "run" / "ident_report.json").read_text())
    runtime = timings["simulate"] + timings["train"] + timings["evaluate"]
    ok = (
        report["r2_c_from_chat"] >= 0.8
        and report["r2_chat_from_c"] >= 0.8
        and report["r2_sm_from_chat"] <= 0.2
        and runtime <= 900.0
    )
    announce(6, "end-to-end identifiability", ok,
             f"r2 c|chat={report['r2_c_from_chat']:.3f}, chat|c={report['r2_chat_from_c']:.3f}, "
             f"sm|chat={report['r2_sm_from_chat']:.3f}, {runtime:.0f}s")


def test_criterion_6_training_loss_profile(artifacts):
    # adaptive-moment noise allowance: at most one >1% upward spike per 50 epochs
    root, _ = artifacts
    lines = (root / "run" / "loss_curve.csv").read_text().splitlines()[1:]
    curve = [float(line.split(",")[1]) for line in lines]
    spikes = sum(1 for a, b in zip(curve, curve[1:]) if b > a * 1.01)
    allowance = max(1, len(curve) // 50)
    announce(6, "training loss profile", spikes <= allowance,
             f"{spikes} spikes over {len(curve)} epochs (allowed {allowance})")


def test_criterion_7_level_sweep(artifacts):
    root, timings = artifacts
    rows = read_csv(root / "sweep_bench3.csv")
    by_ratio: dict[float, list[int]] = {}
    for r in rows:
        by_ratio.setdefault(float(r["r"]), []).append(int(r["max_level"]))
    medians = {ratio: float(np.median(values)) for ratio, values in by_ratio.items()}
    ok = (
        medians[0.5] > medians[0.1]
        and medians[0.5] > medians[0.9]
        and timings["sweep"] < 10.0
    )
    announce(7, "non-monotone level sweep", ok,
             f"medians {medians[0.1]}/{medians[0.5]}/{medians[0.9]}, {timings['sweep']:.1f}s")


def test_criterion_8_determinism(artifacts, tmp_path_factory):
    root_a, _ = artifacts
    root_b = tmp_path_factory.mktemp("acceptance_rerun")
    generate_all(root_b)
    different = [
        rel for rel in PRIMARY_OUTPUTS
        if (root_a / rel).read_bytes() != (root_b / rel).read_bytes()
    ]
    announce(8, "byte-identical reruns", not different,
             f"{len(PRIMARY_OUTPUTS)} outputs compared" + (f"; differ: {different}" if different else ""))
