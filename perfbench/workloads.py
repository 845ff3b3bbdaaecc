"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in ``setup`` and runs
one op at a time through ``latentlab.cli.main``, the same entry point as the
``latentlab`` command.  An op returns its CLI wall time, the work it did, the
SHA-256 digests of its primary outputs and a list of failed checks.

- ``experiment_fig4``: simulate -> train -> evaluate on fig4.  The trainer
  (``mae``/``nets``) does most of the work, ``ident`` the rest; the graph and
  oracle code is nearly idle.  It exercises trainer changes and bypasses
  graph and oracle changes.
- ``oracle_verify``: ``verify`` on fig2 and on seeded random hierarchies with
  10-12 latents.  The exhaustive oracle (``information_closure``,
  ``d_separated``) does almost all the work and ``nets`` none.
- ``level_sweep_bench3``: ``sweep`` on bench3, many cheap per-mask queries on
  a 114-node graph, no closures; per-call overhead such as re-validating the
  graph dominates.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Package functions are called through their modules so that the traced run's
# wrappers also time the benchmark's own set-up.
from latentlab import cli, fixture_path, graph
from latentlab.graph import LatentGraph


@dataclass
class OpResult:
    wall_s: float
    items: int  # work units: train steps, oracle masks or swept masks
    items_wall_s: float  # CLI wall time spent on those units
    masks: int  # masks the op located a shared set for
    digests: dict[str, str]
    failures: list[str] = field(default_factory=list)
    stages: dict[str, float] = field(default_factory=dict)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run one ``latentlab`` command in-process: exit code, stdout, wall time.
    An uncaught exception counts as exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that crashes is a failed op, not a crashed run
            traceback.print_exc(file=err)
            rc = -1
    wall = time.perf_counter() - start
    if rc != 0:
        out.write(err.getvalue())
    return rc, out.getvalue(), wall


def load_checked(path) -> LatentGraph:
    """Set-up cost of a graph input: parse, validate and derive dimensions."""
    g = graph.load_graph(path)
    report = graph.validate_graph(g)
    if not report.ok:
        raise ValueError(f"benchmark input {path} is invalid: {report.violations}")
    graph.derive_dims(g)
    return g


class Workload:
    """Inputs live under ``work``; ``size`` is "full" or "smoke"."""

    name: str
    ITEMS: str  # what one unit of work is, as a metric name
    SIZES: dict

    def __init__(self, work: Path, seed: int, size: str):
        self.work = work
        self.seed = seed
        self.size = self.SIZES[size]
        self.first: dict[str, str] | None = None

    def computed_counts(self) -> dict[str, float]:
        """Per-layer counts the workload derives from its outputs."""
        return {}

    def _check_repeat(self, digests: dict[str, str]) -> list[str]:
        """Ops of a run repeat the same seeded command, so outputs must match."""
        if self.first is None:
            self.first = digests
            return []
        return [f"{k} differs from the first op" for k in digests if digests[k] != self.first[k]]


class Experiment(Workload):
    name = "experiment_fig4"
    ITEMS = "train_steps_per_s"
    MASK = ["x1", "x2", "x3"]
    BATCH = 128
    SIZES = {"full": {"n": 20_000, "epochs": 15}, "smoke": {"n": 4_000, "epochs": 20}}

    def __init__(self, work: Path, seed: int, size: str):
        super().__init__(work, seed, size)
        self.n, self.epochs = self.size["n"], self.size["epochs"]

    def config(self, n: int, epochs: int, out_dir: str) -> dict:
        # Seed 0 gives the acceptance suite's seeds 11-14.
        base = 11 + 4 * self.seed
        return {
            "graph": "fig4",
            "mask": {"observables": self.MASK},
            "scm": {"layers": 2, "alpha": 0.5, "seed": base},
            "n": n,
            "sample_seed": base + 1,
            "mae": {"d_c": None, "d_sm": None, "hidden": [64, 64],
                    "train": {"epochs": epochs, "batch_size": self.BATCH, "seed": base + 2}},
            "ident": {"seed": base + 3},
            "out_dir": out_dir,
        }

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        (self.work / "config.json").write_text(json.dumps(self.config(self.n, self.epochs, "run"), indent=2))
        (self.work / "warmup.json").write_text(json.dumps(self.config(1_000, 1, "warmup_run"), indent=2))
        load_checked(fixture_path("fig4"))

    def warmup(self) -> None:
        for cmd in ("simulate", "train", "evaluate"):
            run_cli([cmd, "--config", str(self.work / "warmup.json")])

    def op(self, index: int) -> OpResult:
        run = self.work / "run"
        shutil.rmtree(run, ignore_errors=True)
        failures, stages = [], {}
        for cmd in ("simulate", "train", "evaluate"):
            rc, out, wall = run_cli([cmd, "--config", str(self.work / "config.json")])
            stages[cmd] = wall
            if rc != 0:
                failures.append(f"{cmd} exited {rc}: {out.strip()[-300:]}")
                break
        steps = self.epochs * math.ceil(self.n / self.BATCH)
        digests = {}
        if not failures:
            for name in ("dataset.bin", "model.bin", "loss_curve.csv", "ident_report.json"):
                digests[name] = sha256_file(run / name)
            report = json.loads((run / "ident_report.json").read_text())
            r2_c, r2_chat, leak = report["r2_c_from_chat"], report["r2_chat_from_c"], report["r2_sm_from_chat"]
            if not (r2_c >= 0.8 and r2_chat >= 0.8):
                failures.append(f"R2 below 0.8: c<-chat {r2_c}, chat<-c {r2_chat}")
            if not leak <= 0.2:
                failures.append(f"noise leakage {leak} above 0.2")
            curve_rows = (run / "loss_curve.csv").read_text().strip().splitlines()[1:]
            if len(curve_rows) != self.epochs:
                failures.append(f"loss curve has {len(curve_rows)} epochs, expected {self.epochs}")
            failures += self._check_repeat(digests)
        return OpResult(
            wall_s=sum(stages.values()), items=steps, items_wall_s=stages.get("train", 0.0),
            masks=1, digests=digests, failures=failures, stages=stages,
        )

    def computed_counts(self) -> dict[str, float]:
        """Masked coordinates over the decoder's output width: the share of
        decoder output the loss uses."""
        widths = json.loads((self.work / "run" / "model.json").read_text())["widths"]
        return {"mae.decoder.useful_output_frac": sum(widths[v] for v in self.MASK) / sum(widths.values())}


def random_hierarchy(rng: np.random.Generator, n_lat: int, n_obs: int) -> LatentGraph:
    """Same shape as the test suite's random hierarchies: latent-to-latent
    edges follow a fixed order with probability 0.35, each observable has 1-3
    latent parents and every node one exogenous parent.  The latent and
    observable counts are fixed by the caller so that rounds cost alike."""
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


_VERIFY_LINE = re.compile(r"trials=(\d+) mismatches=(\d+) flag_failures=(\d+) ties=(\d+)")


class OracleVerify(Workload):
    """One op is a round: ``verify`` on fig2, then on one hierarchy each with
    10, 11 and 12 latents.  Rounds cycle through a pool of hierarchies made in
    set-up, and every round draws its own masks from the workload seed.

    The pool comes from a fixed corpus seed, not the workload seed: the oracle's
    cost per mask varies several-fold between random graphs of one size, so a
    pool drawn per run would make throughput differ between seeds by more than
    the run-to-run bound.  The workload seed still chooses every mask."""

    name = "oracle_verify"
    ITEMS = "oracle_masks_per_s"
    LATENTS = (10, 11, 12)
    OBSERVABLES = 10
    CORPUS_SEED = 20_230_607
    SIZES = {"full": {"pool": 4, "fig2_trials": 8, "trials": 4},
             "smoke": {"pool": 1, "fig2_trials": 2, "trials": 1}}

    def __init__(self, work: Path, seed: int, size: str):
        super().__init__(work, seed, size)
        self.graphs: list[Path] = []

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.CORPUS_SEED)
        self.graphs = []
        for i in range(self.size["pool"]):
            for n_lat in self.LATENTS:
                path = self.work / f"h{i}_{n_lat}.json"
                graph.save_graph(random_hierarchy(rng, n_lat, self.OBSERVABLES), path)
                self.graphs.append(path)
        load_checked(fixture_path("fig2"))
        for path in self.graphs:
            load_checked(path)

    def warmup(self) -> None:
        run_cli(["verify", "fig4", "--trials", "2", "--seed", "0"])

    def op(self, index: int) -> OpResult:
        per_round = len(self.LATENTS)
        start = (index * per_round) % len(self.graphs)
        calls = [("fig2", self.size["fig2_trials"])]
        calls += [(str(p), self.size["trials"]) for p in self.graphs[start:start + per_round]]
        failures, outputs, wall, masks = [], [], 0.0, 0
        for k, (graph_arg, trials) in enumerate(calls):
            verify_seed = self.seed * 1_000_003 + index * 16 + k
            rc, out, dt = run_cli(["verify", graph_arg, "--trials", str(trials), "--seed", str(verify_seed)])
            wall += dt
            outputs.append(out)
            match = _VERIFY_LINE.search(out)
            if rc != 0 or match is None:
                failures.append(f"verify {Path(graph_arg).name} exited {rc}: {out.strip()[-300:]}")
                continue
            done, mismatches, flag_failures, _ = (int(x) for x in match.groups())
            if done != trials or mismatches or flag_failures:
                failures.append(f"verify {Path(graph_arg).name}: {match.group(0)}")
            masks += done
        return OpResult(
            wall_s=wall, items=masks, items_wall_s=wall, masks=masks,
            digests={"verify_stdout": sha256_text("".join(outputs))}, failures=failures,
        )


class LevelSweep(Workload):
    """One op is ``sweep bench3`` over a 5 x 3 ratio/patch grid.  Every op of
    a run repeats the same seeded sweep, so its CSV must not change."""

    name = "level_sweep_bench3"
    ITEMS = "sweep_masks_per_s"
    RATIOS = "0.1,0.3,0.5,0.7,0.9"
    PATCHES = "1,2,4"
    CELLS = 15
    SIZES = {"full": {"masks_per_cell": 100}, "smoke": {"masks_per_cell": 5}}

    def __init__(self, work: Path, seed: int, size: str):
        super().__init__(work, seed, size)
        self.masks_per_cell = self.size["masks_per_cell"]

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        load_checked(fixture_path("bench3"))

    def warmup(self) -> None:
        run_cli(["sweep", "bench3", "--ratios", "0.5", "--patches", "1", "--masks-per-cell", "2",
                 "--seed", "0", "--out", str(self.work / "warmup.csv")])

    def op(self, index: int) -> OpResult:
        out_csv = self.work / "sweep.csv"
        out_csv.unlink(missing_ok=True)
        rc, out, wall = run_cli([
            "sweep", "bench3", "--ratios", self.RATIOS, "--patches", self.PATCHES,
            "--masks-per-cell", str(self.masks_per_cell), "--seed", str(self.seed), "--out", str(out_csv),
        ])
        expected = self.CELLS * self.masks_per_cell
        failures, digests, rows = [], {}, []
        if rc != 0:
            failures.append(f"sweep exited {rc}: {out.strip()[-300:]}")
        else:
            with open(out_csv, newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != expected:
                failures.append(f"sweep wrote {len(rows)} rows, expected {expected}")
            if any(int(row["total_dim"]) <= 0 for row in rows):
                failures.append("a sweep row has total_dim <= 0")
            digests["sweep.csv"] = sha256_file(out_csv)
            failures += self._check_repeat(digests)
        return OpResult(
            wall_s=wall, items=len(rows), items_wall_s=wall, masks=len(rows),
            digests=digests, failures=failures,
        )


WORKLOADS = {w.name: w for w in (Experiment, OracleVerify, LevelSweep)}
