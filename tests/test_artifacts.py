"""The on-disk formats: every writer's bytes against the reference writers
in conftest, the CSV text cells that need quoting, and the rule that
``latentlab.artifacts`` is the only module that writes a file."""

import ast
import csv
import json
from pathlib import Path

import numpy as np

from latentlab import Mask, ScmSettings, TrainConfig, build_scm, fixture_path, load_graph, sample, save_graph, train
from latentlab.artifacts import write_csv, write_json
from latentlab.cli import SWEEP_HEADER, TRAINING_SWEEP_HEADER, main, sweep_rows
from latentlab.mae import load_model, save_model
from latentlab.scm import load_dataset, save_dataset

from conftest import (
    reference_append_summary,
    reference_dump_json,
    reference_save_dataset,
    reference_save_graph,
    reference_save_loss_curve,
    reference_save_model,
    reference_write_csv,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "latentlab"


def files_under(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def small_config(tmp_path: Path, graph: str, mask: dict) -> Path:
    cfg = {
        "graph": graph, "mask": mask, "scm": {"seed": 11, "alpha": 0.5}, "n": 300, "sample_seed": 12,
        "mae": {"hidden": [8], "train": {"epochs": 1, "seed": 13}}, "ident": {"seed": 14, "max_train_rows": 200},
        "out_dir": "run",
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return path


def read_rows(path: Path) -> list[list[str]]:
    """The rows of a CSV file, each as wide as its header."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [len(rows[0])] * len(rows), path.read_text()
    return rows


def test_writers_match_the_reference_writers(tmp_path, fig4):
    """A small fig4 run, held in memory, written once by the package's
    writers and once by the reference writers: the same files, byte for byte,
    and the loaders read back equal objects from either."""
    scm = ScmSettings(layers=2, alpha=0.5, seed=11)
    ds = sample(build_scm(fig4, scm), 300, seed=12)
    model, curve = train(ds, Mask({"x1", "x2", "x3"}), 1, 2, TrainConfig(epochs=2, seed=13), hidden=(8,), slope=0.2)
    report = {"mask": ["x1", "x2", "x3"], "c": ["z2"], "r2_c_from_chat": 0.5, "n_train": 200}
    sweep = sweep_rows(fig4, [0.3, 0.6], [1, 2], 20, seed=5)
    training = [[0.5, 1, "x1;x2;x3", 1, 2, curve[-1], 0.25, -0.5, 1e-17]]
    summary_rows = [["fig4", "x1;x2;x3", 300, 0.5, 0.25, -3e-05, 200, 100], ["run/g.json", "x4", 300, 1.0, 0.0, 0.1, 2, 1]]

    new, ref = tmp_path / "new", tmp_path / "ref"
    save_dataset(ds, new / "dataset", seed=12, scm=scm)
    save_model(model, new / "model")
    write_csv(new / "loss_curve.csv", ["epoch", "loss"], list(enumerate(curve)))
    write_json(report, new / "ident_report.json")
    save_graph(fig4, new / "graph.json")
    write_csv(new / "sweep.csv", SWEEP_HEADER, sweep)
    write_csv(new / "sweep_training.csv", TRAINING_SWEEP_HEADER, training)
    reference_save_dataset(ds, ref / "dataset", seed=12, scm=scm)
    reference_save_model(model, ref / "model")
    reference_save_loss_curve(curve, ref / "loss_curve.csv")
    reference_dump_json(report, ref / "ident_report.json")
    reference_save_graph(fig4, ref / "graph.json")
    reference_write_csv(ref / "sweep.csv", SWEEP_HEADER, sweep)
    reference_write_csv(ref / "sweep_training.csv", TRAINING_SWEEP_HEADER, training)
    for row in summary_rows:
        write_csv(new / "summary.csv", ["graph", "mask", "n", "r2_c_from_chat", "r2_chat_from_c", "r2_sm_from_chat",
                                        "n_train", "n_test"], [row], append=True)
        reference_append_summary(ref / "summary.csv", row)

    written, expected = files_under(new), files_under(ref)
    assert "dataset.csv" in written
    assert sorted(written) == sorted(expected)
    assert [name for name in written if written[name] != expected[name]] == []
    assert write_json(report) == reference_dump_json(report, None)

    for root in (new, ref):
        back = load_dataset(root / "dataset")
        assert np.array_equal(back.values, ds.values) and back.values.flags.c_contiguous
        assert (back.column_spans, back.layout) == (ds.column_spans, ds.layout)
        header = json.loads((root / "model.json").read_text())
        for loaded in (load_model(root / "model"), load_model(root / "model", header)):
            assert np.array_equal(loaded.flat, model.flat) and loaded.flat.dtype == np.float32
            assert (loaded.layout, loaded.widths, loaded.d_c, loaded.d_sm, loaded.param_seed, loaded.mask) == (
                model.layout, model.widths, model.d_c, model.d_sm, model.param_seed, model.mask)
            assert (loaded.encoder.widths, loaded.decoder.widths, loaded.encoder.slope) == (
                model.encoder.widths, model.decoder.widths, model.encoder.slope)


def test_cli_run_matches_the_reference_writers(tmp_path):
    """What ``simulate``, ``train`` and ``evaluate`` write, against the
    reference writers fed the objects read back from it."""
    cfg = small_config(tmp_path, "fig4", {"observables": ["x1", "x2", "x3"]})
    for stage in ("simulate", "train", "evaluate", "evaluate"):
        assert main([stage, "--config", str(cfg)]) == 0
    run, ref = tmp_path / "run", tmp_path / "ref"
    header = json.loads((run / "dataset.json").read_text())
    reference_save_dataset(load_dataset(run / "dataset"), ref / "dataset", header["seed"], ScmSettings(**header["scm"]))
    reference_save_model(load_model(run / "model"), ref / "model")
    reference_save_loss_curve([float(row[1]) for row in read_rows(run / "loss_curve.csv")[1:]], ref / "loss_curve.csv")
    reference_dump_json(json.loads((run / "ident_report.json").read_text()), ref / "ident_report.json")
    for row in read_rows(run / "summary.csv")[1:]:
        reference_append_summary(ref / "summary.csv", row)
    written, expected = files_under(run), files_under(ref)
    assert sorted(written) == sorted(expected) and "dataset.csv" in written
    assert [name for name in written if written[name] != expected[name]] == []


# -- text cells that need quoting --------------------------------------------------


def test_summary_csv_quotes_a_graph_path_with_a_comma(tmp_path):
    graph = tmp_path / "fig,4.json"
    graph.write_text(Path(fixture_path("fig4")).read_text())
    cfg = small_config(tmp_path, str(graph), {"observables": ["x1", "x2", "x3"]})
    for stage in ("simulate", "train", "evaluate", "evaluate"):
        assert main([stage, "--config", str(cfg)]) == 0
    rows = read_rows(tmp_path / "run" / "summary.csv")
    assert [row[:2] for row in rows] == [["graph", "mask"]] + [[str(graph), "x1;x2;x3"]] * 2


def test_training_sweep_csv_quotes_a_node_id_with_a_comma(tmp_path):
    text = Path(fixture_path("fig4")).read_text().replace('"x1"', '"x,1"')
    graph = tmp_path / "g.json"
    graph.write_text(text)
    cfg = small_config(tmp_path, str(graph), {"ratio": 0.5, "patch": 1, "seed": 3})
    assert main(["simulate", "--config", str(cfg)]) == 0
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(graph), "--ratios", "0.2,0.5,0.8", "--patches", "1", "--masks-per-cell", "2",
                 "--seed", "5", "--out", str(out), "--with-training", "--config", str(cfg)]) == 0
    rows = read_rows(tmp_path / "sweep_training.csv")
    masks = [row[2].split(";") for row in rows[1:]]
    assert len(masks) == 3 and any("x,1" in mask for mask in masks)
    observables = set(load_graph(graph).observables)
    assert all(set(mask) <= observables for mask in masks)
    read_rows(out)
    read_rows(tmp_path / "run" / "dataset.csv")


def test_write_csv_quotes_text_cells_as_the_csv_module_does(tmp_path):
    cells = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", ""]
    rows = [[cell, i, float(i) / 3] for i, cell in enumerate(cells)]
    write_csv(tmp_path / "t.csv", ["text", "i", "x"], rows)
    assert read_rows(tmp_path / "t.csv")[1:] == [[cell, str(i), repr(float(i) / 3)] for i, cell in enumerate(cells)]
    plain = [row for row in rows if row[0] in ("plain", "")]
    write_csv(tmp_path / "p.csv", ["text", "i", "x"], plain)
    reference_write_csv(tmp_path / "r.csv", ["text", "i", "x"], plain)
    assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "r.csv").read_bytes()


# -- structure ----------------------------------------------------------------------


WRITE_MODES = set("wax+")


def file_writes(tree: ast.AST) -> list[str]:
    """Each call in ``tree`` that writes a file or reads back a binary."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
        if name in ("write_text", "write_bytes") or (name, owner) in (("fromfile", "np"), ("writer", "csv")):
            found.append(f"{name} at line {node.lineno}")
        elif name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if isinstance(mode, ast.Constant) and WRITE_MODES & set(str(mode.value)):
                found.append(f"open({mode.value!r}) at line {node.lineno}")
    return found


def imports_from(tree: ast.AST, module: str) -> list[str]:
    return [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == module
            for alias in node.names]


def test_only_the_artifacts_module_writes_files():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "artifacts.py" in trees and file_writes(trees["artifacts.py"])
    assert {name: found for name, tree in trees.items() if name != "artifacts.py"
            if (found := file_writes(tree))} == {}
    assert imports_from(trees["mae.py"], "latentlab.scm") == ["Dataset"]
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom)) and "latentlab" in ast.unparse(node)
                   for node in ast.walk(trees["artifacts.py"]))
