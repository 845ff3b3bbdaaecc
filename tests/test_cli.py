import contextlib
import copy
import csv
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import latentlab
from latentlab import MaeSettings, Mask, RegressorConfig, ScmSettings, TrainConfig, fixture_path, load_graph
from latentlab import locate_shared_info, sample_mask
from latentlab import cli as cli_module
from latentlab import locate as locate_module
from latentlab.artifacts import DATASET_FIELDS, JSON_KINDS, MODEL_FIELDS
from latentlab.cli import (
    CONFIG_FIELDS,
    LISTED_MASK_FIELDS,
    SAMPLED_MASK_FIELDS,
    ConfigError,
    ExperimentConfig,
    main,
    settings_fields,
    sweep_rows,
    training_cells,
)
from latentlab.graph import BitIndex, graph_from_dict
from latentlab.mae import encode, grad_check, init_mae_model, train
from latentlab.scm import build_scm, sample

FIG4_LAYOUT = list(load_graph(fixture_path("fig4")).layout)


def write_config(tmp_path: Path, **overrides) -> Path:
    cfg = {
        "graph": "fig4",
        "mask": {"observables": ["x1", "x2", "x3"]},
        "scm": {"layers": 2, "alpha": 0.5, "seed": 11},
        "n": 400,
        "sample_seed": 12,
        "mae": {"d_c": None, "d_sm": None, "hidden": [16, 16],
                "train": {"epochs": 3, "batch_size": 128, "seed": 13}},
        "ident": {"seed": 14, "max_train_rows": 300},
        "out_dir": "run",
    }
    cfg.update(overrides)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return path


# -- locate ------------------------------------------------------------------


def test_locate_ideal_mask(capsys):
    assert main(["locate", "fig4", "--mask", "x1,x2,x3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c"] == ["z2"]
    assert payload["report"]["independence_ok"] is True


def test_locate_aggressive_mask(capsys):
    assert main(["locate", "fig4", "--mask", "x1,x2,x3,x4,x5"]) == 0
    assert json.loads(capsys.readouterr().out)["c"] == ["z6"]


def test_locate_empty_mask_is_data_error(capsys):
    assert main(["locate", "fig4", "--mask", ""]) == 2
    assert "mask is empty" in capsys.readouterr().err


def test_locate_check_minimal(capsys):
    assert main(["locate", "fig4", "--mask", "x1", "--check-minimal"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]["minimal_ok"] is True


def test_locate_deep_chain_exits_cleanly(tmp_path, capsys):
    depth = 1200
    chain = [f"z{i}" for i in range(depth)]
    graph = {
        "nodes": [{"id": v, "kind": "latent"} for v in chain]
        + [{"id": "x1", "kind": "observable"}, {"id": "x2", "kind": "observable"}],
        "edges": [[a, b] for a, b in zip(chain, chain[1:])] + [[chain[-1], "x1"], [chain[-1], "x2"]],
        "layout": ["x1", "x2"],
        "implicit_exogenous": True,
    }
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(graph))
    assert main(["locate", str(path), "--mask", "x1"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["c"] == [chain[-1]]
    assert "Traceback" not in err


def test_locate_unknown_graph(capsys):
    assert main(["locate", "no_such_graph.json", "--mask", "x1"]) == 2


NODE_FORM = "an object with an 'id' and a 'kind' (latent, observable, exogenous)"


@pytest.mark.parametrize("content, expected", [
    pytest.param([1], "a graph must be an object, got [1]", id="not-an-object"),
    pytest.param({"nodes": "x", "edges": []}, f"its 'nodes' entry 0 must be {NODE_FORM}, got 'x'", id="nodes-a-string"),
    pytest.param({"nodes": [{"id": "z1"}], "edges": []}, f"its 'nodes' entry 0 must be {NODE_FORM}, got {{'id': 'z1'}}",
                 id="node-without-kind"),
    pytest.param({"nodes": [{"id": "z1", "kind": "latent"}], "edges": [["z1"]]},
                 "its 'edges' entry 0 must be a [parent, child] pair, got ['z1']", id="edge-not-a-pair"),
    pytest.param({"nodes": [{"id": "z1", "kind": "latent"}], "edges": [["z1", "x9"]]},
                 "edge endpoint 'x9' is not a declared node", id="edge-to-an-undeclared-node"),
])
def test_malformed_graph_file_exits_two(tmp_path, capsys, content, expected):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(content))
    assert main(["locate", str(path), "--mask", "x1"]) == 2
    assert capsys.readouterr().err == f"latentlab: error: {path}: {expected}\n"


def test_graph_file_ids_pass_through_str(tmp_path, capsys):
    graph = {"nodes": [{"id": 1, "kind": "latent"}, {"id": 2, "kind": "observable"}, {"id": 3, "kind": "observable"}],
             "edges": [[1, 2], [1, 3]], "layout": [2, 3], "implicit_exogenous": True}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    assert main(["locate", str(path), "--mask", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["c"] == ["1"]


def test_locate_sampled_mask(capsys):
    assert main(["locate", "fig4", "--ratio", "0.5", "--patch", "1", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 1 <= len(payload["mask"]) <= 5


def test_locate_requires_some_mask_spec(capsys):
    assert main(["locate", "fig4"]) == 2
    assert "provide either" in capsys.readouterr().err


@pytest.mark.parametrize("sampling", [["--ratio", "0.5"], ["--patch", "1"], ["--seed", "3"],
                                      ["--ratio", "0.5", "--patch", "1", "--seed", "3"]])
def test_locate_refuses_mask_with_sampling_flags(capsys, sampling):
    assert main(["locate", "fig4", "--mask", "x1", *sampling]) == 2
    captured = capsys.readouterr()
    assert "provide either --mask or --ratio/--patch/--seed" in captured.err
    assert captured.out == ""


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["locate"])  # missing graph argument
    assert err.value.code == 1


def test_dispatch_is_late_bound(monkeypatch, capsys):
    """The parser is built once per process, and ``main`` finds the command
    function by name on each call: one bound to ``cli.cmd_locate`` after the
    parser was built is the one that runs."""
    assert main(["locate", "fig4", "--mask", "x1"]) == 0
    assert cli_module.build_parser() is cli_module.build_parser()
    calls = []
    monkeypatch.setattr(cli_module, "cmd_locate", lambda args: calls.append(args.mask) or 5)
    assert main(["locate", "fig4", "--mask", "x1,x2"]) == 5
    assert calls == ["x1,x2"]


def _main_in_process(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one ``main`` call in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _main_in_fresh_process(argv: list[str], env: dict) -> tuple[int, str, str]:
    script = "import sys; from latentlab.cli import main; sys.exit(main(sys.argv[1:]))"
    run = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True,
                         timeout=120)
    return run.returncode, run.stdout, run.stderr


def test_parser_keeps_no_state_between_calls(tmp_path, monkeypatch):
    """Usage errors, help, data errors and good calls, interleaved in one
    process, each give the exit code, stdout and stderr (and, for ``sweep``,
    the CSV) of the same call made first in a fresh process."""
    out = tmp_path / "sweep.csv"
    calls = [
        ["locate"],  # usage error: exit 1
        ["--help"],
        ["locate", "fig4", "--mask", "x9"],  # data error: exit 2
        ["locate", "fig4", "--mask", "x1,x2,x3", "--check-minimal"],
        ["verify", "fig2", "--trials", "20", "--seed", "3"],
        ["sweep", "bench3", "--ratios", "0.3,0.7", "--patches", "1,2", "--masks-per-cell", "20",
         "--seed", "5", "--out", str(out)],
        ["verify", "--help"],
        ["verify", "fig2", "--trials", "x", "--seed", "1"],  # usage error in a subcommand
        ["sweep", "bench3", "--ratios", "0.5"],
        ["locate", "fig4", "--mask", "x1"],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width in both
    src = str(Path(latentlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = {}
    for argv in calls:
        fresh[tuple(argv)] = (*_main_in_fresh_process(argv, env), out.read_bytes() if out.exists() else None)
        out.unlink(missing_ok=True)
    assert {run[0] for run in fresh.values()} == {0, 1, 2}
    for argv in calls + calls[::-1] + calls:
        got = (*_main_in_process(argv), out.read_bytes() if out.exists() else None)
        out.unlink(missing_ok=True)
        assert got == fresh[tuple(argv)], argv


# -- verify ------------------------------------------------------------------


def test_verify_fig4(capsys):
    assert main(["verify", "fig4", "--trials", "25", "--seed", "1"]) == 0
    assert "mismatches=0" in capsys.readouterr().out


def test_verify_fig2(monkeypatch, capsys):
    """The unit dimensions are derived once per call: the oracle's map and
    the flag check's total read the same cached table."""
    dims_runs = []
    dims = BitIndex.dims

    def counted_dims(self, *args):
        dims_runs.append(args)
        return dims(self, *args)
    monkeypatch.setattr(BitIndex, "dims", counted_dims)
    assert main(["verify", "fig2", "--trials", "10", "--seed", "1"]) == 0
    assert "mismatches=0" in capsys.readouterr().out
    assert len(dims_runs) == 1


def test_verify_respects_latent_cap(monkeypatch, capsys):
    """A graph above the oracle's cap is refused before any mask is located."""
    searches = []
    search = locate_module._locate_c_rows
    monkeypatch.setattr(locate_module, "_locate_c_rows", lambda *args: searches.append(args) or search(*args))
    assert main(["verify", "bench3", "--trials", "5", "--seed", "1"]) == 2
    assert "cap" in capsys.readouterr().err
    assert searches == []


def test_verify_zero_trials(capsys):
    assert main(["verify", "fig2", "--trials", "0", "--seed", "1"]) == 0
    assert capsys.readouterr().out == "trials=0 mismatches=0 flag_failures=0 ties=0\n"


def test_verify_refuses_one_observable_graph(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({
        "nodes": [{"id": "z1", "kind": "latent"}, {"id": "x1", "kind": "observable"}],
        "edges": [["z1", "x1"]], "layout": ["x1"], "implicit_exogenous": True,
    }))
    assert main(["verify", str(path), "--trials", "3", "--seed", "1"]) == 2
    out, err = capsys.readouterr()
    assert err == f"latentlab: error: verify needs at least two observables, but graph {path} has 1\n"
    assert out == ""


def _verified_masks(monkeypatch, argv) -> list[frozenset]:
    """The masks a ``verify`` run hands the oracle, in trial order."""
    masks = []
    oracle = locate_module.brute_force_minimal_c

    def recorded(g, mask, *args):
        masks.append(mask.masked)
        return oracle(g, mask, *args)
    monkeypatch.setattr(cli_module, "brute_force_minimal_c", recorded)
    assert main(argv) == 0
    return masks


def test_verify_draws_its_trials_from_one_generator(monkeypatch, capsys):
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *args: made.append(args) or default_rng(*args))
    assert main(["verify", "fig4", "--trials", "5", "--seed", "3"]) == 0
    assert made == [(3,)]


def test_verify_trial_does_not_depend_on_trial_count(monkeypatch, capsys):
    five = _verified_masks(monkeypatch, ["verify", "fig4", "--trials", "5", "--seed", "3"])
    nine = _verified_masks(monkeypatch, ["verify", "fig4", "--trials", "9", "--seed", "3"])
    assert len(five) == 5 and len(nine) == 9
    assert nine[:5] == five


def test_verify_mask_sizes_cover_one_to_n_minus_one(monkeypatch, capsys, fig4):
    masks = _verified_masks(monkeypatch, ["verify", "fig4", "--trials", "200", "--seed", "3"])
    assert all(m <= set(fig4.observables) for m in masks)
    assert {len(m) for m in masks} == set(range(1, len(fig4.observables)))


def test_verify_masks_do_not_depend_on_the_block_size(monkeypatch, capsys):
    """The trials are drawn and answered a block at a time from the one
    generator, so a run in blocks of 7 hands the oracle the masks of a run
    in one block, in the same order, and prints the same line."""
    argv = ["verify", "fig4", "--trials", "50", "--seed", "3"]
    one_block = _verified_masks(monkeypatch, argv)
    out = capsys.readouterr().out
    blocks, locate_many = [], cli_module.locate_many
    monkeypatch.setattr(cli_module, "locate_many", lambda g, masks: blocks.append(len(masks)) or locate_many(g, masks))
    monkeypatch.setattr(cli_module, "VERIFY_BLOCK", 7)
    assert _verified_masks(monkeypatch, argv) == one_block
    assert capsys.readouterr().out == out
    assert blocks == [7] * 7 + [1]


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_memory_does_not_grow_with_trials(capsys):
    """verify holds one block of trials at a time: its traced peak at 5,000
    trials stays within 10% of its peak at 1,000."""
    assert main(["verify", "fig4", "--trials", "10", "--seed", "7"]) == 0  # fill the one-time caches
    small = _traced_peak(["verify", "fig4", "--trials", "1000", "--seed", "7"])
    large = _traced_peak(["verify", "fig4", "--trials", "5000", "--seed", "7"])
    assert large <= 1.1 * small, (small, large)


def _oracle_searches(argv) -> int:
    """Calls of the oracle's nested ``search`` in one run, counted through
    the profiler hook, so the package carries no counter."""
    calls, previous = 0, sys.getprofile()

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "search" and code.co_filename == locate_module.__file__:
            calls += 1
    sys.setprofile(profile)
    try:
        assert main(argv) == 0
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("graph, calls", [("fig2", 41_124), ("fig4", 4_849)])
def test_oracle_search_effort_is_pinned(capsys, graph, calls):
    """The branch and bound's node count over 300 seeded masks.  A weaker
    but still admissible bound gives the same answers and more calls, which
    only this count sees; a change to the search re-pins it."""
    assert _oracle_searches(["verify", graph, "--trials", "300", "--seed", "7"]) == calls


# -- experiment pipeline ---------------------------------------------------------


def test_pipeline_and_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    run = tmp_path / "run"

    assert main(["evaluate", "--config", str(cfg)]) == 2
    assert "checkpoint not found" in capsys.readouterr().err

    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (run / "dataset.bin").exists() and (run / "dataset.json").exists()
    assert (run / "dataset.csv").exists()  # small n

    first = (run / "dataset.bin").read_bytes()
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert (run / "dataset.bin").read_bytes() == first

    assert main(["train", "--config", str(cfg)]) == 0
    assert (run / "model.json").exists() and (run / "model.bin").exists()
    assert (run / "loss_curve.csv").read_text().startswith("epoch,loss")

    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "r2_c_from_chat" in out
    report = json.loads((run / "ident_report.json").read_text())
    assert report["c"] == ["z2"]
    assert report["n_train"] + report["n_test"] == 400

    # evaluate appends to the summary log but rewrites the report deterministically
    report_bytes = (run / "ident_report.json").read_bytes()
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert (run / "ident_report.json").read_bytes() == report_bytes
    assert len((run / "summary.csv").read_text().splitlines()) == 3  # header + 2 runs


def test_evaluate_releases_the_dataset_before_the_kernel_fits(tmp_path, monkeypatch):
    """The fits see only the code and the two blocks: no reference to the
    loaded ``Dataset`` or to its values array is left when they start."""
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    load, fit = cli_module._load_current_dataset, cli_module.block_identifiability
    loaded, live_at_fit = [], []

    def tracked_load(*args):
        ds = load(*args)
        loaded.extend([weakref.ref(ds), weakref.ref(ds.values)])
        return ds

    def checked_fit(*args):
        live_at_fit.append([ref() is not None for ref in loaded])
        return fit(*args)

    monkeypatch.setattr(cli_module, "_load_current_dataset", tracked_load)
    monkeypatch.setattr(cli_module, "block_identifiability", checked_fit)
    assert main(["evaluate", "--config", str(cfg)]) == 0
    assert live_at_fit == [[False, False]]


def test_listed_mask_id_may_hold_a_comma(tmp_path, capsys):
    """A config lists mask ids as given; ``locate --mask`` still splits at commas."""
    graph = json.loads(fixture_path("fig4").read_text().replace('"x1"', '"x,1"'))
    assert "x,1" in graph["layout"]
    graph_path = tmp_path / "fig,4.json"
    graph_path.write_text(json.dumps(graph))
    cfg = write_config(tmp_path, graph=str(graph_path), mask={"observables": ["x,1", "x2", "x3"]})
    for stage in ("simulate", "train", "evaluate"):
        assert main([stage, "--config", str(cfg)]) == 0
    with open(tmp_path / "run" / "summary.csv", newline="") as fh:
        header, row = csv.reader(fh)
    assert len(row) == len(header)
    summary = dict(zip(header, row))
    assert (summary["graph"], summary["mask"], summary["n"]) == (str(graph_path), "x,1;x2;x3", "400")
    capsys.readouterr()
    assert main(["locate", str(graph_path), "--mask", "x,1"]) == 2
    assert capsys.readouterr().err == "latentlab: error: mask names are not observables: ['1', 'x']\n"


def test_train_requires_dataset(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 2
    assert "dataset not found" in capsys.readouterr().err


def test_truncated_dataset_bin_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    bin_path = tmp_path / "run" / "dataset.bin"
    expected = bin_path.stat().st_size
    bin_path.write_bytes(bin_path.read_bytes()[:1001])
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"dataset.bin holds 1001 bytes, but its header calls for {expected}" in err
    assert "Traceback" not in err


def test_truncated_model_bin_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    bin_path = tmp_path / "run" / "model.bin"
    expected = bin_path.stat().st_size
    bin_path.write_bytes(bin_path.read_bytes()[:-8])
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"model.bin holds {expected - 8} bytes, but its header calls for {expected}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run" / "ident_report.json").exists()


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_nan_in_dataset_exits_two(tmp_path, capsys, command):
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    if command == "evaluate":
        assert main(["train", "--config", str(cfg)]) == 0
    run = tmp_path / "run"
    header = json.loads((run / "dataset.json").read_text())
    values = np.fromfile(run / "dataset.bin")
    offset, _ = header["column_spans"]["x4"]  # a visible node; column-major storage
    values[offset * header["n"] + 17] = np.nan
    values.tofile(run / "dataset.bin")
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "dataset.bin: non-finite values in node(s) x4" in err
    assert "Traceback" not in err
    assert not (run / "ident_report.json").exists()


def test_training_bytes_do_not_depend_on_blas_threads(tmp_path):
    """``model.bin`` and ``loss_curve.csv`` are the same at one and two BLAS
    threads; batches of 128 rows and 64-wide layers are large enough for
    OpenBLAS to split a product across threads."""
    src = str(Path(latentlab.__file__).resolve().parents[1])
    script = ("import sys; from latentlab.cli import main; "
              "sys.exit(main(['simulate', '--config', sys.argv[1]]) or main(['train', '--config', sys.argv[1]]))")
    procs = {}
    for threads in ("1", "2"):
        work = tmp_path / threads
        work.mkdir()
        cfg = write_config(work, n=1000, mae={"d_c": None, "d_sm": None, "hidden": [64, 64],
                                              "train": {"epochs": 2, "batch_size": 128, "seed": 13}})
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        procs[threads] = subprocess.Popen([sys.executable, "-c", script, str(cfg)], env=env,
                                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    outputs = []
    for threads, proc in procs.items():
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        run = tmp_path / threads / "run"
        outputs.append({name: (run / name).read_bytes() for name in ("model.bin", "loss_curve.csv")})
    assert outputs[0] == outputs[1]


def test_config_requires_explicit_seeds(tmp_path, capsys):
    cfg = write_config(tmp_path, scm={"layers": 2, "alpha": 0.5})
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "latentlab: error: config is missing the 'scm.seed' entry\n" == capsys.readouterr().err


def test_config_sampled_mask(tmp_path, capsys):
    cfg = write_config(tmp_path, mask={"ratio": 0.5, "patch": 2, "seed": 3})
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0


def test_sampled_config_mask_is_drawn_once_per_stage(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, mask={"ratio": 0.5, "patch": 2, "seed": 3})
    assert main(["simulate", "--config", str(cfg)]) == 0
    draws = []

    def counted(*args):
        draws.append(args)
        return sample_mask(*args)
    monkeypatch.setattr(cli_module, "sample_mask", counted)
    for stage in ("train", "evaluate"):
        draws.clear()
        assert main([stage, "--config", str(cfg)]) == 0
        assert len(draws) == 1, stage


def _run_in_a_capped_child(*argv: str) -> subprocess.CompletedProcess:
    """The command line ``argv``, in a child process under a 2 GB
    address-space cap and a 20 s timeout, so a runaway size fails the
    calling test without exhausting the machine."""
    src = str(Path(latentlab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    return subprocess.run([sys.executable, "-m", "latentlab.cli", *argv], env=env,
                          preexec_fn=cap_address_space, capture_output=True, text=True, timeout=20)


def _simulate_in_a_capped_child(tmp_path, **overrides) -> subprocess.CompletedProcess:
    """``simulate`` on a fig4 config with ``overrides``, in a capped child."""
    return _run_in_a_capped_child("simulate", "--config", str(write_config(tmp_path, **overrides)))


def test_simulate_refuses_a_runaway_layer_count(tmp_path):
    """``"layers": 10**30`` passes the field table and is refused before the
    simulator draws a weight."""
    layers = 10**30
    proc = _simulate_in_a_capped_child(tmp_path, scm={"layers": layers, "alpha": 0.5, "seed": 11})
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        f"latentlab: error: layers {layers} asks for {163 * layers} mixing weights (layers x the sum of dim^2 "
        f"over latent and observable nodes), above the limit of {latentlab.scm.MAX_SCM_WEIGHTS}\n"
    )
    assert not (tmp_path / "run").exists()


def test_simulate_refuses_a_runaway_row_count(tmp_path):
    """``"n": 10**12`` passes the field table and is refused, naming ``n``,
    before the dataset is allocated; an ``n`` that fits in memory but not
    under the limit would otherwise be allocated."""
    n = 10**12
    proc = _simulate_in_a_capped_child(tmp_path, n=n)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        f"latentlab: error: n {n} asks for {n * 51 * 8} dataset bytes (n x the total width 51 x 8), "
        f"above the limit of {latentlab.scm.MAX_DATASET_BYTES}\n"
    )
    assert not (tmp_path / "run").exists()


def test_train_refuses_a_runaway_model(tmp_path, capsys):
    """``"hidden": [10**6]`` passes the field table, and its 78 million
    float64 parameters (624 MB) fit under the cap: they would be allocated,
    and training would then run out of memory in its first batch.  The model
    is refused, naming ``hidden``, ``d_c`` and ``d_sm``, before any
    parameter is allocated."""
    cfg = write_config(tmp_path, mae={"hidden": [10**6], "train": {"epochs": 1, "seed": 13}})
    assert main(["simulate", "--config", str(cfg)]) == 0
    proc = _run_in_a_capped_child("train", "--config", str(cfg))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        "latentlab: error: hidden [1000000], d_c 1 and d_sm 6 ask for 78000029 model parameters "
        f"(encoder and decoder), above the limit of {latentlab.mae.MAX_MODEL_PARAMS}\n"
    )
    assert not (tmp_path / "run" / "model.json").exists()


def test_sweep_refuses_a_runaway_grid(tmp_path):
    """Two cells at ``--masks-per-cell 10**7`` would ask numpy for 2.38 GiB
    of mask draws under the 2 GB cap; the grid is refused, naming the flag,
    before a mask is drawn."""
    out = tmp_path / "sweep.csv"
    proc = _run_in_a_capped_child("sweep", "fig4", "--ratios", "0.3,0.6", "--patches", "1",
                                  "--masks-per-cell", str(10**7), "--seed", "5", "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        "latentlab: error: --masks-per-cell 10000000 over 2 cells asks for 20000000 sweep rows, "
        f"above the limit of {cli_module.MAX_SWEEP_ROWS}\n"
    )
    assert not out.exists()


def test_verify_refuses_a_runaway_trial_count(tmp_path):
    """``--trials 10**12`` would ask numpy for 50.9 TiB of draws; it is
    refused, naming the flag, before a mask is drawn."""
    proc = _run_in_a_capped_child("verify", "fig2", "--trials", str(10**12), "--seed", "7")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        f"latentlab: error: --trials 1000000000000 is above the limit of {cli_module.MAX_VERIFY_TRIALS} trials\n"
    )
    assert proc.stdout == ""


@pytest.mark.parametrize("ids, expected", [
    ([], "mask is empty"),
    (["x1", "q9", "a0"], "mask names are not observables: ['a0', 'q9']"),
    (FIG4_LAYOUT, "mask names every observable; at least one must stay visible"),
])
def test_listed_mask_refusals_are_one_check(tmp_path, capsys, fig4, ids, expected):
    """``locate_shared_info``, ``locate --mask``, a config's listed mask and
    the trainer's ``train``, ``encode`` and ``grad_check`` refuse a bad mask
    with the same text."""
    with pytest.raises(ValueError) as refused:
        locate_shared_info(fig4, Mask(ids))
    assert str(refused.value) == expected
    assert main(["locate", "fig4", "--mask", ",".join(ids)]) == 2
    assert capsys.readouterr().err == f"latentlab: error: {expected}\n"
    cfg = write_config(tmp_path, mask={"observables": ids})
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"latentlab: error: {expected}\n"
    assert not (tmp_path / "run").exists()

    ds = sample(build_scm(fig4, ScmSettings(seed=1)), 20, seed=2)
    widths = {v: ds.column_spans[v][1] for v in ds.layout}
    model = init_mae_model(ds.layout, widths, 1, 1, hidden=(4,), slope=0.2)
    for call in (
        lambda: train(ds, Mask(ids), 1, 1, TrainConfig(epochs=1), hidden=(4,), slope=0.2),
        lambda: encode(model, np.zeros((2, 1)), Mask(ids)),
        lambda: grad_check(model, ds.stack(ds.layout)[:2], Mask(ids)),
    ):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == expected


# -- sweep -------------------------------------------------------------------


def test_sweep_zero_masks_writes_header_only(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "fig4", "--ratios", "0.5", "--patches", "1",
                 "--masks-per-cell", "0", "--seed", "1", "--out", str(out)]) == 0
    assert out.read_text() == "r,s,k_masks,mask_idx,n_masked,mean_level,max_level,total_dim\n"


def test_sweep_zero_masks_on_a_grid_writes_header_only(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "bench3", "--ratios", "0.1,0.5,0.9", "--patches", "1,2,4",
                 "--masks-per-cell", "0", "--seed", "1", "--out", str(out)]) == 0
    assert out.read_text() == "r,s,k_masks,mask_idx,n_masked,mean_level,max_level,total_dim\n"


def test_sweep_of_a_latent_free_graph():
    """With no latent, every mask's ``c`` is empty and the grid's latent
    columns are none, so each row reads zero for its level and dimension."""
    g = graph_from_dict({"nodes": [{"id": f"x{i}", "kind": "observable"} for i in range(1, 5)], "edges": [],
                         "layout": ["x1", "x2", "x3", "x4"], "implicit_exogenous": True})
    assert sweep_rows(g, [0.5], [1, 2], 2, 0) == [
        [0.5, 1, 2, 0, 2, 0.0, 0, 0], [0.5, 1, 2, 1, 2, 0.0, 0, 0],
        [0.5, 2, 2, 0, 2, 0.0, 0, 0], [0.5, 2, 2, 1, 2, 0.0, 0, 0],
    ]


def test_sweep_deterministic(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "bench3", "--ratios", "0.1,0.5", "--patches", "1,2",
            "--masks-per-cell", "4", "--seed", "7"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_csv_bytes_are_pinned(tmp_path, capsys):
    """The sweep's rows come from Python ints and floats alone, so its bytes
    are the same on every machine; a changed mask draw or locate answer
    changes them."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "bench3", "--ratios", "0.1,0.3,0.5,0.7,0.9", "--patches", "1,2,4",
                 "--masks-per-cell", "100", "--seed", "0", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "7c64b463ff062a3e897b952882f3f38b944f991fda7014b523dee468e3d30c4f"


def test_sweep_csv_bytes_hold_across_row_blocks(tmp_path, capsys, monkeypatch):
    """With row blocks small enough to split the grid's 1,500 masks into
    several searches, the CSV is still the pinned one."""
    monkeypatch.setattr(latentlab.nets, "BLOCK_ENTRIES", 1 << 12)
    searches = []
    search = cli_module._locate_c_rows
    monkeypatch.setattr(cli_module, "_locate_c_rows", lambda *args: searches.append(len(args[1])) or search(*args))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "bench3", "--ratios", "0.1,0.3,0.5,0.7,0.9", "--patches", "1,2,4",
                 "--masks-per-cell", "100", "--seed", "0", "--out", str(out)]) == 0
    assert len(searches) >= 3 and sum(searches) == 1500
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "7c64b463ff062a3e897b952882f3f38b944f991fda7014b523dee468e3d30c4f"


def _run_cli_at_blas_threads(argv_at) -> dict[str, subprocess.CompletedProcess]:
    """``latentlab`` with the arguments ``argv_at(threads)``, run in a
    subprocess at each of one and two OpenBLAS threads at once."""
    src = str(Path(latentlab.__file__).resolve().parents[1])
    script = "import sys; from latentlab.cli import main; sys.exit(main(sys.argv[1:]))"
    procs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        procs[threads] = subprocess.Popen([sys.executable, "-c", script, *argv_at(threads)], env=env,
                                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    done = {}
    for threads, proc in procs.items():
        out, err = proc.communicate(timeout=120)
        done[threads] = subprocess.CompletedProcess(proc.args, proc.returncode, out, err)
    return done


def test_sweep_bytes_do_not_depend_on_blas_threads(tmp_path):
    """The sweep answers each cell's masks with 0/1 float32 products in
    BLAS; their sums are exact counts, so the CSV is the one that
    ``test_sweep_csv_bytes_are_pinned`` pins at one and at two BLAS threads."""
    argv = ["sweep", "bench3", "--ratios", "0.1,0.3,0.5,0.7,0.9", "--patches", "1,2,4",
            "--masks-per-cell", "100", "--seed", "0"]
    runs = _run_cli_at_blas_threads(lambda threads: [*argv, "--out", str(tmp_path / f"{threads}.csv")])
    for threads, run in runs.items():
        assert run.returncode == 0, run.stderr
        digest = hashlib.sha256((tmp_path / f"{threads}.csv").read_bytes()).hexdigest()
        assert digest == "7c64b463ff062a3e897b952882f3f38b944f991fda7014b523dee468e3d30c4f"


def test_locate_bytes_do_not_depend_on_blas_threads():
    """A single mask goes through the same BLAS products as a sweep's batch,
    so its JSON report is the same at one and at two BLAS threads."""
    runs = _run_cli_at_blas_threads(lambda threads: ["locate", "bench3", "--ratio", "0.5", "--patch", "1",
                                                     "--seed", "3"])
    for run in runs.values():
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout)["c"]
    assert runs["1"].stdout == runs["2"].stdout


@pytest.mark.parametrize("graph_name", ["fig4", "bench3"])
def test_training_cells_draw_the_sweeps_first_masks(request, graph_name):
    """The training sweep trains on each cell's ``mask_idx`` 0, which it
    reaches through ``sample_mask`` and ``locate_shared_info`` while the
    sweep works on patch bit masks."""
    g = request.getfixturevalue(graph_name)
    ratios, patches = [0.3, 0.5, 0.7], [1, 2, 4]
    bits = g.bit_index()
    first = {(row[0], row[1]): row[4:] for row in sweep_rows(g, ratios, patches, 3, 17) if row[3] == 0}
    cells = training_cells(g, ratios, patches, 17)
    assert [(r, s) for r, s, _, _ in cells] == list(first)
    for r, s, mask, info in cells:
        levels = [bits.level[bits.bit[v]] for v in info.c]
        total_dim = sum(bits.dim[bits.bit[v]] for v in info.c)
        assert first[r, s] == [len(mask.masked), sum(levels) / len(levels), max(levels), total_dim]


def test_sweep_answers_a_repeated_cell_once(tmp_path, capsys):
    once, repeated = tmp_path / "once.csv", tmp_path / "repeated.csv"
    argv = ["sweep", "fig4", "--masks-per-cell", "2", "--seed", "1"]
    assert main(argv + ["--ratios", "0.5", "--patches", "1", "--out", str(once)]) == 0
    assert main(argv + ["--ratios", "0.5,0.5", "--patches", "1,1", "--out", str(repeated)]) == 0
    assert repeated.read_bytes() == once.read_bytes()
    assert len(once.read_text().splitlines()) == 3


def test_sweep_rows_are_sorted(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "fig4", "--ratios", "0.7,0.2", "--patches", "1",
                 "--masks-per-cell", "2", "--seed", "5", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    keys = [(float(r.split(",")[0]), int(r.split(",")[1]), int(r.split(",")[3])) for r in rows]
    assert keys == sorted(keys)


def test_sweep_with_training(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "fig4", "--ratios", "0.5", "--patches", "1,3",
                 "--masks-per-cell", "2", "--seed", "5", "--out", str(out),
                 "--config", str(cfg)]) == 0
    training = tmp_path / "sweep_training.csv"
    lines = training.read_text().splitlines()
    assert lines[0].startswith("r,s,mask,d_c,d_sm,final_loss")
    assert len(lines) == 3  # header + two cells


def sweep_training_rows(path: Path) -> list[dict]:
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def test_training_sweep_row_matches_train_and_evaluate(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "fig4", "--ratios", "0.5", "--patches", "1", "--masks-per-cell", "1",
                 "--seed", "5", "--out", str(out), "--config", str(cfg)]) == 0
    [row] = sweep_training_rows(tmp_path / "sweep_training.csv")
    masked = row["mask"].split(";")
    assert out.read_text().splitlines()[1].split(",")[3:5] == ["0", str(len(masked))]

    write_config(tmp_path, mask={"observables": masked})
    for stage in ("train", "evaluate"):
        assert main([stage, "--config", str(cfg)]) == 0
    run = tmp_path / "run"
    model = json.loads((run / "model.json").read_text())
    report = json.loads((run / "ident_report.json").read_text())
    final_loss = (run / "loss_curve.csv").read_text().splitlines()[-1].split(",")[1]
    assert [row["d_c"], row["d_sm"], row["final_loss"]] == [str(model["d_c"]), str(model["d_sm"]), final_loss]
    for key in ("r2_c_from_chat", "r2_chat_from_c", "r2_sm_from_chat"):
        assert row[key] == repr(report[key])


def test_training_sweep_honours_the_configured_widths(tmp_path, capsys):
    cfg = write_config(tmp_path, mae={"d_c": 2, "d_sm": 1, "hidden": [16, 16],
                                      "train": {"epochs": 3, "batch_size": 128, "seed": 13}})
    assert main(["simulate", "--config", str(cfg)]) == 0
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "fig4", "--ratios", "0.5", "--patches", "1,3", "--masks-per-cell", "1",
                 "--seed", "5", "--out", str(out), "--config", str(cfg)]) == 0
    rows = sweep_training_rows(tmp_path / "sweep_training.csv")
    assert [(row["d_c"], row["d_sm"]) for row in rows] == [("2", "1"), ("2", "1")]


def write_two_component_graph(tmp_path: Path) -> Path:
    """z1 -> x1 and z2 -> x2, x3: under mask x1 the two sides share no latent."""
    graph = {
        "nodes": [{"id": "z1", "kind": "latent"}, {"id": "z2", "kind": "latent"}]
        + [{"id": v, "kind": "observable"} for v in ("x1", "x2", "x3")],
        "edges": [["z1", "x1"], ["z2", "x2"], ["z2", "x3"]],
        "layout": ["x1", "x2", "x3"],
        "implicit_exogenous": True,
    }
    path = tmp_path / "two_components.json"
    path.write_text(json.dumps(graph))
    return path


def empty_c_config(tmp_path: Path, d_c) -> tuple[Path, Path]:
    graph = write_two_component_graph(tmp_path)
    cfg = write_config(tmp_path, graph=str(graph), mask={"observables": ["x1"]},
                       mae={"d_c": d_c, "d_sm": None, "hidden": [16, 16],
                            "train": {"epochs": 3, "batch_size": 128, "seed": 13}})
    return graph, cfg


EMPTY_C = "mask x1: the masked and visible observables share no latent"


@pytest.mark.parametrize("d_c", [None, 1])
def test_train_refuses_a_mask_whose_c_is_empty(tmp_path, capsys, d_c):
    _, cfg = empty_c_config(tmp_path, d_c)
    assert main(["simulate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert EMPTY_C in err and "Traceback" not in err
    assert not (tmp_path / "run" / "model.json").exists()


@pytest.mark.parametrize("d_c", [None, 1])
def test_training_sweep_refuses_a_cell_whose_c_is_empty(tmp_path, capsys, d_c):
    graph, cfg = empty_c_config(tmp_path, d_c)
    # at this seed the cell's first mask is x1, which training_cells refuses
    with pytest.raises(ConfigError, match=EMPTY_C):
        training_cells(load_graph(graph), [0.3], [1], 9)
    assert main(["sweep", str(graph), "--ratios", "0.3", "--patches", "1", "--masks-per-cell", "1",
                 "--seed", "9", "--out", str(tmp_path / "sweep.csv"),
                 "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert EMPTY_C in err and "Traceback" not in err
    assert not (tmp_path / "sweep_training.csv").exists()


def test_training_sweep_locates_every_cell_before_writing(tmp_path, capsys):
    """At this seed the first cell masks x2 or x3, which share z2, and the
    second masks x2,x3, whose c is empty: nothing is written or trained."""
    graph, cfg = empty_c_config(tmp_path, None)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(graph), "--ratios", "0.3,0.6", "--patches", "1", "--seed", "0",
                 "--out", str(out), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert "mask x2,x3: the masked and visible observables share no latent" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()
    assert not (tmp_path / "sweep_training.csv").exists()


@pytest.mark.parametrize("graph, simulate, expected", [
    pytest.param("fig4", False, "dataset not found under {run}; run simulate first", id="not-simulated"),
    pytest.param("fig2", True, "the config's graph 'fig4' is not the swept graph 'fig2'", id="another-graph"),
])
def test_training_sweep_needs_the_configs_simulated_dataset(tmp_path, capsys, graph, simulate, expected):
    cfg = write_config(tmp_path)
    if simulate:
        assert main(["simulate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    out = tmp_path / "sweep.csv"
    assert main(["sweep", graph, "--ratios", "0.5", "--patches", "1", "--masks-per-cell", "1",
                 "--seed", "5", "--out", str(out), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert expected.format(run=tmp_path / "run") in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_sweep_refuses_a_missing_config(tmp_path, capsys):
    """``--config`` alone turns on the training sweep, so a config file that
    is not there is refused before either CSV is written."""
    missing = tmp_path / "missing.json"
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "fig4", "--ratios", "0.5", "--patches", "1", "--masks-per-cell", "1",
                 "--seed", "5", "--out", str(out), "--config", str(missing)]) == 2
    captured = capsys.readouterr()
    assert f"config file not found: {missing}" in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_sweep_with_training_loads_config_before_sweeping(tmp_path, capsys):
    """A config the field table refuses is refused before either CSV is
    written."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"bad": 1}')
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "fig4", "--ratios", "0.5", "--patches", "1", "--seed", "1",
                 "--out", str(out), "--config", str(bad)]) == 2
    captured = capsys.readouterr()
    assert "config is missing the 'graph' entry" in captured.err
    assert "sweep:" not in captured.out
    assert not out.exists()


LIST_FLAG_KINDS = {"--ratios": "a comma-separated list of numbers", "--patches": "a comma-separated list of integers"}


@pytest.mark.parametrize("argv, flag", [
    (["verify", "fig4", "--trials", "-2", "--seed", "1"], "--trials"),
    (["sweep", "fig4", "--ratios", "0.5", "--patches", "1", "--masks-per-cell", "-3",
      "--seed", "1"], "--masks-per-cell"),
    (["verify", "fig4", "--trials", "2", "--seed", "-1"], "--seed"),
    (["sweep", "fig4", "--ratios", "0.5", "--patches", "1", "--seed", "-1"], "--seed"),
    (["locate", "fig4", "--ratio", "0.5", "--patch", "1", "--seed", "-1"], "--seed"),
    (["sweep", "fig4", "--ratios", "abc", "--patches", "1", "--seed", "1"], "--ratios"),
    (["sweep", "fig4", "--ratios", "0.5", "--patches", "1.5", "--seed", "1"], "--patches"),
])
def test_negative_counts_exit_cleanly(tmp_path, capsys, argv, flag):
    """A negative count, or a sweep list entry that does not parse, exits 2
    naming its flag."""
    out = tmp_path / "sweep.csv"
    value = argv[argv.index(flag) + 1]
    kind = LIST_FLAG_KINDS.get(flag, "a non-negative integer")
    if argv[0] == "sweep":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"latentlab: error: {flag} must be {kind}, got {value}\n"
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_numerical_failure_exits_three(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        mae={"d_c": 1, "d_sm": 0, "hidden": [8],
             "train": {"epochs": 5, "batch_size": 64, "step_size": 1e200, "seed": 13}},
    )
    assert main(["simulate", "--config", str(cfg)]) == 0
    with np.errstate(all="ignore"):
        code = main(["train", "--config", str(cfg)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, expected",
    [
        ({"ident": {"seed": 14, "bandwith": 2.0}}, "config section 'ident' has unknown key(s): 'bandwith'"),
        ({"mae": {"d_c": None, "d_sm": None, "train": {"epochs": 1, "seed": 13, "lr": 0.1}}},
         "config section 'mae.train' has unknown key(s): 'lr'"),
        ({"ident": [1]}, "config value 'ident' must be an object, got [1]"),
        ({"ident": {"seed": 14, "max_train_rows": "2000"}},
         "config value 'ident.max_train_rows' must be an integer, got \"2000\""),
        ({"ident": {"seed": 14, "max_train_rows": 0}},
         "config section 'ident': max_train_rows must be an integer of at least 50, got 0"),
        ({"ident": {"seed": 14, "median_rows": 1}},
         "config section 'ident': median_rows must be an integer of at least 2, got 1"),
        ({"ident": {"seed": 14, "family": "kernel_ridge"}}, "config section 'ident' has unknown key(s): 'family'"),
        ({"scm": {"seed": 11, "layer": 3}}, "config section 'scm' has unknown key(s): 'layer'"),
        ({"mask": {"observables": ["x1"], "seed": 3}}, "config section 'mask' has unknown key(s): 'seed'"),
        ({"mae": {"hiden": [8], "train": {"seed": 13}}}, "config section 'mae' has unknown key(s): 'hiden'"),
        ({"n_samples": 400}, "config has unknown key(s): 'n_samples'"),
        ({"sample_seed": -1}, "config value 'sample_seed' must be a non-negative integer, got -1"),
        ({"scm": {"seed": -1}}, "config value 'scm.seed' must be a non-negative integer, got -1"),
        ({"mask": {"ratio": 0.5, "patch": 1, "seed": -1}},
         "config value 'mask.seed' must be a non-negative integer, got -1"),
        ({"mae": {"train": {"seed": -1}}}, "config value 'mae.train.seed' must be a non-negative integer, got -1"),
        ({"ident": {"seed": -1}}, "config value 'ident.seed' must be a non-negative integer, got -1"),
        ({"mask": {"seed": 3}}, "config is missing the 'mask.ratio' entry"),
        ({"mask": {"ratio": 0.5, "seed": 3}}, "config is missing the 'mask.patch' entry"),
        ({"mae": {"hidden": [0], "train": {"seed": 13}}},
         "config value 'mae.hidden' entry 0 must be a positive integer, got 0"),
        # The library refuses the key now; the id is kept from when the CLI did.
        pytest.param({"scm": {"seed": 11, "exo_dims": {"nope": 2}}}, "exo_dims entry 'nope' is not an exogenous node",
                     id="overrides19-config value 'scm.exo_dims' entry 'nope' is not an exogenous node of the graph 'fig4'"),
        ({"n": -1}, "config value 'n' must be a non-negative integer, got -1"),
        ({"scm": {"seed": 11, "layers": 0}}, "config value 'scm.layers' must be a positive integer, got 0"),
        ({"mae": {"d_c": 0, "train": {"seed": 13}}}, "config value 'mae.d_c' must be a positive integer, got 0"),
        ({"mae": {"d_sm": -1, "train": {"seed": 13}}},
         "config value 'mae.d_sm' must be a non-negative integer, got -1"),
        ({"ident": {"seed": 14, "ridge": float("nan")}}, "config value 'ident.ridge' must be a finite number, got NaN"),
        ({"ident": {"seed": 14, "ridge": float("inf")}},
         "config value 'ident.ridge' must be a finite number, got Infinity"),
        pytest.param({"ident": {"seed": 14, "ridge": 10**400}},
                     f"config value 'ident.ridge' must be a finite number, got {10**400}", id="ridge-past-float-range"),
        ({"mae": {"train": {"seed": 13, "step_size": float("nan")}}},
         "config value 'mae.train.step_size' must be a finite number, got NaN"),
        ({"mae": {"train": {"seed": 13, "step_size": float("inf")}}},
         "config value 'mae.train.step_size' must be a finite number, got Infinity"),
        ({"scm": {"seed": 11, "alpha": 2.0}}, "config value 'scm.alpha' must be a number in (0, 1], got 2.0"),
        ({"scm": {"seed": 11, "alpha": 0}}, "config value 'scm.alpha' must be a number in (0, 1], got 0"),
        ({"mae": {"slope": 2.0, "train": {"seed": 13}}}, "config value 'mae.slope' must be a number in [0, 1], got 2.0"),
        ({"mae": {"slope": -0.1, "train": {"seed": 13}}},
         "config value 'mae.slope' must be a number in [0, 1], got -0.1"),
        ({"mask": {"ratio": 5.0, "patch": 1, "seed": 3}}, "config value 'mask.ratio' must be a number in (0, 1), got 5.0"),
        ({"mask": {"ratio": 1, "patch": 1, "seed": 3}}, "config value 'mask.ratio' must be a number in (0, 1), got 1"),
        ({"mask": {"ratio": 0.0, "patch": 1, "seed": 3}},
         "config value 'mask.ratio' must be a number in (0, 1), got 0.0"),
        ({"mask": {"observables": ["x1", "q9"]}}, "mask names are not observables: ['q9']"),
        ({"mask": {"observables": FIG4_LAYOUT}}, "mask names every observable; at least one must stay visible"),
    ],
)
def test_bad_config_section_exits_two(tmp_path, capsys, overrides, expected):
    cfg = write_config(tmp_path, **overrides)
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == f"latentlab: error: {expected}\n"
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_readme_experiment_config_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Experiment config\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "exp.json"
    path.write_text(block)
    cfg = ExperimentConfig.load(path)
    assert cfg.mae.train.seed == 13 and cfg.out_dir == tmp_path / "run"


# The ids are kept from when these kinds were plain integers, so that each
# case can be followed across versions.
@pytest.mark.parametrize(
    "overrides, expected",
    [
        pytest.param({"n": [1]}, "config value 'n' must be a non-negative integer, got [1]",
                     id="overrides0-config value 'n' must be an integer, got [1]"),
        pytest.param({"scm": {"layers": [2], "alpha": 0.5, "seed": 11}},
                     "config value 'scm.layers' must be a positive integer, got [2]",
                     id="overrides1-config value 'scm.layers' must be an integer, got [2]"),
    ],
)
def test_wrongly_typed_config_value_exits_two(tmp_path, capsys, overrides, expected):
    cfg = write_config(tmp_path, **overrides)
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert expected in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_wrongly_typed_mae_value_exits_two_on_train(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    write_config(tmp_path, mae={"d_c": None, "d_sm": None, "hidden": "ab",
                                "train": {"epochs": 3, "batch_size": 128, "seed": 13}})
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config value 'mae.hidden' must be a list, got \"ab\"" in err
    assert not (tmp_path / "run" / "model.json").exists()


@pytest.mark.parametrize(
    "overrides, expected",
    [
        ({"graph": "fig2"}, "{dataset} is stale: its graph has 24 nodes, but the config's 'graph' has 42 "
         "(only in the config's graph: eps_x10, eps_x11, eps_x7 and 15 more; only in the dataset: none); "
         "run simulate again"),
        ({"n": 500}, "its n is 400, but the config's 'n' is 500"),
        ({"scm": {"layers": 2, "alpha": 0.9, "seed": 11}},
         "its scm.alpha is 0.5, but the config's 'scm.alpha' is 0.9"),
        ({"scm": {"layers": 3, "alpha": 0.5, "seed": 11}},
         "its scm.layers is 2, but the config's 'scm.layers' is 3"),
    ],
)
def test_stale_dataset_after_config_edit_exits_two(tmp_path, capsys, overrides, expected):
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    model = (tmp_path / "run" / "model.bin").read_bytes()
    write_config(tmp_path, **overrides)
    capsys.readouterr()
    for command in ("train", "evaluate"):
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert expected.format(dataset=tmp_path / "run" / "dataset.json") in err and "run simulate again" in err
    assert (tmp_path / "run" / "model.bin").read_bytes() == model
    assert not (tmp_path / "run" / "ident_report.json").exists()


def test_stale_graph_refusal_names_counts_not_node_lists(tmp_path, capsys):
    """A fig4 dataset under a bench3 config: the refusal names both node
    counts and three ids missing from each side, not 138 ids."""
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    write_config(tmp_path, graph="bench3", mask={"ratio": 0.5, "patch": 1, "seed": 0})
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    dataset = tmp_path / "run" / "dataset.json"
    assert (f"{dataset} is stale: its graph has 24 nodes, but the config's 'graph' has 114 "
            "(only in the config's graph: eps_l1, eps_l10, eps_l11 and 111 more; "
            "only in the dataset: eps_x1, eps_x2, eps_x3 and 21 more); run simulate again") in err
    assert len(err) - len(str(dataset)) <= 250


def test_graph_layout_edit_makes_the_dataset_stale(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text(fixture_path("fig4").read_text())
    cfg = write_config(tmp_path, graph=str(graph))
    assert main(["simulate", "--config", str(cfg)]) == 0
    data = json.loads(graph.read_text())
    data["layout"].reverse()
    graph.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"latentlab: error: {tmp_path / 'run' / 'dataset.json'} is stale: its graph.layout is "
        f"{json.dumps(FIG4_LAYOUT)}, but the config's 'graph.layout' is {json.dumps(FIG4_LAYOUT[::-1])}; "
        "run simulate again\n"
    )
    assert not (tmp_path / "run" / "model.json").exists()


# Each size is past the 47-bit address space (over 2**48 bytes), so nothing
# is ever allocated: simulate refuses the dataset's size and the trainer the
# model's before allocating either.
@pytest.mark.parametrize("command, overrides, refusal", [
    pytest.param("simulate", {"n": 10 ** 14}, "n 100000000000000 asks for ", id="simulate-n"),
    pytest.param("train", {"mae": {"hidden": [10 ** 13], "train": {"epochs": 1, "seed": 13}}},
                 "hidden [10000000000000], d_c 1 and d_sm 6 ask for ", id="train-hidden"),
])
def test_oversized_config_exits_two(tmp_path, capsys, command, overrides, refusal):
    cfg = write_config(tmp_path)
    if command == "train":
        assert main(["simulate", "--config", str(cfg)]) == 0
    write_config(tmp_path, **overrides)
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"latentlab: error: {refusal}") and err.count("\n") == 1


def test_dataset_header_records_the_resolved_scm_section(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    header = json.loads((tmp_path / "run" / "dataset.json").read_text())
    assert header["scm"] == {"alpha": 0.5, "bias": False, "exo_dims": None, "layers": 2, "seed": 11}
    del header["scm"]  # a dataset written before the field existed
    (tmp_path / "run" / "dataset.json").write_text(json.dumps(header))
    assert main(["train", "--config", str(cfg)]) == 2


def test_cli_and_settings_classes_agree_on_defaults(tmp_path):
    """A config that leaves out every optional ``scm`` and ``mae`` key, one
    that sets each to null and one that spells out ``ScmSettings()``'s and
    ``MaeSettings()``'s defaults write the same headers and model; an
    integer ``alpha``, ``slope`` or ``ridge`` is recorded as a float, and an
    empty ``exo_dims`` as null."""
    train_section = {"epochs": 1, "batch_size": 128, "seed": 13}
    spelled = {"scm": {"exo_dims": None, "layers": 2, "alpha": 0.2, "seed": 11, "bias": False},
               "mae": {"d_c": None, "d_sm": None, "hidden": [64, 64], "slope": 0.2, "train": train_section}}
    assert ScmSettings(**spelled["scm"]) == ScmSettings(seed=11)
    assert MaeSettings(**{**spelled["mae"], "train": TrainConfig()}) == MaeSettings()
    omitted = {"scm": {"seed": 11}, "mae": {"train": train_section}}
    nulls = {section: {key: None if key not in ("seed", "train") else value for key, value in entries.items()}
             for section, entries in spelled.items()}
    outputs = []
    for name, sections in (("omitted", omitted), ("nulls", nulls), ("spelled", spelled)):
        (tmp_path / name).mkdir()
        cfg = write_config(tmp_path / name, **sections)
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert main(["train", "--config", str(cfg)]) == 0
        outputs.append([(tmp_path / name / "run" / file).read_bytes()
                        for file in ("dataset.json", "model.json", "model.bin")])
    assert outputs[0] == outputs[1] == outputs[2]

    cfg = write_config(tmp_path, scm={"seed": 11, "alpha": 1, "exo_dims": {}}, mae={"slope": 1, "train": train_section},
                       ident={"seed": 14, "max_train_rows": 300, "ridge": 1})
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["evaluate", "--config", str(cfg)]) == 0
    dataset = (tmp_path / "run" / "dataset.json").read_text()
    assert '"alpha": 1.0,' in dataset and '"exo_dims": null,' in dataset
    assert '"slope": 1.0,' in (tmp_path / "run" / "model.json").read_text()
    assert '"ridge": 1.0,' in (tmp_path / "run" / "ident_report.json").read_text()


def test_dataset_header_that_is_not_an_object_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    (tmp_path / "run" / "dataset.json").write_text("[1]\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    assert "is not a dataset header" in capsys.readouterr().err


@pytest.mark.parametrize("name, command, writer", [
    ("dataset.json", "train", "simulate"),
    ("model.json", "evaluate", "train"),
])
def test_header_that_is_not_valid_json_exits_two(tmp_path, capsys, name, command, writer):
    cfg = write_config(tmp_path)
    header_path = tmp_path / "run" / name
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    header_path.write_text("{\n")
    with pytest.raises(json.JSONDecodeError) as decoding:
        json.loads("{\n")
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (f"latentlab: error: {header_path} is not valid JSON: {decoding.value}; "
                                       f"run {writer} again\n")


def test_header_that_is_not_utf8_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    header_path = tmp_path / "run" / "dataset.json"
    assert main(["simulate", "--config", str(cfg)]) == 0
    header_path.write_bytes(b'{"n": "\xff"}')
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"latentlab: error: {header_path} is not UTF-8 text; run simulate again\n"


def test_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    cfg.write_bytes(cfg.read_bytes().replace(b'"run"', b'"r\xffn"'))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"latentlab: error: config file {cfg} is not UTF-8 text\n"


def test_graph_that_is_not_utf8_exits_two(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_bytes(fixture_path("fig4").read_bytes().replace(b'"z1"', b'"z\xff"'))
    assert main(["locate", str(graph), "--ratio", "0.5", "--seed", "7", "--patch", "1"]) == 2
    assert capsys.readouterr().err == f"latentlab: error: {graph} is not UTF-8 text\n"


@pytest.mark.parametrize("name, field, command, writer", [
    ("model.json", "layout", "evaluate", "train"),
    ("dataset.json", "total_dim", "train", "simulate"),
])
def test_header_without_a_field_exits_two(tmp_path, capsys, name, field, command, writer):
    cfg = write_config(tmp_path)
    header_path = tmp_path / "run" / name
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    header = json.loads(header_path.read_text())
    del header[field]
    header_path.write_text(json.dumps(header))
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{header_path} has no {field!r} field; run {writer} again" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, edit, command, expected", [
    pytest.param("model.json", lambda h: h["widths"].pop("x1"), "evaluate",
                 ": its 'widths' field has no entry for layout node(s) 'x1'; run train again",
                 id="model-widths-without-a-node"),
    pytest.param("dataset.json", lambda h: h["column_spans"].update(x1=[0]), "train",
                 ": its 'column_spans' field entry 'x1' must be an [offset, length] pair, got [0]; "
                 "run simulate again",
                 id="dataset-span-not-a-pair"),
    pytest.param("dataset.json", lambda h: h.update(column_spans=[[0, 2]]), "train",
                 ": its 'column_spans' field must be an object, got [[0, 2]]; run simulate again",
                 id="dataset-spans-a-list"),
    pytest.param("dataset.json", lambda h: h.update(n="400"), "train",
                 ": its 'n' field must be an integer, got \"400\"; run simulate again", id="dataset-n-a-string"),
    pytest.param("model.json", lambda h: h.update(widths=["x1", "x2"]), "evaluate",
                 ": its 'widths' field must be an object, got [\"x1\", \"x2\"]; run train again",
                 id="model-widths-a-list"),
    pytest.param("model.json", lambda h: h.update(mask="x1"), "evaluate",
                 ": its 'mask' field must be a list, got \"x1\"; run train again",
                 id="model-mask-a-string"),
    pytest.param("dataset.json", lambda h: h.update(order="X"), "train",
                 ": its 'order' field must be \"C\" or \"F\", got \"X\"; run simulate again",
                 id="dataset-order-unknown"),
    pytest.param("dataset.json", lambda h: h["layout"].__setitem__(0, "q9"), "train",
                 f" is stale: its graph.layout is {json.dumps(['q9'] + FIG4_LAYOUT[1:])}, "
                 f"but the config's 'graph.layout' is {json.dumps(FIG4_LAYOUT)}; run simulate again",
                 id="dataset-layout-unknown-node"),
    pytest.param("dataset.json", lambda h: h["column_spans"].update(z6=[49, 50]), "train",
                 ": its 'column_spans' field entry 'z6' [49, 50] runs past total_dim 51; run simulate again",
                 id="dataset-span-past-total-dim"),
    pytest.param("dataset.json", lambda h: h["column_spans"].update(x1=[500, 1]), "train",
                 ": its 'column_spans' field entry 'x1' [500, 1] runs past total_dim 51; run simulate again",
                 id="dataset-span-offset-past-total-dim"),
])
def test_malformed_header_field_exits_two(tmp_path, capsys, name, edit, command, expected):
    cfg = write_config(tmp_path)
    header_path = tmp_path / "run" / name
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    header = json.loads(header_path.read_text())
    edit(header)
    header_path.write_text(json.dumps(header))
    capsys.readouterr()
    assert main([command, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{header_path}{expected}" in err
    assert "Traceback" not in err


# One value of each JSON type, and the numbers past the float range that Python's json reads.
JSON_SAMPLES = [None, True, 3, 2.5, "s", [], {}, float("nan"), float("inf"), 10**400]
DELETE = object()


def refused_values(field, current) -> list:
    """The values that ``field``'s table entry refuses, built from one value
    of each JSON type: the field set to each, a list or object whose first
    entry is set to each (keeping ``current``'s other entries), and the
    field deleted when it is required.  Null counts as absent."""
    values = [v for v in JSON_SAMPLES if not JSON_KINDS[field.kind](v) and (v is not None or field.required)]
    for v in JSON_SAMPLES if field.entries else ():
        if not JSON_KINDS[field.entries](v):
            if field.kind == "a list":
                values.append([v, *(current or [])[1:]])
            else:
                first = next(iter(current or {"k": 0}))
                values.append({**(current or {}), first: v})
    return values + [DELETE] * field.required


def section_at(config: dict, name: str) -> dict:
    """The config section at the dotted ``name`` ("" is the top level)."""
    for part in name.split(".") if name else ():
        config = config[part]
    return config


def run_refused(argv, names, failures) -> None:
    """Run one command; record a failure unless it exits 2 with one error
    line that holds every one of ``names`` (an escaping exception is a
    traceback, and a failure too)."""
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
    except Exception as exc:  # any escape from main is a traceback
        failures.append((argv, names, f"raised {exc!r}"))
        return
    err = stderr.getvalue()
    one_line = err.count("\n") == 1 and err.startswith("latentlab: error: ")
    if code != 2 or not one_line or not all(name in err for name in names):
        failures.append((argv, names, code, err))


def test_field_tables_refuse_each_mistyped_or_missing_field(tmp_path):
    """Driven by the field tables: every config key, and every field of
    ``dataset.json`` and ``model.json``, is set to each JSON type (and, for a
    list or an object, given an entry of each type) that its table refuses,
    and deleted when it is required.  The stage that reads it exits 2 with
    a message naming the config section and key, or the file and field.
    Deleting an optional header field makes the header stale."""
    failures = []
    work = tmp_path / "config"
    work.mkdir()
    cfg = write_config(work)
    base = json.loads(cfg.read_text())
    sampled = {**base, "mask": {"ratio": 0.5, "patch": 2, "seed": 3}}
    sections = [("", CONFIG_FIELDS, base), ("mask", LISTED_MASK_FIELDS, base), ("mask", SAMPLED_MASK_FIELDS, sampled),
                ("scm", settings_fields(ScmSettings), base), ("mae", settings_fields(MaeSettings), base),
                ("mae.train", settings_fields(TrainConfig), base), ("ident", settings_fields(RegressorConfig), base)]
    for name, table, config in sections:
        for key, field in table.items():
            label = f"{name}.{key}" if name else key
            for value in refused_values(field, section_at(config, name).get(key)):
                edited = copy.deepcopy(config)
                section = section_at(edited, name)
                if value is DELETE:
                    del section[key]
                else:
                    section[key] = value
                cfg.write_text(json.dumps(edited))
                run_refused(["simulate", "--config", str(cfg)], [f"'{label}'"], failures)
    assert not (work / "run").exists()

    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    for file, table, stage in (("dataset.json", DATASET_FIELDS, "train"), ("model.json", MODEL_FIELDS, "evaluate")):
        path = tmp_path / "run" / file
        original = path.read_text()
        header = json.loads(original)
        for key, field in table.items():
            for value in refused_values(field, header.get(key)) + [DELETE] * (not field.required):
                edited = {k: v for k, v in header.items() if not (k == key and value is DELETE)}
                if value is not DELETE:
                    edited[key] = value
                path.write_text(json.dumps(edited))
                names = [str(path), "is stale" if not field.required and value is DELETE else f"'{key}'"]
                run_refused([stage, "--config", str(cfg)], names, failures)
        path.write_text(original)
    assert not (tmp_path / "run" / "ident_report.json").exists()
    assert not failures, failures


def test_evaluate_refuses_a_model_trained_on_another_mask(tmp_path, capsys):
    cfg = write_config(tmp_path)
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    header = json.loads((run / "model.json").read_text())
    assert header["mask"] == ["x1", "x2", "x3"]

    write_config(tmp_path, mask={"observables": ["x1"]})
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert (f"{run / 'model.json'} is stale: its mask is [\"x1\", \"x2\", \"x3\"], "
            "but the config's 'mask' is [\"x1\"]; run train again") in err

    del header["mask"]  # a checkpoint written before the field existed
    (run / "model.json").write_text(json.dumps(header))
    write_config(tmp_path)
    assert main(["evaluate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert (f"{run / 'model.json'} is stale: its mask is null, "
            "but the config's 'mask' is [\"x1\", \"x2\", \"x3\"]; run train again") in err
    assert not (run / "ident_report.json").exists()


def test_resampled_mask_mode_is_rejected_by_every_stage(tmp_path, capsys):
    """The trainer reads one mask at every step; the keys that once chose
    otherwise are unknown."""
    cfg = write_config(tmp_path, mae={"d_c": None, "d_sm": None, "hidden": [16, 16],
                                      "train": {"epochs": 3, "batch_size": 128, "seed": 13,
                                                "mask_mode": "resampled", "boundary_exclusion": True}})
    commands = [[stage, "--config", str(cfg)] for stage in ("simulate", "train", "evaluate")]
    commands.append(["sweep", "fig4", "--ratios", "0.5", "--patches", "1", "--seed", "1",
                     "--out", str(tmp_path / "sweep.csv"), "--config", str(cfg)])
    for argv in commands:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config section 'mae.train' has unknown key(s): 'boundary_exclusion', 'mask_mode'" in err, argv
        assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_evaluate_refuses_a_float64_checkpoint(tmp_path, capsys):
    """A checkpoint in the format written before training ran in float32:
    no 'dtype' field and 8 bytes per parameter."""
    cfg = write_config(tmp_path)
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0
    header = json.loads((run / "model.json").read_text())
    del header["dtype"]
    (run / "model.json").write_text(json.dumps(header))
    flat = np.fromfile(run / "model.bin", dtype=np.float32).astype(np.float64)
    assert flat.size == header["n_params"]
    flat.tofile(run / "model.bin")
    capsys.readouterr()
    assert main(["evaluate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{run / 'model.json'} has no 'dtype' field; run train again" in err
    assert "Traceback" not in err
    assert not (run / "ident_report.json").exists()


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["sweep", "fig4", "--ratios", "0.5", "--patches", "1,6", "--seed", "1"], "(--ratios 0.5, --patches 6)"),
        (["locate", "fig4", "--ratio", "0.5", "--patch", "6", "--seed", "1"], "(--ratio 0.5, --patch 6)"),
    ],
)
def test_patch_size_too_large_for_the_layout_names_it(tmp_path, capsys, argv, flags):
    out = tmp_path / "sweep.csv"
    assert main(argv + (["--out", str(out)] if argv[0] == "sweep" else [])) == 2
    err = capsys.readouterr().err
    assert ("patch size 6 leaves the 6-node layout in one patch, but masking needs at least two patches "
            + flags) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_names_the_first_bad_cell_in_sorted_order_before_reading_the_config(tmp_path, capsys):
    """Cells are built in sorted order, so of patches 7 and 6 the 6 is
    named; the config, which is not there, is never read."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "fig4", "--ratios", "0.5", "--patches", "7,6", "--seed", "1", "--out", str(out),
                 "--config", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert err == ("latentlab: error: patch size 6 leaves the 6-node layout in one patch, but masking needs "
                   "at least two patches (--ratios 0.5, --patches 6)\n")
    assert not out.exists()


def test_sampled_config_mask_names_its_settings(tmp_path, capsys):
    # The patch size is checked against the graph's layout when the graph is
    # loaded, so even simulate, which does not sample the mask, refuses it.
    cfg = write_config(tmp_path, mask={"ratio": 0.5, "patch": 6, "seed": 3})
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert ("patch size 6 leaves the 6-node layout in one patch, but masking needs at least two patches "
            "(mask.ratio 0.5, mask.patch 6)") in err
    assert not (tmp_path / "run").exists()
