import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latentlab
from latentlab.cli import main


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


def test_locate_sampled_mask(capsys):
    assert main(["locate", "fig4", "--ratio", "0.5", "--patch", "1", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert 1 <= len(payload["mask"]) <= 5


def test_locate_requires_some_mask_spec(capsys):
    assert main(["locate", "fig4"]) == 2
    assert "provide either" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["locate"])  # missing graph argument
    assert err.value.code == 1


# -- verify ------------------------------------------------------------------


def test_verify_fig4(capsys):
    assert main(["verify", "fig4", "--trials", "25", "--seed", "1"]) == 0
    assert "mismatches=0" in capsys.readouterr().out


def test_verify_fig2(capsys):
    assert main(["verify", "fig2", "--trials", "10", "--seed", "1"]) == 0
    assert "mismatches=0" in capsys.readouterr().out


def test_verify_respects_latent_cap(capsys):
    assert main(["verify", "bench3", "--trials", "5", "--seed", "1"]) == 2
    assert "cap" in capsys.readouterr().err


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
    assert "explicit seed" in capsys.readouterr().err


def test_config_sampled_mask(tmp_path, capsys):
    cfg = write_config(tmp_path, mask={"ratio": 0.5, "patch": 2, "seed": 3})
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg)]) == 0


# -- sweep -------------------------------------------------------------------


def test_sweep_zero_masks_writes_header_only(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "fig4", "--ratios", "0.5", "--patches", "1",
                 "--masks-per-cell", "0", "--seed", "1", "--out", str(out)]) == 0
    assert out.read_text() == "r,s,k_masks,mask_idx,n_masked,mean_level,max_level,total_dim\n"


def test_sweep_deterministic(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep", "bench3", "--ratios", "0.1,0.5", "--patches", "1,2",
            "--masks-per-cell", "4", "--seed", "7"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sweep_rows_are_sorted(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "fig4", "--ratios", "0.7,0.2", "--patches", "1",
                 "--masks-per-cell", "2", "--seed", "5", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    keys = [(float(r.split(",")[0]), int(r.split(",")[1]), int(r.split(",")[3])) for r in rows]
    assert keys == sorted(keys)


def test_sweep_with_training(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "fig4", "--ratios", "0.5", "--patches", "1,3",
                 "--masks-per-cell", "2", "--seed", "5", "--out", str(out),
                 "--with-training", "--config", str(cfg)]) == 0
    training = tmp_path / "sweep_training.csv"
    lines = training.read_text().splitlines()
    assert lines[0].startswith("r,s,mask,d_c,d_sm,final_loss")
    assert len(lines) == 3  # header + two cells


def test_sweep_with_training_requires_config(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "fig4", "--ratios", "0.5", "--patches", "1",
                 "--masks-per-cell", "1", "--seed", "5", "--out", str(out),
                 "--with-training"]) == 2


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
        ({"ident": [1]}, "config section 'ident' must be a JSON object, got list"),
        ({"ident": {"seed": 14, "max_train_rows": "2000"}},
         "config section 'ident': max_train_rows must be an integer of at least 50, got '2000'"),
        ({"ident": {"seed": 14, "max_train_rows": 0}},
         "config section 'ident': max_train_rows must be an integer of at least 50, got 0"),
        ({"ident": {"seed": 14, "median_rows": 1}},
         "config section 'ident': median_rows must be an integer of at least 2, got 1"),
    ],
)
def test_bad_config_section_exits_two(tmp_path, capsys, overrides, expected):
    cfg = write_config(tmp_path, **overrides)
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert expected in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "overrides, expected",
    [
        ({"n": [1]}, "config value 'n' must be an integer, got [1]"),
        ({"scm": {"layers": [2], "alpha": 0.5, "seed": 11}},
         "config value 'scm.layers' must be an integer, got [2]"),
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
    assert "config value 'mae.hidden' must be a list of integers, got \"ab\"" in err
    assert not (tmp_path / "run" / "model.json").exists()


@pytest.mark.parametrize(
    "overrides, expected",
    [
        ({"graph": "fig2"}, "its nodes are not those of the config's graph 'fig2'"),
        ({"n": 500}, "its n is 400, but the config's 'n' is 500"),
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
        assert expected in err and "run simulate again" in err
    assert (tmp_path / "run" / "model.bin").read_bytes() == model
    assert not (tmp_path / "run" / "ident_report.json").exists()


def test_dataset_header_that_is_not_an_object_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    (tmp_path / "run" / "dataset.json").write_text("[1]\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg)]) == 2
    assert "is not a dataset header" in capsys.readouterr().err


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
    assert "records mask x1,x2,x3, but the config's mask is x1; run train again" in err

    del header["mask"]  # a checkpoint written before the field existed
    (run / "model.json").write_text(json.dumps(header))
    write_config(tmp_path)
    assert main(["evaluate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "records no mask, but the config's mask is x1,x2,x3; run train again" in err
    assert not (run / "ident_report.json").exists()


def test_resampled_mask_mode_is_rejected_by_every_stage(tmp_path, capsys):
    cfg = write_config(tmp_path, mae={"d_c": None, "d_sm": None, "hidden": [16, 16],
                                      "train": {"epochs": 3, "batch_size": 128, "seed": 13,
                                                "mask_mode": "resampled"}})
    commands = [[stage, "--config", str(cfg)] for stage in ("simulate", "train", "evaluate")]
    commands.append(["sweep", "fig4", "--ratios", "0.5", "--patches", "1", "--seed", "1",
                     "--out", str(tmp_path / "sweep.csv"), "--with-training", "--config", str(cfg)])
    for argv in commands:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config value 'mae.train.mask_mode' is 'resampled'" in err, argv
        assert "Traceback" not in err
    assert not (tmp_path / "run").exists()
