"""End-to-end command-line checks: every subcommand, exit codes, chaining."""

import io
import json
import multiprocessing
import shutil
import threading

import numpy as np
import pytest

from mvml import (
    CorruptionSpec, SyntheticSpec, corrupt, dataset_io, generate_synthetic, save_dataset,
)
from mvml.cli import main

from conftest import (
    DIVERGING_SOLVER, DyingDataset, diverging_training_set, one_lane, stripped_outputs,
    worker_takes_the_rest,
)

SMALL_CONFIG = {
    "dataset": {
        "synthetic": {
            "n": 60, "c": 5, "views": 2, "dims": [5, 6],
            "positives_per_sample": 2, "noise_sigma": 0.5, "seed": 7,
        }
    },
    "corruption": {"alpha": 0.3, "beta": 0.3, "dealign": True, "seed": 2},
    "solver": {"lam": 0.3, "mu": 5.0, "max_iters": 25, "init_seed": 1},
    "split": {"train_fraction": 0.7, "seed": 3},
    "repeats": 1,
}


def write_config(root, **overrides):
    body = {**SMALL_CONFIG, **overrides}
    path = root / "exp.json"
    path.write_text(json.dumps(body) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One synth -> corrupt -> fit -> predict -> evaluate -> rank-diag chain."""
    root = tmp_path_factory.mktemp("chain")
    config = write_config(root)
    clean = str(root / "data" / "clean")
    train = str(root / "data" / "train")
    fitdir = str(root / "runs" / "fit")
    weights = str(root / "runs" / "fit" / "weights.npz")

    codes = {
        "synth": main(["synth", "--config", config, "--out", clean]),
        "corrupt": main(["corrupt", "--config", config, "--data", clean, "--out", train]),
        "fit": main(["fit", "--config", config, "--data", train, "--out", fitdir,
                     "--format", "csv"]),
        "predict": main(["predict", "--weights", weights, "--data", clean,
                         "--out", str(root / "runs" / "pred")]),
        "evaluate": main(["evaluate", "--weights", weights, "--data", clean,
                          "--out", str(root / "runs" / "eval")]),
        "rank-diag": main(["rank-diag", "--weights", weights, "--data", train,
                           "--out", str(root / "runs" / "rank")]),
    }
    return {"root": root, "config": config, "clean": clean, "train": train,
            "weights": weights, "codes": codes}


def test_chain_exits_zero(pipeline):
    assert pipeline["codes"] == {name: 0 for name in pipeline["codes"]}


def test_synth_writes_a_loadable_dataset(pipeline):
    from mvml import load_dataset

    ds = load_dataset(pipeline["clean"])
    assert ds.aligned
    assert ds.n_samples == 60 and ds.n_labels == 5 and ds.n_views == 2
    assert all(np.isin(v.labels, (-1.0, 1.0)).all() for v in ds.views)


def test_corrupt_applies_the_config_recipe(pipeline):
    from mvml import load_dataset

    ds = load_dataset(pipeline["train"])
    assert not ds.aligned  # dealign=true in the config
    assert any(v.missing_rows.any() for v in ds.views)
    assert any((v.labels == 0).any() for v in ds.views)


def test_fit_outputs(pipeline):
    root = pipeline["root"]
    fit_json = json.loads((root / "runs" / "fit" / "fit.json").read_text())
    assert fit_json["iterations"] >= 1
    assert len(fit_json["convergence"]["objective"]) == fit_json["iterations"]

    lines = (root / "runs" / "fit" / "convergence.csv").read_text().splitlines()
    assert lines[0] == "iteration,objective,surrogate,residual"
    assert len(lines) == 1 + fit_json["iterations"]

    with np.load(pipeline["weights"]) as payload:
        assert sorted(payload.files) == ["view0", "view1"]
        assert payload["view0"].shape == (5, 5)
        assert payload["view1"].shape == (6, 5)


def test_fit_json_carries_the_final_surrogate(pipeline):
    fit_json = json.loads((pipeline["root"] / "runs" / "fit" / "fit.json").read_text())
    assert fit_json["final_surrogate"] == fit_json["convergence"]["surrogate"][-1]


def test_fit_json_carries_timing_that_strips_away(pipeline):
    from mvml.experiments import strip_timing

    fit_json = json.loads((pipeline["root"] / "runs" / "fit" / "fit.json").read_text())
    assert sorted(fit_json["timing"]) == ["iteration_seconds", "setup_seconds"]
    assert fit_json["timing"]["setup_seconds"] > 0.0
    assert len(fit_json["timing"]["iteration_seconds"]) == fit_json["iterations"]
    assert sorted(strip_timing(fit_json)) == [
        "converged", "convergence", "final_objective", "final_residual", "final_surrogate",
        "iterations",
    ]


def test_predict_writes_scores(pipeline):
    scores = np.loadtxt(pipeline["root"] / "runs" / "pred" / "scores.csv", delimiter=",")
    assert scores.shape == (60, 5)
    assert np.isfinite(scores).all()


def test_evaluate_writes_metrics(pipeline):
    report = json.loads((pipeline["root"] / "runs" / "eval" / "metrics.json").read_text())
    for name in ("one_minus_hamming", "one_minus_ranking", "average_precision", "auc"):
        assert 0.0 <= report[name] <= 1.0
    assert report["n_test"] == 60 and report["n_labels"] == 5


def test_rank_diag_writes_diagnostics(pipeline):
    diag = json.loads((pipeline["root"] / "runs" / "rank" / "rank_diagnostics.json").read_text())
    assert 1 <= diag["entire_rank"] <= 5
    assert len(diag["sub_ranks"]) == 5
    assert diag["entire_nuclear"] > 0.0


def test_evaluate_csv_format(pipeline, tmp_path):
    code = main(["evaluate", "--weights", pipeline["weights"], "--data", pipeline["clean"],
                 "--out", str(tmp_path), "--format", "csv"])
    assert code == 0
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "metric,value"
    assert lines[1].startswith("one_minus_hamming,")


def test_evaluate_prints_the_metrics(pipeline, tmp_path, capsys):
    main(["evaluate", "--weights", pipeline["weights"], "--data", pipeline["clean"],
          "--out", str(tmp_path)])
    printed = capsys.readouterr().out
    for name in ("one_minus_hamming", "one_minus_ranking", "average_precision", "auc"):
        assert f"{name}: " in printed


def test_evaluate_on_unobserved_truth_names_the_entry(pipeline, tmp_path, capsys):
    from mvml import load_dataset

    aligned = corrupt(load_dataset(pipeline["clean"]), CorruptionSpec(alpha=0.3, beta=0.3, seed=2))
    save_dataset(aligned, tmp_path / "data")
    r, j = np.argwhere(aligned.views[0].labels == 0.0)[0]  # a missing row or a removed tag
    code = main(["evaluate", "--weights", pipeline["weights"], "--data", str(tmp_path / "data"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: truth row {r}, column {j} is 0.0, expected -1 or +1"]
    assert not (tmp_path / "o" / "metrics.json").exists()


# --------------------------------------------------------- study commands


def test_ablate_covers_all_variants(tmp_path):
    config = write_config(tmp_path, solver={**SMALL_CONFIG["solver"], "max_iters": 15})
    out = tmp_path / "ablation"
    assert main(["ablate", "--config", config, "--out", str(out)]) == 0
    summary = json.loads((out / "ablation.json").read_text())
    assert sorted(summary) == ["full", "loss_only", "loss_plus_local"]
    for variant in summary.values():
        assert set(variant) == {
            "one_minus_hamming", "one_minus_ranking", "average_precision", "auc",
        }
    assert (out / "variant_full" / "report.json").is_file()


def test_sweep_lambda_grid(tmp_path):
    config = write_config(tmp_path, solver={**SMALL_CONFIG["solver"], "max_iters": 15})
    out = tmp_path / "sweep"
    assert main(["sweep-lambda", "--config", config, "--out", str(out),
                 "--grid", "0.1", "1.0"]) == 0
    rows = json.loads((out / "lambda_sweep.json").read_text())
    assert sorted(rows) == ["0.1", "1"]
    for row in rows.values():
        assert row["iterations"][0] >= 1
        assert "auc" in row["summary"]


def test_study_mu_grid(tmp_path):
    config = write_config(tmp_path, solver={**SMALL_CONFIG["solver"], "max_iters": 15})
    out = tmp_path / "mu"
    assert main(["study-mu", "--config", config, "--out", str(out), "--grid", "1", "5"]) == 0
    rows = json.loads((out / "mu_sweep.json").read_text())
    assert sorted(rows) == ["1", "5"]


def test_ablate_loads_the_dataset_once(tmp_path, monkeypatch):
    data = tmp_path / "data"
    save_dataset(generate_synthetic(SyntheticSpec(n=60, c=5, n_views=2, dims=(5, 6),
                                                  positives_per_sample=2, seed=7)), data)
    loads = []

    def counted(path):
        loads.append(path)
        return dataset_io.load_dataset(path)

    monkeypatch.setattr("mvml.experiments.load_dataset", counted)
    config = write_config(tmp_path, solver={**SMALL_CONFIG["solver"], "max_iters": 15})
    assert main(["ablate", "--config", config, "--data", str(data),
                 "--out", str(tmp_path / "ablation")]) == 0
    assert loads == [str(data)]


def on_one_and_two_lanes(tmp_path, capsys, argv):
    """``(exit code, stdout, stderr, outputs)`` of ``main(argv + --out)`` on one lane and
    on two, with a worker that runs all it can claim; the output directory is reused."""
    out = tmp_path / "out"
    runs = []
    for lanes in (one_lane(), worker_takes_the_rest()):
        with lanes:
            code = main([*argv, "--out", str(out)])
        runs.append((code, *capsys.readouterr(), stripped_outputs(out)))
        shutil.rmtree(out)
    return runs


@pytest.mark.parametrize("argv", [
    ["ablate"],
    ["sweep-lambda", "--grid", "0.1", "1.0", "--format", "csv"],
])
def test_two_lanes_write_and_print_what_one_lane_does(tmp_path, capsys, argv):
    config = write_config(tmp_path, solver={**SMALL_CONFIG["solver"], "max_iters": 15},
                          repeats=2)
    one, two = on_one_and_two_lanes(tmp_path, capsys, [*argv, "--config", config])
    assert one == two
    assert one[0] == 0 and one[1].count("\n") == (3 if argv[0] == "ablate" else 2)


def test_a_command_whose_worker_task_diverges_exits_two_like_one_lane(tmp_path, capsys):
    config = write_config(tmp_path, solver={"lam": 0.5, "mu": 5.0, "max_iters": 150,
                                            "rel_tol": 0.0, "init_seed": 1})
    threads = threading.active_count()
    one, two = on_one_and_two_lanes(
        tmp_path, capsys, ["study-mu", "--config", config, "--grid", "5", "0.02"])
    assert one == two
    code, stdout, stderr, outputs = one
    assert code == 2 and stdout.startswith("mu=5: ") and stdout.count("\n") == 1
    assert stderr.startswith("numerical failure: repeat 0: objective became non-finite")
    assert len(stderr.splitlines()) == 1 and "Traceback" not in stderr
    assert sorted(outputs) == ["mu_5/report.json"]  # the diverging value writes no report
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


def test_a_worker_killed_mid_task_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("mvml.cli.load_source",
                        lambda config: DyingDataset(views=generate_synthetic(config.source).views))
    threads = threading.active_count()
    with worker_takes_the_rest():
        code = main(["ablate", "--config", write_config(tmp_path), "--out", str(tmp_path / "o")])
    assert code == 1
    stdout, stderr = capsys.readouterr()
    assert stderr == "error: repeat 0: the worker process running it died (exit code -9)\n"
    assert stdout.startswith("full: ") and stdout.count("\n") == 1  # the first variant's line
    assert multiprocessing.active_children() == []
    assert threading.active_count() == threads


@pytest.mark.parametrize("command", ["sweep-lambda", "study-mu"])
def test_a_grid_value_that_is_not_a_number_exits_one(tmp_path, capsys, command):
    code = main([command, "--config", write_config(tmp_path), "--out", str(tmp_path / "o"),
                 "--grid", "1", "abc"])
    assert code == 1
    err = capsys.readouterr().err
    assert "invalid float value: 'abc'" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["sweep-lambda", "study-mu"])
def test_grid_values_that_share_a_name_exit_one(tmp_path, capsys, command):
    # 0.1 and 0.1000001 both print as 0.1, so they would share one directory and one row
    out = tmp_path / "o"
    code = main([command, "--config", write_config(tmp_path), "--out", str(out),
                 "--grid", "0.1", "0.1000001"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "0.1 and 0.1000001 share the name 0.1" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("tol", ["1", "2"])
def test_rank_diag_tol_of_one_or_more_exits_one(pipeline, tmp_path, capsys, tol):
    # a cutoff at tol * sigma_max with tol >= 1 would report rank 0 for every matrix
    code = main(["rank-diag", "--weights", pipeline["weights"], "--data", pipeline["train"],
                 "--out", str(tmp_path / "o"), "--tol", tol])
    assert code == 1
    err = capsys.readouterr().err
    assert "tol must be finite and in (0, 1)" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_bench_subgrad_table_and_report(tmp_path, capsys):
    out = tmp_path / "bench"
    code = main(["bench-subgrad", "--sizes", "60x5", "80x4", "--repeats", "1",
                 "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "kernel_s" in printed and "oracle_s" in printed
    rows = json.loads((out / "bench_subgrad.json").read_text())
    assert [(r["n"], r["c"]) for r in rows] == [(60, 5), (80, 4)]
    assert all(r["kernel_seconds"] > 0 for r in rows)


def test_bench_subgrad_csv_report(tmp_path):
    out = tmp_path / "bench"
    code = main(["bench-subgrad", "--sizes", "60x5", "80x4", "--repeats", "1",
                 "--oracle-memory-limit", "50000", "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = (out / "bench_subgrad.csv").read_text().splitlines()
    assert lines[0] == "n,c,kernel_seconds,oracle_seconds"
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], r[1]) for r in rows] == [("60", "5"), ("80", "4")]
    assert all(float(r[2]) > 0 for r in rows)
    # 60x5 fits the oracle's memory limit, 80x4 does not and leaves its cell empty
    assert float(rows[0][3]) > 0 and rows[1][3] == ""


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_bench_subgrad_format_without_out_exits_one(tmp_path, monkeypatch, capsys, fmt):
    # without --out no report is written, so a --format would be a no-op setting
    monkeypatch.chdir(tmp_path)
    code = main(["bench-subgrad", "--sizes", "60x5", "--repeats", "1", "--format", fmt])
    assert code == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "--out" in err[0]
    assert captured.out == "" and not list(tmp_path.iterdir())


def test_bench_subgrad_marks_skipped_oracle(capsys):
    code = main(["bench-subgrad", "--sizes", "80x4", "--repeats", "1",
                 "--oracle-memory-limit", "1000"])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert lines[-1].split()[-1] == "-"


def test_master_seed_overrides_config_seeds(tmp_path):
    config = write_config(tmp_path)
    for name, seed in (("a", "5"), ("b", "5"), ("c", "6")):
        assert main(["synth", "--config", config, "--seed", seed,
                     "--out", str(tmp_path / name)]) == 0
    a = (tmp_path / "a" / "view0_features.csv").read_bytes()
    b = (tmp_path / "b" / "view0_features.csv").read_bytes()
    c = (tmp_path / "c" / "view0_features.csv").read_bytes()
    assert a == b
    assert a != c


# ------------------------------------------------------------ exit codes


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_argparse_errors_map_to_one():
    assert main(["no-such-command"]) == 1
    assert main(["predict"]) == 1  # --weights is required
    assert main(["fit", "--format", "xml"]) == 1


@pytest.mark.parametrize("command, flag", [
    ("synth", "--format"), ("corrupt", "--format"),
    ("predict", "--format"), ("predict", "--config"), ("predict", "--seed"),
    ("evaluate", "--config"), ("evaluate", "--seed"),
    ("rank-diag", "--format"), ("rank-diag", "--config"), ("rank-diag", "--seed"),
    ("bench-subgrad", "--config"),
])
def test_a_common_flag_the_command_does_not_read_exits_one(pipeline, tmp_path, capsys,
                                                           command, flag):
    # each command declares only the common flags it reads, so a no-op setting is an error
    inputs = {
        "synth": ["--config", pipeline["config"]],
        "corrupt": ["--config", pipeline["config"], "--data", pipeline["clean"]],
        "rank-diag": ["--weights", pipeline["weights"], "--data", pipeline["train"]],
        "bench-subgrad": ["--sizes", "60x5", "--repeats", "1"],
    }.get(command, ["--weights", pipeline["weights"], "--data", pipeline["clean"]])
    value = {"--format": "csv", "--config": pipeline["config"], "--seed": "3"}[flag]
    out = tmp_path / "o"
    code = main([command, *inputs, "--out", str(out), flag, value])
    assert code == 1
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


def test_validation_errors_exit_one(tmp_path):
    # no dataset anywhere
    assert main(["fit", "--out", str(tmp_path / "o")]) == 1
    # dataset directory does not exist
    assert main(["fit", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 1
    # config file missing / malformed
    assert main(["synth", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    # missing output directory
    config = write_config(tmp_path)
    assert main(["synth", "--config", config]) == 1
    # weights file does not exist
    assert main(["predict", "--weights", str(tmp_path / "w.npz"),
                 "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 1
    # bench sizes must look like NxC
    assert main(["bench-subgrad", "--sizes", "nope"]) == 1


def test_numerical_failure_exits_two(tmp_path, capsys):
    # a label matrix whose rows all hold exactly p positives among c = 2p
    # labels cannot reach full rank, so generation must give up
    config = write_config(
        tmp_path,
        dataset={"synthetic": {**SMALL_CONFIG["dataset"]["synthetic"], "c": 4}},
    )
    code = main(["synth", "--config", config, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_a_diverging_fit_exits_two(tmp_path, capsys):
    save_dataset(diverging_training_set(), tmp_path / "train")
    config = write_config(tmp_path, solver=DIVERGING_SOLVER)
    code = main(["fit", "--config", config, "--data", str(tmp_path / "train"),
                 "--out", str(tmp_path / "fit")])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")


@pytest.mark.parametrize(
    "argv_tail, overrides",
    [
        (["ablate"], {"split": {**SMALL_CONFIG["split"], "seed": -1}}),
        (["ablate"], {"solver": {**SMALL_CONFIG["solver"], "init_seed": -1}}),
        (["ablate"], {"repeats": True}),
        (["synth", "--seed", "-1"], {}),
        (["bench-subgrad", "--sizes", "60x5", "--seed", "-1"], {}),
        (["bench-subgrad", "--sizes", "60x5", "--repeats", "0"], {}),
    ],
    ids=["split-seed", "init-seed", "bool-repeats", "synth-master-seed", "bench-seed",
         "bench-zero-repeats"],
)
def test_bad_seeds_and_counts_exit_one(tmp_path, capsys, argv_tail, overrides):
    config = write_config(tmp_path, **overrides)
    reads_config = argv_tail[0] != "bench-subgrad"  # which declares no --config
    config_flag = ["--config", config] if reads_config else []
    code = main([*argv_tail, *config_flag, "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv_tail, overrides",
    [
        (["ablate"], {"solver": {**SMALL_CONFIG["solver"], "max_iters": 2.5}}),
        (["synth"], {"dataset": {"synthetic": {**SMALL_CONFIG["dataset"]["synthetic"],
                                               "n": 40.5}}}),
        (["synth"], {"dataset": {"synthetic": {**SMALL_CONFIG["dataset"]["synthetic"],
                                               "dims": [5.5, 6]}}}),
        (["synth"], {"dataset": {"synthetic": {**SMALL_CONFIG["dataset"]["synthetic"],
                                               "dims": 5}}}),
        (["synth"], {"dataset": {"synthetic": "x"}}),
        (["synth"], {"corruption": {**SMALL_CONFIG["corruption"], "dealign": "false"}}),
        (["ablate"], {"solver": {**SMALL_CONFIG["solver"], "lam": 10**400}}),
    ],
    ids=["float-max-iters", "float-n", "float-dims", "scalar-dims", "synthetic-not-object",
         "string-dealign", "huge-lam"],
)
def test_malformed_config_fields_exit_one(tmp_path, capsys, argv_tail, overrides):
    config = write_config(tmp_path, **overrides)
    code = main([*argv_tail, "--config", config, "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_view_without_positive_tags_exits_one(tmp_path, capsys):
    ds = corrupt(
        generate_synthetic(SyntheticSpec(n=200, c=10, n_views=2, dims=(5, 6), seed=1)),
        CorruptionSpec(alpha=0.3, beta=1.0, seed=2),
    )
    save_dataset(ds, tmp_path / "data")
    code = main(["fit", "--data", str(tmp_path / "data"), "--config", write_config(tmp_path),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: view 0: no present row")


@pytest.mark.parametrize("kind", ["misnamed-arrays", "not-npz", "missing-file", "bare-npy",
                                  "object-array", "corrupt-member"])
def test_malformed_weights_exit_one(pipeline, tmp_path, capsys, kind):
    weights = tmp_path / "w.npz"
    if kind == "misnamed-arrays":
        np.savez(weights, first=np.zeros((5, 5)), second=np.zeros((6, 5)))
    elif kind == "not-npz":
        weights.write_text("not an archive\n")
    elif kind == "bare-npy":
        with weights.open("wb") as fh:  # one array, under the name an archive would have
            np.save(fh, np.zeros((5, 5)))
    elif kind == "object-array":  # loading it would need pickle
        np.savez(weights, view0=np.array([None, 1.0], dtype=object), view1=np.zeros((6, 5)))
    elif kind == "corrupt-member":  # view0.npy's last byte flipped: its CRC no longer holds
        np.savez(weights, view0=np.zeros((5, 5)), view1=np.zeros((6, 5)))
        member = io.BytesIO()
        np.save(member, np.zeros((5, 5)))
        data = bytearray(weights.read_bytes())
        data[data.index(member.getvalue()) + len(member.getvalue()) - 1] ^= 0xFF
        weights.write_bytes(bytes(data))
    code = main(["predict", "--weights", str(weights), "--data", pipeline["clean"],
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
