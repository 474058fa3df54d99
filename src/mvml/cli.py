"""Command-line interface for the multi-view multi-label pipeline.

Typical session::

    mvml synth --config exp.json --out data/clean
    mvml corrupt --data data/clean --config exp.json --out data/train
    mvml fit --data data/train --config exp.json --out runs/fit
    mvml predict --weights runs/fit/weights.npz --data data/clean --out runs/pred
    mvml evaluate --weights runs/fit/weights.npz --data data/clean --out runs/eval
    mvml ablate --config exp.json --out runs/ablation
    mvml sweep-lambda --config exp.json --out runs/sweep
    mvml study-mu --config exp.json --out runs/mu
    mvml bench-subgrad --sizes 10000x100 20000x100 --out runs/bench
    mvml rank-diag --weights runs/fit/weights.npz --data data/train --out runs/rank

The config file is a JSON object with optional sections ``dataset``
(either ``{"synthetic": {...}}`` or ``{"path": "dir"}``),
``corruption``, ``solver``, ``split``, plus ``repeats`` and
``outputs``. ``--seed`` rederives every seed in the config from one
master value; ``--out`` overrides the output directory; ``--format``
picks ``json`` (default) or ``csv`` reports.

Exit codes: 0 on success, 1 on validation or input errors, 2 on
numerical failures (singular systems, non-finite objectives, failed
generation).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import WeightStack
from .dataset_io import load_dataset, save_dataset
from .errors import (
    GenerationFailure,
    InvalidInput,
    MvmlError,
    NonFiniteObjective,
    SingularSystem,
)
from .experiments import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_MU_GRID,
    ExperimentConfig,
    _atomic_write,
    _csv_text,
    bench_subgradient,
    derive_seed,
    load_source,
    prediction_stack_with_sublabels,
    run_experiment,
)
from .masking import SyntheticSpec, _check_seed, corrupt, generate_synthetic
from .metrics import evaluate_predictions, rank_diagnostics
from .solver import Variant, fit, predict

_NUMERICAL_ERRORS = (SingularSystem, NonFiniteObjective, GenerationFailure)


def _read_config_file(path):
    path = Path(path)
    if not path.is_file():
        raise InvalidInput(f"config file {path} does not exist")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise InvalidInput(f"config file {path} must hold a JSON object")
    return raw


def _experiment_config(args, default_dataset=None):
    raw = _read_config_file(args.config) if args.config else {}
    if getattr(args, "data", None):
        raw = {**raw, "dataset": {"path": str(args.data)}}
    if "dataset" not in raw:
        if default_dataset is None:
            raise InvalidInput("no dataset: pass --data or a config with a dataset section")
        raw = {**raw, "dataset": default_dataset}
    config = ExperimentConfig.from_dict(raw)
    if getattr(args, "out", None):
        config = replace(config, outputs=str(args.out))
    if args.seed is not None:
        source = config.source
        if isinstance(source, SyntheticSpec):
            source = replace(source, seed=derive_seed(args.seed, 0))
        config = replace(
            config,
            source=source,
            corruption=replace(config.corruption, seed=derive_seed(args.seed, 1)),
            solver=replace(config.solver, init_seed=derive_seed(args.seed, 2)),
            split=replace(config.split, seed=derive_seed(args.seed, 3)),
        )
    return config


def _out_dir(args, config=None):
    out = getattr(args, "out", None) or (config.outputs if config else None)
    if not out:
        raise InvalidInput("no output directory: pass --out or set outputs in the config")
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path, payload):
    return _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def save_weights(w, path):
    np.savez(path, **{f"view{i}": wi for i, wi in enumerate(w.weights)})
    return path


def load_weights(path):
    """The weight stack ``save_weights`` wrote: an ``.npz`` of ``view0``, ``view1``, ..."""
    path = Path(path)
    if not path.is_file():
        raise InvalidInput(f"weights file {path} does not exist")
    try:
        payload = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise InvalidInput(f"weights file {path} is not an .npz archive: {exc}")
    if not isinstance(payload, np.lib.npyio.NpzFile):
        raise InvalidInput(f"weights file {path} holds one array, not an .npz archive")
    with payload:
        names = [f"view{i}" for i in range(len(payload.files))]
        if set(payload.files) != set(names):
            raise InvalidInput(f"weights file {path} holds {payload.files}, not view0, view1, ...")
        return WeightStack([payload[name] for name in names])


def _cmd_synth(args):
    config = _experiment_config(args, default_dataset={"synthetic": {}})
    if not isinstance(config.source, SyntheticSpec):
        raise InvalidInput("synth needs a synthetic dataset section")
    out = _out_dir(args, config)
    ds = generate_synthetic(config.source)
    save_dataset(ds, out)
    print(f"wrote {ds.n_views}-view dataset (n={ds.n_samples}, c={ds.n_labels}) to {out}")
    return 0


def _cmd_corrupt(args):
    config = _experiment_config(args)
    out = _out_dir(args, config)
    ds = load_source(config)
    corrupted = corrupt(ds, config.corruption)
    save_dataset(corrupted, out)
    print(f"wrote corrupted dataset (alpha={config.corruption.alpha}, "
          f"beta={config.corruption.beta}, dealign={config.corruption.dealign}) to {out}")
    return 0


def _cmd_fit(args):
    config = _experiment_config(args)
    out = _out_dir(args, config)
    ds = load_source(config)
    w, trace = fit(ds, config.solver)
    save_weights(w, out / "weights.npz")
    _write_json(out / "fit.json", {**trace.summary(), "convergence": trace.to_dict()})
    if args.format == "csv":
        _atomic_write(out / "convergence.csv", _csv_text(trace.rows()))
    print(f"fit finished in {trace.iterations} iterations "
          f"(converged={trace.converged}); weights in {out}")
    return 0


def _cmd_predict(args):
    ds = load_dataset(args.data)
    w = load_weights(args.weights)
    scores = predict(w, ds)
    out = _out_dir(args)
    text = io.StringIO()
    np.savetxt(text, scores, delimiter=",", fmt="%.17g")
    _atomic_write(out / "scores.csv", text.getvalue())
    print(f"wrote scores for {scores.shape[0]} samples to {out / 'scores.csv'}")
    return 0


def _cmd_evaluate(args):
    ds = load_dataset(args.data)
    w = load_weights(args.weights)
    scores = predict(w, ds)
    truth = ds.views[0].labels
    report = evaluate_predictions(scores, truth)
    out = _out_dir(args)
    if args.format == "csv":
        rows = [["metric", "value"]] + [[k, repr(v)] for k, v in report.to_dict().items()]
        _atomic_write(out / "metrics.csv", _csv_text(rows))
    else:
        _write_json(out / "metrics.json", report.to_dict())
    for name, value in report.to_dict().items():
        print(f"{name}: {value}")
    return 0


def _cmd_rank_diag(args):
    ds = load_dataset(args.data)
    w = load_weights(args.weights)
    stack, rows_per_label = prediction_stack_with_sublabels(ds, w)
    diag = rank_diagnostics(stack, rows_per_label, tol=args.tol)
    out = _out_dir(args)
    _write_json(out / "rank_diagnostics.json", diag.to_dict())
    print(f"entire rank {diag.entire_rank} of {min(stack.shape)}, "
          f"mean sub-label rank {float(np.mean(diag.sub_ranks)):.2f}")
    return 0


def _cmd_ablate(args):
    config = _experiment_config(args)
    out = _out_dir(args, config)
    summary = {}
    for variant in Variant:
        vcfg = replace(
            config,
            solver=replace(config.solver, variant=variant),
            outputs=str(out / f"variant_{variant.value}"),
        )
        record = run_experiment(vcfg, fmt=args.format)
        summary[variant.value] = record.summary
        print(f"{variant.value}: " + ", ".join(
            f"{name}={stats['mean']:.4f}" for name, stats in record.summary.items()
        ))
    _write_json(out / "ablation.json", summary)
    return 0


def _grid_command(args, name, field):
    config = _experiment_config(args)
    out = _out_dir(args, config)
    rows = {}
    for value in (float(v) for v in args.grid):
        vcfg = replace(config, solver=replace(config.solver, **{field: value}),
                       outputs=str(out / f"{name}_{value:g}"))
        record = run_experiment(vcfg, fmt=args.format)
        rows[f"{value:g}"] = {
            "summary": record.summary,
            "iterations": [r.trace.iterations for r in record.repeats],
        }
        print(f"{name}={value:g}: " + ", ".join(
            f"{metric}={stats['mean']:.4f}" for metric, stats in record.summary.items()
        ))
    _write_json(out / f"{name}_sweep.json", rows)
    return 0


def _cmd_sweep_lambda(args):
    return _grid_command(args, "lambda", "lam")


def _cmd_study_mu(args):
    return _grid_command(args, "mu", "mu")


def _parse_size(text):
    try:
        n, c = text.lower().split("x")
        return int(n), int(c)
    except ValueError:
        raise InvalidInput(f"sizes must look like 10000x100, got {text!r}")


def _cmd_bench_subgrad(args):
    sizes = [_parse_size(s) for s in args.sizes]
    rows = bench_subgradient(
        sizes=sizes,
        repeats=args.repeats,
        seed=args.seed if args.seed is not None else 0,
        oracle_memory_limit=args.oracle_memory_limit,
    )
    print(f"{'n':>8} {'c':>6} {'kernel_s':>12} {'oracle_s':>12}")
    for row in rows:
        oracle = "-" if row["oracle_seconds"] is None else f"{row['oracle_seconds']:.4f}"
        print(f"{row['n']:>8} {row['c']:>6} {row['kernel_seconds']:>12.4f} {oracle:>12}")
    if args.out:
        out = _out_dir(args)
        if args.format == "csv":
            table = [["n", "c", "kernel_seconds", "oracle_seconds"]]
            for row in rows:
                oracle = "" if row["oracle_seconds"] is None else repr(row["oracle_seconds"])
                table.append([str(row["n"]), str(row["c"]), repr(row["kernel_seconds"]), oracle])
            _atomic_write(out / "bench_subgrad.csv", _csv_text(table))
        else:
            _write_json(out / "bench_subgrad.json", rows)
    return 0


def _add_common(parser, data=False, weights=False):
    parser.add_argument("--config", help="JSON experiment config")
    parser.add_argument("--seed", type=int, help="master seed overriding all config seeds")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    if data:
        parser.add_argument("--data", help="dataset directory")
    if weights:
        parser.add_argument("--weights", required=True, help="weights .npz from fit")


def _build_parser():
    parser = argparse.ArgumentParser(prog="mvml", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted synthetic dataset")
    _add_common(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("corrupt", help="remove samples and tags, optionally de-align")
    _add_common(p, data=True)
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("fit", help="train on a dataset")
    _add_common(p, data=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="score a dataset with trained weights")
    _add_common(p, data=True, weights=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="compute the four metrics on a labeled dataset")
    _add_common(p, data=True, weights=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("rank-diag", help="numeric ranks of the prediction stack")
    _add_common(p, data=True, weights=True)
    p.add_argument("--tol", type=float, help="relative singular value cutoff")
    p.set_defaults(func=_cmd_rank_diag)

    p = sub.add_parser("ablate", help="run all solver variants on one config")
    _add_common(p, data=True)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("sweep-lambda", help="sweep the trade-off parameter")
    _add_common(p, data=True)
    p.add_argument("--grid", nargs="+", default=[str(v) for v in DEFAULT_LAMBDA_GRID])
    p.set_defaults(func=_cmd_sweep_lambda)

    p = sub.add_parser("study-mu", help="sweep the splitting penalty")
    _add_common(p, data=True)
    p.add_argument("--grid", nargs="+", default=[str(v) for v in DEFAULT_MU_GRID])
    p.set_defaults(func=_cmd_study_mu)

    p = sub.add_parser("bench-subgrad", help="time the subgradient kernel vs a full SVD")
    _add_common(p)
    p.add_argument(
        "--sizes",
        nargs="+",
        default=["10000x100", "10000x200", "20000x100", "20000x200", "40000x100", "40000x200"],
    )
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--oracle-memory-limit", type=float, default=2e9)
    p.set_defaults(func=_cmd_bench_subgrad)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if args.seed is not None:
            _check_seed(args.seed, "--seed")
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (MvmlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
