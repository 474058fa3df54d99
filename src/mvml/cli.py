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
``outputs``. Each command declares only the common flags it reads:
``--out`` (all), ``--config`` and ``--seed``, one master value that
rederives every seed in the config (all but ``predict``, ``evaluate``,
``rank-diag`` and ``bench-subgrad``, whose own ``--seed`` seeds its
random matrices), and ``--format``, ``json`` (default) or ``csv``
reports (``fit``, ``evaluate``, ``ablate``, ``sweep-lambda``,
``study-mu`` and ``bench-subgrad``, which writes a report only with
``--out``, so ``--format`` without it exits 1). Two ``--grid`` values
that print alike (``{value:g}``) would share an output directory, so
they exit 1.

Exit codes: 0 on success, 1 on validation or input errors, 2 on
numerical failures (singular systems, non-finite objectives, failed
generation).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dataset_io import (
    csv_text, json_text, load_dataset, load_weights, save_dataset, save_weights, write_file,
)
from .errors import (
    GenerationFailure,
    InvalidInput,
    MvmlError,
    NonFiniteObjective,
    SingularSystem,
    _check_seed,
)
from .experiments import (
    DEFAULT_LAMBDA_GRID,
    DEFAULT_MU_GRID,
    REPORT_FORMATS,
    ExperimentConfig,
    bench_subgradient,
    derive_seed,
    load_source,
    prediction_stack_with_sublabels,
    run_experiment,
)
from .masking import SyntheticSpec, corrupt, generate_synthetic
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
    write_file(out / "fit.json", json_text(
        {**trace.summary(), "convergence": trace.to_dict(), "timing": trace.timing()}))
    if args.format == "csv":
        write_file(out / "convergence.csv", csv_text(trace.rows()))
    print(f"fit finished in {trace.iterations} iterations "
          f"(converged={trace.converged}); weights in {out}")
    return 0


def _cmd_predict(args):
    ds = load_dataset(args.data)
    scores = predict(load_weights(args.weights), ds)
    path = write_file(_out_dir(args) / "scores.csv", csv_text(scores, "%.17g"))
    print(f"wrote scores for {scores.shape[0]} samples to {path}")
    return 0


def _cmd_evaluate(args):
    ds = load_dataset(args.data)
    scores = predict(load_weights(args.weights), ds)
    report = evaluate_predictions(scores, ds.views[0].labels)
    out = _out_dir(args)
    if args.format == "csv":
        rows = [["metric", "value"]] + [[k, repr(v)] for k, v in report.to_dict().items()]
        write_file(out / "metrics.csv", csv_text(rows))
    else:
        write_file(out / "metrics.json", json_text(report.to_dict()))
    for name, value in report.to_dict().items():
        print(f"{name}: {value}")
    return 0


def _cmd_rank_diag(args):
    ds = load_dataset(args.data)
    w = load_weights(args.weights)
    stack, rows_per_label = prediction_stack_with_sublabels(ds, w)
    diag = rank_diagnostics(stack, rows_per_label, tol=args.tol)
    write_file(_out_dir(args) / "rank_diagnostics.json", json_text(diag.to_dict()))
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
    write_file(out / "ablation.json", json_text(summary))
    return 0


def _grid_command(args, name, field):
    values = {}  # by the name ``{value:g}`` of its output directory and report row
    for value in args.grid:
        key = f"{value:g}"
        if key in values:
            raise InvalidInput(f"--grid values {values[key]!r} and {value!r} share the name {key}")
        values[key] = value
    config = _experiment_config(args)
    out = _out_dir(args, config)
    rows = {}
    for key, value in values.items():
        vcfg = replace(config, solver=replace(config.solver, **{field: value}),
                       outputs=str(out / f"{name}_{key}"))
        record = run_experiment(vcfg, fmt=args.format)
        rows[key] = {
            "summary": record.summary,
            "iterations": [r.trace.iterations for r in record.repeats],
        }
        print(f"{name}={key}: " + ", ".join(
            f"{metric}={stats['mean']:.4f}" for metric, stats in record.summary.items()
        ))
    write_file(out / f"{name}_sweep.json", json_text(rows))
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
    if args.format and not args.out:
        raise InvalidInput("--format needs --out: without it bench-subgrad writes no report")
    sizes = [_parse_size(s) for s in args.sizes]
    rows = bench_subgradient(
        sizes=sizes,
        repeats=args.repeats,
        seed=args.seed,
        oracle_memory_limit=args.oracle_memory_limit,
    )
    print(f"{'n':>8} {'c':>6} {'kernel_s':>12} {'oracle_s':>12}")
    for row in rows:
        oracle = "-" if row["oracle_seconds"] is None else f"{row['oracle_seconds']:.4f}"
        print(f"{row['n']:>8} {row['c']:>6} {row['kernel_seconds']:>12.4f} {oracle:>12}")
    if args.out:
        out = _out_dir(args)
        if args.format == "csv":
            keys = ["n", "c", "kernel_seconds", "oracle_seconds"]
            cells = [["" if row[k] is None else repr(row[k]) for k in keys] for row in rows]
            write_file(out / "bench_subgrad.csv", csv_text([keys] + cells))
        else:
            write_file(out / "bench_subgrad.json", json_text(rows))
    return 0


def _add_common(parser, config=True, fmt=True, data=False, weights=False):
    if config:
        parser.add_argument("--config", help="JSON experiment config")
        parser.add_argument("--seed", type=int, help="master seed overriding all config seeds")
    parser.add_argument("--out", help="output directory")
    if fmt:
        parser.add_argument("--format", choices=REPORT_FORMATS, default="json")
    if data:
        parser.add_argument("--data", help="dataset directory")
    if weights:
        parser.add_argument("--weights", required=True, help="weights .npz from fit")


def _build_parser():
    parser = argparse.ArgumentParser(prog="mvml", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a planted synthetic dataset")
    _add_common(p, fmt=False)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("corrupt", help="remove samples and tags, optionally de-align")
    _add_common(p, fmt=False, data=True)
    p.set_defaults(func=_cmd_corrupt)

    p = sub.add_parser("fit", help="train on a dataset")
    _add_common(p, data=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("predict", help="score a dataset with trained weights")
    _add_common(p, config=False, fmt=False, data=True, weights=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="compute the four metrics on a labeled dataset")
    _add_common(p, config=False, data=True, weights=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("rank-diag", help="numeric ranks of the prediction stack")
    _add_common(p, config=False, fmt=False, data=True, weights=True)
    p.add_argument("--tol", type=float, help="relative singular value cutoff")
    p.set_defaults(func=_cmd_rank_diag)

    p = sub.add_parser("ablate", help="run all solver variants on one config")
    _add_common(p, data=True)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("sweep-lambda", help="sweep the trade-off parameter")
    _add_common(p, data=True)
    p.add_argument("--grid", nargs="+", type=float, default=list(DEFAULT_LAMBDA_GRID))
    p.set_defaults(func=_cmd_sweep_lambda)

    p = sub.add_parser("study-mu", help="sweep the splitting penalty")
    _add_common(p, data=True)
    p.add_argument("--grid", nargs="+", type=float, default=list(DEFAULT_MU_GRID))
    p.set_defaults(func=_cmd_study_mu)

    p = sub.add_parser("bench-subgrad", help="time the subgradient kernel vs a full SVD")
    _add_common(p, config=False)
    p.add_argument("--seed", type=int, default=0, help="seed of the random matrices")
    p.add_argument(
        "--sizes",
        nargs="+",
        default=["10000x100", "10000x200", "20000x100", "20000x200", "40000x100", "40000x200"],
    )
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--oracle-memory-limit", type=float, default=2e9)
    p.set_defaults(func=_cmd_bench_subgrad, format=None)  # a report is JSON unless --format

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if getattr(args, "seed", None) is not None:
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
