"""Benchmark of the mvml library, driven from outside the package.

Usage, from the repository root::

    python3 perfbench/run.py --workload desk --seed 0 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` repeats the run with the outside-in span recorder of
``perfbench/tracing.py`` and prints the per-layer metrics instead. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it carry the environment block and a readable table. One fit is one
attempted operation, and a fit whose output check fails counts as
failed without stopping the run. The library is imported from ``src/``
beside this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("desk", "large", "ablate")
# Fresh-interpreter set-ups per untraced run besides the run's own; setup_s is their
# median. They run between operations, so the samples come from moments seconds apart.
SETUP_CHILDREN = 2
SETUP_TIMEOUT_S = 120


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return value


def _positive_float(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=_nonnegative_int, default=0,
                        help="derives every input seed; 0 gives the reference recipes")
    parser.add_argument("--seconds", type=_positive_float, default=25.0,
                        help="operations run until they have taken this long in all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="n=200 and a 2-sweep budget, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_library():
    """Import mvml from ``src/`` and the workloads."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    import mvml

    if Path(mvml.__file__).resolve().parent != SRC / "mvml":
        raise SystemExit(f"perfbench: imported mvml from {mvml.__file__}, not {SRC}")
    from perfbench import workloads

    return workloads


def _setup(args):
    """Import the library and build the workload's inputs in a fresh work directory.

    Under ``--trace 1`` the inputs are built with the span recorder installed.
    Returns ``(workload, workdir, recorder or None, import seconds, set-up seconds)``.
    """
    t0 = time.perf_counter()
    workloads = _import_library()
    import_s = time.perf_counter() - t0
    from perfbench import tracing

    rec = tracing.Recorder() if args.trace else None
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    workload = workloads.make(args.workload, args.seed, args.toy)
    with tracing.installed(rec, tracing.SETUP):
        workload.setup(workdir)
    return workload, workdir, rec, import_s, time.perf_counter() - t0


def _child_setup_seconds(args):
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.toy:
        command.append("--toy")
    done = subprocess.run(command, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
                          cwd=ROOT, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed ({done.returncode}): {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def _peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _run_ops(workload, seconds, rec, after_op):
    """Start operations until they have taken ``seconds`` in all.

    ``after_op`` runs after each operation, outside the measured time.
    With a recorder, the first operation runs untraced as the overhead
    baseline and at least one more runs traced. Returns the untraced and
    the traced results plus the attempted and failed fit counts.
    """
    from perfbench import tracing

    untraced, traced, attempted, failed = [], [], 0, 0
    spent = 0.0
    index = 0
    while index < (1 if rec is None else 2) or spent < seconds:
        active = rec if index > 0 else None
        start = time.perf_counter()
        try:
            with tracing.installed(active, tracing.OP):
                result = workload.run_once(index)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            attempted += workload.fits_per_op
            failed += workload.fits_per_op
        else:
            (traced if active else untraced).append(result)
            attempted += result.fits
            failed += result.failed
            for problem in result.problems:
                print(f"check failed: {problem}", file=sys.stderr)
        spent += time.perf_counter() - start
        after_op()
        index += 1
    return untraced, traced, attempted, failed


def _end_to_end(results, setup_samples):
    median = statistics.median
    return {
        "setup_s": (median(setup_samples), "s"),
        "run_s": (median(r.run_s for r in results), "s"),
        "fit_s": (median(r.fit_s for r in results), "s"),
        "sweeps_per_s": (median(r.sweeps / r.fit_s for r in results), "1/s"),
        "peak_rss_mb": (_peak_rss_mib(), "MiB"),
        "auc": (median(r.auc for r in results), "1"),
        "average_precision": (median(r.average_precision for r in results), "1"),
    }


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "mvml" / "__init__.py").is_file():
        print(f"perfbench: no mvml sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        _, workdir, _, _, setup_s = _setup(args)
        shutil.rmtree(workdir, ignore_errors=True)
        print(repr(setup_s))
        return 0

    workload, workdir, rec, import_s, setup_s = _setup(args)
    setup_samples = [setup_s]
    wanted = 1 if args.trace else 1 + SETUP_CHILDREN

    def sample_setup():
        if len(setup_samples) < wanted:
            setup_samples.append(_child_setup_seconds(args))

    try:
        untraced, traced, attempted, failed = _run_ops(workload, args.seconds, rec, sample_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    while len(setup_samples) < wanted:
        sample_setup()
    if not untraced or (rec is not None and not traced):
        print("perfbench: no operation completed", file=sys.stderr)
        return 1

    from perfbench import environment, tracing

    if rec is not None:
        overhead_s = statistics.median(r.fit_s for r in traced) - untraced[0].fit_s
        metrics = tracing.layer_metrics(rec, import_s, overhead_s)
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(rec.spans), encoding="utf-8"
        )
    else:
        metrics = _end_to_end(untraced, setup_samples)

    print(json.dumps({"environment": environment.describe()}, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: ops {attempted}, "
          f"failed_ratio {failed / attempted:.4g}, timed operations {len(traced or untraced)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
