"""The package's footprint: numpy is its only dependency, a fit on one thread and an
experiment on one lane load no thread or process pool, and one module writes files."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mvml


def test_import_loads_no_scipy():
    package_parent = Path(mvml.__file__).resolve().parent.parent
    code = (
        "import sys, mvml; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(package_parent)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_a_fit_on_one_thread_loads_no_thread_pool():
    """``concurrent.futures`` loads ``logging`` and more, and a fit needs neither."""
    package_parent = Path(mvml.__file__).resolve().parent.parent
    code = (
        "import sys; from mvml import SolverConfig, SyntheticSpec, fit, generate_synthetic; "
        "fit(generate_synthetic(SyntheticSpec(n=60, c=3, n_views=2, dims=(4, 5), seed=1)), "
        "SolverConfig(lam=0.5, max_iters=3)); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'logging')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(package_parent)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert result.stdout.strip() == "[]"


def test_the_package_and_a_one_lane_experiment_load_no_process_or_thread_pool():
    """Only an experiment command on more than one lane imports ``multiprocessing``; a fit
    of the desk recipe, on as many CPUs as the process may use, imports no pool either."""
    package_parent = Path(mvml.__file__).resolve().parent.parent
    code = (
        "import sys, mvml, mvml.cli; "
        "loaded = lambda: sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')); "
        "print(loaded()); "
        "from mvml import (CorruptionSpec, ExperimentConfig, SolverConfig, SyntheticSpec, "
        "corrupt, experiments, fit, generate_synthetic, run_experiment); "
        "clean = generate_synthetic(SyntheticSpec(n=2000, c=30, dims=(40, 60, 80), seed=11)); "
        "fit(corrupt(clean, CorruptionSpec(alpha=0.5, beta=0.5, dealign=True, seed=7)), "
        "SolverConfig(lam=0.5, max_iters=3)); "
        "print(loaded()); "
        "experiments._cpus = lambda: 1; "
        "run_experiment(ExperimentConfig(SyntheticSpec(n=60, c=3, n_views=2, dims=(4, 5), "
        "seed=1), solver=SolverConfig(lam=0.5, max_iters=3), repeats=3)); "
        "print(loaded())"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(package_parent)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert result.stdout.split("\n") == ["[]", "[]", "[]", ""]


# Calls that write a file; ``mvml.dataset_io.write_file`` is the one writer.
FILE_WRITES = {"os.replace", "os.open", "np.savez", "np.savetxt", "write_text", "write_bytes"}


def _call_name(func):
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and func.value.id in ("os", "np"):
            return f"{func.value.id}.{func.attr}"
        return func.attr
    return None


def test_only_dataset_io_writes_files():
    package = Path(mvml.__file__).resolve().parent
    found = []
    for source in sorted(package.glob("*.py")):
        if source.name == "dataset_io.py":
            continue
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _call_name(node.func) in FILE_WRITES:
                found.append(f"{source.name}:{node.lineno} {_call_name(node.func)}")
    assert found == []


def _definitions(tree):
    """Module-level functions, classes and assigned names (dunders aside), with their lines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node


def _referenced_name(node):
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):  # an import, the package's exports included
        return node.name
    return None


def test_every_module_level_name_is_used_in_the_package():
    package = Path(mvml.__file__).resolve().parent
    trees = {source.name: ast.parse(source.read_text(encoding="utf-8"))
             for source in sorted(package.glob("*.py"))}
    used = set()
    for module, tree in trees.items():
        spans = {name: (node.lineno, node.end_lineno) for name, node in _definitions(tree)}
        for node in ast.walk(tree):
            name = _referenced_name(node)
            span = spans.get(name)
            if name is not None and not (span and span[0] <= node.lineno <= span[1]):
                used.add(name)  # a use outside the name's own definition
    dead = [f"{module}:{node.lineno} {name}" for module, tree in trees.items()
            for name, node in _definitions(tree) if name not in used]
    assert dead == []
