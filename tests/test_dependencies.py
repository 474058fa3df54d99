"""The package's footprint: numpy is its only dependency, and one module writes files."""

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
