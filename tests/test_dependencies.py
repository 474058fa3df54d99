"""The package's import footprint: numpy is its only dependency."""

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
