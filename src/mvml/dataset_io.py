"""On-disk dataset directories: manifest plus headerless CSV files.

A dataset directory holds ``manifest.json`` with fields ``n``, ``c``,
``V``, an optional ``aligned`` flag (default true), and a ``views``
list; each view entry names the view and its feature dimension and
points at a features CSV (``n`` rows of ``dim`` floats), a labels CSV
(``n`` rows of ``c`` integers in {-1, 0, +1}), and an optional missing
file (``n`` lines of 0/1, 1 meaning the row is absent from the view).
All files are UTF-8 with LF line endings. Missing rows must be stored
all-zero. Violations raise the format errors with row and column
coordinates where applicable.

Every file the package writes goes through ``write_file`` here, in the
layout of ``json_text`` or ``csv_text``; weights are an ``.npz`` archive.
"""

from __future__ import annotations

import io
import json
import os
import re
import secrets
import zipfile
from pathlib import Path

import numpy as np

from .data import MultiViewDataset, ViewData, WeightStack
from .errors import (
    InvalidInput,
    IoError,
    LabelDomainViolation,
    MissingFile,
    NonFiniteEntry,
    SchemaViolation,
    _check_type,
)

MANIFEST_NAME = "manifest.json"
_VIEW_FILE = re.compile(r"view\d+_.*\.csv")


def write_file(path, data):
    """Replace ``path`` whole by ``data`` (text goes as UTF-8) through a temp file beside it,
    so a failed write, which raises ``IoError``, leaves the old file as it was."""
    path = Path(path)
    data = data.encode("utf-8") if isinstance(data, str) else data
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        os.makedirs(path.parent, exist_ok=True)
        # mode 0o666 less the umask, as open() gives; the kernel applies the umask
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise IoError(f"writing {path} failed: {exc}")
    return path


def json_text(payload):
    """The JSON layout of every file written here: sorted keys, indent 2, LF end."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def csv_text(rows, fmt=None):
    """Comma-separated, LF-ended lines: string cells as given, or, with ``fmt``, a numeric
    array through ``np.savetxt`` (``"%.17g"`` round-trips floats; 1-D gives one per line)."""
    if fmt is None:
        return "\n".join(",".join(row) for row in rows) + "\n"
    text = io.StringIO()
    np.savetxt(text, rows, delimiter=",", fmt=fmt)
    return text.getvalue()


def _read_csv(path, n_rows, n_cols, view_name, kind):
    if not path.is_file():
        raise MissingFile(f"view '{view_name}': {kind} file {path} does not exist")
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except ValueError as exc:
        raise SchemaViolation(f"view '{view_name}': {kind} file {path} is not numeric CSV: {exc}")
    if data.shape == (1, 0):
        data = np.zeros((0, n_cols))
    if data.shape != (n_rows, n_cols):
        raise SchemaViolation(
            f"view '{view_name}': {kind} file {path} has shape {data.shape}, "
            f"expected ({n_rows}, {n_cols})"
        )
    return data


def _require(condition, message):
    if not condition:
        raise SchemaViolation(message)


def load_dataset(path):
    """Load a dataset directory; see the module docstring for the format."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.is_file():
        raise MissingFile(f"{manifest_path} does not exist")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaViolation(f"{manifest_path} is not valid JSON: {exc}")

    _require(isinstance(manifest, dict), f"{manifest_path}: manifest must be a JSON object")
    for field_name in ("n", "c", "V"):  # type, not isinstance: a JSON true is an int too
        _require(
            type(manifest.get(field_name)) is int and manifest[field_name] >= 0,
            f"{manifest_path}: field '{field_name}' must be a nonnegative integer",
        )
    n, c, n_views = manifest["n"], manifest["c"], manifest["V"]
    views_meta = manifest.get("views")
    _require(isinstance(views_meta, list), f"{manifest_path}: field 'views' must be a list")
    _require(
        len(views_meta) == n_views,
        f"{manifest_path}: 'views' lists {len(views_meta)} entries, V says {n_views}",
    )

    views = []
    for idx, meta in enumerate(views_meta):
        _require(isinstance(meta, dict), f"{manifest_path}: views[{idx}] must be an object")
        name = meta.get("name", f"view{idx}")
        _require(isinstance(name, str), f"{manifest_path}: views[{idx}].name must be a string")
        dim = meta.get("dim")
        _require(
            type(dim) is int and dim >= 1,
            f"view '{name}': field 'dim' must be a positive integer",
        )
        for field_name in ("features_file", "labels_file"):
            _require(
                isinstance(meta.get(field_name), str),
                f"view '{name}': field '{field_name}' must be a file name",
            )

        feats = _read_csv(root / meta["features_file"], n, dim, name, "features")
        labels = _read_csv(root / meta["labels_file"], n, c, name, "labels")
        missing = np.zeros(n, dtype=bool)
        if meta.get("missing_file") is not None:
            _require(
                isinstance(meta["missing_file"], str),
                f"view '{name}': field 'missing_file' must be a file name",
            )
            missing = _read_csv(root / meta["missing_file"], n, 1, name, "missing")[:, 0]
        try:
            views.append(ViewData(features=feats, labels=labels, missing_rows=missing))
        except (NonFiniteEntry, LabelDomainViolation) as exc:
            raise type(exc)(f"view '{name}': {exc}")
        except InvalidInput as exc:
            raise SchemaViolation(f"view '{name}': {exc}")

    try:
        return MultiViewDataset(views=views, aligned=manifest.get("aligned", True))
    except InvalidInput as exc:
        raise SchemaViolation(f"{root}: {exc}")


def save_dataset(ds, path):
    """Write a dataset directory in the documented format.

    Floats are written with 17 significant digits, so a save/load round
    trip reproduces the arrays exactly. Each file is replaced whole,
    ``manifest.json`` last; then every ``view<i>_*.csv`` the new manifest
    does not name is removed, and nothing else. Returns the manifest path.
    """
    _check_type(ds, "ds", MultiViewDataset)
    root = Path(path)
    views_meta = []
    for i, view in enumerate(ds.views):
        name = f"view{i}"
        meta = {
            "name": name,
            "dim": int(view.n_features),
            "features_file": f"{name}_features.csv",
            "labels_file": f"{name}_labels.csv",
        }
        write_file(root / meta["features_file"], csv_text(view.features, "%.17g"))
        write_file(root / meta["labels_file"], csv_text(view.labels.astype(int), "%d"))
        if view.missing_rows.any():
            meta["missing_file"] = f"{name}_missing.csv"
            write_file(root / meta["missing_file"], csv_text(view.missing_rows.astype(int), "%d"))
        views_meta.append(meta)
    manifest = {
        "n": int(ds.n_samples),
        "c": int(ds.n_labels),
        "V": int(ds.n_views),
        "aligned": bool(ds.aligned),
        "views": views_meta,
    }
    manifest_path = write_file(root / MANIFEST_NAME, json_text(manifest))
    # an earlier, larger save into this directory leaves no view file the manifest does not name
    named = {meta[key] for meta in views_meta for key in meta if key.endswith("_file")}
    for stale in root.iterdir():
        if _VIEW_FILE.fullmatch(stale.name) and stale.name not in named and stale.is_file():
            try:
                stale.unlink()
            except OSError as exc:
                raise IoError(f"removing {stale} failed: {exc}")
    return manifest_path


def save_weights(w, path):
    """Write ``w`` as an ``.npz`` of ``view0``, ``view1``, ...; returns the path."""
    archive = io.BytesIO()
    np.savez(archive, **{f"view{i}": wi for i, wi in enumerate(w.weights)})
    return write_file(path, archive.getvalue())


def load_weights(path):
    """The weight stack ``save_weights`` wrote: an ``.npz`` of ``view0``, ``view1``, ..."""
    try:
        payload = np.load(path)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise InvalidInput(f"weights file {path} is not a readable .npz archive: {exc}")
    if not isinstance(payload, np.lib.npyio.NpzFile):
        raise InvalidInput(f"weights file {path} holds one array, not an .npz archive")
    with payload:
        names = [f"view{i}" for i in range(len(payload.files))]
        if set(payload.files) != set(names):
            raise InvalidInput(f"weights file {path} holds {payload.files}, not view0, view1...")
        return WeightStack([payload[name] for name in names])
