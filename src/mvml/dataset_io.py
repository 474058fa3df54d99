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
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .data import MultiViewDataset, ViewData
from .errors import (
    InvalidInput,
    LabelDomainViolation,
    MissingFile,
    NonFiniteEntry,
    SchemaViolation,
)

MANIFEST_NAME = "manifest.json"


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
    trip reproduces the arrays exactly. Returns the manifest path.
    """
    root = Path(path)
    os.makedirs(root, exist_ok=True)
    views_meta = []
    for i, view in enumerate(ds.views):
        name = f"view{i}"
        meta = {
            "name": name,
            "dim": int(view.n_features),
            "features_file": f"{name}_features.csv",
            "labels_file": f"{name}_labels.csv",
        }
        np.savetxt(root / meta["features_file"], view.features, delimiter=",", fmt="%.17g")
        np.savetxt(
            root / meta["labels_file"], view.labels.astype(int), delimiter=",", fmt="%d"
        )
        if view.missing_rows.any():
            meta["missing_file"] = f"{name}_missing.csv"
            np.savetxt(
                root / meta["missing_file"], view.missing_rows.astype(int), fmt="%d"
            )
        views_meta.append(meta)
    manifest = {
        "n": int(ds.n_samples),
        "c": int(ds.n_labels),
        "V": int(ds.n_views),
        "aligned": bool(ds.aligned),
        "views": views_meta,
    }
    manifest_path = root / MANIFEST_NAME
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )
    return manifest_path
