"""Dataset directory loading, validation errors, save/load round trips, and the one writer."""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from mvml import (
    IoError,
    LabelDomainViolation,
    MissingFile,
    MultiViewDataset,
    NonFiniteEntry,
    SchemaViolation,
    ViewData,
    load_dataset,
    save_dataset,
)
from mvml.cli import main
from mvml.dataset_io import write_file

from conftest import make_dataset

FIXTURE = Path(__file__).parent / "fixtures" / "toy3v"

# frozen digests of the hand-authored fixture files, guarding against
# accidental edits
FIXTURE_SHA256 = {
    "manifest.json": "2f51978bf81b6337b58c4ffd79f5b678ef1b6317b6dd59bd5100ac5fe3a1ade6",
    "view0_features.csv": "0722f20c3971f77afaadfed36523f389a2be0f3244ac45c4fb55325a4ba73ac1",
    "view0_labels.csv": "b8fb146ec10b11dfd37624f750472427fe8395f447f3beec6d97b8f95a5027de",
    "view1_features.csv": "e0e215805b16e91ea6e2b7244ab556995d6bea96da9986fabea4b6edfa149c9d",
    "view1_labels.csv": "f772105630492da8c894da7b6f83de326d387c2b877c4f80db3a55a548fb678c",
    "view1_missing.csv": "1e5c0387473e82a5efca8be0b0b5af39c78d241b3ce01629ee94f5c4e59dd92f",
    "view2_features.csv": "ee5fb0151430a87cf6b2601a8b50b1cacf6749ce670678dd54cabc53d6a79e94",
    "view2_labels.csv": "367b5de635008a9f8b2d7129cd10006a176002f69365f7f196aadf79fa0d799d",
}


def copy_fixture(tmp_path):
    dst = tmp_path / "toy3v"
    shutil.copytree(FIXTURE, dst)
    return dst


def edit_manifest(root, mutate):
    manifest = json.loads((root / "manifest.json").read_text())
    mutate(manifest)
    (root / "manifest.json").write_text(json.dumps(manifest))


class TestToyFixture:
    def test_checksums_are_intact(self):
        for name, digest in FIXTURE_SHA256.items():
            got = hashlib.sha256((FIXTURE / name).read_bytes()).hexdigest()
            assert got == digest, f"{name} was modified"

    def test_loads_with_exact_values(self):
        ds = load_dataset(FIXTURE)
        assert (ds.n_samples, ds.n_labels, ds.n_views) == (8, 3, 3)
        assert ds.aligned  # the manifest omits the flag; true is the default

        assert np.array_equal(ds.views[0].features, np.array([
            [1.5, -2.25], [0.125, 3.5], [-0.75, 0.0625], [2.0, -1.0],
            [0.5, 0.25], [-3.125, 1.75], [0.0, 4.5], [-0.875, -0.3125],
        ]))
        assert np.array_equal(ds.views[0].labels, np.array([
            [1, -1, 0], [-1, 1, 1], [0, 1, -1], [1, 0, 1],
            [-1, -1, 1], [1, 1, -1], [0, -1, 1], [1, 0, -1],
        ], dtype=float))
        assert not ds.views[0].missing_rows.any()

        assert np.array_equal(ds.views[1].features, np.array([
            [0.5, 1.5, -0.5], [2.25, -1.125, 0.375], [0.0, 0.0, 0.0],
            [-0.625, 0.875, 1.0], [1.0, 2.0, 3.0], [0.0, 0.0, 0.0],
            [-2.5, 0.25, -0.125], [0.75, -0.75, 1.25],
        ]))
        assert np.array_equal(
            ds.views[1].missing_rows,
            np.array([0, 0, 1, 0, 0, 1, 0, 0], dtype=bool))

        assert np.array_equal(ds.views[2].features,
                              np.array([[0.5], [-1.5], [2.5], [-3.5],
                                        [4.5], [-5.5], [6.5], [-7.5]]))
        assert np.array_equal(ds.views[2].labels[7], np.array([0.0, 0.0, 1.0]))


class TestLoadErrors:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFile):
            load_dataset(tmp_path / "nowhere")

    def test_missing_features_file(self, tmp_path):
        root = copy_fixture(tmp_path)
        (root / "view0_features.csv").unlink()
        with pytest.raises(MissingFile) as info:
            load_dataset(root)
        assert "gist" in str(info.value)

    def test_dim_mismatch_names_the_view(self, tmp_path):
        root = copy_fixture(tmp_path)
        edit_manifest(root, lambda m: m["views"][0].__setitem__("dim", 3))
        with pytest.raises(SchemaViolation) as info:
            load_dataset(root)
        assert "gist" in str(info.value)

    def test_label_outside_domain(self, tmp_path):
        root = copy_fixture(tmp_path)
        text = (root / "view0_labels.csv").read_text().replace("0,1,-1", "0,2,-1")
        (root / "view0_labels.csv").write_text(text)
        with pytest.raises(LabelDomainViolation) as info:
            load_dataset(root)
        assert "row 2" in str(info.value) and "column 1" in str(info.value)

    def test_non_finite_feature_entry(self, tmp_path):
        root = copy_fixture(tmp_path)
        text = (root / "view1_features.csv").read_text().replace("2.25", "nan")
        (root / "view1_features.csv").write_text(text)
        with pytest.raises(NonFiniteEntry) as info:
            load_dataset(root)
        assert "row 1" in str(info.value) and "column 0" in str(info.value)

    def test_flagged_missing_but_nonzero(self, tmp_path):
        root = copy_fixture(tmp_path)
        lines = (root / "view1_missing.csv").read_text().splitlines()
        lines[0] = "1"  # row 0 holds data but is now flagged missing
        (root / "view1_missing.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaViolation) as info:
            load_dataset(root)
        assert "row 0" in str(info.value)

    def test_missing_flag_outside_01(self, tmp_path):
        root = copy_fixture(tmp_path)
        lines = (root / "view1_missing.csv").read_text().splitlines()
        lines[3] = "2"
        (root / "view1_missing.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaViolation):
            load_dataset(root)

    @pytest.mark.parametrize("where", ["V", "dim"])
    def test_boolean_counts_rejected(self, tmp_path, where):
        root = copy_fixture(tmp_path)
        if where == "V":  # true == 1, which would load the first view alone
            edit_manifest(root, lambda m: (
                m.__setitem__("V", True),
                m.__setitem__("views", [m["views"][0]]),
            ))
        else:  # view 'hue' has one feature column
            edit_manifest(root, lambda m: m["views"][2].__setitem__("dim", True))
        with pytest.raises(SchemaViolation):
            load_dataset(root)

    def test_aligned_flag_must_be_a_boolean(self, tmp_path):
        root = copy_fixture(tmp_path)
        edit_manifest(root, lambda m: m.__setitem__("aligned", "false"))
        with pytest.raises(SchemaViolation) as info:
            load_dataset(root)
        assert "aligned" in str(info.value)

    def test_view_count_mismatch(self, tmp_path):
        root = copy_fixture(tmp_path)
        edit_manifest(root, lambda m: m.__setitem__("V", 2))
        with pytest.raises(SchemaViolation):
            load_dataset(root)

    def test_manifest_not_json(self, tmp_path):
        root = copy_fixture(tmp_path)
        (root / "manifest.json").write_text("{not json")
        with pytest.raises(SchemaViolation):
            load_dataset(root)

    def test_wrong_row_count(self, tmp_path):
        root = copy_fixture(tmp_path)
        text = (root / "view2_features.csv").read_text().splitlines()
        (root / "view2_features.csv").write_text("\n".join(text[:-1]) + "\n")
        with pytest.raises(SchemaViolation) as info:
            load_dataset(root)
        assert "hue" in str(info.value)

    @pytest.mark.parametrize("text", ["", "\n\n", "# no data\n"],
                             ids=["empty", "blank-lines", "comment-only"])
    def test_emptied_labels_file_names_its_shape(self, rng, tmp_path, text):
        save_dataset(make_dataset(rng, n=40, c=3, dims=(4,)), tmp_path / "out")
        (tmp_path / "out" / "view0_labels.csv").write_text(text)
        with pytest.raises(SchemaViolation, match=r"has shape \(0, 3\), expected \(40, 3\)"):
            load_dataset(tmp_path / "out")

    def test_sample_absent_from_every_view_rejected(self, tmp_path):
        root = copy_fixture(tmp_path)
        # single-view dataset whose missing file orphans row 2
        edit_manifest(root, lambda m: (
            m.__setitem__("V", 1),
            m.__setitem__("views", [m["views"][1]]),
        ))
        with pytest.raises(SchemaViolation) as info:
            load_dataset(root)
        assert "missing in every view" in str(info.value)


class TestSaveRoundTrip:
    def test_random_dataset_survives_exactly(self, rng, tmp_path):
        ds = make_dataset(rng, n=9, c=4, dims=(3, 5), with_missing=True)
        save_dataset(ds, tmp_path / "out")
        back = load_dataset(tmp_path / "out")
        assert back.aligned == ds.aligned
        assert back.n_views == ds.n_views
        for a, b in zip(ds.views, back.views):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.missing_rows, b.missing_rows)

    def test_zero_sample_dataset_survives(self, tmp_path):
        views = [ViewData(features=np.zeros((0, d)), labels=np.zeros((0, 3)),
                          missing_rows=np.zeros(0, dtype=bool)) for d in (2, 4)]
        save_dataset(MultiViewDataset(views=views), tmp_path / "out")
        back = load_dataset(tmp_path / "out")
        assert [(v.features.shape, v.labels.shape) for v in back.views] == [
            ((0, 2), (0, 3)), ((0, 4), (0, 3))]

    def test_non_aligned_flag_survives(self, rng, tmp_path):
        ds = make_dataset(rng, n=6, c=2, dims=(3,), aligned=False)
        save_dataset(ds, tmp_path / "out")
        assert load_dataset(tmp_path / "out").aligned is False

    def test_fixture_round_trips(self, tmp_path):
        ds = load_dataset(FIXTURE)
        save_dataset(ds, tmp_path / "copy")
        back = load_dataset(tmp_path / "copy")
        for a, b in zip(ds.views, back.views):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.missing_rows, b.missing_rows)

    def test_smaller_save_removes_the_larger_saves_view_files(self, rng, tmp_path):
        root = tmp_path / "out"
        save_dataset(make_dataset(rng, n=12, c=3, dims=(3, 4, 2), with_missing=True), root)
        (root / "notes.txt").write_text("not a view file\n")
        (root / "view9.csv").write_text("no underscore, not a view file\n")
        save_dataset(make_dataset(rng, n=5, c=2, dims=(2,)), root)
        manifest = json.loads((root / "manifest.json").read_text())
        named = {meta[key] for meta in manifest["views"] for key in meta if key.endswith("_file")}
        assert named == {"view0_features.csv", "view0_labels.csv"}
        assert {p.name for p in root.iterdir()} == named | {
            "manifest.json", "notes.txt", "view9.csv"}
        assert load_dataset(root).n_views == 1

    def test_manifest_is_lf_terminated_json(self, rng, tmp_path):
        ds = make_dataset(rng, n=5, c=2, dims=(2,))
        manifest_path = save_dataset(ds, tmp_path / "out")
        raw = manifest_path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        parsed = json.loads(raw.decode("utf-8"))
        assert parsed["n"] == 5 and parsed["V"] == 1


def _snapshot(root):
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def _fail_replace(src, dst):
    raise OSError("replace refused")


class TestOneWriter:
    def test_parent_that_is_a_file_raises_io_error(self, tmp_path):
        (tmp_path / "blocker").write_text("a file, not a directory\n")
        target = tmp_path / "blocker" / "report.json"
        with pytest.raises(IoError) as info:
            write_file(target, "{}\n")
        assert str(target) in str(info.value)

    def test_failed_save_leaves_the_old_directory_whole(self, rng, tmp_path, monkeypatch):
        root = tmp_path / "data"
        save_dataset(make_dataset(rng, n=6, c=2, dims=(3, 2), with_missing=True), root)
        before = _snapshot(root)
        monkeypatch.setattr("mvml.dataset_io.os.replace", _fail_replace)
        with pytest.raises(IoError):
            save_dataset(make_dataset(rng, n=7, c=3, dims=(4,)), root)
        assert _snapshot(root) == before  # no file rewritten, no temp file left

    def test_failed_fit_leaves_the_old_weights_whole(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "fit"
        out.mkdir()
        old = b"weights of an earlier fit"
        (out / "weights.npz").write_bytes(old)
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"solver": {"max_iters": 3}}))
        monkeypatch.setattr("mvml.dataset_io.os.replace", _fail_replace)
        code = main(["fit", "--data", str(FIXTURE), "--config", str(config), "--out", str(out)])
        assert code == 1
        assert "weights.npz" in capsys.readouterr().err
        assert _snapshot(out) == {"weights.npz": old}
