import numpy as np
import pytest
from helpers import save_csv

from cemlab.data import load_csv, normalize_unit, synth_blobs
from cemlab.errors import LabelOutOfRange, ParseError, ShapeMismatch


class TestSynthBlobs:
    def test_zero_spread_collapses_classes(self):
        ds = synth_blobs(n_classes=3, d=8, per_class=5, spread=0.0, seed=1)
        for c in range(3):
            rows = ds.inputs[ds.labels == c]
            assert np.all(rows == rows[0])

    def test_separable_world_nearest_centroid(self):
        ds = synth_blobs(n_classes=3, d=8, per_class=200, spread=0.05, seed=2)
        x_train, y_train = ds.train_arrays()
        x_test, y_test = ds.test_arrays()
        centroids = np.stack(
            [x_train[y_train == c].mean(axis=0) for c in range(3)]
        )
        pred = np.argmin(
            np.linalg.norm(x_test[:, None, :] - centroids[None], axis=2), axis=1
        )
        assert np.mean(pred == y_test) >= 0.99

    def test_deterministic(self):
        a = synth_blobs(3, 8, 20, 0.1, seed=9)
        b = synth_blobs(3, 8, 20, 0.1, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_values_in_unit_interval(self):
        ds = synth_blobs(4, 10, 50, 0.3, seed=4)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0

    def test_stratified_split_frequencies(self):
        ds = synth_blobs(n_classes=4, d=8, per_class=50, spread=0.1, seed=3)
        _, y_train = ds.train_arrays()
        _, y_test = ds.test_arrays()
        for c in range(4):
            assert abs(np.sum(y_train == c) - 40) <= 1
            assert abs(np.sum(y_test == c) - 10) <= 1
        assert not set(ds.train_idx) & set(ds.test_idx)

    def test_needs_enough_dims(self):
        with pytest.raises(ValueError):
            synth_blobs(n_classes=5, d=3, per_class=10, spread=0.1, seed=0)


class TestNormalization:
    def test_idempotent(self, rng):
        x = rng.uniform(-5, 7, size=(40, 6))
        once = normalize_unit(x)
        twice = normalize_unit(once)
        assert np.array_equal(once, twice)

    def test_zero_range_dimension(self):
        x = np.array([[1.0, 2.0], [1.0, 4.0]])
        out = normalize_unit(x)
        assert np.all(out[:, 0] == 0.0)
        assert out[:, 1].tolist() == [0.0, 1.0]

    def test_fitted_on_given_rows_and_clipped(self):
        x = np.array([[0.0, 5.0], [2.0, 5.0], [4.0, 1.0], [-2.0, 9.0]])
        out = normalize_unit(x, np.array([0, 1]))
        # Column 0 spans [0, 2] on rows 0 and 1; column 1 has zero range there.
        assert out[:, 0].tolist() == [0.0, 1.0, 1.0, 0.0]
        assert np.all(out[:, 1] == 0.0)
        assert np.array_equal(normalize_unit(out, np.array([0, 1])), out)

    def test_synth_train_rows_span_unit_interval(self):
        ds = synth_blobs(3, 8, 40, 0.2, seed=6)
        x_train, _ = ds.train_arrays()
        assert np.all(x_train.min(axis=0) == 0.0)
        assert np.all(x_train.max(axis=0) == 1.0)

    def test_test_rows_do_not_move_train_rows(self, tmp_path):
        rows = synth_blobs(3, 4, 20, 0.2, seed=7)
        plain, changed = tmp_path / "plain.csv", tmp_path / "changed.csv"
        save_csv(rows, plain)
        ds = load_csv(plain, n_classes=3, seed=7)
        victim = int(ds.test_idx[0])
        lines = plain.read_text().splitlines()
        label = lines[victim].split(",")[0]
        lines[victim] = f"{label},100,-100,0.5,1e9"
        changed.write_text("\n".join(lines) + "\n")
        moved = load_csv(changed, n_classes=3, seed=7)
        assert np.array_equal(moved.train_idx, ds.train_idx)
        assert np.array_equal(moved.train_arrays()[0], ds.train_arrays()[0])
        assert moved.inputs[victim].tolist()[:2] == [1.0, 0.0]
        assert np.all((moved.inputs >= 0.0) & (moved.inputs <= 1.0))


class TestCsv:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("0,0.1,0.9\n1,0.8,0.2\n")
        ds = load_csv(path, n_classes=2)
        assert ds.inputs.shape == (2, 2)
        assert ds.labels.tolist() == [0, 1]

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("label,v1,v2\n0,0.1,0.9\n1,0.8,0.2\n")
        ds = load_csv(path, n_classes=2)
        assert ds.inputs.shape == (2, 2)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0,0.1,0.9\n1,0.8\n")
        with pytest.raises(ShapeMismatch, match="line 2"):
            load_csv(path, n_classes=2)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "lbl.csv"
        path.write_text("0,0.1\n7,0.9\n")
        with pytest.raises(LabelOutOfRange):
            load_csv(path, n_classes=2)

    def test_parse_error_on_bad_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0.1\n1,zero\n")
        with pytest.raises(ParseError, match="line 2"):
            load_csv(path, n_classes=2)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv", n_classes=2)

    def test_round_trip_preserves_inputs(self, tmp_path):
        # The file carries no split, and the normalization is fitted on the
        # split's training rows: a dataset loaded from CSV comes back
        # through save_csv and load_csv (same seed, same split) unchanged.
        first = tmp_path / "blobs.csv"
        save_csv(synth_blobs(3, 8, 40, 0.2, seed=5), first)
        ds = load_csv(first, n_classes=3, seed=5)
        path = tmp_path / "again.csv"
        save_csv(ds, path)
        back = load_csv(path, n_classes=3, seed=5)
        assert np.array_equal(back.train_idx, ds.train_idx)
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.labels, ds.labels)
