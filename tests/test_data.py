import os

import numpy as np
import pytest

from dashssl import data
from dashssl.data import (OOD_CLUSTER_SHIFT, OOD_LABEL_FLIP, OOD_NONE,
                          PROV_LABELED, PROV_UNLABELED_P, PROV_UNLABELED_Q,
                          DatasetBundle, Examples, SplitSpec, examples_xy,
                          load_bundle, load_examples_csv, make_blobs,
                          make_two_moons, save_bundle,
                          save_examples_csv, split_ssl)


class TestTwoMoons:
    def test_balanced_and_deterministic(self):
        a = make_two_moons(100, 0.05, seed=3)
        b = make_two_moons(100, 0.05, seed=3)
        assert np.count_nonzero(a.y == 0) == 50 and np.count_nonzero(a.y == 1) == 50
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
        assert a.X.shape == (100, 2) and a.X.dtype == np.float64
        assert (a.provenance == PROV_LABELED).all()

    def test_moon_geometry(self):
        # class 0 hugs the unit circle at the origin; class 1 the circle
        # centered at (1, 0.5); with zero noise they lie on them exactly.
        exs = make_two_moons(400, 0.0, seed=0)
        X, y = examples_xy(exs)
        r0 = np.linalg.norm(X[y == 0], axis=1)
        r1 = np.linalg.norm(X[y == 1] - np.array([1.0, 0.5]), axis=1)
        assert np.allclose(r0, 1.0, atol=1e-12)
        assert np.allclose(r1, 1.0, atol=1e-12)
        assert np.all(X[y == 0][:, 1] >= -1e-12)   # upper half-circle
        assert np.all(X[y == 1][:, 1] <= 0.5 + 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_two_moons(1, 0.1, 0)
        with pytest.raises(ValueError):
            make_two_moons(10, -0.1, 0)


class TestBlobs:
    def test_round_robin_balance(self):
        exs = make_blobs(10, num_classes=3, dim=2, separation=5.0, noise=0.1, seed=0)
        counts = np.bincount(exs.y, minlength=3)
        assert sorted(counts.tolist()) == [3, 3, 4]

    def test_simplex_centers_equidistant(self):
        # num_classes <= dim: all pairwise center distances equal separation
        exs = make_blobs(3000, num_classes=3, dim=4, separation=6.0, noise=0.01,
                         seed=1)
        X, y = examples_xy(exs)
        centers = np.stack([X[y == c].mean(axis=0) for c in range(3)])
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(centers[i] - centers[j]) == pytest.approx(
                    6.0, abs=0.05)

    def test_ring_centers_adjacent_distance(self):
        # num_classes > dim: centers sit on a circle, adjacent gap = separation
        exs = make_blobs(5000, num_classes=5, dim=2, separation=3.0, noise=0.01,
                         seed=2)
        X, y = examples_xy(exs)
        centers = np.stack([X[y == c].mean(axis=0) for c in range(5)])
        for c in range(5):
            gap = np.linalg.norm(centers[c] - centers[(c + 1) % 5])
            assert gap == pytest.approx(3.0, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_blobs(1, 2, 2, 1.0, 0.1, 0)
        with pytest.raises(ValueError):
            make_blobs(10, 1, 2, 1.0, 0.1, 0)


class TestSplitSpec:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SplitSpec(labels_per_class=0, q=0.5)
        with pytest.raises(ValueError):
            SplitSpec(labels_per_class=1, q=0.0)
        with pytest.raises(ValueError):
            SplitSpec(labels_per_class=1, q=1.5)
        with pytest.raises(ValueError):
            SplitSpec(labels_per_class=1, q=0.5, ood_kind="meteor")
        with pytest.raises(ValueError):
            SplitSpec(labels_per_class=1, q=0.5, ood_kind=OOD_CLUSTER_SHIFT)


class TestSplitSSL:
    def make_pool(self, n=200, seed=0):
        return make_two_moons(n, 0.05, seed)

    def test_stratified_counts(self):
        pool = self.make_pool()
        b = split_ssl(pool, SplitSpec(labels_per_class=4, q=0.8,
                                      ood_kind=OOD_LABEL_FLIP), seed=1)
        assert len(b.labeled) == 8
        assert np.count_nonzero(b.labeled.y == 0) == 4
        assert np.count_nonzero(b.labeled.y == 1) == 4
        assert len(b.unlabeled) == 192
        assert (b.labeled.provenance == PROV_LABELED).all()

    def test_q_fraction_exact(self):
        pool = self.make_pool()
        b = split_ssl(pool, SplitSpec(labels_per_class=4, q=0.8,
                                      ood_kind=OOD_LABEL_FLIP), seed=1)
        n_q = np.count_nonzero(b.unlabeled.provenance == PROV_UNLABELED_Q)
        assert n_q == int(np.floor(0.2 * 192))
        assert np.count_nonzero(b.unlabeled.provenance == PROV_UNLABELED_P) == 192 - n_q

    def test_q_one_means_no_ood(self):
        pool = self.make_pool()
        b = split_ssl(pool, SplitSpec(labels_per_class=4, q=1.0), seed=1)
        assert (b.unlabeled.provenance == PROV_UNLABELED_P).all()

    def test_label_flip_keeps_x(self):
        pool = self.make_pool()
        by_x = {x.tobytes(): y for x, y in zip(pool.X, pool.y)}
        b = split_ssl(pool, SplitSpec(labels_per_class=4, q=0.5,
                                      ood_kind=OOD_LABEL_FLIP), seed=2)
        for x, y, prov in zip(b.unlabeled.X, b.unlabeled.y, b.unlabeled.provenance):
            orig = by_x[x.tobytes()]
            if prov == PROV_UNLABELED_Q:
                assert y == (orig + 1) % 2
            else:
                assert y == orig

    def test_cluster_shift_moves_x(self):
        pool = self.make_pool()
        offset = np.array([10.0, -3.0])
        pool_x = pool.X.copy()
        b = split_ssl(pool, SplitSpec(labels_per_class=4, q=0.5,
                                      ood_kind=OOD_CLUSTER_SHIFT,
                                      ood_offset=offset), seed=2)
        assert np.array_equal(pool.X, pool_x)  # the pool itself is not shifted
        for x, prov in zip(b.unlabeled.X, b.unlabeled.provenance):
            target = x - offset if prov == PROV_UNLABELED_Q else x
            nearest = np.abs(pool_x - target).max(axis=1).min()
            assert nearest < 1e-9

    def test_ood_none_marks_provenance_only(self):
        pool = self.make_pool()
        by_x = {x.tobytes(): y for x, y in zip(pool.X, pool.y)}
        b = split_ssl(pool, SplitSpec(labels_per_class=4, q=0.5,
                                      ood_kind=OOD_NONE), seed=2)
        for x, y in zip(b.unlabeled.X, b.unlabeled.y):
            assert y == by_x[x.tobytes()]

    def test_deterministic(self):
        pool = self.make_pool()
        spec = SplitSpec(labels_per_class=4, q=0.7, ood_kind=OOD_LABEL_FLIP)
        b1 = split_ssl(pool, spec, seed=9)
        b2 = split_ssl(pool, spec, seed=9)
        assert b1.labeled.X.tobytes() == b2.labeled.X.tobytes()
        assert b1.unlabeled.provenance.tolist() == b2.unlabeled.provenance.tolist()

    def test_insufficient_class_examples(self):
        pool = self.make_pool(n=6)
        with pytest.raises(ValueError):
            split_ssl(pool, SplitSpec(labels_per_class=4, q=0.8), seed=0)

    def test_pool_must_be_fully_labeled(self):
        pool = self.make_pool()
        pool.y[5] = -1
        with pytest.raises(ValueError, match="fully labeled"):
            split_ssl(pool, SplitSpec(labels_per_class=4, q=0.8), seed=0)


def zero_rows(n, d, label=-1, provenance=PROV_UNLABELED_P):
    """n zero rows of dimension d, all with the same label and provenance."""
    return Examples(np.zeros((n, d)), np.full(n, label), np.full(n, provenance))


class TestBundleValidate:
    def test_unlabeled_must_dominate(self):
        with pytest.raises(ValueError):
            DatasetBundle(zero_rows(2, 2, 0, PROV_LABELED), zero_rows(1, 2),
                          zero_rows(0, 2), 2, 2).validate()

    def test_labeled_needs_label(self):
        un = zero_rows(2, 2)
        with pytest.raises(ValueError):
            DatasetBundle(zero_rows(1, 2, -1, PROV_LABELED), un, zero_rows(0, 2),
                          2, 2).validate()
        with pytest.raises(ValueError, match="at least one labeled example"):
            DatasetBundle(zero_rows(0, 2), un, zero_rows(0, 2), 2, 2).validate()

    def test_dimension_consistency(self):
        with pytest.raises(ValueError):
            DatasetBundle(zero_rows(1, 2, 0, PROV_LABELED), zero_rows(2, 3),
                          zero_rows(0, 2), 2, 2).validate()

    def test_label_range(self):
        ok = DatasetBundle(zero_rows(1, 2, 1, PROV_LABELED), zero_rows(2, 2),
                           zero_rows(1, 2, 1, PROV_LABELED), 2, 2)
        assert ok.validate() is ok
        with pytest.raises(ValueError, match="out of range"):
            DatasetBundle(zero_rows(1, 2, 1, PROV_LABELED), zero_rows(2, 2),
                          zero_rows(1, 2, 2, PROV_LABELED), 2, 2).validate()

    def test_test_split_needs_labels(self):
        # error_rate against -1 would count every test row as an error
        with pytest.raises(ValueError, match="test examples must carry a true label"):
            DatasetBundle(zero_rows(1, 2, 1, PROV_LABELED), zero_rows(2, 2),
                          zero_rows(1, 2), 2, 2).validate()


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        pool = make_two_moons(40, 0.1, seed=5)
        b = split_ssl(pool, SplitSpec(labels_per_class=3, q=0.6,
                                      ood_kind=OOD_LABEL_FLIP), seed=6,
                      test=make_two_moons(10, 0.1, seed=7))
        save_bundle(b, str(tmp_path))
        loaded = load_bundle(str(tmp_path))
        for orig, back in ((b.labeled, loaded.labeled),
                           (b.unlabeled, loaded.unlabeled),
                           (b.test, loaded.test)):
            assert len(orig) == len(back)
            assert np.array_equal(orig.X, back.X)  # repr round-trips float64
            assert np.array_equal(orig.y, back.y)
            assert np.array_equal(orig.provenance, back.provenance)
        assert loaded.num_classes == 2 and loaded.input_dim == 2

    def test_header_validation(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,label,provenance\n0.0,0.0,0,labeled\n")
        with pytest.raises(ValueError):
            load_examples_csv(str(p))

    def test_row_width_validation(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x0,x1,label,provenance\n0.0,0,labeled\n")
        with pytest.raises(ValueError):
            load_examples_csv(str(p))

    @pytest.mark.parametrize("rows", [
        "0.0,1.0,0,labeled\n0.5,1.5,1,labeled\n0.0,0,labeled\n",
        "0.0,1.0,0,labeled\n0.5,1.5,2.5,1,labeled\n",
        "0.0,1.0,0,labeled\n\n",
        "0.0,abc,0,labeled\n",
        "0.0,1.0,0.5,labeled\n",
        "0.0,1.0,0,martian\n",
        "0.0,1.0,-1,unlabeled_P\n0.5,1.5,-7,unlabeled_P\n",
    ], ids=["ragged after valid rows", "extra field", "blank line",
            "non-numeric feature", "non-integer label", "unknown provenance",
            "label below -1"])
    def test_rejects_malformed_rows(self, tmp_path, rows):
        p = tmp_path / "bad.csv"
        p.write_text("x0,x1,label,provenance\n" + rows)
        with pytest.raises(ValueError):
            load_examples_csv(str(p))

    def test_header_only_file_is_empty(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("x0,x1,label,provenance\n")
        empty = load_examples_csv(str(p))
        assert len(empty) == 0
        assert empty.X.shape == (0, 2) and empty.y.shape == (0,)

    def test_unlabeled_label_written_as_minus_one(self, tmp_path):
        p = tmp_path / "u.csv"
        save_examples_csv(Examples(np.array([[1.5]]), np.array([-1]),
                                   np.array([PROV_UNLABELED_P])), str(p))
        line = p.read_text().splitlines()[1]
        assert line == "1.5,-1,unlabeled_P"
        assert load_examples_csv(str(p)).y.tolist() == [-1]

    def test_empty_split_round_trip(self, tmp_path):
        p = tmp_path / "e.csv"
        save_examples_csv(zero_rows(0, 3), str(p))
        assert p.read_text() == "x0,x1,x2,label,provenance\n"
        back = load_examples_csv(str(p))
        assert back.X.shape == (0, 3) and len(back.y) == len(back.provenance) == 0


class TestCsvCache:
    """load_examples_csv parses each file content once per process."""

    def test_second_load_does_not_parse_again(self, tmp_path, monkeypatch):
        p = tmp_path / "a.csv"
        save_examples_csv(make_two_moons(20, 0.1, seed=0), str(p))
        first = load_examples_csv(str(p))
        hits = data._parse_examples_csv.cache_info().hits

        def no_parse(*args, **kwargs):
            raise AssertionError("parsed an unchanged file again")
        monkeypatch.setattr(np, "loadtxt", no_parse)
        second = load_examples_csv(str(p))
        assert data._parse_examples_csv.cache_info().hits == hits + 1
        assert second is not first and second.X is first.X

    def test_same_size_rewrite_with_old_mtime_is_parsed_again(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("x0,label,provenance\n0.25,0,labeled\n")
        assert load_examples_csv(str(p)).X.tolist() == [[0.25]]
        st = os.stat(p)
        p.write_text("x0,label,provenance\n0.75,1,labeled\n")
        os.utime(p, ns=(st.st_atime_ns, st.st_mtime_ns))
        after = os.stat(p)
        assert (after.st_size, after.st_mtime_ns, after.st_ino) == (
            st.st_size, st.st_mtime_ns, st.st_ino)
        back = load_examples_csv(str(p))
        assert back.X.tolist() == [[0.75]] and back.y.tolist() == [1]

    @pytest.mark.parametrize("rows", ["0.5,0,labeled\n", ""],
                             ids=["rows", "header only"])
    def test_loaded_arrays_are_read_only(self, tmp_path, rows):
        p = tmp_path / "a.csv"
        p.write_text("x0,label,provenance\n" + rows)
        loaded = load_examples_csv(str(p))
        for array, value in ((loaded.X, 1.0), (loaded.y, 1),
                             (loaded.provenance, PROV_LABELED)):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = value

    def test_malformed_file_raises_on_every_load(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x0,label,provenance\n0.5,0,martian\n")
        for _ in range(3):
            with pytest.raises(ValueError, match="provenance not in"):
                load_examples_csv(str(p))


def test_examples_xy_missing_labels():
    exs = Examples(np.array([[1.0], [2.0]]), np.array([-1, 1]),
                   np.array([PROV_UNLABELED_P, PROV_UNLABELED_P]))
    X, y = examples_xy(exs)
    assert X.shape == (2, 1)
    assert y.tolist() == [-1, 1]
