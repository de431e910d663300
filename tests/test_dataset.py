from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgaflow.dataset import Dataset, bootstrap, dither, load_csv, save_csv


def write_csv(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_parses_rows_in_order(self, tmp_path):
        path = write_csv(tmp_path, "x1,x2,y\n1,2,3\n4,5,6\n7,8,9\n")
        ds = load_csv(path)
        assert ds.m == 3 and ds.d == 2
        assert ds.tag == "original"
        np.testing.assert_array_equal(ds.x, [[1, 2], [4, 5], [7, 8]])
        np.testing.assert_array_equal(ds.y, [3, 6, 9])

    def test_empty_data_section(self, tmp_path):
        path = write_csv(tmp_path, "x1,y\n")
        with pytest.raises(ValueError, match="no rows"):
            load_csv(path)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="empty file"):
            load_csv(write_csv(tmp_path, ""))

    @pytest.mark.parametrize("header", ["x1,z", "y", "y,x1"])
    def test_bad_header(self, tmp_path, header):
        path = write_csv(tmp_path, header + "\n1,2\n")
        with pytest.raises(ValueError, match="header must be x1,...,xd,y"):
            load_csv(path)

    def test_blank_lines_skipped_and_counted(self, tmp_path):
        ds = load_csv(write_csv(tmp_path, "x1,y\n1,2\n\n3,4\n\n"))
        np.testing.assert_array_equal(ds.x, [[1.0], [3.0]])
        np.testing.assert_array_equal(ds.y, [2.0, 4.0])
        path = write_csv(tmp_path, "x1,y\n1,2\n\nfoo,4\n")
        with pytest.raises(ValueError, match=":4: non-numeric"):
            load_csv(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = write_csv(tmp_path, "x1,y\n1,2\nfoo,3\n")
        with pytest.raises(ValueError, match=":3:"):
            load_csv(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, token):
        path = write_csv(tmp_path, f"x1,y\n1,2\n1.0,{token}\n")
        with pytest.raises(ValueError, match=":3: non-finite"):
            load_csv(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = write_csv(tmp_path, "x1,y\n1,2\n1,2,3\n")
        with pytest.raises(ValueError, match=":3:"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv")

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((5, 3)), rng.standard_normal(5))
        path = tmp_path / "rt.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.x, ds.x)
        np.testing.assert_array_equal(back.y, ds.y)


class TestBootstrap:
    def setup_method(self):
        self.src = Dataset([[1.0], [2.0], [3.0]], [10.0, 20.0, 30.0])

    def test_full_size_without_replacement_is_permutation(self):
        out = bootstrap(self.src, 3, replacement=False, seed=7)
        assert Counter(out.y) == Counter(self.src.y)

    def test_fixed_seed_is_deterministic(self):
        a = bootstrap(self.src, 3, replacement=True, seed=42)
        b = bootstrap(self.src, 3, replacement=True, seed=42)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    @pytest.mark.parametrize("m_k", [0, -1])
    def test_size_below_one_rejected(self, m_k):
        for replacement in (True, False):
            with pytest.raises(ValueError, match="resample size must be >= 1"):
                bootstrap(self.src, m_k, replacement, seed=0)

    def test_oversample_without_replacement_rejected(self):
        with pytest.raises(ValueError):
            bootstrap(self.src, 5, replacement=False, seed=0)

    def test_without_replacement_no_duplicate_indices(self):
        out = bootstrap(self.src, 2, replacement=False, seed=5)
        assert len(set(out.y)) == 2

    @given(seed=st.integers(0, 2**32 - 1), m_k=st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_sampling_is_pure_in_seed(self, seed, m_k):
        a = bootstrap(self.src, m_k, replacement=True, seed=seed)
        b = bootstrap(self.src, m_k, replacement=True, seed=seed)
        np.testing.assert_array_equal(a.y, b.y)


class TestDither:
    def test_sigma_is_noise_level_times_max_abs_y(self):
        src = Dataset([[0.0], [1.0], [2.0]], [1.0, -2.0, 4.0])
        out = dither(src, 0.05, seed=11)
        expected = 0.05 * 4.0 * np.random.default_rng(11).standard_normal(3)
        np.testing.assert_allclose(out.y - src.y, expected, atol=1e-15)

    def test_zero_noise_is_identity(self):
        src = Dataset([[1.0], [2.0]], [3.0, -4.0])
        out = dither(src, 0.0, seed=1)
        np.testing.assert_array_equal(out.y, src.y)

    def test_first_draw_matches_independent_generator(self):
        src = Dataset([[1.0]], [1.0])
        out = dither(src, 0.1, seed=99)
        z = np.random.default_rng(99).standard_normal(1)[0]
        assert out.y[0] == 1.0 + 0.1 * z

    def test_negative_noise_level_rejected(self):
        src = Dataset([[1.0]], [1.0])
        with pytest.raises(ValueError):
            dither(src, -0.01, seed=0)

    @pytest.mark.parametrize("c", [np.nan, np.inf])
    def test_non_finite_noise_level_rejected(self, c):
        # a nan or inf level made the targets nan or inf, refused only by a
        # later plan's dataset check
        src = Dataset([[1.0], [2.0]], [1.0, -3.0])
        with pytest.raises(ValueError, match="noise level must be >= 0"):
            dither(src, c, seed=0)

    def test_preserves_x_m_and_tags_dithered(self):
        rng = np.random.default_rng(3)
        src = Dataset(rng.standard_normal((7, 2)), rng.standard_normal(7))
        out = dither(src, 0.1, seed=4)
        assert out.tag == "dithered"
        assert out.m == src.m
        np.testing.assert_array_equal(out.x, src.x)

    def test_noise_moments(self):
        # sample mean of (y~ - y)/sigma near 0, variance near 1
        n = 10**5
        src = Dataset(np.ones((n, 1)), np.ones(n))
        out = dither(src, 0.5, seed=8)
        z = (out.y - src.y) / 0.5
        assert abs(np.mean(z)) < 0.01
        assert abs(np.var(z) - 1.0) < 0.02


class TestDatasetInvariants:
    def test_arrays_are_immutable(self):
        ds = Dataset([[1.0]], [2.0])
        with pytest.raises(ValueError):
            ds.x[0, 0] = 5.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Dataset([[1.0], [2.0]], [1.0])

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            Dataset([[1.0]], [1.0], tag="bogus")

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="at least one point"):
            Dataset(np.empty((0, 2)), np.empty(0))

    def test_no_columns_rejected(self):
        with pytest.raises(ValueError, match="feature dimension must be >= 1"):
            Dataset(np.empty((2, 0)), [1.0, 2.0])
