import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentrec import linalg
from latentrec.errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    MagnitudeError,
    ZeroNormError,
)


class TestCosine:
    def test_self_similarity(self):
        u = np.array([1.0, 2.0, -3.0])
        assert linalg.cosine(u, u) == pytest.approx(1.0)

    def test_antiparallel(self):
        u = np.array([0.5, -2.0, 1.0])
        assert linalg.cosine(u, -u) == pytest.approx(-1.0)

    def test_masked_columns_value(self):
        # cos((2.87,0,0,0), (0.98,5.14,3.94,0)) = 2.8126 / (2.87 * 6.5452...)
        a = np.array([2.87, 0.0, 0.0, 0.0])
        b = np.array([0.98, 5.14, 3.94, 0.0])
        expected = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert linalg.cosine(a, b) == pytest.approx(expected)
        assert linalg.cosine(a, b) == pytest.approx(0.1497, abs=5e-4)

    def test_zero_norm_rejected(self):
        with pytest.raises(ZeroNormError):
            linalg.cosine(np.zeros(3), np.ones(3))

    def test_range(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.normal(size=6)
            v = rng.normal(size=6)
            assert -1.0 <= linalg.cosine(u, v) <= 1.0


def reconstruction_error(a, res):
    approx = res.u @ np.diag(res.s) @ res.v.T
    denom = np.linalg.norm(a)
    return np.linalg.norm(a - approx) / (denom if denom else 1.0)


def max_orthonormality_defect(res):
    du = np.abs(res.u.T @ res.u - np.eye(res.s.size)).max()
    dv = np.abs(res.v.T @ res.v - np.eye(res.s.size)).max()
    return max(du, dv)


class TestSvd:
    def test_identity(self):
        res = linalg.svd(np.eye(3))
        np.testing.assert_allclose(res.s, [1.0, 1.0, 1.0], atol=1e-12)

    def test_diagonal(self):
        res = linalg.svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(res.s, [3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(res.u), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(np.abs(res.v), np.eye(2), atol=1e-12)

    def test_random_20x15_reconstruction(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(20, 15))
        res = linalg.svd(a)
        assert reconstruction_error(a, res) <= 1e-8

    def test_matches_reference_singular_values(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = int(rng.integers(1, 30))
            n = int(rng.integers(1, 30))
            a = rng.normal(size=(m, n))
            res = linalg.svd(a)
            np.testing.assert_allclose(res.s, np.linalg.svd(a, compute_uv=False), atol=1e-9)

    def test_property_orthonormal_and_reconstructs(self):
        rng = np.random.default_rng(1234)
        for _ in range(30):
            m = int(rng.integers(1, 40))
            n = int(rng.integers(1, 40))
            a = rng.normal(size=(m, n)) * float(rng.uniform(0.1, 10))
            res = linalg.svd(a)
            assert max_orthonormality_defect(res) <= 1e-10
            assert reconstruction_error(a, res) <= 1e-8
            assert np.all(np.diff(res.s) <= 1e-12 * max(1.0, res.s[0]))
            assert np.all(res.s >= 0)

    def test_rank_deficient(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(8, 2))
        a = np.hstack([base, base[:, :1] + base[:, 1:]])  # rank 2, 3 columns
        res = linalg.svd(a)
        assert res.s[2] <= 1e-10 * res.s[0]
        assert max_orthonormality_defect(res) <= 1e-10
        assert reconstruction_error(a, res) <= 1e-8

    def test_zero_matrix(self):
        res = linalg.svd(np.zeros((4, 3)))
        np.testing.assert_array_equal(res.s, np.zeros(3))
        assert max_orthonormality_defect(res) <= 1e-12

    def test_wide_matrix(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(3, 9))
        res = linalg.svd(a)
        assert res.u.shape == (3, 3)
        assert res.v.shape == (9, 3)
        assert reconstruction_error(a, res) <= 1e-8
        assert max_orthonormality_defect(res) <= 1e-10

    def test_single_row_and_column(self):
        row = np.array([[3.0, 4.0]])
        res = linalg.svd(row)
        np.testing.assert_allclose(res.s, [5.0], atol=1e-12)
        col = np.array([[3.0], [4.0]])
        res = linalg.svd(col)
        np.testing.assert_allclose(res.s, [5.0], atol=1e-12)

    def test_deterministic_and_sign_convention(self):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(10, 6))
        r1 = linalg.svd(a)
        r2 = linalg.svd(a)
        np.testing.assert_array_equal(r1.u, r2.u)
        np.testing.assert_array_equal(r1.s, r2.s)
        np.testing.assert_array_equal(r1.v, r2.v)
        for j in range(r1.s.size):
            k = int(np.argmax(np.abs(r1.u[:, j])))
            assert r1.u[k, j] >= 0

    def test_non_finite_rejected(self):
        bad = np.ones((2, 2))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            linalg.svd(bad)

    @pytest.mark.parametrize("name", ["duplicated_profiles", "rank5_120x60"])
    def test_rank_deficient_converges(self, name):
        if name == "duplicated_profiles":
            # users copying 12 profiles: noise columns shrink to ~1e-130
            # while staying correlated with the large columns
            a = np.repeat(np.random.default_rng(1).uniform(1, 5, (6, 30)), 10, axis=0)
        else:
            rng = np.random.default_rng(9)
            a = rng.normal(size=(120, 5)) @ rng.normal(size=(5, 60))
        res = linalg.svd(a)
        assert reconstruction_error(a, res) <= 1e-8
        assert max_orthonormality_defect(res) <= 1e-10
        np.testing.assert_allclose(res.s, np.linalg.svd(a, compute_uv=False), atol=1e-9)
        _, _, sweeps = linalg._jacobi_tall(a)  # both inputs are tall
        assert sweeps < linalg.JACOBI_MAX_SWEEPS

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 7), st.integers(1, 7)),
        rank=st.integers(0, 7),
        k=st.integers(-1100, 1100),
    )
    def test_property_power_of_two_scaling_is_exact(self, seed, shape, rank, k):
        # a product of integer factors, rank-deficient when rank < min(m, n);
        # k is clipped to the range that keeps every nonzero entry of
        # a * 2^k normal and finite, so its ends, where svd scales, are
        # drawn often
        rng = np.random.default_rng(seed)
        a = (rng.integers(-8, 9, (shape[0], rank)) @ rng.integers(-8, 9, (rank, shape[1])))
        a = a.astype(float)
        nonzero = np.abs(a[a != 0])
        if nonzero.size:
            lowest = math.frexp(nonzero.min())[1] - 1  # 2^lowest <= the least entry
            k = min(max(k, -1022 - lowest), 1023 - math.frexp(nonzero.max())[1] + 1)
        scaled = np.ldexp(a, k)
        assert np.array_equal(np.ldexp(scaled, -k), a)
        res = linalg.svd(a)
        with np.errstate(over="ignore"):
            want = np.ldexp(res.s, k)
        if not np.isfinite(want).all():
            with pytest.raises(MagnitudeError, match="overflow"):
                linalg.svd(scaled)
            return
        got = linalg.svd(scaled)
        assert got.s.tobytes() == want.tobytes()
        assert got.u.tobytes() == res.u.tobytes()
        assert got.v.tobytes() == res.v.tobytes()

    @pytest.mark.parametrize("k", [-280, -260, 260, 300, 900])
    def test_out_of_window_input_decomposes_as_the_scaled_one(self, k):
        # unscaled, the coupling test's fourth power of a column norm
        # overflows (k >= 260 on this shape) or goes subnormal (k <= -260)
        a = np.random.default_rng(4).uniform(1, 5, (40, 20))
        res = linalg.svd(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = linalg.svd(np.ldexp(a, k))
        assert got.s.tobytes() == np.ldexp(res.s, k).tobytes()
        assert got.u.tobytes() == res.u.tobytes() and got.v.tobytes() == res.v.tobytes()

    def test_singular_values_past_the_float_range_raise(self):
        # every entry is finite, but the leading singular value is about
        # 1.4 times the largest one
        a = np.array([[1.7e308, 1.7e308], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(MagnitudeError, match="2 x 2 matrix"):
                linalg.svd(a)

    def test_window_holds_the_fourth_power_of_every_column_norm(self):
        for m, n in [(1, 1), (3, 2), (400, 200), (120, 60)]:
            lo, hi = linalg._scale_window(m, n)
            # a column norm is below sqrt(m n) 2^hi, the zero-column
            # threshold at least 2^(lo - 53)
            assert (math.sqrt(m * n) * 2.0 ** hi) ** 4 < np.finfo(float).max
            assert (2.0 ** (lo - 53)) ** 4 >= np.finfo(float).tiny

    @pytest.mark.parametrize("transpose", [False, True])
    def test_zero_value_completion_memory_follows_the_input(self, transpose):
        # rank 4 of 20: the 16 completed vectors come from a rows x cols QR,
        # where a complete QR would hold a 3000 x 3000 Q (72 MB)
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3000, 4)) @ rng.normal(size=(4, 20))
        a = a.T.copy() if transpose else a
        tracemalloc.start()
        try:
            res = linalg.svd(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * a.nbytes
        assert np.sum(res.s > 1e-9 * res.s[0]) == 4
        assert max_orthonormality_defect(res) <= 1e-10
        assert reconstruction_error(a, res) <= 1e-8

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        rank=st.integers(0, 4),
        copies=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    )
    def test_property_low_rank_with_duplicates(self, seed, shape, rank, copies):
        rng = np.random.default_rng(seed)
        base = rng.uniform(-5, 5, (shape[0], rank)) @ rng.uniform(-5, 5, (rank, shape[1]))
        rows = rng.integers(1, copies[0] + 1, size=shape[0])
        cols = rng.integers(1, copies[1] + 1, size=shape[1])
        a = np.repeat(np.repeat(base, rows, axis=0), cols, axis=1)
        res = linalg.svd(a)
        assert max_orthonormality_defect(res) <= 1e-10
        assert reconstruction_error(a, res) <= 1e-8
        scale = max(1.0, float(res.s[0]))
        np.testing.assert_allclose(res.s, np.linalg.svd(a, compute_uv=False), atol=1e-9 * scale)
        assert np.sum(res.s > 1e-9 * scale) <= rank

    def test_worked_example_spectrum(self, four_by_four):
        # user-mean imputation, then the full decomposition
        r = four_by_four["ratings"]
        mask = four_by_four["mask"]
        filled = r.copy()
        for u in range(4):
            filled[u, mask[u] == 0] = r[u, mask[u] == 1].mean()
        res = linalg.svd(filled)
        np.testing.assert_allclose(res.s, four_by_four["singular"], atol=5e-3)


class TestRankSelection:
    def test_energy_worked_example(self, four_by_four):
        s = four_by_four["singular"]
        assert linalg.rank_by_energy(s, 0.95) == 2
        energy = np.sum(s[:2] ** 2) / np.sum(s**2)
        assert energy * 100 == pytest.approx(99.42, abs=0.05)

    def test_energy_single_dominant(self):
        assert linalg.rank_by_energy(np.array([5.0, 0.0, 0.0]), 0.5) == 1
        assert linalg.rank_by_energy(np.array([5.0, 0.0, 0.0]), 1.0) == 1

    def test_energy_flat_spectrum(self):
        assert linalg.rank_by_energy(np.ones(4), 0.95) == 4

    def test_energy_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            s = np.sort(rng.uniform(0.01, 5.0, size=6))[::-1]
            prev = 0
            for thr in (0.2, 0.5, 0.8, 0.95, 1.0):
                f = linalg.rank_by_energy(s, thr)
                assert f >= prev
                prev = f

    def test_energy_one_keeps_the_full_numeric_rank(self):
        # a share of a pairwise-summed total could round below 1.0 at the
        # last rank, and argmax of no hit is 0: rank 1 for 797 of 2000
        # such spectra; each share is now of the running sum's last entry
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = np.sort(rng.uniform(0.0, 5.0, size=int(rng.integers(1, 40))))[::-1]
            energy = np.cumsum(s * s)
            f = linalg.rank_by_energy(s, 1.0)
            assert energy[f - 1] == energy[-1]
            assert f == 1 or energy[f - 2] < energy[-1]

    def test_energy_one_on_a_rank_deficient_matrix(self):
        # users copying 12 profiles: numeric rank 12, where the zero
        # singular values that follow add nothing to the energy
        rng = np.random.default_rng(1)
        res = linalg.svd(np.repeat(rng.uniform(1, 5, (12, 30)), 5, axis=0))
        s = res.s
        f = linalg.rank_by_energy(s, 1.0)
        assert 12 <= f <= s.size
        assert np.cumsum(s * s)[f - 1] == np.cumsum(s * s)[-1]

    @pytest.mark.parametrize("s", [[1e200, 1e199], [1e-200, 1e-201]])
    def test_energy_of_squares_outside_the_float_range(self, s):
        # s * s overflows to inf for the first and underflows to 0/0 for
        # the second; the squares of the scaled spectrum do neither
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.rank_by_energy(np.array(s), 0.95) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=12),
        st.integers(0, 3),
        st.sampled_from([0.5, 0.9, 0.95, 0.99, 1.0]),
        st.data(),
    )
    def test_energy_rank_is_scale_free(self, values, zeros, threshold, data):
        # 2**k scales every share's numerator and denominator alike, so
        # for each k that keeps s normal and finite the rank is the same
        s = np.array(sorted(values, reverse=True) + [0.0] * zeros)
        # m * 2**e with m in [0.5, 1) is normal and finite for e in [-1021, 1024]
        exponents = np.frexp(s[s > 0])[1]
        low, high = -1021 - int(exponents.min()), 1024 - int(exponents.max())
        k = data.draw(st.integers(low, high))
        assert linalg.rank_by_energy(np.ldexp(s, k), threshold) == (
            linalg.rank_by_energy(s, threshold)
        )

    def test_energy_validation(self):
        with pytest.raises(DegenerateSpectrumError):
            linalg.rank_by_energy(np.zeros(3), 0.95)
        with pytest.raises(ValueError):
            linalg.rank_by_energy(np.array([3.0, 1.0]), 0.0)
        with pytest.raises(ValueError):
            linalg.rank_by_energy(np.array([1.0, 2.0]), 0.95)  # not descending

    def test_ratio_worked_example(self, four_by_four):
        # 14.59 + 3.22 = 17.81 >= 10 * (1.11 + 0.23)
        assert linalg.rank_by_ratio(four_by_four["singular"], 10.0) == 2

    def test_ratio_boundary(self):
        assert linalg.rank_by_ratio(np.array([9.0, 1.0]), 9.0) == 1

    def test_ratio_full_rank_fallback(self):
        assert linalg.rank_by_ratio(np.ones(4), 10.0) == 4

    def test_ratio_validation(self):
        with pytest.raises(DegenerateSpectrumError):
            linalg.rank_by_ratio(np.zeros(2), 10.0)
        with pytest.raises(ValueError):
            linalg.rank_by_ratio(np.array([2.0, 1.0]), 0.0)
        for c in (np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                linalg.rank_by_ratio(np.array([2.0, 1.0]), c)

    def test_ratio_sums_past_the_float_range(self):
        # the running sum of three 1e308s overflowed to inf, so the head
        # never dominated and the warning was an error under -W error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert linalg.rank_by_ratio(np.array([1e308] * 3), 10.0) == 3
            assert linalg.rank_by_ratio(np.array([1e308, 1e290, 1e290]), 10.0) == 1

    @pytest.mark.parametrize("rule", [linalg.rank_by_ratio, linalg.rank_by_energy])
    @pytest.mark.parametrize("s", [[np.nan, 1.0], [np.inf, 1.0], [2.0, np.nan]])
    def test_non_finite_spectrum_refused(self, rule, s):
        # nan compares false with every bound, so it used to pass the
        # sign and order checks and give a rank without a word
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                rule(np.array(s))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=12),
        st.integers(0, 3),
        st.sampled_from([0.5, 1.0, 3.0, 10.0, 100.0]),
        st.data(),
    )
    def test_ratio_rank_is_scale_free(self, values, zeros, c, data):
        # 2**k scales the head and the tail alike, so for each k that keeps
        # s normal and finite the rank is the same
        s = np.array(sorted(values, reverse=True) + [0.0] * zeros)
        exponents = np.frexp(s[s > 0])[1]
        low, high = -1021 - int(exponents.min()), 1024 - int(exponents.max())
        k = data.draw(st.integers(low, high))
        assert linalg.rank_by_ratio(np.ldexp(s, k), c) == linalg.rank_by_ratio(s, c)

    def test_ratio_tail_that_rounds_away_still_counts(self):
        # 1.0 + 2e-17 rounds to 1.0, so total - head was 0.0 at f = 1 and
        # any ratio stopped there; sum(s[1:]) is 2e-17, which 1e308 times
        # over is far past the head
        s = np.array([1.0, 1e-17, 1e-17])
        assert linalg.rank_by_ratio(s, 1e308) == 3
        assert linalg.rank_by_ratio(s, 7e16) == 2
        assert linalg.rank_by_ratio(s, 10.0) == 1

    def test_ratio_is_the_smallest_rank_whose_head_dominates(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = np.sort(rng.uniform(0.0, 5.0, size=int(rng.integers(2, 30))))[::-1]
            c = float(rng.uniform(0.1, 50.0))
            f = linalg.rank_by_ratio(s, c)
            hits = [g for g in range(1, s.size)
                    if math.fsum(s[:g]) >= c * math.fsum(s[g:])]
            assert f == (hits[0] if hits else s.size)


class TestTruncate:
    def test_full_rank_identity(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(5, 4))
        res = linalg.svd(a)
        u_f, s_f, v_f = linalg.truncate(res, 4)
        np.testing.assert_array_equal(u_f, res.u)
        np.testing.assert_array_equal(np.diag(s_f), res.s)
        np.testing.assert_array_equal(v_f, res.v)

    def test_shapes(self, four_by_four):
        r = four_by_four["ratings"]
        mask = four_by_four["mask"]
        filled = r.copy()
        for u in range(4):
            filled[u, mask[u] == 0] = r[u, mask[u] == 1].mean()
        u_f, s_f, v_f = linalg.truncate(linalg.svd(filled), 2)
        assert u_f.shape == (4, 2)
        assert s_f.shape == (2, 2)
        assert v_f.T.shape == (2, 4)

    def test_printed_factors_reproduce_reconstruction(self, four_by_four):
        # The rank-2 factors are printed at 2-decimal precision; multiplying
        # them back accumulates up to 0.0597 of rounding at one cell (the
        # 14.59 singular value amplifies the +-0.005 factor roundoff), so the
        # bound is 0.06 rather than the 0.05 print precision itself.
        product = four_by_four["u2"] @ four_by_four["s2"] @ four_by_four["v2t"]
        assert np.abs(product - four_by_four["r_star"]).max() <= 0.06

    def test_out_of_range(self):
        res = linalg.svd(np.eye(3))
        with pytest.raises(ValueError):
            linalg.truncate(res, 0)
        with pytest.raises(ValueError):
            linalg.truncate(res, 4)

    def test_rank2_beats_rank1_on_noisy_rank2(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            base = rng.normal(size=(12, 2)) @ rng.normal(size=(2, 9))
            noisy = base + 0.01 * rng.normal(size=base.shape)
            res = linalg.svd(noisy)
            errs = []
            for f in (1, 2):
                u_f, s_f, v_f = linalg.truncate(res, f)
                errs.append(np.linalg.norm(noisy - u_f @ s_f @ v_f.T))
            assert errs[1] <= errs[0]


class TestSweepCap:
    @pytest.mark.parametrize("shape", [(30, 10), (12, 12), (40, 7), (8, 20)])
    def test_cap_one_short_of_the_sweeps_run_gives_the_same_svd(self, shape, monkeypatch):
        # the last sweep rotates nothing, so stopping before it leaves every
        # column where it was; the capped run checks the columns instead
        a = np.random.default_rng(sum(shape)).normal(size=shape)
        sweeps = linalg._jacobi_tall(a.T if shape[0] < shape[1] else a)[2]
        assert sweeps >= 2
        want = linalg.svd(a)
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", sweeps - 1)
        got = linalg.svd(a)
        for name, x, y in zip(("u", "s", "v"), got, want):
            assert x.tobytes() == y.tobytes(), name

    def test_cap_of_one_sweep_raises_with_the_off_diagonal_ratio(self, monkeypatch):
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError, match="did not converge in 1 sweeps") as info:
            linalg.svd(np.random.default_rng(40).normal(size=(30, 10)))
        assert info.value.off_diagonal > linalg.JACOBI_TOL


def test_convergence_error_is_exported():
    # the cap is generous; just check the error type carries its payload
    err = ConvergenceError("no luck", off_diagonal=0.25)
    assert err.off_diagonal == 0.25
