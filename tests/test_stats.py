import math

import numpy as np
import pytest

from actdock.stats import (
    DegenerateDataError,
    TestResult,
    betainc_reg,
    f_sf,
    levene,
    norm_cdf,
    norm_ppf,
    norm_sf,
    qq_points,
    shapiro_wilk,
    t_two_tailed,
    welch,
)

ss = pytest.importorskip("scipy.stats")
sp = pytest.importorskip("scipy.special")


# Frozen references (scipy 1.15.3, itself an AS R94 implementation).
SW_REFERENCE = [
    # (sample, W, p)
    (np.array([10.504, 11.094, 10.139, 9.634, 9.669, 7.151, 8.632, 5.175,
               10.349, 11.779, 12.112, 11.83]),
     0.8969883673, 0.1450363931),
    (np.array([1.161, 1.193, 0.667, 0.879, 1.709, 1.342, 1.637, 0.837, 0.608,
               2.584, 0.661, 0.356, 0.729, 0.785, 1.169, 2.218, 2.307, 1.458,
               3.59, 1.41, 0.999, 0.85, 1.566, 1.131, 2.755]),
     0.8930860228, 0.0130126008),
    (np.array([0.333, -0.633, -1.59, 2.071, 1.714, -1.378, -0.607, 0.07, -0.045]),
     0.9292213514, 0.4739671538),
    (np.array([1.2, 3.4, 2.2]), 0.9972527473, 0.8998502800),
]


class TestNormal:
    def test_cdf_known_values(self):
        assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
        assert norm_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-12)
        assert norm_sf(1.96) == pytest.approx(1.0 - 0.9750021048517795, abs=1e-12)

    def test_cdf_matches_scipy(self):
        xs = np.linspace(-8, 8, 33)
        for x in xs:
            assert norm_cdf(x) == pytest.approx(ss.norm.cdf(x), rel=1e-12, abs=1e-300)

    def test_ppf_round_trip(self):
        for p in (1e-10, 1e-4, 0.02425, 0.3, 0.5, 0.77, 0.97575, 1 - 1e-4):
            assert norm_cdf(norm_ppf(p)) == pytest.approx(p, rel=1e-10)

    def test_ppf_matches_scipy(self):
        for p in (1e-6, 0.001, 0.025, 0.5, 0.84, 0.999, 1 - 1e-6):
            assert norm_ppf(p) == pytest.approx(ss.norm.ppf(p), rel=1e-10, abs=1e-12)

    def test_ppf_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                norm_ppf(bad)


class TestIncompleteBeta:
    def test_matches_scipy_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            a = rng.uniform(0.2, 50)
            b = rng.uniform(0.2, 50)
            x = rng.uniform(0.0, 1.0)
            assert betainc_reg(a, b, x) == pytest.approx(
                sp.betainc(a, b, x), rel=1e-10, abs=1e-13)

    def test_edges(self):
        assert betainc_reg(2.0, 3.0, 0.0) == 0.0
        assert betainc_reg(2.0, 3.0, 1.0) == 1.0

    def test_symmetry_identity(self):
        assert betainc_reg(3.0, 5.0, 0.4) == pytest.approx(
            1.0 - betainc_reg(5.0, 3.0, 0.6), abs=1e-13)


class TestTails:
    def test_t_two_tailed_matches_scipy(self):
        for t, df in [(1.0, 5), (2.3, 17), (-0.7, 2), (4.5, 99), (0.0, 10),
                      (1.96, 1e6), (95.0, 134.7)]:
            assert t_two_tailed(t, df) == pytest.approx(
                2 * ss.t.sf(abs(t), df), rel=1e-9, abs=1e-300)

    def test_large_df_approaches_normal(self):
        assert t_two_tailed(1.96, 1e6) == pytest.approx(0.0500, abs=5e-4)

    def test_f_sf_matches_scipy(self):
        for f, d1, d2 in [(1.0, 3, 10), (3.36, 1, 6), (0.5, 8, 2), (10.0, 1, 99)]:
            assert f_sf(f, d1, d2) == pytest.approx(ss.f.sf(f, d1, d2), rel=1e-9)


class TestWelch:
    def test_hand_value(self):
        r = welch(np.array([1.0, 2.0, 3.0, 4.0]), np.array([2.0, 3.0, 4.0, 5.0]))
        assert r.statistic == pytest.approx(-1.0954451150103321, rel=1e-12)
        assert r.df == pytest.approx(6.0, rel=1e-12)
        assert r.p == pytest.approx(0.3153335962012296, rel=1e-9)

    def test_matches_scipy_random(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = rng.normal(0, 1, size=rng.integers(3, 40))
            b = rng.normal(0.3, 2, size=rng.integers(3, 40))
            mine = welch(a, b)
            ref = ss.ttest_ind(a, b, equal_var=False)
            assert mine.statistic == pytest.approx(ref.statistic, rel=1e-10)
            assert mine.p == pytest.approx(ref.pvalue, rel=1e-8)

    def test_summary_form_equals_raw_form(self):
        rng = np.random.default_rng(22)
        a = rng.normal(size=12)
        b = rng.normal(size=9)
        raw = welch(a, b)
        summ = welch((a.mean(), a.std(ddof=1), 12), (b.mean(), b.std(ddof=1), 9))
        assert summ.statistic == pytest.approx(raw.statistic, rel=1e-12)
        assert summ.df == pytest.approx(raw.df, rel=1e-12)
        assert summ.p == pytest.approx(raw.p, rel=1e-12)

    def test_published_summary_reproduction(self):
        # M=9.39 SD=0.74 N=100 vs M=1.71 SD=0.32 N=100
        r = welch((9.39, 0.74, 100), (1.71, 0.32, 100))
        assert abs(r.statistic) == pytest.approx(95.2586, abs=0.01)
        assert r.df == pytest.approx(134.77, abs=0.05)
        assert r.p < 1e-3

    def test_sign_convention(self):
        r = welch((1.0, 1.0, 10), (2.0, 1.0, 10))
        assert r.statistic < 0.0

    def test_degenerate_variances(self):
        with pytest.raises(DegenerateDataError):
            welch((1.0, 0.0, 10), (2.0, 0.0, 10))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            welch(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            welch(np.array([1.0, np.nan, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            welch((1.0, -0.5, 10), (1.0, 1.0, 10))
        with pytest.raises(ValueError):
            welch((1.0, 1.0, 1), (1.0, 1.0, 10))


class TestShapiroWilk:
    @pytest.mark.parametrize("sample,w_ref,p_ref", SW_REFERENCE)
    def test_frozen_reference(self, sample, w_ref, p_ref):
        r = shapiro_wilk(sample)
        assert r.statistic == pytest.approx(w_ref, abs=1e-3)
        assert r.p == pytest.approx(p_ref, abs=2e-3)

    def test_matches_scipy_many_sizes(self):
        rng = np.random.default_rng(23)
        for n in [3, 4, 5, 6, 7, 8, 11, 12, 13, 20, 35, 50, 101, 500]:
            x = rng.normal(size=n)
            mine = shapiro_wilk(x)
            w_ref, p_ref = ss.shapiro(x)
            assert mine.statistic == pytest.approx(w_ref, abs=1e-6), f"n={n}"
            assert mine.p == pytest.approx(p_ref, abs=1e-5), f"n={n}"

    def test_skewed_data_rejected_as_normal(self):
        rng = np.random.default_rng(24)
        x = rng.lognormal(0, 1, size=200)
        assert shapiro_wilk(x).p < 1e-6

    def test_constant_sample_degenerate(self):
        with pytest.raises(DegenerateDataError):
            shapiro_wilk(np.full(10, 3.3))

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            shapiro_wilk(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            shapiro_wilk(np.zeros(5001))

    def test_w_never_exceeds_one(self):
        # evenly spaced data is nearly perfectly "normal-scored"
        r = shapiro_wilk(np.linspace(0, 1, 10))
        assert r.statistic <= 1.0


class TestLevene:
    def test_hand_fixture_exact(self):
        """a={1,2,4,8}, b={1,3,9,27}: |dev| means 2.25 and 8.5, grand 5.375;
        SSB=78.125, SSW=139.5 -> F = 78.125/(139.5/6) = 3.360215053763441.
        """
        r = levene(np.array([1.0, 2.0, 4.0, 8.0]), np.array([1.0, 3.0, 9.0, 27.0]))
        assert r.statistic == pytest.approx(3.360215053763441, abs=1e-10)
        assert r.df == 1.0
        assert r.df2 == 6.0
        assert r.p == pytest.approx(0.11648846277093027, rel=1e-9)

    def test_matches_scipy_random(self):
        rng = np.random.default_rng(25)
        for _ in range(15):
            a = rng.normal(0, 1, size=rng.integers(3, 30))
            b = rng.normal(0, 3, size=rng.integers(3, 30))
            mine = levene(a, b)
            ref = ss.levene(a, b, center="mean")
            assert mine.statistic == pytest.approx(ref.statistic, rel=1e-10)
            assert mine.p == pytest.approx(ref.pvalue, rel=1e-8)

    def test_identical_spreads_degenerate(self):
        with pytest.raises(DegenerateDataError):
            levene(np.array([0.0, 2.0]), np.array([5.0, 7.0]))


class TestQQPoints:
    def test_positions_and_sorting(self):
        x = np.array([3.0, 1.0, 2.0])
        pts = qq_points(x)
        assert pts.shape == (3, 2)
        expected_theo = [norm_ppf((i - 0.375) / 3.25) for i in (1, 2, 3)]
        np.testing.assert_allclose(pts[:, 0], expected_theo, atol=1e-12)
        np.testing.assert_allclose(pts[:, 1], [1.0, 2.0, 3.0], atol=1e-15)

    def test_near_line_for_normal_sample(self):
        rng = np.random.default_rng(26)
        x = rng.normal(5.0, 2.0, size=500)
        pts = qq_points(x)
        slope, intercept = np.polyfit(pts[:, 0], pts[:, 1], 1)
        assert slope == pytest.approx(2.0, abs=0.2)
        assert intercept == pytest.approx(5.0, abs=0.2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            qq_points(np.array([]))


class TestResultShape:
    def test_as_dict(self):
        r = TestResult(name="x", statistic=1.5, df=3.0, p=0.2)
        d = r.as_dict()
        assert d["name"] == "x" and d["statistic"] == 1.5
        assert "df2" not in d or d["df2"] is None

    def test_df2_included_when_present(self):
        r = TestResult(name="levene", statistic=1.0, df=1.0, p=0.3, df2=6.0)
        assert r.as_dict()["df2"] == 6.0
