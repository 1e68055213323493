"""Hypothesis-test battery: Welch's t, Shapiro-Wilk, Levene, Q-Q points.

Self-contained implementations over float64. Tail probabilities come from
the regularized incomplete beta function evaluated with Lentz's continued
fraction; normal quantiles from a refined rational approximation. Sample
variances use the N-1 convention throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateDataError(ValueError):
    """Inputs admit no defined test statistic (e.g. zero variance everywhere)."""


@dataclass(frozen=True)
class TestResult:
    __test__ = False  # not a pytest collectable despite the name

    name: str
    statistic: float
    df: float  # may be fractional (Welch-Satterthwaite); df1 for F-tests
    p: float
    df2: float | None = None  # denominator df for F-tests

    def as_dict(self) -> dict:
        out = {"name": self.name, "statistic": self.statistic, "df": self.df, "p": self.p}
        if self.df2 is not None:
            out["df2"] = self.df2
        return out


# --- normal distribution helpers ---

_PPF_A = (
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
)
_PPF_B = (
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01, -1.328068155288572e+01,
)
_PPF_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
)
_PPF_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
    3.754408661907416e+00,
)


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def norm_sf(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def norm_ppf(p: float) -> float:
    """Inverse standard normal CDF, near machine precision.

    Rational initial guess (Acklam) followed by one Halley refinement.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"norm_ppf requires 0 < p < 1, got {p}")
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        a, b, c, d, e, f = _PPF_C
        x = (((((a * q + b) * q + c) * q + d) * q + e) * q + f) / (
            (((_PPF_D[0] * q + _PPF_D[1]) * q + _PPF_D[2]) * q + _PPF_D[3]) * q + 1.0
        )
    elif p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        a, b, c, d, e, f = _PPF_A
        x = (((((a * r + b) * r + c) * r + d) * r + e) * r + f) * q / (
            ((((_PPF_B[0] * r + _PPF_B[1]) * r + _PPF_B[2]) * r + _PPF_B[3]) * r
             + _PPF_B[4]) * r + 1.0
        )
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        a, b, c, d, e, f = _PPF_C
        x = -(((((a * q + b) * q + c) * q + d) * q + e) * q + f) / (
            (((_PPF_D[0] * q + _PPF_D[1]) * q + _PPF_D[2]) * q + _PPF_D[3]) * q + 1.0
        )
    # one Halley step against the exact CDF
    err = norm_cdf(x) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


# --- regularized incomplete beta ---

_BETA_EPS = 1e-14
_BETA_FPMIN = 1e-300
_BETA_MAXIT = 500


def _betacf(a: float, b: float, x: float) -> float:
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _BETA_FPMIN:
        d = _BETA_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_MAXIT + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _BETA_FPMIN:
            d = _BETA_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _BETA_FPMIN:
            c = _BETA_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_EPS:
            return h
    raise RuntimeError(f"incomplete beta continued fraction failed for a={a} b={b} x={x}")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"betainc_reg requires a, b > 0, got a={a} b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"betainc_reg requires 0 <= x <= 1, got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def t_two_tailed(t: float, df: float) -> float:
    """Two-tailed Student-t p-value P(|T| > |t|)."""
    if df <= 0.0:
        raise ValueError(f"t_two_tailed requires df > 0, got {df}")
    return betainc_reg(0.5 * df, 0.5, df / (df + t * t))


def f_sf(f: float, df1: float, df2: float) -> float:
    """F-distribution upper tail P(F > f)."""
    if df1 <= 0.0 or df2 <= 0.0:
        raise ValueError(f"f_sf requires positive dfs, got {df1}, {df2}")
    if f < 0.0:
        raise ValueError(f"f_sf requires f >= 0, got {f}")
    return betainc_reg(0.5 * df2, 0.5 * df1, df2 / (df2 + df1 * f))


# --- Welch's t-test ---


def _moments(sample, label: str) -> tuple[float, float, int]:
    """(mean, variance, n) from a raw sample or an (M, SD, N) summary triple."""
    if isinstance(sample, tuple) and len(sample) == 3:
        m, sd, n = sample
        n = int(n)
        if n < 2:
            raise ValueError(f"{label}: summary N must be >= 2, got {n}")
        if sd < 0.0:
            raise ValueError(f"{label}: summary SD must be >= 0, got {sd}")
        return float(m), float(sd) ** 2, n
    arr = np.asarray(sample, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"{label}: need a 1-D sample with at least 2 values")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{label}: sample contains non-finite values")
    return float(arr.mean()), float(arr.var(ddof=1)), int(arr.size)


def welch(a, b) -> TestResult:
    """Welch's unequal-variance two-sample t-test, two-tailed.

    Each argument is either a 1-D sample or an (M, SD, N) summary triple;
    the two forms agree exactly on the same data.
    """
    m1, v1, n1 = _moments(a, "a")
    m2, v2, n2 = _moments(b, "b")
    se2 = v1 / n1 + v2 / n2
    if se2 <= 0.0:
        raise DegenerateDataError("both samples have zero variance; t is undefined")
    t = (m1 - m2) / math.sqrt(se2)
    df = se2**2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    return TestResult(name="welch_t", statistic=t, df=df, p=t_two_tailed(t, df))


# --- Shapiro-Wilk (Royston's AS R94 approximation) ---

_SW_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_SW_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)


def _poly(coeffs, x: float) -> float:
    # coeffs[0] + coeffs[1]*x + coeffs[2]*x^2 + ...
    out = 0.0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def shapiro_wilk(x) -> TestResult:
    """Shapiro-Wilk normality test for 3 <= N <= 5000.

    Coefficients and the p-value transform follow Royston's published
    approximation; p is the upper tail of the normalized statistic.
    """
    arr = np.sort(np.asarray(x, dtype=np.float64))
    n = arr.size
    if arr.ndim != 1:
        raise ValueError("shapiro_wilk: need a 1-D sample")
    if not 3 <= n <= 5000:
        raise ValueError(f"shapiro_wilk: sample size must be in [3, 5000], got {n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("shapiro_wilk: sample contains non-finite values")
    if arr[-1] - arr[0] == 0.0:
        raise DegenerateDataError("constant sample; W is undefined")

    n2 = n // 2
    if n == 3:
        coeffs = np.array([math.sqrt(0.5)])
    else:
        m_low = np.array(
            [norm_ppf((i - 0.375) / (n + 0.25)) for i in range(1, n2 + 1)]
        )  # lower-half Blom scores, all negative
        ss = 2.0 * float(np.sum(m_low**2))
        rsn = 1.0 / math.sqrt(n)
        a1 = _poly(_SW_C1, rsn) - m_low[0] / math.sqrt(ss)
        coeffs = -m_low.copy()  # positive upper-half coefficients
        if n > 5:
            a2 = _poly(_SW_C2, rsn) - m_low[1] / math.sqrt(ss)
            phi = (ss - 2.0 * m_low[0] ** 2 - 2.0 * m_low[1] ** 2) / (
                1.0 - 2.0 * a1**2 - 2.0 * a2**2
            )
            coeffs[2:] /= math.sqrt(phi)
            coeffs[0] = a1
            coeffs[1] = a2
        else:
            phi = (ss - 2.0 * m_low[0] ** 2) / (1.0 - 2.0 * a1**2)
            coeffs[1:] /= math.sqrt(phi)
            coeffs[0] = a1

    num = 0.0
    for i in range(n2):
        num += coeffs[i] * (arr[n - 1 - i] - arr[i])
    den = float(np.sum((arr - arr.mean()) ** 2))
    w = num * num / den
    w = min(w, 1.0)

    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        p = min(max(p, 0.0), 1.0)
        return TestResult(name="shapiro_wilk", statistic=w, df=float(n), p=p)
    if w >= 1.0:
        return TestResult(name="shapiro_wilk", statistic=1.0, df=float(n), p=1.0)
    if n <= 11:
        gamma = -2.273 + 0.459 * n
        wln = -math.log(gamma - math.log1p(-w))
        mu = 0.5440 - 0.39978 * n + 0.025054 * n**2 - 0.0006714 * n**3
        sigma = math.exp(1.3822 - 0.77857 * n + 0.062767 * n**2 - 0.0020322 * n**3)
    else:
        wln = math.log1p(-w)
        ln_n = math.log(n)
        mu = -1.5861 - 0.31082 * ln_n - 0.083751 * ln_n**2 + 0.0038915 * ln_n**3
        sigma = math.exp(-0.4803 - 0.082676 * ln_n + 0.0030302 * ln_n**2)
    z = (wln - mu) / sigma
    return TestResult(name="shapiro_wilk", statistic=w, df=float(n), p=norm_sf(z))


# --- Levene's test (mean-centered) ---


def levene(a, b) -> TestResult:
    """Two-group Levene test on absolute deviations from the group means."""
    groups = []
    for label, sample in (("a", a), ("b", b)):
        arr = np.asarray(sample, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(f"{label}: need a 1-D sample with at least 2 values")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{label}: sample contains non-finite values")
        groups.append(arr)
    z = [np.abs(g - g.mean()) for g in groups]
    zbars = [zi.mean() for zi in z]
    ns = [zi.size for zi in z]
    n_total = sum(ns)
    k = len(groups)
    zbar = sum(ni * zb for ni, zb in zip(ns, zbars)) / n_total
    between = sum(ni * (zb - zbar) ** 2 for ni, zb in zip(ns, zbars))
    within = sum(float(np.sum((zi - zb) ** 2)) for zi, zb in zip(z, zbars))
    df1 = float(k - 1)
    df2 = float(n_total - k)
    if within == 0.0:
        if between == 0.0:
            raise DegenerateDataError("all absolute deviations identical; F is undefined")
        raise DegenerateDataError("zero within-group spread of deviations; F is infinite")
    f = (between / df1) / (within / df2)
    return TestResult(name="levene", statistic=f, df=df1, p=f_sf(f, df1, df2), df2=df2)


# --- Q-Q points ---


def qq_points(x) -> np.ndarray:
    """(theoretical normal quantile, sample quantile) pairs, plotting
    positions (i - 0.375) / (N + 0.25)."""
    arr = np.sort(np.asarray(x, dtype=np.float64))
    n = arr.size
    if arr.ndim != 1 or n < 1:
        raise ValueError("qq_points: need a non-empty 1-D sample")
    if not np.all(np.isfinite(arr)):
        raise ValueError("qq_points: sample contains non-finite values")
    theo = np.array([norm_ppf((i - 0.375) / (n + 0.25)) for i in range(1, n + 1)])
    return np.column_stack([theo, arr])
