"""Radial measure layer: density and CDF against independent quadrature,
both integral formulas, the exact sampler, and the resolution of unity."""

import itertools
import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bgcs import coherent, fock, mc, measure, quadrature, specfun

HALF_PI_ROOT2 = 2.2214414690791831  # (1/4) 2 Gamma(3/4) Gamma(1/4) = pi/sqrt(2) * ...


def _scipy_sigma(n, k, big_r):
    nu = k - n
    return (2.0 / (math.pi**n * math.gamma(k))) * big_r ** (0.5 * nu) \
        * scipy.special.kv(nu, 2.0 * math.sqrt(big_r))


# --- density and total-radius density --------------------------------------


def test_density_origin_limit():
    model = measure.MeasureModel(1, 3.0)
    # Gamma(K-N) / (pi^N Gamma(K)) = Gamma(2)/(pi Gamma(3)) = 1/(2 pi)
    assert measure.density(model, [0.0]) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-14)
    near = measure.density(model, [1e-12])
    assert near == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-4)


# frozen via tests/oracles.py sigma(1, 11, R) at R = 1e-62 and 1e-100 (mpmath, 50 digits)
SIGMA_N1_K11_NEAR_ORIGIN = 0.03183098861837906715377675267


@pytest.mark.parametrize("r", [1e-62, 1e-100])
def test_density_near_the_origin_where_k_overflows(r):
    """R^5 K_10(2 sqrt R) stays near its origin limit while K_10 alone
    leaves double range, so sigma is exp of a sum of logs."""
    value = measure.density(measure.MeasureModel(1, 11.0), [r])
    assert value == pytest.approx(SIGMA_N1_K11_NEAR_ORIGIN, rel=1e-12)


def test_density_beyond_double_range_raises():
    """N = 2, K = 0.5: sigma(R = 1e-300) is 5.1e448 (mpmath), which no
    double holds; it raises rather than returning inf."""
    with pytest.raises(OverflowError, match=r"^density at R=1e-300 exceeds double range"):
        measure.density(measure.MeasureModel(2, 0.5), [1e-300, 0.0])


def test_density_origin_singular_for_small_k():
    with pytest.raises(ValueError):
        measure.density(measure.MeasureModel(1, 1.0), [0.0])
    with pytest.raises(ValueError):
        measure.density(measure.MeasureModel(2, 0.75), [0.0, 0.0])


@given(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.3, max_value=6.0),
    st.floats(min_value=0.01, max_value=15.0),
)
def test_density_matches_direct_formula(n, k, big_r):
    model = measure.MeasureModel(n, k)
    r = np.full(n, big_r / n)
    assert measure.density(model, r) == pytest.approx(_scipy_sigma(n, k, big_r), rel=1e-11)


def test_density_depends_only_on_total_radius():
    model = measure.MeasureModel(2, 1.5)
    assert measure.density(model, [0.3, 0.9]) == pytest.approx(
        measure.density(model, [1.1, 0.1]), rel=1e-14)


def test_density_domain_errors():
    model = measure.MeasureModel(2, 1.5)
    with pytest.raises(ValueError):
        measure.density(model, [0.5])
    with pytest.raises(ValueError):
        measure.density(model, [-0.1, 0.5])
    with pytest.raises(ValueError):
        measure.MeasureModel(0, 1.0)
    with pytest.raises(ValueError):
        measure.MeasureModel(1, -2.0)


def radius_density(model, big_r):
    """Density of R = sum r_a under dmu at the points big_r, from its log form."""
    return np.exp(measure._log_radius_density(model, np.log(big_r)))


def test_total_radius_density_vs_sigma_one_mode():
    """For N = 1 the R density is pi times the radial density."""
    model = measure.MeasureModel(1, 0.8)
    grid = np.array([0.05, 0.3, 1.0, 4.0])
    lhs = radius_density(model, grid)
    rhs = np.array([math.pi * measure.density(model, [g]) for g in grid])
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("n,k", [(1, 1.0), (2, 0.75), (2, 3.0), (3, 1.5)])
def test_total_radius_density_normalized(n, k):
    model = measure.MeasureModel(n, k)
    val, err = scipy.integrate.quad(
        lambda x: float(radius_density(model, [x])[0]), 0.0, np.inf, limit=200)
    assert val == pytest.approx(1.0, abs=max(1e-9, 4.0 * err))


@pytest.mark.parametrize("n,k,q", [(1, 1.0, 0.7), (2, 0.75, 1.3), (2, 2.5, 6.0)])
def test_radial_cdf_vs_scipy(n, k, q):
    model = measure.MeasureModel(n, k)
    expected, err = scipy.integrate.quad(
        lambda x: float(radius_density(model, [x])[0]), 0.0, q,
        limit=200, points=[0.0])
    assert measure.radial_cdf(model, q) == pytest.approx(expected, abs=max(1e-9, 4.0 * err))


def test_radial_cdf_monotone_to_one():
    model = measure.MeasureModel(1, 0.5)
    qs = [0.1, 0.5, 2.0, 10.0, 60.0]
    vals = [measure.radial_cdf(model, q) for q in qs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        measure.radial_cdf(model, -1.0)


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
def test_radial_cdf_names_a_non_finite_q(q):
    """A non-finite q is refused by its own name, not by specfun's x."""
    with pytest.raises(ValueError, match=r"^need finite q > 0, got"):
        measure.radial_cdf(measure.MeasureModel(1, 0.5), q)


# frozen via tests/oracles.py radial_cdf (mpmath in v = R^min(K, N), 50 digits)
CDF_N1_K0P07_Q0P21 = 0.9345590612773642581031586156


def test_radial_cdf_small_k_matches_oracle():
    """At K = 0.07 the density is ~R^-0.93 at the origin and the tanh-sinh
    nodes reach R ~ 1e-300; none may land on R = 0 or warn on overflow."""
    model = measure.MeasureModel(1, 0.07)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = measure.radial_cdf(model, 0.21)
    assert value == pytest.approx(CDF_N1_K0P07_Q0P21, rel=1e-12)


# frozen via tests/oracles.py radial_cdf at q = 0.21 (mpmath, 50 digits)
SMALL_ARGUMENT_CDFS = {
    (2, 0.1): 0.8495203461128482154101265706,
    (2, 0.125): 0.8145832458459904906857719426,
    (3, 0.15): 0.7314225639970712735251531854,
    (1, 0.055): 0.9483869541098302058142782202,
    (1, 0.09): 0.9163062816345410365626378705,
}


@pytest.mark.parametrize("n,k", sorted(SMALL_ARGUMENT_CDFS))
def test_radial_cdf_reaches_the_small_argument_bessel_form(n, k):
    """At these K the tanh-sinh nodes put K_{K-N}(2 sqrt R) at arguments
    near 1e-120 to 1e-146, where the quadrature stalls and the
    small-argument form Gamma(|nu|)/2 (2/x)^|nu| is exact in double."""
    value = measure.radial_cdf(measure.MeasureModel(n, k), 0.21)
    assert value == pytest.approx(SMALL_ARGUMENT_CDFS[n, k], rel=1e-12)


# frozen via tests/oracles.py radial_cdf(3, K, 0.21) (mpmath, 50 digits)
N3_CDFS = {
    0.05: 0.9032900345159526612285224874,
    0.1: 0.8137989606867771358189638521,
    0.3: 0.5244939454197919498323917139,
}


def test_radial_cdf_scans_small_k_at_n3():
    """At N = 3 and K <= 0.11 the nodes reach K_{K-3}(2 sqrt R) beyond the
    largest double while R^((K+3)/2 - 1) K_{K-3} stays finite: the density
    adds logs, so the whole scan K = 0.05, 0.055, ..., 0.40 runs cleanly."""
    with pytest.raises(OverflowError, match="exceeds double range"):
        specfun.bessel_k(-2.95, 5.261349121240741e-130)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = {k: measure.radial_cdf(measure.MeasureModel(3, k), 0.21)
                  for k in (round(0.05 + 0.005 * i, 3) for i in range(71))}
    for k, expected in N3_CDFS.items():
        assert values[k] == pytest.approx(expected, rel=1e-12)
    assert all(0.0 < v < 1.0 for v in values.values())


# frozen via tests/oracles.py radial_cdf (mpmath, 50 digits)
TINY_K_CDFS = {
    (1, 0.01): 0.9853500463957201831911164433,
    (3, 0.01): 0.9733324150566719504558060388,
}


@pytest.mark.parametrize("n,k", sorted(TINY_K_CDFS))
def test_radial_cdf_at_tiny_strength(n, k):
    """At min(K, N) = 0.01 the density goes like R^-0.99, and the nodes
    needed reach R = 0.1 e^-5500, far below the smallest double: the rule
    hands the density log R, so the CDF needs no lower bound on K."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = measure.radial_cdf(measure.MeasureModel(n, k), 0.1)
    assert value == pytest.approx(TINY_K_CDFS[n, k], rel=1e-12)


# --- the two integral formulas ---------------------------------------------


def test_formula_a_listed_instances():
    res = measure.verify_formula_a(1, 1.0, [0.0])
    assert res.rhs == pytest.approx(1.0, rel=1e-14)
    assert res.rel_err <= 1e-8

    res = measure.verify_formula_a(2, 3.0, [0.0, 0.0])
    assert res.rhs == pytest.approx(2.0, rel=1e-14)
    assert res.rel_err <= 1e-8

    res = measure.verify_formula_a(1, 0.5, [0.5])
    assert res.rhs == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-14)
    assert res.rel_err <= 1e-8

    # the half-line factor goes like xi^(c - 1) at the origin, with c = 0.043
    # and 0.0021 (quad-sweep formula-a #37 at seed 1 and #28 at seed 2); the
    # nodes that carry its mass lie far below the smallest double
    res = measure.verify_formula_a(1, 0.2292433156667878, [-0.18618444187372152])
    assert res.rel_err <= 1e-11
    res = measure.verify_formula_a(1, 0.8534025076765767, [-0.8512746472232657])
    assert res.rel_err <= 1e-11


def test_formula_a_domain_errors():
    with pytest.raises(ValueError):
        measure.verify_formula_a(1, 1.0, [-1.5])
    with pytest.raises(ValueError):
        measure.verify_formula_a(1, -1.0, [0.5])
    with pytest.raises(ValueError):
        measure.verify_formula_a(2, 1.0, [0.5])


@pytest.mark.parametrize("k, s", [(1.0, [math.inf]), (1.0, [0.5, math.nan]),
                                  (math.inf, [0.5, 0.5]), (1.0, [-math.inf, 0.5])])
def test_formula_a_needs_finite_parameters(k, s):
    expected = (f"need finite k > 0, got {k}" if math.isinf(k)
                else f"need finite s of length {len(s)}, got {s}")
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        measure.verify_formula_a(len(s), k, s)


@pytest.mark.parametrize("mu, nu, a", [(math.inf, 0.0, 1.0), (2.0, math.nan, 1.0),
                                       (2.0, 0.0, math.inf), (math.nan, 0.0, 1.0)])
def test_formula_b_needs_finite_parameters(mu, nu, a):
    expected = {"mu": f"need finite mu, got {mu}", "nu": f"need finite nu, got {nu}",
                "a": f"need finite a > 0, got {a}"}
    name = next(name for name, v in zip(("mu", "nu", "a"), (mu, nu, a)) if not math.isfinite(v))
    with pytest.raises(ValueError, match=f"^{re.escape(expected[name])}$"):
        measure.verify_formula_b(mu, nu, a)


@pytest.mark.parametrize("n,k,s", [(3, 2.0, [-0.9, -0.9, -0.9]), (1, 0.5, [-0.6]),
                                   (2, 0.25, [-0.1, -0.15])])
def test_formula_a_needs_convergent_origin(n, k, s):
    """Near R = 0 the integrand of (A) goes like R^(sum(s) + min(K, N) - 1)."""
    with pytest.raises(ValueError, match=r"sum\(s\) \+ min\(K, N\) > 0"):
        measure.verify_formula_a(n, k, s)


def test_formula_b_listed_instances():
    res = measure.verify_formula_b(2.0, 0.0, 2.0)
    assert res.rhs == pytest.approx(0.25, rel=1e-14)
    assert res.rel_err <= 1e-8

    res = measure.verify_formula_b(1.0, 0.5, 1.0)
    assert res.rhs == pytest.approx(HALF_PI_ROOT2, rel=1e-12)
    assert res.rel_err <= 1e-8

    with pytest.raises(ValueError):
        measure.verify_formula_b(0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        measure.verify_formula_b(2.0, 0.0, -1.0)


@pytest.mark.parametrize("mu,nu,a,x_min", [
    (1.5089046745779426, -1.4038079065171498, 1.7950913283344474, 3.612024814854264e-251),
    (1.8105618174126987, -1.6991555527423823, 1.3799663847105925, 3.2428606457202286e-237),
])
def test_formula_b_where_k_leaves_double_range(mu, nu, a, x_min):
    """Two seeded formula-b draws whose half-line nodes reach a x = x_min,
    where K_nu exceeds the largest double but x^(mu-1) K_nu(a x) does not:
    the integrand adds logs, and the identity holds to rounding."""
    with pytest.raises(OverflowError, match="exceeds double range"):
        specfun.bessel_k(nu, x_min)
    assert measure.verify_formula_b(mu, nu, a).rel_err <= 1e-13


@pytest.mark.parametrize("call", [
    lambda: measure.moment_check(measure.MeasureModel(1, 300.0), (5,)),
    lambda: measure.verify_formula_b(400.0, 0.0, 1.0),
    lambda: measure.verify_formula_a(1, 200.0, [0.0]),
], ids=["moment", "formula-b", "formula-a"])
def test_halfline_integral_past_double_range_is_an_overflow_error(call):
    """A half-line integral whose value leaves double range raises
    OverflowError at its first level, with no overflow warning, where it
    used to run all eight halvings and stall on a NaN change."""
    with pytest.raises(OverflowError, match=r"^trapezoid integral on \[.*\] exceeds double range$"):
        call()


@pytest.mark.parametrize("mu,nu,a", [(0.05, 0.01, 1.0), (0.07, 0.0, 0.5), (0.045, -0.002, 2.0)])
def test_formula_b_small_order_near_the_origin(mu, nu, a):
    """mu - |nu| is near 0.04, so the half-line nodes pass through the
    subnormal a x and below, where K of order |nu| < 0.056 takes the
    two-term small-argument form."""
    assert measure.verify_formula_b(mu, nu, a).rel_err <= 1e-13


@pytest.mark.parametrize("n,k,s", [(1, 1.0, [-0.96]), (2, 2.0, [-0.98, -0.98])])
def test_formula_a_order_zero_near_the_origin(n, k, s):
    """K_0(2 sqrt xi) with c = 0.04: the nodes reach 2 sqrt xi of e^-750."""
    assert measure.verify_formula_a(n, k, s).rel_err <= 1e-13


@pytest.mark.parametrize("k,s", [(1.0, 0.0), (0.5, 0.5), (2.5, 1.25), (0.75, -0.25)])
def test_formula_a_equals_formula_b_one_mode(k, s):
    """N = 1 instances of A map onto B under u = 2 sqrt(r):
    A(K, s) = 2^(1 - 2s - K) * B(mu = 2s + K + 1, nu = K - 1, a = 1)."""
    a_res = measure.verify_formula_a(1, k, [s])
    b_res = measure.verify_formula_b(2.0 * s + k + 1.0, k - 1.0, 1.0)
    scale = 2.0 ** (1.0 - 2.0 * s - k)
    assert a_res.lhs == pytest.approx(scale * b_res.lhs, rel=1e-10)
    assert a_res.rhs == pytest.approx(scale * b_res.rhs, rel=1e-12)


@pytest.mark.parametrize("formula,args", [
    ("a", (1, 0.8534025076765767, [-0.8512746472232657])),  # c_eff = 0.0021
    ("a", (1, 0.2292433156667878, [-0.18618444187372152])),  # c_eff = 0.043
    ("a", (3, 2.5, [0.3, -0.4, 1.2])),
    ("a", (2, 0.3, [-0.5, 0.25])),
    ("b", (1.5089046745779426, -1.4038079065171498, 1.7950913283344474)),
    ("b", (0.05, 0.01, 1.0)),
    ("b", (3.7, 1.9, 0.4)),
    ("b", (7.5, -5.9, 2.7)),
])
def test_halfline_formulas_converge_at_the_first_check(monkeypatch, formula, args):
    """The half-line rule starts at 64 intervals and stops after two
    halvings that agree: 65 + 64 + 128 = 257 nodes of log_f per integral,
    with (A) and (B) still equal to mpmath's closed forms to 1e-13."""
    sizes = []

    def counting(log_f, *rule_args, **rule_kwargs):
        def log_f_counted(log_x):
            sizes.append(log_x.size)
            return log_f(log_x)
        return quadrature.de_halfline(log_f_counted, *rule_args, **rule_kwargs)

    monkeypatch.setattr(measure, "de_halfline", counting)
    measure._halfline_bessel_factor.cache_clear()
    if formula == "a":
        n, k, s = args
        lhs = measure.verify_formula_a(n, k, s).lhs
        exact = mpmath.fprod(mpmath.gamma(v + 1) for v in s) * mpmath.gamma(k + mpmath.fsum(s))
    else:
        mu, nu, a = args
        lhs = measure.verify_formula_b(mu, nu, a).lhs
        exact = (mpmath.mpf(2) ** (mu - 2) * mpmath.mpf(a) ** -mu
                 * mpmath.gamma((mu + nu) / 2) * mpmath.gamma((mu - nu) / 2))
    assert sum(sizes) == 257
    assert lhs == pytest.approx(float(exact), rel=1e-13)


def test_integer_and_radial_arguments_are_named():
    """moment_check used to truncate [1.5, 1] to (1, 1), and density's
    inf was refused as specfun's x; MeasureModel keeps the coerced K."""
    model = measure.MeasureModel(2, "1.5")
    assert model.k == 1.5 and isinstance(model.k, float)
    with pytest.raises(ValueError,
                       match=r"^need non-negative integer n_vec of length 2, got \[1\.5, 1\.0\]$"):
        measure.moment_check(model, [1.5, 1])
    with pytest.raises(ValueError, match=r"^need finite r of length 2, got \[inf, 1\.0\]$"):
        measure.density(model, [math.inf, 1])
    with pytest.raises(ValueError, match=r"^need r >= 0, got \[-0\.5, 1\.0\]$"):
        measure.density(model, [-0.5, 1])


def test_moment_check_values():
    model = measure.MeasureModel(2, 1.5)
    res = measure.moment_check(model, (2, 1))
    # unnormalized identity: Gamma(3) Gamma(2) Gamma(4.5); dividing by
    # Gamma(1.5) gives the sampler expectation 26.25 (tests/oracles.py)
    assert res.rhs == pytest.approx(2.0 * math.gamma(4.5), rel=1e-13)
    assert res.rhs / math.gamma(1.5) == pytest.approx(26.25, rel=1e-13)
    assert res.rel_err <= 1e-8

    res0 = measure.moment_check(measure.MeasureModel(1, 0.5), (0,))
    assert res0.rhs == pytest.approx(math.gamma(0.5), rel=1e-13)
    assert res0.rel_err <= 1e-10

    with pytest.raises(ValueError):
        measure.moment_check(model, (1,))
    with pytest.raises(ValueError):
        measure.moment_check(model, (-1, 0))


def test_check_result_serialization():
    res = measure.verify_formula_b(2.0, 0.0, 2.0)
    record = res.as_dict()
    assert record["check"] == "formula_b"
    assert set(record) == {"check", "params", "lhs", "rhs", "rel_err"}
    assert record["rel_err"] == res.rel_err


# --- exact sampler ---------------------------------------------------------


def test_sample_deterministic():
    model = measure.MeasureModel(2, 1.5)
    r1, t1 = measure.sample(model, 1000, seed=3, workers=2)
    r2, t2 = measure.sample(model, 1000, seed=3, workers=2)
    assert np.array_equal(r1, r2) and np.array_equal(t1, t2)
    r3, _ = measure.sample(model, 1000, seed=4, workers=2)
    assert not np.array_equal(r1, r3)
    assert r1.shape == (1000, 2)


def test_sampler_first_moments():
    model = measure.MeasureModel(1, 2.0)
    r, theta = measure.sample(model, 200_000, seed=11)
    # E[r] = K, E[r^2] = K(K+1) Gamma ratio = 2 K (K+1)
    assert np.mean(r) == pytest.approx(2.0, abs=0.1)
    assert np.mean(r * r) == pytest.approx(12.0, abs=1.5)
    assert np.mean(np.exp(1j * theta)) == pytest.approx(0.0, abs=0.01)


def test_sampler_report_structure():
    model = measure.MeasureModel(2, 0.75)
    report = measure.sampler_report(model, 50_000, seed=5, workers=2)
    quantities = [row["quantity"] for row in report["rows"]]
    assert "r[0]" in quantities and "r[0]r[1]" in quantities
    assert sum(q.startswith("cdf(") for q in quantities) == len(measure.CDF_PROBE_SCALES)
    assert report["max_z"] == max(abs(row["z_score"]) for row in report["rows"])
    for row in report["rows"]:
        assert row["sem"] > 0.0


MODE_ROWS = ["r[{a}]", "r[{a}]^2", "exp(i1theta[{a}])", "exp(i2theta[{a}])"]
PAIR_ROWS = {1: [], 2: ["r[0]r[1]"], 3: ["r[0]r[1]", "r[0]r[2]", "r[1]r[2]"]}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sampler_report_rows_in_order(n):
    """Four rows per mode, mode by mode, then one row per pair a < b, then
    the ten CDF rows at N K times each probe scale; every row has the same
    six keys, and its expectation from the closed forms."""
    k = 1.5
    report = measure.sampler_report(measure.MeasureModel(n, k), 1000, seed=1)
    per_mode = [name.format(a=a) for a in range(n) for name in MODE_ROWS]
    cdf = [f"cdf(R<={scale * n * k:.6g})" for scale in measure.CDF_PROBE_SCALES]
    rows = report["rows"]
    assert [row["quantity"] for row in rows] == per_mode + PAIR_ROWS[n] + cdf
    assert len(rows) == 4 * n + n * (n - 1) // 2 + 10
    for row in rows:
        assert sorted(row) == ["estimate_im", "estimate_re", "expected", "quantity", "sem",
                               "z_score"]
    expected = [k, 2.0 * k * (k + 1.0), 0.0, 0.0] * n + [k * (k + 1.0)] * len(PAIR_ROWS[n])
    assert [row["expected"] for row in rows[:len(expected)]] == expected
    for row, scale in zip(rows[len(expected):], measure.CDF_PROBE_SCALES):
        assert row["expected"] == measure.radial_cdf(measure.MeasureModel(n, k), scale * n * k)
        assert row["estimate_im"] == 0.0


@pytest.mark.parametrize("count, seed, workers, name", [
    (0, 1, 1, "sample count"), (10, -1, 1, "seed"), (10, 1, 0, "workers"), (2.5, 1, 1, "sample count"),
])
def test_sampler_report_refuses_before_any_quadrature(monkeypatch, count, seed, workers, name):
    """A bad count, seed or workers is refused before the ten radial_cdf
    integrals, which at (N, K) = (3, 2.5) cost tens of milliseconds."""
    calls = []
    monkeypatch.setattr(measure, "radial_cdf", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=f"need integer {name} >= "):
        measure.sampler_report(measure.MeasureModel(3, 2.5), count, seed, workers)
    assert calls == []


def test_sampler_report_without_a_finite_error_fails_its_rows():
    """One sample gives the moment rows an infinite standard error.  Their
    z-score is inf, not 0, so max_z is inf and no zmax gate can pass."""
    report = measure.sampler_report(measure.MeasureModel(1, 1.0), 1, seed=3)
    infinite = [row for row in report["rows"] if row["sem"] == math.inf]
    assert len(infinite) == 4
    assert all(row["z_score"] == math.inf for row in infinite)
    assert report["max_z"] == math.inf


def test_sampler_report_within_bands():
    model = measure.MeasureModel(1, 1.0)
    report = measure.sampler_report(model, 100_000, seed=0)
    assert report["max_z"] <= 4.5


def _full_array_rows(model, count, seed, workers):
    """(quantity, per-sample statistic) in report order, from the labels of
    measure.sample, with exp(i m theta) taken directly."""
    r, theta = measure.sample(model, count, seed, workers)
    rows = []
    for a in range(model.n):
        rows += [(f"r[{a}]", r[:, a]), (f"r[{a}]^2", r[:, a] ** 2)]
        rows += [(f"exp(i{m}theta[{a}])", np.exp(1j * m * theta[:, a]))
                 for m in measure.FOURIER_MODES]
    rows += [(f"r[{a}]r[{b}]", r[:, a] * r[:, b])
             for a, b in itertools.combinations(range(model.n), 2)]
    big_r = np.sum(r, axis=1)
    rows += [(f"cdf(R<={q:.6g})", (big_r <= q).astype(float))
             for q in (scale * model.n * model.k for scale in measure.CDF_PROBE_SCALES)]
    return rows


BLOCK = measure._BLOCK_ROWS


@pytest.mark.parametrize("count", [777, BLOCK, 2 * BLOCK, 3 * BLOCK + 2])
@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("k", [0.3, 2.5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sampler_report_rows_are_means_over_the_sampled_labels(n, k, workers, count):
    """The streamed report reads the labels of measure.sample: each row is
    the plain mean over those labels, to rounding, and each CDF count is
    exact.  The counts fall below, at and above one block per worker
    (3 * BLOCK + 2 over three workers gives shares of BLOCK + 1 and BLOCK);
    K = 0.3 takes numpy's K < 1 Gamma branch."""
    model = measure.MeasureModel(n, k)
    report = measure.sampler_report(model, count, seed=7, workers=workers)
    reference = _full_array_rows(model, count, 7, workers)
    assert [row["quantity"] for row in report["rows"]] == [name for name, _ in reference]
    for row, (name, values) in zip(report["rows"], reference):
        estimate = complex(row["estimate_re"], row["estimate_im"])
        if name.startswith("cdf("):
            assert estimate == np.count_nonzero(values) / count
            continue
        scale = float(np.mean(np.abs(values)))
        assert abs(estimate - np.mean(values)) <= 1e-12 * scale, name
        spread = np.mean(np.abs(values) ** 2) - abs(np.mean(values)) ** 2
        assert row["sem"] == pytest.approx(math.sqrt(spread / (count - 1)), rel=1e-9), name


def test_sampler_report_holds_one_block():
    """Past the mixing variables (8 bytes per sample), the report holds one
    block of labels and its statistics, not a full-length array per row."""
    tracemalloc.start()
    try:
        measure.sampler_report(measure.MeasureModel(3, 2.5), 300_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 300_000


# --- resolution of unity ---------------------------------------------------


@pytest.mark.parametrize("n,k,cutoff", [(1, 0.5, 6), (2, 0.75, 4)])
def test_resolution_quadrature(n, k, cutoff):
    model = measure.MeasureModel(n, k)
    res = measure.resolution_check(model, cutoff, mode="quadrature")
    assert res.max_dev <= 1e-8
    assert res.as_dict()["check"] == "resolution_of_unity"


def test_resolution_montecarlo():
    model = measure.MeasureModel(1, 2.0)
    res = measure.resolution_check(model, 4, mode="montecarlo", budget=100_000, seed=42)
    assert res.max_z <= 4.0
    assert res.as_dict()["z_score"] == res.max_z


def test_resolution_montecarlo_bounds_monomial_blocks(monkeypatch):
    """The Gram matrix is built from monomial blocks of at most
    measure._BLOCK_ROWS entries, whatever the dimension (84 here) and the
    sample budget."""
    sizes = []
    build = measure._basis_monomials

    def spy(space, coeffs, z):
        m = build(space, coeffs, z)
        sizes.append(m.size)
        return m

    monkeypatch.setattr(measure, "_basis_monomials", spy)
    measure.resolution_check(measure.MeasureModel(3, 2.5), 6, mode="montecarlo", budget=5000)
    assert sum(sizes) == 84 * 5000
    assert max(sizes) <= measure._BLOCK_ROWS


def test_resolution_montecarlo_holds_one_chunk_of_radii():
    """A chunk holds its mixing variables and radii whole, and theta, z and
    the monomials one block at a time: three monomial-block buffers (the
    gathered powers, M and its conjugate) past the radii.  The basis and its
    coefficients are cached before the count starts."""
    model, cutoff = measure.MeasureModel(3, 2.5), 6
    block = 16 * measure._BLOCK_ROWS
    measure.resolution_check(model, cutoff, mode="montecarlo", budget=10)  # fills the caches
    tracemalloc.start()
    try:
        measure.resolution_check(model, cutoff, mode="montecarlo", budget=mc.CHUNK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * mc.CHUNK * (model.n + 1) + 3 * block


@pytest.mark.parametrize("width", [1, 2, 195, 1092])
@pytest.mark.parametrize("n, k, cutoff", [(1, 0.75, 8), (2, 1.5, 4), (3, 2.5, 6)])
def test_basis_monomials_is_the_row_loop(n, k, cutoff, width):
    """One gather per axis from the table of powers keeps the bits of the
    row-by-row product, which skips the axes a row does not occupy.  At one
    sample the row loop multiplies one-element arrays in place, which numpy
    rounds as Python's complex product does, not as its vector loop: there
    the two agree to rounding only."""
    space = fock.rep_space(n, k, cutoff)
    coeffs = coherent.coefficients(space)
    r, theta = measure.sample(measure.MeasureModel(n, k), width, seed=3)
    z = np.sqrt(r) * np.exp(1j * theta)
    m = measure._basis_monomials(space, coeffs, z)
    reference = oracles.basis_monomials_reference(space, coeffs, z)
    assert m.shape == (space.dim, width)
    if width > 1:
        assert np.array_equal(m, reference)
    else:
        np.testing.assert_allclose(m, reference, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n, k, cutoff, budget, max_dev, max_z", [
    (3, 2.5, 6, 30_000, 1.8103251376563054, 2.8554970697753235),
    (2, 1.5, 4, 410_001, 0.15008287850053637, 2.3341648726474604),
])
def test_resolution_montecarlo_keeps_its_bits(n, k, cutoff, budget, max_dev, max_z):
    """The streamed Gram matrix is the one summed over the same blocks from
    each piece's labels drawn whole, with the row-loop monomials, bit for
    bit.  The first case spans 77 monomial blocks per worker, the second
    two chunks per worker.  max_dev and max_z stay within 1e-13 of the
    values captured when a monomial block held up to mc.CHUNK entries."""
    model = measure.MeasureModel(n, k)
    res = measure.resolution_check(model, cutoff, mode="montecarlo",
                                   budget=budget, seed=9, workers=2)
    gram = oracles.resolution_gram_reference(model, cutoff, budget, 9, 2)
    assert res.max_dev == float(np.max(np.abs(gram - np.eye(len(gram)))))
    assert (res.max_dev, res.max_z) == pytest.approx((max_dev, max_z), rel=1e-13)


def test_resolution_montecarlo_scores_no_constant_entry():
    """Every sample adds exactly 1 to the constant monomial's (0, 0) Gram
    entry, so that entry has no variance.  Dividing by 250001 rounds it to
    1 - 1.1e-16, which against the 1e-300 variance floor would read as a
    z-score of 5.6e136; max_z skips it."""
    res = measure.resolution_check(measure.MeasureModel(1, 0.75), 5, mode="montecarlo",
                                   budget=250_001, seed=9)
    assert res.max_z < 4.0


def test_resolution_unknown_mode():
    with pytest.raises(ValueError):
        measure.resolution_check(measure.MeasureModel(1, 1.0), 3, mode="exactly")
