"""Radial measure layer: density and CDF against independent quadrature,
both integral formulas, the exact sampler, and the resolution of unity."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from bgcs import mc, measure, specfun

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


def test_total_radius_density_vs_sigma_one_mode():
    """For N = 1 the R density is pi times the radial density."""
    model = measure.MeasureModel(1, 0.8)
    grid = np.array([0.05, 0.3, 1.0, 4.0])
    lhs = measure.total_radius_density(model, grid)
    rhs = np.array([math.pi * measure.density(model, [g]) for g in grid])
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("n,k", [(1, 1.0), (2, 0.75), (2, 3.0), (3, 1.5)])
def test_total_radius_density_normalized(n, k):
    model = measure.MeasureModel(n, k)
    val, err = scipy.integrate.quad(
        lambda x: float(measure.total_radius_density(model, x)[0]), 0.0, np.inf, limit=200)
    assert val == pytest.approx(1.0, abs=max(1e-9, 4.0 * err))


@pytest.mark.parametrize("n,k,q", [(1, 1.0, 0.7), (2, 0.75, 1.3), (2, 2.5, 6.0)])
def test_radial_cdf_vs_scipy(n, k, q):
    model = measure.MeasureModel(n, k)
    expected, err = scipy.integrate.quad(
        lambda x: float(measure.total_radius_density(model, x)[0]), 0.0, q,
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
    with pytest.raises(ValueError, match="K and the exponents must be finite"):
        measure.verify_formula_a(len(s), k, s)


@pytest.mark.parametrize("mu, nu, a", [(math.inf, 0.0, 1.0), (2.0, math.nan, 1.0),
                                       (2.0, 0.0, math.inf), (math.nan, 0.0, 1.0)])
def test_formula_b_needs_finite_parameters(mu, nu, a):
    with pytest.raises(ValueError, match="mu, nu and a must be finite"):
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


def test_sampler_report_within_bands():
    model = measure.MeasureModel(1, 1.0)
    report = measure.sampler_report(model, 100_000, seed=0)
    assert report["max_z"] <= 4.5


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
    """The Gram matrix is built from monomial blocks of at most mc.CHUNK
    entries, whatever the dimension (84 here) and the sample budget."""
    sizes = []
    build = measure._basis_monomials

    def spy(space, z):
        m = build(space, z)
        sizes.append(m.size)
        return m

    monkeypatch.setattr(measure, "_basis_monomials", spy)
    measure.resolution_check(measure.MeasureModel(3, 2.5), 6, mode="montecarlo", budget=5000)
    assert sum(sizes) == 84 * 5000
    assert max(sizes) <= mc.CHUNK


def test_resolution_unknown_mode():
    with pytest.raises(ValueError):
        measure.resolution_check(measure.MeasureModel(1, 1.0), 3, mode="exactly")
