"""Special-function layer: frozen high-precision values, closed-form
half-integer reductions, and cross-identities."""

import math

import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

import bgcs
from bgcs import quadrature, specfun

# frozen via tests/oracles.py (mpmath ascending series / cosh-integral, 50 digits)
I_1_AT_2 = 1.5906368546373290634
I_0_AT_2 = 2.2795853023360672674
I_HALF_AT_1 = 0.93767488824548764672
K_0_AT_1 = 0.42102443824070833334
K_HALF_AT_1 = 0.46106850444789455844
K_32_9_AT_0_57 = 7.9894505735603156371e52


def test_gamma_spot_values():
    assert specfun.gamma(1.0) == 1.0
    assert specfun.gamma(5) == 24.0
    assert specfun.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    # frozen via mpmath.gamma(5.5)
    assert specfun.gamma(5.5) == pytest.approx(52.342777784553520181, rel=1e-14)


@given(st.floats(min_value=0.05, max_value=30.0))
def test_gamma_recurrence(p):
    assert specfun.gamma(p + 1.0) == pytest.approx(p * specfun.gamma(p), rel=1e-12)


@given(st.floats(min_value=0.05, max_value=60.0))
def test_log_gamma_consistent_with_gamma(p):
    assert specfun.log_gamma(p) == pytest.approx(math.log(specfun.gamma(p)), abs=1e-12)


def test_gamma_domain():
    with pytest.raises(ValueError):
        specfun.gamma(0.0)
    with pytest.raises(ValueError):
        specfun.gamma(-2.5)
    with pytest.raises(ValueError):
        specfun.log_gamma(-1.0)
    with pytest.raises(OverflowError):
        specfun.gamma(200.0)


def test_beta_values():
    assert specfun.beta(2, 3) == pytest.approx(1.0 / 12.0, rel=1e-14)
    assert specfun.beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)
    # large arguments stay representable through the log-space route
    assert specfun.beta(400.0, 2.0) == pytest.approx(1.0 / (400.0 * 401.0), rel=1e-12)


@given(st.floats(min_value=0.1, max_value=20.0), st.floats(min_value=0.1, max_value=20.0))
def test_beta_symmetry(p, q):
    assert specfun.beta(p, q) == pytest.approx(specfun.beta(q, p), rel=1e-13)


def test_pochhammer_values():
    assert specfun.pochhammer(3.0, 0) == 1.0
    assert specfun.pochhammer(1.0, 5) == 120.0
    assert specfun.pochhammer(0.5, 3) == 0.5 * 1.5 * 2.5
    # stays defined where the Gamma-ratio form is singular
    assert specfun.pochhammer(-2.0, 4) == 0.0
    assert specfun.pochhammer(-2.5, 2) == (-2.5) * (-1.5)
    with pytest.raises(ValueError):
        specfun.pochhammer(1.0, -1)
    with pytest.raises(ValueError):
        specfun.pochhammer(1.0, 2.5)


@given(st.floats(min_value=0.1, max_value=10.0), st.integers(min_value=0, max_value=12))
def test_pochhammer_matches_gamma_ratio(a, n):
    expected = specfun.gamma(a + n) / specfun.gamma(a)
    assert specfun.pochhammer(a, n) == pytest.approx(expected, rel=1e-12)


def test_bessel_i_frozen_values():
    assert specfun.bessel_i(1.0, 2.0) == pytest.approx(I_1_AT_2, rel=1e-14)
    assert specfun.bessel_i(0.0, 2.0) == pytest.approx(I_0_AT_2, rel=1e-14)
    assert specfun.bessel_i(0.5, 1.0) == pytest.approx(I_HALF_AT_1, rel=1e-14)


def test_bessel_i_at_origin():
    assert specfun.bessel_i(0.0, 0.0) == 1.0
    assert specfun.bessel_i(1.5, 0.0) == 0.0


@given(st.floats(min_value=0.01, max_value=30.0))
def test_bessel_i_half_closed_form(x):
    expected = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
    assert specfun.bessel_i(0.5, x) == pytest.approx(expected, rel=1e-13)


def test_bessel_k_frozen_values():
    assert specfun.bessel_k(0.0, 1.0) == pytest.approx(K_0_AT_1, rel=1e-13)
    assert specfun.bessel_k(0.5, 1.0) == pytest.approx(K_HALF_AT_1, rel=1e-13)


@given(st.floats(min_value=0.05, max_value=30.0))
def test_bessel_k_half_closed_form(x):
    expected = math.sqrt(0.5 * math.pi / x) * math.exp(-x)
    assert specfun.bessel_k(0.5, x) == pytest.approx(expected, rel=1e-12)


@given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=0.1, max_value=25.0))
def test_bessel_k_order_symmetry(nu, x):
    assert specfun.bessel_k(nu, x) == pytest.approx(specfun.bessel_k(-nu, x), rel=1e-12)


@given(st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=0.2, max_value=20.0))
def test_bessel_wronskian(nu, x):
    """I_nu(x) K_{nu+1}(x) + I_{nu+1}(x) K_nu(x) = 1/x."""
    lhs = (specfun.bessel_i(nu, x) * specfun.bessel_k(nu + 1.0, x)
           + specfun.bessel_i(nu + 1.0, x) * specfun.bessel_k(nu, x))
    assert lhs == pytest.approx(1.0 / x, rel=1e-12)


@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 2.7, 7.0])
@pytest.mark.parametrize("x", [0.1, 1.0, 4.0, 17.5])
def test_bessel_against_scipy(nu, x):
    assert specfun.bessel_i(nu, x) == pytest.approx(scipy.special.iv(nu, x), rel=1e-12)
    assert specfun.bessel_k(nu, x) == pytest.approx(scipy.special.kv(nu, x), rel=1e-12)


def test_bessel_k_accepts_stalled_last_level(monkeypatch):
    """At large order and small argument the refinement stalls near 1e-12
    relative: bessel_k accepts that last level, the bare refiner raises."""
    assert specfun.bessel_k(32.9, 0.57) == pytest.approx(K_32_9_AT_0_57, rel=1e-12)
    refine = quadrature._refine_trapezoid
    monkeypatch.setattr(specfun, "_refine_trapezoid",
                        lambda g, lo, hi, tol, n0, stall_tol: refine(g, lo, hi, tol, n0=n0))
    with pytest.raises(specfun.ConvergenceError,
                       match=r"^bessel_k\(32\.9, 0\.57\) quadrature did not converge$"):
        specfun.bessel_k(32.9, 0.57)


def test_bessel_k_convergence_error_text():
    assert bgcs.ConvergenceError is specfun.ConvergenceError is quadrature.ConvergenceError
    with pytest.raises(specfun.ConvergenceError) as info:
        specfun.bessel_k(-1.4038079065171498, 3.612024814854264e-251)
    assert str(info.value) == (
        "bessel_k(-1.4038079065171498, 3.612024814854264e-251) quadrature did not converge")


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        specfun.bessel_i(-1.0, 2.0)
    with pytest.raises(ValueError):
        specfun.bessel_i(0.0, -1.0)
    with pytest.raises(ValueError):
        specfun.bessel_k(0.0, 0.0)
    with pytest.raises(OverflowError):
        specfun.bessel_i(0.0, 2000.0)
