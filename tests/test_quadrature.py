"""Quadrature layer: the bounded power integral near its domain edge and the
tanh-sinh nodes of the interval rule."""

import math

import mpmath
import numpy as np
import pytest

from bgcs import quadrature

EDGE_EXPONENTS = (-0.999, -0.97, -0.93)


@pytest.mark.parametrize("p", EDGE_EXPONENTS)
@pytest.mark.parametrize("q", EDGE_EXPONENTS)
def test_power_integral_near_minus_one(p, q):
    """int_0^1 x^p (1-x)^q dx = B(p+1, q+1), with p and q close to -1,
    where the tanh-sinh nodes sit at x = 0 and 1 in double precision."""
    expected = float(mpmath.beta(p + 1.0, q + 1.0))
    assert quadrature.power_integral_01(p, q) == pytest.approx(expected, rel=1e-12)


def test_tanh_sinh_never_evaluates_at_an_endpoint():
    """A weak singularity widens the window until 1 - x and x - a round to
    zero in double precision; those nodes are skipped, not evaluated."""
    seen = []

    def f(x):
        seen.append(x)
        return 0.07 * x**-0.93

    value, _ = quadrature.tanh_sinh(f, 0.0, 0.21, tol=1e-11, singular_strength=0.07)
    x = np.concatenate(seen)
    assert 0.0 < x.min() and x.max() < 0.21
    assert value == pytest.approx(0.21**0.07, rel=1e-12)


def test_refiner_names_the_window_that_stalls():
    with pytest.raises(quadrature.ConvergenceError,
                       match=r"^trapezoid refinement stalled on \[-1\.0, 2\.0\] "):
        quadrature._refine_trapezoid(lambda t: np.abs(np.sin(40.0 * t)), -1.0, 2.0, 1e-14, n0=4)


# frozen from the one-window refiner these rules ran on; lanes must not move them
def test_one_lane_rules_keep_their_bits():
    assert quadrature.de_halfline(lambda x: x**0.3 * np.exp(-x), 1.3, ("lin", 1.0)) == (
        0.8974706963062766, 1.1102230246251565e-16)
    assert quadrature.de_halfline(lambda x: x**-0.5 * np.exp(-2.0 * np.sqrt(x)), 0.5,
                                  ("sqrt", 2.0), growth=-0.5) == (
        0.9999999999999993, 2.220446049250313e-16)
    assert quadrature.tanh_sinh(lambda x: x**-0.5, 0.0, 1.0, singular_strength=0.5) == (
        2.0000000000000004, 4.440892098500626e-16)
    assert quadrature.tanh_sinh(np.exp, -1.0, 2.0) == (7.021176657759205, 8.881784197001252e-16)
    assert quadrature.power_integral_01(0.3, 1.7) == 0.23105171360833043
    assert quadrature.power_integral_01(-0.97, -0.93) == 47.46592818608996
    assert quadrature.power_integral_01(-0.5, 2.25) == 1.0215808653086185


def test_rule_argument_checks():
    with pytest.raises(ValueError, match="need b > a"):
        quadrature.tanh_sinh(np.exp, 1.0, 1.0)
    with pytest.raises(ValueError, match="singular_strength > 0"):
        quadrature.tanh_sinh(np.exp, 0.0, 1.0, singular_strength=0.0)
    with pytest.raises(ValueError, match="exponents must exceed -1"):
        quadrature.power_integral_01(-1.0, 0.5)
    with pytest.raises(ValueError, match="exponents must exceed -1"):
        quadrature.power_integral_01(0.5, -1.5)
    c_min = math.log(1e12) / 690.0  # the nodes stop at x = e^-690, tol 1e-12
    with pytest.raises(ValueError, match=r"^c_eff must exceed log\(1/tol\)/690 = 0\.040045, "):
        quadrature.de_halfline(np.exp, 0.999 * c_min, ("lin", 1.0))
    c = 1.001 * c_min
    value, _ = quadrature.de_halfline(lambda x: np.exp((c - 1.0) * np.log(x) - x), c,
                                      ("lin", 1.0))
    assert value == pytest.approx(math.gamma(c), rel=1e-11)
    with pytest.raises(ValueError, match="decay rate must be positive"):
        quadrature.de_halfline(np.exp, 1.0, ("lin", 0.0))
    with pytest.raises(ValueError, match="unknown decay kind 'cubic'"):
        quadrature.de_halfline(np.exp, 1.0, ("cubic", 1.0))
