"""Quadrature layer: the bounded power integral near its domain edge, the
tanh-sinh and half-line rules in log space, and the refiner's nodes."""

import math
from fractions import Fraction

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


def test_tanh_sinh_hands_exact_logs_where_x_underflows():
    """A weak singularity widens the window until x underflows to 0 and
    1 - x rounds to 0; the rule still hands log_f finite logs there, and
    the integral of 0.07 x^-0.93 over (0, 1) comes out as 1."""
    seen = []

    def log_f(log_x, log_1mx):
        seen.append((log_x, log_1mx))
        return math.log(0.07) - 0.93 * log_x

    value, _ = quadrature._tanh_sinh(log_f, 0.07, 1e-11)
    log_x, log_1mx = (np.concatenate(part) for part in zip(*seen))
    assert np.all(np.isfinite(log_x)) and np.all(np.isfinite(log_1mx))
    assert np.exp(log_x).min() == 0.0 and np.exp(log_1mx).min() == 0.0
    assert value == pytest.approx(1.0, rel=1e-12)


def test_refiner_names_the_window_that_stalls():
    with pytest.raises(quadrature.ConvergenceError,
                       match=r"^trapezoid refinement stalled on \[-1\.0, 2\.0\] "):
        quadrature._refine_trapezoid(lambda t: np.abs(np.sin(40.0 * t)), -1.0, 2.0, 1e-14, n0=4)


@pytest.mark.parametrize("g", [
    lambda t: np.exp(800.0 * t),  # the nodes themselves overflow
    lambda t: np.full(t.shape, 1e308),  # finite nodes, an infinite sum
], ids=["node", "sum"])
def test_refiner_raises_overflow_error_out_of_double_range(g):
    with pytest.raises(OverflowError,
                       match=r"^trapezoid integral on \[-1\.0, 2\.0\] exceeds double range$"):
        quadrature._refine_trapezoid(g, -1.0, 2.0, 1e-12, n0=4)


def test_refiner_stalls_on_a_nan():
    with pytest.raises(quadrature.ConvergenceError, match=r"\(last change nan\)$"):
        quadrature._refine_trapezoid(lambda t: np.full(t.shape, np.nan), -1.0, 2.0, 1e-12, n0=4)


def test_refiner_places_each_mid_node_once():
    """Level l adds the nodes lo + (i + 1/2) h / 2^l, each within one
    rounding of its exact place.  Accumulating the spacing as np.arange
    does drifts by up to 6.4e-9 of the step at level 8 on this window
    (de_halfline's for x^0.3 e^-x)."""
    lo, hi, n0 = -3.83, 5.09, 128
    calls = []

    def g(t):
        calls.append(t)
        return np.full(t.shape, float(len(calls)))  # never settles

    with pytest.raises(quadrature.ConvergenceError):
        quadrature._refine_trapezoid(g, lo, hi, 1e-12, n0=n0)
    h = Fraction((hi - lo) / n0)
    assert [t.size for t in calls] == [n0 + 1] + [n0 << level for level in range(8)]
    for level, mid in enumerate(calls[1:]):
        step = h / 2**level
        for i in range(0, mid.size, 37):
            exact = Fraction(lo) + (i + Fraction(1, 2)) * step
            assert abs(Fraction(float(mid[i])) - exact) <= 2e-15, (level, i)


# frozen from this code: x^0.3 e^-x gives Gamma(1.3) = 0.89747069630627..., the
# sqrt-decay integral 1, the tanh-sinh integrals 2 and e^2 - e^-1 =
# 7.02117665775920..., and the power integrals mpmath's beta(1.3, 2.7),
# beta(0.03, 0.07) and beta(0.5, 3.25)
def test_one_lane_rules_keep_their_bits():
    assert quadrature.de_halfline(lambda lx: 0.3 * lx - np.exp(lx), 1.3, ("lin", 1.0)) == (
        0.8974706963062772, 0.0)
    assert quadrature.de_halfline(lambda lx: -0.5 * lx - 2.0 * np.exp(0.5 * lx), 0.5,
                                  ("sqrt", 2.0), growth=-0.5) == (1.0, 0.0)
    assert quadrature._tanh_sinh(lambda lx, l1: -0.5 * lx, 0.5, 1e-12) == (2.0, 0.0)
    assert quadrature._tanh_sinh(lambda lx, l1: math.log(3.0) - 1.0 + 3.0 * np.exp(lx), 1.0,
                                 1e-12) == (7.0211766577592085, 8.881784197001252e-16)
    assert quadrature.power_integral_01(0.3, 1.7) == 0.23105171360833057
    assert quadrature.power_integral_01(-0.97, -0.93) == 47.4659281860899
    assert quadrature.power_integral_01(-0.5, 2.25) == 1.021580865308618


@pytest.mark.parametrize("c", [0.0021, 0.0185])
def test_de_halfline_integrates_below_the_old_node_floor(c):
    """x^(c-1) e^-x has all but e^-60 of its mass above x = e^(-60/c), far
    below the smallest double; the rule adds logs, so Gamma(c) comes out
    to rounding.  (The nodes used to stop at log x = -690, which refused
    c <= 0.0367 at tol 1e-11.)"""
    value, _ = quadrature.de_halfline(lambda lx: (c - 1.0) * lx - np.exp(lx), c, ("lin", 1.0),
                                      tol=1e-11)
    assert value == pytest.approx(float(mpmath.gamma(c)), rel=1e-13)


def test_rule_argument_checks():
    with pytest.raises(ValueError, match="exponents must exceed -1"):
        quadrature.power_integral_01(-1.0, 0.5)
    with pytest.raises(ValueError, match="exponents must exceed -1"):
        quadrature.power_integral_01(0.5, -1.5)
    with pytest.raises(ValueError, match=r"^c_eff must be positive, got 0\.0$"):
        quadrature.de_halfline(np.exp, 0.0, ("lin", 1.0))
    c = 0.999 * math.log(1e12) / 690.0  # below the bound the old node floor set at tol 1e-12
    value, _ = quadrature.de_halfline(lambda lx: (c - 1.0) * lx - np.exp(lx), c, ("lin", 1.0))
    assert value == pytest.approx(math.gamma(c), rel=1e-11)
    with pytest.raises(ValueError, match="decay rate must be positive"):
        quadrature.de_halfline(np.exp, 1.0, ("lin", 0.0))
    with pytest.raises(ValueError, match="unknown decay kind 'cubic'"):
        quadrature.de_halfline(np.exp, 1.0, ("cubic", 1.0))
