"""Quadrature layer: the bounded power integral near its domain edge."""

import mpmath
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
