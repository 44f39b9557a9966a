"""Quadrature layer: the bounded power integral near its domain edge and the
tanh-sinh nodes of the interval rule."""

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
