"""Quadrature building blocks: the trapezoid refiner, Gauss-Legendre tables,
tanh-sinh rules, and a double-exponential transform for half-line integrals.

The bottom layer: it imports nothing from bgcs and defines ConvergenceError.

All routines expect vectorized integrands (numpy array in, array out) and
refine a trapezoid grid on one window by halving until two consecutive
passes agree to the requested tolerance, reusing previously computed
nodes.  specfun's Bessel K does not refine: its integrand's strip of
analyticity fixes the step in advance (see specfun._bessel_k_log_quad).

One tanh-sinh map, _tanh_sinh, serves both interval rules.  It hands its
integrand log x and log(1 - x) rather than x, so the far nodes neither
overflow nor round onto an endpoint: power_integral_01 stays in log space,
and tanh_sinh skips the nodes whose x rounds onto a or b.

The half-line transform is x = exp(t - e^{-t}).  Toward t -> -infinity the
node x approaches zero doubly exponentially, so an integrand behaving like
x^(c-1) near the origin contributes exp(-c e^{-t}); toward t -> +infinity
x grows like e^t, so exponential or stretched-exponential decay of the
integrand again gives a doubly exponential tail.  The trapezoid rule is
then accurate to machine precision on a modest uniform t grid.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

_REFINE_LEVELS = 8
_LOG_FLOOR = -690.0  # keep exp() comfortably inside double range


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to reach its tolerance within budget."""


@lru_cache(maxsize=8)
def gauss_legendre_01(n=64):
    """Gauss-Legendre nodes and weights mapped from (-1, 1) to (0, 1)."""
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _refine_trapezoid(g, lo, hi, tol, n0=128):
    """Trapezoid value of a vectorized g on [lo, hi], refined by halving.

    Endpoint values are assumed negligible (the callers build windows on
    which the integrand has already dropped by ~e^-45 from its peak).
    Converges once two consecutive changes are within tol * |value|.
    Returns (value, last change, evaluations); raises ConvergenceError
    after _REFINE_LEVELS halvings.
    """
    h = (hi - lo) / n0
    vals = g(lo + h * np.arange(n0 + 1))
    total = h * (np.sum(vals) - 0.5 * (vals[0] + vals[-1]))
    evals = vals.size
    converged = 0
    for _ in range(_REFINE_LEVELS):
        mid = np.arange(lo + 0.5 * h, hi, h)
        new_total = 0.5 * total + 0.5 * h * np.sum(g(mid))
        evals += mid.size
        h *= 0.5
        change = abs(new_total - total)
        total = new_total
        converged = converged + 1 if change <= tol * max(abs(total), 1e-300) else 0
        if converged >= 2:
            return total, change, evals
    raise ConvergenceError(
        f"trapezoid refinement stalled on [{lo}, {hi}] (last change {change:.3e})")


def _tanh_sinh(g, strength, tol):
    """int_0^1 by trapezoid refinement under x = 1/(1 + exp(-pi sinh t)),
    for endpoint singularities x^(s-1), (1-x)^(s-1) with s >= `strength`.

    g(log_x, log_1mx, log_ch) returns the integrand times dx/dt = x (1-x)
    exp(log_ch), given log x = -logaddexp(0, -pi sinh t), log(1-x) =
    -logaddexp(0, pi sinh t) and log_ch = log(pi cosh t).  The endpoint gap
    is ~exp(-pi sinh t), so the window reaches pi sinh T = 55/s.
    """
    T = math.asinh(55.0 / (math.pi * min(strength, 1.0)))

    def mapped(t):
        u = math.pi * np.sinh(t)
        return g(-np.logaddexp(0.0, -u), -np.logaddexp(0.0, u), np.log(math.pi * np.cosh(t)))

    return _refine_trapezoid(mapped, -T, T, tol, n0=64)[:2]


def tanh_sinh(f, a, b, tol=1e-12, singular_strength=1.0):
    """Integrate f over (a, b) by tanh-sinh quadrature, for endpoint
    singularities (x-a)^(s-1) with s >= `singular_strength`.  Nodes that
    round onto a or b, or where dx/dt < exp(_LOG_FLOOR), count as zero."""
    if not b > a:
        raise ValueError(f"need b > a, got a={a}, b={b}")
    if not singular_strength > 0.0:
        raise ValueError(f"need singular_strength > 0, got {singular_strength}")
    width = b - a

    def g(log_x, log_1mx, log_ch):
        x = a + width * np.exp(log_x)
        log_jac = math.log(width) + log_x + log_1mx + log_ch
        out = np.zeros_like(x)
        ok = (x > a) & (x < b) & (log_jac > _LOG_FLOOR)
        out[ok] = f(x[ok]) * np.exp(log_jac[ok])
        return out

    return _tanh_sinh(g, singular_strength, tol)


def power_integral_01(p, q, tol=1e-12):
    """Numerical value of int_0^1 x^p (1-x)^q dx for p, q > -1.

    Nonnegative integer exponents make the integrand a polynomial, which
    the 64-node Gauss-Legendre rule integrates exactly.  Fractional
    exponents have algebraic endpoint behavior where Gauss-Legendre only
    converges polynomially, so those fall through to tanh-sinh in log space
    (x underflows in the tails, where p or q near -1 would meet inf * 0).
    """
    if p <= -1.0 or q <= -1.0:
        raise ValueError(f"exponents must exceed -1, got p={p}, q={q}")
    integer_p = float(p).is_integer() and p >= 0
    integer_q = float(q).is_integer() and q >= 0
    if integer_p and integer_q and p + q < 128:  # 64 nodes are exact to degree 127
        x, w = gauss_legendre_01()
        return float(np.sum(w * x**p * (1.0 - x) ** q))

    def g(log_x, log_1mx, log_ch):
        log_vals = (p + 1.0) * log_x + (q + 1.0) * log_1mx + log_ch
        out = np.zeros_like(log_vals)
        ok = log_vals > _LOG_FLOOR
        out[ok] = np.exp(log_vals[ok])
        return out

    value, _ = _tanh_sinh(g, min(p + 1.0, q + 1.0), tol)
    return float(value)


def _solve_tail(decay_kind, b, growth, target):
    """Smallest x beyond which b*decay(x) - growth*log(x) exceeds target."""
    power = {"sqrt": 2, "lin": 1}.get(decay_kind)
    if power is None:
        raise ValueError(f"unknown decay kind {decay_kind!r}")
    u = target / b  # iterate x^(1/power) = (target + growth*log x)/b
    for _ in range(60):
        u = max((target + power * growth * math.log(max(u, 1.0))) / b, 1.0)
    return u * u if power == 2 else u


def de_halfline(f, c_eff, decay, tol=1e-12, growth=0.0):
    """Integrate f over (0, oo) with the substitution x = exp(t - e^{-t}).

    Parameters
    ----------
    f : callable
        Vectorized integrand; never called where x would underflow.
    c_eff : float
        f behaves like x^(c_eff - 1) toward 0; sizes the left end of the t
        window.  The nodes stop at log x = _LOG_FLOOR, which leaves out
        about e^(_LOG_FLOOR c_eff) of the integral, so c_eff must exceed
        log(1/tol) / |_LOG_FLOOR|.
    decay : tuple
        ("sqrt", b) for tails like exp(-b sqrt(x)), ("lin", b) for
        exp(-b x); sizes the right end of the window.
    growth : float
        Power-law factor x^growth multiplying the decaying tail, if any.

    Returns (value, error_estimate).
    """
    c_min = math.log(1.0 / tol) / -_LOG_FLOOR
    if c_eff <= c_min:
        raise ValueError(f"c_eff must exceed log(1/tol)/{-_LOG_FLOOR:g} = {c_min:.6g}, "
                         f"got {c_eff}")
    kind, b = decay
    if b <= 0.0:
        raise ValueError(f"decay rate must be positive, got {b}")
    t_lo = min(-math.log(60.0 / c_eff), -1.5)
    x_big = _solve_tail(kind, b, growth, 60.0)
    t_hi = math.log(x_big) + 1.0

    def g(t):
        log_x = t - np.exp(-t)
        x = np.exp(np.maximum(log_x, _LOG_FLOOR))
        out = np.zeros_like(t)
        ok = log_x > _LOG_FLOOR
        if np.any(ok):
            out[ok] = f(x[ok]) * x[ok] * (1.0 + np.exp(-t[ok]))
        return out

    value, err, _ = _refine_trapezoid(g, t_lo, t_hi, tol, n0=128)
    return value, err
