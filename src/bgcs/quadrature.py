"""Quadrature building blocks: the trapezoid refiner, one Gauss-Legendre table,
a tanh-sinh map, and a double-exponential transform for half-line integrals.

The bottom layer: it imports nothing from bgcs and defines ConvergenceError.

All routines expect vectorized integrands (numpy array in, array out) and
refine a trapezoid grid on one window by halving until two consecutive
passes agree to the requested tolerance, reusing previously computed
nodes.  specfun's Bessel K does not refine: its integrand's strip of
analyticity fixes the step in advance (see specfun._bessel_k_log_quad).

Both rules take the log of their integrand as a function of log x (and,
for _tanh_sinh, log(1 - x)), add the log of their Jacobian, and take the
one exp themselves.  A far node whose x underflows to 0 or rounds onto 1
still has an exact log x, and its term underflows quietly to 0, so no node
is clipped, masked or refused.  _tanh_sinh serves power_integral_01,
measure.radial_cdf and specfun.bessel_i, de_halfline the half-line factors.

The half-line transform is x = exp(t - e^{-t}).  Toward t -> -infinity the
node x approaches zero doubly exponentially, so an integrand behaving like
x^(c-1) near the origin contributes exp(-c e^{-t}); toward t -> +infinity
x grows like e^t, so exponential or stretched-exponential decay of the
integrand again gives a doubly exponential tail.  The trapezoid rule is
then accurate to machine precision on a modest uniform t grid.

Start grids: the half-line rule starts at 64 intervals.  Every call of
the quad-sweep workload at seeds 1-3, and each of 2,568 random formula (A)
and (B) draws with c_eff down to 0.001, stops at its first check, after
65 + 64 + 128 = 257 nodes: the trapezoid error falls like exp(-c/h), so a
finer start only adds confirming nodes.  The tanh-sinh rule stays at 64:
started at 32, 22 of the quad-sweep workload's 32 calls need a further
halving.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

_REFINE_LEVELS = 8


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to reach its tolerance within budget."""


@lru_cache(maxsize=1)
def gauss_legendre_01():
    """The 64 Gauss-Legendre nodes and weights mapped from (-1, 1) to (0, 1)."""
    x, w = leggauss(64)
    return 0.5 * (x + 1.0), 0.5 * w


def _refine_trapezoid(g, lo, hi, tol, n0):
    """Trapezoid value of a vectorized g on [lo, hi], refined by halving.

    Endpoint values are assumed negligible (the callers build windows on
    which the integrand has already dropped by ~e^-45 from its peak).
    Converges once two consecutive changes are within tol * |value|.
    Returns (value, last change, evaluations); raises OverflowError as soon
    as a level's sum leaves double range, and ConvergenceError after
    _REFINE_LEVELS halvings, so also on a NaN.
    """

    def evaluate(x):
        with np.errstate(over="ignore"):  # out of range raises below
            vals = g(x)
            total = np.sum(vals)
        if np.isinf(total):
            raise OverflowError(f"trapezoid integral on [{lo}, {hi}] exceeds double range")
        return vals, total

    h = (hi - lo) / n0
    vals, total = evaluate(lo + h * np.arange(n0 + 1))
    total = h * (total - 0.5 * (vals[0] + vals[-1]))
    evals = vals.size
    converged = 0
    for level in range(_REFINE_LEVELS):
        mid = lo + h * (np.arange(n0 << level) + 0.5)
        new_total = 0.5 * total + 0.5 * h * evaluate(mid)[1]
        evals += mid.size
        h *= 0.5
        change = abs(new_total - total)
        total = new_total
        converged = converged + 1 if change <= tol * max(abs(total), 1e-300) else 0
        if converged >= 2:
            return total, change, evals
    raise ConvergenceError(
        f"trapezoid refinement stalled on [{lo}, {hi}] (last change {change:.3e})")


def _tanh_sinh(log_f, strength, tol):
    """int_0^1 f(x) dx by trapezoid refinement under x = 1/(1 + exp(-pi sinh t)),
    for endpoint singularities x^(s-1), (1-x)^(s-1) with s >= `strength`.

    log_f(log_x, log_1mx) returns log f, given log x = -logaddexp(0, -pi sinh t)
    and log(1-x) = -logaddexp(0, pi sinh t); the rule adds log dx/dt =
    log x + log(1-x) + log(pi cosh t) and takes the one exp.  The endpoint
    gap is ~exp(-pi sinh t), so the window reaches pi sinh T = 55/s.
    """
    T = math.asinh(55.0 / (math.pi * min(strength, 1.0)))

    def g(t):
        u = math.pi * np.sinh(t)
        log_x, log_1mx = -np.logaddexp(0.0, -u), -np.logaddexp(0.0, u)
        return np.exp(log_f(log_x, log_1mx) + log_x + log_1mx + np.log(math.pi * np.cosh(t)))

    return _refine_trapezoid(g, -T, T, tol, n0=64)[:2]


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
    value, _ = _tanh_sinh(lambda log_x, log_1mx: p * log_x + q * log_1mx,
                          min(p + 1.0, q + 1.0), tol)
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


def de_halfline(log_f, c_eff, decay, tol=1e-12, growth=0.0):
    """Integrate f over (0, oo) with the substitution x = exp(t - e^{-t}).

    Parameters
    ----------
    log_f : callable
        Vectorized log of the integrand, called with log x: x itself
        underflows to 0 at the left nodes, where log x is still exact.
    c_eff : float
        f behaves like x^(c_eff - 1) toward 0; sizes the left end of the t
        window, where x^c_eff = e^-60.
    decay : tuple
        ("sqrt", b) for tails like exp(-b sqrt(x)), ("lin", b) for
        exp(-b x); sizes the right end of the window.
    growth : float
        Power-law factor x^growth multiplying the decaying tail, if any.

    Returns (value, error_estimate).  The grid starts at 64 intervals, so
    a call that converges at its first check evaluates log_f at 257 nodes.
    """
    if not c_eff > 0.0:
        raise ValueError(f"c_eff must be positive, got {c_eff}")
    kind, b = decay
    if b <= 0.0:
        raise ValueError(f"decay rate must be positive, got {b}")
    t_lo = min(-math.log(60.0 / c_eff), -1.5)
    x_big = _solve_tail(kind, b, growth, 60.0)
    t_hi = math.log(x_big) + 1.0

    def g(t):  # f(x) dx/dt, with dx/dt = x (1 + e^-t)
        log_x = t - np.exp(-t)
        return np.exp(log_f(log_x) + log_x + np.log1p(np.exp(-t)))

    value, err, _ = _refine_trapezoid(g, t_lo, t_hi, tol, n0=64)
    return value, err
