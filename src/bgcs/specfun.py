"""Real special functions, built on quadrature, for every module above it.

Only the handful of functions the rest of the library actually needs live
here, with evaluation strategies chosen for accuracy on desk-scale
arguments rather than generality:

* ``gamma``/``log_gamma``/``beta`` delegate to libm (positive arguments
  only, validated here).
* ``pochhammer`` is the ascending product a(a+1)...(a+n-1), computed as a
  product so it stays defined for any real a.
* ``bessel_i`` sums the ascending series

      I_nu(x) = sum_{n>=0} (x/2)^(2n+nu) / (n! Gamma(nu+n+1)),

  stopping once a term falls below 1e-16 of the partial sum.
* ``bessel_k`` evaluates the integral representation

      K_nu(x) = (1/2) (x/2)^nu int_0^oo t^(-nu-1) exp(-t - x^2/(4t)) dt,

  after the substitution t = (x/2) e^w, which turns it into

      K_nu(x) = (1/2) int_{-oo}^{oo} exp(-nu w - x cosh w) dw.

  The transformed integrand decays doubly exponentially in both
  directions, so the trapezoid rule on a uniform w grid converges at
  machine precision with a few hundred nodes of quadrature's refiner.  The
  substitution also makes the symmetry K_nu = K_{-nu} manifest (w -> -w).

Overflow is signaled (OverflowError), never returned as inf.  Failure of a
series or quadrature to converge raises ConvergenceError (from quadrature).
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import ConvergenceError, _refine_trapezoid

SERIES_TOL = 1e-16
SERIES_MAX_TERMS = 10000

_EXP_MAX = 709.0  # log of the largest representable double, rounded down


def _check_finite_real(name, value):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def gamma(p):
    """Gamma function for p > 0."""
    p = _check_finite_real("p", p)
    if p <= 0.0:
        raise ValueError(f"gamma requires p > 0, got {p}")
    try:
        return math.gamma(p)
    except OverflowError:
        raise OverflowError(f"gamma({p}) exceeds double range")


def log_gamma(p):
    """log Gamma(p) for p > 0."""
    p = _check_finite_real("p", p)
    if p <= 0.0:
        raise ValueError(f"log_gamma requires p > 0, got {p}")
    return math.lgamma(p)


def beta(p, q):
    """Euler beta B(p, q) = Gamma(p) Gamma(q) / Gamma(p+q), for p, q > 0.

    Evaluated in log space so large arguments do not overflow on the way
    to a representable result.
    """
    p = _check_finite_real("p", p)
    q = _check_finite_real("q", q)
    if p <= 0.0 or q <= 0.0:
        raise ValueError(f"beta requires p, q > 0, got p={p}, q={q}")
    log_b = math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    if log_b > _EXP_MAX:
        raise OverflowError(f"beta({p}, {q}) exceeds double range")
    return math.exp(log_b)


def pochhammer(a, n):
    """Ascending factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1.

    Defined for any real a (including nonpositive values, where the Gamma
    ratio form would be singular).
    """
    a = _check_finite_real("a", a)
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError(f"pochhammer requires integer n >= 0, got {n!r}")
    prod = 1.0
    for j in range(int(n)):
        prod *= a + j
        if math.isinf(prod):
            raise OverflowError(f"pochhammer({a}, {n}) exceeds double range")
    return prod


def bessel_i(nu, x):
    """Modified Bessel function of the first kind, I_nu(x), nu >= 0, x >= 0.

    Ascending series with term recurrence
    t_{n+1} = t_n * (x/2)^2 / ((n+1)(nu+n+1)); all terms are positive so
    there is no cancellation.
    """
    nu = _check_finite_real("nu", nu)
    x = _check_finite_real("x", x)
    if nu < 0.0:
        raise ValueError(f"bessel_i requires nu >= 0, got {nu}")
    if x < 0.0:
        raise ValueError(f"bessel_i requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    half_x = 0.5 * x
    log_t0 = nu * math.log(half_x) - math.lgamma(nu + 1.0)
    if log_t0 > _EXP_MAX:
        raise OverflowError(f"bessel_i({nu}, {x}) leading term exceeds double range")
    term = math.exp(log_t0)
    total = term
    ratio_num = half_x * half_x
    for n in range(1, SERIES_MAX_TERMS + 1):
        term *= ratio_num / (n * (nu + n))
        total += term
        if math.isinf(total):
            raise OverflowError(f"bessel_i({nu}, {x}) exceeds double range")
        if term < SERIES_TOL * total:
            return total
    raise ConvergenceError(
        f"bessel_i({nu}, {x}) series did not converge in {SERIES_MAX_TERMS} terms"
    )


def _bessel_k_log(nu, x):
    """log K_nu(x) by trapezoid quadrature of exp(-nu w - x cosh w) / 2.

    The exponent phi(w) = -nu w - x cosh w is strictly concave with its
    maximum at w* = -asinh(nu/x), so the window where phi stays within
    `drop` of the peak is a single interval found by marching outward.
    At large |nu| and small x rounding stalls the sum near 1e-12 relative.
    """
    drop = 45.0  # e^-45 ~ 3e-20, far below the target precision
    w_star = -math.asinh(nu / x)

    def phi(w):
        return -nu * w - x * math.cosh(w)

    peak = phi(w_star)
    lo = w_star - 1.0
    while phi(lo) > peak - drop:
        lo -= 1.0
    hi = w_star + 1.0
    while phi(hi) > peak - drop:
        hi += 1.0
    total, _, _ = _refine_trapezoid(lambda w: np.exp(-nu * w - x * np.cosh(w) - peak),
                                    lo, hi, 1e-14, n0=48, stall_tol=1e-12)
    return peak + math.log(0.5 * total)


def bessel_k(nu, x):
    """Modified Bessel function of the second kind, K_nu(x), x > 0.

    Any real nu is accepted; the evaluation is symmetric in nu by
    construction.  Tuned for |nu| <= 50 and x in (0, 50], though nothing
    breaks gently outside that box until the result leaves double range.
    """
    nu = _check_finite_real("nu", nu)
    x = _check_finite_real("x", x)
    if x <= 0.0:
        raise ValueError(f"bessel_k requires x > 0, got {x}")
    try:
        log_val = _bessel_k_log(nu, x)
    except ConvergenceError as exc:
        raise ConvergenceError(f"bessel_k({nu}, {x}) quadrature did not converge") from exc
    if log_val > _EXP_MAX:
        raise OverflowError(f"bessel_k({nu}, {x}) exceeds double range")
    return math.exp(log_val)


def _bessel_k_vec(nu, x):
    """bessel_k(nu, .) at every point of x, as a float array."""
    return np.array([bessel_k(nu, xi) for xi in np.atleast_1d(x)])
