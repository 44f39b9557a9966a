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
  One kernel serves every caller: it takes an array of x, finds each
  point's window with array operations, and refines up to 64 points as
  lanes of one refiner call; bessel_k is that kernel on one point.  Where
  x is so small that the terms dropped from

      K_nu(x) ~ Gamma(|nu|)/2 (2/x)^|nu|        (DLMF 10.30.2)

  are below 1e-16 relative, the kernel returns that form instead; there
  the quadrature's window grows like 2 log(1/x), and near x = 1e-120 its
  refinement stalls.

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
_LOG2 = math.log(2.0)
_K_DROP = 45.0  # e^-45 ~ 3e-20, far below the target precision
_SMALL_X_TOL = 1e-16  # relative size of the terms the small-x form of K drops
_LANE_BLOCK = 64  # Bessel-K points per refiner call


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


def _small_x_limit(a):
    """Largest x at which Gamma(a)/2 (2/x)^a is K_a(x) to 1e-16 relative.

    With z = x/2, K_a(x) = (1/2) int exp(a u - z e^u) exp(-z e^-u) du, and
    dropping the last factor leaves Gamma(a)/2 z^-a (DLMF 10.30.2).  Since
    1 - exp(-y) <= y^b for 0 <= b <= 1, the relative error is at most
    z^(2b) Gamma(a-b)/Gamma(a) for any such b < a; b = min(1, a/2) here.
    """
    if a >= 2.0:  # b = 1, where Gamma(a-1)/Gamma(a) = 1/(a-1)
        log_z = 0.5 * (math.log(_SMALL_X_TOL) + math.log(a - 1.0))
    elif 0.5 * a > 0.0:
        log_z = (math.log(_SMALL_X_TOL) + math.lgamma(a) - math.lgamma(0.5 * a)) / a
    else:
        return 0.0
    return 2.0 * math.exp(log_z)


def _bessel_k_log_quad(nu, x):
    """log K_nu(x) at every point of x by trapezoid quadrature of
    exp(-nu w - x cosh w) / 2, one refiner lane per point.

    The exponent phi(w) = -nu w - x cosh w is strictly concave with its
    maximum at w* = -asinh(nu/x), so the window where phi stays within
    _K_DROP of the peak is a single interval, found by marching outward in
    unit steps.  w* and the peak come from libm point by point: numpy's
    SIMD asinh and cosh can differ from it in the last bit (at 15-20 % of
    arguments on an AVX-512 machine), and one ulp of w* moves K by up to
    |peak| eps.  At large
    |nu| and small x rounding stalls the sum near 1e-12 relative.
    """
    w_star = -np.array([math.asinh(r) for r in (nu / x).tolist()])
    peak = -nu * w_star - x * np.array([math.cosh(w) for w in w_star.tolist()])

    def edge(step):
        """w* + step + step + ..., up to the first point where phi is not
        above peak - _K_DROP, trying the steps in chunks of doubling length."""
        w = np.empty_like(x)
        live = np.arange(x.size)
        last = w_star.copy()
        chunk = 16
        while live.size:
            trial = np.full((live.size, chunk + 1), step)
            trial[:, 0] = last[live]
            trial = trial.cumsum(axis=1)[:, 1:]
            out = ~(-nu * trial - x[live, None] * np.cosh(trial) > peak[live, None] - _K_DROP)
            hit = out.any(axis=1)
            w[live[hit]] = trial[hit, np.argmax(out[hit], axis=1)]
            last[live] = trial[:, -1]
            live = live[~hit]
            chunk *= 2
        return w

    total, _, _ = _refine_trapezoid(
        lambda w, rows: np.exp(-nu * w - x[rows, None] * np.cosh(w) - peak[rows, None]),
        edge(-1.0), edge(1.0), 1e-14, n0=48, stall_tol=1e-12)
    return peak + np.log(0.5 * total)


def _bessel_k_block(nu, x):
    """K_nu at every point of x (1-D), or the error bessel_k raises at the
    lowest-index point where it fails.  Points below _small_x_limit take the
    leading term of DLMF 10.30.2, the rest one batch of quadrature lanes."""
    a = abs(nu)
    valid = np.isfinite(x) & (x > 0.0)
    small = valid & (x < _small_x_limit(a))
    quad = valid & ~small
    log_val = np.zeros_like(x)
    if small.any():
        log_val[small] = math.lgamma(a) - _LOG2 + a * (_LOG2 - np.log(x[small]))
    if quad.any():
        try:  # inf and nan (subnormal x) end the march and stall the refiner
            with np.errstate(over="ignore", invalid="ignore"):
                log_val[quad] = _bessel_k_log_quad(nu, x[quad])
        except ConvergenceError as exc:
            if x.size == 1:
                raise ConvergenceError(
                    f"bessel_k({nu}, {float(x[0])}) quadrature did not converge") from exc
            for i in range(x.size):  # lanes are independent: the first to fail alone raises
                _bessel_k_block(nu, x[i:i + 1])
            raise
    failed = ~valid | (log_val > _EXP_MAX)
    if failed.any():
        xi = float(x[np.argmax(failed)])
        _check_finite_real("x", xi)
        if xi <= 0.0:
            raise ValueError(f"bessel_k requires x > 0, got {xi}")
        raise OverflowError(f"bessel_k({nu}, {xi}) exceeds double range")
    return np.exp(log_val)


def bessel_k(nu, x):
    """Modified Bessel function of the second kind, K_nu(x), x > 0.

    Any real nu is accepted; the evaluation is symmetric in nu by
    construction.  On a 401 x 400 scan of |nu| <= 50 and x in [1e-300, 700]
    it returns K_nu(x), or raises OverflowError where that leaves double
    range, except at |nu| >= 39.75 and x in [5e-7, 2e-5], where the
    quadrature stalls (ConvergenceError).  Against mpmath it is within
    1.3e-14 relative for |nu| <= 5 and x in [1e-3, 100], and within 1.2e-13
    out to x = 300.  This is the _bessel_k_vec kernel on one point.
    """
    return float(_bessel_k_vec(nu, [x])[0])


def _bessel_k_vec(nu, x):
    """bessel_k(nu, .) at every point of x, as a float array, in blocks of
    _LANE_BLOCK lanes to bound the refiner's working set.  Each value has the
    bits bessel_k gives alone, and a failure raises bessel_k's error for the
    lowest-index failing point."""
    nu = _check_finite_real("nu", nu)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)
    for start in range(0, x.size, _LANE_BLOCK):
        out[start:start + _LANE_BLOCK] = _bessel_k_block(nu, x[start:start + _LANE_BLOCK])
    return out
