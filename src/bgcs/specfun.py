"""Real special functions for every module above it.

Only the handful of functions the rest of the library actually needs live
here, with evaluation strategies chosen for accuracy on desk-scale
arguments rather than generality:

* ``gamma``/``log_gamma`` delegate to libm (positive arguments only,
  validated here).
* ``bessel_i`` sums the ascending series

      I_nu(x) = sum_{n>=0} (x/2)^(2n+nu) / (n! Gamma(nu+n+1)),

  stopping once a term falls below 1e-16 of the partial sum.
* ``bessel_k`` evaluates the integral representation

      K_nu(x) = (1/2) (x/2)^nu int_0^oo t^(-nu-1) exp(-t - x^2/(4t)) dt,

  after the substitution t = (x/2) e^w, which turns it into

      K_nu(x) = (1/2) int_{-oo}^{oo} exp(-nu w - x cosh w) dw.

  The transformed integrand decays doubly exponentially in both
  directions and is analytic in the strip |Im w| < pi/2, so one trapezoid
  sum on a uniform w grid, with a step fixed in advance by that strip and
  by the curvature hypot(x, nu) at the peak, is accurate to rounding: no
  refinement, 37-111 nodes (66 on average) for x in [1e-3, 300].  The substitution also
  makes the symmetry K_nu = K_{-nu} manifest (w -> -w).  One kernel serves
  every caller: _bessel_k_log_vec takes an array of x with its logs and
  returns log K, finite where K itself leaves double range and where x
  underflows to 0 while log x is finite, summing up to 256 points at
  once with a few numpy operations over all their nodes (one more pass per
  _K_CELLS padded nodes), each point over its own nodes in its own order,
  so no bit depends on the batch.  (numpy sums a lone column pairwise, not
  in order, so a one-point pass is padded to two columns.)  bessel_k is
  exp of that kernel on one point; every power times K elsewhere is exp
  of a sum of logs.  Where x is so small that the terms dropped from

      K_nu(x) ~ Gamma(|nu|)/2 (2/x)^|nu|        (DLMF 10.30.2)

  are below 1e-16 relative, the kernel returns that form instead, from
  log x; there the quadrature's window would grow like 2 log(1/x).  Below
  x = 45 / (largest double) cosh overflows inside the window, and for
  |nu| < 0.056 that form does not hold there yet (it drops a term of
  relative size ~ (x/2)^(2|nu|)), so those points take the two leading
  terms of the ascending series, again in log x (_log_k_two_term).

A value beyond double range is signaled (OverflowError), never returned as
inf; a log value is not checked for range.  Failure of a series to
converge, or a Bessel-K sum that fails its self-check, raises
ConvergenceError (from quadrature).
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .quadrature import ConvergenceError

SERIES_TOL = 1e-16
SERIES_MAX_TERMS = 10000

_LOG2 = math.log(2.0)
_K_DROP = 45.0  # e^-45 ~ 3e-20, far below the target precision
_SMALL_X_TOL = 1e-16  # relative size of the terms the small-x form of K drops
_K_STEP = 0.4  # trapezoid step times sqrt(|phi''(w*)|), see _bessel_k_log_quad
_K_STEP_MAX = 0.2  # and the step's cap where |phi''(w*)| is small
_K_GAP = 1e-5  # largest relative gap between the sums at steps h and 2h
_K_CELLS = 1 << 16  # largest padded node matrix of one trapezoid pass, in doubles
_LANE_BLOCK = 256  # Bessel-K points per kernel pass
_QUAD_X_MIN = _K_DROP / sys.float_info.max  # below it cosh overflows inside the window
_EULER = 0.5772156649015329  # Euler's gamma
_ZETA_ODD = (1.2020569031595942, 1.03692775514337, 1.008349277381923,
             1.0020083928260821)  # zeta(3), zeta(5), zeta(7), zeta(9)


# The domain validators behind every public entry point: each returns the
# coerced value or raises ValueError naming the parameter and the value.

def _finite(name, value):
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"need finite {name}, got {value}")
    return value


def _positive(name, value):
    value = float(value)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"need finite {name} > 0, got {value}")
    return value


def _integer(name, value, least):
    if not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"need integer {name} >= {least}, got {value!r}")
    return int(value)


def _vector(name, value, n=None, dtype=complex):
    """value as a 1-D array of n finite entries (n=None: at least one)."""
    arr = np.atleast_1d(np.asarray(value, dtype=dtype))
    if arr.shape != (n or max(arr.size, 1),) or not np.isfinite(arr).all():
        raise ValueError(f"need finite {name} of length {n or '>= 1'}, got {arr.tolist()}")
    return arr


def _occupations(name, value, n=None):
    """value as a tuple of non-negative ints, n of them unless n is None."""
    row = tuple(value)
    if len(row) != (len(row) if n is None else n) or not all(
            isinstance(v, (int, np.integer)) and v >= 0 for v in row):
        length = "" if n is None else f" of length {n}"
        got = np.asarray(row).tolist()
        raise ValueError(f"need non-negative integer {name}{length}, got {got}")
    return tuple(int(v) for v in row)


def gamma(p):
    """Gamma function for p > 0."""
    p = _positive("p", p)
    try:
        return math.gamma(p)
    except OverflowError:
        raise OverflowError(f"gamma({p}) exceeds double range")


def log_gamma(p):
    """log Gamma(p) for p > 0."""
    return math.lgamma(_positive("p", p))


def bessel_i(nu, x):
    """Modified Bessel function of the first kind, I_nu(x), nu >= 0, x >= 0.

    Ascending series with term recurrence
    t_{n+1} = t_n * (x/2)^2 / ((n+1)(nu+n+1)); all terms are positive so
    there is no cancellation.
    """
    nu, x = _finite("nu", nu), _finite("x", x)
    if nu < 0.0 or x < 0.0:
        raise ValueError(f"bessel_i requires nu >= 0 and x >= 0, got nu={nu}, x={x}")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    half_x = 0.5 * x
    try:
        term = math.exp(nu * math.log(half_x) - math.lgamma(nu + 1.0))
    except OverflowError:
        raise OverflowError(f"bessel_i({nu}, {x}) leading term exceeds double range")
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


def _log_k_two_term(a, log_x):
    """log K_a(x) for a < 0.056 and x below _QUAD_X_MIN, from log x.

    With L = log(2/x), the leading terms of I_{-a} and I_a in K_a =
    (pi/2) (I_{-a} - I_a) / sin(a pi) (DLMF 10.27.4, 10.25.2) give

        K_a(x) = Gamma(1-a) e^(-aL) expm1(2a (L - phi(a))) / (2a),

    where e^(-2a phi(a)) = Gamma(1+a) / Gamma(1-a), so that phi(a) = gamma
    + sum_{m>=1} zeta(2m+1) a^(2m) / (2m+1).  Four terms leave under 3e-14
    in phi here and 4e-15 in log K; the difference of lgamma(1 +- a) would
    lose a itself when a is tiny.  The
    dropped terms are (x/2)^2 relative.  At a = 0 the limit is K_0 =
    L - gamma (DLMF 10.31.2), and past y = 709, where expm1(y) overflows,
    log expm1(y) = y + log1p(-e^-y).
    """
    big_l = _LOG2 - log_x
    if a == 0.0:
        return np.log(big_l - _EULER)
    phi = _EULER + sum(z * a ** (2 * m) / (2 * m + 1) for m, z in enumerate(_ZETA_ODD, 1))
    y = 2.0 * a * (big_l - phi)
    with np.errstate(over="ignore"):
        log_e = np.where(y > 709.0, y + np.log1p(-np.exp(-y)) - math.log(2.0 * a),
                         np.log(np.expm1(y) / (2.0 * a)))
    return -a * big_l + math.lgamma(1.0 - a) + log_e


def _trapezoid_sums(nu, x, peak, lo, h, n):
    """The trapezoid sums of exp(-nu w - x cosh w - peak) over w = lo + h j,
    j = 0..n, at steps h and 2h, for every point of x.

    All points' nodes form one flat array, and the values go node-major
    into a zero-padded matrix whose column sums add row after row, node 0
    first: each point's sum in its own order, whatever the batch.  A
    reduction over one column would take numpy's pairwise sum instead, so
    a lone point is padded to two columns.
    """
    size = x.size
    count = n + 1  # point p owns count[p] consecutive slots, j = 0..n[p]
    j = np.arange(int(count.sum()))
    j -= np.repeat(np.cumsum(count) - count, count)
    w = np.repeat(h, count) * j
    w += np.repeat(lo, count)
    phi = np.cosh(w)
    phi *= np.repeat(x, count)
    w *= -nu
    np.subtract(w, phi, out=phi)
    phi -= np.repeat(peak, count)
    np.exp(phi, out=phi)
    cols = max(size, 2)
    j *= cols
    j += np.repeat(np.arange(size), count)
    vals = np.zeros((n.max() + 1, cols))
    vals.ravel()[j] = phi
    return h * vals.sum(axis=0)[:size], 2.0 * h * vals[::2].sum(axis=0)[:size]


def _bessel_k_log_quad(nu, x):
    """log K_nu(x) at every point of x, by one trapezoid sum of
    exp(-nu w - x cosh w - peak) / 2 per point, and each sum's relative gap
    to the sum over every other node.

    The exponent phi(w) = -nu w - x cosh w is strictly concave with its
    maximum at w* = -asinh(nu/x), so the window where phi stays within
    _K_DROP of the peak is a single interval, found by marching outward in
    unit steps.  w* and the peak come from libm point by point: numpy's
    SIMD asinh and cosh can differ from it in the last bit (at 15-20 % of
    arguments on an AVX-512 machine), and one ulp of w* moves K by up to
    |peak| eps.

    Step.  By Poisson summation, the trapezoid sum with step h over the
    whole line has relative error sum_{k != 0} c_k K_{nu+2 pi i k/h}(x) /
    K_nu(x) with |c_k| = 1, and moving the integral of K_{nu+i mu} to
    Im w = a, 0 <= a < pi/2, bounds each term by e^(-mu a) K_nu(x cos a) /
    K_nu(x) (Trefethen & Weideman, SIAM Rev. 56 (2014), sec. 5).  Near w*
    the exponent is -kappa (w - w*)^2 / 2 with kappa = |phi''(w*)| =
    hypot(x, nu), so the ratio grows like e^(kappa a^2 / 2), and a = mu /
    kappa leaves e^(-2 pi^2 / (kappa h^2)) = e^-123 at h = 0.4 / sqrt(kappa).
    Where kappa is small, a stops short of pi/2 and the terms fall like
    e^(-pi mu / 2) = e^(-pi^2 / h), by a factor mu^(|nu| - 1/2) / Gamma(|nu|)
    less at small x; so h = min(0.2, 0.4 / sqrt(kappa)).  The largest
    k = 1 term, from mpmath over |nu| <= 50 and x in [1e-6, 700], is
    2.7e-17 (at nu = 4, where the two bounds meet).  Each point takes an
    even number of nodes, so every other node is the rule at step 2h; the
    gap between the two sums is the self-check, 1.6e-7 at most on the scan
    bessel_k cites, against _K_GAP = 1e-5.  Each point's nodes and the
    order of its sum (see _trapezoid_sums) do not depend on the batch, so
    neither do its bits.
    """
    size = x.size
    w_star = -np.fromiter(map(math.asinh, (nu / x).tolist()), float, size)
    peak = -nu * w_star - x * np.fromiter(map(math.cosh, w_star.tolist()), float, size)

    # both edges in one march: lanes [0, size) step -1, [size, 2 size) +1;
    # each lane reaches w* + step + step + ... in sequence, trying the
    # steps in chunks of doubling length until phi is not above
    # peak - _K_DROP
    steps = np.repeat([-1.0, 1.0], size)
    lane_x = np.concatenate((x, x))
    floor = np.concatenate((peak, peak)) - _K_DROP
    edges = np.empty(2 * size)
    live = np.arange(2 * size)
    last = np.concatenate((w_star, w_star))
    chunk = 16
    while live.size:
        trial = np.empty((live.size, chunk + 1))
        trial[:, 0] = last[live]
        trial[:, 1:] = steps[live, None]
        trial = trial.cumsum(axis=1)[:, 1:]
        out = ~(-nu * trial - lane_x[live, None] * np.cosh(trial) > floor[live, None])
        hit = out.any(axis=1)
        edges[live[hit]] = trial[hit, np.argmax(out[hit], axis=1)]
        last[live] = trial[:, -1]
        live = live[~hit]
        chunk *= 2
    lo, hi = edges[:size], edges[size:]

    width = np.where(np.isfinite(hi - lo), hi - lo, 0.0)  # nan where nu/x overflows
    step = np.minimum(_K_STEP_MAX, _K_STEP / np.sqrt(np.hypot(x, nu)))
    n = 2 * np.ceil(0.5 * width / step).astype(int)
    h = width / n
    # the points in slices whose padded node matrices hold at most _K_CELLS
    cols = max(1, _K_CELLS // (int(n.max()) + 1))
    t_h, t_2h = np.empty(size), np.empty(size)
    for start in range(0, size, cols):
        part = slice(start, start + cols)
        t_h[part], t_2h[part] = _trapezoid_sums(nu, x[part], peak[part], lo[part], h[part],
                                                n[part])
    return peak + np.log(0.5 * t_h), np.abs(t_h - t_2h) / t_h


def _bessel_k_block(nu, x, log_x):
    """log K_nu at every point of x (1-D), or the ValueError or
    ConvergenceError bessel_k raises at the lowest-index point where it
    fails.  x may underflow to 0 where log_x is finite.  Points below
    _small_x_limit take the leading term of DLMF 10.30.2 in log x; the
    other points below _QUAD_X_MIN, only ever of order |nu| < 0.056, take
    _log_k_two_term; the rest one trapezoid sum each, in x."""
    a = abs(nu)
    valid = np.isfinite(log_x)
    small = valid & (x < _small_x_limit(a))
    tiny = valid & ~small & (x < _QUAD_X_MIN)
    quad = valid & ~small & ~tiny
    log_k = np.zeros_like(x)
    unresolved = np.zeros(x.shape, dtype=bool)
    if small.any():
        log_k[small] = math.lgamma(a) - _LOG2 + a * (_LOG2 - log_x[small])
    if tiny.any():
        log_k[tiny] = _log_k_two_term(a, log_x[tiny])
    if quad.any():
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            log_k[quad], gap = _bessel_k_log_quad(nu, x[quad])
        unresolved[quad] = ~(gap <= _K_GAP)  # nan too
    failed = ~valid | unresolved
    if failed.any():
        xi = _positive("x", x[np.argmax(failed)])
        raise ConvergenceError(f"bessel_k({nu}, {xi}) quadrature did not converge")
    return log_k


def _bessel_k_log_vec(nu, x, log_x):
    """log K_nu at every point of x, as a float array, given x and its log:
    x may underflow to 0 where log_x is finite, and the quadrature reads x
    while the small-argument forms read log_x.  It works in blocks of
    _LANE_BLOCK points to bound the working set, and raises bessel_k's
    ValueError or ConvergenceError for the lowest-index failing point; a K
    beyond the largest double is no error here, since a power times K is
    then exp of a sum of logs.  Each point's bits do not depend on the
    batch."""
    nu = _finite("nu", nu)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    log_x = np.atleast_1d(np.asarray(log_x, dtype=float))
    out = np.empty_like(x)
    for start in range(0, x.size, _LANE_BLOCK):
        part = slice(start, start + _LANE_BLOCK)
        out[part] = _bessel_k_block(nu, x[part], log_x[part])
    return out


def bessel_k(nu, x):
    """Modified Bessel function of the second kind, K_nu(x), x > 0.

    Any real nu is accepted; the evaluation is symmetric in nu by
    construction.  On a 401 x 400 scan of |nu| <= 50 and x in [1e-300, 700]
    it returns K_nu(x), or raises OverflowError where K_nu(x) exceeds the
    largest double; it raises ConvergenceError nowhere, and the largest
    self-check gap is 1.6e-7.  Against mpmath it is within 1.3e-14
    relative for |nu| <= 5 and x in [1e-3, 100], within 4e-14 out to
    x = 300, and within 6.7e-14 at the 844 quadrature points of a 101 x 200
    subgrid of the scan that stay in double range (1.7e-13 at its 1,286
    small-argument points).
    This is exp of the _bessel_k_log_vec kernel on one point.
    """
    x = np.array([x], dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = float(np.exp(_bessel_k_log_vec(nu, x, np.log(x)))[0])
    if math.isinf(value):
        raise OverflowError(f"bessel_k({float(nu)}, {float(x[0])}) exceeds double range")
    return value
