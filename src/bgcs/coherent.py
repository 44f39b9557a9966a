"""Coherent states of the lowering generators and their overlap series.

The state attached to a label z in C^N is

    |z> = sum_n C_n z_1^{n_1} ... z_N^{n_N} |n>,
    C_n = sqrt( Gamma(K) / (n_1! ... n_N! Gamma(K + |n|)) ),

normalized so the degree-zero amplitude is 1 (the states themselves are
not unit vectors).  Each component of the label is an eigenvalue:
E_{N+1,a} |z> = z_a |z>.  The coefficients also satisfy the one-step
relation

    C_{n + e_a} sqrt(n_a + 1) sqrt(K + |n|) = C_n,

which scripts/verify_all.py checks against the closed form.

Overlaps reduce to the entire series

    F_N(K; w) = sum_n Gamma(K) / (prod n_a! Gamma(K + |n|)) prod w_a^{n_a},
    <z|z'>    = F_N(K; (conj(z_a) z'_a)).

Summing one total-degree shell at a time, the multinomial theorem
collapses each shell exactly:

    sum_{|n|=d} prod w^n / prod n! = (w_1 + ... + w_N)^d / d!,

so F_N(K; w) is the one-variable confluent limit series evaluated at
s = sum(w), and each shell is a single term Gamma(K) s^d / (d! Gamma(K+d)).
For N = 1 this gives F_1(K; x) = Gamma(K) x^((1-K)/2) I_{K-1}(2 sqrt x).
f_series (one label product w) and _f_series_vec (an array of summed
arguments) run that recurrence in one kernel, _shell_sum, so a one-lane
_f_series_vec call is f_series bit for bit at the same s.  The lanes of
one call share its stop shell, so a lane of a larger call can add tail
shells below SHELL_TOL that its one-lane call stopped before: it agrees
with that call to SHELL_TOL relative, not bit for bit.  The same kernel
with a weight per shell sums the angular moments of the quadrature
kernel trace (bgcs.pathint).
"""

from __future__ import annotations

import math

import numpy as np

from . import fock
from .specfun import ConvergenceError, _occupations, _positive, _vector, log_gamma

SHELL_TOL = 1e-14
MAX_SHELLS = 500
_BLOCK_BYTES = 1 << 18  # per buffer of a block: 16,384 complex or 32,768 real lanes


def coefficient(n, k):
    """Closed-form amplitude C_n for multi-index n and representation label k."""
    k, n = _positive("k", k), _occupations("n", n)
    total = sum(n)
    log_c2 = log_gamma(k) - log_gamma(k + total) - sum(log_gamma(v + 1.0) for v in n)
    return math.exp(0.5 * log_c2)


def coefficients(space):
    """C_n for every basis state of a truncated space, in basis order, with
    the bits of ``coefficient``: the same exponent, summed in the same
    order, and math.exp on each entry (np.exp can differ by an ulp)."""
    log_fact = np.array([log_gamma(v + 1.0) for v in range(space.cutoff + 1)])
    log_kd = np.array([log_gamma(space.k + d) for d in range(space.cutoff + 1)])
    log_fact_sum = 0.0
    for a in range(space.n):
        log_fact_sum = log_fact_sum + log_fact[space.occ[:, a]]
    log_c2 = log_gamma(space.k) - log_kd[space.deg] - log_fact_sum
    return np.array([math.exp(v) for v in (0.5 * log_c2).tolist()])


def coefficients_by_recursion(space):
    """All amplitudes on a truncated space built by repeated application of
    the one-step relation, starting from C_0 = 1.  Second route to
    ``coefficients`` for the verification sweep; the rest uses the closed form."""
    k = space.k
    coeffs = np.zeros(space.dim)
    coeffs[0] = 1.0
    inner = np.flatnonzero(space.deg < space.cutoff)
    children = space.rank(space.occ[inner, None, :] + np.eye(space.n, dtype=int))
    for i, kids in zip(inner, children):
        state, total = space.occ[i], space.deg[i]
        for a, j in enumerate(kids):
            coeffs[j] = coeffs[i] / (math.sqrt(state[a] + 1.0) * math.sqrt(k + total))
    return coeffs


def state_vector(z, space):
    """Component vector of |z> on the truncated basis, degree-zero amplitude 1."""
    z = _vector("z", z, space.n)
    coeffs = np.array([coefficient(state, space.k) for state in space.occ.tolist()])
    return coeffs * np.prod(z**space.occ, axis=1)


def eigen_residual(z, space, alpha):
    """Relative residual of the eigenvalue relation E_{N+1,alpha}|z> = z_alpha|z>
    on the truncated space.

    Restricted to components of degree <= cutoff - 1: the lowering
    generator pulls degree cutoff+1 amplitudes (absent after truncation)
    into the degree-cutoff components, so only the interior can cancel.
    Returns ||(E - z_alpha) v||_interior / ||v||_interior.
    """
    if not (1 <= alpha <= space.n):
        raise ValueError(f"alpha must lie in 1..{space.n}, got {alpha}")
    z = np.asarray(z, dtype=complex)
    v = state_vector(z, space)
    lowering = fock.generator_matrix(space, space.n + 1, alpha)
    resid = lowering @ v - z[alpha - 1] * v
    interior = space.deg <= space.cutoff - 1
    denom = float(np.linalg.norm(v[interior]))
    return float(np.linalg.norm(resid[interior])) / denom


def _shell_sum(k, s, tol, max_shells, weights=None):
    """F(K; s) on an array s by shells, shell_d = shell_{d-1} s / (d (K+d-1)),
    until every lane has had two consecutive shells below `tol` relative to
    its partial sum (two, because a complex s can make one shell pass near
    zero).  OverflowError if any lane leaves double range, else
    ConvergenceError at `max_shells`.

    With `weights` (one per shell, d = 0..max_shells) the sum is
    sum_d weights[d] shell_d instead, and the weighted term is what the
    convergence test reads.

    Every lane has had two small shells in a row exactly when all lanes
    were below at shell d and all were below at shell d-1, so two flags
    carry the stop rule.  One watched lane is read first, as scalars: above
    twice its bound (wider than any gap between Python's and numpy's abs),
    the shell is "not all below" with no array pass; a failed array test
    watches its first lane above (at first, the largest |s|).  So a call
    stops where the array test alone would.  Buffers are made once per call;
    shell * s has its own: numpy's in-place complex multiply rounds apart.
    numpy divides complex by real c as (re + im 0)(1/c), so complex lanes
    scale their float view by 1/c, same bits if finite; real a/c != a(1/c).

    Lanes run in blocks of _BLOCK_BYTES per buffer, so that the shell
    passes over a large array stay in a core's L2 cache; an array of one
    block runs the loop above.  The whole array stops at the first shell D
    where all its lanes were below at D and D-1, which is the first shell
    where every block's lanes were: no block's own first such shell lies
    past D.  So each block in turn runs on, with its own watched lane, to
    its first such shell at or past the latest one found, until every block
    in a row has reached the same shell.  That shell is D, or max_shells + 1
    if some block has none, and a block catching up tests only from the
    shell before it.  Each lane sees the same operations up to the same
    shell as in one array, so it keeps its bits and every error is read from
    the same totals; blocks start at multiples of a power of two, so numpy's
    vector loops split the lanes as before.  The shells and totals are full
    length, the product and the test buffers one block long."""
    shape, s = s.shape, s.ravel()
    shell = np.ones_like(s)
    total = shell.copy() if weights is None else shell * weights[0]
    width = max(1, _BLOCK_BYTES // s.itemsize)
    product = np.empty(min(s.size, width), dtype=s.dtype)
    term = None if weights is None else np.empty_like(product)
    size = np.empty(product.shape, dtype=shell.real.dtype)  # |term|
    bound = np.empty_like(size)  # tol * max(|total|, 1e-300)
    below = np.empty(product.shape, dtype=bool)
    blocks = [[lo, 0, False, int(np.abs(s[lo:lo + width]).argmax()) if s.size else 0]
              for lo in range(0, max(s.size, 1), width)]

    def advance(block, stop):
        """Run one block on to its first shell d >= stop with its lanes below
        at d and d-1; d, or max_shells + 1 if there is none."""
        lo, d, was_below, watch = block
        x, shell_b, total_b = s[lo:lo + width], shell[lo:lo + width], total[lo:lo + width]
        n = x.size
        prod, size_b, bound_b, below_b = product[:n], size[:n], bound[:n], below[:n]
        term_b = shell_b if weights is None else term[:n]
        views = (prod.view(size.dtype), shell_b.view(size.dtype)) if np.iscomplexobj(s) else None
        reached = max_shells + 1
        for d in range(d + 1, max_shells + 1):
            np.multiply(shell_b, x, out=prod)
            if views:
                np.multiply(views[0], 1.0 / (d * (k + d - 1.0)), out=views[1])
            else:
                np.divide(prod, d * (k + d - 1.0), out=shell_b)
            if weights is not None:
                np.multiply(shell_b, weights[d], out=term_b)
            np.add(total_b, term_b, out=total_b)
            if d + 1 < stop or n and (abs(term_b.item(watch))
                                      > 2.0 * tol * max(abs(total_b.item(watch)), 1e-300)):
                was_below = False  # above, or before shell stop - 1: no flag read there
                continue
            np.abs(term_b, out=size_b)
            np.abs(total_b, out=bound_b)
            np.maximum(bound_b, 1e-300, out=bound_b)
            np.multiply(bound_b, tol, out=bound_b)
            is_below = bool(np.less_equal(size_b, bound_b, out=below_b).all())
            if is_below and was_below and d >= stop:
                reached = d
                break
            was_below = is_below
            watch = watch if is_below else int(np.argmin(below_b))
        block[1:] = d, was_below, watch
        return reached

    stop, agreed, i = 1, 0, 0
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite lanes raise below
        while agreed < len(blocks):
            reached = advance(blocks[i % len(blocks)], stop)
            agreed, stop, i = agreed + 1 if reached == stop else 1, reached, i + 1
    if not np.all(np.isfinite(total)):
        raise OverflowError(f"F series (k={k}) exceeds double range")
    if stop > max_shells:
        raise ConvergenceError(f"F series did not converge within {max_shells} shells")
    return total.reshape(shape)


def f_series(k, w):
    """Value of F_N(K; w) to SHELL_TOL: the shell sum at s = sum(w), a float
    when every w_a is real.  K must be finite and > 0."""
    k, w = _positive("k", k), _vector("w", w)
    with np.errstate(over="ignore"):  # an infinite sum raises OverflowError below
        s = np.sum(w)
    if np.all(w.imag == 0.0):
        return float(_shell_sum(k, np.array([s.real]), SHELL_TOL, MAX_SHELLS)[0])
    return complex(_shell_sum(k, np.array([s]), SHELL_TOL, MAX_SHELLS)[0])


def _f_series_vec(k, s, weights=None):
    """F over an array of (already summed) arguments s to SHELL_TOL; the hot
    path of the Monte Carlo and quadrature trace evaluations.  `weights`
    (length MAX_SHELLS + 1) weights shell d by weights[d], as in _shell_sum."""
    s = np.asarray(s, dtype=complex if np.iscomplexobj(s) else float)
    return _shell_sum(k, s, SHELL_TOL, MAX_SHELLS, weights)


def _overlap_argument(z, zp):
    """x_a = conj(z_a) z'_a, taken as the real |z_a|^2 when z == z': conj(z) * z
    through the vectorized complex multiply can keep a stray FMA-contracted
    imaginary residue, and a diagonal element is real."""
    if np.array_equal(z, zp):
        return z.real**2 + z.imag**2
    return np.conj(z) * zp


def inner_product(z, zp, k):
    """Overlap <z|z'> = F_N(K; (conj(z_a) z'_a)), to f_series' SHELL_TOL."""
    z = _vector("z", z)
    return f_series(k, _overlap_argument(z, _vector("zp", zp, z.size)))
