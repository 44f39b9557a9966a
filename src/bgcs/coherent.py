"""Coherent states of the lowering generators and their overlap series.

The state attached to a label z in C^N is

    |z> = sum_n C_n z_1^{n_1} ... z_N^{n_N} |n>,
    C_n = sqrt( Gamma(K) / (n_1! ... n_N! Gamma(K + |n|)) ),

normalized so the degree-zero amplitude is 1 (the states themselves are
not unit vectors).  Each component of the label is an eigenvalue:
E_{N+1,a} |z> = z_a |z>.  The coefficients also satisfy the one-step
relation

    C_{n + e_a} sqrt(n_a + 1) sqrt(K + |n|) = C_n,

which is exercised against the closed form in the tests.

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
arguments) run that recurrence in one kernel, _shell_sum, so they agree
bit for bit at the same s.  The same kernel with a weight per shell sums
the angular moments of the quadrature kernel trace (bgcs.pathint).
"""

from __future__ import annotations

import math

import numpy as np

from . import fock
from .specfun import ConvergenceError, log_gamma

SHELL_TOL = 1e-14
MAX_SHELLS = 500


def coefficient(n, k):
    """Closed-form amplitude C_n for multi-index n and representation label k."""
    k = float(k)
    if k <= 0.0:
        raise ValueError(f"need k > 0, got {k}")
    n = tuple(int(v) for v in n)
    if any(v < 0 for v in n):
        raise ValueError(f"multi-index must be nonnegative, got {n}")
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
    the one-step relation, starting from C_0 = 1.  Dual route to
    ``coefficient`` for testing; production code uses the closed form."""
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
    z = np.asarray(z, dtype=complex)
    if z.shape != (space.n,):
        raise ValueError(f"label must have {space.n} components, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("label components must be finite")
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
    scale their float view by 1/c, same bits if finite; real a/c != a(1/c)."""
    shape, s = s.shape, s.ravel()
    shell = np.ones_like(s)
    total = shell.copy() if weights is None else shell * weights[0]
    product = np.empty_like(shell)
    term = shell if weights is None else np.empty_like(shell)
    size = np.empty(s.shape, dtype=shell.real.dtype)  # |term|
    bound = np.empty_like(size)  # tol * max(|total|, 1e-300)
    below = np.empty(s.shape, dtype=bool)
    views = (product.view(size.dtype), shell.view(size.dtype)) if np.iscomplexobj(s) else None
    watch = int(np.abs(s).argmax()) if s.size else 0
    was_below = converged = False
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite lanes raise below
        for d in range(1, max_shells + 1):
            np.multiply(shell, s, out=product)
            if views:
                np.multiply(views[0], 1.0 / (d * (k + d - 1.0)), out=views[1])
            else:
                np.divide(product, d * (k + d - 1.0), out=shell)
            if weights is not None:
                np.multiply(shell, weights[d], out=term)
            np.add(total, term, out=total)
            if s.size and abs(term.item(watch)) > 2.0 * tol * max(abs(total.item(watch)), 1e-300):
                was_below = False
                continue
            np.abs(term, out=size)
            np.abs(total, out=bound)
            np.maximum(bound, 1e-300, out=bound)
            np.multiply(bound, tol, out=bound)
            is_below = bool(np.less_equal(size, bound, out=below).all())
            if is_below and was_below:
                converged = True
                break
            was_below = is_below
            watch = watch if is_below else int(np.argmin(below))
    if not np.all(np.isfinite(total)):
        raise OverflowError(f"F series (k={k}) exceeds double range")
    if not converged:
        raise ConvergenceError(f"F series did not converge within {max_shells} shells")
    return total.reshape(shape)


def f_series(k, w):
    """Value of F_N(K; w) to SHELL_TOL: the shell sum at s = sum(w), a float
    when every w_a is real.  K must be finite and > 0."""
    k = float(k)
    if not (k > 0.0 and math.isfinite(k)):
        raise ValueError(f"need finite k > 0, got {k}")
    w = np.asarray(w, dtype=complex).ravel()
    if w.size < 1:
        raise ValueError("need at least one argument component")
    if not np.all(np.isfinite(w)):
        raise ValueError("argument components must be finite")
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


def inner_product(z, zp, k):
    """Overlap <z|z'> = F_N(K; (conj(z_a) z'_a)), to f_series' SHELL_TOL."""
    z = np.asarray(z, dtype=complex).ravel()
    zp = np.asarray(zp, dtype=complex).ravel()
    if z.shape != zp.shape:
        raise ValueError(f"label shapes differ: {z.shape} vs {zp.shape}")
    if np.array_equal(z, zp):
        # conj(z) * z through the vectorized complex multiply can keep a
        # stray FMA-contracted imaginary residue; the self-overlap is real
        return f_series(k, z.real**2 + z.imag**2)
    return f_series(k, np.conj(z) * zp)
