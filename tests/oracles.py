"""Independent reference implementations used to freeze expected values.

Every routine here reaches its answer by a route disjoint from the library
code: high-precision mpmath series and integral representations, brute-force
multi-index sums, and numerical Taylor coefficients.  The unit tests freeze
the resulting digits as literals; these functions record where the digits
came from and let anyone re-derive them.  A few routines instead keep a
plain or branch-by-branch form of a library kernel that the kernel must
match bit for bit (`shell_sum_reference`, `generator_matrix_reference`,
`transfer_exp_reference`, `basis_monomials_reference`), or a streamed Monte
Carlo loop from whole-piece labels (`resolution_gram_reference`,
`sliced_trace_reference`, `kernel_trace_reference`).
"""

import math

import mpmath as mp
import numpy as np
from numpy.polynomial.legendre import leggauss

mp.mp.dps = 50


def bessel_i(nu, x, max_terms=2000):
    """Modified Bessel I_nu(x) from the ascending series, 50 digits."""
    nu = mp.mpf(nu)
    x = mp.mpf(x)
    half = x / 2
    total = mp.mpf(0)
    for m in range(max_terms):
        term = half ** (2 * m + nu) / (mp.factorial(m) * mp.gamma(m + nu + 1))
        total += term
        if m > 2 and abs(term) < abs(total) * mp.mpf(10) ** (-mp.mp.dps):
            return total
    raise RuntimeError("series did not settle")


def bessel_k(nu, x):
    """Macdonald K_nu(x) from the cosh integral representation.

    The upper limit is finite: for x >= 0.05 the tail beyond t = 14 is
    below exp(-0.05 cosh 14) ~ 1e-13000, far under the working precision.
    (An actual infinite limit makes the node transform feed exp() numbers
    whose argument reduction never terminates.)
    """
    nu = mp.mpf(nu)
    x = mp.mpf(x)
    if x < mp.mpf("0.05"):
        raise ValueError("tail bound assumes x >= 0.05")
    return mp.quad(lambda t: mp.e ** (-x * mp.cosh(t)) * mp.cosh(nu * t), [0, 3, 14])


def bessel_k_mp(nu, x):
    """Macdonald K_nu(x) from mpmath.besselk, 50 digits, for any x > 0
    (mpmath sums the hypergeometric series or the asymptotic expansion)."""
    return mp.besselk(mp.mpf(nu), mp.mpf(x))


def bessel_k_log_x(nu, log_x):
    """Macdonald K_nu(e^log_x) from mpmath.besselk, 50 digits, for arguments
    below the smallest double, where only log x is representable."""
    return mp.besselk(mp.mpf(nu), mp.e ** mp.mpf(log_x))


def f_sum(k, w, terms=60):
    """Brute-force multi-index sum for the overlap series F_N(K; w):

        sum_n  (prod_a w_a^{n_a} / n_a!) * Gamma(K) / Gamma(K + |n|)

    Deliberately does not use the reduction to a single-variable series;
    only practical for N <= 3.  Used to anchor the shell recursion.
    """
    k = mp.mpf(k)
    w = [mp.mpmathify(v) for v in w]
    n = len(w)
    powers = []
    for wa in w:
        fac = mp.mpf(1)
        col = []
        for m in range(terms):
            col.append(wa ** m / fac)
            fac *= m + 1
        powers.append(col)
    gk = mp.gamma(k)
    gamma_ratio = [gk / mp.gamma(k + d) for d in range(n * (terms - 1) + 1)]

    def axis(depth, coeff, degree):
        if depth == n:
            return coeff * gamma_ratio[degree]
        total = mp.mpf(0)
        for m in range(terms):
            total += axis(depth + 1, coeff * powers[depth][m], degree + m)
        return total

    return axis(0, mp.mpf(1), 0)


def shell_sum_reference(k, s, tol, max_shells, weights=None):
    """The overlap shell recurrence with the stop test read on every lane at
    every shell and complex lanes divided by the real shell factor: the
    plain loop that bgcs.coherent._shell_sum must match bit for bit, error
    for error.  Stops once every lane has had two consecutive (weighted)
    shells at most tol * max(|partial sum|, 1e-300)."""
    from bgcs.specfun import ConvergenceError

    shell = np.ones_like(s)
    total = shell.copy() if weights is None else shell * weights[0]
    was_below = converged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for d in range(1, max_shells + 1):
            shell = shell * s
            shell = np.divide(shell, d * (k + d - 1.0))
            term = shell if weights is None else shell * weights[d]
            total = total + term
            is_below = bool(np.all(np.abs(term) <= np.maximum(np.abs(total), 1e-300) * tol))
            if is_below and was_below:
                converged = True
                break
            was_below = is_below
    if not np.all(np.isfinite(total)):
        raise OverflowError(f"F series (k={k}) exceeds double range")
    if not converged:
        raise ConvergenceError(f"F series did not converge within {max_shells} shells")
    return total


def generator_matrix_reference(space, alpha, beta):
    """E_{alpha beta} on a bgcs.fock truncated space, one branch per
    generator class (lowering, raising, E_{N+1,N+1}, E_{aa}, E_{ab}): the
    five formulas of the bgcs.fock docstring that fock.generator_matrix
    must match bit for bit, sign bits included."""
    n, k, occ, deg = space.n, space.k, space.occ, space.deg
    last = n + 1
    cols = np.arange(space.dim)
    if alpha == last and beta == last:
        vals = k + deg
    elif alpha == last:  # lowering operator E_{N+1, beta}
        cols = cols[occ[:, beta - 1] >= 1]
        vals = np.sqrt(occ[cols, beta - 1] * (k - 1.0 + deg[cols]))
    elif beta == last:  # raising operator E_{alpha, N+1}
        cols = cols[deg <= space.cutoff - 1]
        vals = np.sqrt((occ[cols, alpha - 1] + 1) * (k + deg[cols]))
    elif alpha == beta:
        vals = occ[:, alpha - 1].astype(float)
    else:
        cols = cols[occ[:, beta - 1] >= 1]
        vals = np.sqrt(occ[cols, beta - 1] * (occ[cols, alpha - 1] + 1))
    target = occ[cols]
    if beta != last:
        target[:, beta - 1] -= 1
    if alpha != last:
        target[:, alpha - 1] += 1
    mat = np.zeros((space.dim, space.dim))
    mat[space.rank(target), cols] = vals
    return mat


def transfer_exp_reference(hp, k, cutoff, step):
    """bgcs.pathint.transfer_eigenvalues with exp weights, its numerator
    sum_a mu_a x_a F_N(K+1; x) built by shifting each coefficient up along
    mode a, one mode at a time in the order a = 1..N, so each target sums
    its terms in that order."""
    from bgcs import coherent, fock, pathint

    space = fock.rep_space(hp.n, k, cutoff)
    table = pathint._conv_table(hp.n, cutoff)
    fk = coherent.coefficients(space) ** 2
    fk1 = coherent.coefficients(fock.rep_space(hp.n, k + 1.0, cutoff)) ** 2
    inner = space.deg < cutoff
    num = np.zeros(space.dim)
    for a in range(hp.n):
        child = space.occ[inner]
        child[:, a] += 1
        num[space.rank(child)] += hp.mu[a] * fk1[inner]
    exponent = -step * ((1.0 / k) * pathint._series_div(num, fk, table, space.deg))
    exponent[0] = exponent[0] - step * k * hp.c[-1]
    w = pathint._series_mul(fk, pathint._series_exp(exponent, table, space.deg), table)
    return w / fk


def radial_moment(n, k, occupations):
    """Expectation E[prod r^n] under the probability measure, via the Gamma
    mixture: prod Gamma(n_a + 1) * Gamma(K + |n|) / Gamma(K).  The
    unnormalized moment-identity right side carries an extra Gamma(K)."""
    k = mp.mpf(k)
    out = mp.gamma(k + sum(occupations)) / mp.gamma(k)
    for na in occupations:
        out *= mp.gamma(mp.mpf(na) + 1)
    return out


def transfer_lambda_n1(k, mu, c_last, step, p_max, weights="exp"):
    """Transfer eigenvalues for one mode by numerical Taylor coefficients.

    The slice weight as a function of the overlap argument x is

        linear: w(x) = F(K; x) - step * (K c F(K; x) + (mu/K) x F(K+1; x))
        exp:    w(x) = F(K; x) * exp(-step * (K c + (mu/K) x F(K+1; x)/F(K; x)))

    with F(K; x) = 0F1(K; x).  lambda_p = a_p * p! * Gamma(K+p)/Gamma(K)
    where a_p are the Taylor coefficients of w at x = 0.
    """
    k = mp.mpf(k)
    mu = mp.mpf(mu)
    c_last = mp.mpf(c_last)
    step = mp.mpmathify(step)

    def f(kk, x):
        return mp.hyp0f1(kk, x)

    if weights == "exp":
        def w(x):
            ratio = k * c_last + (mu / k) * x * f(k + 1, x) / f(k, x)
            return f(k, x) * mp.e ** (-step * ratio)
    else:
        def w(x):
            return f(k, x) - step * (k * c_last * f(k, x) + (mu / k) * x * f(k + 1, x))

    coeffs = mp.taylor(w, 0, p_max)
    return [coeffs[p] * mp.factorial(p) * mp.gamma(k + p) / mp.gamma(k)
            for p in range(p_max + 1)]


def geometric_trace(k, mu, c_last, beta):
    """Spectral trace for one mode: sum_p exp(-beta (K c + mu p)), closed form."""
    k = mp.mpf(k)
    x = mp.e ** (-mp.mpf(beta) * mp.mpf(mu))
    return mp.e ** (-mp.mpf(beta) * k * mp.mpf(c_last)) / (1 - x)


def sigma(n, k, big_r):
    """Radial density 2 / (pi^N Gamma(K)) R^((K-N)/2) K_{K-N}(2 sqrt R) of
    the measure, with mpmath.besselk, 50 digits."""
    k, big_r = mp.mpf(k), mp.mpf(big_r)
    return (2 / (mp.pi**n * mp.gamma(k)) * big_r ** ((k - n) / 2)
            * mp.besselk(k - n, 2 * mp.sqrt(big_r)))


def radial_cdf(n, k, q):
    """P(R <= q) for R = r_1 + ... + r_N under the measure, integrating the
    density 2 R^((K+N)/2 - 1) K_{K-N}(2 sqrt R) / (Gamma(K) Gamma(N)) in
    v = R^s, s = min(K, N).  The density behaves like R^(s-1) at the origin,
    which the substitution makes bounded; on the raw R form mpmath.quad is
    off by 4e-3 at N = 1, K = 0.07, q = 0.21."""
    k, q = mp.mpf(k), mp.mpf(q)
    s = min(k, n)

    def integrand(v):
        r = v ** (1 / s)
        density = 2 * r ** ((k + n) / 2 - 1) * mp.besselk(k - n, 2 * mp.sqrt(r))
        return density * r / (s * v) / (mp.gamma(k) * mp.gamma(n))

    return mp.quad(integrand, [0, q**s])


def angular_grid(t):
    """The kernel trace's Gauss-Legendre simplex grid, point by point: per
    point, g = sum_a t_a r_a / R and its weight, with 64^(N-1) points for
    the N = len(t) Boltzmann factors t (one point of weight 1 at N = 1).
    The stick-breaking axes x_1..x_{N-1} take the 64-node rule on (0, 1),
    r_a / R = x_1 ... x_{a-1} (1 - x_a) (the last without its 1 - x), and
    axis j weighs its node by x_j^(N-1-j)."""
    n = len(t)
    if n == 1:
        return np.array([float(t[0])]), np.ones(1)
    nodes, weights = leggauss(64)
    nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    flat = [ax.ravel() for ax in np.meshgrid(*([nodes] * (n - 1)), indexing="ij")]
    waxes = [wx.ravel() for wx in np.meshgrid(*([weights] * (n - 1)), indexing="ij")]
    grid_w = np.ones_like(flat[0])
    for j, (xi, wi) in enumerate(zip(flat, waxes)):
        grid_w = grid_w * wi * xi ** (n - 2 - j)
    frac = np.empty((len(flat[0]), n))
    running = np.ones_like(flat[0])
    for a in range(n - 1):
        frac[:, a] = running * (1.0 - flat[a])
        running = running * flat[a]
    frac[:, n - 1] = running
    return t @ frac.T, grid_w


def basis_monomials_reference(space, coeffs, z):
    """M[i, s] = C_i * prod_a z[s, a]^{n_a(i)}, one basis row at a time, each
    row multiplied by the powers of its nonzero occupations only: the row
    loop that bgcs.measure._basis_monomials must match bit for bit."""
    powers = []
    for a in range(space.n):
        col = [np.ones(z.shape[0], dtype=complex)]
        for _ in range(space.cutoff):
            col.append(col[-1] * z[:, a])
        powers.append(col)
    m = np.empty((space.dim, z.shape[0]), dtype=complex)
    for i, state in enumerate(space.occ.tolist()):
        m[i] = coeffs[i]
        for a, na in enumerate(state):
            if na:
                m[i] *= powers[a][na]
    return m


def _whole_pieces(model, budget, seed, workers, cap, labels_per_sample=1):
    """z = sqrt(r) e^(i theta) of each piece of bgcs.mc.draws(seed, workers,
    budget, cap), all labels_per_sample * piece rows drawn at once by
    bgcs.measure.draw_labels: the labels of measure.sample(model, budget,
    seed, workers) whenever each worker's share is one piece."""
    from bgcs import mc, measure

    for rng, piece in mc.draws(seed, workers, budget, cap):
        r, theta = measure.draw_labels(model, piece * labels_per_sample, rng)
        yield np.sqrt(r) * np.exp(1j * theta)


def resolution_gram_reference(model, cutoff, budget, seed, workers):
    """The Monte Carlo Gram matrix of bgcs.measure.resolution_check, from
    whole-piece labels and the row-loop monomials, summed over the same
    blocks of at most measure._BLOCK_ROWS monomial entries."""
    from bgcs import coherent, fock, mc, measure

    space = fock.rep_space(model.n, model.k, cutoff)
    coeffs = coherent.coefficients(space)
    width = max(1, measure._BLOCK_ROWS // space.dim)
    gram = np.zeros((space.dim, space.dim), dtype=complex)
    for z in _whole_pieces(model, budget, seed, workers, mc.CHUNK):
        for start in range(0, len(z), width):
            m = basis_monomials_reference(space, coeffs, z[start:start + width])
            gram += m @ m.conj().T
    return gram / budget


def sliced_trace_reference(hp, k, config):
    """(mean, sem, nonfinite count) of the Monte Carlo sliced trace of
    bgcs.pathint.sliced_trace, from whole-piece labels, fed to the running
    moments over the same blocks of at most measure._BLOCK_ROWS labels."""
    from bgcs import mc, measure
    from bgcs.coherent import _f_series_vec, _overlap_argument

    m_slices = config.slices
    samples = max(1, measure._BLOCK_ROWS // m_slices)
    acc, nonfinite = mc.RunningMoments(), 0
    for z in _whole_pieces(measure.MeasureModel(hp.n, k), config.budget, config.seed,
                           config.workers, max(1, mc.CHUNK // m_slices), m_slices):
        z = z.reshape(-1, m_slices, hp.n)
        for start in range(0, len(z), samples):
            zb = z[start:start + samples]
            x = _overlap_argument(zb, np.roll(zb, 1, axis=1))
            s = np.sum(x, axis=2)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                fk, fk1 = _f_series_vec(k, s), _f_series_vec(k + 1.0, s)
                h_ratio = k * hp.c[-1] + (1.0 / k) * (x @ hp.mu) * fk1 / fk
                prod = np.prod(fk * np.exp(-config.step * h_ratio), axis=1)
            good = np.isfinite(prod)
            nonfinite += int(prod.size - np.count_nonzero(good))
            acc.add(prod[good])
    return acc.mean, acc.sem, nonfinite


def kernel_trace_reference(hp, k, beta, budget, seed, workers):
    """(value, error) of the Monte Carlo bgcs.pathint.exact_kernel_trace, from
    each piece's labels drawn by bgcs.measure.draw_labels, with F summed by
    shell_sum_reference over the same blocks of at most measure._BLOCK_ROWS
    labels."""
    from bgcs import coherent, mc, measure

    model, rows = measure.MeasureModel(hp.n, k), measure._BLOCK_ROWS
    t = np.exp(-beta * hp.mu)
    acc = mc.RunningMoments()
    for rng, piece in mc.draws(seed, workers, budget, mc.CHUNK):
        s = measure.draw_labels(model, piece, rng)[0] @ t
        acc.add(np.concatenate([
            shell_sum_reference(k, s[start:start + rows], coherent.SHELL_TOL, coherent.MAX_SHELLS)
            for start in range(0, piece, rows)]))
    prefactor = math.exp(-beta * k * hp.c[-1])
    return prefactor * acc.mean, prefactor * acc.sem
