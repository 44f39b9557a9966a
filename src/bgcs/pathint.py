"""Hamiltonian matrix elements, exact traces, and the time-sliced trace for

    H = sum_a mu_a E_{aa} + K c_{N+1},   mu_a = c_a + c_{N+1},

whose spectrum on the representation is E_n = K c_{N+1} + sum_a mu_a n_a.

Coherent matrix elements close over the overlap series.  With
x_a = conj(z_a) z'_a and S = sum x,

    <z|H|z'> = K c_{N+1} F_N(K; x)
               + (1/K) sum_a mu_a x_a F_N(K+1; x),

using d/dS 0F1(K; S) = (1/K) 0F1(K+1; S); the finite-section sandwich on
a truncated space reproduces this to near machine precision, and for
N = 1 the exponent of the exponentiated slice weight reduces to the
Bessel ratio  mu sqrt(x) I_K(2 sqrt x) / I_{K-1}(2 sqrt x).

The sliced trace inserts M resolutions of unity into exp(-beta H) (or
exp(-iTH)) and integrates each label against dmu.  Because the angle
integrals force all multi-indices around the cycle to coincide, the
sliced integral is exactly a power sum over one transfer eigenvalue per
basis multi-index:

    Z_M = sum_p lambda_p^M,
    lambda_p = w_p * prod_a p_a! * Gamma(K + |p|) / Gamma(K),

where w_p is the Taylor coefficient of the per-slice weight w(x) at x^p.
Linear weights w = <z|(1 - dt H)|z'> give lambda_p = 1 - dt E_p, i.e.
Tr[(1 - dt H)^M] on the truncation; exponentiated weights
w = <z|z'> exp(-dt <z|H|z'>/<z|z'>) give lambda_p = e^{-dt E_p}(1 + O(dt^2))
at each fixed p, computed here by truncated power-series algebra (product,
quotient, exp by total degree).  Monte Carlo mode instead samples the M
labels from dmu directly and averages the weight product, which estimates
the untruncated sliced integral.

Two divergences are guarded.  On the untruncated space the linear-weight
product diverges (the weights grow without bound along the spectrum), so
Monte Carlo mode refuses linear weights, and linear matrix mode enforces
dt * max|E| < 1.  The exponentiated weight, unlike the overlap, is not
entire: the overlap series has zeros at negative arguments, which the
exponent turns into essential singularities, so the weight's Taylor
coefficients only decay within a finite radius and lambda_p grows
factorially once the degree passes a dt-dependent threshold.  Exp-weight
matrix mode therefore only makes sense at small cutoffs and raises once
max|lambda| leaves the e^{dt max|E|} envelope.

The same singularities sit on the Monte Carlo integration domain once
M >= 2 (a slice argument reaches the negative axis at relative angle pi),
where |w| has logarithmic tails and no finite moments: single samples can
dominate any budget.  Results report nonfinite_count and max_fraction,
and carry variance_warning except in the one provably safe window
(imaginary time, M = 1, horizon * min mu > 1, where the loop argument
stays on the positive diagonal).  Matrix and Monte Carlo backends agree
only to the transfer series' own asymptotic accuracy (the first omitted
|lambda| at optimal truncation), never to statistical error bars; the
tests assert exactly that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import fock, mc, measure
from .coherent import MAX_SHELLS, _f_series_vec, coefficients, f_series
from .quadrature import de_halfline, gauss_legendre_01
from .specfun import bessel_i, log_gamma

VARIANCE_SAFE_LOG = math.log(4.0)  # kernel-trace MC: finite variance needs beta*mu > ln 4
KERNEL_TOL = 1e-9  # relative accuracy of the quadrature kernel trace


@dataclass(frozen=True)
class HamiltonianParams:
    """Linear-in-E_{aa} Hamiltonian, fixed by the N+1 couplings c."""

    c: tuple

    def __post_init__(self):
        c = tuple(float(v) for v in self.c)
        if len(c) < 2 or not all(math.isfinite(v) for v in c):
            raise ValueError(f"need N+1 >= 2 finite couplings, got {self.c!r}")
        object.__setattr__(self, "c", c)

    @property
    def n(self):
        return len(self.c) - 1

    @property
    def mu(self):
        last = self.c[-1]
        return np.array([ca + last for ca in self.c[:-1]])

    @classmethod
    def from_mu(cls, mu, c_last=0.0):
        """Convenience: specify the level spacings mu_a and the additive
        constant coupling directly (c_a = mu_a - c_last)."""
        mu = np.atleast_1d(np.asarray(mu, dtype=float))
        return cls(tuple(mu - c_last) + (float(c_last),))


@dataclass
class TraceConfig:
    """Evaluation plan for the sliced trace."""

    mode: str = "imaginary"  # "imaginary" (weight e^-dt H) or "real" (e^-i dt H)
    horizon: float = 1.0  # beta, or T in real mode
    slices: int = 8
    cutoff: int | None = None
    weights: str = "linear"  # "linear" or "exp"
    backend: str = "matrix"  # "matrix" or "montecarlo"
    budget: int = 100_000
    seed: int = mc.DEFAULT_SEED
    workers: int = 1

    def __post_init__(self):
        if self.mode not in ("imaginary", "real"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.weights not in ("exp", "linear"):
            raise ValueError(f"unknown weight form {self.weights!r}")
        if self.backend not in ("matrix", "montecarlo"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if not isinstance(self.slices, (int, np.integer)) or self.slices < 1:
            raise ValueError(f"need integer slices >= 1, got {self.slices!r}")
        if not math.isfinite(self.horizon):
            raise ValueError(f"need a finite horizon, got {self.horizon}")
        if self.mode == "imaginary" and not self.horizon > 0.0:
            raise ValueError(f"imaginary-time horizon must be positive, got {self.horizon}")

    @property
    def step(self):
        """The per-slice weight multiplier: dt in imaginary time, i dt in real time."""
        dt = self.horizon / self.slices
        return dt if self.mode == "imaginary" else 1j * dt


@dataclass
class TraceResult:
    value: complex
    error: float | None
    params: dict

    def as_dict(self):
        out = dict(self.params)
        v = complex(self.value)
        out["value"] = v.real
        if v.imag != 0.0:
            out["value_im"] = v.imag
        out["error"] = self.error
        return out


def h_matrix_element(z, zp, hp, k):
    """<z|H|z'> through the overlap series."""
    z = np.asarray(z, dtype=complex).ravel()
    zp = np.asarray(zp, dtype=complex).ravel()
    if z.shape != (hp.n,) or zp.shape != (hp.n,):
        raise ValueError(f"labels must have {hp.n} components")
    x = np.conj(z) * zp
    fk = f_series(k, x)
    fk1 = f_series(k + 1.0, x)
    return k * hp.c[-1] * fk + (1.0 / k) * np.sum(hp.mu * x) * fk1


def ratio_exponent_n1(k, h, x):
    """N = 1 exponent of the exponentiated slice weight, in Bessel form:
    h sqrt(x) I_K(2 sqrt x) / I_{K-1}(2 sqrt x), for real x >= 0 and K >= 1.
    Cross-checked against the series form (1/K) h x F(K+1;x)/F(K;x)."""
    if k < 1.0:
        raise ValueError(f"Bessel form needs K >= 1 (order K-1 >= 0), got {k}")
    x = float(x)
    if x < 0.0:
        raise ValueError(f"need x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    root = math.sqrt(x)
    return h * root * bessel_i(k, 2.0 * root) / bessel_i(k - 1.0, 2.0 * root)


def h_operator(hp, k, space):
    """H on a truncated space, assembled from the generator matrices."""
    if space.n != hp.n:
        raise ValueError(f"space has N={space.n} but Hamiltonian has N={hp.n}")
    mu = hp.mu
    op = k * hp.c[-1] * np.eye(space.dim)
    for a in range(hp.n):
        op += mu[a] * fock.generator_matrix(space, a + 1, a + 1)
    return op


def energies(hp, k, space):
    """Spectrum of H on the truncated basis, in basis order."""
    return k * hp.c[-1] + space.occ @ hp.mu


def exact_spectral_trace(hp, k, beta, cutoff=None):
    """Tr exp(-beta H): closed product over modes when cutoff is None,
    otherwise the finite sum over the truncated basis."""
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"need finite beta > 0, got {beta}")
    mu = hp.mu
    if cutoff is None:
        if np.any(mu <= 0.0):
            raise ValueError(f"untruncated trace diverges unless all mu > 0, got {mu.tolist()}")
        value = math.exp(-beta * k * hp.c[-1])
        for m in mu:
            value /= -math.expm1(-beta * m)
        return value
    space = fock.rep_space(hp.n, k, cutoff)
    return float(np.sum(np.exp(-beta * energies(hp, k, space))))


def diagonal_kernel(z, hp, k, beta):
    """<z|exp(-beta H)|z> = e^{-beta K c_{N+1}} F_N(K; (|z_a|^2 e^{-beta mu_a})).

    Each basis amplitude just picks up its Boltzmann factor, which folds
    into the overlap series argument mode by mode.
    """
    if not math.isfinite(beta):
        raise ValueError(f"need finite beta, got {beta}")
    z = np.asarray(z, dtype=complex).ravel()
    if z.shape != (hp.n,):
        raise ValueError(f"label must have {hp.n} components")
    scaled = np.abs(z) ** 2 * np.exp(-beta * hp.mu)
    return math.exp(-beta * k * hp.c[-1]) * f_series(k, scaled)


def _angular_moments(t):
    """Moments m_d = sum_j w_j (g_j / g_max)^d, d = 0..MAX_SHELLS, and g_max of
    the kernel trace's Gauss-Legendre simplex grid for the Boltzmann factors
    t, one stick-breaking axis at a time, never forming the 64^(N-1) points.
    On axis a, g = t_a (1 - x) + x g' (g' = t_N on the last) with node weight
    w x^(N-1-a), and g_max follows the same recursion, as g grows with g'.
    The last axis sums powers; each outer one maps the inner moments by
    M_d <- sum_i w_i x_i^(N-1-a) sum_j C(d, j) u_i^(d-j) x_i^j M_j, with
    u_i = (t_a / g_max) (1 - x_i): one positive-term convolution per node,
    with c^j / j! (c = MAX_SHELLS / e, in double range) in place of 1 / j!."""
    nodes, weights = gauss_legendre_01()
    g_max = float(t[-1])
    for ta in t[-2::-1]:
        g_max = float(np.max(ta * (1.0 - nodes) + nodes * g_max))
    if len(t) == 1:
        return np.ones(MAX_SHELLS + 1), g_max
    ratio = (t[-2] * (1.0 - nodes) + nodes * t[-1]) / g_max
    table = np.vstack([weights, np.broadcast_to(ratio, (MAX_SHELLS, len(nodes)))])
    moments = np.cumprod(table, axis=0, out=table).sum(axis=1)
    powers = np.arange(MAX_SHELLS + 1)
    scale = np.cumprod(np.r_[1.0, (MAX_SHELLS / math.e) / powers[1:]])  # c^d / d!
    for p, ta in enumerate(t[-3::-1], start=1):
        inner = moments * scale
        moments = sum(w * x**p * np.convolve(inner * x**powers, scale * u**powers)[: MAX_SHELLS + 1]
                      for x, w, u in zip(nodes, weights, (ta / g_max) * (1.0 - nodes))) / scale
    return moments, g_max


def _kernel_quadrature(hp, k, beta):
    """int dmu <z|e^{-beta H}|z> via the simplex substitution: Gauss-Legendre
    over the bounded xi variables, double-exponential (to KERNEL_TOL) over
    xi_1 = R, whose factor is (N-1)! times the R density of measure; the
    rule takes the log of their product, a sum of logs.

    The angular grid sum and the shell sum commute exactly:

        sum_j w_j F(K; x g_j) = sum_d Gamma(K) (x g_max)^d m_d / (d! Gamma(K+d)),
        m_d = sum_j w_j (g_j / g_max)^d,

    with every term positive, so the moments m_d are summed once per call,
    one axis at a time (_angular_moments), and each radial node x runs one
    weighted shell pass instead of one per grid point.  The m_d are taken
    from the quadrature grid on purpose: the closed-form moments of g,
    d! (N-1)! / (N-1+d)! h_d(t), would turn this route into the spectral
    trace's product formula, and the kernel-vs-spectral check would then
    compare that formula with itself.
    """
    n = hp.n
    moments, g_max = _angular_moments(np.exp(-beta * hp.mu))
    model = measure.MeasureModel(n, k)
    log_norm = log_gamma(n)  # the grid weights sum to 1/(N-1)!

    def log_f(log_x):
        radial = log_norm + measure._log_radius_density(model, log_x)
        return radial + np.log(_f_series_vec(k, np.exp(log_x) * g_max, weights=moments))

    return de_halfline(
        log_f, min(k, float(n)), ("sqrt", 2.0 * (1.0 - math.sqrt(g_max))),
        tol=KERNEL_TOL, growth=0.5 * (k + n),
    )


def exact_kernel_trace(hp, k, beta, mode="quadrature", budget=10**6,
                       seed=mc.DEFAULT_SEED, workers=1):
    """Trace of exp(-beta H) computed as the measure integral of the
    diagonal kernel; must reproduce exact_spectral_trace.

    Quadrature mode, to KERNEL_TOL, has no cap on N (its angular moments cost
    O(64 D^2) per axis, D = MAX_SHELLS + 1); OverflowError where F overflows.

    Monte Carlo mode averages the diagonal kernel over exact samples.  Its
    second moment is finite only when every beta*mu_a exceeds ln 4 (the
    kernel grows like exp(2 sqrt(t_max R)) against a measure tail
    exp(-2 sqrt R) with t_max = max e^{-beta mu}); outside that regime the
    result carries variance_warning=True and the error bar is not
    trustworthy.
    """
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"need finite beta > 0, got {beta}")
    if np.any(hp.mu <= 0.0):
        raise ValueError(f"kernel trace needs all mu > 0, got {hp.mu.tolist()}")
    params = {"n": hp.n, "k": k, "c": list(hp.c), "beta": beta, "mode": mode}
    prefactor = math.exp(-beta * k * hp.c[-1])
    if mode == "quadrature":
        value, err = _kernel_quadrature(hp, k, beta)
        return TraceResult(prefactor * value, prefactor * err, params)
    if mode != "montecarlo":
        raise ValueError(f"unknown mode {mode!r}")
    model = measure.MeasureModel(hp.n, k)
    t = np.exp(-beta * hp.mu)
    acc = mc.RunningMoments()
    for rng, chunk in mc.draws(seed, workers, budget, cap=mc.CHUNK):
        r, _ = measure.draw_labels(model, chunk, rng)
        acc.add(_f_series_vec(k, r @ t))
    params.update(budget=int(budget), seed=int(seed), workers=int(workers),
                  variance_warning=bool(beta * float(np.min(hp.mu)) <= VARIANCE_SAFE_LOG),
                  max_fraction=acc.max_fraction)
    return TraceResult(prefactor * acc.mean, prefactor * acc.sem, params)


# --- sliced trace ----------------------------------------------------------


@lru_cache(maxsize=64)
def _conv_table(n, cutoff):
    """Index arrays (i, j, t) over the basis pairs with n_i + n_j = n_t,
    ordered by the degree of t and then by (i, j); shared by series
    product, quotient, and exp."""
    space = fock.rep_space(n, 1.0, cutoff)
    deg = space.deg
    partners = np.searchsorted(deg, cutoff - deg, side="right")  # the j with |i| + |j| <= cutoff
    i = np.repeat(np.arange(space.dim), partners)
    j = np.arange(len(i)) - np.repeat(np.cumsum(partners) - partners, partners)
    order = np.argsort(deg[i] + deg[j], kind="stable")
    i, j = i[order], j[order]
    table = (i, j, space.rank(space.occ[i] + space.occ[j]))
    for arr in table:
        arr.flags.writeable = False  # the cache hands the same arrays to every caller
    return table


def _degree_blocks(table, deg):
    """Per total degree d >= 1: the pairs (i, j, t) with |i| > 0 and |t| = d,
    whose j all lie below degree d, and the slice of degree-d basis indices."""
    i, j, t = (arr[table[0] > 0] for arr in table)
    levels = np.arange(1, deg[-1] + 2)
    pair_edges, basis_edges = np.searchsorted(deg[t], levels), np.searchsorted(deg, levels)
    for p0, p1, b0, b1 in zip(pair_edges, pair_edges[1:], basis_edges, basis_edges[1:]):
        yield i[p0:p1], j[p0:p1], t[p0:p1], slice(b0, b1)


def _series_mul(a, b, table):
    # np.add.at and np.subtract.at apply repeated indices in order, so every
    # coefficient here and below sums its terms in (i, j) order
    i, j, t = table
    out = np.zeros(len(a), dtype=np.result_type(a, b))
    np.add.at(out, t, a[i] * b[j])
    return out


def _series_div(a, b, table, deg):
    """Quotient of truncated series, one total degree at a time:
    b_0 out_t = a_t - sum over |i| > 0 of b_i out_j."""
    out = np.array(a, dtype=np.result_type(a, b, float))
    out[0] /= b[0]
    for i, j, t, block in _degree_blocks(table, deg):
        np.subtract.at(out, t, out[j] * b[i])
        out[block] /= b[0]
    return out


def _series_exp(a, table, deg):
    """exp of a truncated series, graded by total degree via the Euler
    identity deg * E_t = sum_{i+j=t} deg_i a_i E_j."""
    out = np.zeros(len(a), dtype=np.result_type(a, float))
    out[0] = np.exp(a[0])
    for i, j, t, block in _degree_blocks(table, deg):
        np.add.at(out, t, deg[i] * a[i] * out[j])
        out[block] /= deg[block]
    return out


def transfer_eigenvalues(hp, k, cutoff, step, weights):
    """One eigenvalue per truncated multi-index for the per-slice weight.

    linear: 1 - step * E_p exactly.  exp: Taylor coefficients of
    F_N(K;x) exp(-step (K c_{N+1} + (1/K) sum mu_a x_a F_N(K+1;x)/F_N(K;x)))
    scaled by 1/C_p^2; the series algebra is exact up to the cutoff degree.
    """
    space = fock.rep_space(hp.n, k, cutoff)
    if weights == "linear":
        return 1.0 - step * energies(hp, k, space)
    table = _conv_table(hp.n, cutoff)
    mu = hp.mu
    fk = coefficients(space) ** 2
    fk1 = coefficients(replace(space, k=k + 1.0)) ** 2
    # num = sum_a mu_a x_a F_N(K+1; x): x_a shifts each coefficient up along mode a
    inner = space.deg < cutoff
    num = np.zeros(space.dim)
    for a in range(hp.n):
        child = space.occ[inner]
        child[:, a] += 1
        num[space.rank(child)] += mu[a] * fk1[inner]
    exponent = -step * ((1.0 / k) * _series_div(num, fk, table, space.deg))
    exponent[0] = exponent[0] - step * k * hp.c[-1]
    w = _series_mul(fk, _series_exp(exponent, table, space.deg), table)
    return w / fk


def sliced_trace(hp, k, config):
    """The M-slice trace in the requested mode/backend; see module docstring."""
    step = config.step
    params = {
        "n": hp.n, "k": k, "c": list(hp.c), "mode": config.mode,
        "horizon": config.horizon, "slices": config.slices,
        "weights": config.weights, "backend": config.backend,
    }
    if config.backend == "matrix":
        if config.cutoff is None:
            raise ValueError("matrix backend requires a cutoff")
        params["cutoff"] = config.cutoff
        space = fock.rep_space(hp.n, k, config.cutoff)
        radius = float(np.max(np.abs(energies(hp, k, space))))
        dt = abs(config.step)
        if config.weights == "linear" and dt * radius >= 1.0:
            raise ValueError(
                f"unstable configuration: dt*max|E| = {dt * radius:.3g} >= 1; "
                f"raise slices above {config.horizon * radius:.3g} or lower the cutoff"
            )
        lam = transfer_eigenvalues(hp, k, config.cutoff, step, config.weights)
        lam_max = float(np.max(np.abs(lam)))
        envelope = 2.0 * math.exp(dt * radius)
        if config.weights == "exp" and lam_max > envelope:
            raise ValueError(
                f"exponentiated-weight transfer spectrum left its convergence "
                f"regime: max|lambda| = {lam_max:.3g} exceeds the spectral "
                f"envelope {envelope:.3g}; the slice weight's power series has "
                f"a finite radius, so raise slices or lower the cutoff"
            )
        value = complex(np.sum(lam**config.slices))
        if value.imag == 0.0:
            value = value.real
        return TraceResult(value, None, params)

    # Monte Carlo over M independent labels per sample
    if config.weights == "linear":
        raise ValueError(
            "montecarlo backend cannot use linear weights: the sliced product "
            "diverges on the untruncated space"
        )
    model = measure.MeasureModel(hp.n, k)
    mu = hp.mu
    m_slices = config.slices
    acc = mc.RunningMoments()
    nonfinite = 0
    for rng, chunk in mc.draws(config.seed, config.workers, config.budget,
                               cap=max(1, mc.CHUNK // m_slices)):
        r, theta = measure.draw_labels(model, chunk * m_slices, rng)
        z = (np.sqrt(r) * np.exp(1j * theta)).reshape(chunk, m_slices, hp.n)
        x = np.conj(z) * np.roll(z, 1, axis=1)  # slice j against slice j-1
        s = np.sum(x, axis=2)
        # Near zeros of the overlap series the exponent ratio blows up
        # with either sign (the essential singularities described in the
        # module docstring); keep those spikes out of the accumulator but
        # count them, and let max_fraction expose finite near-spikes.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            fk = _f_series_vec(k, s)
            fk1 = _f_series_vec(k + 1.0, s)
            h_ratio = k * hp.c[-1] + (1.0 / k) * (x @ mu) * fk1 / fk
            prod = np.prod(fk * np.exp(-step * h_ratio), axis=1)
        good = np.isfinite(prod)
        nonfinite += int(prod.size - np.count_nonzero(good))
        acc.add(prod[good])
    # Finite variance requires staying off the singular set (M = 1, where the
    # loop argument is the positive diagonal) with horizon * mu beating the
    # overlap growth; everything else gets a standing warning.
    safe = (config.mode == "imaginary" and m_slices == 1
            and config.horizon * float(np.min(mu)) > 1.0)
    params.update(budget=int(config.budget), seed=int(config.seed),
                  workers=int(config.workers), nonfinite_count=int(nonfinite),
                  variance_warning=not safe, max_fraction=acc.max_fraction)
    return TraceResult(acc.mean, acc.sem, params)
