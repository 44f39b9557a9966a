"""The radial Bessel measure, its factorized quadrature scheme, the exact
sampler, and the integral-identity checks built on them.

With z_a = sqrt(r_a) e^{i theta_a}, the coherent-state measure is
dmu = sigma(r) (1/2)^N prod dr_a dtheta_a, where

    sigma(r) = (2 / (pi^N Gamma(K))) R^((K-N)/2) K_{K-N}(2 sqrt R),
    R        = r_1 + ... + r_N.

dmu has total mass one, every angle is uniform, and the radial moments are

    pi^N Gamma(K) int sigma prod r_a^{n_a} dr = prod Gamma(n_a + 1) * Gamma(K + |n|),

which is exactly what the resolution of unity needs, for every K > 0.

The moment integral is evaluated through the simplex substitution

    r_1 = xi_1 (1 - xi_2), ..., r_{N-1} = xi_1 ... xi_{N-1}(1 - xi_N),
    r_N = xi_1 ... xi_N,     Jacobian  xi_1^{N-1} xi_2^{N-2} ... xi_{N-1},

under which the integrand factorizes exactly into N-1 beta-type factors
on (0,1) and one half-line factor carrying the K-Bessel weight.  Bounded
factors use 64-node Gauss-Legendre (exact for integer exponents, tanh-sinh
for fractional ones); the half-line uses the double-exponential transform.

The same machinery verifies both closed-form integral identities:

    (A)  int prod dr_a r_a^{s_a} 2 R^((K-N)/2) K_{K-N}(2 sqrt R)
             = prod Gamma(s_a + 1) * Gamma(K + sum s),      s_a > -1, K > 0
    (B)  int_0^oo x^(mu-1) K_nu(a x) dx
             = 2^(mu-2) a^(-mu) Gamma((mu+nu)/2) Gamma((mu-nu)/2),  mu > |nu|, a > 0

with (A) driven through the xi substitution and (B) through a direct
half-line transform, so the two verifiers share no common quadrature path.

Sampling is exact through the Gamma mixture behind sigma: draw
x ~ Gamma(K, 1), then r_a as iid exponentials with mean x and uniform
angles.  Marginalizing x reproduces sigma, so no rejection step and no
truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import coherent, fock, mc
from .quadrature import _tanh_sinh, de_halfline, power_integral_01
from .specfun import _bessel_k_log_vec, gamma, log_gamma

QUAD_TOL = 1e-11  # the accuracy of every integral below: R CDF, formulas (A) and (B)


@dataclass(frozen=True)
class MeasureModel:
    """The (N, K) pair fixing one measure."""

    n: int
    k: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"need integer n >= 1, got {self.n!r}")
        if not (float(self.k) > 0.0 and math.isfinite(float(self.k))):
            raise ValueError(f"need k > 0, got {self.k!r}")


def density(model, r):
    """Radial density sigma(r) at one point r (componentwise >= 0).

    At the origin the density is finite only for K > N, where the limit
    is Gamma(K-N) / (pi^N Gamma(K)); for K <= N the origin is an
    integrable singularity and asking for the value raises.  Elsewhere
    sigma is exp of a sum of logs, finite where R^((K-N)/2) vanishes and
    K_{K-N} alone leaves double range; OverflowError where sigma does.
    """
    r = np.asarray(r, dtype=float)
    if r.shape != (model.n,):
        raise ValueError(f"need {model.n} radial components, got shape {r.shape}")
    if np.any(r < 0.0):
        raise ValueError("radial components must be nonnegative")
    nu = model.k - model.n
    big_r = float(np.sum(r))
    if big_r == 0.0:
        if nu <= 0.0:
            raise ValueError(
                f"density is singular at the origin for K <= N (K={model.k}, N={model.n})"
            )
        return gamma(nu) / (math.pi**model.n * gamma(model.k))
    log_norm = math.log(2.0) - model.n * math.log(math.pi) - log_gamma(model.k)
    x = np.array([2.0 * math.sqrt(big_r)])
    log_k = float(_bessel_k_log_vec(nu, x, np.log(x))[0])
    try:
        return math.exp(log_norm + 0.5 * nu * math.log(big_r) + log_k)
    except OverflowError:
        raise OverflowError(f"density at R={big_r} exceeds double range "
                            f"(K={model.k}, N={model.n})") from None


def _log_bessel_k(nu, log_x):
    """log K_nu(x) from log x; x itself may underflow to 0."""
    return _bessel_k_log_vec(nu, np.exp(log_x), log_x)


def _log_radius_density(model, log_r):
    """log of the density of R = sum r_a under dmu, from log R:
    f(R) = 2 R^((K+N)/2 - 1) K_{K-N}(2 sqrt R) / (Gamma(K) Gamma(N)), a sum
    of logs, finite where R underflows or the power vanishes while K_{K-N}
    leaves double range."""
    log_norm = math.log(2.0) - log_gamma(model.k) - log_gamma(model.n)
    log_k = _log_bessel_k(model.k - model.n, math.log(2.0) + 0.5 * log_r)
    return log_norm + (0.5 * (model.k + model.n) - 1.0) * log_r + log_k


def total_radius_density(model, big_r):
    """Density of R = sum r_a under dmu (vectorized over big_r), the exp of
    _log_radius_density."""
    big_r = np.atleast_1d(np.asarray(big_r, dtype=float))
    if np.any(big_r <= 0.0):
        raise ValueError("need R > 0")
    return np.exp(_log_radius_density(model, np.log(big_r)))


def radial_cdf(model, q):
    """P(R <= q) under dmu to QUAD_TOL, by tanh-sinh integration of the R
    density in log R.  The density behaves like R^(min(K, N) - 1) at the
    origin, so the rule's window reaches R = q e^(-55/min(K, N)), where R
    itself has long underflowed for small K: every K > 0 works."""
    q = float(q)
    if q <= 0.0:
        raise ValueError(f"need q > 0, got {q}")
    log_q = math.log(q)
    value, _ = _tanh_sinh(lambda log_x, _: log_q + _log_radius_density(model, log_q + log_x),
                          min(model.k, float(model.n)), QUAD_TOL)
    return float(value)


# --- factorized quadrature -------------------------------------------------


@lru_cache(maxsize=4096)
def _halfline_bessel_factor(c, nu):
    """int_0^oo xi^(c-1) K_nu(2 sqrt xi) dxi by the half-line transform.

    Near zero the integrand behaves like xi^(c - |nu|/2 - 1), so c must
    exceed |nu|/2; the tail decays like exp(-2 sqrt xi) with power-law
    prefactor xi^(c - 5/4).
    """
    c_eff = c - 0.5 * abs(nu)
    if c_eff <= 0.0:
        raise ValueError(f"half-line factor needs c > |nu|/2, got c={c}, nu={nu}")

    def log_f(log_x):
        return (c - 1.0) * log_x + _log_bessel_k(nu, math.log(2.0) + 0.5 * log_x)

    value, _ = de_halfline(log_f, c_eff, ("sqrt", 2.0), tol=QUAD_TOL, growth=c - 1.25)
    return value


def _bounded_exponents(n, s):
    """(p_j, q_j) exponent pairs of the bounded xi factors, j = 2..N."""
    pairs = []
    for j in range(2, n + 1):
        p = (n - j) + float(np.sum(s[j - 1 :]))
        q = float(s[j - 2])
        pairs.append((p, q))
    return pairs


def _bessel_moment_lhs(n, k, s):
    """Formula (A) left side through the xi substitution."""
    total = float(np.sum(s))
    value = 2.0 * _halfline_bessel_factor(0.5 * (k + n) + total, k - n)
    for p, q in _bounded_exponents(n, s):
        value *= power_integral_01(p, q, tol=QUAD_TOL)
    return value


@dataclass
class CheckResult:
    """One verified identity: numerical lhs, closed-form rhs, relative error."""

    check: str
    params: dict
    lhs: float
    rhs: float

    @property
    def rel_err(self):
        return abs(self.lhs - self.rhs) / abs(self.rhs)

    def as_dict(self):
        return {
            "check": self.check,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "rel_err": self.rel_err,
        }


def verify_formula_a(n, k, s):
    """Quadrature-vs-closed-form check, to QUAD_TOL, of the N-dimensional
    Bessel moment integral (A) at real exponents s_a > -1."""
    s = np.asarray(s, dtype=float).ravel()
    if s.shape != (n,):
        raise ValueError(f"need {n} exponents, got shape {s.shape}")
    if not (math.isfinite(k) and np.all(np.isfinite(s))):
        raise ValueError(f"K and the exponents must be finite, got K={k}, s={s.tolist()}")
    if np.any(s <= -1.0):
        raise ValueError(f"exponents must exceed -1, got {s.tolist()}")
    if not k > 0.0:
        raise ValueError(f"need K > 0, got {k}")
    total = float(np.sum(s))
    if not total + min(k, n) > 0.0:
        raise ValueError(f"need sum(s) + min(K, N) > 0 for convergence, "
                         f"got sum(s)={total!r}, K={k}, N={n}")
    lhs = _bessel_moment_lhs(n, k, s)
    rhs = math.exp(sum(log_gamma(v + 1.0) for v in s) + log_gamma(k + total))
    return CheckResult(
        "formula_a", {"n": int(n), "k": float(k), "s": s.tolist()}, float(lhs), rhs
    )


def verify_formula_b(mu, nu, a):
    """Quadrature-vs-closed-form check of the Mellin-type K transform (B) to
    QUAD_TOL; the direct half-line route, sharing no path with verify_formula_a."""
    mu, nu, a = float(mu), float(nu), float(a)
    if not all(map(math.isfinite, (mu, nu, a))):
        raise ValueError(f"mu, nu and a must be finite, got mu={mu}, nu={nu}, a={a}")
    if a <= 0.0:
        raise ValueError(f"need a > 0, got {a}")
    if mu <= abs(nu):
        raise ValueError(f"need mu > |nu| for convergence, got mu={mu}, nu={nu}")

    log_a = math.log(a)

    def log_f(log_x):
        return (mu - 1.0) * log_x + _log_bessel_k(nu, log_a + log_x)

    lhs, _ = de_halfline(log_f, mu - abs(nu), ("lin", a), tol=QUAD_TOL, growth=mu - 1.5)
    rhs = math.exp(
        (mu - 2.0) * math.log(2.0)
        - mu * math.log(a)
        + log_gamma(0.5 * (mu + nu))
        + log_gamma(0.5 * (mu - nu))
    )
    return CheckResult("formula_b", {"mu": mu, "nu": nu, "a": a}, float(lhs), rhs)


def moment_check(model, n_vec):
    """Radial moment identity at integer occupations n_vec:
    quadrature value of pi^N Gamma(K) int sigma prod r^n against
    prod Gamma(n_a + 1) * Gamma(K + |n|)."""
    n_vec = tuple(int(v) for v in n_vec)
    if len(n_vec) != model.n or any(v < 0 for v in n_vec):
        raise ValueError(f"need {model.n} nonnegative integer exponents, got {n_vec}")
    result = verify_formula_a(model.n, model.k, np.array(n_vec, dtype=float))
    return CheckResult(
        "moment", {"n": model.n, "k": model.k, "occupations": list(n_vec)},
        result.lhs, result.rhs,
    )


# --- exact sampler ---------------------------------------------------------


def draw_labels(model, count, rng):
    """Draw `count` labels from dmu with a caller-owned Generator.

    Gamma mixture: x ~ Gamma(K, 1); r_a | x iid exponential with mean x;
    theta_a uniform on [0, 2 pi).  Returns (r, theta), each (count, N).
    """
    x = rng.gamma(shape=model.k, scale=1.0, size=count)
    r = rng.exponential(scale=1.0, size=(count, model.n)) * x[:, None]
    theta = rng.uniform(0.0, 2.0 * math.pi, size=(count, model.n))
    return r, theta


def sample(model, count, seed=mc.DEFAULT_SEED, workers=1):
    """Labels from dmu, deterministic for fixed (seed, workers)."""
    parts_r, parts_t = [], []
    for rng, part in mc.draws(seed, workers, count, cap=count):
        r, theta = draw_labels(model, part, rng)
        parts_r.append(r)
        parts_t.append(theta)
    return np.concatenate(parts_r), np.concatenate(parts_t)


# Probe ladder for the total-radius CDF test, in units of E[R] = N K.  Ten
# fixed multiples spanning the body and both shoulders of the distribution;
# every probe is some quantile of R and p(1-p) stays well away from zero.
CDF_PROBE_SCALES = (0.1, 0.25, 0.4, 0.6, 0.8, 1.0, 1.3, 1.7, 2.2, 3.0)
FOURIER_MODES = (1, 2)  # angular modes m of the E[exp(i m theta_a)] = 0 rows


def sampler_report(model, count, seed=mc.DEFAULT_SEED, workers=1):
    """Moment, angular-mode, and total-radius CDF estimates from the exact
    sampler, each with its standard error and the independently computed
    expectation it should match.

    Checks: E[r_a] = K, E[r_a^2] = 2K(K+1), E[r_a r_b] = K(K+1) for a != b,
    E[exp(i m theta_a)] = 0 for m in FOURIER_MODES, and the empirical CDF of
    R at ten fixed quantiles against its tanh-sinh integral, radial_cdf.
    """
    k = model.k
    stats = {}

    def slot(name, expected):
        stats[name] = (mc.RunningMoments(), expected)

    for a in range(model.n):
        slot(f"r[{a}]", k)
        slot(f"r[{a}]^2", 2.0 * k * (k + 1.0))
        for m in FOURIER_MODES:
            slot(f"exp(i{m}theta[{a}])", 0.0)
    for a in range(model.n):
        for b in range(a + 1, model.n):
            slot(f"r[{a}]r[{b}]", k * (k + 1.0))

    probes = [s * model.n * k for s in CDF_PROBE_SCALES]
    probe_cdf = [radial_cdf(model, q) for q in probes]
    below = np.zeros(len(probes), dtype=np.int64)

    for rng, part in mc.draws(seed, workers, count, cap=count):
        r, theta = draw_labels(model, part, rng)
        for a in range(model.n):
            stats[f"r[{a}]"][0].add(r[:, a])
            stats[f"r[{a}]^2"][0].add(r[:, a] ** 2)
            for m in FOURIER_MODES:
                stats[f"exp(i{m}theta[{a}])"][0].add(np.exp(1j * m * theta[:, a]))
        for a in range(model.n):
            for b in range(a + 1, model.n):
                stats[f"r[{a}]r[{b}]"][0].add(r[:, a] * r[:, b])
        big_r = np.sum(r, axis=1)
        for j, q in enumerate(probes):
            below[j] += int(np.count_nonzero(big_r <= q))

    rows = []
    for name, (acc, expected) in stats.items():
        sem = acc.sem
        dev = abs(acc.mean - expected)
        rows.append(
            {
                "quantity": name,
                "estimate_re": float(np.real(acc.mean)),
                "estimate_im": float(np.imag(acc.mean)),
                "expected": expected,
                "sem": sem,
                "z_score": dev / sem if sem > 0 else math.inf,
            }
        )
    for j, q in enumerate(probes):
        p = probe_cdf[j]
        p_hat = below[j] / count
        sem = math.sqrt(p * (1.0 - p) / count)
        rows.append(
            {
                "quantity": f"cdf(R<={q:.6g})",
                "estimate_re": float(p_hat),
                "estimate_im": 0.0,
                "expected": float(p),
                "sem": sem,
                "z_score": abs(p_hat - p) / sem if sem > 0 else math.inf,
            }
        )
    return {
        "check": "sampler_moments",
        "params": {"n": model.n, "k": model.k},
        "budget": int(count),
        "seed": int(seed),
        "workers": int(workers),
        "rows": rows,
        "max_z": max(row["z_score"] for row in rows),
    }


# --- resolution of unity ---------------------------------------------------


@dataclass
class ResolutionResult:
    """Gram-vs-identity deviation over a truncated basis."""

    mode: str
    params: dict
    max_dev: float
    max_z: float | None = None

    def as_dict(self):
        out = {"check": "resolution_of_unity", "mode": self.mode, "params": self.params,
               "max_dev": self.max_dev}
        if self.max_z is not None:
            out["z_score"] = self.max_z
        return out


def _basis_monomials(space, z):
    """Matrix M[i, s] = C_i * prod_a z[s, a]^{n_a(i)} over samples s."""
    count = z.shape[0]
    powers = []
    for a in range(space.n):
        col = [np.ones(count, dtype=complex)]
        for _ in range(space.cutoff):
            col.append(col[-1] * z[:, a])
        powers.append(col)
    m = np.empty((space.dim, count), dtype=complex)
    coeffs = coherent.coefficients(space).tolist()
    for i, state in enumerate(space.occ.tolist()):
        m[i] = coeffs[i]
        for a, na in enumerate(state):
            if na:
                m[i] *= powers[a][na]
    return m


def resolution_check(model, cutoff, mode="quadrature", budget=10**5,
                     seed=mc.DEFAULT_SEED, workers=1):
    """Deviation of the Gram matrix G_mn = int dmu <m|z><z|n> from the
    identity on the degree-truncated basis.

    quadrature mode: the angle integrals separate exactly and kill every
    off-diagonal entry, so the only numerical content is the diagonal,
    G_nn = (moment quadrature) / (closed-form moment); returns the max
    diagonal deviation.

    montecarlo mode: estimates every entry from samples and compares
    against the identity; each entry carries an analytic standard error
    derived from the closed-form fourth moments, and max_z is the largest
    |G - I| in units of that error.
    """
    space = fock.rep_space(model.n, model.k, cutoff)
    if mode == "quadrature":
        max_dev = 0.0
        for state in space.occ.tolist():
            res = moment_check(model, state)
            max_dev = max(max_dev, res.rel_err)
        return ResolutionResult(
            "quadrature", {"n": model.n, "k": model.k, "cutoff": cutoff}, float(max_dev)
        )
    if mode != "montecarlo":
        raise ValueError(f"unknown mode {mode!r}")

    dim = space.dim
    gram = np.zeros((dim, dim), dtype=complex)
    width = max(1, mc.CHUNK // dim)  # samples per monomial block of <= CHUNK entries
    for rng, chunk in mc.draws(seed, workers, budget, cap=mc.CHUNK):
        r, theta = draw_labels(model, chunk, rng)
        z = np.sqrt(r) * np.exp(1j * theta)
        for start in range(0, chunk, width):
            m = _basis_monomials(space, z[start:start + width])
            gram += m @ m.conj().T
    gram /= budget

    # analytic per-entry variance: E|g|^2 = C_m^2 C_n^2 prod (m_a+n_a)! *
    # Gamma(K + |m|+|n|) / Gamma(K), minus |delta_mn|^2
    k, occ, deg = model.k, space.occ, space.deg
    log_c = np.array([math.log(c) for c in coherent.coefficients(space).tolist()])
    log_fact = np.array([math.lgamma(v + 1.0) for v in range(2 * cutoff + 1)])
    log_gamma_kd = np.array([[math.lgamma(k + di + dj) for dj in range(cutoff + 1)]
                             for di in range(cutoff + 1)])
    log_c2 = 2.0 * log_c[:, None] + 2.0 * log_c[None, :]
    log_m2 = (sum(log_fact[occ[:, None, a] + occ[None, :, a]] for a in range(model.n))
              + log_gamma_kd[deg[:, None], deg[None, :]] - log_gamma(k))
    var = np.maximum(np.exp(log_c2 + log_m2) - np.eye(dim), 1e-300)
    dev = np.abs(gram - np.eye(dim))
    zsc = dev / np.sqrt(var / budget)
    return ResolutionResult(
        "montecarlo",
        {"n": model.n, "k": model.k, "cutoff": cutoff, "budget": int(budget),
         "seed": int(seed), "workers": int(workers)},
        float(np.max(dev)),
        float(np.max(zsc)),
    )
