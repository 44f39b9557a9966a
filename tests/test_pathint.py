"""Sliced traces: Hamiltonian pieces, kernel and spectral routes, the
transfer spectrum in both weight forms, stability guards, and the Monte
Carlo backend inside and outside its safe window."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special

import oracles
from bgcs import coherent, fock, measure, pathint, specfun

# frozen via tests/oracles.py geometric_trace
Z_BETA_1 = 1.5819767068693264
Z_BETA_2 = 1.1565176427496657
# frozen via tests/oracles.py transfer_lambda_n1 (mpmath Taylor route), which
# matches the hand expansion 1, 1-D, 1-2D+2D^2, 1-3D-6D^3 at D = 1/64
LAM_EXP_K1 = (1.0, 0.984375, 0.96923828125, 0.953102111816406, 0.949403285980225)


def test_hamiltonian_params():
    hp = pathint.HamiltonianParams((0.7, 1.7, 0.3))
    assert hp.n == 2
    assert hp.mu == pytest.approx([1.0, 2.0])
    again = pathint.HamiltonianParams.from_mu([1.0, 2.0], c_last=0.3)
    assert again.c == pytest.approx(hp.c)
    with pytest.raises(ValueError):
        pathint.HamiltonianParams((1.0,))
    with pytest.raises(ValueError):
        pathint.HamiltonianParams((math.inf, 0.0))


def test_trace_config():
    cfg = pathint.TraceConfig(mode="imaginary", horizon=2.0, slices=8)
    assert cfg.step == pytest.approx(0.25)
    cfg = pathint.TraceConfig(mode="real", horizon=2.0, slices=4)
    assert cfg.step == pytest.approx(0.5j)
    with pytest.raises(ValueError, match="unknown backend 'mc'"):
        pathint.TraceConfig(backend="mc")
    with pytest.raises(ValueError):
        pathint.TraceConfig(mode="thermal")
    with pytest.raises(ValueError):
        pathint.TraceConfig(weights="cubic")
    with pytest.raises(ValueError):
        pathint.TraceConfig(slices=0)
    with pytest.raises(ValueError):
        pathint.TraceConfig(mode="imaginary", horizon=-1.0)


def test_matrix_element_vs_operator_sandwich():
    """Closed form against the truncated operator between coherent vectors."""
    hp = pathint.HamiltonianParams.from_mu([1.0, 2.0], c_last=0.4)
    k = 1.5
    space = fock.rep_space(2, k, 30)
    h = pathint.h_operator(hp, k, space)
    z = np.array([0.3 + 0.2j, -0.5 + 0.1j])
    zp = np.array([0.6 - 0.1j, 0.2 + 0.4j])
    vz = coherent.state_vector(z, space)
    vzp = coherent.state_vector(zp, space)
    sandwich = np.vdot(vz, h @ vzp)
    closed = pathint.h_matrix_element(z, zp, hp, k)
    assert complex(closed) == pytest.approx(complex(sandwich), rel=1e-12)


@pytest.mark.parametrize("k", [1.0, 2.5])
@pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 7.5])
def test_ratio_exponent_bessel_vs_series(k, x):
    """The Bessel-quotient exponent equals the series quotient to 1e-12."""
    h = 1.3
    bessel_form = pathint.ratio_exponent_n1(k, h, x)
    series_form = (h / k) * x * coherent.f_series(k + 1.0, [x]) / coherent.f_series(k, [x])
    assert bessel_form == pytest.approx(series_form, rel=1e-12, abs=1e-12)


def test_ratio_exponent_domain():
    with pytest.raises(ValueError):
        pathint.ratio_exponent_n1(0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        pathint.ratio_exponent_n1(1.0, 1.0, -1.0)


def test_h_operator_diagonal_matches_energies():
    hp = pathint.HamiltonianParams.from_mu([0.8, 1.4], c_last=0.2)
    space = fock.rep_space(2, 2.0, 4)
    h = pathint.h_operator(hp, 2.0, space)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
    assert np.diag(h) == pytest.approx(pathint.energies(hp, 2.0, space), rel=1e-14)


def test_spectral_trace_frozen_and_truncated():
    hp = pathint.HamiltonianParams.from_mu([1.0])
    assert pathint.exact_spectral_trace(hp, 1.0, 1.0) == pytest.approx(Z_BETA_1, rel=1e-13)
    assert pathint.exact_spectral_trace(hp, 1.0, 2.0) == pytest.approx(Z_BETA_2, rel=1e-13)
    # c_last and K shift the whole spectrum: Z -> e^{-beta K c} Z
    shifted = pathint.HamiltonianParams.from_mu([1.0], c_last=0.5)
    assert pathint.exact_spectral_trace(shifted, 2.0, 1.0) == pytest.approx(
        math.exp(-1.0) * Z_BETA_1, rel=1e-13)
    # truncated sum approaches the closed product from below
    full = pathint.exact_spectral_trace(hp, 1.0, 1.0)
    coarse = pathint.exact_spectral_trace(hp, 1.0, 1.0, cutoff=10)
    assert coarse < full
    assert full - coarse == pytest.approx(math.exp(-11.0) * full, rel=1e-9)
    assert pathint.exact_spectral_trace(hp, 1.0, 1.0, cutoff=40) == pytest.approx(
        full, rel=1e-15)
    with pytest.raises(ValueError):
        pathint.exact_spectral_trace(pathint.HamiltonianParams.from_mu([-1.0]), 1.0, 1.0)
    with pytest.raises(ValueError):
        pathint.exact_spectral_trace(hp, 1.0, -2.0)


def test_diagonal_kernel_vs_expm():
    hp = pathint.HamiltonianParams.from_mu([1.0, 1.7], c_last=0.3)
    k, beta = 1.5, 0.8
    space = fock.rep_space(2, k, 25)
    h = pathint.h_operator(hp, k, space)
    z = np.array([0.4 + 0.3j, -0.2 + 0.5j])
    v = coherent.state_vector(z, space)
    sandwich = np.vdot(v, scipy.linalg.expm(-beta * h) @ v)
    closed = pathint.diagonal_kernel(z, hp, k, beta)
    assert complex(closed) == pytest.approx(complex(sandwich), rel=1e-12)


KERNEL_MU = {1: [1.0], 2: [1.0, 1.6], 3: [1.0, 1.3, 1.7], 4: [1.0, 1.3, 1.7, 2.1],
             5: [1.0, 1.3, 1.7, 2.1, 2.5], 6: [1.0, 1.3, 1.7, 2.1, 2.5, 2.9]}


@pytest.mark.parametrize("n,k,beta", [(1, 0.5, 1.0), (1, 2.5, 2.0), (2, 1.0, 0.5),
                                      (3, 3.5, 0.5), (4, 4.5, 2.0), (5, 2.5, 2.0),
                                      (6, 0.7, 1.0)])
def test_kernel_trace_quadrature_matches_spectral(n, k, beta):
    hp = pathint.HamiltonianParams.from_mu(KERNEL_MU[n], c_last=0.3)
    res = pathint.exact_kernel_trace(hp, k, beta, mode="quadrature")
    expected = pathint.exact_spectral_trace(hp, k, beta)
    assert res.value == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("n,k,beta", [(1, 0.5, 1.0), (1, 2.5, 0.5), (2, 1.0, 0.5),
                                      (2, 2.5, 2.0), (3, 2.5, 2.0), (3, 3.5, 0.5),
                                      (4, 2.5, 0.5)])
def test_kernel_moment_form_is_the_grid_sum(monkeypatch, n, k, beta):
    """The angular moment form of the log integrand equals the reference that
    sums F(K; x g_j) over every point of the explicit grid
    (oracles.angular_grid), in log form: bit for bit at N = 1, where the
    grid is one point of weight 1, and otherwise to 1e-15 in F plus the
    rounding of the two logs the integrand adds, eps (|log radial| + |log F|)."""
    captured = []  # the log integrand that _kernel_quadrature hands to de_halfline
    monkeypatch.setattr(pathint, "de_halfline",
                        lambda log_f, *a, **kw: captured.append(log_f) or (0.0, 0.0))
    hp = pathint.HamiltonianParams.from_mu(KERNEL_MU[n], c_last=0.3)
    pathint.exact_kernel_trace(hp, k, beta)
    g, grid_w = oracles.angular_grid(np.exp(-beta * hp.mu))
    log_x = np.log([1e-6, 0.03, 0.7, 4.0, 25.0, 160.0, 900.0])
    log_radial = (specfun.log_gamma(n)
                  + measure._log_radius_density(measure.MeasureModel(n, k), log_x))
    log_grid_sum = np.log([coherent._f_series_vec(k, x * g) @ grid_w for x in np.exp(log_x)])
    reference = log_radial + log_grid_sum
    got = captured[0](log_x)
    if n == 1:
        assert np.array_equal(got, reference)
    else:
        rounding = np.finfo(float).eps * (np.abs(log_radial) + np.abs(log_grid_sum))
        assert np.all(np.abs(got - reference) <= 1e-15 + rounding)


def test_kernel_trace_quadrature_raises_where_f_overflows():
    """Quadrature mode has no cap on N, and where the overlap series F leaves
    double range inside the radial window (N = 6, K = 6.5, beta = 0.5) it
    raises OverflowError rather than return a wrong value.  Monte Carlo mode
    runs at N = 5."""
    hp = pathint.HamiltonianParams.from_mu(KERNEL_MU[6], c_last=0.3)
    with pytest.raises(OverflowError, match="F series"):
        pathint.exact_kernel_trace(hp, 6.5, 0.5)
    hp = pathint.HamiltonianParams.from_mu(KERNEL_MU[5])
    res = pathint.exact_kernel_trace(hp, 2.0, 1.0, mode="montecarlo", budget=2000, seed=3)
    assert math.isfinite(res.value)


def test_kernel_trace_montecarlo_safe_window():
    hp = pathint.HamiltonianParams.from_mu([3.0])
    res = pathint.exact_kernel_trace(hp, 1.0, 0.5, mode="montecarlo",
                                     budget=200_000, seed=5, workers=4)
    assert res.params["variance_warning"] is False
    expected = pathint.exact_spectral_trace(hp, 1.0, 0.5)
    assert abs(res.value - expected) <= 4.0 * res.error


def test_kernel_trace_montecarlo_warns_outside_window():
    hp = pathint.HamiltonianParams.from_mu([1.0])  # beta mu = 1 < ln 4
    res = pathint.exact_kernel_trace(hp, 1.0, 1.0, mode="montecarlo",
                                     budget=10_000, seed=1)
    assert res.params["variance_warning"] is True


def test_kernel_trace_domain():
    hp = pathint.HamiltonianParams.from_mu([1.0])
    with pytest.raises(ValueError):
        pathint.exact_kernel_trace(hp, 1.0, -1.0)
    with pytest.raises(ValueError):
        pathint.exact_kernel_trace(pathint.HamiltonianParams.from_mu([0.0]), 1.0, 1.0)
    with pytest.raises(ValueError):
        pathint.exact_kernel_trace(hp, 1.0, 1.0, mode="other")



def test_infinite_beta_is_a_domain_error():
    """At beta = inf the prefactor exp(-beta K c_{N+1}) is exp(-inf * 0) = nan
    when c_{N+1} = 0; the three entry points refuse it instead."""
    hp = pathint.HamiltonianParams.from_mu([1.0])
    for cutoff in (None, 6):
        with pytest.raises(ValueError, match="need finite beta > 0"):
            pathint.exact_spectral_trace(hp, 1.0, math.inf, cutoff=cutoff)
    with pytest.raises(ValueError, match="need finite beta > 0"):
        pathint.exact_kernel_trace(hp, 1.0, math.inf)
    for beta in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="need finite beta"):
            pathint.diagonal_kernel([0.5], hp, 1.0, beta)


@pytest.mark.parametrize("mode, horizon", [("imaginary", math.inf), ("imaginary", math.nan),
                                           ("real", math.nan), ("real", -math.inf)])
def test_trace_config_needs_a_finite_horizon(mode, horizon):
    with pytest.raises(ValueError, match="need a finite horizon"):
        pathint.TraceConfig(mode=mode, horizon=horizon, cutoff=4)


# --- transfer spectrum -----------------------------------------------------


def test_transfer_linear_closed_form():
    hp = pathint.HamiltonianParams.from_mu([1.0, 2.0], c_last=0.1)
    space = fock.rep_space(2, 1.5, 4)
    lam = pathint.transfer_eigenvalues(hp, 1.5, 4, 0.05, "linear")
    expected = 1.0 - 0.05 * pathint.energies(hp, 1.5, space)
    assert lam == pytest.approx(expected, rel=1e-15)


def test_transfer_linear_builds_no_conv_table():
    before = pathint._conv_table.cache_info()
    pathint.transfer_eigenvalues(pathint.HamiltonianParams.from_mu([1.0, 2.0]), 1.5, 9, 0.05,
                                 "linear")
    after = pathint._conv_table.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_transfer_exp_frozen_eigenvalues():
    hp = pathint.HamiltonianParams.from_mu([1.0])
    lam = pathint.transfer_eigenvalues(hp, 1.0, 4, 1.0 / 64.0, "exp")
    assert lam == pytest.approx(LAM_EXP_K1, rel=1e-12)


def test_transfer_exp_equal_couplings_reduce_to_one_mode():
    """With mu_1 = mu_2 the two-mode weight depends on x_1 + x_2 only, so
    the eigenvalue at multi-index p equals the one-mode eigenvalue at
    degree |p|."""
    k, step = 1.5, 0.125
    one = pathint.transfer_eigenvalues(
        pathint.HamiltonianParams.from_mu([0.7]), k, 3, step, "exp")
    two = pathint.transfer_eigenvalues(
        pathint.HamiltonianParams.from_mu([0.7, 0.7]), k, 3, step, "exp")
    space = fock.rep_space(2, k, 3)
    for i, degree in enumerate(space.deg):
        assert two[i] == pytest.approx(one[degree], rel=1e-12)


def test_transfer_exp_first_order_matches_linear():
    """Each eigenvalue is e^{-step E_p}(1 + O(step^2)) at fixed p, so
    exp and linear weights agree through first order in the step."""
    hp = pathint.HamiltonianParams.from_mu([1.0], c_last=0.2)
    k = 2.0
    for p in range(4):
        e_p = pathint.energies(hp, k, fock.rep_space(1, k, 4))[p]
        diffs = []
        for step in (0.02, 0.01):
            lam = pathint.transfer_eigenvalues(hp, k, 4, step, "exp")[p]
            diffs.append(abs(lam - (1.0 - step * e_p)))
        assert diffs[0] <= 10.0 * step**2 * (1.0 + e_p**2)
        # quadratic remainder: quarters when the step halves
        assert diffs[1] <= 0.3 * diffs[0] + 1e-14


# --- sliced traces, matrix backend -----------------------------------------

HP1 = pathint.HamiltonianParams.from_mu([1.0])


def test_sliced_linear_equals_matrix_power():
    hp = pathint.HamiltonianParams.from_mu([0.9, 1.3], c_last=0.1)
    k, cutoff, m = 1.5, 4, 6
    config = pathint.TraceConfig(horizon=0.6, slices=m, cutoff=cutoff, weights="linear")
    res = pathint.sliced_trace(hp, k, config)
    space = fock.rep_space(2, k, cutoff)
    h = pathint.h_operator(hp, k, space)
    direct = np.trace(np.linalg.matrix_power(np.eye(space.dim) - 0.1 * h, m))
    assert res.value == pytest.approx(direct, rel=1e-13)


def test_sliced_single_slice_linear_identities():
    """M = 1: imaginary mode gives Tr(1 - beta H) exactly; real mode gives
    dim - i T Tr(H) exactly."""
    k, cutoff = 1.0, 5
    space = fock.rep_space(1, k, cutoff)
    tr_h = float(np.sum(pathint.energies(HP1, k, space)))
    res = pathint.sliced_trace(HP1, k, pathint.TraceConfig(
        horizon=0.1, slices=1, cutoff=cutoff, weights="linear"))
    assert res.value == pytest.approx(space.dim - 0.1 * tr_h, rel=1e-14)
    res = pathint.sliced_trace(HP1, k, pathint.TraceConfig(
        mode="real", horizon=0.05, slices=1, cutoff=cutoff, weights="linear"))
    assert complex(res.value) == pytest.approx(space.dim - 0.05j * tr_h, rel=1e-14)


def test_sliced_real_time_tiny_horizon():
    """Real mode, one slice, tiny T: matches the spectral sum of e^{-iTE}
    to 1e-12 (the O(T^2) remainder is far below that)."""
    k, cutoff, t = 1.0, 4, 1e-7
    space = fock.rep_space(1, k, cutoff)
    levels = pathint.energies(HP1, k, space)
    expected = complex(np.sum(np.exp(-1j * t * levels)))
    res = pathint.sliced_trace(HP1, k, pathint.TraceConfig(
        mode="real", horizon=t, slices=1, cutoff=cutoff, weights="linear"))
    assert abs(complex(res.value) - expected) <= 1e-12


@pytest.mark.parametrize("weights", ["linear", "exp"])
def test_sliced_trace_first_order_convergence(weights):
    """Error against the same-cutoff spectral trace shrinks like 1/M."""
    k, cutoff = 1.0, 3
    target = pathint.exact_spectral_trace(HP1, k, 1.0, cutoff=cutoff)
    errs = []
    for m in (16, 32):
        res = pathint.sliced_trace(HP1, k, pathint.TraceConfig(
            horizon=1.0, slices=m, cutoff=cutoff, weights=weights))
        errs.append(abs(res.value - target))
    ratio = errs[0] / errs[1]
    assert 1.6 <= ratio <= 2.4


def test_sliced_trace_guards():
    # linear weights, dt max|E| >= 1
    with pytest.raises(ValueError, match="unstable"):
        pathint.sliced_trace(HP1, 1.0, pathint.TraceConfig(
            horizon=1.0, slices=4, cutoff=40, weights="linear"))
    # exponentiated weights past the series' finite reach
    with pytest.raises(ValueError, match="finite radius"):
        pathint.sliced_trace(HP1, 1.0, pathint.TraceConfig(
            horizon=1.0, slices=64, cutoff=40, weights="exp"))
    # montecarlo cannot run the polynomially divergent linear weight
    with pytest.raises(ValueError, match="linear"):
        pathint.sliced_trace(HP1, 1.0, pathint.TraceConfig(
            horizon=1.0, slices=2, backend="montecarlo", weights="linear"))
    with pytest.raises(ValueError, match="cutoff"):
        pathint.sliced_trace(HP1, 1.0, pathint.TraceConfig(slices=4))


# --- sliced traces, Monte Carlo backend ------------------------------------


def _mc_reference_integrand(k, mu, step):
    """Independent scipy route for the M = 1 sliced integral:
    sigma(r) F(K; r) exp(-step (mu/K) r F(K+1; r)/F(K; r))."""
    def f(r):
        sigma = (2.0 / (math.pi * math.gamma(k))) * r ** (0.5 * (k - 1.0)) \
            * scipy.special.kv(k - 1.0, 2.0 * math.sqrt(r))
        fk = scipy.special.hyp0f1(k, r)
        fk1 = scipy.special.hyp0f1(k + 1.0, r)
        return math.pi * sigma * fk * math.exp(-step * (mu / k) * r * fk1 / fk)
    return f


def test_sliced_montecarlo_single_slice_vs_quadrature():
    """Inside the safe window (imaginary, M = 1, horizon mu > 1) the Monte
    Carlo estimate matches independent quadrature of the same integral."""
    k, mu = 10.0, 1.2
    config = pathint.TraceConfig(horizon=1.0, slices=1, backend="montecarlo",
                                 weights="exp", budget=100_000, seed=99, workers=4)
    res = pathint.sliced_trace(pathint.HamiltonianParams.from_mu([mu]), k, config)
    assert res.params["variance_warning"] is False
    assert res.params["nonfinite_count"] == 0
    expected, quad_err = scipy.integrate.quad(
        _mc_reference_integrand(k, mu, 1.0), 0.0, np.inf, limit=200)
    assert abs(complex(res.value).real - expected) <= 4.0 * res.error + 4.0 * quad_err


def test_sliced_montecarlo_agrees_with_matrix_to_series_accuracy():
    """The transfer series at this coupling is asymptotic, so matrix and
    Monte Carlo agree only to the truncation bound: |Z_mat(c) - Z_mc| is
    within |lambda_{c+1}| plus the statistical band, for each cutoff."""
    k, mu = 10.0, 1.2
    hp = pathint.HamiltonianParams.from_mu([mu])
    config = pathint.TraceConfig(horizon=1.0, slices=1, backend="montecarlo",
                                 weights="exp", budget=100_000, seed=99, workers=4)
    mc_res = pathint.sliced_trace(hp, k, config)
    for cutoff in (1, 2, 3):
        mat = pathint.sliced_trace(hp, k, pathint.TraceConfig(
            horizon=1.0, slices=1, cutoff=cutoff, weights="exp"))
        lam_next = pathint.transfer_eigenvalues(hp, k, cutoff + 1, 1.0, "exp")[cutoff + 1]
        gap = abs(complex(mat.value) - complex(mc_res.value))
        assert gap <= abs(lam_next) + 4.0 * mc_res.error


def test_sliced_montecarlo_multi_slice_reports_heavy_tails():
    """M >= 2 puts the overlap zeros on the sampled domain; the estimator
    has no finite moments and must say so."""
    config = pathint.TraceConfig(horizon=1.0, slices=2, backend="montecarlo",
                                 weights="exp", budget=20_000, seed=7)
    res = pathint.sliced_trace(pathint.HamiltonianParams.from_mu([3.0]), 2.0, config)
    assert res.params["variance_warning"] is True
    assert "nonfinite_count" in res.params
    assert 0.0 <= res.params["max_fraction"] <= 1.0


def test_trace_result_serialization():
    res = pathint.sliced_trace(HP1, 1.0, pathint.TraceConfig(
        horizon=1.0, slices=8, cutoff=6, weights="linear"))
    record = res.as_dict()
    assert record["value"] == pytest.approx(complex(res.value).real)
    assert record["error"] is None
    assert record["slices"] == 8 and record["weights"] == "linear"


def test_label_and_dimension_checks():
    hp = pathint.HamiltonianParams.from_mu([1.0, 1.3])
    with pytest.raises(ValueError, match="unknown backend 'bogus'"):
        pathint.TraceConfig(backend="bogus")
    with pytest.raises(ValueError, match="labels must have 2 components"):
        pathint.h_matrix_element([0.1], [0.1, 0.2], hp, 1.5)
    with pytest.raises(ValueError, match="labels must have 2 components"):
        pathint.h_matrix_element([0.1, 0.2], [0.1, 0.2, 0.3], hp, 1.5)
    with pytest.raises(ValueError, match="label must have 2 components"):
        pathint.diagonal_kernel([0.1, 0.2, 0.3], hp, 1.5, 1.0)
    with pytest.raises(ValueError, match="space has N=1 but Hamiltonian has N=2"):
        pathint.h_operator(hp, 1.5, fock.rep_space(1, 1.5, 4))
