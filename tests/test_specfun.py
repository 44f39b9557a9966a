"""Special-function layer: frozen high-precision values, closed-form
half-integer reductions, and cross-identities."""

import math
import sys

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import bgcs
import oracles
from bgcs import quadrature, specfun

# frozen via tests/oracles.py (mpmath ascending series / cosh-integral, 50 digits)
I_1_AT_2 = 1.5906368546373290634
I_0_AT_2 = 2.2795853023360672674
I_HALF_AT_1 = 0.93767488824548764672
K_0_AT_1 = 0.42102443824070833334
K_HALF_AT_1 = 0.46106850444789455844
K_32_9_AT_0_57 = 7.9894505735603156371e52


def test_gamma_spot_values():
    assert specfun.gamma(1.0) == 1.0
    assert specfun.gamma(5) == 24.0
    assert specfun.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    # frozen via mpmath.gamma(5.5)
    assert specfun.gamma(5.5) == pytest.approx(52.342777784553520181, rel=1e-14)


@given(st.floats(min_value=0.05, max_value=30.0))
def test_gamma_recurrence(p):
    assert specfun.gamma(p + 1.0) == pytest.approx(p * specfun.gamma(p), rel=1e-12)


@given(st.floats(min_value=0.05, max_value=60.0))
def test_log_gamma_consistent_with_gamma(p):
    assert specfun.log_gamma(p) == pytest.approx(math.log(specfun.gamma(p)), abs=1e-12)


def test_gamma_domain():
    with pytest.raises(ValueError):
        specfun.gamma(0.0)
    with pytest.raises(ValueError):
        specfun.gamma(-2.5)
    with pytest.raises(ValueError):
        specfun.log_gamma(-1.0)
    with pytest.raises(OverflowError):
        specfun.gamma(200.0)


def test_bessel_i_frozen_values():
    assert specfun.bessel_i(1.0, 2.0) == pytest.approx(I_1_AT_2, rel=1e-14)
    assert specfun.bessel_i(0.0, 2.0) == pytest.approx(I_0_AT_2, rel=1e-14)
    assert specfun.bessel_i(0.5, 1.0) == pytest.approx(I_HALF_AT_1, rel=1e-14)


def test_bessel_i_at_origin():
    assert specfun.bessel_i(0.0, 0.0) == 1.0
    assert specfun.bessel_i(1.5, 0.0) == 0.0


@given(st.floats(min_value=0.01, max_value=30.0))
def test_bessel_i_half_closed_form(x):
    expected = math.sqrt(2.0 / (math.pi * x)) * math.sinh(x)
    assert specfun.bessel_i(0.5, x) == pytest.approx(expected, rel=1e-13)


def test_bessel_i_scan_against_mpmath():
    """Poisson's integral over nu in [0, 50] and x in [1e-3, 700], where I
    runs from about 1e-230 to 1e302: every point returns, within 6.2e-14
    of mpmath.  With e^(x(2u-1)) left in the integrand instead of the
    prefactor, the refinement stalls at x = 700."""
    worst = 0.0
    for nu in np.linspace(0.0, 50.0, 16):
        for x in np.geomspace(1e-3, 700.0, 25):
            ref = oracles.bessel_i_mp(nu, x)
            worst = max(worst, float(abs(specfun.bessel_i(nu, x) - ref) / ref))
    assert worst <= 2e-13


def test_bessel_k_frozen_values():
    assert specfun.bessel_k(0.0, 1.0) == pytest.approx(K_0_AT_1, rel=1e-13)
    assert specfun.bessel_k(0.5, 1.0) == pytest.approx(K_HALF_AT_1, rel=1e-13)


@given(st.floats(min_value=0.05, max_value=30.0))
def test_bessel_k_half_closed_form(x):
    expected = math.sqrt(0.5 * math.pi / x) * math.exp(-x)
    assert specfun.bessel_k(0.5, x) == pytest.approx(expected, rel=1e-12)


@given(st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=0.1, max_value=25.0))
def test_bessel_k_order_symmetry(nu, x):
    assert specfun.bessel_k(nu, x) == pytest.approx(specfun.bessel_k(-nu, x), rel=1e-12)


@given(st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=0.2, max_value=20.0))
def test_bessel_wronskian(nu, x):
    """I_nu(x) K_{nu+1}(x) + I_{nu+1}(x) K_nu(x) = 1/x."""
    lhs = (specfun.bessel_i(nu, x) * specfun.bessel_k(nu + 1.0, x)
           + specfun.bessel_i(nu + 1.0, x) * specfun.bessel_k(nu, x))
    assert lhs == pytest.approx(1.0 / x, rel=1e-12)


@pytest.mark.parametrize("nu", [0.0, 0.3, 1.0, 2.7, 7.0])
@pytest.mark.parametrize("x", [0.1, 1.0, 4.0, 17.5])
def test_bessel_against_scipy(nu, x):
    assert specfun.bessel_i(nu, x) == pytest.approx(scipy.special.iv(nu, x), rel=1e-12)
    assert specfun.bessel_k(nu, x) == pytest.approx(scipy.special.kv(nu, x), rel=1e-12)


def test_bessel_k_converges_at_large_order_small_argument(monkeypatch):
    """The exponent's terms are ~150 in size here, and one fixed-step sum
    still holds 1e-14 against mpmath.  With the self-check's bound at 0 the
    same point raises ConvergenceError."""
    assert specfun.bessel_k(32.9, 0.57) == pytest.approx(K_32_9_AT_0_57, rel=5e-14)
    monkeypatch.setattr(specfun, "_K_GAP", 0.0)
    with pytest.raises(specfun.ConvergenceError,
                       match=r"^bessel_k\(32\.9, 0\.57\) quadrature did not converge$"):
        specfun.bessel_k(32.9, 0.57)


def test_bessel_k_convergence_error_text():
    """K leaves double range here (mpmath: log K = 809.69 > 709.78), which
    the small-argument form shows without quadrature.  The ConvergenceError
    text is pinned by the stalled-level test."""
    assert bgcs.ConvergenceError is specfun.ConvergenceError is quadrature.ConvergenceError
    with pytest.raises(OverflowError) as info:
        specfun.bessel_k(-1.4038079065171498, 3.612024814854264e-251)
    assert str(info.value) == (
        "bessel_k(-1.4038079065171498, 3.612024814854264e-251) exceeds double range")


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=-6.0, max_value=6.0),
       st.lists(st.floats(min_value=-20.0, max_value=2.5), min_size=257, max_size=800))
def test_bessel_k_vec_is_bessel_k_lane_by_lane(nu, log10_xs):
    """Batches of several lane blocks give every point the bits of a
    one-point call, on both sides of the small-argument form."""
    assert specfun._LANE_BLOCK < 257
    xs = [10.0**e for e in log10_xs]
    got = np.exp(specfun._bessel_k_log_vec(nu, xs, np.log(xs))).tolist()
    assert got == [specfun.bessel_k(nu, x) for x in xs]


def _reference_log_quad(nu, x):
    """specfun._bessel_k_log_quad as it was before its nodes went flat:
    one edge march per direction, a point-major padded matrix and
    cumsum along each row.  Kept verbatim as the bit-for-bit reference."""
    w_star = -np.array([math.asinh(r) for r in (nu / x).tolist()])
    peak = -nu * w_star - x * np.array([math.cosh(w) for w in w_star.tolist()])

    def edge(step):
        w = np.empty_like(x)
        live = np.arange(x.size)
        last = w_star.copy()
        chunk = 16
        while live.size:
            trial = np.full((live.size, chunk + 1), step)
            trial[:, 0] = last[live]
            trial = trial.cumsum(axis=1)[:, 1:]
            out = ~(-nu * trial - x[live, None] * np.cosh(trial)
                    > peak[live, None] - specfun._K_DROP)
            hit = out.any(axis=1)
            w[live[hit]] = trial[hit, np.argmax(out[hit], axis=1)]
            last[live] = trial[:, -1]
            live = live[~hit]
            chunk *= 2
        return w

    lo, hi = edge(-1.0), edge(1.0)
    width = np.where(np.isfinite(hi - lo), hi - lo, 0.0)
    step = np.minimum(specfun._K_STEP_MAX, specfun._K_STEP / np.sqrt(np.hypot(x, nu)))
    n = 2 * np.ceil(0.5 * width / step).astype(int)
    h = width / n
    i, j = np.nonzero(np.arange(n.max() + 1) <= n[:, None])
    w = lo[i] + h[i] * j
    vals = np.zeros((x.size, n.max() + 1))
    vals[i, j] = np.exp(-nu * w - x[i] * np.cosh(w) - peak[i])
    rows = np.arange(x.size)
    t_h = h * vals.cumsum(axis=1)[rows, n]
    t_2h = 2.0 * h * vals[:, ::2].cumsum(axis=1)[rows, n // 2]
    return peak + np.log(0.5 * t_h), np.abs(t_h - t_2h) / t_h


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-50.0, max_value=50.0),
       st.lists(st.floats(min_value=-20.0, max_value=math.log10(700.0)),
                min_size=1, max_size=600))
def test_bessel_k_log_quad_matches_the_reference_bit_for_bit(nu, log10_xs):
    """The flat-node kernel gives every point the log K and self-check gap
    of the row-by-row reference, one-point batches included, where a
    one-column sum would be pairwise."""
    x = np.array([10.0**e for e in log10_xs])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got = specfun._bessel_k_log_quad(nu, x)
        want = _reference_log_quad(nu, x)
    for g, r in zip(got, want):
        assert g.tobytes() == r.tobytes()


def _first_error(nu, xs):
    """bessel_k's error at the first point that fails for a reason other
    than K leaving double range, which the log kernel does not raise."""
    for x in xs:
        try:
            specfun.bessel_k(nu, x)
        except OverflowError:
            continue
        except (ValueError, specfun.ConvergenceError) as exc:
            return type(exc), str(exc)
    raise AssertionError("no point fails")


def _vector_error(nu, xs):
    with pytest.raises((ValueError, OverflowError, specfun.ConvergenceError)) as info, \
            np.errstate(divide="ignore", invalid="ignore"):
        specfun._bessel_k_log_vec(nu, xs, np.log(xs))
    return info.type, str(info.value)


OVERFLOW_X = 3.612024814854264e-251  # overflows at nu = -1.4038...


@pytest.mark.parametrize("xs,kind", [
    ([1.0] * 70 + [OVERFLOW_X, 0.0, float("nan")], ValueError),
    ([2.0] * 3 + [0.0, OVERFLOW_X], ValueError),
    ([float("nan")] + [1.0] * 80 + [-1.0], ValueError),
    ([0.5] * 130 + [-2.0, OVERFLOW_X], ValueError),
    ([0.5] * 300 + [OVERFLOW_X, -2.0], ValueError),
])
def test_bessel_k_vec_raises_the_lowest_failing_points_error(xs, kind):
    nu = -1.4038079065171498
    assert _vector_error(nu, xs) == _first_error(nu, xs)
    assert _first_error(nu, xs)[0] is kind


@pytest.mark.parametrize("xs,kind", [
    ([5.0] * 66 + [0.57] + [1e-300] * 3, specfun.ConvergenceError),
    ([5.0] * 10 + [1e-300, 0.57], specfun.ConvergenceError),
    ([5.0] * 260 + [0.57] + [1e-300] * 3, specfun.ConvergenceError),
])
def test_bessel_k_vec_raises_the_lowest_stalled_points_error(monkeypatch, xs, kind):
    """With the self-check's bound between the gaps at x = 5 and x = 0.57,
    x = 0.57 fails its self-check inside a batch."""
    _, (gap_pass, gap_fail) = specfun._bessel_k_log_quad(32.9, np.array([5.0, 0.57]))
    assert gap_pass < gap_fail
    monkeypatch.setattr(specfun, "_K_GAP", math.sqrt(gap_pass * gap_fail))
    assert _vector_error(32.9, xs) == _first_error(32.9, xs)
    assert _first_error(32.9, xs)[0] is kind


def test_bessel_k_log_vec_is_the_log_of_bessel_k_vec():
    """bessel_k is exp of the log kernel, bit for bit; the log kernel
    stays finite where K leaves double range (mpmath: log K = 809.69 at
    OVERFLOW_X) and raises bessel_k's other errors."""
    nu = -1.4038079065171498
    xs = np.geomspace(1e-200, 600.0, 300)
    log_k = specfun._bessel_k_log_vec(nu, xs, np.log(xs))
    assert np.exp(log_k).tolist() == [specfun.bessel_k(nu, x) for x in xs.tolist()]
    expected = float(oracles.mp.log(oracles.bessel_k_mp(nu, OVERFLOW_X)))
    assert specfun._bessel_k_log_vec(nu, [OVERFLOW_X], np.log([OVERFLOW_X]))[0] == pytest.approx(
        expected, rel=1e-14)
    with pytest.raises(ValueError, match=r"^need finite x > 0, got 0\.0$"), \
            np.errstate(divide="ignore"):
        specfun._bessel_k_log_vec(nu, [OVERFLOW_X, 0.0], np.log([OVERFLOW_X, 0.0]))
    xs = [5.0] * 300 + [float("nan")]
    with pytest.raises(ValueError, match=r"^need finite x > 0, got nan$"):
        specfun._bessel_k_log_vec(nu, xs, np.log(xs))


BOX_NUS = (-5.0, -3.3, -1.0, -0.4, 0.0, 0.3, 1.0, 1.9, 2.5, 3.7, 4.5, 5.0)


def test_bessel_k_matches_mpmath_on_the_box():
    """|nu| <= 5, x in [1e-3, 300], within 5e-14 up to x = 100.  Beyond it
    the exponent -nu w - x cosh w - peak is a difference of terms of size
    x, whose rounding costs up to 1.2e-13 near x = 260 (ROADMAP item 5)."""
    for nu in BOX_NUS:
        for x in np.geomspace(1e-3, 300.0, 16):
            expected = float(oracles.bessel_k_mp(nu, x))
            tol = 5e-14 if x <= 100.0 else 2e-13
            assert specfun.bessel_k(nu, x) == pytest.approx(expected, rel=tol), (nu, x)


@pytest.mark.parametrize("nu", [0.5, -1.0, 1.5, -3.0, 5.0])
def test_bessel_k_either_side_of_the_small_argument_form(monkeypatch, nu):
    """Just below specfun._small_x_limit bessel_k is Gamma(|nu|)/2 (2/x)^|nu|
    with no quadrature; just above it one trapezoid sum holds ~4e-15,
    although the exponent's terms are ~|nu| log(2|nu|/x) there."""
    limit = specfun._small_x_limit(abs(nu))
    points = []
    log_quad = specfun._bessel_k_log_quad

    def spy(nu, x):
        points.append(x.size)
        return log_quad(nu, x)

    monkeypatch.setattr(specfun, "_bessel_k_log_quad", spy)
    below, above = 0.99 * limit, 1.01 * limit
    assert specfun.bessel_k(nu, below) == pytest.approx(float(oracles.bessel_k_mp(nu, below)),
                                                        rel=5e-14)
    assert points == []
    assert specfun.bessel_k(nu, above) == pytest.approx(float(oracles.bessel_k_mp(nu, above)),
                                                        rel=5e-14)
    assert points == [1]


@pytest.mark.parametrize("nu,x", [(42.0, 3e-6), (39.75, 5.5e-7), (45.0, 1.8e-5)])
def test_bessel_k_large_order_above_the_small_argument_form(nu, x):
    """Above _small_x_limit at |nu| of 40-45, where log K is 647-706: one
    fixed-step sum holds 1e-13 against mpmath."""
    expected = float(oracles.bessel_k_mp(nu, x))
    assert specfun.bessel_k(nu, x) == pytest.approx(expected, rel=1e-13)
    assert specfun.bessel_k(-nu, x) == pytest.approx(expected, rel=1e-13)


def test_bessel_k_large_order_overflow_is_overflow():
    """mpmath: log K_50(1e-5) = 754.2, so K leaves double range there."""
    assert oracles.mp.log(oracles.bessel_k_mp(50.0, 1e-5)) > 709.8
    with pytest.raises(OverflowError, match=r"^bessel_k\(50\.0, 1e-05\) exceeds double range$"):
        specfun.bessel_k(50.0, 1e-5)


@pytest.mark.parametrize("nu,x", [(49.0, 1.798851581140151e-05),
                                  (-8.25, 2.3799287730840153e-37)])
def test_bessel_k_finite_up_to_the_double_limit(nu, x):
    """log K is 709.31 and 709.77 here (mpmath), above 709 but below the
    log of the largest double: K is a finite double, by quadrature at the
    first point and by the small-argument form at the second."""
    expected = oracles.bessel_k_mp(nu, x)
    assert 709.0 < oracles.mp.log(expected) < math.log(sys.float_info.max)
    assert specfun.bessel_k(nu, x) == pytest.approx(float(expected), rel=1e-13)


def test_bessel_k_large_argument_accuracy():
    """At this point of the dense box grid (geomspace(1e-3, 300, 200)) the
    exponent's terms are ~264 in size; one fixed-step sum holds 5e-14."""
    x = 264.286396801017
    assert specfun.bessel_k(3.5, x) == pytest.approx(float(oracles.bessel_k_mp(3.5, x)), rel=5e-14)


@pytest.mark.parametrize("nu", [0.0, 1e-12, 1e-6, 0.01, 0.05])
@pytest.mark.parametrize("log_x", [-745.0, -3000.0, -30000.0])
def test_bessel_k_log_argument_below_the_smallest_double(nu, log_x):
    """x = e^log_x underflows to 0 (or to the smallest subnormal at -745);
    the kernel reads log x there.  For |nu| < 0.056 the one-term form
    still drops ~(x/2)^(2|nu|) relative, so these points take the
    two-term form.  Compared in log K, which reaches 1502 at the last
    point, where K itself is far beyond double range."""
    x = math.exp(log_x)
    assert x <= 5e-324
    got = specfun._bessel_k_log_vec(nu, [x], [log_x])[0]
    expected = float(oracles.mp.log(oracles.bessel_k_log_x(nu, log_x)))
    assert got == pytest.approx(expected, rel=1e-15, abs=2e-14)
    assert specfun._bessel_k_log_vec(-nu, [x], [log_x])[0] == got


@pytest.mark.parametrize("nu,x", [(1e-12, 4.821784e-318), (1e-12, 7.0892931283655e-310),
                                  (0.0, 1.0680091576616656e-307), (-0.03, 3.048470283801121e-308),
                                  (0.01, 1e-320), (0.05, 1e-309)])
def test_bessel_k_small_order_at_subnormal_argument(nu, x):
    """Below 45 / (largest double) cosh overflows inside the quadrature's
    window and cuts it short, which returned K_(1e-12)(4.8e-318) as 710.4
    against 730.76 and raised ConvergenceError at the last two points; the
    two-term form holds 2e-14 there."""
    assert x < specfun._QUAD_X_MIN
    assert specfun.bessel_k(nu, x) == pytest.approx(float(oracles.bessel_k_mp(nu, x)), rel=2e-14)


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        specfun.bessel_i(-1.0, 2.0)
    with pytest.raises(ValueError):
        specfun.bessel_i(0.0, -1.0)
    with pytest.raises(ValueError):
        specfun.bessel_k(0.0, 0.0)
    with pytest.raises(OverflowError):
        specfun.bessel_i(0.0, 2000.0)
