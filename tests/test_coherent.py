"""Coherent-state amplitudes, the overlap series, and the eigenvalue
property on truncated spaces."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from bgcs import coherent, fock, pathint, specfun

# frozen via tests/oracles.py f_sum (brute-force multi-index sums, 50 digits)
F1_1P5_2P3 = 3.414663050649315402456
F2_3_12 = 2.460231278695901301595
F3_2P5 = 2.135195289700669425442
F2_COMPLEX = 4.275170344520407389064 + 0.3089747788278085518135j


def test_coefficient_ladder_k2():
    """C_n at K = 2 for one mode: 1, 1/sqrt(2), 1/(2 sqrt(3)), 1/12."""
    vals = [coherent.coefficient((n,), 2.0) for n in range(4)]
    expected = [1.0, 1.0 / math.sqrt(2.0), 1.0 / (2.0 * math.sqrt(3.0)), 1.0 / 12.0]
    assert vals == pytest.approx(expected, rel=1e-14)


@given(st.floats(min_value=0.1, max_value=10.0))
def test_coefficient_degree_zero(k):
    assert coherent.coefficient((0,), k) == 1.0
    assert coherent.coefficient((0, 0, 0), k) == 1.0


@given(
    st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2),
    st.floats(min_value=0.2, max_value=6.0),
)
def test_coefficient_one_step_relation(state, a, k):
    """C_{n+e_a} sqrt(n_a + 1) sqrt(K + |n|) = C_n."""
    a = a % len(state)
    child = list(state)
    child[a] += 1
    lhs = (coherent.coefficient(child, k)
           * math.sqrt(state[a] + 1.0) * math.sqrt(k + sum(state)))
    assert lhs == pytest.approx(coherent.coefficient(state, k), rel=1e-13)


@pytest.mark.parametrize("n,k,cutoff", [(1, 0.5, 6), (2, 1.5, 4), (3, 2.0, 3)])
def test_recursion_matches_closed_form(n, k, cutoff):
    space = fock.rep_space(n, k, cutoff)
    by_recursion = coherent.coefficients_by_recursion(space)
    closed = np.array([coherent.coefficient(state, k) for state in space.occ])
    assert np.max(np.abs(by_recursion - closed)) <= 1e-13 * np.max(closed)


@pytest.mark.parametrize("n,k,cutoff", [(1, 0.5, 22), (1, 3.7, 6), (2, 1.5, 22),
                                        (2, 0.2, 4), (3, 2.0, 3), (3, 2.5, 22)])
def test_coefficients_array_is_coefficient(n, k, cutoff):
    """The array of every C_n has the bits of the closed form state by
    state, and matches the one-step recursion to rounding."""
    space = fock.rep_space(n, k, cutoff)
    closed = np.array([coherent.coefficient(state, k) for state in space.occ])
    array = coherent.coefficients(space)
    assert array.tobytes() == closed.tobytes()
    by_recursion = coherent.coefficients_by_recursion(space)
    assert np.max(np.abs(array - by_recursion) / array) <= 1e-14


def test_f_series_frozen_values():
    assert coherent.f_series(1.5, [2.3]) == pytest.approx(F1_1P5_2P3, rel=1e-13)
    assert coherent.f_series(3.0, [1.0, 2.0]) == pytest.approx(F2_3_12, rel=1e-13)
    assert coherent.f_series(2.5, [0.3, 0.7, 1.1]) == pytest.approx(F3_2P5, rel=1e-13)
    got = coherent.f_series(0.7, [0.4 + 0.3j, 1.1 - 0.2j])
    assert got == pytest.approx(F2_COMPLEX, rel=1e-13)


complex_args = st.complex_numbers(max_magnitude=4.0, allow_infinity=False, allow_nan=False)


@given(st.floats(min_value=0.2, max_value=8.0),
       st.lists(complex_args, min_size=2, max_size=4))
def test_f_series_collapses_to_sum(k, w):
    """F_N(K; w) depends on w only through sum(w)."""
    full = coherent.f_series(k, w)
    collapsed = coherent.f_series(k, [sum(w)])
    assert complex(full) == pytest.approx(complex(collapsed), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("k", [1.0, 2.0, 5.0])
@pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
def test_f_series_bessel_identity(k, x):
    """One mode: F_1(K; x) = Gamma(K) x^((1-K)/2) I_{K-1}(2 sqrt x)."""
    expected = (specfun.gamma(k) * x ** (0.5 * (1.0 - k))
                * specfun.bessel_i(k - 1.0, 2.0 * math.sqrt(x)))
    assert coherent.f_series(k, [x]) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("k,s", [(0.5, 0.3), (1.0, 1.7), (3.5, 4.0)])
def test_f_series_derivative_shifts_k(k, s):
    """d/ds F(K; s) = F(K+1; s) / K, checked by central differences."""
    h = 1e-5
    numeric = (coherent.f_series(k, [s + h]) - coherent.f_series(k, [s - h])) / (2.0 * h)
    assert numeric == pytest.approx(coherent.f_series(k + 1.0, [s]) / k, rel=1e-8)


@given(st.floats(min_value=0.3, max_value=5.0),
       st.lists(complex_args, min_size=1, max_size=3))
def test_f_series_vec_matches_scalar(k, w):
    s = sum(w)
    vec = coherent._f_series_vec(k, np.array([s, 0.0 + 0.0j]))
    assert complex(vec[0]) == pytest.approx(complex(coherent.f_series(k, [s])),
                                            rel=1e-12, abs=1e-12)
    assert complex(vec[1]) == pytest.approx(1.0)


@given(st.floats(min_value=0.05, max_value=8.0),
       st.one_of(st.lists(st.floats(min_value=-20.0, max_value=60.0), min_size=1, max_size=4),
                 st.lists(complex_args, min_size=1, max_size=4)))
@example(1.0, [0.0, 1.0, 0.3333333333333333, 2.0])
def test_f_series_is_the_vector_kernel(k, w):
    """The scalar and the vectorized F run one shell recurrence: equal bit
    for bit at the same summed argument, real or complex.  f_series sums w
    as complex numbers, and numpy sums a float array in another order
    (0 + 1 + 1/3 + 2 differs in the last bit), so the argument here is the
    complex sum too, taken real when every w_a is."""
    w_c = np.asarray(w, dtype=complex)
    s = np.sum(w_c)
    s = s.real if np.all(w_c.imag == 0.0) else s
    assert coherent.f_series(k, w) == coherent._f_series_vec(k, np.array([s]))[0]


@pytest.mark.parametrize("lanes", [1, 64, 1000])
@pytest.mark.parametrize("s", [-100.0 + 30.0j, -400.0 + 1e-3j, 2.3 - 0.7j, 35.0 + 40.0j])
def test_f_series_is_every_lane_of_a_batch(lanes, s):
    """A lone complex argument and a batch of 1, 64 or 1000 copies of it
    give the same bits: numpy's one-element and vector complex loops must
    round alike, near the negative axis too, where the shells cancel.
    (Lanes of different arguments can differ in their last bits, since a
    batch runs until its slowest lane has converged.)"""
    batch = coherent._f_series_vec(1.5, np.full(lanes, s))
    assert batch.tobytes() == np.full(lanes, coherent.f_series(1.5, [s])).tobytes()


@pytest.mark.parametrize("kind", [float, complex])
def test_batch_lanes_are_within_shell_tol_of_their_lone_calls(kind):
    """A one-lane call is f_series bit for bit.  A batch's lanes share one
    stop shell, so a lane can take on tail shells below SHELL_TOL that its
    lone call stopped before: each lane is its lone call to SHELL_TOL
    relative, not bit for bit."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = rng.uniform(0.2, 5.0)
        s = rng.uniform(-20.0, 60.0, 50)
        if kind is complex:
            s = s + 1j * rng.uniform(-30.0, 30.0, 50)
        batch = coherent._f_series_vec(k, s)
        alone = np.array([coherent._f_series_vec(k, s[i:i + 1])[0] for i in range(s.size)])
        lone_f = np.array([coherent.f_series(k, [v]) for v in s.tolist()])
        assert alone.tobytes() == lone_f.tobytes()
        assert np.all(np.abs(batch - alone) <= coherent.SHELL_TOL * np.abs(alone))


@given(st.floats(min_value=0.05, max_value=8.0),
       st.one_of(st.lists(st.floats(min_value=-20.0, max_value=60.0), min_size=1, max_size=6),
                 st.lists(complex_args, min_size=1, max_size=6)))
def test_unit_shell_weights_leave_the_kernel_unchanged(k, s):
    """Weighting every shell by 1 is the unweighted kernel, bit for bit."""
    s = np.asarray(s)
    ones = np.ones(coherent.MAX_SHELLS + 1)
    plain = coherent._f_series_vec(k, s)
    weighted = coherent._f_series_vec(k, s, weights=ones)
    assert weighted.dtype == plain.dtype
    assert np.array_equal(weighted, plain)


def test_shell_weights_scale_each_shell():
    """The weighted kernel sums weights[d] * shell_d, and its convergence test
    reads the weighted shell: zero weights past degree 2 stop it two shells
    later, even at an s whose unweighted shells are still growing."""
    k, s = 1.5, np.array([0.0, 0.4, 2.0, 50.0])
    weights = np.zeros(11)
    weights[:3] = (2.0, 3.0, 5.0)
    expected = 2.0 + 3.0 * s / k + 5.0 * s**2 / (2.0 * k * (k + 1.0))
    got = coherent._shell_sum(k, s, coherent.SHELL_TOL, 10, weights)
    assert got == pytest.approx(expected, rel=1e-15)
    with pytest.raises(coherent.ConvergenceError):
        coherent._shell_sum(k, np.array([50.0]), coherent.SHELL_TOL, 3, np.ones(4))


def test_overflow_raises_overflow_not_convergence_error():
    """A lane that leaves double range is an overflow, even when the series
    runs to max_shells on the NaNs it produces."""
    with pytest.raises(OverflowError):
        coherent._f_series_vec(1.0, np.array([0.5, 1e300 + 0j]))
    with pytest.raises(OverflowError):
        coherent.f_series(1.0, [1e300 + 1e300j])
    with pytest.raises(coherent.ConvergenceError):
        coherent._shell_sum(1.0, np.array([0.5, 50.0]), coherent.SHELL_TOL, 3)


def _outcome(f, k, s, max_shells=coherent.MAX_SHELLS, weights=None, tol=coherent.SHELL_TOL):
    """A shell sum's bits, dtype and shape, or its error class and text."""
    try:
        total = f(k, s, tol, max_shells, weights)
    except (OverflowError, coherent.ConvergenceError) as exc:
        return type(exc), str(exc)
    return total.dtype, total.shape, total.tobytes()


def _shell_family(name, lanes, rng):
    """(k, s, weights) for one family of lanes: real, negative, purely
    imaginary, complex near the negative axis, complex in a disc, a 2-D
    batch as the sliced trace passes it, and real or complex lanes under
    shell weights."""
    k = float(rng.uniform(0.05, 8.0))
    ramp = np.linspace(0.5, 2.0, coherent.MAX_SHELLS + 1)
    return {
        "real": (k, rng.uniform(-60.0, 60.0, lanes), None),
        "negative": (k, -rng.uniform(0.0, 400.0, lanes), None),
        "imaginary": (k, 1j * rng.uniform(-50.0, 50.0, lanes), None),
        "near-negative-axis": (k, rng.uniform(-400.0, 60.0, lanes)
                               + 1j * rng.uniform(-40.0, 40.0, lanes), None),
        "disc": (k, rng.uniform(0.0, 30.0, lanes)
                 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, lanes)), None),
        "sliced": (k, (rng.uniform(-2.0, 3.0, (lanes, 3))
                       + 1j * rng.uniform(-3.0, 3.0, (lanes, 3))), None),
        "weighted-real": (k, rng.uniform(0.0, 50.0, lanes), ramp),
        "weighted-complex": (k, rng.uniform(-50.0, 50.0, lanes) + 0.5j, ramp),
    }[name]


LANES = 20_005  # a call of many lanes, with room for a slow lane far from the first


def _lanes_of(fill, dtype):
    """LANES lanes of `fill`, as `dtype`."""
    return np.full(LANES, fill, dtype=dtype)


def _with(s, lanes, value):
    s = s.copy()
    s[lanes] = value
    return s


@pytest.mark.parametrize("lanes", [0, 1, 2, 7, 300, 3000, pytest.param(16_385, id="block+1"),
                                   40_001])
@pytest.mark.parametrize("family", ["real", "negative", "imaginary", "near-negative-axis",
                                    "disc", "sliced", "weighted-real", "weighted-complex"])
def test_shell_sum_is_the_reference_loop(family, lanes):
    """The kernel's watched-lane stop test and its reciprocal scaling of
    complex lanes leave every bit of the plain every-lane loop.  block+1 is
    one lane (row, for the sliced family) more than a Monte Carlo caller
    passes in one call, one measure._BLOCK_ROWS block of 16,384; 40,001 is
    more again."""
    k, s, weights = _shell_family(family, lanes, np.random.default_rng(lanes))
    assert (_outcome(coherent._shell_sum, k, s, weights=weights)
            == _outcome(oracles.shell_sum_reference, k, s, weights=weights))


@pytest.mark.parametrize("s", [
    _with(_lanes_of(0.5, float), -2, 300.0),
    _with(_lanes_of(0.5, float), 10_007, -250.0),
    _with(_lanes_of(0.5, complex), -1, -300.0 + 1.0j),
    _with(_lanes_of(0.5, complex), 10_003, 40.0 + 60.0j),
])
def test_one_slow_lane_sets_the_calls_one_stop_shell(s):
    """Every lane but one settles within 20 shells, where the whole array
    does not: that slow lane sets the one stop shell of every lane."""
    rest = np.delete(s, int(np.abs(s).argmax()))
    assert _outcome(oracles.shell_sum_reference, 1.5, rest, 20)[0] == s.dtype
    assert _outcome(oracles.shell_sum_reference, 1.5, s, 20)[0] is coherent.ConvergenceError
    assert _outcome(coherent._shell_sum, 1.5, s) == _outcome(oracles.shell_sum_reference, 1.5, s)


@pytest.mark.parametrize("mu", [[1.0, 1.6], [1.0, 1.6, 2.2]])
@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_kernel_trace_shell_sum_is_the_reference_loop(mu, beta):
    """The weighted pass of the quadrature kernel trace, over radial nodes
    from 1e-3 to 300: the reference loop's bits."""
    moments, g_max = pathint._angular_moments(np.exp(-beta * np.array(mu)))
    s = np.geomspace(1e-3, 300.0, 97) * g_max
    for k in (0.5, 2.5):
        assert (_outcome(coherent._shell_sum, k, s, weights=moments)
                == _outcome(oracles.shell_sum_reference, k, s, weights=moments))


@pytest.mark.parametrize("s, max_shells, error", [
    (np.array([0.5, np.inf, 2.0]), coherent.MAX_SHELLS, OverflowError),
    (np.array([0.5, 2.0, 1.0 + np.inf * 1j]), coherent.MAX_SHELLS, OverflowError),
    (np.array([0.5, np.nan, 2.0]), coherent.MAX_SHELLS, OverflowError),
    (np.array([0.5, 2.0 + np.nan * 1j]), coherent.MAX_SHELLS, OverflowError),
    (np.array([0.5, 1e300 + 1e300j]), coherent.MAX_SHELLS, OverflowError),
    (np.array([0.5, 50.0]), 3, coherent.ConvergenceError),
    (np.array([0.5, -50.0 + 1j]), 4, coherent.ConvergenceError),
    (_with(_lanes_of(0.5, float), -1, np.inf), coherent.MAX_SHELLS, OverflowError),
    (_with(_lanes_of(0.5, float), -1, np.nan), coherent.MAX_SHELLS, OverflowError),
    (_with(_lanes_of(0.5 + 0.5j, complex), -1, 1.0 + np.inf * 1j), coherent.MAX_SHELLS,
     OverflowError),
    (_with(_lanes_of(0.5 + 0.5j, complex), -3, np.nan), coherent.MAX_SHELLS, OverflowError),
    (_with(_lanes_of(0.5, float), -1, 50.0), 12, coherent.ConvergenceError),
    (_with(_lanes_of(0.5 - 1.0j, complex), -1, -50.0 + 1.0j), 12, coherent.ConvergenceError),
    (_with(_with(_lanes_of(0.5, float), -1, 50.0), 0, np.inf), 12, OverflowError),
])
def test_shell_sum_errors_are_the_reference_loops(s, max_shells, error):
    """An inf or NaN lane, a lane past double range and too few shells
    raise the reference loop's error, class and text; so do an inf or NaN
    lane at the end of a long call, and too few shells for its last lane
    (the |s| = 0.5 lanes settle by shell 12), where an inf first lane
    outranks ConvergenceError."""
    got = _outcome(coherent._shell_sum, 1.5, s, max_shells)
    assert got[0] is error
    assert got == _outcome(oracles.shell_sum_reference, 1.5, s, max_shells)


class _CountingNumpy:
    """numpy, counting the kernel's array stop tests (one np.less_equal each)."""

    def __init__(self):
        self.tests = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def less_equal(self, *args, **kwargs):
        self.tests += 1
        return np.less_equal(*args, **kwargs)


@pytest.mark.parametrize("s", [np.array([400.0, -300.0]), np.array([400.0, 0.5, -300.0 + 1j])])
def test_watched_lane_moves_to_the_last_lane_above(monkeypatch, s):
    """The lane of largest |s| is watched first, but the 400 lane settles at
    shell 50 and the -300 lane, whose sum is small, at shell 62.  A failed
    array test must hand the watch to that lane, so the shells in between
    skip the array test; watching the first lane throughout would run it
    on each of them (14 tests in all)."""
    counting = _CountingNumpy()
    monkeypatch.setattr(coherent, "np", counting)
    got = _outcome(coherent._shell_sum, 1.5, s)
    monkeypatch.undo()
    assert got == _outcome(oracles.shell_sum_reference, 1.5, s)
    assert counting.tests <= 4


def test_watched_lane_margin_covers_the_abs_rounding_gap():
    """Python's abs and numpy's array abs differ in the last bit for about a
    third of complex arguments.  Here |s| reads 1.061307331223928 in Python
    and one ulp less in numpy, and tol is set so numpy's bound equals that:
    the array test finds shell 1 below and (weight 0) so is shell 2, so the
    sum stops at shell 2.  A scalar pre-test without its factor-2 margin
    would read shell 1 as above and raise ConvergenceError."""
    s = np.array([0.6284737507154365 + 0.8552157598941496j])
    weights = np.array([1.7019116978095954, 1.0, 0.0])
    tol = 0.42754037506256404
    assert abs(complex(s[0])) > float(np.abs(s)[0])  # the gap this test needs
    got = _outcome(coherent._shell_sum, 1.0, s, 2, weights, tol)
    assert got == _outcome(oracles.shell_sum_reference, 1.0, s, 2, weights, tol)
    assert got[0] == np.complex128


@given(st.floats(min_value=0.3, max_value=5.0),
       st.lists(complex_args, min_size=1, max_size=2),
       st.lists(complex_args, min_size=1, max_size=2))
def test_inner_product_conjugate_symmetry(k, z, zp):
    if len(z) != len(zp):
        zp = (zp * 2)[: len(z)]
    lhs = complex(coherent.inner_product(z, zp, k))
    rhs = complex(coherent.inner_product(zp, z, k))
    assert lhs == pytest.approx(rhs.conjugate(), rel=1e-12, abs=1e-12)


@given(st.floats(min_value=0.3, max_value=5.0),
       st.lists(complex_args, min_size=1, max_size=3))
def test_self_overlap_real_and_at_least_one(k, z):
    val = coherent.inner_product(z, z, k)
    assert float(np.imag(val)) == 0.0
    assert float(np.real(val)) >= 1.0


@given(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.3, max_value=4.0),
    st.lists(complex_args, min_size=3, max_size=3),
)
def test_eigenvalue_property_interior(n, k, comps):
    """Each label component is an exact eigenvalue of the lowering
    generator on interior degrees, for any label magnitude."""
    z = np.array(comps[:n])
    space = fock.rep_space(n, k, 5)
    for alpha in range(1, n + 1):
        assert coherent.eigen_residual(z, space, alpha) <= 1e-12


def test_state_vector_layout():
    space = fock.rep_space(2, 2.0, 2)
    z = np.array([0.5, -0.25 + 0.1j])
    vec = coherent.state_vector(z, space)
    assert vec[0] == 1.0
    i = space.rank((1, 1))
    expected = coherent.coefficient((1, 1), 2.0) * z[0] * z[1]
    assert vec[i] == pytest.approx(expected, rel=1e-14)


def test_f_series_failure_modes(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(coherent, "MAX_SHELLS", 3)
        with pytest.raises(coherent.ConvergenceError, match="within 3 shells"):
            coherent.f_series(1.0, [50.0])
    with pytest.raises(OverflowError):
        coherent.f_series(1.0, [1e300])
    with pytest.raises(ValueError):
        coherent.f_series(-1.0, [1.0])
    with pytest.raises(ValueError):
        coherent.f_series(1.0, [])
    with pytest.raises(ValueError):
        coherent.inner_product([1.0], [1.0, 2.0], 1.0)


def test_non_finite_labels_raise_before_any_arithmetic():
    """An inf component used to meet 0 in conj(z) * zp, which warned
    'invalid value encountered in multiply' before the ValueError."""
    with pytest.raises(ValueError,
                       match=r"^need finite z of length >= 1, got \[\(inf\+0j\), 0j\]$"):
        coherent.inner_product([math.inf, 0.0], [0.5, 0.1], 1.5)
    with pytest.raises(ValueError,
                       match=r"^need finite zp of length 2, got \[\(0\.5\+0j\), nanj\]$"):
        coherent.inner_product([0.5, 0.1], [0.5, complex(0.0, math.nan)], 1.5)


def test_f_series_overflowing_sum_is_an_overflow_error():
    """sum(w) = inf raises the shell kernel's OverflowError, with no
    numpy overflow warning on the way."""
    with pytest.raises(OverflowError, match=r"^F series \(k=1\.0\) exceeds double range$"):
        coherent.f_series(1.0, [1e308, 1e308])


def test_occupations_must_be_integers():
    """A fractional occupation used to be truncated: (1.5, 0) gave C_(1, 0)."""
    with pytest.raises(ValueError, match=r"^need non-negative integer n, got \[1\.5, 0\.0\]$"):
        coherent.coefficient((1.5, 0), 1.5)
    assert coherent.coefficient(np.array([1, 0]), 1.5) == coherent.coefficient((1, 0), 1.5)


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_f_series_needs_finite_k(k):
    """K must be finite and > 0, as for rep_space and MeasureModel."""
    with pytest.raises(ValueError, match="need finite k > 0"):
        coherent.f_series(k, [1.0])
    with pytest.raises(ValueError, match="need finite k > 0"):
        coherent.inner_product([0.5, 0.1j], [0.2, 0.3], k)


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_coefficient_needs_finite_k(k):
    """A non-finite K is refused by coefficient itself, not by log_gamma's p."""
    with pytest.raises(ValueError, match=r"^need finite k > 0, got"):
        coherent.coefficient((1, 0), k)


def test_amplitude_domain_checks():
    space = fock.rep_space(2, 1.5, 3)
    with pytest.raises(ValueError, match=r"^need finite k > 0, got 0\.0$"):
        coherent.coefficient((1, 0), 0.0)
    with pytest.raises(ValueError, match=r"^need finite k > 0, got -1\.5$"):
        coherent.coefficient((1, 0), -1.5)
    with pytest.raises(ValueError, match=r"^need non-negative integer n, got \[1, -1\]$"):
        coherent.coefficient((1, -1), 1.5)
    with pytest.raises(ValueError, match=r"^need finite z of length 2, got \[\(0\.1\+0j\), "):
        coherent.state_vector([0.1, 0.2, 0.3], space)
    with pytest.raises(ValueError, match=r"^need finite z of length 2, got \[\[\(0\.1\+0j\), "):
        coherent.state_vector([[0.1, 0.2]], space)
    for bad in (math.nan, math.inf, complex(0.0, math.inf)):
        with pytest.raises(ValueError, match=r"^need finite z of length 2, got \[\(0\.1\+0j\), "
                                             f"{re.escape(repr(complex(bad)))}\\]$"):
            coherent.state_vector([0.1, bad], space)
    for alpha in (0, 3):
        with pytest.raises(ValueError, match=r"alpha must lie in 1\.\.2"):
            coherent.eigen_residual([0.1, 0.2], space, alpha)
