"""Coherent-state amplitudes, the overlap series, and the eigenvalue
property on truncated spaces."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bgcs import coherent, fock, specfun

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
    got = coherent._f_series_vec(k, s, max_shells=10, weights=weights)
    assert got == pytest.approx(expected, rel=1e-15)
    with pytest.raises(coherent.ConvergenceError):
        coherent._f_series_vec(k, np.array([50.0]), max_shells=3, weights=np.ones(4))


def test_overflow_raises_overflow_not_convergence_error():
    """A lane that leaves double range is an overflow, even when the series
    runs to max_shells on the NaNs it produces."""
    with pytest.raises(OverflowError):
        coherent._f_series_vec(1.0, np.array([0.5, 1e300 + 0j]))
    with pytest.raises(OverflowError):
        coherent.f_series(1.0, [1e300 + 1e300j])
    with pytest.raises(coherent.ConvergenceError):
        coherent._f_series_vec(1.0, np.array([0.5, 50.0]), max_shells=3)


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


def test_f_series_failure_modes():
    with pytest.raises(coherent.ConvergenceError):
        coherent.f_series(1.0, [50.0], max_shells=3)
    with pytest.raises(OverflowError):
        coherent.f_series(1.0, [1e300])
    with pytest.raises(ValueError):
        coherent.f_series(-1.0, [1.0])
    with pytest.raises(ValueError):
        coherent.f_series(1.0, [])
    with pytest.raises(ValueError):
        coherent.inner_product([1.0], [1.0, 2.0], 1.0)


def test_amplitude_domain_checks():
    space = fock.rep_space(2, 1.5, 3)
    with pytest.raises(ValueError, match="need k > 0"):
        coherent.coefficient((1, 0), 0.0)
    with pytest.raises(ValueError, match="need k > 0"):
        coherent.coefficient((1, 0), -1.5)
    with pytest.raises(ValueError, match="nonnegative"):
        coherent.coefficient((1, -1), 1.5)
    with pytest.raises(ValueError, match="2 components"):
        coherent.state_vector([0.1, 0.2, 0.3], space)
    with pytest.raises(ValueError, match="2 components"):
        coherent.state_vector([[0.1, 0.2]], space)
    for bad in (math.nan, math.inf, complex(0.0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            coherent.state_vector([0.1, bad], space)
    for alpha in (0, 3):
        with pytest.raises(ValueError, match=r"alpha must lie in 1\.\.2"):
            coherent.eigen_residual([0.1, 0.2], space, alpha)
