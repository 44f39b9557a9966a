"""Truncated representation spaces: basis layout, generator amplitudes
and structure relations."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from bgcs import fock


def test_rep_space_layout():
    space = fock.rep_space(2, 1.0, 2)
    assert space.dim == 6
    assert space.occ.tolist() == [[0, 0], [0, 1], [1, 0], [0, 2], [1, 1], [2, 0]]
    assert space.deg.tolist() == [0, 1, 1, 2, 2, 2]
    assert space.rank((1, 1)) == 4


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=6))
def test_rep_space_dimension(n, cutoff):
    space = fock.rep_space(n, 2.0, cutoff)
    assert space.dim == math.comb(cutoff + n, n)
    degrees = space.deg.tolist()
    assert degrees == sorted(degrees)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=8),
       st.data())
def test_rank_inverts_layout(n, cutoff, data):
    space = fock.rep_space(n, 1.0, cutoff)
    assert np.array_equal(space.rank(space.occ), np.arange(space.dim))
    row = list(space.occ[data.draw(st.integers(0, space.dim - 1))])
    a = data.draw(st.integers(0, n - 1))
    negative = row.copy()
    negative[a] = -1
    above = row.copy()
    above[a] += cutoff + 1 - sum(row)
    for outside in (negative, above):
        with pytest.raises(ValueError):
            space.rank(outside)


def test_rep_space_domain():
    with pytest.raises(ValueError):
        fock.rep_space(0, 1.0, 3)
    with pytest.raises(ValueError):
        fock.rep_space(1, -0.5, 3)
    with pytest.raises(ValueError):
        fock.rep_space(1, 1.0, -1)


def test_generator_amplitudes_by_hand():
    """Spot-check each action case against the oscillator formulas."""
    k = 1.0
    space = fock.rep_space(2, k, 3)

    def entry(mat, target, source):
        return mat[space.rank(target), space.rank(source)]

    # ladder within the first N modes: E_{21}|2,0> = sqrt(2*1)|1,1>
    e21 = fock.generator_matrix(space, 2, 1)
    assert entry(e21, (1, 1), (2, 0)) == pytest.approx(math.sqrt(2.0))
    # raising: E_{1,3}|1,1> = sqrt((1+1)(K+2))|2,1>
    raise1 = fock.generator_matrix(space, 1, 3)
    assert entry(raise1, (2, 1), (1, 1)) == pytest.approx(math.sqrt(2.0 * (k + 2.0)))
    # lowering: E_{3,2}|1,1> = sqrt(1*(K-1+2))|1,0>
    lower2 = fock.generator_matrix(space, 3, 2)
    assert entry(lower2, (1, 0), (1, 1)) == pytest.approx(math.sqrt(k + 1.0))
    # diagonals
    number1 = fock.generator_matrix(space, 1, 1)
    assert entry(number1, (2, 1), (2, 1)) == pytest.approx(2.0)
    last = fock.generator_matrix(space, 3, 3)
    assert entry(last, (1, 1), (1, 1)) == pytest.approx(k + 2.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_matrix_keeps_the_five_branch_bits(n):
    """The one bilinear rule c_alpha d_beta reproduces, byte for byte and
    sign bits included, the five per-class formulas of the module docstring
    (tests/oracles.py generator_matrix_reference), for K below and above 1
    and at every (alpha, beta)."""
    for k in (0.05, 0.3, 0.5, 1.0, 1.7, 3.3, 11.1):
        for cutoff in range(7):
            space = fock.rep_space(n, k, cutoff)
            for alpha in range(1, n + 2):
                for beta in range(1, n + 2):
                    got = fock.generator_matrix(space, alpha, beta)
                    want = oracles.generator_matrix_reference(space, alpha, beta)
                    assert got.tobytes() == want.tobytes(), (k, cutoff, alpha, beta)


def test_raising_annihilates_at_cutoff():
    space = fock.rep_space(2, 1.5, 3)
    raising = fock.generator_matrix(space, 1, 3)
    for i in np.flatnonzero(space.deg == space.cutoff):
        assert np.all(raising[:, i] == 0.0)


def test_small_k_lowering_stays_real():
    """For 0 < K < 1 the degree-zero lowering coefficient is skipped, so no
    sqrt of a negative number ever forms."""
    space = fock.rep_space(1, 0.25, 4)
    lowering = fock.generator_matrix(space, 2, 1)
    assert np.all(np.isfinite(lowering))
    # first nonzero amplitude: E_{21}|1> = sqrt(1 * (K - 1 + 1))|0>
    assert lowering[0, 1] == pytest.approx(math.sqrt(0.25))


@pytest.mark.parametrize("n,k", [(1, 0.5), (1, 2.5), (2, 0.75), (2, 1.0)])
def test_structure_relations_small_grid(n, k):
    space = fock.rep_space(n, k, 4)
    pairs = [(a, b) for a in range(1, n + 2) for b in range(1, n + 2)]
    worst = max(
        fock.commutator_residual(space, first, second)
        for first in pairs
        for second in pairs
    )
    assert worst <= 1e-12
    assert fock.subsidiary_residual(space) <= 1e-12


def test_interior_required():
    space = fock.rep_space(1, 1.0, 1)
    with pytest.raises(ValueError):
        fock.commutator_residual(space, (1, 2), (2, 1))


def test_generator_index_domain():
    space = fock.rep_space(1, 1.0, 3)
    with pytest.raises(ValueError):
        fock.generator_matrix(space, 0, 1)
    with pytest.raises(ValueError):
        fock.generator_matrix(space, 1, 3)
