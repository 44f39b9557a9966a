"""Truncated representation spaces for u(N,1) and their generator matrices.

The algebra is realized on N+1 oscillator modes with the last occupation
slaved to the first N: a basis ket is labelled by a multi-index
(n_1, ..., n_N) and carries n_{N+1} = K - 1 + sum(n).  The generators act
as

    E_{ab}      |n> = sqrt(n_b (n_a + 1)) |n + e_a - e_b>      a, b <= N, a != b
    E_{aa}      |n> = n_a |n>
    E_{a,N+1}   |n> = sqrt((n_a + 1)(K + sum n)) |n + e_a>     raising
    E_{N+1,a}   |n> = sqrt(n_a (K - 1 + sum n)) |n - e_a>      lowering
    E_{N+1,N+1} |n> = (K + sum n) |n>

with K any positive real.  All five are one bilinear rule E_{ab} = c_a d_b:
d_b is a_b (weight n_b) or, for b = N+1, the slaved b^dagger (weight
K + sum n); then c_a is a_a^dagger (weight n_a + 1 after d_b) or, for
a = N+1, the slaved b (weight K - 1 + sum n after a lowering, K + sum n
after b^dagger).  The entry is sqrt(weight_d weight_c); on the diagonal
that is sqrt(w * w), which IEEE returns as w exactly.  A zero weight is
skipped, so for 0 < K < 1 no sqrt of a negative forms, and no occupation
factorial appears, so no entry requires integer K.

Truncation keeps multi-indices with total degree <= cutoff.  A space holds
them as the rows of an integer array, ordered by total degree and then
lexicographically, and maps occupation rows back to basis indices by the
combinatorial number system.  Raising generators silently annihilate
components that would leave the truncated space; consistency checks
therefore restrict to interior states (degree at most cutoff - 2 for
products of two generators).  Matrices are dense ndarrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import _integer, _positive


@dataclass
class TruncatedRepSpace:
    """Degree-truncated carrier space for one (N, K) representation.

    `occ` holds one occupation row (n_1, ..., n_N) per basis index and
    `deg` its total degree; `binom[m, j]` is the binomial C(m, j) that
    `rank` needs, for m < cutoff + N and j <= N.
    """

    n: int
    k: float
    cutoff: int
    occ: np.ndarray = field(repr=False, compare=False)
    deg: np.ndarray = field(repr=False, compare=False)
    binom: np.ndarray = field(repr=False, compare=False)

    @property
    def dim(self):
        return len(self.occ)

    def rank(self, rows):
        """Basis indices of occupation rows (shape (..., N)).

        A row of degree d follows the C(d - 1 + N, N) rows of lower degree.
        Within its degree, among the rows that share its components before
        a, those smaller at a come first: C(r + p, p) - C(r - n_a + p, p) of
        them, where r is the degree left for the components from a on and
        p the number of components after a.  Raises ValueError for a row
        outside the space.
        """
        rows = np.asarray(rows)
        if rows.shape[-1:] != (self.n,) or not np.issubdtype(rows.dtype, np.integer):
            raise ValueError(f"need integer occupation rows of length {self.n}, got {rows!r}")
        deg = rows.sum(axis=-1)
        if np.any(rows < 0) or np.any(deg > self.cutoff):
            raise ValueError(f"occupation rows outside the space (cutoff {self.cutoff}): {rows!r}")
        index = self.binom[deg + self.n - 1, self.n]
        left = deg
        for a, p in enumerate(range(self.n - 1, 0, -1)):
            index = index + self.binom[left + p, p]
            left = left - rows[..., a]
            index = index - self.binom[left + p, p]
        return index


def rep_space(n, k, cutoff):
    """Build the truncated space: all multi-indices with total degree <= cutoff,
    ordered by total degree and lexicographically within each degree."""
    n, k, cutoff = _integer("n", n, 1), _positive("k", k), _integer("cutoff", cutoff, 0)
    # all rows of degree <= cutoff in lexicographic order, one column at a time
    occ = np.arange(cutoff + 1).reshape(-1, 1)
    for _ in range(n - 1):
        room = cutoff + 1 - occ.sum(axis=1)
        start = np.repeat(np.cumsum(room) - room, room)
        occ = np.column_stack([np.repeat(occ, room, axis=0), np.arange(len(start)) - start])
    deg = occ.sum(axis=1)
    order = np.argsort(deg, kind="stable")
    binom = np.array([[math.comb(m, j) for j in range(n + 1)] for m in range(cutoff + n)])
    return TruncatedRepSpace(n, k, cutoff, occ[order], deg[order], binom)


def generator_matrix(space, alpha, beta):
    """Matrix of E_{alpha beta} = c_alpha d_beta on the truncated space
    (1-based indices, alpha and beta in 1..N+1); see the module docstring."""
    n, k, occ, deg = space.n, space.k, space.occ, space.deg
    if not (1 <= alpha <= n + 1 and 1 <= beta <= n + 1):
        raise ValueError(f"need generator indices alpha, beta in 1..{n + 1}, got ({alpha}, {beta})")
    target = occ.copy()
    if beta <= n:  # a_beta
        weight = occ[:, beta - 1]
        target[:, beta - 1] -= 1
    else:  # the slaved b^dagger: n_{N+1} + 1, formed as K + |n|
        weight = k + deg
    if alpha <= n:  # a_alpha^dagger
        weight = weight * (target[:, alpha - 1] + 1)
        target[:, alpha - 1] += 1
    else:  # the slaved b: n_{N+1} = K - 1 + |n|, or K + |n| after b^dagger
        weight = weight * (k + deg if beta > n else k - 1.0 + deg)
    # a row raised past the cutoff is annihilated
    weight = weight * (deg <= space.cutoff - (alpha <= n) + (beta <= n))
    cols = np.flatnonzero(weight)
    mat = np.zeros((space.dim, space.dim))
    mat[space.rank(target[cols]), cols] = np.sqrt(weight[cols])
    return mat


def _metric(a, b, n):
    """eta_{ab} = diag(1, ..., 1, -1) on indices 1..N+1."""
    if a != b:
        return 0.0
    return -1.0 if a == n + 1 else 1.0


def commutator_residual(space, first, second):
    """Max-abs deviation of [E_first, E_second] from the structure relation

        [E_{ab}, E_{cd}] = eta_{bc} E_{ad} - eta_{da} E_{cb},

    measured only on interior matrix elements (row and column degree at
    most cutoff - 2), since a product of two generators can reach two
    degrees beyond its argument and truncation corrupts the boundary.
    """
    a, b = first
    c, d = second
    am = generator_matrix(space, a, b)
    bm = generator_matrix(space, c, d)
    resid = am @ bm - bm @ am
    resid -= _metric(b, c, space.n) * generator_matrix(space, a, d)
    resid += _metric(d, a, space.n) * generator_matrix(space, c, b)
    interior = space.deg <= space.cutoff - 2
    if not interior.any():
        raise ValueError(f"cutoff {space.cutoff} leaves no interior states")
    block = resid[np.ix_(interior, interior)]
    return float(np.max(np.abs(block))) if block.size else 0.0


def subsidiary_residual(space):
    """Max-abs deviation of -sum_a E_{aa} + E_{N+1,N+1} from K times the
    identity; exact by construction, kept as a structural check."""
    total = -sum(
        generator_matrix(space, a, a) for a in range(1, space.n + 1)
    ) + generator_matrix(space, space.n + 1, space.n + 1)
    resid = total - space.k * np.eye(space.dim)
    return float(np.max(np.abs(resid)))

