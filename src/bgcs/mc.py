"""Deterministic Monte Carlo plumbing shared by the measure and trace code.

Every stochastic routine takes (seed, workers) and samples through
`draws`: one RNG stream per worker from SeedSequence.spawn, worker index =
stream index, each worker's share drawn in chunks.  Workers are processed
in index order and reduce by summation, so a result depends only on
(seed, workers), never on scheduling, and reports serialize to identical
bytes across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _integer

DEFAULT_SEED = 20260823
# The piece length of the Monte Carlo resolution of unity and the kernel and
# sliced traces: the kernel trace holds a piece's labels whole, the other two its
# radii whole and the rest one measure._BLOCK_ROWS block at a time.  sample and
# sampler_report take each worker's share as one piece: the layout fixes the labels.
CHUNK = 200_000


def spawn_rngs(seed, workers):
    """One independent Generator per worker, deterministically derived."""
    seed, workers = _integer("seed", seed, 0), _integer("workers", workers, 1)
    children = np.random.SeedSequence(seed).spawn(workers)
    return [np.random.Generator(np.random.PCG64(c)) for c in children]


def split_count(total, workers):
    """Partition a sample budget across workers (first workers get the remainder)."""
    base, rem = divmod(_integer("sample count", total, 1), int(workers))
    return [base + (1 if i < rem else 0) for i in range(int(workers))]


def draws(seed, workers, total, cap):
    """(rng, count) pairs in worker order: each worker's share of `total`
    in pieces of at most `cap`, from that worker's stream.  seed, workers
    and total are checked on the call, before any stream is made, so a
    caller can refuse them before its own work."""
    seed, workers = _integer("seed", seed, 0), _integer("workers", workers, 1)
    shares = split_count(total, workers)

    def pieces():
        for rng, share in zip(spawn_rngs(seed, workers), shares):
            for done in range(0, share, cap):
                yield rng, min(cap, share - done)

    return pieces()


@dataclass
class RunningMoments:
    """Streaming mean/variance accumulator (complex-safe: the variance is
    taken of |x|, which upper-bounds the variance of either component)."""

    n: int = 0
    s1: complex = 0.0
    s2: float = 0.0  # sum of |x|^2
    max_abs: float = 0.0

    def add(self, values):
        values = np.asarray(values)
        magnitude = np.abs(values)
        self.n += values.size
        with np.errstate(over="ignore"):  # heavy tails saturate to inf, reported via sem
            self.s1 += complex(np.sum(values))
            self.s2 += float(np.sum(magnitude**2))
        if values.size:
            self.max_abs = max(self.max_abs, float(np.max(magnitude)))

    def merge(self, other):
        self.n += other.n
        self.s1 += other.s1
        self.s2 += other.s2
        self.max_abs = max(self.max_abs, other.max_abs)
        return self

    @property
    def mean(self):
        if self.n == 0:
            raise ValueError("no samples accumulated")
        m = self.s1 / self.n
        return m.real if m.imag == 0.0 else m

    @property
    def sem(self):
        """Standard error of the mean; inf once the second moment overflows."""
        if self.n < 2:
            return math.inf
        m = abs(self.s1 / self.n)
        mean_sq = m * m
        second = self.s2 / self.n
        if not (math.isfinite(second) and math.isfinite(mean_sq)):
            return math.inf
        var = max(second - mean_sq, 0.0) * self.n / (self.n - 1)
        return math.sqrt(var / self.n)

    @property
    def max_fraction(self):
        """Largest single |sample| over the total |sum|; near 1 flags a
        heavy-tailed estimator whose error bar cannot be trusted."""
        denom = abs(self.s1)
        if denom == 0.0:
            return 0.0
        return self.max_abs / denom
