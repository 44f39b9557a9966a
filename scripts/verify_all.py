#!/usr/bin/env python3
"""Run the full deterministic verification sweep and print one line per check.

Covers the series/Bessel reduction, the generator algebra and subsidiary
condition, the coherent-state eigen property, the radial moment identity,
the resolution of unity, both closed-form integral formulas, the kernel
vs spectral trace, the sliced trace vs its reference, the closed-form
<z|H|z'> vs the finite section of H, the amplitude recursion vs the
closed-form amplitudes, and the N = 1 slice exponent in Bessel vs series
form. Exits 0 if every check lands inside its tolerance, 2 otherwise.

Usage:
    python scripts/verify_all.py              # default grids, quiet-ish
    python scripts/verify_all.py --n-max 2    # smaller sweep
"""

import argparse
import itertools
import math
import sys
import time

import numpy as np

from bgcs import coherent, fock, measure, pathint, specfun


def check_bessel(args):
    worst = 0.0
    for k in (1.0, 2.0, 3.5, 5.0):
        for x in (0.05, 0.3, 1.0, 4.0, 10.0):
            f_val = coherent.f_series(k, [x])
            ref = (specfun.gamma(k) * x ** (0.5 * (1.0 - k))
                   * specfun.bessel_i(k - 1.0, 2.0 * math.sqrt(x)))
            worst = max(worst, abs(f_val - ref) / abs(ref))
    return worst, 1e-10


def check_algebra(args):
    worst = 0.0
    for n in range(1, args.n_max + 1):
        pairs = [(a, b) for a in range(1, n + 2) for b in range(1, n + 2)]
        for k in (0.5, 1.0, 2.5, float(n + 2)):
            space = fock.rep_space(n, k, args.cutoff)
            for first, second in itertools.product(pairs, pairs):
                worst = max(worst, fock.commutator_residual(space, first, second))
            worst = max(worst, fock.subsidiary_residual(space))
    return worst, 1e-12


def check_eigen(args):
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for n in range(1, args.n_max + 1):
        for k in (0.5, 1.0, 2.5):
            space = fock.rep_space(n, k, args.cutoff)
            for _ in range(args.labels):
                z = rng.normal(scale=0.7, size=n) + 1j * rng.normal(scale=0.7, size=n)
                for alpha in range(1, n + 1):
                    worst = max(worst, coherent.eigen_residual(z, space, alpha))
    return worst, 1e-12


def check_moments(args):
    worst = 0.0
    for n in range(1, args.n_max + 1):
        for k in (0.5, 1.0, n + 0.5, 5.0):
            model = measure.MeasureModel(n, k)
            for occ in itertools.product(range(args.deg_max + 1), repeat=n):
                worst = max(worst, measure.moment_check(model, occ).rel_err)
    return worst, 1e-8


def check_resolution(args):
    worst = 0.0
    grids = [(1, 6, (0.25, 0.5, 1.0, 2.0)), (2, 4, (0.75, 1.5, 3.0)), (3, 4, (1.0, 2.5))]
    for n, cutoff, ks in grids[: args.n_max]:
        for k in ks:
            res = measure.resolution_check(measure.MeasureModel(n, k), cutoff)
            worst = max(worst, res.max_dev)
    return worst, 1e-8


def check_formulas(args):
    worst = 0.0
    for n, k, s in [(1, 1.0, (0.0,)), (2, 3.0, (0.0, 0.0)), (1, 0.5, (0.5,))]:
        worst = max(worst, measure.verify_formula_a(n, k, s).rel_err)
    for mu, nu, a in [(2.0, 0.0, 2.0), (1.0, 0.5, 1.0)]:
        worst = max(worst, measure.verify_formula_b(mu, nu, a).rel_err)
    rng = np.random.default_rng(args.seed)
    for _ in range(args.labels // 5):
        n = int(rng.integers(1, args.n_max + 1))
        s = rng.uniform(-0.9, 3.0, size=n)
        worst = max(worst, measure.verify_formula_a(
            n, float(rng.uniform(0.3, 5.0)), s).rel_err)
        nu = float(rng.uniform(-2.0, 2.0))
        worst = max(worst, measure.verify_formula_b(
            abs(nu) + float(rng.uniform(0.4, 3.0)), nu,
            float(rng.uniform(0.3, 3.0))).rel_err)
    return worst, 1e-8


def check_trace(args):
    worst = 0.0
    for n in range(1, args.n_max + 1):
        hp = pathint.HamiltonianParams.from_mu([1.0 + 0.6 * a for a in range(n)], c_last=0.3)
        for k in (0.5, 1.0, 2.5):
            for beta in (0.5, 1.0, 2.0):
                expected = pathint.exact_spectral_trace(hp, k, beta)
                got = pathint.exact_kernel_trace(hp, k, beta).value
                worst = max(worst, abs(got - expected) / expected)
    return worst, 1e-6


def check_sliced(args):
    """Criterion 9's M = 64 linear-weight trace against pathint.trace_reference."""
    hp = pathint.HamiltonianParams.from_mu([1.0])
    config = pathint.TraceConfig(horizon=1.0, slices=64, cutoff=40, weights="linear")
    reference, _ = pathint.trace_reference(hp, 1.0, config)
    return abs(pathint.sliced_trace(hp, 1.0, config).value - reference) / abs(reference), 1e-2


def check_h_section(args):
    """<z|H|z'> in closed form against <z| h_operator |z'> on a truncated space."""
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for n, cutoff in [(1, 24), (2, 14), (3, 10)][: args.n_max]:
        hp = pathint.HamiltonianParams.from_mu([1.0 + 0.6 * a for a in range(n)], c_last=0.3)
        for k in (0.5, 1.0, 2.5):
            space = fock.rep_space(n, k, cutoff)
            h = pathint.h_operator(hp, k, space)
            for _ in range(max(1, args.labels // 20)):
                z, zp = rng.normal(scale=0.35, size=(2, n)) + 1j * rng.normal(scale=0.35, size=(2, n))
                exact = pathint.h_matrix_element(z, zp, hp, k)
                section = np.vdot(coherent.state_vector(z, space),
                                  h @ coherent.state_vector(zp, space))
                worst = max(worst, abs(section - exact) / abs(exact))
    return worst, 1e-12


def check_recursion(args):
    """Amplitudes by the one-step recursion against the closed form, per entry."""
    worst = 0.0
    for n in range(1, args.n_max + 1):
        for k in (0.5, 1.0, 2.5, float(n + 2)):
            space = fock.rep_space(n, k, args.cutoff)
            closed = coherent.coefficients(space)
            gap = np.abs(coherent.coefficients_by_recursion(space) - closed) / closed
            worst = max(worst, float(np.max(gap)))
    return worst, 1e-13


def check_slice_exponent(args):
    """N = 1 slice exponent, Bessel form against x F(K+1; x) / (K F(K; x))."""
    worst = 0.0
    for k in (1.0, 1.5, 2.5, 5.0):
        for x in (0.0, 0.05, 0.3, 1.0, 3.7, 9.0, 25.0):
            series = x * coherent.f_series(k + 1.0, [x]) / (k * coherent.f_series(k, [x]))
            bessel = pathint.ratio_exponent_n1(k, 1.0, x)
            worst = max(worst, abs(bessel - series) / max(abs(series), 1.0))
    return worst, 1e-12


CHECKS = [
    ("series/Bessel reduction", check_bessel),
    ("generator algebra + subsidiary", check_algebra),
    ("coherent-state eigen property", check_eigen),
    ("radial moment identity", check_moments),
    ("resolution of unity", check_resolution),
    ("integral formulas A and B", check_formulas),
    ("kernel vs spectral trace", check_trace),
    ("sliced trace vs spectral trace", check_sliced),
    ("H matrix element vs finite section", check_h_section),
    ("amplitude recursion vs closed form", check_recursion),
    ("slice exponent, Bessel vs series (N = 1)", check_slice_exponent),
]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=3, help="largest N (default 3)")
    parser.add_argument("--cutoff", type=int, default=6,
                        help="truncation degree for algebra/eigen/amplitude checks (default 6)")
    parser.add_argument("--deg-max", type=int, default=4,
                        help="largest per-mode moment degree (default 4)")
    parser.add_argument("--labels", type=int, default=100,
                        help="random labels per combination (default 100)")
    parser.add_argument("--seed", type=int, default=20260823)
    args = parser.parse_args(argv)

    failures = 0
    for name, fn in CHECKS:
        t0 = time.monotonic()
        worst, tol = fn(args)
        ok = worst <= tol
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name:40s} worst {worst:10.3e}"
              f"  tol {tol:.0e}  ({time.monotonic() - t0:.1f}s)")
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
