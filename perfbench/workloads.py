"""The three benchmark workloads as check lists built from the workload seed.

Every random input comes from `np.random.default_rng(seed)` or from seeds
derived from `seed` by `SeedSequence`; a check list is built once per run
and the same list is executed on every pass.  Each check calls the public
API or `bgcs.cli.main(argv)` in-process and is gated on the tolerance the
package states for it (the acceptance criteria's tolerances, the CLI exit
code and `passed` field, or an mpmath oracle).

Known defects stay in the lists on purpose and count as failures: the
negative-axis overlap probes, formula draws near the domain edges, and the
CLI's default-seed Monte Carlo resolution check at N=3.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from functools import partial

import mpmath
import numpy as np

from bgcs import cli, coherent, fock, measure, pathint, specfun
from harness import Check, Verdict, canonical

QUAD_TOL = 1e-8  # acceptance criteria 4-6: moments, resolution, formulas
ALGEBRA_TOL = 1e-12  # criteria 2-3: commutators, subsidiary, eigen property
KERNEL_TOL = 1e-6  # criterion 8: kernel vs spectral trace by quadrature
ORACLE_TOL = 1e-10  # criterion 1: the overlap series against a Bessel reference
ZMAX = 4.0  # criteria 7-8: Monte Carlo gates


# --- check builders ----------------------------------------------------------


def _breach_detail(report):
    keys = ("rel_err", "max_dev", "z_score", "max_z", "gap")
    return ", ".join(f"{k}={report[k]:.3g}" for k in keys if isinstance(report.get(k), float))


def cli_check(name, argv, gate=None):
    """`bgcs.cli.main(argv)` with stdout and stderr captured; passes when the
    exit code is 0, the report's `passed` field (if any) is true, and the
    optional `gate(report) -> (ok, detail)` accepts the report."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        text = out.getvalue()
        if code != 0:
            message = err.getvalue().strip()
            detail = f"exit {code}: " + (message or _breach_detail(json.loads(text)))
            return Verdict((text + message).encode(), False, detail)
        report = json.loads(text)
        if report.get("passed", True) is not True:
            return Verdict(text.encode(), False, _breach_detail(report))
        ok, detail = gate(report) if gate else (True, "")
        return Verdict(text.encode(), ok, detail)

    return Check(name, run)


def lib_check(name, fn):
    """A library call returning (report, residual, tol); passes when
    residual <= tol (a NaN residual fails)."""

    def run():
        report, residual, tol = fn()
        report = dict(report, residual=residual, tol=tol)
        ok = bool(residual <= tol)
        return Verdict(canonical(report), ok, f"residual {residual:.3g} > tol {tol:g}")

    return Check(name, run)


def _derived_seeds(seed, count):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _csv(values):
    return ",".join(repr(float(v)) for v in values)


# --- quad-sweep ----------------------------------------------------------------

FORMULA_DRAWS = 40  # formula-a and formula-b each
# F(K; s) probes on the positive, complex and negative axes
ORACLE_KS = (0.5, 1.5, 3.0)
ORACLE_WS = ("0.3", "4", "25", "2+3j", "-1", "-10", "-100", "-400", "-100+30j")
ORACLE_BESSEL = tuple(itertools.product((0.0, 0.5, 1.7, 3.2), (0.05, 0.7, 3.0, 12.0, 40.0)))


def _moment(n, k, occ):
    res = measure.moment_check(measure.MeasureModel(n, k), occ)
    return res.as_dict(), res.rel_err, QUAD_TOL


def _kernel_trace(mu, c_last, k, beta):
    hp = pathint.HamiltonianParams.from_mu(mu, c_last=c_last)
    expected = pathint.exact_spectral_trace(hp, k, beta)
    res = pathint.exact_kernel_trace(hp, k, beta)
    report = dict(res.as_dict(), expected=expected)
    return report, abs(res.value - expected) / expected, KERNEL_TOL


def _bessel_probe(nu, x, ref):
    got = specfun.bessel_k(nu, x)
    return {"nu": nu, "x": x, "value": got, "oracle": ref}, abs(got - ref) / ref, ORACLE_TOL


def _f_gate(ref, report):
    got = complex(report["value_re"], report["value_im"])
    err = abs(got - ref) / abs(ref)
    return err <= ORACLE_TOL, f"oracle rel err {err:.3g} > {ORACLE_TOL:g}"


def quad_sweep(seed):
    mpmath.mp.dps = 30
    rng = np.random.default_rng(seed)
    checks = []
    # criterion 4: moment identity, N <= 3, occupations <= 4, four K each
    for n in (1, 2, 3):
        for k in (0.5, 1.0, n + 0.5, 5.0):
            for occ in itertools.product(range(5), repeat=n):
                checks.append(lib_check(f"moment n={n} k={k} occ={occ}",
                                        partial(_moment, n, k, occ)))
    # criterion 5: resolution of unity by quadrature
    for n, cutoff, ks in ((1, 6, (0.25, 0.5, 1.0, 2.0)), (2, 4, (0.75, 1.5, 3.0))):
        for k in ks:
            checks.append(cli_check(f"rou-quad n={n} k={k}", [
                "rou", "--n", str(n), "--k", repr(k), "--cutoff", str(cutoff),
                "--mode", "quadrature", "--tol", repr(QUAD_TOL)]))
    # criterion 6 over the full stated domains: s_a > -1, K > 0 for (A);
    # mu > |nu|, a > 0 for (B); 1 - random() lies in (0, 1]
    for i in range(FORMULA_DRAWS):
        n = int(rng.integers(1, 4))
        k = 5.0 * (1.0 - rng.random())
        s = -1.0 + 4.0 * (1.0 - rng.random(n))
        checks.append(cli_check(f"formula-a #{i}", [
            "formula-a", "--n", str(n), "--k", repr(k), f"--s={_csv(s)}",
            "--tol", repr(QUAD_TOL)]))
        nu = float(rng.uniform(-2.0, 2.0))
        mu = abs(nu) + 3.0 * (1.0 - rng.random())
        a = 3.0 * (1.0 - rng.random())
        checks.append(cli_check(f"formula-b #{i}", [
            "formula-b", f"--mu={mu!r}", f"--nu={nu!r}", f"--a={a!r}",
            "--tol", repr(QUAD_TOL)]))
    # criterion 8 by quadrature, plus one N = 3 case
    for mu in ([1.0], [1.0, 1.6]):
        for k in (0.5, 1.0, 2.5):
            for beta in (0.5, 1.0, 2.0):
                checks.append(lib_check(f"kernel-quad mu={mu} k={k} beta={beta}",
                                        partial(_kernel_trace, mu, 0.3, k, beta)))
    checks.append(lib_check("kernel-quad mu=[1.0, 1.6, 2.2] k=2.5 beta=2.0",
                            partial(_kernel_trace, [1.0, 1.6, 2.2], 0.3, 2.5, 2.0)))
    # oracle probes: F against hyp0f1, K_nu against besselk
    for k in ORACLE_KS:
        for w in ORACLE_WS:
            ref = complex(mpmath.hyp0f1(k, complex(w)))
            checks.append(cli_check(f"oracle eval-f k={k} w={w}",
                                    ["eval-f", "--k", repr(k), f"--w={w}"],
                                    gate=partial(_f_gate, ref)))
    for nu, x in ORACLE_BESSEL:
        ref = float(mpmath.besselk(nu, x))
        checks.append(lib_check(f"oracle bessel_k nu={nu} x={x}",
                                partial(_bessel_probe, nu, x, ref)))
    return checks


# --- basis-algebra ---------------------------------------------------------------

# Seeded labels per K, by N.  The counts place both latency percentiles
# inside a block of like checks rather than on a gap between blocks, where
# a small shift would move them a long way: check_p50_ms among the
# 300 N = 2 eigen checks, check_p90_ms among the N = 3 commutators.
EIGEN_LABELS = {1: 120, 2: 100, 3: 40}
# (n, mu, cutoff, slice counts): linear weights need M > beta * max|E|, and
# every M here keeps the sliced trace within 1 % of the exact trace
TRACE_LADDERS = (
    (1, "1", 40, (64, 96, 128, 256)),
    (2, "1,1.6", 40, (256, 384, 512)),
    (3, "1,1.6,2.2", 22, (256, 384, 512)),
)


def _commutators(n, k, cutoff, first):
    space = fock.rep_space(n, k, cutoff)
    gens = [(a, b) for a in range(1, n + 2) for b in range(1, n + 2)]
    worst = max(fock.commutator_residual(space, first, second) for second in gens)
    return {"n": n, "k": k, "cutoff": cutoff, "first": list(first)}, worst, ALGEBRA_TOL


def _subsidiary(n, k, cutoff):
    worst = fock.subsidiary_residual(fock.rep_space(n, k, cutoff))
    return {"n": n, "k": k, "cutoff": cutoff}, worst, ALGEBRA_TOL


def _eigen(n, k, z):
    space = fock.rep_space(n, k, 6)
    worst = max(coherent.eigen_residual(z, space, alpha) for alpha in range(1, n + 1))
    return {"n": n, "k": k, "z_re": z.real.tolist(), "z_im": z.imag.tolist()}, worst, ALGEBRA_TOL


def basis_algebra(seed):
    rng = np.random.default_rng(seed)
    checks = []
    # criterion 2: every commutator and the subsidiary condition
    for n in (1, 2, 3):
        gens = [(a, b) for a in range(1, n + 2) for b in range(1, n + 2)]
        for k in (0.5, 1.0, 2.5, float(n + 2)):
            for cutoff in (2, 6):
                for first in gens:
                    checks.append(lib_check(f"commutators n={n} k={k} cutoff={cutoff} {first}",
                                            partial(_commutators, n, k, cutoff, first)))
                checks.append(lib_check(f"subsidiary n={n} k={k} cutoff={cutoff}",
                                        partial(_subsidiary, n, k, cutoff)))
    # criterion 3: eigen property on seeded labels
    for n in (1, 2, 3):
        for k in (0.5, 1.0, 2.5):
            for i in range(EIGEN_LABELS[n]):
                z = rng.normal(scale=0.7, size=n) + 1j * rng.normal(scale=0.7, size=n)
                checks.append(lib_check(f"eigen n={n} k={k} #{i}", partial(_eigen, n, k, z)))
    # matrix-backend trace ladders at large cutoffs
    for n, mu, cutoff, slices in TRACE_LADDERS:
        for k in (0.5, 1.0, 2.5):
            for m in slices:
                checks.append(cli_check(f"trace-matrix n={n} k={k} m={m}", [
                    "trace", "--n", str(n), "--k", repr(k), "--mu", mu, "--beta", "1",
                    "--m", str(m), "--backend", "matrix", "--cutoff", str(cutoff)]))
    return checks


# --- mc-seeds ----------------------------------------------------------------------

SAMPLE_BUDGET = 300_000
KERNEL_MC_BUDGET = 50_000
SLICED_BUDGET = 20_000
ROU2_BUDGET = 20_000
ROU3_BUDGET = 100_000  # the CLI default
# (n, k, mu, beta, slices, cutoff): M = 1 sits in the variance-safe window
SLICED_CASES = ((1, 10.0, "1.2", 1.0, 1, 6), (1, 1.0, "1", 1.0, 2, 3), (1, 1.0, "1", 1.0, 4, 3))


def _kernel_mc(mu, k, beta, seed, workers):
    hp = pathint.HamiltonianParams.from_mu(mu)
    expected = pathint.exact_spectral_trace(hp, k, beta)
    res = pathint.exact_kernel_trace(hp, k, beta, mode="montecarlo",
                                     budget=KERNEL_MC_BUDGET, seed=seed, workers=workers)
    z = abs(res.value - expected) / res.error
    if res.params["variance_warning"]:
        z = float("inf")  # the error bar is not trustworthy outside the safe window
    return dict(res.as_dict(), expected=expected), z, ZMAX


def mc_seeds(seed):
    checks = []
    seeds = iter(_derived_seeds(seed, 64))
    # exact-sampler reports, N = 1..3
    for n, k in ((1, 0.5), (2, 1.5), (3, 2.5)):
        for workers in (1, 4):
            s = next(seeds)
            checks.append(cli_check(f"sample n={n} seed={s} workers={workers}", [
                "sample", "--n", str(n), "--k", repr(k), "--budget", str(SAMPLE_BUDGET),
                "--seed", str(s), "--workers", str(workers)]))
    # criterion 8 by Monte Carlo at variance-safe couplings
    for i in range(4):
        s, workers = next(seeds), 1 + 3 * (i % 2)
        for mu in ([3.0], [3.0, 4.0]):
            for k in (0.5, 1.0, 2.5):
                for beta in (0.5, 1.0, 2.0):
                    checks.append(lib_check(
                        f"kernel-mc mu={mu} k={k} beta={beta} seed={s}",
                        partial(_kernel_mc, mu, k, beta, s, workers)))
    # sliced-trace Monte Carlo against the transfer-spectrum value
    for i in range(4):
        s = next(seeds)
        for n, k, mu, beta, m, cutoff in SLICED_CASES:
            checks.append(cli_check(f"trace-mc m={m} seed={s}", [
                "trace", "--n", str(n), "--k", repr(k), "--mu", mu, "--beta", repr(beta),
                "--m", str(m), "--backend", "montecarlo", "--cutoff", str(cutoff),
                "--budget", str(SLICED_BUDGET), "--seed", str(s)]))
    # Monte Carlo resolution of unity
    for i in range(6):
        s = next(seeds)
        for k in (0.75, 1.5, 3.0):
            checks.append(cli_check(f"rou-mc n=2 k={k} seed={s}", [
                "rou", "--n", "2", "--k", repr(k), "--cutoff", "4", "--mode", "montecarlo",
                "--budget", str(ROU2_BUDGET), "--seed", str(s)]))
    rou3 = ["rou", "--n", "3", "--k", "2.5", "--cutoff", "6", "--mode", "montecarlo",
            "--budget", str(ROU3_BUDGET)]
    for i in range(2):
        s = next(seeds)
        checks.append(cli_check(f"rou-mc n=3 seed={s}", rou3 + ["--seed", str(s)]))
    # the documented invocation at the CLI's own default seed
    checks.append(cli_check("rou-mc n=3 default-seed", rou3))
    return checks


WORKLOADS = {
    "quad-sweep": quad_sweep,
    "basis-algebra": basis_algebra,
    "mc-seeds": mc_seeds,
}
