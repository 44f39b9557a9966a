"""Command-line front end: single evaluations and verification runs with
reproducible seeds and machine-readable reports.

Every command writes one report (JSON by default, with null for a non-finite
number; CSV as a flat projection) to stdout or --out.  Exit status: 0 when
all requested checks are within tolerance, 2 on a tolerance breach, 1 on
usage or domain errors.  Reports contain no timestamps or machine state, and
all randomness is derived from (seed, workers), so identical invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from functools import lru_cache

from . import coherent, mc, measure, pathint
from .specfun import ConvergenceError, _integer, _positive, _vector

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_BREACH = 2


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract (usage errors are exit 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _list_parser(kind, noun):
    """argparse type for a comma-separated list of `kind` values."""

    def parse(text):
        try:
            return [kind(tok.strip()) for tok in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")

    return parse


_complex_list = _list_parser(complex, "numbers")
_float_list = _list_parser(float, "reals")
_int_list = _list_parser(int, "integers")


def _positive_option(name):
    """argparse type for a finite real option > 0, checked by specfun._positive."""

    def parse(text):
        try:
            return _positive(name, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return parse


_tol = _positive_option("tol")
_zmax = _positive_option("zmax")


def _add_output(p):
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="report format (default json; csv is a flat projection)")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")


def _add_stochastic(p, budget):
    p.add_argument("--seed", type=int, default=mc.DEFAULT_SEED,
                   help="RNG seed (default %(default)d)")
    p.add_argument("--workers", type=int, default=1,
                   help="independent RNG streams; results are deterministic per (seed, workers)")
    p.add_argument("--budget", type=int, default=budget,
                   help="sample budget (default %d)" % budget)


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        out = []
        for key in sorted(obj):
            out.extend(_flatten(obj[key], f"{prefix}{key}."))
        return out
    if isinstance(obj, (list, tuple)):
        out = []
        for i, val in enumerate(obj):
            out.extend(_flatten(val, f"{prefix}{i}."))
        return out
    return [(prefix[:-1], obj)]


def _render(report, fmt):
    if fmt == "json":
        try:
            return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
        except ValueError:  # a non-finite float: written as null, so the JSON stays strict
            return _render(json.loads(json.dumps(report), parse_constant=lambda _: None), fmt)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    rows = report.get("rows")
    if rows:
        header = sorted(rows[0])
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[key] for key in header])
    else:
        pairs = _flatten(report)
        writer.writerow([key for key, _ in pairs])
        writer.writerow([val for _, val in pairs])
    return buf.getvalue()


def _emit(report, args):
    text = _render(report, args.format)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# --- command handlers ------------------------------------------------------


def _cmd_eval_f(args):
    value = complex(coherent.f_series(args.k, args.w))
    report = {
        "check": "eval_f",
        "params": {"k": args.k, "w_re": [v.real for v in args.w],
                   "w_im": [v.imag for v in args.w]},
        "value_re": value.real,
        "value_im": value.imag,
    }
    return report, _EXIT_OK


def _cmd_inner(args):
    value = complex(coherent.inner_product(args.z, args.zp, args.k))
    report = {
        "check": "inner_product",
        "params": {"k": args.k,
                   "z_re": [v.real for v in args.z], "z_im": [v.imag for v in args.z],
                   "zp_re": [v.real for v in args.zp], "zp_im": [v.imag for v in args.zp]},
        "value_re": value.real,
        "value_im": value.imag,
    }
    return report, _EXIT_OK


def _gate(report, key, bound, passed):
    """The verdict of a gated check: the bound under `key` ("tol" or "zmax"),
    `passed` as a JSON bool, and the report with its exit code."""
    report[key] = bound
    report["passed"] = bool(passed)
    return report, _EXIT_OK if passed else _EXIT_BREACH


def _finish_check(result, tol):
    return _gate(result.as_dict(), "tol", tol, result.rel_err <= tol)


def _cmd_measure_check(args):
    model = measure.MeasureModel(args.n, args.k)
    return _finish_check(measure.moment_check(model, args.occ), args.tol)


def _cmd_formula_a(args):
    return _finish_check(measure.verify_formula_a(args.n, args.k, args.s), args.tol)


def _cmd_formula_b(args):
    return _finish_check(measure.verify_formula_b(args.mu, args.nu, args.a), args.tol)


def _cmd_rou(args):
    model = measure.MeasureModel(args.n, args.k)
    result = measure.resolution_check(
        model, args.cutoff, mode=args.mode, budget=args.budget,
        seed=args.seed, workers=args.workers,
    )
    if args.mode == "quadrature":
        return _gate(result.as_dict(), "tol", args.tol, result.max_dev <= args.tol)
    return _gate(result.as_dict(), "zmax", args.zmax, result.max_z <= args.zmax)


def _cmd_sample(args):
    model = measure.MeasureModel(args.n, args.k)
    report = measure.sampler_report(
        model, args.budget, seed=args.seed, workers=args.workers,
    )
    return _gate(report, "zmax", args.zmax, report["max_z"] <= args.zmax)


def _cmd_trace(args):
    mu = _vector("mu", args.mu, _integer("n", args.n, 1), float)
    hp = pathint.HamiltonianParams.from_mu(mu, c_last=args.c_last)
    real = args.beta is None  # argparse lets exactly one of --beta and --t through
    config = pathint.TraceConfig(
        mode="real" if real else "imaginary", horizon=args.t if real else args.beta,
        slices=args.m, cutoff=args.cutoff, weights=args.weights, backend=args.backend,
        budget=args.budget, seed=args.seed, workers=args.workers,
    )
    result = pathint.sliced_trace(hp, args.k, config)
    reference, bound = pathint.trace_reference(hp, args.k, config)
    report = result.as_dict()
    report["check"] = "trace"
    if reference is None:  # montecarlo without a cutoff: an estimate, not a check
        return report, _EXIT_OK
    report["reference"] = reference.real
    if reference.imag != 0.0:
        report["reference_im"] = reference.imag
    gap = abs(complex(result.value) - reference)
    if bound is None:  # matrix: relative error against the spectral trace
        report["rel_err"] = rel = gap / abs(reference)
        return _gate(report, "tol", args.tol, rel <= args.tol)
    # montecarlo: within the series truncation bound plus zmax sigma, for a finite sigma
    report["series_bound"] = bound
    report["gap"] = gap
    return _gate(report, "zmax", args.zmax,
                 math.isfinite(result.error) and gap <= bound + args.zmax * result.error)


@lru_cache(maxsize=1)
def build_parser():
    """The `bgcs` argument parser, built once per process: parsing leaves it
    unchanged."""
    parser = _Parser(prog="bgcs", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("eval-f", help="evaluate the overlap series F_N(K; w)")
    p.add_argument("--k", type=float, required=True, help="Bargmann index K > 0")
    p.add_argument("--w", type=_complex_list, required=True,
                   help="comma-separated arguments, complex literals allowed (e.g. 1,0.5+0.2j)")
    _add_output(p)
    p.set_defaults(handler=_cmd_eval_f)

    p = sub.add_parser("inner", help="coherent-state inner product <z|z'>")
    p.add_argument("--k", type=float, required=True, help="Bargmann index K > 0")
    p.add_argument("--z", type=_complex_list, required=True, help="left label, comma-separated")
    p.add_argument("--zp", type=_complex_list, required=True, help="right label, comma-separated")
    _add_output(p)
    p.set_defaults(handler=_cmd_inner)

    p = sub.add_parser("measure-check", help="radial moment identity at integer occupations")
    p.add_argument("--n", type=int, required=True, help="number of oscillator modes")
    p.add_argument("--k", type=float, required=True, help="Bargmann index K > 0")
    p.add_argument("--occ", type=_int_list, required=True, help="occupations, e.g. 1,2,0")
    p.add_argument("--tol", type=_tol, default=1e-8, help="relative tolerance (default %(default)g)")
    _add_output(p)
    p.set_defaults(handler=_cmd_measure_check)

    p = sub.add_parser("formula-a", help="N-dimensional Bessel moment integral vs closed form")
    p.add_argument("--n", type=int, required=True, help="number of oscillator modes")
    p.add_argument("--k", type=float, required=True, help="Bargmann index K > 0")
    p.add_argument("--s", type=_float_list, required=True,
                   help="real exponents > -1 with sum(s) + min(K, N) > 0, e.g. 0.5,2")
    p.add_argument("--tol", type=_tol, default=1e-8, help="relative tolerance (default %(default)g)")
    _add_output(p)
    p.set_defaults(handler=_cmd_formula_a)

    p = sub.add_parser("formula-b", help="Mellin-type K-transform vs closed form (mu > |nu|)")
    p.add_argument("--mu", type=float, required=True, help="power-law exponent, needs mu > |nu|")
    p.add_argument("--nu", type=float, required=True, help="Bessel order")
    p.add_argument("--a", type=float, required=True, help="scale parameter a > 0")
    p.add_argument("--tol", type=_tol, default=1e-8, help="relative tolerance (default %(default)g)")
    _add_output(p)
    p.set_defaults(handler=_cmd_formula_b)

    p = sub.add_parser("rou", help="resolution-of-unity Gram check on a truncated basis")
    p.add_argument("--n", type=int, required=True, help="number of oscillator modes")
    p.add_argument("--k", type=float, required=True, help="Bargmann index K > 0")
    p.add_argument("--cutoff", type=int, required=True, help="basis degree cutoff")
    p.add_argument("--mode", choices=("quadrature", "montecarlo"), default="quadrature",
                   help="integration backend (default quadrature)")
    p.add_argument("--tol", type=_tol, default=1e-8, help="max deviation, quadrature mode (default %(default)g)")
    p.add_argument("--zmax", type=_zmax, default=4.0, help="max z-score, montecarlo mode (default %(default)g)")
    _add_stochastic(p, budget=100_000)
    _add_output(p)
    p.set_defaults(handler=_cmd_rou)

    p = sub.add_parser("sample", help="exact-sampler report: moments, angular modes, R-CDF quantiles")
    p.add_argument("--n", type=int, required=True, help="number of oscillator modes")
    p.add_argument("--k", type=float, required=True, help="Bargmann index K > 0")
    p.add_argument("--zmax", type=_zmax, default=4.0, help="max acceptable z-score (default %(default)g)")
    _add_stochastic(p, budget=1_000_000)
    _add_output(p)
    p.set_defaults(handler=_cmd_sample)

    p = sub.add_parser("trace", help="time-sliced trace vs the spectral reference")
    p.add_argument("--n", type=int, required=True, help="number of oscillator modes")
    p.add_argument("--k", type=float, required=True, help="Bargmann index K > 0")
    p.add_argument("--mu", type=_float_list, required=True, help="level spacings, e.g. 1 or 1,2")
    p.add_argument("--c-last", type=float, default=0.0, help="additive coupling c_{N+1} (default %(default)g)")
    horizon = p.add_mutually_exclusive_group(required=True)
    horizon.add_argument("--beta", type=float, help="inverse temperature: imaginary time")
    horizon.add_argument("--t", type=float, help="horizon T: real time, e^{-iTH}")
    p.add_argument("--m", type=int, required=True, help="number of time slices")
    p.add_argument("--backend", choices=("matrix", "montecarlo"), default="matrix",
                   help="transfer-spectrum sum or label-space sampling, --beta only (default matrix)")
    p.add_argument("--weights", choices=("linear", "exp"), default=None,
                   help="slice weight form (default: linear for matrix, exp for montecarlo)")
    p.add_argument("--cutoff", type=int, default=None, help="Fock truncation (matrix backend)")
    p.add_argument("--tol", type=_tol, default=1e-2,
                   help="relative tolerance vs the reference, matrix backend (default %(default)g)")
    p.add_argument("--zmax", type=_zmax, default=4.0, help="max z-score, montecarlo backend (default %(default)g)")
    _add_stochastic(p, budget=100_000)
    _add_output(p)
    p.set_defaults(handler=_cmd_trace)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.handler(args)
    except (ValueError, ConvergenceError, OverflowError) as exc:
        print(f"bgcs {args.command}: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
