#!/usr/bin/env python3
"""Sliced-trace convergence study: error vs number of slices M.

Sweeps M over powers of two for the matrix backend with both slice-weight
forms (linear and exponential), comparing each against the same-cutoff
spectral trace so the table isolates the O(1/M) slicing error from
truncation error. Every rung has M >= 2, where the Monte Carlo backend's
exp-weight integral has no finite mean (see bgcs.pathint), so the study
runs the matrix backend only.

Writes a JSON report (or CSV of its rows with --format csv) through the
bgcs CLI's report writer, and prints the fitted convergence order per
weight form.

Usage:
    python scripts/trace_convergence.py --out sweep.json
    python scripts/trace_convergence.py --k 1.5 --mu 1.0 2.0 --cutoff 4 \
        --m-max 128 --format csv --out sweep.csv
"""

import argparse
import sys

import numpy as np

from bgcs import fock, pathint
from bgcs.cli import _emit


def sweep(args):
    hp = pathint.HamiltonianParams.from_mu(args.mu, c_last=args.c_last)
    target = pathint.exact_spectral_trace(hp, args.k, args.beta, cutoff=args.cutoff)
    exact = pathint.exact_spectral_trace(hp, args.k, args.beta)

    # linear weights need dt * max|E| < 1, so start the ladder above that
    space = fock.rep_space(hp.n, args.k, args.cutoff)
    e_max = max(abs(e) for e in pathint.energies(hp, args.k, space))
    m_start = 2
    while m_start <= args.beta * e_max:
        m_start *= 2
    m_values = []
    m = m_start
    while m <= args.m_max:
        m_values.append(m)
        m *= 2
    if len(m_values) < 2:
        raise SystemExit("m-max too small for a sweep at this cutoff")

    rows = []
    orders = {}
    for weights in ("linear", "exp"):
        errs = []
        for m in m_values:
            config = pathint.TraceConfig(horizon=args.beta, slices=m,
                                         cutoff=args.cutoff, weights=weights)
            value = pathint.sliced_trace(hp, args.k, config).value.real
            err = abs(value - target)
            errs.append(err)
            rows.append({"weights": weights, "slices": m, "value": value,
                         "abs_err": err, "rel_err": err / target})
        fit = np.polyfit(np.log(m_values), np.log(errs), 1)
        orders[weights] = float(-fit[0])

    return {"params": {"n": hp.n, "k": args.k, "mu": list(args.mu),
                       "c_last": args.c_last, "beta": args.beta,
                       "cutoff": args.cutoff},
            "target_truncated": target, "target_exact": exact,
            "orders": orders, "rows": rows}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=float, default=1.0, help="weight K (default 1)")
    parser.add_argument("--mu", type=float, nargs="+", default=[1.0],
                        help="mode couplings (default: 1.0)")
    parser.add_argument("--c-last", type=float, default=0.0)
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--cutoff", type=int, default=3)
    parser.add_argument("--m-max", type=int, default=64,
                        help="largest slice count, swept in powers of 2 (default 64)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", help="write report here instead of stdout")
    args = parser.parse_args(argv)

    report = sweep(args)
    _emit(report, args)
    for weights, order in report["orders"].items():
        print(f"{weights}: fitted order {order:.3f} in 1/M "
              f"(truncated target {report['target_truncated']:.12g})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
