#!/usr/bin/env python3
"""Benchmark for bgcs: one closed-loop client running verification checks.

Usage, from the repository root:

    python3 perfbench/run.py --workload quad-sweep --seed 1 --seconds 20 --trace 0

The process imports bgcs from ./src, builds the workload's check list from
the seed, and executes the list pass after pass, one check at a time,
until --seconds have elapsed (at least two passes).  Every pass must
reproduce the first one's report digests and failure set, or the run
exits with status 3.  --trace 0 reports the end-to-end metrics, timing
each check by its median over the passes; --trace 1 alternates
untraced and traced passes and reports the per-module metrics and the
tracing overhead.  The last line of stdout is the JSON result, in which
`attempted` and `failed` count the checks of the list once each, so they
depend on the seed only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("quad-sweep", "basis-algebra", "mc-seeds")
SETUP_REPEATS = 11
SETUP_PER_GAP = 3  # setup runs before each untraced pass, until SETUP_REPEATS
IMPORTTIME_REPEATS = 3
MIN_PASSES = 2
SPAN_ROWS = 15
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import bgcs, bgcs.cli\n"
    "bgcs.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)
SETUP_PACKAGES = ("numpy", "scipy", "bgcs")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _child(args, capture_stderr=False):
    done = subprocess.run([sys.executable, *args], env=os.environ.copy(), check=True,
                          capture_output=True, text=True, timeout=120)
    return done.stderr if capture_stderr else done.stdout


def measure_setup(count):
    """Seconds for each of `count` fresh interpreters to import bgcs and
    build the CLI parser."""
    return [float(_child(["-c", SETUP_CODE]).strip()) for _ in range(count)]


def import_seconds(stderr):
    """Seconds of `-X importtime` self time owed to each package in
    SETUP_PACKAGES.  A module counts toward the outermost numpy or scipy
    import it sits under, else toward its own package, else toward bgcs
    when bgcs imported it; dropping a dependency then moves its package's
    figure even when what it pulled in belongs to another package."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header row
        name = fields[2][1:]  # one space, then two per nesting level
        rows.append(((len(name) - len(name.lstrip(" "))) // 2, int(fields[0]), name.strip()))
    # the output is post-order, so a row's enclosing import is the first
    # later row that sits less deep; walking backwards resolves it first
    owner_of = [None] * len(rows)
    for i in range(len(rows) - 1, -1, -1):
        depth, _, name = rows[i]
        outer = next((owner_of[j] for j in range(i + 1, len(rows)) if rows[j][0] < depth), None)
        package = name.split(".")[0]
        if outer in ("numpy", "scipy"):
            owner_of[i] = outer
        elif package in SETUP_PACKAGES:
            owner_of[i] = package
        else:
            owner_of[i] = outer
    totals = dict.fromkeys(SETUP_PACKAGES, 0.0)
    for (_, self_us, _), own in zip(rows, owner_of):
        if own is not None:
            totals[own] += self_us * 1e-6
    return totals


def clear_caches(modules):
    """Empty every lru cache in bgcs so each pass does the same cold work."""
    for module in modules:
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bgcs" / "__init__.py").is_file():
        print(f"perfbench: no bgcs sources under {SRC}", file=sys.stderr)
        return 2
    # pin BLAS/OpenMP threads before numpy loads, here and in every child
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    os.environ.pop("BGCS_SEED", None)  # the default-seed check must see the built-in seed
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import warnings

    import numpy as np
    import scipy

    import bgcs
    from bgcs import cli, coherent, fock, measure, mc, pathint, quadrature, specfun

    if Path(bgcs.__file__).resolve().parent != SRC / "bgcs":
        print(f"perfbench: bgcs imported from {bgcs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness
    import tracer as tracing
    import workloads

    warnings.simplefilter("ignore", RuntimeWarning)  # overflow notes from heavy MC tails
    modules = (specfun, quadrature, coherent, fock, measure, mc, pathint, cli)

    checks = workloads.WORKLOADS[args.workload](args.seed)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS}, "checks_per_pass": len(checks),
    }
    print("env " + json.dumps(env, sort_keys=True))

    tracer = tracing.Tracer()
    traced_checks = [tracer.root(c) for c in checks]

    def traced_pass():
        # clear before installing: the wrappers hide the caches' cache_clear
        clear_caches(modules)
        tracer.reset()
        tracer.install()
        try:
            return harness.run_pass(traced_checks)
        finally:
            tracer.uninstall()

    start = time.perf_counter()
    untraced, traced, layer_runs, setup = [], [], [], []
    try:
        while len(untraced) + len(traced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            if not args.trace:
                # spread over the run, so that one slow spell of the host
                # does not set the median
                setup += measure_setup(min(SETUP_PER_GAP, SETUP_REPEATS - len(setup)))
            clear_caches(modules)
            untraced.append(harness.run_pass(checks))
            harness.compare_passes(untraced[0][0], untraced[-1][0], "untraced passes")
            if args.trace:
                traced.append(traced_pass())
                harness.compare_passes(untraced[0][0], traced[-1][0], "traced vs untraced pass")
                summary = tracer.summary()
                metrics = tracing.layer_metrics(summary)
                halfline = measure._halfline_bessel_factor.cache_info()
                metrics["measure.halfline_factor.hits"] = (halfline.hits, "count")
                metrics["measure.halfline_factor.misses"] = (halfline.misses, "count")
                metrics["pathint.conv_table.misses"] = (
                    pathint._conv_table.cache_info().misses, "count")
                layer_runs.append(metrics)
    except harness.DeterminismError as exc:
        print(f"perfbench: reports are not reproducible: {exc}", file=sys.stderr)
        return 3

    # every pass repeated these outcomes, so each check counts once
    outcomes = untraced[0][0]
    failures = [o for o in outcomes if o.failed]
    print(f"passes untraced={len(untraced)} traced={len(traced)} "
          f"digest={harness.pass_digest(outcomes)}")
    print("pass walls s: " + " ".join(f"{wall:.3f}" for _, wall in untraced + traced))
    print(f"failed checks: {len(failures)} of {len(checks)}")
    for o in failures:
        print(f"  FAIL {o.name}: {o.detail}")

    walls = [wall for _, wall in untraced]
    if args.trace:
        print(f"spans of the last traced pass: {len(tracer.spans)}; by self time:")
        for name, st in sorted(summary.stats.items(), key=lambda kv: -kv[1].self)[:SPAN_ROWS]:
            print(f"  {name:36s} calls {st.calls:8d}  total {st.total:9.4f} s  "
                  f"self {st.self:9.4f} s  raised {st.errors}")
        setup_import = [import_seconds(_child(["-X", "importtime", "-c", SETUP_CODE],
                                              capture_stderr=True))
                        for _ in range(IMPORTTIME_REPEATS)]
        rows = {name: (harness.median([m[name][0] for m in layer_runs]), unit, len(layer_runs))
                for name, (_, unit) in layer_runs[0].items()}
        for package in SETUP_PACKAGES:
            rows[f"setup.import.{package}_s"] = (
                harness.median([t[package] for t in setup_import]), "s", len(setup_import))
        rows["checks.failed_frac"] = (harness.failed_frac(outcomes), "frac", len(outcomes))
        # paired with the untraced pass just before it, so slow drift cancels
        rows["trace.overhead_s"] = (harness.median(
            [t - u for (_, t), u in zip(traced, walls)]), "s", len(traced))
    else:
        setup += measure_setup(SETUP_REPEATS - len(setup))
        latencies_ms = [1e3 * t for t in harness.per_check_medians([run for run, _ in untraced])]
        rows = {
            "setup_s": (harness.median(setup), "s", len(setup)),
            "wall_s": (harness.median(walls), "s", len(walls)),
            "check_p50_ms": (harness.median(latencies_ms), "ms", len(latencies_ms)),
            "check_p90_ms": (harness.percentile(latencies_ms, 0.9), "ms", len(latencies_ms)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        }
        print(f"failed_frac {harness.failed_frac(outcomes):.6g} frac (n={len(outcomes)})")
    for name, (value, unit, n) in rows.items():
        print(f"{name} {value:.6g} {unit} (n={n})")
    result = {
        "correct": True,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in rows.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
