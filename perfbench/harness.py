"""Check execution, the determinism gate and the summary statistics.

A check is one verification call into bgcs that returns a verdict: the
canonical bytes of its report and whether the report met its gate.  The
harness times each check, turns every exception into a counted failure,
and digests the report bytes so that two passes over the same inputs can
be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Verdict:
    """What a check produced: canonical report bytes and its gate result."""

    report: bytes
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Check:
    name: str
    run: Callable[[], Verdict]


@dataclass(frozen=True)
class Outcome:
    name: str
    seconds: float
    failed: bool
    digest: str
    detail: str


class DeterminismError(RuntimeError):
    """Two passes over the same inputs disagreed on a report or a failure."""


def canonical(report):
    """The report as the CLI writes it: sorted keys, two-space indent."""
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def execute(check):
    """Run one check; any exception, argparse's SystemExit included, is a
    failed check whose digest covers the exception text."""
    start = time.perf_counter()
    try:
        verdict = check.run()
    except SystemExit as exc:  # cli.main lets argparse usage errors escape
        detail = f"SystemExit({exc.code})"
        return Outcome(check.name, time.perf_counter() - start, True,
                       _digest(detail.encode()), detail)
    except Exception as exc:  # the check boundary: count the failure and go on
        detail = f"{type(exc).__name__}: {exc}"
        return Outcome(check.name, time.perf_counter() - start, True,
                       _digest(detail.encode()), detail)
    seconds = time.perf_counter() - start
    detail = "" if verdict.passed else verdict.detail
    return Outcome(check.name, seconds, not verdict.passed, _digest(verdict.report), detail)


def run_pass(checks):
    """Execute every check in order; returns (outcomes, wall seconds)."""
    start = time.perf_counter()
    outcomes = [execute(check) for check in checks]
    return outcomes, time.perf_counter() - start


def pass_digest(outcomes):
    """One digest over every check's name, failure flag and report digest."""
    h = hashlib.sha256()
    for out in outcomes:
        h.update(f"{out.name}\0{int(out.failed)}\0{out.digest}\n".encode())
    return h.hexdigest()


def compare_passes(reference, other, label):
    """Raise DeterminismError unless both passes produced the same reports
    and the same failure set."""
    if [o.name for o in reference] != [o.name for o in other]:
        raise DeterminismError(f"{label}: the passes ran different check lists")
    diffs = [
        f"{a.name}: digest {a.digest[:12]} vs {b.digest[:12]}, failed {a.failed} vs {b.failed}"
        for a, b in zip(reference, other)
        if a.digest != b.digest or a.failed != b.failed
    ]
    if diffs:
        shown = "\n  ".join(diffs[:10])
        raise DeterminismError(f"{label}: {len(diffs)} checks differ\n  {shown}")


def per_check_medians(passes):
    """Each check's median time over passes of the same check list.  A
    percentile of these does not jump when one pass reorders two checks
    that lie either side of it."""
    return [median([o.seconds for o in executions]) for executions in zip(*passes, strict=True)]


def failed_frac(outcomes):
    if not outcomes:
        raise ValueError("no checks attempted")
    return sum(o.failed for o in outcomes) / len(outcomes)


def percentile(values, q, min_tail=10):
    """Linearly interpolated q-quantile, refused unless at least `min_tail`
    samples lie beyond it (so p90 needs 100 samples)."""
    n = len(values)
    if not 0.0 <= q < 1.0:
        raise ValueError(f"need 0 <= q < 1, got {q}")
    if n * (1.0 - q) + 1e-9 < min_tail:  # 100 * (1 - 0.9) rounds below 10
        raise ValueError(
            f"p{100 * q:g} needs {min_tail} samples beyond it: "
            f"{n} samples give {n * (1.0 - q):.3g}"
        )
    ordered = sorted(values)
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def median(values):
    return percentile(values, 0.5, min_tail=0)
