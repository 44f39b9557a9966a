"""Tests of the benchmark's own machinery at tiny sizes.

Run from the repository root:  python -m pytest perfbench
"""

import json
from pathlib import Path

import numpy as np
import pytest

import harness
import run
import tracer as tracing
import workloads
from bgcs import coherent, fock, pathint, specfun
from bgcs.specfun import ConvergenceError


def _verdict(passed):
    return lambda: harness.Verdict(b"report\n", passed, "breach")


def _raise(exc):
    def fail():
        raise exc

    return fail


@pytest.fixture
def installed():
    tr = tracing.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def test_wrappers_are_transparent_and_reach_from_imports(installed):
    original = coherent._f_series_vec.__wrapped__
    assert pathint._f_series_vec is coherent._f_series_vec  # patched in both namespaces
    s = np.array([0.3, -2.0 + 1j, 7.5])
    assert np.array_equal(pathint._f_series_vec(1.5, s), original(1.5, s))
    assert coherent.f_series(2.5, [0.3, 0.1j]) == coherent.f_series.__wrapped__(2.5, [0.3, 0.1j])
    with pytest.raises(ValueError):
        specfun.bessel_k(1.0, -1.0)
    summary = installed.summary()
    assert summary.calls("coherent._f_series_vec") == 1
    assert summary.counter("coherent._f_series_vec.lanes") == 3
    assert summary.stats["specfun.bessel_k"].errors == 1


def test_uninstall_restores_every_original():
    before = (coherent._f_series_vec, pathint._f_series_vec, specfun.log_gamma,
              pathint._conv_table)
    tr = tracing.Tracer()
    tr.install()
    tr.uninstall()
    after = (coherent._f_series_vec, pathint._f_series_vec, specfun.log_gamma,
             pathint._conv_table)
    assert all(a is b for a, b in zip(before, after))
    assert pathint._conv_table.cache_info() is not None


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    inner = tr._wrap("a.inner", lambda: None)
    outer = tr._wrap("b.outer", lambda: inner())
    outer()
    summary = tr.summary()
    assert (summary.stats["b.outer"].total, summary.stats["b.outer"].self) == (10.0, 8.0)
    assert (summary.stats["a.inner"].total, summary.stats["a.inner"].self) == (2.0, 2.0)
    assert summary.module_entries("a") == (1, 0)
    (inner_id, parent_id, *_), (outer_id, no_parent, *_) = tr.spans
    assert parent_id == outer_id and no_parent is None


def test_traced_pass_matches_untraced():
    checks = [
        workloads.cli_check("eval-f", ["eval-f", "--k", "1.5", "--w=0.3,0.2+0.1j"]),
        workloads.lib_check("moment", lambda: workloads._moment(2, 1.5, (1, 2))),
        workloads.cli_check("rou-mc", ["rou", "--n", "1", "--k", "1", "--cutoff", "2",
                                       "--mode", "montecarlo", "--budget", "2000"]),
        workloads.cli_check("breach", ["formula-b", "--mu", "0.5", "--nu", "1", "--a", "1"]),
    ]
    plain, _ = harness.run_pass(checks)
    tr = tracing.Tracer()
    tr.install()
    try:
        traced, _ = harness.run_pass([tr.root(c) for c in checks])
    finally:
        tr.uninstall()
    harness.compare_passes(plain, traced, "test")
    assert [o.failed for o in traced] == [False, False, False, True]
    summary = tr.summary()
    assert summary.calls("perfbench.check") == 4 and summary.calls("cli.main") == 3


def test_every_failure_kind_is_counted():
    checks = [
        harness.Check("ok", _verdict(True)),
        harness.Check("gate", _verdict(False)),
        harness.Check("value", _raise(ValueError("domain"))),
        harness.Check("convergence", _raise(ConvergenceError("stalled"))),
        harness.Check("overflow", _raise(OverflowError("range"))),
        workloads.cli_check("argparse", ["rou", "--n", "1"]),  # missing options
    ]
    outcomes, _ = harness.run_pass(checks)
    assert [o.failed for o in outcomes] == [False] + [True] * 5
    assert outcomes[-1].detail == "SystemExit(1)"
    assert harness.failed_frac(outcomes) == pytest.approx(5 / 6)
    with pytest.raises(ValueError):
        harness.failed_frac([])


def test_oracle_gate_fails_on_a_wrong_reference():
    import mpmath

    ref = complex(mpmath.hyp0f1(1.5, 0.3))
    argv = ["eval-f", "--k", "1.5", "--w=0.3"]
    good = harness.execute(workloads.cli_check(
        "eval-f", argv, gate=lambda rep: workloads._f_gate(ref, rep)))
    bad = harness.execute(workloads.cli_check(
        "eval-f", argv, gate=lambda rep: workloads._f_gate(2 * ref, rep)))
    assert not good.failed
    assert bad.failed and bad.detail.startswith("oracle rel err 0.5")


def test_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        harness.percentile(list(range(99)), 0.9)
    values = list(range(1, 101))
    assert harness.percentile(values, 0.9) == pytest.approx(90.1)
    assert harness.median(values) == pytest.approx(50.5)
    assert harness.median([3.0]) == 3.0


def test_per_check_medians_follow_each_check_across_passes():
    def run(*seconds):
        return [harness.Outcome(name, t, False, "d", "") for name, t in zip("abc", seconds)]

    passes = [run(1.0, 9.0, 5.0), run(3.0, 2.0, 5.0), run(2.0, 4.0, 5.0)]
    assert harness.per_check_medians(passes) == [2.0, 4.0, 5.0]
    with pytest.raises(ValueError):
        harness.per_check_medians([run(1.0, 2.0, 3.0), run(1.0, 2.0)])


def test_digest_mismatch_is_detected():
    a = [harness.Outcome("x", 0.1, False, "d1", ""), harness.Outcome("y", 0.1, True, "d2", "e")]
    harness.compare_passes(a, [harness.Outcome("x", 0.5, False, "d1", ""), a[1]], "same")
    with pytest.raises(harness.DeterminismError):
        harness.compare_passes(a, [harness.Outcome("x", 0.1, False, "other", ""), a[1]], "t")
    with pytest.raises(harness.DeterminismError):
        harness.compare_passes(a, [a[0], harness.Outcome("y", 0.1, False, "d2", "")], "t")
    with pytest.raises(harness.DeterminismError):
        harness.compare_passes(a, a[:1], "t")
    assert harness.pass_digest(a) != harness.pass_digest(a[::-1])


def test_workloads_are_seeded_and_large_enough():
    for name, build in workloads.WORKLOADS.items():
        checks = build(7)
        names = [c.name for c in checks]
        assert len(names) >= 100 and len(set(names)) == len(names), name
    first_formula = [c for c in workloads.quad_sweep(7) if c.name == "formula-a #0"]
    again = [c for c in workloads.quad_sweep(7) if c.name == "formula-a #0"]
    other = [c for c in workloads.quad_sweep(8) if c.name == "formula-a #0"]
    digest = [harness.execute(c[0]).digest for c in (first_formula, again, other)]
    assert digest[0] == digest[1] != digest[2]


def test_import_seconds_attribution():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       unittest",
        "import time:        20 |         30 |     numpy.testing",
        "import time:       100 |        130 |   scipy.sparse",
        "import time:         5 |          5 |     math",
        "import time:        40 |         45 |   numpy",
        "import time:         7 |        182 | bgcs",
        "import time:         3 |          3 | json",
    ])
    got = run.import_seconds(stderr)
    assert got == pytest.approx({"numpy": 45e-6, "scipy": 130e-6, "bgcs": 7e-6})


def test_clear_caches_empties_lru_caches():
    pathint._conv_table(1, 3)
    run.clear_caches([pathint])
    assert pathint._conv_table.cache_info().currsize == 0


def test_layer_metrics_cover_the_documented_names(installed):
    coherent.state_vector([0.1, 0.2j], fock.rep_space(2, 1.5, 3))
    metrics = tracing.layer_metrics(installed.summary())
    assert metrics["coherent.coefficient.calls"] == (10, "count")
    assert metrics["fock.rep_space.calls"] == (1, "count")
    assert all(unit in {"count", "s", "us", "1/s", "frac"} for _, unit in metrics.values())
    assert len(metrics) == len(set(metrics))


def test_end_to_end_and_layer_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    layer = {m["name"] for m in spec["per_layer"]}
    documented = set(tracing.layer_metrics(tracing.Tracer().summary())) | {
        "measure.halfline_factor.hits", "measure.halfline_factor.misses",
        "pathint.conv_table.misses", "checks.failed_frac", "trace.overhead_s",
        *(f"setup.import.{p}_s" for p in run.SETUP_PACKAGES)}
    assert layer == documented
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "check_p50_ms", "check_p90_ms", "peak_rss_mb"}
    assert spec["paths"] == ["perfbench"]
