"""The shared Monte Carlo loop: how mc.draws splits a budget, and Monte
Carlo results of every sampling routine pinned to the values of the
per-routine loops that mc.draws replaced."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bgcs import mc, measure, pathint


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=700))
def test_draws_partition_the_budget(seed, workers, total, cap):
    pieces = list(mc.draws(seed, workers, total, cap))
    counts = [count for _, count in pieces]
    assert sum(counts) == total
    assert all(1 <= count <= cap for count in counts)
    per_worker = {}
    for rng, count in pieces:  # one stream per worker, its pieces adjacent
        per_worker[id(rng)] = per_worker.get(id(rng), 0) + count
    assert list(per_worker.values()) == [c for c in mc.split_count(total, workers) if c]


def test_draws_checks_its_arguments_on_the_call():
    """No piece needs to be drawn for a bad seed, workers or total to raise,
    and a good call makes no stream until its first piece is asked for."""
    for seed, workers, total, name in ((-1, 1, 10, "seed"), (1, 0, 10, "workers"),
                                       (1, 1, 0, "sample count")):
        with pytest.raises(ValueError, match=f"need integer {name} >= "):
            mc.draws(seed, workers, total, cap=4)
    pieces = mc.draws(1, 2, 10, cap=4)
    assert [count for _, count in pieces] == [4, 1, 4, 1]


# values captured from the per-routine loops before they moved onto mc.draws


def test_sample_with_fewer_samples_than_workers():
    r, theta = measure.sample(measure.MeasureModel(2, 1.5), 3, seed=11, workers=5)
    assert r.ravel() == pytest.approx([1.2210536211599174, 0.3871612528102068,
                                       3.41646968439612, 2.9998176043875926,
                                       2.2957238429201525, 4.578012857586564], rel=1e-12)
    assert theta.ravel() == pytest.approx([4.402423209756909, 1.8998027632173209,
                                           1.6113132035173299, 2.264213193003132,
                                           4.7837760556196445, 0.007152659695143492], rel=1e-12)


def test_sampler_report_uneven_workers():
    report = measure.sampler_report(measure.MeasureModel(2, 1.5), 4001, seed=12, workers=3)
    rows = {row["quantity"]: row for row in report["rows"]}
    assert rows["r[0]"]["estimate_re"] == pytest.approx(1.5271778356563073, rel=1e-12)
    assert rows["r[0]"]["sem"] == pytest.approx(0.03570981616413857, rel=1e-12)
    assert rows["exp(i1theta[1])"]["estimate_re"] == pytest.approx(0.0024482862318997017,
                                                                    rel=1e-12)
    assert rows["exp(i1theta[1])"]["estimate_im"] == pytest.approx(0.008753840713959075,
                                                                    rel=1e-12)
    assert rows["r[0]r[1]"]["estimate_re"] == pytest.approx(3.6649086386352367, rel=1e-12)
    assert rows["cdf(R<=1.8)"]["estimate_re"] == pytest.approx(0.4886278430392402, rel=1e-12)
    assert rows["cdf(R<=1.8)"]["sem"] == pytest.approx(0.007904624568783892, rel=1e-12)
    assert report["max_z"] == pytest.approx(2.707926567712292, rel=1e-12)


def test_kernel_trace_montecarlo_values():
    hp = pathint.HamiltonianParams.from_mu([3.0, 4.0])
    res = pathint.exact_kernel_trace(hp, 1.0, 1.0, mode="montecarlo", budget=3001,
                                     seed=13, workers=2)
    assert res.value == pytest.approx(1.0723293308395714, rel=1e-12)
    assert res.error == pytest.approx(0.0020511369066431493, rel=1e-12)


def test_sliced_montecarlo_two_chunks():
    """M = 64 caps a chunk at 200000 // 64 = 3125 samples, so a budget of
    5000 is drawn as 3125 + 1875."""
    cfg = pathint.TraceConfig(horizon=1.0, slices=64, weights="exp", backend="montecarlo",
                              budget=5000, seed=14)
    res = pathint.sliced_trace(pathint.HamiltonianParams.from_mu([1.0]), 1.0, cfg)
    assert res.value == pytest.approx(94954.14572850672 + 178150.49301772538j, rel=1e-12)
    assert res.error == pytest.approx(175662.96499526943, rel=1e-12)
    assert res.params["nonfinite_count"] == 0


def test_resolution_montecarlo_values():
    res = measure.resolution_check(measure.MeasureModel(3, 2.5), 6, mode="montecarlo",
                                   budget=5000, seed=15, workers=2)
    assert res.max_dev == pytest.approx(3.208903575694111, rel=1e-12)
    assert res.max_z == pytest.approx(3.280528708421038, rel=1e-12)


def test_stream_and_budget_checks():
    for workers in (0, -1, 2.0, "2"):
        with pytest.raises(ValueError, match="integer workers >= 1"):
            mc.spawn_rngs(1, workers)
    for total in (0, -5, 10.0):
        with pytest.raises(ValueError, match="integer sample count >= 1"):
            mc.split_count(total, 2)
    assert mc.split_count(np.int64(7), 3) == [3, 2, 2]


def test_running_moments_edge_cases():
    acc = mc.RunningMoments()
    with pytest.raises(ValueError, match="no samples"):
        acc.mean
    assert acc.sem == math.inf
    assert acc.max_fraction == 0.0
    acc.add([1.5])
    assert acc.mean == 1.5 and acc.sem == math.inf
    acc.add([-1.5])
    assert acc.mean == 0.0 and acc.max_fraction == 0.0


def test_running_moments_reads_one_modulus_per_value():
    """s2 and max_abs of a complex batch are the sum of squares and the
    largest of its moduli, bit for bit; an empty batch changes nothing."""
    values = np.random.default_rng(7).standard_normal(1001) * (1.0 - 2.5j) + 0.3j
    acc = mc.RunningMoments()
    acc.add(values)
    acc.add(np.array([], dtype=complex))
    assert acc.n == 1001
    assert acc.s1 == complex(np.sum(values))
    assert acc.s2 == float(np.sum(np.abs(values) ** 2))
    assert acc.max_abs == float(np.max(np.abs(values)))
