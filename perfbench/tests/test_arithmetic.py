"""Tests of the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from repro.analysis.sweep import CellResult, SweepResult, TrialFailure  # noqa: E402


# ------------------------------------------------------------ self time


def test_overlapping_worker_children_count_once():
    span = (0.0, 10.0)
    children = [(1.0, 4.0), (3.0, 6.0), (2.0, 5.0), (8.0, 12.0), (-1.0, 0.5)]
    # union inside the span: [0, 0.5] + [1, 6] + [8, 10] = 7.5
    assert spans.covered(span, children) == pytest.approx(7.5)


def test_children_outside_the_span_are_ignored():
    assert spans.covered((5.0, 6.0), [(0.0, 5.0), (6.0, 9.0)]) == 0.0
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0.0, 2.0), (0.0, 2.0), (0.5, 1.0)]) == pytest.approx(2.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans.time, "perf_counter", fake)
    return fake


def test_nested_frames_subtract_their_children(clock, tmp_path):
    tracer = spans.Tracer(str(tmp_path))
    tracer.start()
    outer = tracer.push("runner")
    clock.now = 1.0
    inner = tracer.push("checkpoint.load")
    clock.now = 3.0
    tracer.pop(inner)
    clock.now = 4.0
    tracer.pop(outer)
    assert tracer.layers["runner"] == [1, 2.0, 4.0]
    assert tracer.layers["checkpoint.load"] == [1, 2.0, 2.0]


def test_generator_frames_exclude_the_consumer(clock, tmp_path):
    tracer = spans.Tracer(str(tmp_path))
    tracer.start()

    def produce():
        clock.now += 1.0
        yield 1
        clock.now += 1.0
        yield 2

    wrapped = tracer.timed_generator("runner.wait", produce, interval=True)
    for _ in wrapped():
        clock.now += 10.0  # consumer work, not the producer's
    calls, self_s, total_s = tracer.layers["runner.wait"]
    assert (calls, self_s, total_s) == (3, 2.0, 2.0)
    assert len(tracer.intervals) == 3


def test_wall_account_sums_to_wall_with_pooled_workers():
    # coordinator: root [0, 10]; cli self 1; runner self 1; two waits
    coordinator = {
        "layers": {
            layers.ROOT_FRAME: [1, 0.5, 10.0],
            "cli": [1, 1.0, 9.5],
            "runner": [1, 1.0, 8.5],
            "runner.wait": [2, 7.5, 7.5],
        },
        "counts": {"runner.processes": 2},
        "intervals": [
            (layers.ROOT_FRAME, 0.0, 10.0),
            ("runner.wait", 1.0, 5.0),
            ("runner.wait", 5.5, 9.0),
        ],
    }
    # two workers whose tasks overlap each other inside the waits
    workers = [
        {
            "layers": {"runner.task": [1, 1.0, 4.0], "engine.run": [1, 3.0, 3.0]},
            "counts": {"runner.tasks": 1, "runner.task_busy_s": 4.0},
            "intervals": [(spans.Tracer.TASK, 1.0, 5.0)],
        },
        {
            "layers": {"runner.task": [1, 1.0, 4.0], "engine.run": [1, 3.0, 3.0]},
            "counts": {"runner.tasks": 1, "runner.task_busy_s": 4.0},
            "intervals": [(spans.Tracer.TASK, 2.0, 6.0)],
        },
    ]
    sample = SimpleNamespace(
        executed=2, cached=0, failed=0, fallbacks=0, store_records=0, store_bytes=0
    )
    metrics, account = layers.analyze(coordinator, workers, sample)
    # waits [1, 5] and [5.5, 9]; worker union [1, 6] covers 4 + 0.5
    assert account["runner.wait"] == pytest.approx(7.5 - 4.5)
    assert account["engine.run"] == pytest.approx(4.5 * 6 / 8)
    assert account["runner.task"] == pytest.approx(4.5 * 2 / 8)
    assert account["unattributed"] == pytest.approx(0.5)
    assert sum(account.values()) == pytest.approx(10.0)
    assert metrics["runner.tasks"] == 2
    assert metrics["runner.worker_busy_frac"] == pytest.approx(8.0 / (2 * 10.0))
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.05)


# ------------------------------------------------------------ medians


def test_median_reports_its_sample_count():
    summary = stats.summarize([3.0, 1.0, 2.0, 10.0])
    assert summary.median == 2.5
    assert summary.count == 4
    assert summary.q1 <= summary.median <= summary.q3


def test_single_sample_is_its_own_quartiles():
    assert stats.summarize([7.0]) == stats.Summary(7.0, 7.0, 7.0, 1)
    with pytest.raises(ValueError):
        stats.summarize([])


def test_pooled_rate_is_total_work_over_total_time():
    summary = stats.pooled_rate([10.0, 30.0], [1.0, 1.0])
    assert summary.median == 20.0 and summary.pooled and summary.count == 2
    assert stats.pooled_rate([10.0, 10.0], [1.0, 4.0]).median == 4.0


def test_probe_scales_wall_time_to_the_nominal_host(monkeypatch):
    host = probe.HostProbe.__new__(probe.HostProbe)
    host.times = []
    slow = probe.NOMINAL_S * 2
    readings = iter([slow * 0.75, slow * 1.25])
    monkeypatch.setattr(host, "measure", lambda: next(readings))
    # the probes bracketing the block average to twice the nominal time
    assert host.scaled(lambda: 3.0) == pytest.approx(1.5)
    assert probe.HostProbe.factor(probe.NOMINAL_S, probe.NOMINAL_S) == pytest.approx(1.0)


# ------------------------------------------------------------ names


@pytest.mark.parametrize("name", ["cli.s", "runner.wait_s", "1x", "a-b.c_d", "x" * 64])
def test_legal_names(name):
    assert stats.validate_name(name) == name


@pytest.mark.parametrize("name", ["", "a b", "-x", ".x", "x/y", "x" * 65, "naïve", None])
def test_illegal_names(name):
    with pytest.raises(ValueError):
        stats.validate_name(name)


def test_every_declared_metric_name_and_unit_is_legal():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = spec["end_to_end"] + spec["per_layer"]
    names = [metric["name"] for metric in declared]
    assert len(names) == len(set(names))
    for metric in declared:
        stats.validate_name(metric["name"])
        stats.validate_unit(metric["unit"])
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# ------------------------------------------------------------ records


def _result(cells):
    result = SweepResult()
    result.cells.extend(cells)
    return result


def test_canonical_records_ignore_cell_and_key_order():
    a = CellResult(params={"n": 16, "C": 4}, trials=[{"rounds": 3.0, "solved": 1.0}])
    b = CellResult(
        params={"n": 32, "C": 4},
        trials=[{"solved": 1.0, "rounds": 5.0}],
        failures=[TrialFailure(seed=7, error="RoundLimitExceeded", message="m")],
    )
    b_reordered = CellResult(
        params={"C": 4, "n": 32},
        trials=[{"rounds": 5.0, "solved": 1.0}],
        failures=[TrialFailure(seed=7, error="RoundLimitExceeded", message="m")],
    )
    first = workloads.canonical_records([_result([a, b])])
    second = workloads.canonical_records([_result([b_reordered]), _result([a])])
    assert first == second == sorted(first)
    assert len(first) == 3
    assert workloads.digest(first) == workloads.digest(second)


def test_canonical_records_keep_trial_order_within_a_cell():
    forward = CellResult(params={"n": 16}, trials=[{"rounds": 1.0}, {"rounds": 2.0}])
    swapped = CellResult(params={"n": 16}, trials=[{"rounds": 2.0}, {"rounds": 1.0}])
    assert workloads.digest(workloads.canonical_records([_result([forward])])) != (
        workloads.digest(workloads.canonical_records([_result([swapped])]))
    )


def test_ks_distance():
    assert workloads.ks_statistic([1, 2, 3], [1, 2, 3]) == 0.0
    assert workloads.ks_statistic([1, 2], [3, 4]) == 1.0
    assert workloads.ks_critical(64, 512) > workloads.ks_critical(512, 512)


def test_chi_square_critical_value():
    assert workloads.chi2_critical(10, 0.05) == pytest.approx(18.307, rel=0.01)
    assert workloads.chi2_critical(24, 1e-6) > workloads.chi2_critical(24, 1e-3)
