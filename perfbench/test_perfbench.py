"""Tests of the benchmark's own logic. Run with: python3 -m pytest perfbench"""

import json
import math
import types
from pathlib import Path

import numpy as np
import pytest

from measure import (
    CALIBRATION_MIN_RUNS, CALIBRATION_REF_S, NAME_RE, UNIT_RE, Calibrator, FailureCounter, Phase, metric_entries,
    timed_rounds, timed_setup, trimmed_mean,
)
from tracer import NO_PARENT, NO_SAMPLE, Tracer, self_times, span_stats

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


class TestSelfTimes:
    def test_overlapping_children_are_counted_once(self):
        # parent [0, 10]; children [1, 4] and [3, 6] overlap, [8, 12] ends past it
        start = [0.0, 1.0, 3.0, 8.0]
        end = [10.0, 4.0, 6.0, 12.0]
        parent = [NO_PARENT, 0, 0, 0]
        own = self_times(start, end, parent)
        assert own[0] == pytest.approx(10.0 - (5.0 + 2.0))
        assert list(own[1:]) == [3.0, 3.0, 4.0]

    def test_contained_child_and_grandchild(self):
        # child [2, 8] contains grandchild [3, 5]; a second child [4, 6] lies inside the first
        start = [0.0, 2.0, 3.0, 4.0]
        end = [10.0, 8.0, 5.0, 6.0]
        parent = [NO_PARENT, 0, 1, 0]
        own = self_times(start, end, parent)
        assert own[0] == pytest.approx(4.0)
        assert own[1] == pytest.approx(4.0)
        assert own[2] == pytest.approx(2.0)

    def test_children_listed_out_of_order(self):
        start = [0.0, 6.0, 1.0]
        end = [10.0, 7.0, 2.0]
        parent = [NO_PARENT, 0, 0]
        assert self_times(start, end, parent)[0] == pytest.approx(8.0)


class TestTracer:
    def test_wrap_records_nesting_samples_and_restores(self):
        lib = types.SimpleNamespace(inner=lambda x: x)
        lib.outer = lambda x: lib.inner(x) + 1
        original_inner, original_outer = lib.inner, lib.outer
        tracer = Tracer(clock=FakeClock())
        tracer.wrap(lib, "inner", "lib.inner")
        tracer.wrap(lib, "outer", "lib.outer", sample="begin")
        tracer.wrap(lib, "absent", "lib.absent")
        assert lib.outer(1) == 2
        assert lib.outer(2) == 3
        tracer.restore()
        assert lib.inner is original_inner and lib.outer is original_outer
        assert len(tracer.missing) == 1 and tracer.missing[0].endswith(".absent")

        name_id, start, end, parent, sample = tracer.arrays()
        names = [tracer.names[i] for i in name_id]
        assert names == ["lib.outer", "lib.inner", "lib.outer", "lib.inner"]
        assert list(parent) == [NO_PARENT, 0, NO_PARENT, 2]
        assert list(sample) == [0, 0, 1, 1]
        assert np.all(end > start)
        stats = span_stats(tracer)
        assert stats["lib.outer"]["calls"] == 2
        # each outer span lasts 3 ticks, its inner span 1
        assert stats["lib.outer"]["s"] == pytest.approx(6.0)
        assert stats["lib.outer"]["self_s"] == pytest.approx(4.0)

    def test_span_closed_on_exception_and_sample_cleared(self):
        def boom():
            raise TypeError("complex vs float")

        lib = types.SimpleNamespace(boom=boom, root=lambda: None)
        tracer = Tracer(clock=FakeClock())
        tracer.wrap(lib, "boom", "lib.boom", sample="begin")
        tracer.wrap(lib, "root", "lib.root", sample="end")
        with pytest.raises(TypeError):
            lib.boom()
        lib.root()
        _, start, end, parent, sample = tracer.arrays()
        assert np.all(np.isfinite(end)) and list(parent) == [NO_PARENT, NO_PARENT]
        assert list(sample) == [0, NO_SAMPLE]
        assert tracer.counts["lib.boom.raised"] == 1 and tracer.counts["lib.root.raised"] == 0

    def test_count_only(self):
        lib = types.SimpleNamespace(f=lambda: 7)
        tracer = Tracer()
        tracer.count(lib, "f", "lib.f")
        assert [lib.f() for _ in range(3)] == [7, 7, 7]
        assert tracer.counts["lib.f"] == 3 and len(tracer.start) == 0


class TestFailureCounter:
    def test_call_counts_exceptions_and_keeps_going(self):
        counter = FailureCounter()
        results = [counter.call(lambda x: 1.0 / x, x) for x in (1.0, 0.0, 2.0)]
        assert results[0] == (True, 1.0) and results[2] == (True, 0.5)
        ok, err = results[1]
        assert not ok and isinstance(err, ZeroDivisionError)
        assert (counter.attempted, counter.failed) == (3, 1)
        assert counter.errors == {"ZeroDivisionError": 1}
        assert counter.failed_share == pytest.approx(1 / 3)

    def test_ensemble_failure_counts_every_sample(self):
        counter = FailureCounter()
        counter.add(8)
        counter.add(8, 8, "StepFailure")
        assert (counter.attempted, counter.failed, counter.failed_share) == (16, 8, 0.5)

    def test_rejects_more_failures_than_attempts(self):
        with pytest.raises(ValueError):
            FailureCounter().add(1, 2, "x")

    def test_share_without_attempts(self):
        assert FailureCounter().failed_share == 0.0


class TestMetricNames:
    def test_declared_names_and_units_are_valid_and_unique(self):
        for group in ("end_to_end", "per_layer"):
            names = [m["name"] for m in SPEC[group]]
            assert len(names) == len(set(names))
            for m in SPEC[group]:
                assert NAME_RE.match(m["name"]), m["name"]
                assert UNIT_RE.match(m["unit"]), m["unit"]
        for w in SPEC["workloads"]:
            assert NAME_RE.match(w["name"])

    @pytest.mark.parametrize("name", ["bad name", "_lead", "a" * 65, "x/y", "dual(ell)", ""])
    def test_invalid_names_refused(self, name):
        with pytest.raises(ValueError):
            metric_entries({name: 1.0}, [{"name": name, "unit": "s"}])

    def test_valid_names_accepted(self):
        specs = [{"name": "scheme.step.self_s", "unit": "s"}, {"name": "ops_per_s", "unit": "ops/s"}]
        out = metric_entries({"scheme.step.self_s": 0.5, "ops_per_s": 3}, specs)
        assert out == {
            "scheme.step.self_s": {"value": 0.5, "unit": "s"},
            "ops_per_s": {"value": 3.0, "unit": "ops/s"},
        }

    def test_missing_and_nonfinite_values_refused(self):
        spec = [{"name": "ops_per_s", "unit": "ops/s"}]
        with pytest.raises(KeyError):
            metric_entries({}, spec)
        with pytest.raises(ValueError):
            metric_entries({"ops_per_s": math.nan}, spec)
        with pytest.raises(ValueError):
            metric_entries({"x": 1.0}, [{"name": "x", "unit": "bad unit"}])


class StubCalibrator:
    """Kernel duration doubles from the third calibration on: the machine slows."""

    def __init__(self):
        self.calls = 0

    def sample(self, seconds):
        self.calls += 1
        return [0.004 if self.calls <= 2 else 0.008]


class TestTimedRounds:
    def test_rounds_of_whole_batches_within_the_window(self):
        clock = FakeClock(step=1.0)
        order = []

        def batch(label, ops):
            return lambda: order.append(label) or (ops, label)

        phases = timed_rounds(
            {"a": [batch("a", 4)], "b": [batch("b", 2), batch("c", 2)]}, 30.0, StubCalibrator(), clock=clock
        )
        n = len(phases["a"].ops)
        assert n >= 2 and len(phases["b"].ops) == 2 * n
        assert order == ["a", "b", "c"] * n
        assert phases["b"].outcomes == ["b", "c"] * n
        # each call is timed over one tick
        assert phases["a"].rates == [4.0] * n and phases["b"].throughput == pytest.approx(2.0)
        assert clock.t <= 30.0 + 11.0
        # one calibration before each call, one more after the last
        assert len(phases["a"].calibration) == n and len(phases["b"].calibration) == 2 * n + 1

    def test_throughput_scaled_to_reference_speed(self):
        ref = CALIBRATION_REF_S
        phase = Phase(ops=[10, 10], seconds=[1.0, 2.0], calibration=[ref, 2 * ref])
        assert phase.throughput == pytest.approx(20 / 3)
        assert phase.speed == pytest.approx(1 / 1.5)
        # a machine at 2/3 of reference speed: 20/3 wall ops/s are 10 reference ops/s
        assert phase.ref_throughput == pytest.approx(10.0)

    def test_trimmed_mean_drops_outliers(self):
        assert trimmed_mean([1.0] * 18 + [0.0, 50.0]) == 1.0
        assert trimmed_mean([2.0, 4.0]) == 3.0

    def test_at_least_one_round(self):
        phases = timed_rounds({"x": [lambda: (1, None)]}, 0.0, StubCalibrator(), clock=FakeClock())
        assert len(phases["x"].ops) == 1

    def test_setup_median_scaled_to_reference_speed(self):
        calibrator = types.SimpleNamespace(kernel=lambda: 2 * CALIBRATION_REF_S)  # half the reference speed
        ticks = iter([0.0, 0.1, 1.0, 1.3, 2.0, 2.2])
        ref_s, wall_s, reps, result = timed_setup(
            lambda: "inputs", calibrator, min_reps=3, min_seconds=0.0, clock=lambda: next(ticks)
        )
        assert (reps, result) == (3, "inputs")
        assert wall_s == pytest.approx(0.2) and ref_s == pytest.approx(0.1)

    def test_calibration_runs_the_kernel_at_least_the_minimum(self):
        calibrator = Calibrator()
        times = calibrator.sample(0.0)
        assert len(times) == CALIBRATION_MIN_RUNS and all(t > 0 for t in times)
