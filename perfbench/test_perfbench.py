"""Tests of the benchmark's own arithmetic and checks.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import os

import pytest

from perfbench import hostspeed, ops, stats, tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_excludes_direct_children_only():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def leaf():
        clock.advance(1.0)

    traced_leaf = tracer.wrap(leaf, "c", "leaf")

    def middle():
        clock.advance(1.0)
        traced_leaf()
        clock.advance(1.0)

    traced_middle = tracer.wrap(middle, "b", "middle")

    def outer():
        clock.advance(2.0)
        traced_middle()  # 3 s, of which 1 s is the leaf
        clock.advance(1.0)
        traced_leaf()
        clock.advance(3.0)

    tracer.wrap(outer, "a", "outer")()

    assert tracer.busy["a.outer"] == 10.0
    assert tracer.self_s["a"] == 10.0 - 3.0 - 1.0
    assert tracer.self_s["b"] == 2.0
    assert tracer.self_s["c"] == 2.0
    assert tracer.calls["c.leaf"] == 2 and tracer.busy["c.leaf"] == 2.0
    # self times partition the root span
    assert sum(tracer.self_s.values()) == 10.0


def test_recursive_span_counts_busy_time_once_and_errors():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def recurse(depth):
        clock.advance(1.0)
        if depth:
            traced(depth - 1)
        else:
            raise KeyError("bottom")

    traced = tracer.wrap(recurse, "a", "recurse")
    with pytest.raises(KeyError):
        traced(2)
    assert tracer.calls["a.recurse"] == 3
    assert tracer.busy["a.recurse"] == 3.0
    assert tracer.self_s["a"] == 3.0
    assert tracer.errors["a.recurse"] == 3
    assert tracer.stack == []


def test_layer_values_are_per_pass():
    tracer = tracing.Tracer(FakeClock())
    tracer.calls["probability.prob"] = 4
    tracer.busy["probability.prob"] = 2e-6
    tracer.add("axioms.trials", 50)
    tracer.peak("geometry.minkowski_combine.max_points", 7)
    values = tracing.layer_values(tracer, passes=2)
    assert values["probability.prob.calls"] == 2
    assert values["probability.prob.mean_us"] == pytest.approx(0.5)
    assert values["axioms.trials"] == 25
    assert values["geometry.minkowski_combine.max_points"] == 7


def test_tail_has_ten_samples_beyond_it():
    samples = [float(x) for x in range(25, 0, -1)]
    tail = stats.tail(samples)
    assert tail == stats.Tail(value=15.0, percentile=60.0, beyond=10, count=25)
    assert sum(s > tail.value for s in samples) == 10


def test_tail_needs_more_samples_than_beyond():
    assert stats.tail([3.0] * 11).percentile == pytest.approx(100.0 / 11)
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_relative_spread():
    assert stats.relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


def test_nominal_seconds_scale_by_the_host_loop():
    loop = hostspeed.NOMINAL_LOOP_S * 2
    assert hostspeed.nominal(3.0, loop) == 1.5
    assert hostspeed.nominal(3.0, hostspeed.NOMINAL_LOOP_S) == 3.0


def test_mismatched_verdict_counts_as_failure(tmp_path, monkeypatch):
    import ccspace.cli

    monkeypatch.chdir(tmp_path)
    good = ops.cli_op("good", "counterexample", 1, {"seed": 3}, {"scale": 1.0},
                      verdict="expected_fail_confirmed")
    bad = ops.cli_op("bad", "counterexample", 1, {"seed": 3}, {"scale": 1.0}, verdict="pass")
    totals = ops.Totals([good, bad])
    totals.run_pass(ccspace.cli.main)
    assert (totals.attempted, totals.failed) == (2, 1)
    [(label, cause)] = totals.failures
    assert label == "bad" and "verdict" in cause


def test_raising_op_counts_as_failure(tmp_path, monkeypatch):
    import ccspace.cli

    monkeypatch.chdir(tmp_path)
    op = ops.cli_op("unknown-space", "check-axioms", 1, {"space": "nowhere", "seed": 1})
    outcome = ops.run_op(op, ccspace.cli.main)
    assert outcome.failure.startswith("raised SystemExit")


def test_changed_report_bytes_fail_the_repeat():
    op = ops.Op("op", 1, argv=("counterexample",))
    totals = ops.Totals([op])
    totals.record(op, 0, ops.Outcome(0.1, "aa", 10, None))
    totals.reference.append("aa")
    totals.record(op, 0, ops.Outcome(0.1, "aa", 10, None))
    totals.record(op, 0, ops.Outcome(0.1, "bb", 10, None))
    assert (totals.attempted, totals.failed) == (3, 1)
    assert list(totals.failures) == [("op", "report bytes differ from the reference run")]


def _report(**overrides):
    report = {"command": "prop55", "space": "compact-sets", "seed": 5, "verdict": "pass",
              "params": {"n_max": 3, "fixture": "two-point-family"},
              "details": {"indices": [1, 2, 3], "distances": ["0.0", "0.0", "0.0"]}}
    report.update(overrides)
    return json.dumps(report).encode()


def test_check_report_params_and_trace_length():
    op = ops.cli_op("prop55", "prop55", 3,
                    {"space": "compact-sets", "n-max": 3, "seed": 5},
                    {"n_max": 3}, range(1, 4))
    assert ops.check_report(op, 0, _report()) is None
    assert ops.check_report(op, 1, _report()) == "exit code 1"
    assert "params.n_max" in ops.check_report(op, 0, _report(params={"n_max": 64}))
    short = {"indices": [1, 2], "distances": ["0.0", "0.0"]}
    assert "trace has 2 points" in ops.check_report(op, 0, _report(details=short))
    assert "seed" in ops.check_report(op, 0, _report(seed=0))


def test_plans_are_seeded(tmp_path):
    for name in "abc":
        (tmp_path / name).mkdir()
    for workload in ops.WORKLOADS:
        first = ops.build_plan(workload, 11, str(tmp_path / "a"))
        again = ops.build_plan(workload, 11, str(tmp_path / "b"))
        other = ops.build_plan(workload, 12, str(tmp_path / "c"))
        assert first == again and first != other
        assert all(op.items >= 1 for op in first)
    fixture = "fixture-distributions-256-0.txt"
    assert (tmp_path / "a" / fixture).read_bytes() == (tmp_path / "b" / fixture).read_bytes()
    assert (tmp_path / "a" / fixture).read_bytes() != (tmp_path / "c" / fixture).read_bytes()


def test_instrument_wraps_and_restores():
    import ccspace.cli
    import ccspace.core

    original = ccspace.cli.check_axioms
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert ccspace.cli.check_axioms is not original
        space = ccspace.cli.get_space("euclidean", dim=1)
        ccspace.core.midpoint(space, (0.0,), (2.0,))
    assert ccspace.cli.check_axioms is original
    assert tracer.calls["core.midpoint"] == 1
    assert tracer.calls["core.combine"] == 1
    assert tracer.calls["instances.euclidean.combine_terms"] == 1


def test_benchmark_json_names_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(stats.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(ops.WORKLOADS)
