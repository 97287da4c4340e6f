"""Tests of the benchmark's failure classifier and summaries.

Run from the repository root: PYTHONPATH=src python3 -m pytest -q benchmarks
"""

import math

import numpy as np
import pytest

from frozenarg.errors import InexactDivision
from harness import (Case, Outcome, Recorder, Span, check_close, check_exit, digits, end_to_end, self_times, tail,
                     unexpected_failures)


def run_one(fn, check=None, trace=False):
    recorder = Recorder(trace=trace)
    outcome = recorder.run(lambda r: r.call("layer.op", fn, check=check))
    return outcome, recorder


def test_success_reports_relative_error_and_digits():
    outcome, _ = run_one(lambda: np.array([1.0, 2.0 + 1e-9]),
                         check=lambda got: check_close(got, [1.0, 2.0], 1e-6))
    assert outcome.ok and outcome.kind == "ok"
    assert outcome.rel_err == pytest.approx(5e-10, rel=1e-3)
    assert outcome.digits == pytest.approx(-math.log10(5e-10), rel=1e-3)


def test_frozenarg_error_is_raised_failure():
    def boom():
        raise InexactDivision("remainder")
    outcome, _ = run_one(boom)
    assert (outcome.ok, outcome.kind, outcome.digits) == (False, "raised", 0.0)


def test_other_exception_is_crash():
    outcome, _ = run_one(lambda: 1 / 0)
    assert (outcome.ok, outcome.kind) == (False, "crashed")


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
def test_non_finite_result_fails(bad):
    outcome, _ = run_one(lambda: np.array([1.0, bad]), check=lambda got: check_close(got, [1.0, 2.0], 1e-6))
    assert (outcome.ok, outcome.kind) == (False, "nonfinite")


def test_missed_tolerance_fails():
    outcome, _ = run_one(lambda: np.array([1.0, 2.1]), check=lambda got: check_close(got, [1.0, 2.0], 1e-6))
    assert (outcome.ok, outcome.kind, outcome.digits) == (False, "tolerance", 0.0)


def test_nonzero_exit_fails():
    outcome, _ = run_one(lambda: (1, []), check=lambda res: check_exit(*res) or 0.0)
    assert (outcome.ok, outcome.kind) == (False, "exit")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_exit_zero_with_nan_rows_fails(cell):
    rows = [{"n": "1", "value": "0.5"}, {"n": "2", "value": cell}]
    outcome, _ = run_one(lambda: (0, rows), check=lambda res: check_exit(*res) or 0.0)
    assert (outcome.ok, outcome.kind) == (False, "nan_rows")


def test_exit_zero_with_text_cells_passes():
    rows = [{"potential": "tent", "block": "eigenvalue", "x": ""}]
    outcome, _ = run_one(lambda: (0, rows), check=lambda res: check_exit(*res) or 0.0)
    assert outcome.ok


def test_failed_check_marks_span():
    outcome, recorder = run_one(lambda: np.array([2.0]), check=lambda got: check_close(got, [1.0], 1e-6), trace=True)
    assert not outcome.ok
    assert [s.ok for s in recorder.spans] == [False]


def test_digits_are_clipped():
    assert digits(0.0) == 16.0
    assert digits(1e-20) == 16.0
    assert digits(10.0) == 0.0
    assert digits(1e-3) == pytest.approx(3.0)


def test_tail_is_highest_percentile_with_ten_beyond():
    times = [float(i) for i in range(24)]
    value, pct, beyond = tail(times)
    assert value == 13.0 and beyond == 10
    assert sum(t > value for t in times) == 10
    assert pct == pytest.approx(100 * 14 / 24)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_end_to_end_scores_failures_as_zero_digits():
    outcomes = [run_one(lambda: np.array([1.0]), check=lambda g: check_close(g, [1.0 + 1e-8], 1e-6))[0],
                run_one(lambda: 1 / 0)[0]]
    e2e = end_to_end(outcomes, [0.5, 0.7, 0.6], 80.0)
    assert e2e["ok_share"] == 0.5 and e2e["fail_share"] == 0.5
    assert e2e["digits_mean"] == pytest.approx(8.0 / 2, rel=1e-3)
    assert e2e["setup_s"] == 0.6


def test_timings_take_each_case_at_its_typical_pass():
    # Two cases, twelve passes; case 1's four slow passes must not reach the timings.
    outcomes = [Outcome(True, "ok", seconds, 0.0, case)
                for p in range(12) for case, seconds in ((0, 1.0 + p), (1, 40.0 if p % 3 == 0 else 2.0))]
    e2e = end_to_end(outcomes, [0.5], 80.0)
    assert e2e["op_p50_s"] == pytest.approx((6.5 + 2.0) / 2)
    assert e2e["ops_per_s"] == pytest.approx(24 / (12 * 6.5 + 12 * 2.0))
    assert e2e["op_tail_s"] == 6.5 and e2e["op_tail_beyond"] == 0
    assert e2e["measured_tail_s"] == 6.0
    assert end_to_end(outcomes, [0.5], 80.0, per_case=min)["op_p50_s"] == pytest.approx((1.0 + 2.0) / 2)


def test_only_unknown_failures_and_crashes_are_incorrect():
    cases = [Case("fine", None), Case("cliff", None, known_failure=True)]
    outcomes = [Outcome(True, "ok", 1.0, 0.0, 0), Outcome(False, "tolerance", 1.0, math.inf, 1),
                Outcome(False, "raised", 1.0, math.inf, 1)]
    assert unexpected_failures(outcomes, cases) == []
    outcomes += [Outcome(False, "tolerance", 1.0, math.inf, 0), Outcome(False, "crashed", 1.0, math.inf, 1)]
    assert unexpected_failures(outcomes, cases) == [("fine", "tolerance"), ("cliff", "crashed")]


def test_self_time_subtracts_children():
    spans = [Span(0, "outer", 0, None, 0.0, 1.0), Span(1, "inner", 0, 0, 0.2, 0.5),
             Span(2, "inner", 0, 0, 0.6, 0.7)]
    own = self_times(spans)
    assert own[0] == pytest.approx(0.6)
    assert own[1] == pytest.approx(0.3)


def test_nested_call_time_counts_once():
    recorder = Recorder(trace=True)

    def op(r):
        r.call("outer", lambda: r.call("inner", lambda: sum(range(1000))))

    outcome = recorder.run(op)
    outer, inner = recorder.spans
    assert inner.parent == outer.id and inner.op_id == outer.op_id == 0
    assert outcome.seconds == pytest.approx(outer.end - outer.start)
