"""Closed-loop measurement, failure accounting, spans and metric summaries.

One client runs one operation at a time in this process.  An operation is a
function of a Recorder: it makes its timed calls into frozenarg through
``Recorder.call`` and returns nothing; each call's check runs outside the
timed region and either returns the relative error it saw or raises Failure.
A workload is a list of Cases, each an operation on one input.
"""

from __future__ import annotations

import math
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from frozenarg.errors import FrozenArgError


class Failure(Exception):
    """An operation that did not produce a correct result.

    kind is one of: raised (a FrozenArgError), crashed (any other exception
    from the program), nonfinite, tolerance, exit (nonzero exit status),
    nan_rows (exit 0 with non-finite output rows).
    """

    def __init__(self, kind: str, detail: str = ""):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


def require_finite(values) -> None:
    if not np.all(np.isfinite(np.asarray(values, dtype=complex))):
        raise Failure("nonfinite", "result holds NaN or infinity")


def within(err: float, tol: float) -> float:
    """Pass err through when it meets tol; otherwise fail the operation."""
    if not err <= tol:
        raise Failure("tolerance", f"relative error {err:.3e} above {tol:.1e}")
    return err


def check_close(got, want, tol: float) -> float:
    """Finite values within tol of the reference, relative to max(|want|) (at least 1e-300)."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    require_finite(got)
    if got.shape != want.shape:
        raise Failure("tolerance", f"shape {got.shape} != {want.shape}")
    scale = max(float(np.abs(want).max(initial=0.0)), 1e-300)
    return within(float(np.abs(got - want).max(initial=0.0)) / scale, tol)


def check_exit(returncode: int, rows: list[dict]) -> None:
    """A CLI run fails on a nonzero exit status, or on exit 0 with a non-finite cell."""
    if returncode != 0:
        raise Failure("exit", f"exit status {returncode}")
    for row in rows:
        for value in row.values():
            try:
                number = float(value)
            except (TypeError, ValueError):
                continue
            if not math.isfinite(number):
                raise Failure("nan_rows", f"non-finite cell in row {row}")


def digits(rel_err: float) -> float:
    """Correct decimal digits, clip(-log10(rel_err), 0, 16)."""
    if rel_err <= 0.0:
        return 16.0
    return min(max(-math.log10(rel_err), 0.0), 16.0)


@dataclass
class Span:
    id: int
    name: str
    op_id: int
    parent: int | None
    start: float
    end: float = 0.0
    ok: bool = True
    attrs: dict = field(default_factory=dict)


@dataclass
class Case:
    """One input of a workload.

    known_failure marks an input that the initial version of frozenarg is
    known to fail.  Its failures still count in failed, ok_share and
    digits_mean, but only a failure of a case not so marked (or a crash)
    makes the run incorrect.
    """

    label: str
    op: Callable
    known_failure: bool = False


@dataclass
class Outcome:
    ok: bool
    kind: str
    seconds: float
    rel_err: float
    case: int = 0

    @property
    def digits(self) -> float:
        return digits(self.rel_err) if self.ok else 0.0


class Recorder:
    """Times the program calls of the current operation and, when tracing, keeps their spans."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.op_id = -1
        self.busy = 0.0
        self.err = 0.0

    def call(self, name: str, fn, *args, check=None, attrs: dict | None = None):
        """Time fn(*args), then check its result outside the timed region.

        An exception from fn fails the operation: a FrozenArgError as
        "raised", anything else as "crashed".  attrs is kept on the span.
        """
        span = None
        if self.trace:
            parent = self._open[-1].id if self._open else None
            span = Span(len(self.spans), name, self.op_id, parent, 0.0, attrs={} if attrs is None else attrs)
            self.spans.append(span)
            self._open.append(span)
        top = not self._open or self._open[0] is span
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Failure:
            if span:
                span.ok = False
            raise
        except Exception as exc:
            if span:
                span.ok = False
            kind = "raised" if isinstance(exc, FrozenArgError) else "crashed"
            raise Failure(kind, f"{name}: {type(exc).__name__}: {exc}") from exc
        finally:
            end = time.perf_counter()
            if span:
                span.start, span.end = start, end
                self._open.pop()
            if top:
                self.busy += end - start
        if check is not None:
            try:
                self.err = max(self.err, check(result))
            except Failure:
                if span:
                    span.ok = False
                raise
        return result

    def run(self, op, case: int = 0) -> Outcome:
        """Run one operation and classify it; case identifies its input."""
        self.op_id += 1
        self.busy = 0.0
        self.err = 0.0
        try:
            op(self)
        except Failure as failure:
            return Outcome(False, failure.kind, self.busy, math.inf, case)
        return Outcome(True, "ok", self.busy, self.err, case)


def measure(recorder: Recorder, cases: list[Case], seconds: float, min_passes: int,
            max_passes: int | None = None):
    """Run whole passes over the cases; returns (outcomes, passes, wall seconds).

    Passes go on while the next one, at the mean pass time so far, would end
    within `seconds`; at least min_passes and at most max_passes run.  Whole
    passes keep the mix of cases identical from run to run.
    """
    start = time.perf_counter()
    outcomes: list[Outcome] = []
    passes = 0
    while passes != max_passes:
        elapsed = time.perf_counter() - start
        if passes >= min_passes and elapsed * (passes + 1) / passes > seconds:
            break
        outcomes += [recorder.run(c.op, i) for i, c in enumerate(cases)]
        passes += 1
    return outcomes, passes, time.perf_counter() - start


def unexpected_failures(outcomes: list[Outcome], cases: list[Case]) -> list[tuple[str, str]]:
    """(label, kind) of each failed operation that makes the run incorrect.

    That is every crash, and every other failure of a case not marked known_failure.
    """
    return [(cases[o.case].label, o.kind) for o in outcomes
            if not o.ok and (o.kind == "crashed" or not cases[o.case].known_failure)]


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples above it: (value, percentile, beyond).

    With fewer than eleven samples no such percentile exists; the maximum is
    returned with the number of samples above it (zero).
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, 10


def end_to_end(outcomes: list[Outcome], setup_samples: list[float], rss_mb: float,
               per_case=statistics.median) -> dict:
    """The end-to-end metrics of one measured loop, plus descriptive extras.

    The timings take each operation at its case's typical time, per_case of
    that case's times over the run's passes.  A shared machine slows down for
    seconds at a time.  An operation of a tenth of a second or more rarely
    runs through a quiet stretch whole, so its fastest pass depends on the
    luck of the run while its median is stable; one of a few milliseconds
    finds the quiet moments, and there the fastest pass (per_case=min) is the
    stable one.  ops_per_s is successful operations over the sum of those
    times, op_p50_s the median over the cases, and op_tail_s the tail over the
    cases.  Each case counts once there: the pass count follows the machine's
    speed, and it would otherwise move which case the tail falls on.
    """
    times = [o.seconds for o in outcomes]
    times_by_case: dict[int, list[float]] = {}
    for o in outcomes:
        times_by_case.setdefault(o.case, []).append(o.seconds)
    typical = {case: per_case(ts) for case, ts in times_by_case.items()}
    as_typical = [typical[o.case] for o in outcomes]
    ok = sum(o.ok for o in outcomes)
    tail_value, tail_pct, beyond = tail(list(typical.values()))
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": ok / sum(as_typical),
        "op_p50_s": statistics.median(typical.values()),
        "op_tail_s": tail_value,
        "digits_mean": statistics.fmean(o.digits for o in outcomes),
        "ok_share": ok / len(outcomes),
        "fail_share": 1.0 - ok / len(outcomes),
        "peak_rss_mb": rss_mb,
        "op_tail_percentile": tail_pct,
        "op_tail_beyond": beyond,
        "ops": len(outcomes),
        "cases": len(typical),
        "measured_ops_per_s": ok / sum(times),
        "measured_p50_s": statistics.median(times),
        "measured_tail_s": tail(times)[0],
    }


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own
