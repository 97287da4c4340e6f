"""The four workloads: inputs made from the seed, oracles computed, operations built.

Each builder returns a list of Cases.  All reference results are computed
here, before any timing starts.  The cases the initial version of frozenarg
fails are marked known_failure, so a new failure anywhere else makes the run
incorrect.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from frozenarg import (
    DegenerateData,
    DiscreteProblem,
    continuous_spectrum,
    discrete_spectrum,
    error_report,
    reconstruct,
    sample_problem,
    sampled_potential,
    solve_degenerate,
    solve_nondegenerate,
    solve_symmetric,
    strip_degenerate,
)

from harness import Case, Failure, check_close, check_exit, require_finite, self_times, within
from oracles import (
    NAMED_Q,
    TABLES,
    containment_error,
    dense_mu,
    free_lambdas,
    grid,
    match_error,
    odd_lambdas,
    strip_nearest,
)

# Stated tolerances (relative).  An operation outside them counts as failed.
TOL_SPECTRUM = 1e-8   # discrete and continuous eigenvalues against their oracles
TOL_INVERSE = 1e-6    # recovered coefficients against the generating ones
TOL_TABLE = 1e-4      # CLI tables against the printed four-decimal values (they round to 5e-5)

FORWARD_L = (128, 256, 384)
FORWARD_FAILS_FROM_L = 384   # sampled potentials: the recurrence overflows, mu is non-finite
NONDEG_L = (8, 16, 24, 32, 48, 64, 96, 128)
NONDEG_FAILS_FROM_L = 48     # relative error above TOL_INVERSE
DEGENERATE_FAILS_FROM_L = 35  # InexactDivision
DEGENERATE_LM = ((8, 3), (11, 4), (14, 5), (17, 6), (19, 5), (35, 12), (47, 16), (63, 24), (95, 32), (127, 48))
SYMMETRIC_M = (4, 8, 16, 32, 64)
RECONSTRUCT_M = (5, 10, 20)
SPLINE_KNOTS = np.linspace(0.0, math.pi, 41)
CLI_COMMANDS = ("reproduce-tables", "reconstruct", "forward", "spectrum-continuous", "inverse")


@dataclass
class Context:
    """Where a workload may write, and the environment its subprocesses get."""

    workdir: str
    env: dict


def random_w(rng, l: int) -> np.ndarray:
    """Complex coefficients with |w_j| <= 1."""
    return rng.uniform(0.0, 1.0, l) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, l))


def check_spectrum(got, want) -> float:
    require_finite(got)
    return within(match_error(got, want), TOL_SPECTRUM)


def coprime_m(l: int) -> int:
    """The first m >= l/3 with gcd(m, l+1) = 1."""
    m = max(1, l // 3)
    while math.gcd(m, l + 1) != 1:
        m += 1
    return m


# ---------------------------------------------------------------------------
# forward: discrete_spectrum at l = 128..384
# ---------------------------------------------------------------------------

def _spectrum_case(label, problem, oracle, known_failure):
    def op(r):
        r.call("discrete.spectrum", discrete_spectrum, problem,
               check=lambda s: check_spectrum(s.mu, oracle), attrs={"l": problem.l})
    return Case(f"forward {label} l={problem.l} m={problem.m}", op, known_failure)


def forward(rng, ctx):
    """Two inputs per size: one sampled potential and one random w, each at an
    m drawn from {l/3, l/2}.  The seed deals the three sampled potentials out
    over the three sizes, so each of them meets l = 384 on some seeds.  Six
    cases make a pass of about 5 s, short enough for the repeated passes the
    per-case median time needs.  The Aberth iteration count differs by under 3%
    between the inputs and between the two m, so the timings do not follow
    the seed."""
    sampled = (("quadratic", NAMED_Q["quadratic"]), ("tent", NAMED_Q["tent"]),
               ("1+cos2x", lambda x: 1.0 + np.cos(2.0 * x)))
    order = rng.permutation(len(sampled))
    cases = []
    for j, l in enumerate(FORWARD_L):
        x = grid(l)
        h = math.pi / (l + 1)
        label, f = sampled[order[j]]
        m = (l // 3, l // 2)[rng.integers(2)]
        q = f(x)
        cases.append(_spectrum_case(label, sample_problem(q, m), dense_mu(h * h * q, m),
                                    l >= FORWARD_FAILS_FROM_L))
        m = (l // 3, l // 2)[rng.integers(2)]
        w = random_w(rng, l)
        cases.append(_spectrum_case("random-w", DiscreteProblem.from_w(w, m), dense_mu(w, m), False))
    return cases


# ---------------------------------------------------------------------------
# inverse: the three discrete inverse solvers on dense-oracle spectra
# ---------------------------------------------------------------------------

def _nondegenerate_case(mu, m, w):
    l = len(w)

    def op(r):
        r.call("inverse.nondegenerate", solve_nondegenerate, mu, m,
               check=lambda got: check_close(got, w, TOL_INVERSE), attrs={"l": l})
    return Case(f"nondegenerate l={l} m={m}", op, l >= NONDEG_FAILS_FROM_L)


def _degenerate_case(mu, l, m, data, reduced, w):
    def op(r):
        red = r.call("inverse.strip", strip_degenerate, mu, l, m,
                     check=lambda got: within(match_error(got, reduced), TOL_SPECTRUM))
        r.call("inverse.degenerate", solve_degenerate, red, m, l, data,
               check=lambda got: check_close(got, w, TOL_INVERSE), attrs={"l": l})
    return Case(f"degenerate {data.side} l={l} m={m}", op, l >= DEGENERATE_FAILS_FROM_L)


def _symmetric_case(mu_odd, m, want):
    def op(r):
        r.call("inverse.symmetric", solve_symmetric, mu_odd, m,
               check=lambda got: check_close(np.append(got[1], got[0]), want, TOL_INVERSE),
               attrs={"l": 2 * m - 1})
    return Case(f"symmetric m={m}", op)


def inverse(rng, ctx):
    cases = []
    for l in NONDEG_L:
        m = coprime_m(l)
        w = random_w(rng, l)
        cases.append(_nondegenerate_case(dense_mu(w, m), m, w))
    for l, m in DEGENERATE_LM:
        d = math.gcd(m, l + 1)
        w = random_w(rng, l)
        mu = dense_mu(w, m)
        reduced = strip_nearest(mu, 2.0 * np.cos(math.pi * np.arange(1, d) / d))
        cases.append(_degenerate_case(mu, l, m, DegenerateData("left", w[m - d:m - 1], d), reduced, w))
        cases.append(_degenerate_case(mu, l, m, DegenerateData("right", w[m:m + d], d), reduced, w))
    for m in SYMMETRIC_M:
        l = 2 * m - 1
        w = random_w(rng, l)
        mu_odd = strip_nearest(dense_mu(w, m), 2.0 * np.cos(math.pi * np.arange(1, m) / m))
        want = np.append(w[: m - 1] + w[::-1][: m - 1], w[m - 1])
        cases.append(_symmetric_case(mu_odd, m, want))
    return cases


# ---------------------------------------------------------------------------
# reconstruct: sampled potential -> continuous spectrum -> reconstruction -> report
# ---------------------------------------------------------------------------

# (label, q(x, a), amplitude range, known failure).  The steep quadratic
# range puts the first zero of R past the solver's widened bracket
# [0.1, 1.9]; the initial version raises BracketFailure there, and keeping
# that case in every run keeps it visible.  The ranges are narrow because
# quadrature effort steps with the amplitude (up to 16% over [0.75, 1.25]),
# which would move the timings from seed to seed.  Three families keep a pass
# near 4 s, so a run has five passes for the per-case median time.
SPLINE_FAMILIES = (
    ("quadratic", lambda x, a: a * x * (math.pi - x), 0.8, 0.9, False),        # q(0) = 0
    ("steep-quadratic", lambda x, a: a * x * (math.pi - x), 1.2, 1.3, True),
    ("1+cos2x", lambda x, a: a * (1.0 + np.cos(2.0 * x)), 0.9, 1.1, False),   # q(0) = 2a
)


def _reconstruct_case(label, knots, qk, m, lams, want_mu, known_failure):
    l = 2 * m - 1
    h = math.pi / (2 * m)
    x = grid(l)

    def backward(res):
        require_finite(res.q_tilde)
        return within(containment_error(res.mu, dense_mu(h * h * res.q_tilde, m)), TOL_SPECTRUM)

    def op(r):
        pot = r.call("continuous.sampled_potential", sampled_potential, knots, qk)
        spec_attrs = {"m": m, "p_calls": 0}
        if r.trace:
            p = pot.p

            def counted(t):
                spec_attrs["p_calls"] += 1
                return p(t)

            pot.p = counted
        spec = r.call("continuous.spectrum", continuous_spectrum, pot, l,
                      check=lambda s: check_close(s.odd_lambdas, lams, TOL_SPECTRUM), attrs=spec_attrs)
        res = r.call("reconstruct.reconstruct", reconstruct, spec.odd_lambdas, m, check=backward)
        disc = r.call("discrete.spectrum", lambda: discrete_spectrum(sample_problem(pot.q(x), m)),
                      check=lambda s: check_spectrum(s.mu, want_mu), attrs={"l": l})
        report_attrs = {}

        def report_check(report):
            require_finite(res.delta_q)
            report_attrs["max_dq"] = float(np.abs(res.delta_q).max())
            return 0.0

        r.call("reconstruct.error_report", error_report, res, pot, disc,
               check=report_check, attrs=report_attrs)
    return Case(f"reconstruct {label} m={m}", op, known_failure)


def reconstruct_workload(rng, ctx):
    cases = []
    for label, family, lo, hi, known_failure in SPLINE_FAMILIES:
        qk = family(SPLINE_KNOTS, rng.uniform(lo, hi))
        spline = CubicSpline(SPLINE_KNOTS, qk)
        lams = odd_lambdas(lambda t: float(spline(t)), max(RECONSTRUCT_M))
        for m in RECONSTRUCT_M:
            h = math.pi / (2 * m)
            want_mu = dense_mu(h * h * spline(grid(2 * m - 1)), m)
            cases.append(_reconstruct_case(label, SPLINE_KNOTS, qk, m, lams[:m], want_mu, known_failure))
    return cases


# ---------------------------------------------------------------------------
# cli: the frozenarg command as a subprocess, in the traced runs
# ---------------------------------------------------------------------------

def run_cli(ctx, args) -> tuple[int, list[dict]]:
    """Run `python -m frozenarg.cli <args> --output <csv>` and read back the rows."""
    out = os.path.join(ctx.workdir, "out.csv")
    if os.path.exists(out):
        os.remove(out)
    proc = subprocess.run(
        [sys.executable, "-m", "frozenarg.cli", *args, "--output", out],
        env=ctx.env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120,
    )
    rows = []
    if proc.returncode == 0:
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
    return proc.returncode, rows


def table_error(rows, name) -> float:
    """Worst |computed - printed| over one potential's table, relative to the largest printed value."""
    ref = TABLES[name]
    eig = [r for r in rows if r["block"] == "eigenvalue"]
    got = {key: [float(r[key]) for r in eig] for key in ("lambda_n", "lambda_nl", "lambda_tilde_nl")}
    got["q_tilde"] = [float(r["q_tilde"]) for r in rows if r["block"] == "potential"]
    worst = 0.0
    for key, want in ref.items():
        if len(got[key]) != len(want):
            raise Failure("tolerance", f"{name} {key}: {len(got[key])} rows, expected {len(want)}")
        worst = max(worst, float(np.abs(np.subtract(got[key], want)).max()))
    scale = max(max(v) for v in ref.values())
    return within(worst, TOL_TABLE) / scale


def _cli_case(ctx, command, args, check):
    def op(r):
        def verify(result):
            code, rows = result
            check_exit(code, rows)
            return check(rows)
        r.call(f"cli.{command}", run_cli, ctx, [command, *args], check=verify)
    return Case(f"cli {command}", op)


def cli(rng, ctx):
    """The five commands; every traced run runs each once (see run.py)."""
    names = sorted(TABLES)

    def tables(rows):
        return max(table_error([r for r in rows if r["potential"] == n], n) for n in names)

    rec_name = names[rng.integers(len(names))]

    fwd_name = sorted(NAMED_Q)[rng.integers(len(NAMED_Q))]
    fwd_m = int(rng.integers(1, 10))
    h9 = math.pi / 10
    fwd_want = dense_mu(h9 * h9 * NAMED_Q[fwd_name](grid(9)), fwd_m)

    def forward_rows(rows):
        mu = [complex(float(r["mu_re"]), float(r["mu_im"])) for r in rows]
        err = check_spectrum(mu, fwd_want)
        if fwd_name == "zero":
            lam = [float(r["lambda_re"]) for r in rows]
            err = max(err, check_close(sorted(lam), free_lambdas(9), TOL_SPECTRUM))
        return err

    cont_name = names[rng.integers(len(names))]
    cont_q = NAMED_Q[cont_name]
    cont_want = odd_lambdas(lambda t: float(cont_q(t)), 5)

    def continuous_rows(rows):
        odd = [float(r["lambda"]) for r in rows if r["degenerate"] == "False"]
        even = [float(r["lambda"]) for r in rows if r["degenerate"] == "True"]
        return max(check_close(odd, cont_want, TOL_SPECTRUM),
                   check_close(even, [4.0, 16.0, 36.0, 64.0], TOL_SPECTRUM))

    inv_l = int(rng.integers(8, 17))
    inv_m = coprime_m(inv_l)
    inv_w = random_w(rng, inv_l)
    mu_path = os.path.join(ctx.workdir, "mu.csv")
    with open(mu_path, "w") as fh:
        for z in dense_mu(inv_w, inv_m):
            fh.write(f"{z.real:.17g},{z.imag:.17g}\n")

    def inverse_rows(rows):
        w = [complex(float(r["w_re"]), float(r["w_im"])) for r in rows]
        return check_close(w, inv_w, TOL_INVERSE)

    return [
        _cli_case(ctx, "reproduce-tables", ["--m", "5"], tables),
        _cli_case(ctx, "reconstruct", ["--potential", rec_name, "--m", "5"],
                lambda rows: table_error(rows, rec_name)),
        _cli_case(ctx, "forward", ["--potential", fwd_name, "--l", "9", "--m", str(fwd_m)], forward_rows),
        _cli_case(ctx, "spectrum-continuous", ["--potential", cont_name, "--n-max", "9"], continuous_rows),
        _cli_case(ctx, "inverse", ["--l", str(inv_l), "--m", str(inv_m), "--mu", mu_path], inverse_rows),
    ]


# Builder, and how a case's times over the passes make its timing (see
# harness.end_to_end): inverse's operations take milliseconds, the others' a
# tenth of a second to seconds.  The CLI is no workload of its own: its
# commands take about a second each, most of it interpreter start-up and
# import, which setup_s already measures in every workload, and a fourth
# workload would cut every run's length by a quarter within the benchmark's
# time budget.  Its per-layer metrics come from the traced runs.
WORKLOADS = {
    "forward": (forward, statistics.median),
    "inverse": (inverse, min),
    "reconstruct": (reconstruct_workload, statistics.median),
}
# A case's timing needs at least three samples: with fewer, one slow phase of
# a shared machine decides it too often.
MIN_PASSES = 3


# ---------------------------------------------------------------------------
# per-layer metrics from the traced loop
# ---------------------------------------------------------------------------

DISCRETE_L = tuple(sorted({2 * m - 1 for m in RECONSTRUCT_M} | set(FORWARD_L)))
INVERSE_KINDS = ("nondegenerate", "degenerate", "symmetric", "strip")
IMPORT_PROFILE_RUNS = 3


def import_profile(ctx) -> tuple[float, float, float]:
    """Median (wall, frozenarg import, scipy self) seconds of `python -X importtime -c "import frozenarg.cli"`.

    scipy time is the sum of the self times of scipy's own modules.
    """
    walls, totals, scipys = [], [], []
    for _ in range(IMPORT_PROFILE_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import frozenarg.cli"],
                              env=ctx.env, capture_output=True, text=True, check=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        total = scipy_self = 0.0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, cumulative, module = line[len("import time:"):].split("|")
            if not own.strip().isdigit():
                continue
            if module.strip() == "frozenarg":
                total = int(cumulative) / 1e6
            if module.strip().split(".")[0] == "scipy":
                scipy_self += int(own) / 1e6
        totals.append(total)
        scipys.append(scipy_self)
    return statistics.median(walls), statistics.median(totals), statistics.median(scipys)


def layer_metrics(spans, n_ops: int, imports) -> dict:
    """Per-layer metrics as {name: (value, unit)}; busy times are self times per operation.

    ok_ratio is 1 for a layer with no calls.
    """
    own = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls_busy_ok(prefix, group):
        return {
            f"{prefix}.calls": (len(group) / n_ops, "calls/op"),
            f"{prefix}.busy_s": (sum(own[s.id] for s in group) / n_ops, "s/op"),
            f"{prefix}.ok_ratio": (sum(s.ok for s in group) / len(group) if group else 1.0, "ratio"),
        }

    def mean_duration(group):
        return statistics.fmean(s.end - s.start for s in group) if group else 0.0

    discrete = by_name.get("discrete.spectrum", [])
    out = calls_busy_ok("discrete", discrete)
    for l in DISCRETE_L:
        out[f"discrete.l{l}.s_per_call"] = (mean_duration([s for s in discrete if s.attrs["l"] == l]), "s")
    for kind in INVERSE_KINDS:
        out.update(calls_busy_ok(f"inverse.{kind}", by_name.get(f"inverse.{kind}", [])))

    cont = by_name.get("continuous.spectrum", [])
    p_calls = sum(s.attrs["p_calls"] for s in cont)
    roots = sum(s.attrs["m"] for s in cont)
    cont_metrics = calls_busy_ok("continuous", cont)
    del cont_metrics["continuous.ok_ratio"]
    out.update(cont_metrics)
    out["continuous.spline_build_s"] = (
        sum(s.end - s.start for s in by_name.get("continuous.sampled_potential", [])) / n_ops, "s/op")
    out["continuous.p_calls"] = (p_calls / len(cont) if cont else 0.0, "evals/call")
    out["continuous.p_calls_per_root"] = (p_calls / roots if roots else 0.0, "evals/root")

    rec = by_name.get("reconstruct.reconstruct", [])
    reports = by_name.get("reconstruct.error_report", [])
    out["reconstruct.busy_s"] = (sum(own[s.id] for s in rec) / n_ops, "s/op")
    out["reconstruct.report_s"] = (sum(s.end - s.start for s in reports) / n_ops, "s/op")
    out["reconstruct.max_dq"] = (max((s.attrs.get("max_dq", 0.0) for s in reports), default=0.0), "q")

    startup, import_s, import_scipy = imports
    out["cli.startup_s"] = (startup, "s")
    out["cli.import_s"] = (import_s, "s")
    out["cli.import_scipy_s"] = (import_scipy, "s")
    cli_spans = [s for s in spans if s.name.startswith("cli.")]
    out["cli.ok_ratio"] = (sum(s.ok for s in cli_spans) / len(cli_spans) if cli_spans else 1.0, "ratio")
    for command in CLI_COMMANDS:
        out[f"cli.{command}.wall_s"] = (mean_duration(by_name.get(f"cli.{command}", [])), "s")
    return out
