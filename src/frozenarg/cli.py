"""Command-line front end: every pipeline with file-based CSV/JSON output.

Commands
--------
forward              spectrum of the sampled discrete problem
inverse              coefficients from a full spectrum (gcd(m, l+1) = 1)
inverse-degenerate   coefficients from a reduced spectrum plus known w's
spectrum-continuous  eigenvalues of the continuous problem
reconstruct          correction-term recovery of a symmetric potential
reproduce-tables     the three benchmark tables (quadratic, tent, constant)
convergence          empirical correction-error orders across grids

Spectra files are plain CSV, one eigenvalue per row as ``re`` or ``re,im``
(# comments allowed).  Output is CSV or JSON; without --output it goes to
stdout, where under CSV the commands with a text table print the table
instead (and with --output print it too).  All computations are deterministic, so identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field, asdict

import numpy as np

from . import continuous, inverse
from .discrete import _grid, discrete_spectrum, sample_problem
from .errors import ConfigError, FrozenArgError, WrongCount, _read_csv
from .reconstruct import convergence_study, error_report, reconstruct_from_potential

@dataclass
class RunConfig:
    """One CLI invocation: exactly one command plus its validated flags."""

    command: str
    potential: str | None = None
    l: int | None = None
    m: int | None = None
    n_max: int | None = None
    ms: list = field(default_factory=list)
    mu_path: str | None = None
    known_w: list = field(default_factory=list)
    side: str | None = None
    output: str | None = None
    format: str = "csv"


def _load_potential(name: str):
    if name in continuous._NAMED_POTENTIALS:
        return continuous.named_potential(name)
    if not os.path.exists(name):
        raise ConfigError(f"--potential {name!r} is neither a file nor one of {sorted(continuous._NAMED_POTENTIALS)}")
    try:
        return continuous.potential_from_csv(name)
    except WrongCount as err:
        raise ConfigError(str(err)) from err


def _load_mu(path: str) -> np.ndarray:
    try:
        data = _read_csv(path, (1, 2), f"spectrum file {path}")
    except WrongCount as err:
        raise ConfigError(str(err)) from err
    return data[:, 0] + 1j * data[:, 1] if data.shape[1] == 2 else data[:, 0].astype(complex)


def _c(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


# ---------------------------------------------------------------------------
# per-command row builders
# ---------------------------------------------------------------------------

def _run_forward(config: RunConfig):
    pot = _load_potential(config.potential)
    spec = discrete_spectrum(sample_problem(pot.q(_grid(config.l)), config.m))
    rows = [
        {"n": n + 1, "mu_re": mu.real, "mu_im": mu.imag, "lambda_re": lam.real, "lambda_im": lam.imag}
        for n, (mu, lam) in enumerate(zip(spec.mu, spec.lam))
    ]
    return rows, {}, None


def _w_rows(w, l: int):
    """One row per index j: w_j and q_j = w_j / h^2, h = pi/(l+1)."""
    h = math.pi / (l + 1)
    q = w / h**2
    return [
        {"j": j + 1, "w_re": w[j].real, "w_im": w[j].imag, "q_re": q[j].real, "q_im": q[j].imag}
        for j in range(l)
    ]


def _run_inverse(config: RunConfig):
    mu = _load_mu(config.mu_path)
    w = inverse.solve_nondegenerate(mu, config.m, l=config.l)
    return _w_rows(w, config.l), {}, None


def _run_inverse_degenerate(config: RunConfig):
    nu = inverse.degenerate_mu(config.l, config.m)  # (l, m) first: BadIndex before the known values
    data = inverse.DegenerateData(side=config.side, known_w=config.known_w, d=len(nu) + 1)
    w = inverse.solve_degenerate(_load_mu(config.mu_path), config.m, config.l, data)
    return _w_rows(w, config.l), {"d": data.d, "degenerate_mu": [_c(z) for z in nu]}, None


def _run_spectrum_continuous(config: RunConfig):
    pot = _load_potential(config.potential)
    spec = continuous.continuous_spectrum(pot, config.n_max)
    rows = [{"n": n, "lambda": lam, "degenerate": False} for n, lam in spec.odd]
    rows += [{"n": n, "lambda": lam, "degenerate": True} for n, lam in spec.even]
    rows.sort(key=lambda r: r["n"])
    return rows, {}, None


def _reconstruct_rows(pot, m: int, potential_name: str):
    result = reconstruct_from_potential(pot, m)
    report = error_report(result, pot)
    rows = []
    for n, lam_n, lam_nl, tilde, delta in report.eigen_rows:
        rows.append({
            "potential": potential_name, "block": "eigenvalue", "index": n,
            "lambda_n": lam_n, "lambda_nl": lam_nl, "lambda_tilde_nl": tilde, "delta_nl": delta,
        })
    for j, x, q_true, q_tilde, delta in report.potential_rows:
        rows.append({
            "potential": potential_name, "block": "potential", "index": j,
            "x": x, "q_true": q_true, "q_tilde": q_tilde, "delta_q": delta,
        })
    return rows, report


def _run_reconstruct(config: RunConfig):
    pot = _load_potential(config.potential)
    rows, report = _reconstruct_rows(pot, config.m, config.potential)
    return rows, {}, report.format_text()


def _run_reproduce_tables(config: RunConfig):
    m = config.m if config.m is not None else 5
    rows = []
    texts = []
    for name in ("quadratic", "tent", "constant"):
        pot = continuous.named_potential(name)
        r, report = _reconstruct_rows(pot, m, name)
        rows += r
        texts.append(f"q = {name} (m = {m})\n{report.format_text()}")
    return rows, {"m": m}, "\n\n".join(texts)


def _run_convergence(config: RunConfig):
    pot = _load_potential(config.potential)
    study = convergence_study(pot, config.ms, ns=(1, 3))
    rows = []
    for n, m, h, e in study.rows:
        rows.append({"block": "correction-error", "n": n, "m": m, "h": h, "value": e})
    for m, h, n, s in study.trapezoid_rows:
        rows.append({"block": "trapezoid-sum", "n": n, "m": m, "h": h, "value": s})
    for m, h, e in study.tail_rows:
        rows.append({"block": "tail-residual", "n": None, "m": m, "h": h, "value": e})
    slopes = {
        **{f"correction_error_n{n}": s for n, s in study.slopes.items()},
        "trapezoid_sum": study.trapezoid_slope,
        "tail_residual": study.tail_slope,
    }
    text = "\n".join(f"slope[{k}] = {'exact' if v is None else f'{v:.3f}'}" for k, v in slopes.items())
    return rows, {"slopes": slopes}, text


# ---------------------------------------------------------------------------
# rendering and dispatch
# ---------------------------------------------------------------------------

def _render_csv(rows) -> str:
    if not rows:
        return ""
    columns = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, restval="", lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt_cell(v) for k, v in row.items()})
    return buf.getvalue()


def _fmt_cell(v):
    if isinstance(v, float):
        return format(v, ".17g")
    return v


def _render_json(config: RunConfig, rows, diagnostics) -> str:
    payload = {
        "command": config.command,
        "params": {k: v for k, v in asdict(config).items() if k != "command"},
        "rows": rows,
        "diagnostics": diagnostics,
    }
    return json.dumps(payload, indent=2, default=_json_default) + "\n"


def _json_default(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    raise TypeError(f"not JSON serializable: {type(v)}")


def run(config: RunConfig) -> int:
    """Execute one configuration.  Returns the process exit status.

    Output is rendered fully in memory and written in one step, so a failing
    run never leaves a partial output file; errors go to stderr through
    :func:`_report`.
    """
    try:
        if config.command not in _COMMANDS:
            raise ConfigError(f"unknown command {config.command!r}")
        if config.format not in ("csv", "json"):
            raise ConfigError(f"unknown format {config.format!r}")
        runner, flags = _COMMANDS[config.command]
        for flag in flags:
            if not flag.startswith("[") and getattr(config, _dest(flag)) in (None, []):
                raise ConfigError(f"command {config.command!r} requires --{flag}")
        rows, diagnostics, text = runner(config)
        _require_finite(rows)
        if config.format == "json":  # no text table: stdout carries the JSON object, or nothing under --output
            rendered, text = _render_json(config, rows, diagnostics), None
        else:
            rendered = _render_csv(rows)
        if config.output:
            with open(config.output, "w") as fh:
                fh.write(rendered)
            if text:
                print(text)
        else:
            print(text if text else rendered, end="" if not text else "\n")
        return 0
    except (FrozenArgError, OSError) as exc:
        return _report(exc)


def _report(exc: Exception) -> int:
    """Write exc to stderr as a one-line JSON error object; exit status 2 for ConfigError, else 1."""
    name = "OSError" if isinstance(exc, OSError) else type(exc).__name__
    print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
    return 2 if isinstance(exc, ConfigError) else 1


def _require_finite(rows):
    """FrozenArgError naming the first row and column whose number is inf or NaN."""
    for i, row in enumerate(rows, start=1):
        for key, value in row.items():
            if isinstance(value, (float, complex)) and not cmath.isfinite(value):
                raise FrozenArgError(f"row {i} has a non-finite {key} ({value}); nothing was written")


def _comma_list(parse):
    """argparse type: a comma-separated list of parse(token)."""
    def comma_list(text: str) -> list:
        try:
            return [parse(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"cannot parse {text!r}: {exc}") from None
    return comma_list


_SPECS = {  # argparse spec of every command flag; dest defaults to the name with "_" for "-"
    "potential": dict(help="quadratic|tent|constant|zero or a (x,q) CSV path"),
    "l": dict(type=int, help="grid size"),
    "m": dict(type=int, help="frozen index (x_m = a)"),
    "n-max": dict(type=int, help="largest eigenvalue index"),
    "ms": dict(type=_comma_list(int), help="comma-separated grid sizes m for the convergence study"),
    "mu": dict(dest="mu_path", help="CSV file of eigenvalues in the mu plane"),
    "known-w": dict(type=_comma_list(complex), help="comma-separated a-priori w values"),
    "side": dict(choices=("left", "right"), help="which side the known w's sit on"),
}

_COMMANDS = {  # command: its runner and the flags it reads besides --output and --format; [m] is optional
    "forward": (_run_forward, ("potential", "l", "m")),
    "inverse": (_run_inverse, ("l", "m", "mu")),
    "inverse-degenerate": (_run_inverse_degenerate, ("l", "m", "mu", "known-w", "side")),
    "spectrum-continuous": (_run_spectrum_continuous, ("potential", "n-max")),
    "reconstruct": (_run_reconstruct, ("potential", "m")),
    "reproduce-tables": (_run_reproduce_tables, ("[m]",)),
    "convergence": (_run_convergence, ("potential", "ms")),
}


def _dest(flag: str) -> str:
    """The RunConfig field that --flag fills."""
    return _SPECS[flag].get("dest", flag.replace("-", "_"))


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors raise ConfigError instead of exiting; subparsers inherit it."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="frozenarg",
        description="Spectral toolkit for the frozen-argument Sturm-Liouville problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag in flags:
            flag = flag.strip("[]")
            p.add_argument("--" + flag, **_SPECS[flag])
        p.add_argument("--output", help="write rendered table to this path")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def config_from_args(argv=None) -> RunConfig:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--known-w" in argv[:-1]:  # attach the value, which may start with a minus sign
        i = argv.index("--known-w")
        argv[i : i + 2] = ["--known-w=" + argv[i + 1]]
    args, extras = build_parser().parse_known_args(argv)
    if extras:
        reads = ", ".join("--" + flag.strip("[]") for flag in (*_COMMANDS[args.command][1], "output", "format"))
        raise ConfigError(f"frozenarg {args.command}: unrecognized arguments: {' '.join(extras)} "
                          f"(it reads {reads})")
    return RunConfig(**vars(args))


def main(argv=None) -> int:
    try:
        config = config_from_args(argv)
    except ConfigError as exc:
        return _report(exc)
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
