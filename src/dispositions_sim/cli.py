"""Command-line front end emitting JSON records and CSV tables.

Subcommands:
  analytic  -- closed-form expected utilities for one parameter point.
  simulate  -- Monte Carlo estimate plus the analytic values and deviations.
  sweep     -- CSV of derived quantities over a parameter grid.
  evolve    -- CSV replicator trajectory of the constrained share.

All numeric CSV fields are serialized with 17 significant digits so a
double round-trips exactly; booleans serialize as ``true``/``false`` and
an infinite critical ratio as the literal ``inf``. Output is a
deterministic function of flags and seed. The DISPOSITIONS_SIM_THREADS
environment variable caps Monte Carlo worker threads (0 = auto) without
affecting output bytes.

``sweep`` validates the whole grid before it writes the first byte, then
computes and streams the rows in fixed-size chunks, so its memory grows
with the axis lengths, not with the number of rows. A reader that closes
stdout early (``| head``) ends any command quietly with exit 0.

A JSON file passed via --config supplies defaults for any flag (keyed by
the long flag name, e.g. {"vnc": 0.5, "axis": ["r=0:1:5"]}); explicit
flags take precedence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from .analytic import (
    cm_rational,
    critical_ratio,
    translucent_columns,
    translucent_eu_cm,
    translucent_eu_sm,
)
from .core import (
    InvalidProbability,
    NonFiniteValue,
    OrderingViolation,
    TranslucencyParams,
    TranslucentPayoffs,
    translucent_point_valid,
)
from .dynamics import evolve, interior_threshold
from .encounter import EncounterConfig
from .montecarlo import InvalidTrialCount, estimate_eus, resolve_workers

PARAM_NAMES = ("p", "q", "r", "v_noncoop", "v_coop")

# Rows per sweep chunk: amortizes numpy's per-call cost, keeps a chunk < 1 MB.
SWEEP_CHUNK_ROWS = 4096

_FLAG_FOR_PARAM = dict(zip(PARAM_NAMES, ("p", "q", "r", "vnc", "vc")))

_VALIDATION_ERRORS = (
    OrderingViolation, NonFiniteValue, InvalidProbability, InvalidTrialCount
)


class CliError(Exception):
    """Usage or validation problem; reported on stderr with exit code 2."""


@dataclass(frozen=True)
class SweepGrid:
    """Swept parameters' values in command-line order; the rest are fixed."""

    axes: dict[str, np.ndarray]
    fixed: dict[str, float]

    def chunks(self) -> Iterator[dict[str, np.ndarray]]:
        """Every parameter's column over chunks of ``SWEEP_CHUNK_ROWS`` rows,
        in lexicographic order with the first-given axis outermost."""
        shape = tuple(map(len, self.axes.values()))
        n_rows = math.prod(shape)
        for start in range(0, n_rows, SWEEP_CHUNK_ROWS):
            rows = np.arange(start, min(start + SWEEP_CHUNK_ROWS, n_rows))
            columns = {name: np.full(len(rows), v) for name, v in self.fixed.items()}
            indices = np.unravel_index(rows, shape)
            for (name, values), index in zip(self.axes.items(), indices):
                columns[name] = values[index]
            yield columns


SWEEP_HEADER = "p,q,r,v_noncoop,v_coop,eu_cm,eu_sm,margin,critical_ratio,cm_rational"


def _fmt(value: float) -> str:
    """17-significant-digit serialization; infinities as 'inf'."""
    return f"{value:.17g}"


def _fmt_column(values: np.ndarray) -> Iterator[str]:
    """``_fmt`` of each value, formatting each distinct bit pattern once:
    most sweep columns repeat, since only the innermost axis varies by row."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = [_fmt(v) for v in distinct.view(np.float64).tolist()]
    return map(text.__getitem__, inverse.tolist())


def _json_number(value: float) -> Any:
    # json.dumps would emit the non-standard token Infinity; use a string.
    return value if math.isfinite(value) else _fmt(value)


def _load_config(path: str | None) -> dict[str, Any]:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise CliError(f"config file {path} must contain a JSON object")
    return config


_REQUIRED = object()


def _resolve(
    args: argparse.Namespace,
    config: dict[str, Any],
    key: str,
    default: Any = _REQUIRED,
) -> Any:
    """Flag value if given, else config value, else default."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key)
    if value is None:
        if default is _REQUIRED:
            raise CliError(f"missing required parameter --{key}")
        return default
    return value


def _translucent_inputs(
    args: argparse.Namespace, config: dict[str, Any], rate_flag: str = "r"
) -> tuple[TranslucentPayoffs, TranslucencyParams]:
    pay = TranslucentPayoffs(
        v_noncoop=float(_resolve(args, config, "vnc")),
        v_coop=float(_resolve(args, config, "vc")),
    )
    t = TranslucencyParams(
        p=float(_resolve(args, config, "p")),
        q=float(_resolve(args, config, "q")),
        r=float(_resolve(args, config, rate_flag)),
    )
    return pay, t


def cmd_analytic(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    pay, t = _translucent_inputs(args, config)
    comparison = cm_rational(pay, t)
    record = {
        "eu_cm": comparison.eu_cm,
        "eu_sm": comparison.eu_sm,
        "margin": comparison.margin,
        "critical_ratio": _json_number(critical_ratio(pay, t.r)),
        "cm_rational": comparison.cm_is_rational,
    }
    print(json.dumps(record))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    pay, t = _translucent_inputs(args, config)
    n_trials = int(_resolve(args, config, "n"))
    seed = int(_resolve(args, config, "seed", default=0))
    if seed < 0:
        raise CliError(f"seed must be >= 0, got {seed}")
    try:
        workers = resolve_workers()
    except ValueError as exc:
        raise CliError(str(exc)) from None

    report = estimate_eus(EncounterConfig(payoffs=pay, params=t), n_trials, seed, workers)
    eu_cm = translucent_eu_cm(pay, t)
    eu_sm = translucent_eu_sm(pay, t)
    record = {
        "n_trials": report.n_trials,
        "seed": seed,
        "mean_payoff_cm": report.mean_payoff_cm,
        "mean_payoff_sm": report.mean_payoff_sm,
        "stderr_cm": report.stderr_cm,
        "stderr_sm": report.stderr_sm,
        "outcome_histogram": {
            kind.value: count for kind, count in report.outcome_histogram.items()
        },
        "analytic_eu_cm": eu_cm,
        "analytic_eu_sm": eu_sm,
        "deviation_cm": abs(report.mean_payoff_cm - eu_cm),
        "deviation_sm": abs(report.mean_payoff_sm - eu_sm),
    }
    print(json.dumps(record))
    return 0


def _parse_axis(spec: str) -> tuple[str, np.ndarray]:
    """The parameter name of an axis spec and its COUNT evenly spaced values."""
    try:
        name, _, rest = spec.partition("=")
        start_s, stop_s, count_s = rest.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError:
        raise CliError(
            f"bad axis spec {spec!r}, expected NAME=START:STOP:COUNT"
        ) from None
    name = name.strip()
    if name not in PARAM_NAMES:
        raise CliError(
            f"unknown sweep axis {name!r}, expected one of {', '.join(PARAM_NAMES)}"
        )
    if count < 1:
        raise CliError(f"axis {name!r} needs a positive point count")
    # One point is START itself, whatever STOP is (linspace turns -0.0 into 0.0).
    return name, np.array([start]) if count == 1 else np.linspace(start, stop, count)


def build_sweep_grid(
    axis_specs: Sequence[str], args: argparse.Namespace, config: dict[str, Any]
) -> SweepGrid:
    if not axis_specs:
        raise CliError("sweep needs at least one --axis NAME=START:STOP:COUNT")
    axes = dict(map(_parse_axis, axis_specs))
    if len(axes) != len(axis_specs):
        raise CliError("each parameter may be swept by at most one axis")

    fixed: dict[str, float] = {}
    for param in PARAM_NAMES:
        flag = _FLAG_FOR_PARAM[param]
        if param in axes:
            if getattr(args, flag, None) is not None:
                raise CliError(
                    f"parameter {param} is swept by an axis; drop the --{flag} flag"
                )
            continue
        fixed[param] = float(_resolve(args, config, flag))
    return SweepGrid(axes=axes, fixed=fixed)


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    axis_specs = args.axis if args.axis is not None else config.get("axis", [])
    if not (isinstance(axis_specs, list) and all(isinstance(a, str) for a in axis_specs)):
        raise CliError(f'config key "axis" must be a list of strings, got {axis_specs!r}')
    grid = build_sweep_grid(axis_specs, args, config)

    # Validate the whole grid before emitting anything: a bad point must
    # fail the run, not cut the output short. The first bad point in row
    # order goes through the constructors, whose message names the fault.
    for columns in grid.chunks():
        invalid = np.flatnonzero(~translucent_point_valid(**columns))
        if invalid.size:
            point = {name: float(columns[name][invalid[0]]) for name in PARAM_NAMES}
            try:
                TranslucentPayoffs(v_noncoop=point["v_noncoop"], v_coop=point["v_coop"])
                TranslucencyParams(p=point["p"], q=point["q"], r=point["r"])
            except _VALIDATION_ERRORS as exc:
                values = ", ".join(f"{k}={point[k]!r}" for k in PARAM_NAMES)
                raise CliError(f"invalid grid point ({values}): {exc}") from exc

    sys.stdout.write(SWEEP_HEADER + "\n")
    for columns in grid.chunks():
        *numbers, rational = translucent_columns(**columns)
        fields = [_fmt_column(columns[name]) for name in PARAM_NAMES]
        fields += [_fmt_column(column) for column in numbers]
        fields.append(map(("false", "true").__getitem__, rational.tolist()))
        sys.stdout.write("\n".join(map(",".join, zip(*fields))) + "\n")
    return 0


def cmd_evolve(args: argparse.Namespace) -> int:
    config = _load_config(args.config)
    pay, t0 = _translucent_inputs(args, config, rate_flag="r0")
    generations = int(_resolve(args, config, "generations"))
    if generations < 1:
        raise CliError(f"generations must be >= 1, got {generations}")

    trajectory = evolve(pay, t0, generations)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["generation", "r", "eu_cm", "eu_sm"])
    for step in trajectory.steps:
        writer.writerow(
            [str(step.generation), _fmt(step.r), _fmt(step.eu_cm), _fmt(step.eu_sm)]
        )
    threshold = interior_threshold(pay, t0.p, t0.q)
    if threshold is not None:
        print("# " + json.dumps({"interior_threshold": threshold}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispositions-sim",
        description=(
            "Expected-utility analysis, Monte Carlo validation, parameter "
            "sweeps and replicator dynamics for maximizing dispositions in "
            "the one-shot Prisoner's Dilemma."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, rate_flag: str) -> None:
        p.add_argument("--vnc", type=float, help="non-cooperation payoff in (0, 1)")
        p.add_argument("--vc", type=float, help="cooperation payoff in (v_noncoop, 1)")
        p.add_argument("--p", type=float, help="mutual-recognition probability")
        p.add_argument("--q", type=float, help="one-sided misrecognition probability")
        if rate_flag == "r":
            p.add_argument("--r", type=float, help="constrained population share")
        elif rate_flag == "r0":
            p.add_argument("--r0", type=float, help="initial constrained share")
        p.add_argument("--config", help="JSON file with defaults for any flag")

    p_analytic = sub.add_parser(
        "analytic", help="closed-form expected utilities as one JSON record"
    )
    add_common(p_analytic, rate_flag="r")
    p_analytic.set_defaults(handler=cmd_analytic)

    p_simulate = sub.add_parser(
        "simulate", help="Monte Carlo estimate with analytic deviations (JSON)"
    )
    add_common(p_simulate, rate_flag="r")
    p_simulate.add_argument("--n", type=int, help="number of trials (>= 1)")
    p_simulate.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p_simulate.set_defaults(handler=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="derived quantities over a grid (CSV)")
    add_common(p_sweep, rate_flag="r")
    p_sweep.add_argument(
        "--axis",
        action="append",
        metavar="NAME=START:STOP:COUNT",
        help="sweep a parameter (repeatable; first axis is outermost)",
    )
    p_sweep.set_defaults(handler=cmd_sweep)

    p_evolve = sub.add_parser(
        "evolve", help="replicator trajectory of the constrained share (CSV)"
    )
    add_common(p_evolve, rate_flag="r0")
    p_evolve.add_argument("--generations", type=int, help="generations to run (>= 1)")
    p_evolve.set_defaults(handler=cmd_evolve)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``). Stop quietly, and
        # point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _VALIDATION_ERRORS as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
