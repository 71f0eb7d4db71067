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
import json
import math
import os
import sys
from collections import ChainMap
from dataclasses import dataclass
from typing import Any, Iterator, NoReturn, Sequence

import numpy as np

from .analytic import (
    cm_rational,
    critical_ratio,
    translucent_columns,
    translucent_eu_cm,
    translucent_eu_sm,
)
from .core import (
    InvalidInput,
    TranslucencyParams,
    TranslucentPayoffs,
    translucent_point_valid,
)
from .dynamics import evolve, interior_threshold
from .encounter import EncounterConfig
from .montecarlo import estimate_eus

PARAM_NAMES = ("p", "q", "r", "v_noncoop", "v_coop")

# Rows per sweep chunk: amortizes numpy's per-call cost, keeps a chunk < 1 MB.
SWEEP_CHUNK_ROWS = 4096

_FLAG_FOR_PARAM = dict(zip(PARAM_NAMES, ("p", "q", "r", "vnc", "vc")))


# Every flag's argparse keywords. The type reads the command line and, through
# _config_value, the config file; --axis is the one list-valued flag.
FLAGS: dict[str, dict[str, Any]] = {
    "vnc": dict(type=float, help="non-cooperation payoff in (0, 1)"),
    "vc": dict(type=float, help="cooperation payoff in (v_noncoop, 1)"),
    "p": dict(type=float, help="mutual-recognition probability"),
    "q": dict(type=float, help="one-sided misrecognition probability"),
    "r": dict(type=float, help="constrained population share"),
    "r0": dict(type=float, help="initial constrained share"),
    "config": dict(type=str, help="JSON file with defaults for any flag"),
    "n": dict(type=int, help="number of trials (>= 1)"),
    "seed": dict(type=int, help="RNG seed (default 0)"),
    "axis": dict(
        action="append",
        metavar="NAME=START:STOP:COUNT",
        help="sweep a parameter (repeatable; first axis is outermost)",
    ),
    "generations": dict(type=int, help="generations to run (>= 1)"),
}

_EXPECTED = {float: "a number", int: "an integer", list: "a list of strings"}


class Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as ``InvalidInput``."""

    def error(self, message: str) -> NoReturn:
        raise InvalidInput(message)


class Settings(ChainMap):
    """Flag values from the command line, then from the config file."""

    def __missing__(self, flag: str) -> Any:
        raise InvalidInput(f"missing required parameter --{flag}")


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


def _config_value(flag: str, value: Any) -> Any:
    """A config file's value for ``flag``, as the flag's type.

    A string reads as it would on the command line; a number must be of the
    flag's type, an integral float counting as an int.
    """
    kind = FLAGS[flag].get("type", list)
    try:
        if kind is list:
            if isinstance(value, list) and all(isinstance(v, str) for v in value):
                return value
        elif isinstance(value, str):
            return kind(value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            if kind is float or isinstance(value, int) or value.is_integer():
                return kind(value)
    except (ValueError, OverflowError):
        pass
    raise InvalidInput(f'config key "{flag}" must be {_EXPECTED[kind]}, got {value!r}')


def _settings(args: argparse.Namespace) -> Settings:
    """The subcommand's flags: each given value, else the config file's."""
    given = {f: v for f, v in vars(args).items() if f in FLAGS and v is not None}
    if args.config is None:
        return Settings(given)
    try:
        with open(args.config, encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise InvalidInput(f"cannot read config file {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise InvalidInput(f"config file {args.config} must contain a JSON object")
    # A flag given on the command line, --config included, is not read here.
    defaults = {
        flag: _config_value(flag, config[flag])
        for flag in vars(args)
        if flag in FLAGS and flag not in given and config.get(flag) is not None
    }
    return Settings(given, defaults)


def cmd_analytic(settings: Settings) -> int:
    pay = TranslucentPayoffs(v_noncoop=settings["vnc"], v_coop=settings["vc"])
    t = TranslucencyParams(p=settings["p"], q=settings["q"], r=settings["r"])
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


def cmd_simulate(settings: Settings) -> int:
    pay = TranslucentPayoffs(v_noncoop=settings["vnc"], v_coop=settings["vc"])
    t = TranslucencyParams(p=settings["p"], q=settings["q"], r=settings["r"])
    seed = settings.get("seed", 0)
    report = estimate_eus(EncounterConfig(payoffs=pay, params=t), settings["n"], seed)
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
        raise InvalidInput(
            f"bad axis spec {spec!r}, expected NAME=START:STOP:COUNT"
        ) from None
    name = name.strip()
    if name not in PARAM_NAMES:
        raise InvalidInput(
            f"unknown sweep axis {name!r}, expected one of {', '.join(PARAM_NAMES)}"
        )
    if count < 1:
        raise InvalidInput(f"axis {name!r} needs a positive point count")
    # One point is START itself, whatever STOP is (linspace turns -0.0 into 0.0).
    # A non-finite bound gives non-finite points, which grid validation rejects.
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            return name, np.linspace(start, stop, count) if count > 1 else np.array([start])
    except (MemoryError, ValueError):  # numpy cannot hold COUNT doubles
        raise InvalidInput(f"axis {name!r} has too many points: {count}") from None


def build_sweep_grid(settings: Settings) -> SweepGrid:
    axis_specs = settings.get("axis", [])
    if not axis_specs:
        raise InvalidInput("sweep needs at least one --axis NAME=START:STOP:COUNT")
    axes = dict(map(_parse_axis, axis_specs))
    if len(axes) != len(axis_specs):
        raise InvalidInput("each parameter may be swept by at most one axis")
    if math.prod(map(len, axes.values())) > np.iinfo(np.intp).max:
        raise InvalidInput("sweep grid has more rows than numpy can index")

    fixed: dict[str, float] = {}
    for param in PARAM_NAMES:
        flag = _FLAG_FOR_PARAM[param]
        if param in axes:
            if flag in settings.maps[0]:
                raise InvalidInput(
                    f"parameter {param} is swept by an axis; drop the --{flag} flag"
                )
            continue
        fixed[param] = settings[flag]
    return SweepGrid(axes=axes, fixed=fixed)


def cmd_sweep(settings: Settings) -> int:
    grid = build_sweep_grid(settings)

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
            except InvalidInput as exc:
                values = ", ".join(f"{k}={point[k]!r}" for k in PARAM_NAMES)
                raise InvalidInput(f"invalid grid point ({values}): {exc}") from exc

    sys.stdout.write(SWEEP_HEADER + "\n")
    for columns in grid.chunks():
        *numbers, rational = translucent_columns(**columns)
        fields = [_fmt_column(columns[name]) for name in PARAM_NAMES]
        fields += [_fmt_column(column) for column in numbers]
        fields.append(map(("false", "true").__getitem__, rational.tolist()))
        sys.stdout.write("\n".join(map(",".join, zip(*fields))) + "\n")
    return 0


def cmd_evolve(settings: Settings) -> int:
    pay = TranslucentPayoffs(v_noncoop=settings["vnc"], v_coop=settings["vc"])
    t0 = TranslucencyParams(p=settings["p"], q=settings["q"], r=settings["r0"])
    steps = evolve(pay, t0, settings["generations"]).steps
    rows = [(str(s.generation), _fmt(s.r), _fmt(s.eu_cm), _fmt(s.eu_sm)) for s in steps]
    sys.stdout.write("\n".join(["generation,r,eu_cm,eu_sm", *map(",".join, rows)]) + "\n")
    threshold = interior_threshold(pay, t0.p, t0.q)
    if threshold is not None:
        print("# " + json.dumps({"interior_threshold": threshold}))
    return 0


def build_parser() -> Parser:
    parser = Parser(
        prog="dispositions-sim",
        description=(
            "Expected-utility analysis, Monte Carlo validation, parameter "
            "sweeps and replicator dynamics for maximizing dispositions in "
            "the one-shot Prisoner's Dilemma."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Built per call, not at import, so the handlers are looked up when it runs.
    for name, handler, flags, help_text in (
        ("analytic", cmd_analytic, ("r", "config"),
         "closed-form expected utilities as one JSON record"),
        ("simulate", cmd_simulate, ("r", "config", "n", "seed"),
         "Monte Carlo estimate with analytic deviations (JSON)"),
        ("sweep", cmd_sweep, ("r", "config", "axis"), "derived quantities over a grid (CSV)"),
        ("evolve", cmd_evolve, ("r0", "config", "generations"),
         "replicator trajectory of the constrained share (CSV)"),
    ):
        command = sub.add_parser(name, help=help_text)
        for flag in ("vnc", "vc", "p", "q", *flags):
            command.add_argument(f"--{flag}", **FLAGS[flag])
        command.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.handler(_settings(args))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (``| head``). Stop quietly, and
        # point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except InvalidInput as exc:
        # A subclass names its model check; one line even if an input holds "\n".
        label = "error" if type(exc) is InvalidInput else type(exc).__name__
        print(f"{label}: " + str(exc).replace("\n", "\\n"), file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
