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
environment variable caps Monte Carlo worker threads and sweep processes
(0 = auto) without affecting output bytes.

Only ``simulate`` computes on arrays, so only it imports numpy, and only
when it runs: the other commands (``sweep`` lives in its own module),
``--help``, ``--version`` and argparse and config errors load none of it.
A reader that closes stdout early (``| head``) ends any command quietly
with exit 0.

A JSON file passed via --config supplies defaults for any flag (keyed by
the long flag name, e.g. {"vnc": 0.5, "axis": ["r=0:1:5"]}); explicit
flags take precedence, and a key that names no flag is an error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import ChainMap
from typing import Any, NoReturn, Sequence

from . import __version__
from .analytic import cm_rational, critical_ratio, translucent_eu_cm, translucent_eu_sm
from .core import InvalidInput, TranslucencyParams, TranslucentPayoffs
from .dynamics import evolve, interior_threshold


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
ROWS_PER_WRITE = 4096  # the most rows one write holds: a sweep span, an evolve slice


class Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as ``InvalidInput``."""

    def error(self, message: str) -> NoReturn:
        raise InvalidInput(message)


class Settings(ChainMap):
    """Flag values from the command line, then from the config file."""

    def __missing__(self, flag: str) -> Any:
        raise InvalidInput(f"missing required parameter --{flag}")


def _fmt(value: float) -> str:
    """17-significant-digit serialization; infinities as 'inf'."""
    return f"{value:.17g}"


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
    for key in config:  # another command's flag is read by that command alone
        if key not in FLAGS:
            raise InvalidInput(f'config key "{key}" names no flag')
    # A flag given on the command line, --config included, is not read here.
    defaults = {
        flag: _config_value(flag, config[flag])
        for flag in vars(args)
        if flag in FLAGS and flag not in given and config.get(flag) is not None
    }
    return Settings(given, defaults)


def cmd_analytic(settings: Settings) -> None:
    pay = TranslucentPayoffs(v_noncoop=settings["vnc"], v_coop=settings["vc"])
    t = TranslucencyParams(p=settings["p"], q=settings["q"], r=settings["r"])
    comparison = cm_rational(pay, t)
    ratio = critical_ratio(pay, t.r)  # json.dumps would emit the non-standard Infinity
    print(json.dumps({
        "eu_cm": comparison.eu_cm,
        "eu_sm": comparison.eu_sm,
        "margin": comparison.margin,
        "critical_ratio": ratio if math.isfinite(ratio) else _fmt(ratio),
        "cm_rational": comparison.cm_is_rational,
    }))


def cmd_simulate(settings: Settings) -> None:
    # First, so an uncached montecarlo.py compiles before numpy loads: lower peak RSS.
    from .montecarlo import EncounterConfig, estimate_eus

    pay = TranslucentPayoffs(v_noncoop=settings["vnc"], v_coop=settings["vc"])
    t = TranslucencyParams(p=settings["p"], q=settings["q"], r=settings["r"])
    seed = settings.get("seed", 0)
    report = estimate_eus(EncounterConfig(payoffs=pay, params=t), settings["n"], seed)
    eu_cm = translucent_eu_cm(pay, t)
    eu_sm = translucent_eu_sm(pay, t)
    print(json.dumps({
        "n_trials": report.n_trials,
        "seed": seed,
        **report._asdict(),  # n_trials, repeated, keeps its first position
        "analytic_eu_cm": eu_cm,
        "analytic_eu_sm": eu_sm,
        "deviation_cm": abs(report.mean_payoff_cm - eu_cm),
        "deviation_sm": abs(report.mean_payoff_sm - eu_sm),
    }))


def cmd_sweep(settings: Settings) -> None:
    from . import sweep

    sweep.run(settings)


def cmd_evolve(settings: Settings) -> None:
    pay = TranslucentPayoffs(v_noncoop=settings["vnc"], v_coop=settings["vc"])
    t0 = TranslucencyParams(p=settings["p"], q=settings["q"], r=settings["r0"])
    steps = evolve(pay, t0, settings["generations"]).steps
    sys.stdout.write("generation,r,eu_cm,eu_sm\n")
    for start in range(0, len(steps), ROWS_PER_WRITE):
        sys.stdout.write("".join([f"{s.generation},{_fmt(s.r)},{_fmt(s.eu_cm)},{_fmt(s.eu_sm)}\n"
                                  for s in steps[start : start + ROWS_PER_WRITE]]))
    threshold = interior_threshold(pay, t0.p, t0.q)
    if threshold is not None:
        print("# " + json.dumps({"interior_threshold": threshold}))


def build_parser() -> Parser:
    parser = Parser(
        prog="dispositions-sim",
        description=(
            "Expected-utility analysis, Monte Carlo validation, parameter "
            "sweeps and replicator dynamics for maximizing dispositions in "
            "the one-shot Prisoner's Dilemma."
        ),
        # Top-level flags must be spelled out: "--v" is a usage error, not --version.
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
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
        args.handler(_settings(args))
        sys.stdout.flush()
        return 0
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
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
