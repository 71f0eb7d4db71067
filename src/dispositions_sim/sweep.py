"""The ``sweep`` subcommand: derived quantities over a parameter grid, as CSV.

Each grid point costs a few float operations, so the grid is evaluated with
the scalar closed forms of ``analytic``, mapped over one span of the innermost
swept axis at a time, and imports no numpy. Storage is one ``array('d')`` per
swept axis plus the rows of one span; no axis is held as Python objects, so
memory grows with the axis lengths, not with the number of rows.

``run`` validates the whole grid before it writes the first byte (a rejected
grid walks no rows), then writes each span's rows as soon as they are built.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import chain, islice, repeat
from operator import sub
from typing import Sequence

from .analytic import _critical_ratio, _eu_cm, _eu_sm
from .cli import Settings, _fmt
from .core import InvalidInput, TranslucencyParams, TranslucentPayoffs, _in_unit_interval

PARAM_NAMES = ("p", "q", "r", "v_noncoop", "v_coop")

# The most rows a span holds.
SWEEP_CHUNK_ROWS = 4096

SWEEP_HEADER = "p,q,r,v_noncoop,v_coop,eu_cm,eu_sm,margin,critical_ratio,cm_rational"

# Row numbers stay within a signed 64-bit integer.
_MAX_ROWS = 2**63 - 1

_FLAG_FOR_PARAM = dict(zip(PARAM_NAMES, ("p", "q", "r", "vnc", "vc")))


def _fill_linspace(values: array, start: float, stop: float) -> array:
    """Fill VALUES with len(VALUES) evenly spaced doubles from START to STOP,
    bit for bit the values of ``numpy.linspace``, except that a NaN point's
    payload is unspecified; one point is START itself, whatever STOP is.
    Returns VALUES."""
    div = len(values) - 1
    if div == 0:
        values[0] = start
        return values
    delta = stop - start
    step = delta / div
    if step == 0:  # delta is 0 or delta/div underflowed: numpy divides i first
        for i in range(div):
            values[i] = i / div * delta + start
    else:
        for i in range(div):
            values[i] = i * step + start
    values[div] = stop
    return values


def _parse_axis(spec: str) -> tuple[str, float, float, array]:
    """The parameter name, START and STOP of an axis spec, and an array of its
    COUNT points, allocated but not yet filled."""
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
    try:  # raises before touching memory when COUNT doubles cannot be held
        return name, start, stop, array("d", [0.0]) * count
    except (MemoryError, OverflowError):
        raise InvalidInput(f"axis {name!r} has too many points: {count}") from None


def build_sweep_grid(settings: Settings) -> dict[str, Sequence[float]]:
    """Each parameter's values, in row order (first axis outermost): the fixed
    flags as one-point axes in PARAM_NAMES order, then the swept axes in command-line order."""
    axis_specs = settings.get("axis", [])
    if not axis_specs:
        raise InvalidInput("sweep needs at least one --axis NAME=START:STOP:COUNT")
    parsed = list(map(_parse_axis, axis_specs))
    axes = {name: values for name, _, _, values in parsed}
    if len(axes) != len(axis_specs):
        raise InvalidInput("each parameter may be swept by at most one axis")
    if math.prod(map(len, axes.values())) > _MAX_ROWS:
        raise InvalidInput(f"sweep grid has more than {_MAX_ROWS} rows")
    # Filling is the slow part, so it waits until the grid is within bounds.
    # A non-finite bound gives non-finite points, which grid validation rejects.
    for _, start, stop, values in parsed:
        _fill_linspace(values, start, stop)

    grid: dict[str, Sequence[float]] = {}
    for param, flag in _FLAG_FOR_PARAM.items():
        if param not in axes:
            grid[param] = (settings[flag],)
        elif flag in settings.maps[0]:
            raise InvalidInput(f"parameter {param} is swept by an axis; drop the --{flag} flag")
    return grid | axes


def _grid_is_valid(grid: dict[str, Sequence[float]]) -> bool:
    """Whether both constructors accept every grid point, decided from each parameter's
    values once: p, q and r lie in [0, 1], and every v_noncoop is below every v_coop inside
    (0, 1), which, with no NaN, holds iff the largest v_noncoop is below the smallest v_coop."""
    lows, highs = grid["v_noncoop"], grid["v_coop"]
    return (
        all(map(_in_unit_interval, chain(grid["p"], grid["q"], grid["r"])))
        and all(0.0 < v < 1.0 for v in chain(lows, highs))
        and max(lows) < min(highs)
    )


def _raise_first_invalid_point(grid: dict[str, Sequence[float]]) -> None:
    """Name the first point, in row order, of a grid that ``_grid_is_valid`` rejects:
    each axis, outermost first, is pinned to the first value whose sub-grid (earlier
    axes pinned, later ones whole) is invalid, so no row is walked. A one-point axis
    is pinned unchecked, as the sub-grid is already invalid; a later whole axis is
    checked as what decides the rule, a NaN if it holds one, else its two extremes."""
    pinned = dict(grid)
    long_axes = [name for name, values in grid.items() if len(values) > 1]
    for name in long_axes[1:]:  # the first long axis is only ever read value by value
        values = grid[name]
        pinned[name] = (math.nan,) if any(map(math.isnan, values)) else (min(values), max(values))
    for name in long_axes:
        pinned[name] = next((v,) for v in grid[name] if not _grid_is_valid({**pinned, name: (v,)}))
    point = {name: value for name, (value,) in pinned.items()}
    try:
        TranslucentPayoffs(v_noncoop=point["v_noncoop"], v_coop=point["v_coop"])
        TranslucencyParams(p=point["p"], q=point["q"], r=point["r"])
    except InvalidInput as exc:
        shown = ", ".join(f"{k}={point[k]!r}" for k in PARAM_NAMES)
        raise InvalidInput(f"invalid grid point ({shown}): {exc}") from exc


def run(settings: Settings) -> None:
    """Write the sweep CSV of the grid that ``settings`` describes."""
    grid = build_sweep_grid(settings)

    # Validate the whole grid before emitting anything: a bad point must
    # fail the run, not cut the output short.
    if not _grid_is_valid(grid):
        _raise_first_invalid_point(grid)

    # Rows are evaluated one span of the innermost walked axis (of more than one
    # point, else the last axis) at a time, and each span is written in one call
    # as soon as it is built. The combinations of the outer walked axes are
    # numbered in row order, each number unravelled into point indices, so no
    # axis is held as Python objects.
    walked = [name for name, values in grid.items() if len(values) > 1]
    *outer, inner_name = walked or list(grid)[-1:]
    inner, slot = grid[inner_name], PARAM_NAMES.index(inner_name)
    span = min(len(inner), SWEEP_CHUNK_ROWS)
    at = dict.fromkeys(PARAM_NAMES, 0)
    fields = [_fmt(grid[name][0]) for name in PARAM_NAMES]
    # Each parameter's values along the span: the inner axis's span, else its point repeated.
    args = {name: repeat(grid[name][0]) for name in PARAM_NAMES}
    kept: dict = {}
    moves = any(x.hex() != inner[0].hex() for x in inner)  # bit for bit: -0.0 is not 0.0

    def column(formula, *names):
        """FORMULA's values over the span and their text, kept while the point indices
        of the parameters it reads are unchanged (a float key would merge 0.0 and -0.0).
        A formula that does not read the inner axis is evaluated and formatted once,
        and its value and text are repeated along the span."""
        key = tuple(map(at.get, names))
        if kept.get(formula, (None,))[0] != key:
            times = 1 if inner_name in names else span
            values = list(islice(map(formula, *map(args.get, names)), span // times))
            kept[formula] = key, values * times, list(map(_fmt, values)) * times
        return kept[formula][1:]

    write = sys.stdout.write
    write(SWEEP_HEADER + "\n")
    for number in range(math.prod(len(grid[name]) for name in outer)):
        for name in reversed(outer):
            number, i = divmod(number, len(grid[name]))
            at[name], args[name] = i, repeat(grid[name][i])
            fields[PARAM_NAMES.index(name)] = _fmt(grid[name][i])
        head, tail = ",".join(fields[:slot] + [""]), ",".join([""] + fields[slot + 1 :])
        for start in range(0, len(inner), span):
            at[inner_name] = start
            run = inner[start : start + span]
            args[inner_name] = run if moves else run[:1]  # else the span is its first row repeated
            run_text = column(float, inner_name)[1]
            cm = list(map(_eu_cm, *map(args.get, ("v_noncoop", "v_coop", "p", "q", "r"))))
            sm, sm_text = column(_eu_sm, "v_noncoop", "q", "r")
            margin = list(map(sub, cm, sm))
            ratio_text = column(_critical_ratio, "v_noncoop", "v_coop", "r")[1]
            texts = zip(run_text, list(map(_fmt, cm)), sm_text, list(map(_fmt, margin)),
                        ratio_text, margin)
            write("".join([f"{head}{x}{tail},{c},{s},{m},{t},{'true' if d > 0.0 else 'false'}\n"
                           for x, c, s, m, t, d in texts]) * (1 if moves else len(run)))
