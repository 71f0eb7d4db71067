"""The ``sweep`` subcommand: derived quantities over a parameter grid, as CSV.

Each grid point costs a few float operations, so the grid is walked in plain
Python with the scalar closed forms of ``analytic`` and imports no numpy.
The axes are the only per-run storage, one ``array('d')`` each, so memory
grows with the axis lengths, not with the number of rows.

``run`` validates the whole grid before it writes the first byte, then
computes and streams the rows in fixed-size chunks.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import chain
from typing import Iterator, Sequence

from .analytic import _critical_ratio, _eu_cm, _eu_sm
from .cli import Settings, _fmt
from .core import InvalidInput, TranslucencyParams, TranslucentPayoffs, _in_unit_interval

PARAM_NAMES = ("p", "q", "r", "v_noncoop", "v_coop")

# Rows per written chunk; each chunk's text caches are dropped after it.
SWEEP_CHUNK_ROWS = 4096

SWEEP_HEADER = "p,q,r,v_noncoop,v_coop,eu_cm,eu_sm,margin,critical_ratio,cm_rational"

# Row numbers stay within a signed 64-bit integer.
_MAX_ROWS = 2**63 - 1

_FLAG_FOR_PARAM = dict(zip(PARAM_NAMES, ("p", "q", "r", "vnc", "vc")))


def _fill_linspace(values: array, start: float, stop: float) -> array:
    """Fill VALUES with len(VALUES) evenly spaced doubles from START to STOP,
    bit for bit the values of ``numpy.linspace``; one point is START itself,
    whatever STOP is. Returns VALUES."""
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


def _linspace(start: float, stop: float, count: int) -> array:
    """COUNT evenly spaced doubles from START to STOP, as ``_fill_linspace``."""
    return _fill_linspace(array("d", [0.0]) * count, start, stop)


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


def build_sweep_grid(settings: Settings) -> tuple[dict[str, array], dict[str, float]]:
    """The swept parameters' values in command-line order, and the others' values."""
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
    return axes, fixed


def _grid_is_valid(axes: dict[str, array], fixed: dict[str, float]) -> bool:
    """Whether both constructors accept every grid point, decided from each
    parameter's values once: p, q and r lie in [0, 1], and every v_noncoop is
    below every v_coop inside (0, 1), which, with no NaN, holds iff the
    largest v_noncoop is below the smallest v_coop."""
    values: dict[str, Sequence[float]] = {**{k: (v,) for k, v in fixed.items()}, **axes}
    lows, highs = values["v_noncoop"], values["v_coop"]
    return (
        all(map(_in_unit_interval, chain(values["p"], values["q"], values["r"])))
        and all(0.0 < v < 1.0 for v in chain(lows, highs))
        and max(lows) < min(highs)
    )


def _grid_indices(lengths: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Each row's point index on every axis, in row order (first axis outermost)."""
    if not lengths:
        yield ()
        return
    *outer, inner = lengths
    for prefix in _grid_indices(outer):
        for i in range(inner):
            yield (*prefix, i)


def _raise_first_invalid_point(axes: dict[str, array], fixed: dict[str, float]) -> None:
    """Name the first grid point, in row order, that a constructor rejects."""
    for indices in _grid_indices(list(map(len, axes.values()))):
        point = dict(fixed)
        for (name, values), i in zip(axes.items(), indices):
            point[name] = values[i]
        try:
            TranslucentPayoffs(v_noncoop=point["v_noncoop"], v_coop=point["v_coop"])
            TranslucencyParams(p=point["p"], q=point["q"], r=point["r"])
        except InvalidInput as exc:
            shown = ", ".join(f"{k}={point[k]!r}" for k in PARAM_NAMES)
            raise InvalidInput(f"invalid grid point ({shown}): {exc}") from exc


def run(settings: Settings) -> int:
    """Write the sweep CSV of the grid that ``settings`` describes."""
    axes, fixed = build_sweep_grid(settings)

    # Validate the whole grid before emitting anything: a bad point must
    # fail the run, not cut the output short. The first bad point in row
    # order goes through the constructors, whose message names the fault.
    if not _grid_is_valid(axes, fixed):
        _raise_first_invalid_point(axes, fixed)

    # One row's parameters and their text, in PARAM_NAMES order. The walk
    # overwrites the swept slots: the outer axes' once per run of the
    # innermost axis, which varies fastest, and the innermost axis's per row.
    point = [fixed.get(name) for name in PARAM_NAMES]
    fields = [_fmt(fixed[name]) if name in fixed else "" for name in PARAM_NAMES]
    *outer, (inner_slot, inner) = [(PARAM_NAMES.index(k), v) for k, v in axes.items()]
    # Each chunk formats a distinct value once. Axis text is keyed by slot and
    # point index, as a float key would merge 0.0 and -0.0; the computed
    # values are never -0.0, so they share one cache keyed by value.
    outer_text: dict[tuple[int, int], str] = {}
    inner_text: dict[int, str] = {}
    number_text: dict[float, str] = {}
    lines: list[str] = []
    write = sys.stdout.write
    write(SWEEP_HEADER + "\n")
    for indices in _grid_indices([len(values) for _, values in outer]):
        for (slot, values), i in zip(outer, indices):
            point[slot] = values[i]
            fields[slot] = outer_text.get((slot, i)) or outer_text.setdefault(
                (slot, i), _fmt(values[i])
            )
        # The columns before and after the innermost axis, comma-joined.
        head = ",".join(fields[:inner_slot] + [""])
        tail = ",".join([""] + fields[inner_slot + 1 :])
        for i, value in enumerate(inner):
            point[inner_slot] = value
            p, q, r, v_noncoop, v_coop = point
            eu_cm = _eu_cm(v_noncoop, v_coop, p, q, r)
            eu_sm = _eu_sm(v_noncoop, q, r)
            margin = eu_cm - eu_sm
            ratio = _critical_ratio(v_noncoop, v_coop, r)
            lines.append(
                f"{head}{inner_text.get(i) or inner_text.setdefault(i, _fmt(value))}{tail},"
                f"{number_text.get(eu_cm) or number_text.setdefault(eu_cm, _fmt(eu_cm))},"
                f"{number_text.get(eu_sm) or number_text.setdefault(eu_sm, _fmt(eu_sm))},"
                f"{number_text.get(margin) or number_text.setdefault(margin, _fmt(margin))},"
                f"{number_text.get(ratio) or number_text.setdefault(ratio, _fmt(ratio))},"
                f"{'true' if margin > 0.0 else 'false'}"
            )
            if len(lines) == SWEEP_CHUNK_ROWS:
                write("\n".join(lines) + "\n")
                lines.clear()
                outer_text.clear()
                inner_text.clear()
                number_text.clear()
    if lines:
        write("\n".join(lines) + "\n")
    return 0
