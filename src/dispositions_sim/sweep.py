"""The ``sweep`` subcommand: derived quantities over a parameter grid, as CSV.

Each grid point costs a few float operations, so the grid is evaluated with
the scalar closed forms of ``analytic``, mapped over one span of the innermost
swept axis at a time, and imports no numpy. Storage is one ``array('d')`` per
swept axis plus the rows of one span per worker; no axis is held as Python
objects, so memory grows with the axis lengths, not with the number of rows.

``run`` checks each parameter's values with the constructors' own checks before
it forks a worker or writes a byte (a rejected grid walks no rows). Span k goes
to worker k mod W: worker 0 is this process, which writes every span in row
order; the others are forked children that send their spans down pipes, each
at most a pipe's buffer ahead of it. The OS refusing a pipe or a fork is a bad
worker count (``core.refused``), as a refused Monte Carlo thread is: the run
writes nothing. Without ``os.fork`` (as on Windows) this process is the one worker.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
from array import array
from itertools import islice, repeat
from typing import Sequence

from .analytic import _critical_ratio, _eu_cm, _eu_sm
from .cli import ROWS_PER_WRITE, Settings, _fmt
from .core import (MAX_COUNT, InvalidInput, TranslucentPayoffs, check_probability, refused,
                   resolve_workers)

PARAM_NAMES = ("p", "q", "r", "v_noncoop", "v_coop")

SWEEP_HEADER = "p,q,r,v_noncoop,v_coop,eu_cm,eu_sm,margin,critical_ratio,cm_rational"

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
    if math.prod(map(len, axes.values())) > MAX_COUNT:
        raise InvalidInput(f"sweep grid has more than {MAX_COUNT} rows")
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


def _check_grid(grid: dict[str, Sequence[float]]) -> None:
    """Raise what the constructors raise at some bad grid point, checking each parameter's
    values once, in their order: payoffs, then p, q, r. The payoffs hold iff each v_noncoop
    is below the least v_coop and each v_coop above the largest v_noncoop. A NaN v_coop is
    taken as the least and a NaN v_noncoop fails first: min and max depend on where it sits."""
    lows, highs = grid["v_noncoop"], grid["v_coop"]
    least = min(highs, key=lambda v: (v == v, v))
    for v in lows:
        TranslucentPayoffs(v, least)
    most = max(lows)
    for v in highs:
        TranslucentPayoffs(most, v)
    for name in ("p", "q", "r"):
        for v in grid[name]:
            check_probability(name, v)


def run(settings: Settings) -> None:
    """Write the sweep CSV of the grid that ``settings`` describes."""
    grid = build_sweep_grid(settings)
    _check_grid(grid)  # before any output: a bad point must fail the run, not cut it short

    # Rows are built one span of the innermost walked axis (of more than one point,
    # else the last axis) at a time. Spans are numbered in row order, each number
    # unravelled into point indices, so no axis is held as Python objects. Span k is
    # built by worker k % W; worker 0, this process, writes every span.
    walked = [name for name, values in grid.items() if len(values) > 1]
    *outer, inner_name = walked or list(grid)[-1:]
    inner, slot = grid[inner_name], PARAM_NAMES.index(inner_name)
    span = min(len(inner), ROWS_PER_WRITE)
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

    def text(k: int) -> str:
        number, start = divmod(k, per_point)
        for name in reversed(outer):
            number, i = divmod(number, len(grid[name]))
            at[name], args[name] = i, repeat(grid[name][i])
            fields[PARAM_NAMES.index(name)] = _fmt(grid[name][i])
        head, tail = ",".join(fields[:slot] + [""]), ",".join([""] + fields[slot + 1 :])
        at[inner_name] = start = start * span
        run = inner[start : start + span]
        args[inner_name] = run if moves else run[:1]  # else the span is its first row repeated
        cm = map(_eu_cm, *map(args.get, ("v_noncoop", "v_coop", "p", "q", "r")))
        sm, sm_text = column(_eu_sm, "v_noncoop", "q", "r")
        rows = zip(column(float, inner_name)[1], cm, sm, sm_text,
                   column(_critical_ratio, "v_noncoop", "v_coop", "r")[1])
        return ("".join([f"{head}{x}{tail},{_fmt(c)},{s},{_fmt(c - e)},{t},"
                         f"{'true' if c > e else 'false'}\n" for x, c, e, s, t in rows])
                * (1 if moves else len(run)))

    per_point = -(-len(inner) // span)
    spans = math.prod(len(grid[name]) for name in outer) * per_point
    workers = resolve_workers(math.prod(map(len, grid.values())) // ROWS_PER_WRITE
                              if hasattr(os, "fork") else 1)
    readers, children = [], []
    try:
        try:
            for w in range(1, workers):
                reader, out = map(open, os.pipe(), ("rb", "wb"))
                readers.append(reader)
                with out:
                    if not (pid := os.fork()):
                        try:  # never returns: a failure shows as a short pipe in marshal.load
                            reader.close()
                            out.writelines(marshal.dumps(text(k)) for k in range(w, spans, workers))
                            out.flush()
                        finally:
                            os._exit(0)
                children.append(pid)
        except OSError as exc:  # the OS refused a pipe or a fork; no byte is written yet
            raise refused(workers, "sweep", exc) from exc
        sys.stdout.write(SWEEP_HEADER + "\n")
        for k in range(spans):
            sys.stdout.write(marshal.load(readers[k % workers - 1]) if k % workers else text(k))
    finally:  # a child blocked on its pipe sees it close, so every wait ends
        for reader in readers:
            reader.close()
        for pid in children:
            os.waitpid(pid, 0)
