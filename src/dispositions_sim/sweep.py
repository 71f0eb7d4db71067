"""The ``sweep`` subcommand: derived quantities over a parameter grid, as CSV.

This is the one CLI path that computes on arrays, so it is the module that
imports numpy; ``cli`` imports it only when ``sweep`` runs. The closed forms
come from ``analytic``, written once for floats and arrays alike.

``run`` validates the whole grid before it writes the first byte, then
computes and streams the rows in fixed-size chunks, so its memory grows
with the axis lengths, not with the number of rows.
"""

from __future__ import annotations

import math
import sys
from typing import Iterator

import numpy as np

from .analytic import _critical_ratio, _eu_cm, _eu_sm
from .cli import Settings, _fmt
from .core import InvalidInput, TranslucencyParams, TranslucentPayoffs, translucent_point_valid

PARAM_NAMES = ("p", "q", "r", "v_noncoop", "v_coop")

# Rows per sweep chunk: amortizes numpy's per-call cost, keeps a chunk < 1 MB.
SWEEP_CHUNK_ROWS = 4096

SWEEP_HEADER = "p,q,r,v_noncoop,v_coop,eu_cm,eu_sm,margin,critical_ratio,cm_rational"

_FLAG_FOR_PARAM = dict(zip(PARAM_NAMES, ("p", "q", "r", "vnc", "vc")))


def translucent_columns(v_noncoop, v_coop, p, q, r) -> tuple[np.ndarray, ...]:
    """``eu_cm, eu_sm, margin, critical_ratio, cm_rational`` over arrays of valid
    points, elementwise bit-identical to ``cm_rational`` and ``critical_ratio``."""
    eu_cm = _eu_cm(v_noncoop, v_coop, p, q, r)
    eu_sm = _eu_sm(v_noncoop, q, r)
    margin = eu_cm - eu_sm
    # A zero or subnormal r sends the second term to inf, as in float maths.
    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.where(r == 0.0, np.inf, _critical_ratio(v_noncoop, v_coop, r))
    return eu_cm, eu_sm, margin, ratio, margin > 0.0


def _fmt_column(values: np.ndarray) -> Iterator[str]:
    """``_fmt`` of each value, formatting each distinct bit pattern once:
    most sweep columns repeat, since only the innermost axis varies by row."""
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = [_fmt(v) for v in distinct.view(np.float64).tolist()]
    return map(text.__getitem__, inverse.tolist())


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


def build_sweep_grid(settings: Settings) -> tuple[dict[str, np.ndarray], dict[str, float]]:
    """The swept parameters' values in command-line order, and the others' values."""
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
    return axes, fixed


def sweep_chunks(
    axes: dict[str, np.ndarray], fixed: dict[str, float]
) -> Iterator[dict[str, np.ndarray]]:
    """Every parameter's column over chunks of ``SWEEP_CHUNK_ROWS`` rows,
    in lexicographic order with the first-given axis outermost."""
    shape = tuple(map(len, axes.values()))
    n_rows = math.prod(shape)
    for start in range(0, n_rows, SWEEP_CHUNK_ROWS):
        rows = np.arange(start, min(start + SWEEP_CHUNK_ROWS, n_rows))
        columns = {name: np.full(len(rows), v) for name, v in fixed.items()}
        indices = np.unravel_index(rows, shape)
        for (name, values), index in zip(axes.items(), indices):
            columns[name] = values[index]
        yield columns


def run(settings: Settings) -> int:
    """Write the sweep CSV of the grid that ``settings`` describes."""
    axes, fixed = build_sweep_grid(settings)

    # Validate the whole grid before emitting anything: a bad point must
    # fail the run, not cut the output short. The first bad point in row
    # order goes through the constructors, whose message names the fault.
    for columns in sweep_chunks(axes, fixed):
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
    for columns in sweep_chunks(axes, fixed):
        *numbers, rational = translucent_columns(**columns)
        fields = [_fmt_column(columns[name]) for name in PARAM_NAMES]
        fields += [_fmt_column(column) for column in numbers]
        fields.append(map(("false", "true").__getitem__, rational.tolist()))
        sys.stdout.write("\n".join(map(",".join, zip(*fields))) + "\n")
    return 0
