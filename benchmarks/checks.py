"""Per-invocation output checks, re-derived from the package's public API.

Every check raises ``CheckFailed`` on the first mismatch. They hold for any
seed the benchmark draws:

* ``analytic`` and ``evolve`` must equal the in-process API exactly, and
  the ``evolve`` threshold comment appears iff ``interior_threshold`` is
  not None.
* ``simulate`` must be self-consistent (the histogram sums to 2n, means
  and standard errors follow from the counts) and each mean must sit
  within ``STDERR_LIMIT`` standard errors of the closed form.
* ``sweep`` must have the exact header and row count, and every
  ``SWEEP_STRIDE``-th row (plus the last) must match, byte for byte, the
  row re-derived with ``cm_rational`` and ``critical_ratio``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from dispositions_sim import (
    TranslucencyParams,
    TranslucentPayoffs,
    cm_rational,
    critical_ratio,
    evolve,
    interior_threshold,
    translucent_eu_cm,
    translucent_eu_sm,
)

from inputs import Op

SWEEP_HEADER = b"p,q,r,v_noncoop,v_coop,eu_cm,eu_sm,margin,critical_ratio,cm_rational"
SWEEP_PARAMS = ("p", "q", "r", "v_noncoop", "v_coop")
SWEEP_FLAG = {"p": "p", "q": "q", "r": "r", "v_noncoop": "vnc", "v_coop": "vc"}
SWEEP_STRIDE = 97
STDERR_LIMIT = 6.0
_HISTOGRAM_KEYS = {"non_cooperation", "cooperation", "defection", "exploitation"}


class CheckFailed(Exception):
    """An invocation's output disagrees with the re-derived expectation."""


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def op_inputs(op: Op, r_flag: str = "r") -> tuple[TranslucentPayoffs, TranslucencyParams]:
    """The payoffs and parameters an op's flags give, parsed as the CLI parses them."""
    pay = TranslucentPayoffs(float(op.flag("vnc")), float(op.flag("vc")))
    t = TranslucencyParams(float(op.flag("p")), float(op.flag("q")), float(op.flag(r_flag)))
    return pay, t


def _json_line(out: bytes) -> dict:
    if not out.endswith(b"\n") or out.count(b"\n") != 1:
        raise CheckFailed("expected exactly one output line")
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def check_analytic(op: Op, out: bytes) -> None:
    pay, t = op_inputs(op)
    comparison = cm_rational(pay, t)
    ratio = critical_ratio(pay, t.r)
    expected = {
        "eu_cm": comparison.eu_cm,
        "eu_sm": comparison.eu_sm,
        "margin": comparison.margin,
        "critical_ratio": ratio if math.isfinite(ratio) else "inf",
        "cm_rational": comparison.cm_is_rational,
    }
    record = _json_line(out)
    if list(record.items()) != list(expected.items()):
        raise CheckFailed(f"analytic record {record} != {expected}")


def _close(a: float, b: float) -> bool:
    # Summation order differs from the package's, so allow a few ulps of
    # cancellation in the variance; any corrupted significant digit fails.
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-18)


def check_simulate(op: Op, out: bytes) -> None:
    pay, t = op_inputs(op)
    n = int(op.flag("n"))
    record = _json_line(out)
    if record["n_trials"] != n or record["seed"] != int(op.flag("seed")):
        raise CheckFailed("n_trials or seed not echoed")
    hist = record["outcome_histogram"]
    if set(hist) != _HISTOGRAM_KEYS or sum(hist.values()) != 2 * n:
        raise CheckFailed(f"histogram {hist} does not cover 2n = {2 * n} encounters")

    sm_noncoop = n - hist["defection"]
    cm_noncoop = hist["non_cooperation"] - sm_noncoop
    if min(sm_noncoop, cm_noncoop) < 0:
        raise CheckFailed(f"histogram {hist} is inconsistent")
    levels = {
        "cm": {
            pay.v_noncoop: cm_noncoop,
            pay.v_coop: hist["cooperation"],
            0.0: hist["exploitation"],
        },
        "sm": {pay.v_noncoop: sm_noncoop, 1.0: hist["defection"]},
    }
    closed_form = {"cm": translucent_eu_cm(pay, t), "sm": translucent_eu_sm(pay, t)}
    for side, counts in levels.items():
        eu = closed_form[side]
        mean = record[f"mean_payoff_{side}"]
        stderr = record[f"stderr_{side}"]
        count_mean = sum(v * c for v, c in counts.items()) / n
        count_var = sum(v * v * c for v, c in counts.items()) / n - count_mean**2
        count_stderr = math.sqrt(max(0.0, count_var) / (n - 1)) if n > 1 else 0.0
        if not (_close(mean, count_mean) and _close(stderr, count_stderr)):
            raise CheckFailed(f"{side}: mean/stderr do not follow from the histogram")
        if record[f"analytic_eu_{side}"] != eu:
            raise CheckFailed(f"{side}: analytic value {record[f'analytic_eu_{side}']!r} != {eu!r}")
        if record[f"deviation_{side}"] != abs(mean - eu):
            raise CheckFailed(f"{side}: deviation is not |mean - analytic|")
        if abs(mean - eu) > STDERR_LIMIT * stderr:
            raise CheckFailed(f"{side}: mean {mean!r} is over {STDERR_LIMIT} stderr from {eu!r}")


def _axis(spec: str) -> tuple[str, list[float]]:
    name, _, rest = spec.partition("=")
    start, stop, count = rest.split(":")
    if int(count) == 1:
        return name, [float(start)]
    return name, [float(v) for v in np.linspace(float(start), float(stop), int(count))]


def sweep_line(point: dict[str, float]) -> bytes:
    """The CSV row the sweep contract prescribes for one grid point."""
    pay = TranslucentPayoffs(point["v_noncoop"], point["v_coop"])
    t = TranslucencyParams(point["p"], point["q"], point["r"])
    c = cm_rational(pay, t)
    fields = [_fmt(point[k]) for k in SWEEP_PARAMS]
    fields += [_fmt(c.eu_cm), _fmt(c.eu_sm), _fmt(c.margin), _fmt(critical_ratio(pay, t.r))]
    fields.append("true" if c.cm_is_rational else "false")
    return ",".join(fields).encode()


def sweep_rows(op: Op) -> int:
    return math.prod(len(_axis(spec)[1]) for spec in op.axes)


def check_sweep(op: Op, out: bytes, offset: int = 0) -> None:
    lines = out.split(b"\n")
    if lines.pop() != b"":
        raise CheckFailed("output does not end with a newline")
    if lines[0] != SWEEP_HEADER:
        raise CheckFailed(f"bad header {lines[0][:120]!r}")
    axes = [_axis(spec) for spec in op.axes]
    n_rows = math.prod(len(values) for _, values in axes)
    if len(lines) - 1 != n_rows:
        raise CheckFailed(f"{len(lines) - 1} rows, expected {n_rows}")
    swept = {name for name, _ in axes}
    fixed = {k: float(op.flag(SWEEP_FLAG[k])) for k in SWEEP_PARAMS if k not in swept}
    for i in [*range(offset % SWEEP_STRIDE, n_rows, SWEEP_STRIDE), n_rows - 1]:
        point, rest = dict(fixed), i
        for name, values in reversed(axes):
            rest, j = divmod(rest, len(values))
            point[name] = values[j]
        expected = sweep_line(point)
        if lines[1 + i] != expected:
            raise CheckFailed(f"row {i}: {lines[1 + i]!r} != {expected!r}")


def check_evolve(op: Op, out: bytes) -> None:
    pay, t0 = op_inputs(op, r_flag="r0")
    trajectory = evolve(pay, t0, int(op.flag("generations")))
    lines = ["generation,r,eu_cm,eu_sm"]
    lines += [
        f"{s.generation},{_fmt(s.r)},{_fmt(s.eu_cm)},{_fmt(s.eu_sm)}" for s in trajectory.steps
    ]
    threshold = interior_threshold(pay, t0.p, t0.q)
    if threshold is not None:
        lines.append("# " + json.dumps({"interior_threshold": threshold}))
    expected = ("\n".join(lines) + "\n").encode()
    if out != expected:
        raise CheckFailed("evolve output differs from the in-process trajectory")


def check(op: Op, out: bytes, offset: int = 0) -> None:
    """Raise CheckFailed unless ``out`` is the correct stdout of ``op``."""
    if op.command == "sweep":
        check_sweep(op, out, offset)
    elif op.command == "simulate":
        check_simulate(op, out)
    elif op.command == "analytic":
        check_analytic(op, out)
    elif op.command == "evolve":
        check_evolve(op, out)
    else:
        raise CheckFailed(f"no check for command {op.command!r}")
