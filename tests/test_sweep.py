"""Sweep output contract: golden bytes, axes equal to numpy's linspace, a
point-by-point reference, the invalid-point message, and memory that does
not grow with the row count."""

import contextlib
import hashlib
import io
import itertools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispositions_sim import (
    InvalidProbability,
    OrderingViolation,
    TranslucencyParams,
    TranslucentPayoffs,
    cm_rational,
    critical_ratio,
)
from dispositions_sim import sweep
from dispositions_sim.cli import main
from dispositions_sim.sweep import PARAM_NAMES, SWEEP_HEADER, _linspace

GOLDEN = Path(__file__).parent / "golden"

FLAG_FOR_PARAM = {"p": "p", "q": "q", "r": "r", "v_noncoop": "vnc", "v_coop": "vc"}


def run_sweep(argv):
    """(exit code, stdout, stderr) of an in-process ``sweep`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["sweep", *argv])
    return code, out.getvalue(), err.getvalue()


def sweep_argv(fixed, axes):
    argv = []
    for name, value in fixed.items():
        argv += [f"--{FLAG_FOR_PARAM[name]}", repr(value)]
    for name, start, stop, count in axes:
        argv += ["--axis", f"{name}={start!r}:{stop!r}:{count}"]
    return argv


def reference_sweep(fixed, axes):
    """The sweep CSV derived one point at a time from the public scalar API.

    Returns the full output, or the stderr line for the first invalid
    point in row order.
    """
    names = [name for name, *_ in axes]
    values = [
        [start] if count == 1 else np.linspace(start, stop, count).tolist()
        for _, start, stop, count in axes
    ]
    lines = [SWEEP_HEADER]
    for combo in itertools.product(*values):
        point = {**fixed, **dict(zip(names, combo))}
        try:
            pay = TranslucentPayoffs(point["v_noncoop"], point["v_coop"])
            t = TranslucencyParams(point["p"], point["q"], point["r"])
        except (OrderingViolation, InvalidProbability) as exc:
            shown = ", ".join(f"{k}={point[k]!r}" for k in PARAM_NAMES)
            return f"error: invalid grid point ({shown}): {exc}\n"
        c = cm_rational(pay, t)
        fields = [point[k] for k in PARAM_NAMES]
        fields += [c.eu_cm, c.eu_sm, c.margin, critical_ratio(pay, t.r)]
        lines.append(
            ",".join(f"{v:.17g}" for v in fields)
            + ("," + ("true" if c.cm_is_rational else "false"))
        )
    return "\n".join(lines) + "\n"


GOLDEN_GRIDS = {
    "sweep_three_axes_r0": [
        "--vc", "0.75", "--q", "0.1",
        "--axis", "v_noncoop=0.05:0.45:3", "--axis", "p=0:1:5", "--axis", "r=0:1:6",
    ],
    "sweep_payoff_axes": [
        "--p", "0.8", "--q", "0.1", "--r", "0.5",
        "--axis", "v_noncoop=0.1:0.4:4", "--axis", "v_coop=0.5:0.95:4",
    ],
    "sweep_q_axis": [
        "--vnc", "0.5", "--vc", "0.75", "--p", "0.8", "--r", "0.5", "--axis", "q=0:1:11",
    ],
    "sweep_single_point_axis": [
        "--vnc", "0.3", "--vc", "0.6", "--q", "0.2",
        "--axis", "r=0.4:0.9:1", "--axis", "p=0:1:4",
    ],
    # -0.0 keeps its sign where the axis or flag gives it: a one-point axis is
    # START, the last point is STOP, and the others are computed (0.0 here).
    "sweep_signed_zero": [
        "--vnc", "0.5", "--vc", "0.75", "--q", "-0.0",
        "--axis", "r=-0.0:1:1", "--axis", "p=-0.0:-0.0:3",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_GRIDS))
def test_golden_csv(name):
    code, out, err = run_sweep(GOLDEN_GRIDS[name])
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN / f"{name}.csv").read_bytes()


_endpoint = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308]),
)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@example(0.0, 5e-324, 3, False)  # a zero step: linspace divides before it multiplies
@example(-0.0, -0.0, 3, False)
@example(1e308, -1e308, 5, False)  # delta overflows to -inf
@example(math.inf, 1.0, 3, False)
@example(math.nan, 1.0, 3, False)
@example(2.5, 2.5, 7, False)
@settings(max_examples=400, deadline=None)
@given(_endpoint, _endpoint, st.integers(1, 64), st.booleans())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's inf - inf and 0 * inf
def test_axis_values_are_numpys_linspace_bit_for_bit(start, stop, count, same):
    if same:
        stop = start
    expected = [start] if count == 1 else np.linspace(start, stop, count)
    assert _bits(_linspace(start, stop, count)) == _bits(expected)


def test_golden_csv_covers_infinite_ratio():
    text = (GOLDEN / "sweep_three_axes_r0.csv").read_text()
    assert sum(line.split(",")[8] == "inf" for line in text.splitlines()) == 15


def test_output_spanning_many_chunks_matches_golden_digest():
    # 11163 rows, several thousand past any reasonable chunk size.
    argv = ["--vnc", "0.3", "--vc", "0.7", "--axis", "q=0:0.5:3",
            "--axis", "p=0:1:61", "--axis", "r=0:1:61"]
    code, out, _ = run_sweep(argv)
    assert code == 0
    assert out.count("\n") == 1 + 3 * 61 * 61
    assert hashlib.md5(out.encode()).hexdigest() == "172861c1cd33505585e36dd279ae28c3"


_coordinate = st.floats(min_value=-0.25, max_value=1.25, allow_nan=False)


@st.composite
def grids(draw):
    names = draw(st.lists(st.sampled_from(PARAM_NAMES), min_size=1, max_size=3, unique=True))
    axes = [
        (name, draw(_coordinate), draw(_coordinate), draw(st.integers(1, 6)))
        for name in names
    ]
    fixed = {}
    for name in PARAM_NAMES:
        if name in names:
            continue
        if name == "v_noncoop":
            fixed[name] = draw(st.floats(0.01, 0.49))
        elif name == "v_coop":
            fixed[name] = draw(st.floats(0.51, 0.99))
        else:
            fixed[name] = draw(st.floats(0.0, 1.0))
    return fixed, axes


# A subnormal r overflows the critical ratio's second term to inf, quietly.
# The smallest one makes the denominator underflow to 0, where the ratio
# must be inf as well.
@example(({"q": 0.0, "r": 2.2250738585e-313, "v_noncoop": 0.25, "v_coop": 0.75},
          [("p", 0.0, 0.0, 1)]))
@example(({"q": 0.0, "r": 5e-324, "v_noncoop": 0.25, "v_coop": 0.75},
          [("p", 0.0, 0.0, 1)]))
@settings(max_examples=150, deadline=None)
@given(grids())
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_matches_point_by_point_reference(grid):
    fixed, axes = grid
    expected = reference_sweep(fixed, axes)
    code, out, err = run_sweep(sweep_argv(fixed, axes))
    if expected.startswith("error: "):
        assert (code, out, err) == (2, "", expected)
    else:
        assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        # Row 0 has p out of range; later rows also break the payoff order.
        (
            ["--vc", "0.5", "--q", "0.1", "--r", "0.5",
             "--axis", "v_noncoop=0.1:0.9:5", "--axis", "p=-0.5:1.5:5"],
            "(p=-0.5, q=0.1, r=0.5, v_noncoop=0.1, v_coop=0.5): "
            "p must lie in [0, 1], got -0.5",
        ),
        # Both checks fail at row 0: the payoff order is reported first.
        (
            ["--vc", "0.5", "--q", "0.1", "--r", "0.5",
             "--axis", "v_noncoop=0.5:0.9:2", "--axis", "p=1.5:0:4"],
            "(p=1.5, q=0.1, r=0.5, v_noncoop=0.5, v_coop=0.5): "
            "require 0 < v_noncoop < v_coop < 1, got 0.5, 0.5",
        ),
        # The first bad row is 6000, in a later block of rows.
        (
            ["--vc", "0.55", "--q", "0.1", "--r", "0.5",
             "--axis", "v_noncoop=0.2:0.6:3", "--axis", "p=0:1:3000"],
            "(p=0.0, q=0.1, r=0.5, v_noncoop=0.6, v_coop=0.55): "
            "require 0 < v_noncoop < v_coop < 1, got 0.6, 0.55",
        ),
    ],
)
def test_first_invalid_point_in_row_order_is_named(argv, message):
    code, out, err = run_sweep(argv)
    assert code == 2
    assert out == ""
    assert err == f"error: invalid grid point {message}\n"


# Three 16 MiB axes whose 2**63 rows pass the signed 64-bit row bound.
HUGE_AXES = ["--axis", "p=0:1:2097152", "--axis", "q=0:1:2097152", "--axis", "r=0:1:2097152"]


@pytest.mark.parametrize(
    "axes, error",
    [
        (HUGE_AXES, f"sweep grid has more than {2**63 - 1} rows"),
        # An axis too long to hold is named first, before the row bound.
        (HUGE_AXES[:4] + ["--axis", "r=0:1:10000000000000000000"],
         "axis 'r' has too many points: 10000000000000000000"),
        (HUGE_AXES + ["--axis", "p=0:1:2"], "each parameter may be swept by at most one axis"),
    ],
    ids=["row-bound", "axis-past-memory", "axis-twice"],
)
def test_a_grid_past_its_bounds_fills_no_axis(monkeypatch, axes, error):
    filled = []
    monkeypatch.setattr(sweep, "_fill_linspace", lambda values, *ends: filled.append(ends))
    assert run_sweep(["--vnc", "0.5", "--vc", "0.75", *axes]) == (2, "", f"error: {error}\n")
    assert filled == []


def test_a_grid_within_its_bounds_fills_every_axis(monkeypatch):
    """The spy above sees fills when there are any."""
    fill, filled = sweep._fill_linspace, []

    def spy(values, start, stop):
        filled.append((len(values), start, stop))
        return fill(values, start, stop)

    monkeypatch.setattr(sweep, "_fill_linspace", spy)
    code, out, _ = run_sweep(["--vnc", "0.5", "--vc", "0.75", "--q", "0.1",
                              "--axis", "p=0:1:3", "--axis", "r=0.5:1:2"])
    assert (code, out.count("\n")) == (0, 1 + 3 * 2)
    assert filled == [(3, 0.0, 1.0), (2, 0.5, 1.0)]


_PEAK_RSS_CHILD = """
import sys
from dispositions_sim.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    peak = next(line for line in status if line.startswith("VmHWM:"))
print(code, peak.split()[1], file=sys.stderr)
"""


def _sweep_peak_rss_kib(p_count, r_count):
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_CHILD, "sweep",
         "--vnc", "0.5", "--vc", "0.75", "--q", "0.1",
         "--axis", f"p=0:1:{p_count}", "--axis", f"r=0:1:{r_count}"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        check=True,
    )
    code, peak_kib = result.stderr.split()
    assert code == "0"
    return int(peak_kib)


@pytest.mark.skipif(
    not Path("/proc/self/status").exists(), reason="needs VmHWM from procfs"
)
def test_sweep_memory_does_not_grow_with_row_count():
    small = _sweep_peak_rss_kib(100, 100)  # 10^4 rows
    large = _sweep_peak_rss_kib(400, 500)  # 2 x 10^5 rows
    assert abs(large - small) < 4 * 1024, (small, large)
