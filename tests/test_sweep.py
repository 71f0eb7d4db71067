"""Sweep output contract: golden bytes, axes equal to numpy's linspace, a
point-by-point reference, a rejected grid's line (the one ``analytic`` prints
at a bad point), and memory that grows with the axis lengths, by about a
double per point, not with the row count."""

import hashlib
import itertools
import math
from array import array
from collections.abc import Sequence
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
from dispositions_sim.sweep import PARAM_NAMES, SWEEP_HEADER, _fill_linspace
from peak_rss import needs_procfs, peak_rss_kib
from reference import run_main

GOLDEN = Path(__file__).parent / "golden"

FLAG_FOR_PARAM = {"p": "p", "q": "q", "r": "r", "v_noncoop": "vnc", "v_coop": "vc"}


def run_sweep(argv):
    """(exit code, stdout, stderr) of an in-process ``sweep`` run."""
    return run_main(["sweep", *argv])


def sweep_argv(fixed, axes):
    argv = []
    for name, value in fixed.items():
        argv += [f"--{FLAG_FOR_PARAM[name]}", repr(value)]
    for name, start, stop, count in axes:
        argv += ["--axis", f"{name}={start!r}:{stop!r}:{count}"]
    return argv


def reference_sweep(fixed, axes):
    """The sweep CSV derived one point at a time from the public scalar API.

    Returns the full output if the constructors accept every point, else the
    set of stderr lines ``analytic`` prints at the rejected points.
    """
    names = [name for name, *_ in axes]
    values = [
        [start] if count == 1 else np.linspace(start, stop, count).tolist()
        for _, start, stop, count in axes
    ]
    lines, rejected = [SWEEP_HEADER], set()
    for combo in itertools.product(*values):
        point = {**fixed, **dict(zip(names, combo))}
        try:
            pay = TranslucentPayoffs(point["v_noncoop"], point["v_coop"])
            t = TranslucencyParams(point["p"], point["q"], point["r"])
        except (OrderingViolation, InvalidProbability) as exc:
            rejected.add(f"{type(exc).__name__}: {exc}\n")
            continue
        c = cm_rational(pay, t)
        fields = [point[k] for k in PARAM_NAMES]
        fields += [c.eu_cm, c.eu_sm, c.margin, critical_ratio(pay, t.r)]
        lines.append(
            ",".join(f"{v:.17g}" for v in fields)
            + ("," + ("true" if c.cm_is_rational else "false"))
        )
    return rejected or "\n".join(lines) + "\n"


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
    """Each double's bit pattern, or "nan" for a NaN: a NaN point's payload and
    sign follow the CPU and numpy's SIMD loops, and grid validation rejects
    the point before it could be printed."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64).tolist()
    return ["nan" if math.isnan(v) else b for v, b in zip(values, bits)]


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
    values = _fill_linspace(array("d", [0.0]) * count, start, stop)
    assert _bits(values) == _bits(expected)


_finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@example(0.0, 5e-324, 3)  # a zero step: each point is i / div * delta + START
@example(1.0, 0.0, 49)
@settings(max_examples=2000, deadline=None)
@given(_finite, _finite, st.integers(1, 64))
def test_axis_values_are_monotone_from_start_to_stop(start, stop, count):
    """Non-decreasing when START <= STOP and non-increasing otherwise, for finite
    bounds whose points are all finite."""
    values = _fill_linspace(array("d", [0.0]) * count, start, stop).tolist()
    assume(all(map(math.isfinite, values)))
    steps = list(zip(values, values[1:]))
    assert all(a <= b for a, b in steps) if start <= stop else all(a >= b for a, b in steps)


def test_golden_csv_covers_infinite_ratio():
    text = (GOLDEN / "sweep_three_axes_r0.csv").read_text()
    assert sum(line.split(",")[8] == "inf" for line in text.splitlines()) == 15


def test_output_spanning_many_chunks_matches_golden_digest():
    # 11163 rows in 183 spans of 61, each written on its own.
    argv = ["--vnc", "0.3", "--vc", "0.7", "--axis", "q=0:0.5:3",
            "--axis", "p=0:1:61", "--axis", "r=0:1:61"]
    code, out, _ = run_sweep(argv)
    assert code == 0
    assert out.count("\n") == 1 + 3 * 61 * 61
    assert hashlib.md5(out.encode()).hexdigest() == "172861c1cd33505585e36dd279ae28c3"


_coordinate = st.floats(min_value=-0.25, max_value=1.25, allow_nan=False)
_fixed = {"v_noncoop": st.floats(0.01, 0.49), "v_coop": st.floats(0.51, 0.99),
          **dict.fromkeys(("p", "q", "r"), st.floats(0.0, 1.0))}
# Flag values at and past the bounds of a range. NaN is drawn for flags only:
# as an axis endpoint it would make the reference's linspace warn.
_edge = st.sampled_from([0.0, -0.0, 1.0, -0.25, 1.25, math.nan])


@st.composite
def grids(draw):
    names = draw(st.lists(st.sampled_from(PARAM_NAMES), min_size=1, max_size=3, unique=True))
    # One-point axes are common: the row walk skips them.
    counts = st.one_of(st.just(1), st.integers(2, 6))
    axes = [(name, draw(_coordinate), draw(_coordinate), draw(counts)) for name in names]
    fixed = {name: draw(_fixed[name]) for name in PARAM_NAMES if name not in names}
    if fixed and draw(st.booleans()):
        fixed[draw(st.sampled_from(sorted(fixed)))] = draw(_edge)
    return fixed, axes


# A subnormal r overflows the critical ratio's second term to inf, quietly.
# The smallest one makes the denominator underflow to 0, where the ratio
# must be inf as well.
@example(({"q": 0.0, "r": 2.2250738585e-313, "v_noncoop": 0.25, "v_coop": 0.75},
          [("p", 0.0, 0.0, 1)]), sweep.ROWS_PER_WRITE)
@example(({"q": 0.0, "r": 5e-324, "v_noncoop": 0.25, "v_coop": 0.75},
          [("p", 0.0, 0.0, 1)]), sweep.ROWS_PER_WRITE)
# A long outer axis over a two-point inner one: two-row spans, each written on its own.
@example(({"q": 0.1, "v_noncoop": 0.5, "v_coop": 0.75},
          [("r", 0.0, 1.0, 6), ("p", 0.0, 1.0, 2)]), 7)
# One-point spans of 0.0 and -0.0, which print differently.
@example(({"q": 0.1, "v_noncoop": 0.5, "v_coop": 0.75},
          [("r", 0.0, 1.0, 3), ("p", 0.0, -0.0, 2)]), 1)
# Spans of 2, 2 and 1 rows: a column that does not read p is longer than the last span.
@example(({"q": 0.1, "v_noncoop": 0.5, "v_coop": 0.75},
          [("r", 0.0, 1.0, 3), ("p", 0.0, 1.0, 5)]), 2)
# An inner axis that does not move, in spans of 2, 2 and 1 rows: every column is one value.
@example(({"q": 0.1, "v_noncoop": 0.5, "v_coop": 0.75},
          [("r", 0.0, 1.0, 2), ("p", 0.5, 0.5, 5)]), 2)
@settings(max_examples=300, deadline=None)
@given(grids(), st.sampled_from([1, 2, 5, 7, sweep.ROWS_PER_WRITE]))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_matches_point_by_point_reference(grid, chunk_rows):
    """Also with spans of at most a few rows, so that an inner axis is cut into several."""
    fixed, axes = grid
    expected = reference_sweep(fixed, axes)
    # Set by hand: hypothesis rejects the function-scoped monkeypatch fixture.
    default_rows, sweep.ROWS_PER_WRITE = sweep.ROWS_PER_WRITE, chunk_rows
    try:
        code, out, err = run_sweep(sweep_argv(fixed, axes))
    finally:
        sweep.ROWS_PER_WRITE = default_rows
    if isinstance(expected, set):
        assert (code, out) == (2, "") and err in expected, (err, expected)
    else:
        assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize(
    "fixed, axes, calls",
    [
        # Neither column reads the inner axis p: one call each per r value, not per row.
        ({"q": 0.1, "v_noncoop": 0.5, "v_coop": 0.75},
         [("r", 0.0, 1.0, 3), ("p", 0.0, 1.0, 5)], 3),
        # Both read the inner axis r, and neither reads p: one span each per v_noncoop value.
        ({"q": 0.1, "v_coop": 0.75},
         [("v_noncoop", 0.2, 0.4, 2), ("p", 0.0, 1.0, 3), ("r", 0.0, 1.0, 4)], 8),
        # The inner axis r does not move and neither column reads p: one call each in all.
        ({"q": 0.1, "v_noncoop": 0.5, "v_coop": 0.75},
         [("p", 0.0, 1.0, 3), ("r", 0.0, 0.0, 4)], 1),
    ],
    ids=["inner-p", "inner-r", "constant-inner-r"],
)
def test_a_column_is_evaluated_once_while_what_it_reads_is_unchanged(
    monkeypatch, fixed, axes, calls
):
    counts = dict.fromkeys(("_eu_sm", "_critical_ratio"), 0)
    for name in counts:
        def counted(*args, name=name, formula=getattr(sweep, name)):
            counts[name] += 1
            return formula(*args)
        monkeypatch.setattr(sweep, name, counted)
    assert run_sweep(sweep_argv(fixed, axes)) == (0, reference_sweep(fixed, axes), "")
    assert counts == dict.fromkeys(counts, calls)


# The only bad point is the last row of 160 000: only v_noncoop=0.5 meets v_coop=0.5.
LAST_ROW_INVALID_ARGV = ["--p", "0.8", "--q", "0.1", "--r", "0.5",
                         "--axis", "v_noncoop=0.1:0.5:400", "--axis", "v_coop=0.5:0.9:400"]
ORDER_LINE = "OrderingViolation: require 0 < v_noncoop < v_coop < 1, got {}, {}\n"


@pytest.mark.parametrize(
    "argv, line",
    [
        # p is out of range at row 0; later rows break the payoff order, which is
        # checked first, as analytic checks it first at any point.
        (["--vc", "0.5", "--q", "0.1", "--r", "0.5",
          "--axis", "v_noncoop=0.1:0.9:5", "--axis", "p=-0.5:1.5:5"],
         ORDER_LINE.format(0.5, 0.5)),
        # Both checks fail at row 0: the payoff order is reported.
        (["--vc", "0.5", "--q", "0.1", "--r", "0.5",
          "--axis", "v_noncoop=0.5:0.9:2", "--axis", "p=1.5:0:4"],
         ORDER_LINE.format(0.5, 0.5)),
        # The first bad row is 6000, in a later block of rows.
        (["--vc", "0.55", "--q", "0.1", "--r", "0.5",
          "--axis", "v_noncoop=0.2:0.6:3", "--axis", "p=0:1:3000"],
         ORDER_LINE.format(0.6, 0.55)),
        (LAST_ROW_INVALID_ARGV, ORDER_LINE.format(0.5, 0.5)),
        # q is checked before r, although the r axis is outermost and bad at row 0.
        (["--vnc", "0.5", "--vc", "0.75", "--p", "0.8",
          "--axis", "r=2:0:3", "--axis", "q=0:-1:2"],
         "InvalidProbability: q must lie in [0, 1], got -1.0\n"),
        # A NaN payoff, wherever it sits: START=1e400 makes every point but the last
        # a NaN, STOP=1e400 the first one; a NaN flag lies beside its swept partner.
        *((["--p", "0.8", "--q", "0.1", "--r", "0.5", flag, value, "--axis", axis], line)
          for flag, value, axis, line in [
              ("--vc", "0.75", "v_noncoop=1e400:0.4:3", ORDER_LINE.format(math.nan, 0.75)),
              ("--vc", "0.75", "v_noncoop=0.1:1e400:3", ORDER_LINE.format(math.nan, 0.75)),
              ("--vnc", "0.5", "v_coop=1e400:0.9:3", ORDER_LINE.format(0.5, math.nan)),
              ("--vnc", "0.5", "v_coop=0.6:1e400:3", ORDER_LINE.format(0.5, math.nan)),
              ("--vnc", "nan", "v_coop=0.6:0.9:4", ORDER_LINE.format(math.nan, 0.6)),
              ("--vc", "nan", "v_noncoop=0.1:0.4:4", ORDER_LINE.format(0.1, math.nan)),
          ]),
    ],
    ids=["payoffs-before-p", "both-bad-at-row-0", "bad-in-a-later-span", "bad-at-the-last-row",
         "q-before-an-outer-r", "nan-v_noncoop-start", "nan-v_noncoop-stop", "nan-v_coop-start",
         "nan-v_coop-stop", "nan-vnc-flag", "nan-vc-flag"],
)
def test_a_rejected_grid_prints_the_constructors_first_failing_check(argv, line):
    assert run_sweep(argv) == (2, "", line)


class CountingAxis(Sequence):
    """An axis that counts the values read from it."""

    def __init__(self, values):
        self.values, self.reads = values, 0

    def __len__(self):
        return len(self.values)

    def __getitem__(self, index):
        self.reads += 1
        return self.values[index]


def counting_axes(monkeypatch, *names):
    """The axes NAMES of the next sweep's grid, each wrapped in a CountingAxis."""
    build, axes = sweep.build_sweep_grid, {}

    def counting_grid(settings):
        grid = build(settings)
        for name in names:
            grid[name] = axes[name] = CountingAxis(grid[name])
        return grid

    monkeypatch.setattr(sweep, "build_sweep_grid", counting_grid)
    return axes


@pytest.mark.parametrize(
    "argv, line",
    [
        (LAST_ROW_INVALID_ARGV, ORDER_LINE.format(0.5, 0.5)),
        # Only the last v_coop is bad, so the largest v_noncoop is taken as well.
        (["--p", "0.8", "--q", "0.1", "--r", "0.5",
          "--axis", "v_noncoop=0.1:0.4:400", "--axis", "v_coop=0.5:1:400"],
         ORDER_LINE.format(0.4, 1.0)),
    ],
    ids=["v_noncoop-fails", "v_coop-fails"],
)
def test_rejecting_a_payoff_grid_reads_each_axis_a_bounded_number_of_times(
    monkeypatch, argv, line
):
    """Each payoff axis is read a few times over, not once per value of the other."""
    axes = counting_axes(monkeypatch, "v_noncoop", "v_coop")
    assert run_sweep(argv) == (2, "", line)
    for name, axis in axes.items():
        assert axis.reads <= 3 * len(axis), (name, axis.reads)


def test_a_long_first_axis_bad_at_its_first_value_is_not_read_whole(monkeypatch):
    """p, q and r are checked value by value, never reduced to their extremes
    first, so a bad first value ends the check at once."""
    axes = counting_axes(monkeypatch, "r")
    code, out, err = run_sweep(["--vnc", "0.5", "--vc", "0.75", "--p", "0.8", "--q", "0.1",
                                "--axis", "r=-1:1:100000"])
    assert (code, out) == (2, "")
    assert err == "InvalidProbability: r must lie in [0, 1], got -1.0\n"
    assert axes["r"].reads <= 10, axes["r"].reads


REFERENCE_POINT = {"p": 0.8, "q": 0.1, "r": 0.5, "v_noncoop": 0.5, "v_coop": 0.75}
# Each parameter at and past the bounds of its range, and a payoff pair out of order.
ONE_POINT_CASES = [
    *({name: value} for name in PARAM_NAMES for value in (0.0, -0.0, 1.0, -0.25, 1.25, math.nan)),
    {"v_noncoop": 0.8, "v_coop": 0.75},
]


@pytest.mark.parametrize("as_axis", [False, True], ids=["flag", "one-point-axis"])
@pytest.mark.parametrize(
    "change", ONE_POINT_CASES, ids=lambda change: ",".join(f"{k}={v!r}" for k, v in change.items())
)
def test_a_one_point_sweep_exits_as_analytic_does(change, as_axis):
    """A sweep whose grid is one point exits with the code and stderr line of
    ``analytic`` at that point. The changed parameters are given as flags or as
    one-point axes; a sweep needs one axis, so with flags an unchanged one is swept."""
    point = REFERENCE_POINT | change
    swept = [*change] if as_axis else [next(name for name in PARAM_NAMES if name not in change)]
    fixed = {name: value for name, value in point.items() if name not in swept}
    argv = sweep_argv(fixed, [(name, point[name], point[name], 1) for name in swept])
    code, _, err = run_sweep(argv)
    expected_code, _, expected_err = run_main(["analytic", *sweep_argv(point, [])])
    assert (code, err) == (expected_code, expected_err)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.booleans(), st.data())
def test_grid_check_names_a_nan_at_any_place_on_either_payoff_axis(lows, highs, overlap, data):
    """min and max of an axis depend on where its NaN sits, as no comparison with
    a NaN holds: the NaN fails its own check before either is taken. A NaN v_coop
    is taken as the least, so it is named also where a v_noncoop of 0.95 lies
    above every other v_coop."""
    grid = {"p": (0.8,), "q": (0.1,), "r": (0.5,),
            "v_noncoop": array("d", [0.1 + 0.05 * i for i in range(lows)]),
            "v_coop": array("d", [0.6 + 0.05 * i for i in range(highs)])}
    axis = data.draw(st.sampled_from(["v_noncoop", "v_coop"]))
    grid[axis][data.draw(st.integers(0, len(grid[axis]) - 1))] = math.nan
    if axis == "v_coop" and overlap:
        grid["v_noncoop"].append(0.95)
    with pytest.raises(OrderingViolation, match="nan"):
        sweep._check_grid(grid)


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


@needs_procfs
def test_sweep_memory_does_not_grow_with_row_count():
    def grid(p_count, r_count):
        return ["--vnc", "0.5", "--vc", "0.75", "--q", "0.1",
                "--axis", f"p=0:1:{p_count}", "--axis", f"r=0:1:{r_count}"]

    small = peak_rss_kib(["sweep", *grid(100, 100)], 0)  # 10^4 rows
    large = peak_rss_kib(["sweep", *grid(400, 500)], 0)  # 2 x 10^5 rows
    assert abs(large - small) < 4 * 1024, (small, large)


@needs_procfs
@pytest.mark.parametrize(
    "argv, expected_code, counts",
    [
        # A rejected grid is checked axis by axis, not walked row by row.
        (["--p", "0.8", "--q", "0.1", "--axis", "r=-1:1:{}"], 2, (250_000, 2_500_000)),
        # The one-point axis is not walked, so the long axis is the innermost.
        (["--q", "0.1", "--axis", "r=0:1:{}", "--axis", "p=0:0:1"], 0, (40_000, 400_000)),
        # The long axis is outermost, walked by index over a two-point inner axis.
        (["--q", "0.1", "--axis", "r=0:1:{}", "--axis", "p=0:1:2"], 0, (40_000, 400_000)),
    ],
    ids=["rejected-grid", "one-point-inner-axis", "long-outer-axis"],
)
def test_sweep_memory_per_axis_point_is_about_the_axis_itself(argv, expected_code, counts):
    """An axis point costs its 8-byte double, not a Python object per point."""
    small, large = (
        peak_rss_kib(["sweep", "--vnc", "0.5", "--vc", "0.75", *(a.format(n) for a in argv)],
                     expected_code)
        for n in counts
    )
    assert (large - small) * 1024 < 16 * (counts[1] - counts[0]), (small, large)
