"""The printed decision against the exact oracle of ``exact.py``.

``cm_rational`` decides by ``eu_cm > eu_sm``, which is the sign of the float
margin for every pair of doubles (the first test below). Outside ``margin_error_bound``
of the exact margin that decision must be the exact sign, both in the library
and in the ``sweep`` column. Inside the bound the float sign may differ; the
witnesses below pin only exact values there, not today's output.
"""

import contextlib
import functools
import io
import math
import sys
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispositions_sim import EuComparison, TranslucencyParams, TranslucentPayoffs, cm_rational
from dispositions_sim.cli import main
from exact import margin, margin_error_bound, margin_root, margin_sign

# Zero, the smallest subnormal, the smallest normal, the largest double and infinity,
# each of both signs, and NaN.
_EDGES = [sign * x for x in (0.0, math.ulp(0.0), sys.float_info.min, sys.float_info.max, math.inf)
          for sign in (1.0, -1.0)] + [math.nan]
_double = st.one_of(st.floats(), st.sampled_from(_EDGES))


def _neighbour(x, steps):
    """X moved ``steps`` doubles up, or down when ``steps`` is negative."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


@st.composite
def double_pairs(draw):
    """(eu_cm, eu_sm): the first any double (NaN and infinities too) or an edge value;
    the second another such, the first itself, or a neighbour at most 3 doubles away."""
    c = draw(_double)
    return c, draw(st.one_of(_double, st.just(c), st.integers(-3, 3).map(
        functools.partial(_neighbour, c))))


@settings(max_examples=400, deadline=None)
@given(double_pairs())
def test_comparing_the_utilities_is_the_sign_of_their_difference(pair):
    """With gradual underflow, x - y rounds to 0 only when x == y, and NaN compares
    false either way, so the comparison and the margin's sign never disagree."""
    c, e = pair
    assert (c > e) == (c - e > 0.0)
    assert (c < e) == (c - e < 0.0)
    assert EuComparison(eu_sm=e, eu_cm=c).cm_is_rational == (c - e > 0.0)


_probability = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 0.1, 0.8, 1e-20]))


@st.composite
def points(draw):
    """(v_noncoop, v_coop, p, q) and an r window of 9 points: around the exact
    root, when it lies in [0, 1], at 2**k ulps of it, else anywhere in [0, 1].
    v_noncoop stays far above the subnormals, where underflow would outgrow the bound."""
    v_nc = draw(st.floats(1e-300, 0.99, exclude_max=True))
    v_c = draw(st.floats(v_nc, 1.0, exclude_min=True, exclude_max=True))
    p, q = draw(_probability), draw(_probability)
    root = margin_root(v_nc, v_c, p, q)
    if root is not None and 0 <= root <= 1:
        center = float(root)
    else:
        center = draw(st.floats(0.0, 1.0))
    half_width = 2 ** draw(st.integers(0, 60)) * math.ulp(center)
    return v_nc, v_c, p, q, max(0.0, center - half_width), min(1.0, center + half_width)


# The three witnesses of test_exact_margin_at_the_witnesses, each in an r window
# around its point: the README sweep, the false negative and a root near 0.
@example((0.5, 0.75, 0.8, 0.1, 0.25, 0.75))
@example((0.25, 0.75, 0.35000000000000003, 0.1, 0.0, 1.0))
@example((0.5, 0.75, 0.8, 1e-20, 0.0, 1e-19))
@settings(max_examples=100, deadline=None)
@given(points())
def test_the_decision_is_the_exact_sign_outside_the_error_bound(point):
    v_nc, v_c, p, q, lo, hi = point
    argv = ["sweep", "--vnc", repr(v_nc), "--vc", repr(v_c), "--p", repr(p), "--q", repr(q),
            "--axis", f"r={lo!r}:{hi!r}:9"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    for row in out.getvalue().splitlines()[1:]:
        fields = row.split(",")
        p, q, r, v_nc, v_c = map(float, fields[:5])
        m = margin(v_nc, v_c, p, q, r)
        if abs(m) <= margin_error_bound(v_nc, v_c, p, q, r):
            continue
        exact = m > 0
        assert fields[9] == ("true" if exact else "false"), row
        decided = cm_rational(TranslucentPayoffs(v_nc, v_c), TranslucencyParams(p, q, r))
        assert decided.cm_is_rational == exact, row


def test_exact_margin_at_the_witnesses():
    """The exact values at the three points where the float decision is not exact."""
    # A false negative: the float margin rounds to 0 above the tie.
    above = margin(0.25, 0.75, 0.35000000000000003, 0.1, 0.2)
    assert above == Fraction(3602879701896397, 2**110)
    assert float(above) == 2.7755575615628915e-18
    # The README sweep point at r = 0.25: the doubles 0.8 and 0.1 give p = 8q, a tie.
    assert margin(0.5, 0.75, 0.8, 0.1, 0.25) == 0
    assert margin_sign(0.5, 0.75, 0.8, 0.1, 0.25) == 0
    # A root of about 2.5e-20, where the margin at r = 0 is below 0.
    root = margin_root(0.5, 0.75, 0.8, 1e-20)
    assert margin(0.5, 0.75, 0.8, 1e-20, 0.0) < 0
    assert margin(0.5, 0.75, 0.8, 1e-20, root) == 0
    assert float(root) == 2.4999999999999996e-20
