"""Exact arithmetic for what the tool prints and decides: the test oracle.

Every value here is a ``fractions.Fraction`` computed from doubles, so a
value checks a printed row exactly: a printed double round-trips through
its 17 significant digits. What is exact is the decision about those
doubles, not about the decimals a user may have meant (the double 0.35 is
0.34999999999999998).

The EU margin ``eu_cm - eu_sm`` is linear in r:

    margin(r) = a + s*r,  a = -q*v_noncoop,
                          s = p*(v_coop - v_noncoop) - q*(1 - 2*v_noncoop).

The float margin the tool prints is the difference of two rounded EUs. Its
error is at most a few units of roundoff times the sum of the absolute
values of the terms the two EUs add up (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., ch. 3), so where the exact margin exceeds
``margin_error_bound`` in absolute value, its float sign is the exact sign.
The bound covers rounding only: an underflow's absolute error can exceed
it when ``v_noncoop`` is itself near the smallest subnormal.
"""

import sys
from fractions import Fraction

EPS = Fraction(sys.float_info.epsilon)  # 2**-52


def lottery_eu(branches):
    """Exact expected utility of a finite lottery given (prob, payoff) pairs."""
    total = sum(Fraction(prob) * Fraction(payoff) for prob, payoff in branches)
    assert sum(Fraction(prob) for prob, _ in branches) == 1
    return float(total)


def eu_cm(v_noncoop, v_coop, p, q, r):
    """The constrained disposition's exact EU, the mean of its outcome lottery:
    a constrained partner (r) recognised (p) cooperates, a straightforward one
    (1 - r) unrecognised (q) exploits it for 0, and otherwise both defect."""
    v_nc, v_c, p, q, r = map(Fraction, (v_noncoop, v_coop, p, q, r))
    return r * (p * v_c + (1 - p) * v_nc) + (1 - r) * (1 - q) * v_nc


def eu_sm(v_noncoop, q, r):
    """The straightforward disposition's exact EU: it exploits a constrained
    partner (r) that fails to see through it (q) for 1, and otherwise both defect."""
    v_nc, q, r = map(Fraction, (v_noncoop, q, r))
    return r * (q + (1 - q) * v_nc) + (1 - r) * v_nc


def critical_ratio(v_noncoop, v_coop, r):
    """The exact p/q at which the margin at r > 0 is zero: a larger p/q makes it
    positive."""
    v_nc, v_c, r = map(Fraction, (v_noncoop, v_coop, r))
    return (v_nc + r * (1 - 2 * v_nc)) / (r * (v_c - v_nc))


def next_share(v_noncoop, v_coop, p, q, r):
    """The exact share of constrained maximizers one replicator generation after r."""
    cm, sm, r = eu_cm(v_noncoop, v_coop, p, q, r), eu_sm(v_noncoop, q, r), Fraction(r)
    return r * cm / (r * cm + (1 - r) * sm)


def margin_line(v_noncoop, v_coop, p, q):
    """``(a, s)``: the exact margin is ``a + s*r``."""
    v_nc, v_c, p, q = map(Fraction, (v_noncoop, v_coop, p, q))
    return -q * v_nc, p * (v_c - v_nc) - q * (1 - 2 * v_nc)


def margin(v_noncoop, v_coop, p, q, r):
    """The exact margin ``eu_cm - eu_sm`` at r."""
    a, s = margin_line(v_noncoop, v_coop, p, q)
    return a + s * Fraction(r)


def margin_sign(v_noncoop, v_coop, p, q, r):
    """-1, 0 or 1: the exact sign of the margin at r. The constrained
    disposition is rational exactly when it is 1."""
    m = margin(v_noncoop, v_coop, p, q, r)
    return (m > 0) - (m < 0)


def margin_root(v_noncoop, v_coop, p, q):
    """The r at which the exact margin is 0, or None where the line is flat."""
    a, s = margin_line(v_noncoop, v_coop, p, q)
    return None if s == 0 else -a / s


def margin_error_bound(v_noncoop, v_coop, p, q, r):
    """``8*EPS`` times the sum of the absolute values of the EU terms,
    2*v_nc + r*p*(v_c - v_nc) + (1 - r)*q*v_nc + r*q*(1 - v_nc): outside it
    the float margin has the exact margin's sign."""
    v_nc, v_c, p, q, r = map(Fraction, (v_noncoop, v_coop, p, q, r))
    terms = 2 * v_nc + r * p * (v_c - v_nc) + (1 - r) * q * v_nc + r * q * (1 - v_nc)
    return 8 * EPS * terms
