"""Closed-form expected utilities and the rationality criterion.

Under full information two classic arguments disagree about which
disposition maximizes expected utility; ``argument1_eus`` and
``argument2_eus`` compute both. Under imperfect recognition the expected
utilities of the two dispositions become

    EU_cm = v_noncoop + r*p*(v_coop - v_noncoop) - (1 - r)*q*v_noncoop
    EU_sm = v_noncoop + r*q*(1 - v_noncoop)

and choosing the constrained disposition is rational exactly when
EU_cm > EU_sm, which for q > 0 and r > 0 is equivalent to p/q exceeding
``critical_ratio``. Ties count as not rational: the criterion is strict.

All functions here are pure; identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .core import (
    TranslucencyParams,
    TranslucentPayoffs,
    TransparentPayoffs,
    _Record,
    check_probability,
)


class EuComparison(_Record, namedtuple("EuComparison", "eu_sm eu_cm")):
    """Expected utilities of the two dispositions and their comparison.

    Only the utilities are stored: ``margin`` (eu_cm - eu_sm) and
    ``cm_is_rational`` (the margin is strictly positive; a tie is not
    rational) are derived on each read, so neither can contradict them.
    """

    __slots__ = ()

    @property
    def margin(self) -> float:
        return self.eu_cm - self.eu_sm

    @property
    def cm_is_rational(self) -> bool:
        return self.margin > 0.0


def argument1_eus(pay: TransparentPayoffs, p: float) -> EuComparison:
    """Expected utilities when each disposition is assumed exploitable.

    Treats the partner mix as fixed regardless of one's own disposition:
    with probability ``p`` the others cooperate, so a straightforward
    maximizer collects the temptation payoff while a constrained one
    collects the cooperative payoff. Under this (flawed) assumption the
    straightforward disposition dominates; the flaw is that conditional
    cooperators do not cooperate with recognized defectors, which is what
    ``argument2_eus`` corrects.
    """
    check_probability("p", p)
    eu_sm = p * pay.u_temptation + (1.0 - p) * pay.u_both_defect
    eu_cm = p * pay.u_coop + (1.0 - p) * pay.u_both_defect
    return EuComparison(eu_sm=eu_sm, eu_cm=eu_cm)


def argument2_eus(pay: TransparentPayoffs, p: float) -> EuComparison:
    """Expected utilities when cooperation is conditional on recognition.

    A straightforward maximizer is never admitted to the joint strategy,
    so her expectation is the mutual-defection payoff. A constrained
    maximizer cooperates with the like-disposed (probability ``p``) and
    defects otherwise, so her expectation is p*u_coop + (1-p)*u_both_defect,
    which strictly exceeds u_both_defect whenever p > 0.
    """
    return argument1_eus(pay, p)._replace(eu_sm=pay.u_both_defect)


# The closed forms, written once for every caller: the public functions below,
# ``dynamics.evolve`` and the ``sweep`` grid evaluate the same operations in
# the same order, so they give the same bits.


def _eu_cm(v_noncoop, v_coop, p, q, r):
    return v_noncoop + r * p * (v_coop - v_noncoop) - (1.0 - r) * q * v_noncoop


def _eu_sm(v_noncoop, q, r):
    return v_noncoop + r * q * (1.0 - v_noncoop)


def _critical_ratio(v_noncoop, v_coop, r):
    gain = v_coop - v_noncoop
    # r == 0, or an r*gain that underflows to 0: no finite ratio suffices.
    if r * gain == 0.0:
        return math.inf
    return (1.0 - v_noncoop) / gain + ((1.0 - r) * v_noncoop) / (r * gain)


def translucent_eu_cm(pay: TranslucentPayoffs, t: TranslucencyParams) -> float:
    """Expected utility of the constrained disposition under imperfect
    recognition.

    Baseline v_noncoop, raised by r*p*(v_coop - v_noncoop) for successful
    mutual recognition among like-disposed partners, and lowered by
    (1-r)*q*v_noncoop for being exploited by an unrecognized defector.
    """
    return _eu_cm(pay.v_noncoop, pay.v_coop, t.p, t.q, t.r)


def translucent_eu_sm(pay: TranslucentPayoffs, t: TranslucencyParams) -> float:
    """Expected utility of the straightforward disposition under imperfect
    recognition.

    Baseline v_noncoop, raised by r*q*(1 - v_noncoop) for the chance of
    exploiting a constrained partner who fails to see through her.
    """
    return _eu_sm(pay.v_noncoop, t.q, t.r)


def critical_ratio(pay: TranslucentPayoffs, r: float) -> float:
    """Threshold that p/q must exceed for the constrained disposition to win.

    Returns
        (1 - v_noncoop) / (v_coop - v_noncoop)
            + (1 - r) * v_noncoop / (r * (v_coop - v_noncoop)),
    or ``math.inf`` when r == 0 (no constrained partners exist, so no
    finite recognition advantage suffices) or r*(v_coop - v_noncoop)
    underflows to 0. The value is strictly decreasing in r on (0, 1].
    """
    check_probability("r", r)
    return _critical_ratio(pay.v_noncoop, pay.v_coop, r)


def cm_rational(pay: TranslucentPayoffs, t: TranslucencyParams) -> EuComparison:
    """Compare the two translucent expected utilities.

    The comparison of expected utilities is the primary definition; for
    q > 0 and r > 0 it coincides with p/q > critical_ratio(pay, r). The
    boolean is computed from the margin directly so that q = 0, where the
    ratio form is undefined, needs no special-casing.
    """
    return EuComparison(
        eu_sm=translucent_eu_sm(pay, t),
        eu_cm=translucent_eu_cm(pay, t),
    )
