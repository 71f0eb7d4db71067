"""Domain types and validation shared by every other module.

Two payoff scales coexist in this model and are easy to conflate, so they
get separate types:

* ``TransparentPayoffs`` -- the raw ordering u < u' < u'' used when
  dispositions are perfectly known (mutual defection, mutual cooperation,
  and unilateral defection against cooperators).
* ``TranslucentPayoffs`` -- the normalized scale used when recognition is
  imperfect, where exploitation is pinned at 0 and unilateral defection
  at 1, leaving only the non-cooperation and cooperation levels free.

All types are immutable after construction and reject invalid values at
construction time, so downstream code never re-checks ranges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class InvalidInput(ValueError):
    """The caller passed a bad value; the base of every argument check."""


class OrderingViolation(InvalidInput):
    """Payoff values do not respect the required strict ordering."""


class InvalidProbability(InvalidInput):
    """A probability lies outside the closed interval [0, 1]."""


class Disposition(Enum):
    """How an agent chooses in a one-shot encounter.

    A straightforward maximizer always plays the individually best reply.
    A constrained maximizer plays the cooperative joint strategy with
    partners it recognizes as like-disposed and reverts to the individual
    strategy otherwise.
    """

    STRAIGHTFORWARD = "sm"
    CONSTRAINED = "cm"


class OutcomeClass(Enum):
    """The four ways a pairwise encounter can resolve for one agent."""

    NON_COOPERATION = "non_cooperation"
    COOPERATION = "cooperation"
    DEFECTION = "defection"
    EXPLOITATION = "exploitation"


def _in_unit_interval(value: float) -> bool:
    # NaN fails both comparisons and so is rejected.
    return 0.0 <= value <= 1.0


def check_probability(name: str, value: float) -> None:
    """Raise ``InvalidProbability`` unless ``value`` lies in [0, 1]."""
    if not _in_unit_interval(value):
        raise InvalidProbability(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class TransparentPayoffs:
    """Payoff levels for the full-information analysis, u < u' < u''.

    Attributes:
        u_both_defect: each agent's payoff when everyone plays individually.
        u_coop: each agent's payoff under the cooperative joint strategy.
        u_temptation: the defector's payoff when the others cooperate.
    """

    u_both_defect: float
    u_coop: float
    u_temptation: float

    def __post_init__(self) -> None:
        # NaN fails every comparison and an infinity fails a bound.
        if not (-math.inf < self.u_both_defect < self.u_coop < self.u_temptation < math.inf):
            raise OrderingViolation(
                "require finite u_both_defect < u_coop < u_temptation, got "
                f"{self.u_both_defect!r}, {self.u_coop!r}, {self.u_temptation!r}"
            )


@dataclass(frozen=True)
class TranslucentPayoffs:
    """Normalized payoffs with exploitation fixed at 0 and defection at 1.

    The two free levels must satisfy 0 < v_noncoop < v_coop < 1 so the
    full outcome ordering is defection > cooperation > non-cooperation >
    exploitation.
    """

    v_noncoop: float
    v_coop: float

    def __post_init__(self) -> None:
        # NaN fails every comparison and so is rejected.
        if not 0.0 < self.v_noncoop < self.v_coop < 1.0:
            raise OrderingViolation(
                "require 0 < v_noncoop < v_coop < 1, got "
                f"{self.v_noncoop!r}, {self.v_coop!r}"
            )


@dataclass(frozen=True)
class TranslucencyParams:
    """Recognition and population probabilities, each in [0, 1].

    Attributes:
        p: probability that two constrained maximizers achieve mutual
            recognition and co-operate.
        q: probability that a constrained maximizer fails to recognize a
            straightforward maximizer while being recognized herself, so
            that defection and exploitation result.
        r: probability that a randomly selected population member is a
            constrained maximizer.
    """

    p: float
    q: float
    r: float

    def __post_init__(self) -> None:
        for name in ("p", "q", "r"):
            check_probability(name, getattr(self, name))
