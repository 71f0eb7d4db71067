"""Domain types and validation shared by every other module.

Two payoff scales coexist in this model and are easy to conflate, so they
get separate types:

* ``TransparentPayoffs`` -- the raw ordering u < u' < u'' used when
  dispositions are perfectly known (mutual defection, mutual cooperation,
  and unilateral defection against cooperators).
* ``TranslucentPayoffs`` -- the normalized scale used when recognition is
  imperfect, where exploitation is pinned at 0 and unilateral defection
  at 1, leaving only the non-cooperation and cooperation levels free.

The records here and in the other modules are named tuples: immutable,
iterable and indexable, equal to a plain tuple of the same values, and
checked on every construction path (the constructor, ``_make`` and
``_replace``), so downstream code never re-checks ranges.
"""

from __future__ import annotations

import math
import operator
import os
from collections import namedtuple


class InvalidInput(ValueError):
    """The caller passed a bad value; the base of every argument check."""


def _index(value, name: str, error: type[InvalidInput] = InvalidInput) -> int:
    """``value`` as an int; Python and numpy integers pass, anything else (a bool too) raises."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


_THREADS_ENV_VAR = "DISPOSITIONS_SIM_THREADS"


def resolve_workers(workers: int | None = None) -> int:
    """Worker count from the argument or DISPOSITIONS_SIM_THREADS (0 = auto)."""
    if workers is None:
        raw = os.environ.get(_THREADS_ENV_VAR, "0")
        try:
            workers = int(raw)
        except ValueError:
            raise InvalidInput(f"{_THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    workers = _index(workers, "workers")
    if workers < 0:
        raise InvalidInput(f"worker count must be >= 0, got {workers}")
    return workers or os.cpu_count() or 1


def refused(count: int, kind: str, exc: BaseException, workers: int | None = None) -> InvalidInput:
    """The error for an OS that refuses one of ``count`` ``kind`` workers (a thread, a
    pipe or a fork), read as a bad worker count. It names DISPOSITIONS_SIM_THREADS when
    that is set and ``workers`` (the count asked for) is None, as the count came from it."""
    source = (f" ({_THREADS_ENV_VAR}={os.environ[_THREADS_ENV_VAR]})"
              if workers is None and _THREADS_ENV_VAR in os.environ else "")
    return InvalidInput(f"cannot start {count} {kind} workers{source}: {exc}")


class OrderingViolation(InvalidInput):
    """Payoff values do not respect the required strict ordering."""


class InvalidProbability(InvalidInput):
    """A probability lies outside the closed interval [0, 1]."""


def check_probability(name: str, value: float) -> None:
    """Raise ``InvalidProbability`` unless ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:  # NaN fails both comparisons and so is rejected
        raise InvalidProbability(f"{name} must lie in [0, 1], got {value!r}")


class _Record:
    """Base of the named-tuple records, listed before the ``namedtuple``:
    ``_make``, and ``_replace`` through it, build through the subclass
    constructor, so no path skips the checks in its ``__new__``."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class TransparentPayoffs(
    _Record, namedtuple("TransparentPayoffs", "u_both_defect u_coop u_temptation")
):
    """Payoff levels for the full-information analysis, u < u' < u''.

    Attributes:
        u_both_defect: each agent's payoff when everyone plays individually.
        u_coop: each agent's payoff under the cooperative joint strategy.
        u_temptation: the defector's payoff when the others cooperate.
    """

    __slots__ = ()

    def __new__(cls, u_both_defect: float, u_coop: float, u_temptation: float):
        # NaN fails every comparison and an infinity fails a bound.
        if not (-math.inf < u_both_defect < u_coop < u_temptation < math.inf):
            raise OrderingViolation(
                "require finite u_both_defect < u_coop < u_temptation, got "
                f"{u_both_defect!r}, {u_coop!r}, {u_temptation!r}"
            )
        return super().__new__(cls, u_both_defect, u_coop, u_temptation)


class TranslucentPayoffs(_Record, namedtuple("TranslucentPayoffs", "v_noncoop v_coop")):
    """Normalized payoffs with exploitation fixed at 0 and defection at 1.

    The two free levels must satisfy 0 < v_noncoop < v_coop < 1 so the
    full outcome ordering is defection > cooperation > non-cooperation >
    exploitation.
    """

    __slots__ = ()

    def __new__(cls, v_noncoop: float, v_coop: float):
        # NaN fails every comparison and so is rejected.
        if not 0.0 < v_noncoop < v_coop < 1.0:
            raise OrderingViolation(
                f"require 0 < v_noncoop < v_coop < 1, got {v_noncoop!r}, {v_coop!r}"
            )
        return super().__new__(cls, v_noncoop, v_coop)


class TranslucencyParams(_Record, namedtuple("TranslucencyParams", "p q r")):
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

    __slots__ = ()

    def __new__(cls, p: float, q: float, r: float):
        for name, value in (("p", p), ("q", q), ("r", r)):
            check_probability(name, value)
        return super().__new__(cls, p, q, r)
