"""Discrete-time replicator dynamics over the constrained-maximizer share.

An extension of the static analysis: treat the population fraction r of
constrained maximizers as evolving, with each disposition reproducing in
proportion to its current expected utility. The update is the ratio-form
replicator map

    r' = r * EU_cm / (r * EU_cm + (1 - r) * EU_sm)

with both expected utilities evaluated at the current r. Fixed points sit
at r = 0 and r = 1, and in between the share always moves toward the
disposition with the higher expected utility. Because the critical ratio
falls as r grows, a parameterization can favor defectors at low r and
cooperators at high r; the resulting interior unstable threshold is what
``interior_threshold`` locates.
"""

from __future__ import annotations

from collections import namedtuple

from .analytic import EuComparison, _eu_cm, _eu_sm, translucent_eu_cm, translucent_eu_sm
from .core import TranslucencyParams, TranslucentPayoffs, _index, _Record

CONVERGENCE_TOL = 1e-12


class TrajectoryStep(_Record, namedtuple("TrajectoryStep", "generation r eu_cm eu_sm")):
    """One generation: its index, the share r and both EUs at that r."""

    __slots__ = ()


class Trajectory(_Record, namedtuple("Trajectory", "steps")):
    """Recorded evolution of the population share, one step per generation.

    ``steps`` is a tuple of ``TrajectoryStep``. It ends early (before the
    requested generation count) when successive shares differ by less than
    ``CONVERGENCE_TOL``.
    """

    __slots__ = ()


def _ratio_step(r: float, eu_cm: float, eu_sm: float) -> float:
    # Scaling both EUs (at most 1) by 2**1000 is exact and cancels in the ratio:
    # no bit changes unless a subnormal v_noncoop would round both to zero. It
    # keeps the total positive for valid inputs: fitness_sm >= 2**-53 * 2**-74
    # whenever r < 1, and fitness_cm >= v_noncoop * 2**1000 at r = 1.
    fitness_cm = r * (eu_cm * 2.0**1000)
    fitness_sm = (1.0 - r) * (eu_sm * 2.0**1000)
    return fitness_cm / (fitness_cm + fitness_sm)


def evolve(
    pay: TranslucentPayoffs,
    t0: TranslucencyParams,
    generations: int,
) -> Trajectory:
    """Iterate the replicator map from t0.r, holding p and q fixed.

    Records the initial state as generation 0 and one step per subsequent
    generation, stopping early once |r' - r| < CONVERGENCE_TOL.

    Raises:
        InvalidInput: if generations < 1 or is not an integer.
    """
    generations = _index(generations, "generations", 1)

    # The inputs were validated at construction and the update keeps r in
    # [0, 1], so each generation evaluates the closed forms on bare floats.
    v_nc, v_c, p, q = pay.v_noncoop, pay.v_coop, t0.p, t0.q

    def record(generation: int, r: float) -> TrajectoryStep:
        return TrajectoryStep(generation, r, _eu_cm(v_nc, v_c, p, q, r), _eu_sm(v_nc, q, r))

    # Each step's EUs are evaluated once: recorded, then fed to the update.
    steps = [record(0, t0.r)]
    for generation in range(1, generations + 1):
        last = steps[-1]
        steps.append(record(generation, _ratio_step(last.r, last.eu_cm, last.eu_sm)))
        if abs(steps[-1].r - last.r) < CONVERGENCE_TOL:
            break
    return Trajectory(steps=tuple(steps))


def interior_threshold(
    pay: TranslucentPayoffs, p: float, q: float
) -> float | None:
    """Interior root of EU_cm(r) = EU_sm(r), or None if there is none.

    The margin EU_cm - EU_sm is linear in r. A root exists when it is negative
    at r = 0 and positive (``cm_is_rational``) at r = 1, and it is then

        q * v_noncoop / (p * (v_coop - v_noncoop) - q * (1 - 2 * v_noncoop)),

    the unstable threshold separating extinction from fixation of the
    constrained disposition.
    """
    lo, hi = (
        EuComparison(translucent_eu_sm(pay, t), translucent_eu_cm(pay, t))
        for t in (TranslucencyParams(p=p, q=q, r=r) for r in (0.0, 1.0))
    )
    if not (lo.eu_cm < lo.eu_sm and hi.cm_is_rational):
        return None
    # The margin at r = 0 is -q*v_noncoop <= 0, so the sign change puts
    # p*(v_coop - v_noncoop) above q*(1 - v_noncoop): a positive denominator.
    v_nc = pay.v_noncoop
    return q * v_nc / (p * (pay.v_coop - v_nc) - q * (1.0 - 2.0 * v_nc))
