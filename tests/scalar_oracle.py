"""The scalar encounter spec: the test oracle of the Monte Carlo kernel.

One encounter and one trial at a time, written straight from the encounter
rules. ``montecarlo._run_block`` must count the same outcomes from the same
streams (``test_montecarlo.py`` checks it).

Every encounter consumes exactly one uniform draw from the supplied stream,
including the deterministic defector-vs-defector case (the draw is discarded
there). Keeping the draw count fixed per encounter means a trial keeps its
random numbers when only the disposition assignment changes, which
stabilizes paired comparisons across experiment variants.
"""

from dispositions_sim.core import Disposition, OutcomeClass
from dispositions_sim.encounter import EncounterConfig, RngStream


def uniform(rng: RngStream) -> float:
    """The stream's next uniform draw in [0, 1)."""
    return float(rng.uniforms(1)[0])


def resolve_encounter(
    a: Disposition,
    b: Disposition,
    cfg: EncounterConfig,
    rng: RngStream,
) -> tuple[OutcomeClass, OutcomeClass]:
    """Resolve one encounter to the outcome classes (of a, of b).

    Cases:
      * both straightforward: mutual non-cooperation (one draw consumed
        and discarded).
      * both constrained: with probability p mutual recognition succeeds
        and both cooperate; otherwise both fall back to non-cooperation.
        Recognition is a single joint event, not two per-agent detections.
      * mixed: with probability q the constrained agent is exploited while
        the straightforward agent defects; every other sub-case collapses
        to mutual non-cooperation.
    """
    draw = uniform(rng)
    noncoop = OutcomeClass.NON_COOPERATION, OutcomeClass.NON_COOPERATION

    if a is Disposition.STRAIGHTFORWARD and b is Disposition.STRAIGHTFORWARD:
        return noncoop

    if a is Disposition.CONSTRAINED and b is Disposition.CONSTRAINED:
        if draw < cfg.params.p:
            return OutcomeClass.COOPERATION, OutcomeClass.COOPERATION
        return noncoop

    # Mixed pair: exploitation happens with probability q.
    if draw < cfg.params.q:
        if a is Disposition.CONSTRAINED:
            return OutcomeClass.EXPLOITATION, OutcomeClass.DEFECTION
        return OutcomeClass.DEFECTION, OutcomeClass.EXPLOITATION
    return noncoop


def run_trial(
    cfg: EncounterConfig,
    partner_rng: RngStream,
    cm_rng: RngStream,
    sm_rng: RngStream,
) -> tuple[OutcomeClass, OutcomeClass]:
    """Resolve one trial's two encounters, returning the focal outcome classes.

    This is the scalar definition the vectorized blocks must agree with:
    sample the partner disposition once, then resolve the encounter with
    the focal agent constrained and again straightforward, on independent
    recognition streams.
    """
    partner = (
        Disposition.CONSTRAINED
        if uniform(partner_rng) < cfg.params.r
        else Disposition.STRAIGHTFORWARD
    )
    cm_outcome, _ = resolve_encounter(Disposition.CONSTRAINED, partner, cfg, cm_rng)
    sm_outcome, _ = resolve_encounter(Disposition.STRAIGHTFORWARD, partner, cfg, sm_rng)
    return cm_outcome, sm_outcome
