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

import numpy as np

from dispositions_sim.encounter import EncounterConfig, RngStream


def uniform(rng: RngStream) -> float:
    """The stream's next uniform draw in [0, 1), through a one-slot buffer."""
    return float(rng.uniforms(np.empty(1))[0])


def resolve_encounter(
    a: str,
    b: str,
    cfg: EncounterConfig,
    rng: RngStream,
) -> tuple[str, str]:
    """Resolve one encounter between dispositions A and B, each ``"cm"``
    (constrained) or ``"sm"`` (straightforward), to the outcomes (of a, of b):
    the ``TrialReport.outcome_histogram`` keys.

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
    noncoop = "non_cooperation", "non_cooperation"

    if a == "sm" and b == "sm":
        return noncoop

    if a == "cm" and b == "cm":
        if draw < cfg.params.p:
            return "cooperation", "cooperation"
        return noncoop

    # Mixed pair: exploitation happens with probability q.
    if draw < cfg.params.q:
        if a == "cm":
            return "exploitation", "defection"
        return "defection", "exploitation"
    return noncoop


def run_trial(
    cfg: EncounterConfig,
    partner_rng: RngStream,
    cm_rng: RngStream,
    sm_rng: RngStream,
) -> tuple[str, str]:
    """Resolve one trial's two encounters, returning the focal outcomes.

    This is the scalar definition the vectorized blocks must agree with:
    sample the partner disposition once, then resolve the encounter with
    the focal agent constrained and again straightforward, on independent
    recognition streams.
    """
    partner = "cm" if uniform(partner_rng) < cfg.params.r else "sm"
    cm_outcome, _ = resolve_encounter("cm", partner, cfg, cm_rng)
    sm_outcome, _ = resolve_encounter("sm", partner, cfg, sm_rng)
    return cm_outcome, sm_outcome
