"""The scalar encounter spec: the test oracle of the Monte Carlo kernel.

One encounter and one trial at a time, written straight from the encounter
rules. ``montecarlo._run_block`` must count the same outcomes from the same
stream addresses (``test_montecarlo.py`` checks it).

Every draw comes from ``stream.random()``, where a stream is one of the
pure-Python spec ``tests/pcg64.py``'s: the oracle imports neither numpy nor
any module of the package, so it shares no code with the kernel it checks.

Every encounter consumes exactly one uniform draw from the supplied stream,
including the deterministic defector-vs-defector case (the draw is discarded
there). Keeping the draw count fixed per encounter means a trial keeps its
random numbers when only the disposition assignment changes, which
stabilizes paired comparisons across experiment variants.
"""


def resolve_encounter(a: str, b: str, cfg, stream) -> tuple[str, str]:
    """Resolve one encounter between dispositions A and B, each ``"cm"``
    (constrained) or ``"sm"`` (straightforward), to the outcomes (of a, of b):
    the ``TrialReport.outcome_histogram`` keys. ``cfg.params`` holds the
    recognition probabilities p and q.

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
    draw = stream.random()
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


def run_trial(cfg, partner_stream, cm_stream, sm_stream) -> tuple[str, str]:
    """Resolve one trial's two encounters, returning the focal outcomes.

    This is the scalar definition the vectorized blocks must agree with:
    sample the partner disposition once, then resolve the encounter with
    the focal agent constrained and again straightforward, on independent
    recognition streams.
    """
    partner = "cm" if partner_stream.random() < cfg.params.r else "sm"
    cm_outcome, _ = resolve_encounter("cm", partner, cfg, cm_stream)
    sm_outcome, _ = resolve_encounter("sm", partner, cfg, sm_stream)
    return cm_outcome, sm_outcome
