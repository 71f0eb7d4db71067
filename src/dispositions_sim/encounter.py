"""Single pairwise encounters with sampled recognition events.

Every encounter consumes exactly one uniform draw from the supplied
stream, including the deterministic defector-vs-defector case (the draw
is discarded there). Keeping the draw count fixed per encounter means a
trial keeps its random numbers when only the disposition assignment
changes, which stabilizes paired comparisons across experiment variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Disposition,
    InvalidInput,
    OutcomeClass,
    TranslucencyParams,
    TranslucentPayoffs,
)


@dataclass(frozen=True)
class EncounterConfig:
    """Payoffs and recognition probabilities governing encounters."""

    payoffs: TranslucentPayoffs
    params: TranslucencyParams


class RngStream:
    """Deterministic uniform stream addressed by (seed, stream_id).

    Identical (seed, stream_id) pairs reproduce the identical draw
    sequence regardless of process, thread schedule, or how draws are
    batched. Distinct stream_ids under one seed give statistically
    independent streams, which is how parallel trial blocks stay
    reproducible.
    """

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        if seed < 0 or stream_id < 0:
            raise InvalidInput(
                f"seed and stream_id must be non-negative, got {seed}, {stream_id}"
            )
        self.seed = seed
        self.stream_id = stream_id
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, stream_id]))
        )

    def uniform(self) -> float:
        """Next uniform draw in [0, 1)."""
        return float(self._gen.random())

    def uniforms(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """Next ``n`` uniform draws; identical to ``n`` calls of uniform().

        With ``out``, the draws fill ``out[:n]`` and that view is returned."""
        if n < 0 or (out is not None and n > len(out)):
            room = "" if out is None else f" and <= len(out) = {len(out)}"
            raise InvalidInput(f"n must be >= 0{room}, got {n}")
        if out is None:
            return self._gen.random(n)
        return self._gen.random(out=out[:n])

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id})"


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
    draw = rng.uniform()
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
