"""The Monte Carlo estimator's inputs: the encounter configuration and the
deterministic uniform stream.

The module holds only these two. ``montecarlo._run_block`` applies the
encounter rules, a block of encounters at a time.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .core import InvalidInput, _Record


class EncounterConfig(_Record, namedtuple("EncounterConfig", "payoffs params")):
    """Payoffs (``TranslucentPayoffs``) and recognition probabilities
    (``TranslucencyParams``) governing encounters."""

    __slots__ = ()


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
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, stream_id]))
        )

    def uniforms(self, n: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out[:n]`` with the next ``n`` uniform draws in [0, 1) and
        return that view; identical to ``n`` single draws."""
        if not 0 <= n <= len(out):
            raise InvalidInput(f"n must be >= 0 and <= len(out) = {len(out)}, got {n}")
        return self._gen.random(out=out[:n])
