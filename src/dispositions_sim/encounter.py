"""The Monte Carlo estimator's inputs: the encounter configuration and the
deterministic uniform stream.

The module holds only these two. ``montecarlo._run_block`` applies the
encounter rules, a block of encounters at a time.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .core import InvalidInput, _index, _Record


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
        seed, stream_id = _index(seed, "seed"), _index(stream_id, "stream_id")
        if seed < 0 or stream_id < 0:
            raise InvalidInput(
                f"seed and stream_id must be non-negative, got {seed}, {stream_id}"
            )
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, stream_id]))
        )

    def uniforms(self, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` with the next ``out.size`` uniform draws in [0, 1), in
        memory order, and return it; identical to ``out.size`` single draws."""
        try:
            return self._gen.random(out=out)
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"out must be a writable, contiguous float64 array: {exc}") from exc
