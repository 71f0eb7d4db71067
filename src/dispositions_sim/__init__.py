"""Expected-utility analysis of maximizing dispositions in the one-shot
Prisoner's Dilemma under opacity, transparency and imperfect recognition,
validated by Monte Carlo simulation and extended with replicator dynamics.
"""

import importlib

from .analytic import (
    EuComparison, argument1_eus, argument2_eus, cm_rational, critical_ratio,
    translucent_eu_cm, translucent_eu_sm,
)
from .core import (
    Disposition, EncounterOutcome, InvalidInput, InvalidProbability, NonFiniteValue,
    OrderingViolation, OutcomeClass, TranslucencyParams, TranslucentPayoffs,
    TransparentPayoffs,
)
from .dynamics import (
    Trajectory, TrajectoryStep, evolve, interior_threshold, replicator_step,
)

__version__ = "0.1.0"

# The Monte Carlo names need numpy, so they load on first use (PEP 562): the
# closed forms, the replicator model and the CLI's other commands need none.
_LAZY = dict.fromkeys(("EncounterConfig", "RngStream", "resolve_encounter"), "encounter")
_LAZY.update(dict.fromkeys(("TrialReport", "InvalidTrialCount", "estimate_eus"), "montecarlo"))


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


__all__ = [
    "Disposition",
    "OutcomeClass",
    "TransparentPayoffs",
    "TranslucentPayoffs",
    "TranslucencyParams",
    "EncounterOutcome",
    "InvalidInput",
    "OrderingViolation",
    "NonFiniteValue",
    "InvalidProbability",
    "EuComparison",
    "argument1_eus",
    "argument2_eus",
    "translucent_eu_cm",
    "translucent_eu_sm",
    "critical_ratio",
    "cm_rational",
    "EncounterConfig",
    "RngStream",
    "resolve_encounter",
    "TrialReport",
    "InvalidTrialCount",
    "estimate_eus",
    "Trajectory",
    "TrajectoryStep",
    "replicator_step",
    "evolve",
    "interior_threshold",
    "__version__",
]
