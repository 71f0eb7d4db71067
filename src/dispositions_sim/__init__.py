"""Expected-utility analysis of maximizing dispositions in the one-shot
Prisoner's Dilemma under opacity, transparency and imperfect recognition,
validated by Monte Carlo simulation and extended with replicator dynamics.
"""

from .analytic import (
    EuComparison,
    argument1_eus,
    argument2_eus,
    cm_rational,
    critical_ratio,
    translucent_eu_cm,
    translucent_eu_sm,
)
from .core import (
    Disposition,
    EncounterOutcome,
    InvalidInput,
    InvalidProbability,
    NonFiniteValue,
    OrderingViolation,
    OutcomeClass,
    TranslucencyParams,
    TranslucentPayoffs,
    TransparentPayoffs,
)
from .dynamics import (
    DegenerateFitness,
    Trajectory,
    TrajectoryStep,
    evolve,
    interior_threshold,
    replicator_step,
)
from .encounter import EncounterConfig, RngStream, resolve_encounter
from .montecarlo import InvalidTrialCount, TrialReport, estimate_eus

__version__ = "0.1.0"

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
    "DegenerateFitness",
    "replicator_step",
    "evolve",
    "interior_threshold",
    "__version__",
]
