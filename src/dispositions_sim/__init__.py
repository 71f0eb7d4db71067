"""Expected-utility analysis of maximizing dispositions in the one-shot
Prisoner's Dilemma under opacity, transparency and imperfect recognition,
validated by Monte Carlo simulation and extended with replicator dynamics.
"""

import importlib

__version__ = "0.1.0"

# Module -> its public names, in __all__ order; each loads on first access (PEP 562).
_PUBLIC = {
    "core": ("TransparentPayoffs", "TranslucentPayoffs", "TranslucencyParams",
             "InvalidInput", "OrderingViolation", "InvalidProbability"),
    "analytic": ("EuComparison", "argument1_eus", "argument2_eus", "translucent_eu_cm",
                 "translucent_eu_sm", "critical_ratio", "cm_rational"),
    "encounter": ("EncounterConfig", "RngStream"),
    "montecarlo": ("TrialReport", "InvalidTrialCount", "estimate_eus"),
    "dynamics": ("Trajectory", "TrajectoryStep", "evolve", "interior_threshold"),
}
_LAZY = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_LAZY, "__version__"]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
