"""Workload inputs: the CLI invocations each workload makes, derived from a seed.

An ``Op`` is one CLI invocation. Its flags are kept as the exact strings
passed on the command line, so the output checks parse them the same way
the CLI does (``float(text)``) and re-derive identical doubles.

Each workload is a list of ops that the timing loop cycles through, one
invocation at a time (a closed loop with one client).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("mc_oracle", "sweep_grid", "cli_short")

MC_TRIALS = 20_000_000
SHORT_SIM_TRIALS = 65_536
SHORT_GENERATIONS = 1000
SHORT_POINTS = 4
SHORT_CYCLE = ("analytic", "evolve", "simulate", "sweep")

MC_POINT = {"vnc": "0.5", "vc": "0.75", "p": "0.8", "q": "0.1", "r": "0.5"}
SWEEP_FIXED = {"vc": "0.75", "q": "0.1"}
SWEEP_AXES = ("v_noncoop=0.05:0.45:9", "p=0:1:101", "r=0:1:101")
SHORT_SWEEP_AXIS = "r=0:1:11"

# Distinct simulate seeds per run of mc_oracle; the loop cycles through them.
_MC_OPS = 4


@dataclass(frozen=True)
class Op:
    """One CLI invocation: subcommand, flags in order, and repeated --axis specs."""

    command: str
    flags: tuple[tuple[str, str], ...]
    axes: tuple[str, ...] = ()

    def flag(self, name: str) -> str:
        return dict(self.flags)[name]

    def argv(self) -> list[str]:
        out = [self.command]
        for name, value in self.flags:
            out += [f"--{name}", value]
        for spec in self.axes:
            out += ["--axis", spec]
        return out


@dataclass(frozen=True)
class Workload:
    """Ops cycled by the timing loop; ``unit`` ops make one reported operation."""

    name: str
    ops: tuple[Op, ...]
    unit: int


def _simulate_op(point: dict[str, str], n: int, seed: int) -> Op:
    return Op("simulate", tuple(point.items()) + (("n", str(n)), ("seed", str(seed))))


def _draw(rng: random.Random, lo: float, hi: float) -> str:
    return repr(round(rng.uniform(lo, hi), 3))


def _generations_to_converge(vnc: float, vc: float, p: float, q: float, r: float) -> int:
    """Replicator generations until the share moves by under 1e-12.

    Computed here rather than by the package, so that the inputs a seed gives
    do not depend on the code under test.
    """
    for generation in range(1, SHORT_GENERATIONS + 1):
        eu_cm = vnc + r * p * (vc - vnc) - (1 - r) * q * vnc
        eu_sm = vnc + r * q * (1 - vnc)
        r_next = r * eu_cm / (r * eu_cm + (1 - r) * eu_sm)
        if abs(r_next - r) < 1e-12:
            return generation
        r = r_next
    return SHORT_GENERATIONS + 1


def short_point(rng: random.Random) -> tuple[dict[str, str], int]:
    """A parameter point whose replicator run has an interior threshold and
    converges well before the generation cap, plus a simulate seed."""
    while True:
        vnc = _draw(rng, 0.3, 0.6)
        vc = _draw(rng, float(vnc) + 0.1, 0.95)
        q = _draw(rng, 0.05, 0.2)
        p = _draw(rng, 0.5, 1.0)
        r = _draw(rng, 0.2, 0.8)
        sim_seed = rng.randrange(2**31)
        values = [float(v) for v in (vnc, vc, p, q, r)]
        # The EU margin is linear in r and negative at r = 0, so an interior
        # threshold exists iff the margin at r = 1 is positive.
        has_threshold = values[2] * (values[1] - values[0]) > values[3] * (1 - values[0])
        if has_threshold and _generations_to_converge(*values) < 0.9 * SHORT_GENERATIONS:
            return {"vnc": vnc, "vc": vc, "p": p, "q": q, "r": r}, sim_seed


def build(name: str, seed: int) -> Workload:
    """The ops of workload ``name`` for benchmark seed ``seed``."""
    rng = random.Random(seed)
    if name == "mc_oracle":
        ops = tuple(
            _simulate_op(MC_POINT, MC_TRIALS, rng.randrange(2**31)) for _ in range(_MC_OPS)
        )
        return Workload(name, ops, unit=1)
    if name == "sweep_grid":
        return Workload(name, (Op("sweep", tuple(SWEEP_FIXED.items()), SWEEP_AXES),), unit=1)
    if name == "cli_short":
        ops: list[Op] = []
        for _ in range(SHORT_POINTS):
            point, sim_seed = short_point(rng)
            r0 = point["r"]
            common = tuple((k, point[k]) for k in ("vnc", "vc", "p", "q"))
            ops += [
                Op("analytic", tuple(point.items())),
                Op("evolve", common + (("r0", r0), ("generations", str(SHORT_GENERATIONS)))),
                _simulate_op(point, SHORT_SIM_TRIALS, sim_seed),
                Op("sweep", common, (SHORT_SWEEP_AXIS,)),
            ]
        return Workload(name, tuple(ops), unit=len(SHORT_CYCLE))
    raise ValueError(f"unknown workload {name!r}, expected one of {', '.join(WORKLOADS)}")
