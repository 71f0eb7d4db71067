"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; a plain ``pytest`` run still enforces every criterion.
"""

import subprocess
import sys
from contextlib import contextmanager

import numpy as np
import pytest

from dispositions_sim.analytic import (
    argument1_eus,
    argument2_eus,
    cm_rational,
    critical_ratio,
    translucent_eu_cm,
    translucent_eu_sm,
)
from dispositions_sim.core import (
    TranslucencyParams,
    TranslucentPayoffs,
    TransparentPayoffs,
)
from dispositions_sim.dynamics import evolve
from dispositions_sim.encounter import EncounterConfig
from dispositions_sim.montecarlo import estimate_eus

REFERENCE_PAY = TranslucentPayoffs(0.5, 0.75)
REFERENCE_PARAMS = TranslucencyParams(p=0.8, q=0.1, r=0.5)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {label}: FAIL")
        raise
    print(f"[acceptance] criterion {label}: PASS")


def random_translucent(rng, q_floor=0.0, r_floor=0.0):
    v_nc = rng.uniform(0.01, 0.9)
    v_c = rng.uniform(v_nc + 0.02, 0.99)
    t = TranslucencyParams(
        p=rng.uniform(0.0, 1.0),
        q=rng.uniform(q_floor, 1.0),
        r=rng.uniform(r_floor, 1.0),
    )
    return TranslucentPayoffs(v_nc, v_c), t


def test_criterion_1_closed_form_fidelity():
    """EUs at the reference point equal 0.575 and 0.525 within 1e-12."""
    with criterion("1 closed-form fidelity"):
        eu_cm = translucent_eu_cm(REFERENCE_PAY, REFERENCE_PARAMS)
        eu_sm = translucent_eu_sm(REFERENCE_PAY, REFERENCE_PARAMS)
        assert abs(eu_cm - 0.575) <= 1e-12, f"eu_cm={eu_cm!r}"
        assert abs(eu_sm - 0.525) <= 1e-12, f"eu_sm={eu_sm!r}"


def test_criterion_2_criterion_equivalence():
    """EU comparison and ratio form agree on 1000 non-boundary draws."""
    with criterion("2 criterion equivalence"):
        rng = np.random.default_rng(2)
        checked = 0
        while checked < 1000:
            pay, t = random_translucent(rng, q_floor=1e-6, r_floor=1e-6)
            margin = cm_rational(pay, t).margin
            ratio_gap = t.p / t.q - critical_ratio(pay, t.r)
            if abs(margin) < 1e-9 or abs(ratio_gap) < 1e-9:
                continue  # boundary draw, resample
            assert (margin > 0) == (ratio_gap > 0), (
                f"disagreement at pay={pay}, t={t}"
            )
            checked += 1


def test_criterion_3_monte_carlo_oracle_agreement():
    """Simulated means at n=1e6, seed 42 stay within 0.002 of closed forms."""
    with criterion("3 Monte Carlo oracle agreement"):
        configs = [(REFERENCE_PAY, REFERENCE_PARAMS)]
        rng = np.random.default_rng(3)
        configs += [random_translucent(rng) for _ in range(5)]
        for pay, t in configs:
            report = estimate_eus(EncounterConfig(payoffs=pay, params=t), 10**6, 42)
            eu_cm = translucent_eu_cm(pay, t)
            eu_sm = translucent_eu_sm(pay, t)
            assert abs(report.mean_payoff_cm - eu_cm) < 0.002, (
                f"CM deviation {abs(report.mean_payoff_cm - eu_cm)} at {pay}, {t}"
            )
            assert abs(report.mean_payoff_sm - eu_sm) < 0.002, (
                f"SM deviation {abs(report.mean_payoff_sm - eu_sm)} at {pay}, {t}"
            )


def test_criterion_4_argument_structure():
    """Across 100 random payoff triples, the exploitability assumption favors
    SM while conditional cooperation favors CM."""
    with criterion("4 argument structure"):
        rng = np.random.default_rng(4)
        for _ in range(100):
            u = rng.uniform(-5.0, 5.0)
            u1 = u + rng.uniform(0.01, 5.0)
            u2 = u1 + rng.uniform(0.01, 5.0)
            pay = TransparentPayoffs(u, u1, u2)
            p = rng.uniform(1e-9, 1.0)
            first = argument1_eus(pay, p)
            second = argument2_eus(pay, p)
            assert first.eu_sm > first.eu_cm, f"pay={pay}, p={p}"
            assert second.eu_cm > second.eu_sm, f"pay={pay}, p={p}"


def test_criterion_5_transparency_limit():
    """At p=1, q=0 the constrained disposition is rational on a 10^3 grid."""
    with criterion("5 transparency limit"):
        for v_nc in np.linspace(0.05, 0.9, 10):
            for frac in np.linspace(0.05, 0.95, 10):
                v_c = v_nc + frac * (1.0 - v_nc - 1e-9)
                pay = TranslucentPayoffs(float(v_nc), float(v_c))
                for r in np.linspace(0.1, 1.0, 10):
                    t = TranslucencyParams(p=1.0, q=0.0, r=float(r))
                    assert cm_rational(pay, t).cm_is_rational, f"{pay}, r={r}"


def test_criterion_6_monotone_phase_boundary():
    """critical_ratio strictly decreases along ascending r grids."""
    with criterion("6 monotone phase boundary"):
        rng = np.random.default_rng(6)
        for _ in range(100):
            v_nc = rng.uniform(0.01, 0.9)
            pay = TranslucentPayoffs(v_nc, rng.uniform(v_nc + 0.02, 0.99))
            grid = np.linspace(0.02, 1.0, 50)
            values = [critical_ratio(pay, float(r)) for r in grid]
            assert all(a > b for a, b in zip(values, values[1:])), f"{pay}"


def test_criterion_7_replicator_sanity():
    """Fixed points at the boundary, EU-directed motion inside, and a
    monotone reference trajectory."""
    with criterion("7 replicator sanity"):
        rng = np.random.default_rng(7)
        for _ in range(20):
            pay, t = random_translucent(rng)
            # One generation of evolve is one step of the replicator map.
            for r in (0.0, 1.0):
                assert evolve(pay, TranslucencyParams(t.p, t.q, r), 1).steps[1].r == r

        checked = 0
        while checked < 1000:
            pay, t = random_translucent(rng, r_floor=0.01)
            if t.r >= 0.99:
                continue
            margin = cm_rational(pay, t).margin
            if abs(margin) < 1e-9:
                continue  # boundary draw, resample
            delta = evolve(pay, t, 1).steps[1].r - t.r
            assert (delta > 0) == (margin > 0), f"{pay}, {t}"
            checked += 1

        trajectory = evolve(REFERENCE_PAY, REFERENCE_PARAMS, 200)
        shares = [step.r for step in trajectory.steps]
        assert all(a < b for a, b in zip(shares, shares[1:]))


def _cli_bytes(argv, threads):
    import os

    env = dict(os.environ, DISPOSITIONS_SIM_THREADS=threads)
    result = subprocess.run(
        [sys.executable, "-m", "dispositions_sim", *argv],
        capture_output=True,
        env=env,
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_criterion_8_cli_determinism():
    """simulate and sweep are byte-identical across runs and thread counts."""
    with criterion("8 CLI determinism"):
        simulate = [
            "simulate", "--vnc", "0.5", "--vc", "0.75", "--p", "0.8", "--q", "0.1",
            "--r", "0.5", "--n", "200000", "--seed", "42",
        ]
        outputs = {_cli_bytes(simulate, threads) for threads in ("0", "1", "4")}
        assert len(outputs) == 1, "simulate output varies with thread count"

        sweep = [
            "sweep", "--vnc", "0.5", "--vc", "0.75", "--p", "0.8", "--q", "0.1",
            "--axis", "r=0.05:0.95:19",
        ]
        outputs = {_cli_bytes(sweep, threads) for threads in ("0", "1", "4")}
        assert len(outputs) == 1, "sweep output varies with thread count"
