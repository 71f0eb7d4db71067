"""Replicator map: fixed points, direction law, trajectories, threshold."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dispositions_sim.analytic import (
    cm_rational,
    critical_ratio,
    translucent_eu_cm,
    translucent_eu_sm,
)
from dispositions_sim.core import InvalidProbability, TranslucencyParams, TranslucentPayoffs
from dispositions_sim import dynamics
from dispositions_sim.dynamics import (
    CONVERGENCE_TOL,
    Trajectory,
    TrajectoryStep,
    _ratio_step,
    evolve,
    interior_threshold,
)
import exact
from reference import REFERENCE_DECIMALS

PAY = TranslucentPayoffs(0.5, 0.75)


def params(p=0.8, q=0.1, r=0.5):
    return TranslucencyParams(p=p, q=q, r=r)


def next_share(pay, t):
    """The next share of constrained maximizers: one generation of ``evolve``."""
    return evolve(pay, t, 1).steps[1].r


def test_trajectory_step_record_contract(record_contract):
    record_contract(
        TrajectoryStep,
        {"generation": 0, "r": 0.5, "eu_cm": 0.575, "eu_sm": 0.525},
        "TrajectoryStep(generation=0, r=0.5, eu_cm=0.575, eu_sm=0.525)",
    )


def test_trajectory_record_contract(record_contract):
    step = TrajectoryStep(generation=0, r=0.5, eu_cm=0.575, eu_sm=0.525)
    record_contract(
        Trajectory,
        {"steps": (step,)},
        "Trajectory(steps=(TrajectoryStep(generation=0, r=0.5, eu_cm=0.575, eu_sm=0.525),))",
    )


class TestReplicatorStep:
    def test_extinction_is_a_fixed_point(self):
        assert next_share(PAY, params(r=0.0)) == 0.0

    def test_fixation_is_a_fixed_point(self):
        assert next_share(PAY, params(r=1.0)) == 1.0

    def test_reference_step_against_rational_oracle(self):
        """r' = r*eu_cm / (r*eu_cm + (1-r)*eu_sm) at the reference point."""
        assert exact.next_share(*REFERENCE_DECIMALS) == Fraction(23, 44)
        result = next_share(PAY, params())
        assert result == pytest.approx(float(Fraction(23, 44)), abs=1e-12)

    def test_direction_law_on_random_interior_states(self):
        """The share moves toward the disposition with the higher EU."""
        rng = np.random.default_rng(99)
        checked = 0
        while checked < 1000:
            v_nc = rng.uniform(0.01, 0.9)
            v_c = rng.uniform(v_nc + 0.02, 0.99)
            pay = TranslucentPayoffs(v_nc, v_c)
            t = TranslucencyParams(
                p=rng.uniform(0, 1),
                q=rng.uniform(0, 1),
                r=rng.uniform(0.01, 0.99),
            )
            margin = cm_rational(pay, t).margin
            if abs(margin) < 1e-9:
                continue  # boundary draw, resample
            delta = next_share(pay, t) - t.r
            assert (delta > 0) == (margin > 0), (
                f"direction mismatch at pay={pay}, t={t}: delta={delta}, margin={margin}"
            )
            checked += 1

    def test_share_stays_in_unit_interval_under_iteration(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v_nc = rng.uniform(0.01, 0.9)
            pay = TranslucentPayoffs(v_nc, rng.uniform(v_nc + 0.02, 0.99))
            r = rng.uniform(0, 1)
            p, q = rng.uniform(0, 1), rng.uniform(0, 1)
            for _ in range(200):
                r = next_share(pay, TranslucencyParams(p=p, q=q, r=r))
                assert 0.0 <= r <= 1.0

    def test_valid_extremes_give_a_share_in_the_unit_interval(self):
        """Subnormal, boundary and near-one inputs keep a positive total fitness."""
        probabilities = (0.0, 5e-324, 0.5, 1.0)
        shares = (0.0, -0.0, 5e-324, 0.5, 1 - 2**-53, 1.0)
        checked = 0
        for v_nc in (5e-324, 1e-310, 2.2250738585072014e-308, 0.5, 1 - 2**-52):
            # At v_nc = 1 - 2**-52 both v_coop choices are 1 - 2**-53.
            for v_c in {math.nextafter(v_nc, 1), math.nextafter(1, 0)}:
                pay = TranslucentPayoffs(v_nc, v_c)
                for p, q, r in itertools.product(probabilities, probabilities, shares):
                    t = TranslucencyParams(p=p, q=q, r=r)
                    assert 0.0 <= next_share(pay, t) <= 1.0, (pay, t)
                    checked += 1
        assert checked == 9 * 4 * 4 * 6


class TestEvolve:
    def test_reference_trajectory_is_monotone_increasing(self):
        """With p/q above the critical ratio everywhere, r climbs toward 1."""
        t0 = params(p=0.8, q=0.1, r=0.5)
        trajectory = evolve(PAY, t0, 200)
        ratio = t0.p / t0.q
        for step in trajectory.steps:
            assert ratio > critical_ratio(PAY, step.r)
        shares = [step.r for step in trajectory.steps]
        assert all(a < b for a, b in zip(shares, shares[1:]))
        assert trajectory.steps[-1].r > 0.999

    def test_recorded_eus_match_the_closed_forms(self):
        trajectory = evolve(PAY, params(), 5)
        for step in trajectory.steps:
            t = TranslucencyParams(p=0.8, q=0.1, r=step.r)
            assert step.eu_cm == translucent_eu_cm(PAY, t)
            assert step.eu_sm == translucent_eu_sm(PAY, t)

    def test_generations_strictly_increase_from_zero(self):
        trajectory = evolve(PAY, params(), 50)
        generations = [step.generation for step in trajectory.steps]
        assert generations == list(range(len(generations)))

    def test_no_recognition_gives_constant_trajectory(self):
        trajectory = evolve(PAY, params(p=0.0, q=0.0, r=0.37), 100)
        for step in trajectory.steps:
            assert step.r == pytest.approx(0.37, abs=1e-12)

    def test_extinct_start_stays_extinct(self):
        trajectory = evolve(PAY, params(r=0.0), 10)
        assert all(step.r == 0.0 for step in trajectory.steps)

    def test_fixed_start_stays_fixed(self):
        trajectory = evolve(PAY, params(r=1.0), 10)
        assert all(step.r == 1.0 for step in trajectory.steps)

    def test_one_generation_records_two_steps(self):
        trajectory = evolve(PAY, params(), 1)
        assert len(trajectory.steps) == 2
        assert trajectory.steps[0].generation == 0
        assert trajectory.steps[1].generation == 1

    def test_converged_trajectory_ends_early(self):
        trajectory = evolve(PAY, params(r=0.0), 1000)
        assert len(trajectory.steps) < 1001

    def test_a_step_equal_to_the_tolerance_does_not_stop_the_run(self, monkeypatch):
        """The run stops on a step strictly below CONVERGENCE_TOL: with the tolerance
        set to the size of the first step, that step does not end it."""
        first = evolve(PAY, params(), 1).steps
        monkeypatch.setattr(dynamics, "CONVERGENCE_TOL", abs(first[1].r - first[0].r))
        assert len(evolve(PAY, params(), 5).steps) > 2

    def test_non_positive_generations_rejected(self):
        with pytest.raises(ValueError):
            evolve(PAY, params(), 0)


def reference_evolve(pay, t0, generations):
    """The replicator loop evaluated step by step: the ratio update on both
    public closed forms, then both closed forms again for the record."""
    r, params = t0.r, t0
    steps = [TrajectoryStep(0, r, translucent_eu_cm(pay, t0), translucent_eu_sm(pay, t0))]
    for generation in range(1, generations + 1):
        r_next = _ratio_step(r, translucent_eu_cm(pay, params), translucent_eu_sm(pay, params))
        converged = abs(r_next - r) < CONVERGENCE_TOL
        r = r_next
        params = TranslucencyParams(p=t0.p, q=t0.q, r=r)
        steps.append(
            TrajectoryStep(
                generation, r, translucent_eu_cm(pay, params), translucent_eu_sm(pay, params)
            )
        )
        if converged:
            break
    return Trajectory(steps=tuple(steps))


unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def evolve_cases(draw):
    v_nc = draw(st.floats(min_value=0.01, max_value=0.95))
    pay = TranslucentPayoffs(v_nc, draw(st.floats(min_value=v_nc + 0.01, max_value=0.99)))
    r0 = draw(st.one_of(st.sampled_from([0.0, 1.0]), unit))
    t0 = TranslucencyParams(p=draw(unit), q=draw(unit), r=r0)
    return pay, t0, draw(st.integers(min_value=1, max_value=400))


# No recognition leaves r fixed, so the run converges at generation 1.
@example((PAY, TranslucencyParams(p=0.0, q=0.0, r=0.37), 50))
@example((PAY, TranslucencyParams(p=0.8, q=0.1, r=0.0), 50))
@example((PAY, TranslucencyParams(p=0.8, q=0.1, r=1.0), 50))
@settings(max_examples=150, deadline=None)
@given(evolve_cases())
def test_evolve_matches_reference_loop(case):
    pay, t0, generations = case
    assert evolve(pay, t0, generations) == reference_evolve(pay, t0, generations)


def test_reference_loop_covers_early_convergence():
    trajectory = reference_evolve(PAY, params(p=0.8, q=0.1, r=0.5), 400)
    assert len(trajectory.steps) < 401
    assert evolve(PAY, params(p=0.8, q=0.1, r=0.5), 400) == trajectory


class TestInteriorThreshold:
    def test_reference_root_is_exact(self):
        assert interior_threshold(PAY, p=0.8, q=0.1) == 0.25

    def test_reference_root_against_rational_oracle(self):
        """The EU margin is linear in r, ``a + s*r``; its root solves -a = r*s. The
        doubles 0.8 and 0.1 give p = 8q exactly, so the root is 1/4 exactly."""
        exact_root = exact.margin_root(*PAY, p=0.8, q=0.1)
        assert exact_root == Fraction(1, 4)
        root = interior_threshold(PAY, p=0.8, q=0.1)
        assert root == pytest.approx(0.25, abs=1e-9)

    def test_root_is_where_the_margin_changes_sign(self):
        root = interior_threshold(PAY, p=0.8, q=0.1)
        below = cm_rational(PAY, TranslucencyParams(p=0.8, q=0.1, r=root - 1e-6))
        above = cm_rational(PAY, TranslucencyParams(p=0.8, q=0.1, r=root + 1e-6))
        assert not below.cm_is_rational
        assert above.cm_is_rational

    def test_no_threshold_when_cm_always_loses(self):
        # p/q below the r=1 critical ratio: the margin never turns positive.
        assert interior_threshold(PAY, p=0.1, q=0.1) is None

    def test_no_threshold_without_exploitation_risk(self):
        # q = 0 makes the margin non-negative everywhere.
        assert interior_threshold(PAY, p=0.8, q=0.0) is None

    @pytest.mark.parametrize(
        "p, q",
        [(-0.1, 0.1), (1.5, 0.1), (math.nan, 0.1), (0.8, -1e-300), (0.8, 1.0000001), (0.8, math.nan)],
    )
    def test_probability_outside_unit_interval_rejected(self, p, q):
        """Bad p or q raises as ``TranslucencyParams`` does, not a None or a root."""
        with pytest.raises(InvalidProbability) as expected:
            TranslucencyParams(p=p, q=q, r=0.0)
        with pytest.raises(InvalidProbability, match=f"^{re.escape(str(expected.value))}$"):
            interior_threshold(PAY, p, q)

    def test_random_roots_against_exact_linear_solution(self):
        rng = np.random.default_rng(12)
        found = 0
        while found < 25:
            v_nc = round(rng.uniform(0.05, 0.9), 3)
            v_c = round(rng.uniform(v_nc + 0.02, 0.99), 3)
            p = round(rng.uniform(0.05, 1.0), 3)
            q = round(rng.uniform(0.05, 1.0), 3)
            pay = TranslucentPayoffs(v_nc, v_c)
            _, slope = exact.margin_line(v_nc, v_c, p, q)
            if slope <= 0:
                continue
            exact_root = exact.margin_root(v_nc, v_c, p, q)
            root = interior_threshold(pay, p, q)
            if not (0 < exact_root < 1):
                assert root is None
                continue
            assert root is not None
            assert root == pytest.approx(float(exact_root), abs=1e-8)
            found += 1
