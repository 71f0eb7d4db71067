"""Closed-form expected utilities against exact-rational oracles.

The independent oracle for every derived value here is exact arithmetic
over ``fractions.Fraction``: the same lottery is enumerated outcome by
outcome with rational probabilities and payoffs, and the float result
must agree within 1e-12 absolute.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispositions_sim.analytic import (
    EuComparison,
    argument1_eus,
    argument2_eus,
    cm_rational,
    critical_ratio,
    translucent_eu_cm,
    translucent_eu_sm,
)
from dispositions_sim.core import (
    InvalidProbability,
    TranslucencyParams,
    TranslucentPayoffs,
    TransparentPayoffs,
)
import exact
from reference import REFERENCE_DECIMALS

ANALYTIC_TOL = 1e-12
HALF = Fraction(1, 2)


@st.composite
def transparent_payoffs(draw):
    u = draw(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    u1 = draw(st.floats(min_value=u + 0.01, max_value=u + 20.0, allow_nan=False))
    u2 = draw(st.floats(min_value=u1 + 0.01, max_value=u1 + 20.0, allow_nan=False))
    return TransparentPayoffs(u, u1, u2)


@st.composite
def translucent_payoffs(draw):
    v_nc = draw(st.floats(min_value=0.01, max_value=0.95, allow_nan=False))
    v_c = draw(st.floats(min_value=v_nc + 0.01, max_value=0.99, allow_nan=False))
    return TranslucentPayoffs(v_nc, v_c)


class TestArgument1:
    def test_example_against_lottery_oracle(self):
        """SM gets p*u_temptation + (1-p)*u, CM gets p*u_coop + (1-p)*u."""
        pay = TransparentPayoffs(0.2, 0.6, 0.9)
        expected_sm = exact.lottery_eu([(HALF, Fraction("0.9")), (HALF, Fraction("0.2"))])
        expected_cm = exact.lottery_eu([(HALF, Fraction("0.6")), (HALF, Fraction("0.2"))])
        assert expected_sm == 0.55 and expected_cm == 0.40
        result = argument1_eus(pay, 0.5)
        assert result.eu_sm == pytest.approx(0.55, abs=ANALYTIC_TOL)
        assert result.eu_cm == pytest.approx(0.40, abs=ANALYTIC_TOL)
        assert not result.cm_is_rational

    def test_p_zero_collapses_both_lotteries(self):
        pay = TransparentPayoffs(0.2, 0.6, 0.9)
        result = argument1_eus(pay, 0.0)
        assert result.eu_sm == result.eu_cm == 0.2
        assert not result.cm_is_rational

    def test_p_one_selects_certain_branch(self):
        pay = TransparentPayoffs(0.0, 0.5, 1.0)
        result = argument1_eus(pay, 1.0)
        assert result.eu_sm == 1.0
        assert result.eu_cm == 0.5

    def test_p_out_of_range_rejected(self):
        with pytest.raises(InvalidProbability):
            argument1_eus(TransparentPayoffs(0.2, 0.6, 0.9), 1.5)


class TestArgument2:
    def test_example_against_lottery_oracle(self):
        pay = TransparentPayoffs(0.2, 0.6, 0.9)
        expected_cm = exact.lottery_eu([(HALF, Fraction("0.6")), (HALF, Fraction("0.2"))])
        assert expected_cm == 0.40
        result = argument2_eus(pay, 0.5)
        assert result.eu_sm == pytest.approx(0.20, abs=ANALYTIC_TOL)
        assert result.eu_cm == pytest.approx(0.40, abs=ANALYTIC_TOL)
        assert result.cm_is_rational

    def test_p_zero_equalizes(self):
        pay = TransparentPayoffs(0.2, 0.6, 0.9)
        result = argument2_eus(pay, 0.0)
        assert result.margin == 0.0
        assert not result.cm_is_rational

    def test_p_one_gives_certain_cooperation(self):
        pay = TransparentPayoffs(0.0, 0.5, 0.9)
        result = argument2_eus(pay, 1.0)
        assert result.eu_cm == 0.5
        assert result.eu_sm == 0.0

    @given(pay=transparent_payoffs(), p=st.floats(min_value=1e-9, max_value=1.0))
    @settings(deadline=None, max_examples=300)
    def test_argument_structure(self, pay, p):
        """For p > 0, the first argument favors SM and the second favors CM."""
        first = argument1_eus(pay, p)
        second = argument2_eus(pay, p)
        assert first.eu_sm > first.eu_cm, f"argument 1 must favor SM at p={p}"
        assert second.cm_is_rational, f"argument 2 must favor CM at p={p}"


class TestTransparentCorners:
    """The two transparent arguments are corners of the translucent model."""

    @given(
        levels=st.lists(st.integers(-100, 100), min_size=4, max_size=4, unique=True).map(sorted),
        chance=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(deadline=None, max_examples=300)
    def test_arguments_are_translucent_corners(self, levels, chance):
        """With s < u < u' < u'' and v = (level - s)/(u'' - s), argument 2 is the
        translucent pair at (p=1, q=0, r=P); argument 1 shares its EU_cm, but
        its EU_sm is the translucent one at (q=1, r=P)."""
        s, u, u_coop, u_temptation = levels
        scale = u_temptation - s
        pay = TransparentPayoffs(float(u), float(u_coop), float(u_temptation))
        normalized = TranslucentPayoffs((u - s) / scale, (u_coop - s) / scale)
        corner = TranslucencyParams(p=1.0, q=0.0, r=chance)
        unseen = TranslucencyParams(p=1.0, q=1.0, r=chance)

        def close(value, translucent):
            assert (value - s) / scale == pytest.approx(translucent, abs=1e-13)

        second = argument2_eus(pay, chance)
        close(second.eu_cm, translucent_eu_cm(normalized, corner))
        close(second.eu_sm, translucent_eu_sm(normalized, corner))
        first = argument1_eus(pay, chance)
        close(first.eu_cm, translucent_eu_cm(normalized, corner))
        close(first.eu_sm, translucent_eu_sm(normalized, unseen))


class TestTranslucentEus:
    def test_cm_example_against_rational_oracle(self):
        """v_nc + r*p*(v_c - v_nc) - (1-r)*q*v_nc at the reference point."""
        assert exact.eu_cm(*REFERENCE_DECIMALS) == Fraction(23, 40) == Fraction("0.575")
        pay = TranslucentPayoffs(0.5, 0.75)
        t = TranslucencyParams(p=0.8, q=0.1, r=0.5)
        assert translucent_eu_cm(pay, t) == pytest.approx(0.575, abs=ANALYTIC_TOL)

    def test_sm_example_against_rational_oracle(self):
        v_nc, _, _, q, r = REFERENCE_DECIMALS
        assert exact.eu_sm(v_nc, q, r) == Fraction(21, 40) == Fraction("0.525")
        pay = TranslucentPayoffs(0.5, 0.75)
        t = TranslucencyParams(p=0.8, q=0.1, r=0.5)
        assert translucent_eu_sm(pay, t) == pytest.approx(0.525, abs=ANALYTIC_TOL)

    @given(pay=translucent_payoffs(), r=st.floats(min_value=0.0, max_value=1.0))
    @settings(deadline=None, max_examples=200)
    def test_no_recognition_collapses_to_noncoop(self, pay, r):
        """With p = q = 0 both dispositions expect exactly v_noncoop."""
        t = TranslucencyParams(p=0.0, q=0.0, r=r)
        assert translucent_eu_cm(pay, t) == pay.v_noncoop
        assert translucent_eu_sm(pay, t) == pay.v_noncoop

    def test_all_cm_world_with_certain_recognition(self):
        pay = TranslucentPayoffs(0.5, 0.75)
        t = TranslucencyParams(p=1.0, q=0.4, r=1.0)
        assert translucent_eu_cm(pay, t) == pytest.approx(0.75, abs=ANALYTIC_TOL)

    def test_certain_exploitation_of_cm_partner(self):
        pay = TranslucentPayoffs(0.5, 0.75)
        t = TranslucencyParams(p=0.3, q=1.0, r=1.0)
        assert translucent_eu_sm(pay, t) == pytest.approx(1.0, abs=ANALYTIC_TOL)

    @given(pay=translucent_payoffs())
    @settings(deadline=None, max_examples=100)
    def test_q_zero_means_no_exploitation_gain(self, pay):
        t = TranslucencyParams(p=0.5, q=0.0, r=0.7)
        assert translucent_eu_sm(pay, t) == pay.v_noncoop


class TestCriticalRatio:
    def test_reference_value_against_rational_oracle(self):
        assert exact.critical_ratio(0.5, 0.75, 0.5) == 4
        pay = TranslucentPayoffs(0.5, 0.75)
        assert critical_ratio(pay, 0.5) == pytest.approx(4.0, abs=ANALYTIC_TOL)

    def test_second_term_vanishes_at_r_one(self):
        pay = TranslucentPayoffs(0.5, 0.75)
        assert critical_ratio(pay, 1.0) == pytest.approx(2.0, abs=ANALYTIC_TOL)

    def test_r_zero_maps_to_infinity(self):
        pay = TranslucentPayoffs(0.5, 0.75)
        assert critical_ratio(pay, 0.0) == math.inf

    def test_underflowing_denominator_maps_to_infinity(self):
        # 5e-324 * 0.25 rounds to 0, so the division would raise.
        assert critical_ratio(TranslucentPayoffs(0.5, 0.75), 5e-324) == math.inf

    @given(pay=translucent_payoffs())
    @settings(deadline=None, max_examples=200)
    def test_strictly_decreasing_in_r(self, pay):
        grid = np.linspace(0.02, 1.0, 50)
        values = [critical_ratio(pay, float(r)) for r in grid]
        for i, (a, b) in enumerate(zip(values, values[1:])):
            assert a > b, f"critical_ratio not decreasing at r={grid[i + 1]}"


class TestCmRational:
    def test_reference_point_is_rational(self):
        pay = TranslucentPayoffs(0.5, 0.75)
        t = TranslucencyParams(p=0.8, q=0.1, r=0.5)
        result = cm_rational(pay, t)
        assert result.cm_is_rational
        assert result.margin == pytest.approx(0.05, abs=ANALYTIC_TOL)
        assert t.p / t.q > critical_ratio(pay, t.r)

    def test_boundary_tie_is_not_rational(self):
        """p/q equal to the critical ratio leaves a zero margin: a tie. The doubles
        0.4 and 0.1 give p = 4q exactly, so the exact margin at them is 0."""
        pay = TranslucentPayoffs(0.5, 0.75)
        t = TranslucencyParams(p=0.4, q=0.1, r=0.5)
        assert exact.margin(*pay, *t) == 0
        result = cm_rational(pay, t)
        assert abs(result.margin) <= ANALYTIC_TOL
        assert not result.cm_is_rational
        assert result.eu_cm == pytest.approx(0.525, abs=ANALYTIC_TOL)

    def test_no_recognition_is_not_rational(self):
        pay = TranslucentPayoffs(0.3, 0.9)
        t = TranslucencyParams(p=0.0, q=0.0, r=0.6)
        result = cm_rational(pay, t)
        assert result.margin == 0.0
        assert not result.cm_is_rational

    def test_sign_equivalence_with_ratio_form(self):
        """For q > 0, r > 0 the EU comparison matches p/q vs critical ratio."""
        rng = np.random.default_rng(20240811)
        checked = 0
        while checked < 1000:
            v_nc = rng.uniform(0.01, 0.95)
            v_c = rng.uniform(v_nc + 0.01, 0.99)
            p = rng.uniform(0.0, 1.0)
            q = rng.uniform(0.01, 1.0)
            r = rng.uniform(0.01, 1.0)
            pay = TranslucentPayoffs(v_nc, v_c)
            t = TranslucencyParams(p=p, q=q, r=r)
            ratio_gap = p / q - critical_ratio(pay, r)
            margin = cm_rational(pay, t).margin
            if abs(ratio_gap) < 1e-9 or abs(margin) < 1e-9:
                continue  # boundary draw, resample
            assert (margin > 0) == (ratio_gap > 0), (
                f"sign mismatch at v_nc={v_nc}, v_c={v_c}, p={p}, q={q}, r={r}"
            )
            checked += 1

    @given(pay=translucent_payoffs(), r=st.floats(min_value=1e-6, max_value=1.0))
    @settings(deadline=None, max_examples=300)
    def test_transparency_limit_favors_cm(self, pay, r):
        """At p=1, q=0 the constrained disposition wins for every r > 0."""
        t = TranslucencyParams(p=1.0, q=0.0, r=r)
        assert cm_rational(pay, t).cm_is_rational

    @given(
        pay=translucent_payoffs(),
        p=st.floats(min_value=0.0, max_value=1.0),
        q=st.floats(min_value=0.0, max_value=1.0),
        r=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(deadline=None, max_examples=300)
    def test_pure_and_internally_consistent(self, pay, p, q, r):
        """Repeat calls agree bitwise and the flag always matches the margin."""
        t = TranslucencyParams(p=p, q=q, r=r)
        first = cm_rational(pay, t)
        second = cm_rational(pay, t)
        assert first == second
        assert first.cm_is_rational == (first.margin > 0.0)
        assert first.margin == first.eu_cm - first.eu_sm


def test_eucomparison_factory_classifies_tie_as_not_rational():
    comparison = EuComparison(eu_sm=0.5, eu_cm=0.5)
    assert comparison.margin == 0.0
    assert not comparison.cm_is_rational


def test_eucomparison_record_contract(record_contract):
    record_contract(
        EuComparison,
        {"eu_sm": 0.525, "eu_cm": 0.575},
        "EuComparison(eu_sm=0.525, eu_cm=0.575)",
    )


@pytest.mark.parametrize(
    "eu_cm, margin, rational",
    [(0.0, -0.525, False), (0.525, 0.0, False), (math.nan, math.nan, False)],
)
def test_eucomparison_derives_margin_and_decision_from_its_utilities(eu_cm, margin, rational):
    """A record with a replaced utility re-derives both, never keeping a stale decision."""
    comparison = cm_rational(TranslucentPayoffs(0.5, 0.75), TranslucencyParams(0.8, 0.1, 0.5))
    assert comparison.cm_is_rational
    replaced = comparison._replace(eu_cm=eu_cm)
    assert replaced.margin == margin or math.isnan(replaced.margin) and math.isnan(margin)
    assert replaced.cm_is_rational is rational


@pytest.mark.parametrize(
    "name, call",
    [
        ("p", lambda v: TranslucencyParams(p=v, q=0.5, r=0.5)),
        ("r", lambda v: TranslucencyParams(p=0.5, q=0.5, r=v)),
        ("p", lambda v: argument1_eus(TransparentPayoffs(0.2, 0.6, 0.9), v)),
        ("p", lambda v: argument2_eus(TransparentPayoffs(0.2, 0.6, 0.9), v)),
        ("r", lambda v: critical_ratio(TranslucentPayoffs(0.5, 0.75), v)),
    ],
)
@pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
def test_every_probability_check_reports_alike(name, call, bad):
    with pytest.raises(InvalidProbability) as info:
        call(bad)
    assert str(info.value) == f"{name} must lie in [0, 1], got {bad!r}"
