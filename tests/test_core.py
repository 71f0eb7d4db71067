"""Constructor validation and immutability of the domain types, and the
package's public names."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dispositions_sim
from dispositions_sim.core import (
    Disposition,
    InvalidProbability,
    NonFiniteValue,
    OrderingViolation,
    OutcomeClass,
    TranslucencyParams,
    TranslucentPayoffs,
    TransparentPayoffs,
)


class TestTransparentPayoffs:
    def test_valid_ordering_accepted(self):
        pay = TransparentPayoffs(0.2, 0.6, 0.9)
        assert pay == TransparentPayoffs(0.2, 0.6, 0.9)

    def test_equal_values_rejected(self):
        with pytest.raises(OrderingViolation):
            TransparentPayoffs(0.6, 0.6, 0.9)

    def test_reversed_order_rejected(self):
        with pytest.raises(OrderingViolation):
            TransparentPayoffs(0.9, 0.6, 0.2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteValue):
            TransparentPayoffs(bad, 0.6, 0.9)
        with pytest.raises(NonFiniteValue):
            TransparentPayoffs(0.2, 0.6, bad)

    def test_frozen(self):
        pay = TransparentPayoffs(0.2, 0.6, 0.9)
        with pytest.raises(dataclasses.FrozenInstanceError):
            pay.u_coop = 0.7

    @given(
        u=st.floats(allow_nan=False, allow_infinity=False, width=64),
        u1=st.floats(allow_nan=False, allow_infinity=False, width=64),
        u2=st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
    @settings(deadline=None, max_examples=300)
    def test_accepts_exactly_the_strictly_ordered_triples(self, u, u1, u2):
        """Construction succeeds iff u < u1 < u2."""
        if u < u1 < u2:
            assert TransparentPayoffs(u, u1, u2).u_coop == u1
        else:
            with pytest.raises(OrderingViolation):
                TransparentPayoffs(u, u1, u2)


class TestTranslucentPayoffs:
    def test_valid_pair_accepted(self):
        pay = TranslucentPayoffs(0.5, 0.75)
        assert (pay.v_noncoop, pay.v_coop) == (0.5, 0.75)

    def test_coop_at_defection_level_rejected(self):
        with pytest.raises(OrderingViolation):
            TranslucentPayoffs(0.5, 1.0)

    def test_noncoop_at_exploitation_level_rejected(self):
        with pytest.raises(OrderingViolation):
            TranslucentPayoffs(0.0, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(OrderingViolation):
            TranslucentPayoffs(bad, 0.5)
        with pytest.raises(OrderingViolation):
            TranslucentPayoffs(0.3, bad)

    @given(
        v_nc=st.floats(allow_nan=False, allow_infinity=False, width=64),
        v_c=st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
    @settings(deadline=None, max_examples=300)
    def test_accepts_exactly_the_open_unit_interval_orderings(self, v_nc, v_c):
        """Construction succeeds iff 0 < v_nc < v_c < 1."""
        if 0.0 < v_nc < v_c < 1.0:
            assert TranslucentPayoffs(v_nc, v_c).v_coop == v_c
        else:
            with pytest.raises(OrderingViolation):
                TranslucentPayoffs(v_nc, v_c)


class TestTranslucencyParams:
    def test_interior_values_accepted(self):
        t = TranslucencyParams(p=0.8, q=0.1, r=0.5)
        assert (t.p, t.q, t.r) == (0.8, 0.1, 0.5)

    def test_boundary_values_are_legal(self):
        t = TranslucencyParams(p=0.0, q=1.0, r=0.0)
        assert (t.p, t.q, t.r) == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize("field", ["p", "q", "r"])
    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan, math.inf])
    def test_out_of_range_rejected(self, field, bad):
        values = {"p": 0.5, "q": 0.5, "r": 0.5, field: bad}
        with pytest.raises(InvalidProbability):
            TranslucencyParams(**values)

    def test_frozen(self):
        t = TranslucencyParams(p=0.8, q=0.1, r=0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.r = 0.9

    @given(
        p=st.floats(allow_nan=False, width=64),
        q=st.floats(allow_nan=False, width=64),
        r=st.floats(allow_nan=False, width=64),
    )
    @settings(deadline=None, max_examples=300)
    def test_accepts_exactly_the_unit_cube(self, p, q, r):
        if 0.0 <= p <= 1.0 and 0.0 <= q <= 1.0 and 0.0 <= r <= 1.0:
            TranslucencyParams(p=p, q=q, r=r)
        else:
            with pytest.raises(InvalidProbability):
                TranslucencyParams(p=p, q=q, r=r)


def test_disposition_has_exactly_two_variants():
    assert {d.name for d in Disposition} == {"STRAIGHTFORWARD", "CONSTRAINED"}


def test_outcome_class_has_exactly_four_variants():
    assert {o.name for o in OutcomeClass} == {
        "NON_COOPERATION",
        "COOPERATION",
        "DEFECTION",
        "EXPLOITATION",
    }


def test_public_names_are_exactly_the_documented_surface():
    """Adding or dropping a public name is a deliberate API change."""
    assert set(dispositions_sim.__all__) == {
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
    }
    assert len(dispositions_sim.__all__) == 29
    for name in dispositions_sim.__all__:
        getattr(dispositions_sim, name)
