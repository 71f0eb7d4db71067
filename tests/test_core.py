"""Constructor validation and immutability of the domain types, and the
package's public names."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dispositions_sim
from dispositions_sim.analytic import EuComparison
from dispositions_sim.core import (
    Disposition,
    InvalidInput,
    InvalidProbability,
    OrderingViolation,
    OutcomeClass,
    TranslucencyParams,
    TranslucentPayoffs,
    TransparentPayoffs,
)
from dispositions_sim.dynamics import Trajectory, TrajectoryStep
from dispositions_sim.encounter import EncounterConfig
from dispositions_sim.montecarlo import TrialReport


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
        message = r"^require finite u_both_defect < u_coop < u_temptation, got "
        with pytest.raises(OrderingViolation, match=message + rf"{bad!r}, 0\.6, 0\.9$"):
            TransparentPayoffs(bad, 0.6, 0.9)
        with pytest.raises(OrderingViolation, match=message + rf"0\.2, 0\.6, {bad!r}$"):
            TransparentPayoffs(0.2, 0.6, bad)

    def test_frozen(self):
        pay = TransparentPayoffs(0.2, 0.6, 0.9)
        for name in ("u_coop", "extra"):
            with pytest.raises(AttributeError):
                setattr(pay, name, 0.7)
            assert pay == TransparentPayoffs(0.2, 0.6, 0.9)
            assert not hasattr(pay, "extra")

    def test_record_contract(self, record_contract):
        record_contract(
            TransparentPayoffs,
            {"u_both_defect": 0.2, "u_coop": 0.6, "u_temptation": 0.9},
            "TransparentPayoffs(u_both_defect=0.2, u_coop=0.6, u_temptation=0.9)",
        )

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

    def test_record_contract(self, record_contract):
        record_contract(
            TranslucentPayoffs,
            {"v_noncoop": 0.5, "v_coop": 0.75},
            "TranslucentPayoffs(v_noncoop=0.5, v_coop=0.75)",
        )

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
        for name in ("r", "extra"):
            with pytest.raises(AttributeError):
                setattr(t, name, 0.9)
            assert t == TranslucencyParams(p=0.8, q=0.1, r=0.5)
            assert not hasattr(t, "extra")

    def test_record_contract(self, record_contract):
        record_contract(
            TranslucencyParams,
            {"p": 0.8, "q": 0.1, "r": 0.5},
            "TranslucencyParams(p=0.8, q=0.1, r=0.5)",
        )

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


# A valid instance of each record type; the first four check their fields.
VALIDATED_RECORDS = [
    TransparentPayoffs(0.2, 0.6, 0.9),
    TranslucentPayoffs(0.5, 0.75),
    TranslucencyParams(0.8, 0.1, 0.5),
    EuComparison(0.525, 0.575, True, 0.05),
]
RECORDS = VALIDATED_RECORDS + [
    TrajectoryStep(0, 0.5, 0.575, 0.525),
    Trajectory((TrajectoryStep(0, 0.5, 0.575, 0.525),)),
    EncounterConfig(TranslucentPayoffs(0.5, 0.75), TranslucencyParams(0.8, 0.1, 0.5)),
    TrialReport(2, 0.5, 0.75, 0.0, 0.25, {OutcomeClass.NON_COOPERATION: 4}),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_records_are_named_tuples(record):
    """Records iterate, index and compare equal to the tuple of their fields,
    and carry no ``__dict__`` that could take a stray attribute."""
    values = tuple(getattr(record, name) for name in record._fields)
    assert isinstance(record, tuple)
    assert record == values and tuple(record) == values
    assert all(record[i] is value for i, value in enumerate(values))
    assert not hasattr(record, "__dict__")
    assert type(record)._make(values) == record == record._replace()


def _built(build):
    """What a record construction gives: the record's type and repr, or the
    class and message of the ``InvalidInput`` it raises."""
    try:
        record = build()
    except InvalidInput as exc:
        return type(exc), str(exc)
    return type(record), repr(record)


@st.composite
def replacements(draw):
    record = draw(st.sampled_from(VALIDATED_RECORDS))
    name = draw(st.sampled_from(record._fields))
    return record, name, draw(st.booleans() if name == "cm_is_rational" else st.floats())


@example((TranslucentPayoffs(0.5, 0.75), "v_coop", 2.0))
@example((TransparentPayoffs(0.2, 0.6, 0.9), "u_temptation", math.inf))
@example((TranslucencyParams(0.8, 0.1, 0.5), "q", -0.0))
@example((TranslucencyParams(0.8, 0.1, 0.5), "r", math.nan))
@example((EuComparison(0.525, 0.575, True, 0.05), "margin", -0.05))
@example((EuComparison(0.525, 0.575, True, 0.05), "cm_is_rational", False))
@settings(deadline=None, max_examples=300)
@given(replacements())
def test_replace_and_make_check_like_the_constructor(case):
    """No construction path skips the constructor's checks: ``_replace`` and
    ``_make`` give the constructor's record, or raise its error and message."""
    record, name, value = case
    cls = type(record)
    values = [value if field == name else old for field, old in zip(cls._fields, record)]
    expected = _built(lambda: cls(*values))
    assert _built(lambda: record._replace(**{name: value})) == expected
    assert _built(lambda: cls._make(values)) == expected
    assert _built(lambda: cls._make(iter(values))) == expected


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
        "InvalidInput",
        "OrderingViolation",
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
    assert len(dispositions_sim.__all__) == 27
    for name in dispositions_sim.__all__:
        getattr(dispositions_sim, name)
