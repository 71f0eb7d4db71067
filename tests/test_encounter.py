"""Behavior of single encounters and the deterministic RNG stream."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispositions_sim.core import (
    Disposition,
    OutcomeClass,
    TranslucencyParams,
    TranslucentPayoffs,
)
from dispositions_sim.encounter import EncounterConfig, RngStream, resolve_encounter

SM = Disposition.STRAIGHTFORWARD
CM = Disposition.CONSTRAINED
NONCOOP = OutcomeClass.NON_COOPERATION
COOP = OutcomeClass.COOPERATION
DEFECTED = OutcomeClass.DEFECTION
EXPLOITED = OutcomeClass.EXPLOITATION


def make_config(v_nc=0.5, v_c=0.75, p=0.8, q=0.1, r=0.5):
    return EncounterConfig(
        payoffs=TranslucentPayoffs(v_nc, v_c),
        params=TranslucencyParams(p=p, q=q, r=r),
    )


def test_encounter_config_record_contract(record_contract):
    record_contract(
        EncounterConfig,
        {"payoffs": TranslucentPayoffs(0.5, 0.75), "params": TranslucencyParams(0.8, 0.1, 0.5)},
        "EncounterConfig(payoffs=TranslucentPayoffs(v_noncoop=0.5, v_coop=0.75), "
        "params=TranslucencyParams(p=0.8, q=0.1, r=0.5))",
    )


class TestRngStream:
    def test_same_address_reproduces_sequence(self):
        a = RngStream(123, 7)
        b = RngStream(123, 7)
        assert [a.uniform() for _ in range(20)] == [b.uniform() for _ in range(20)]

    def test_distinct_stream_ids_differ(self):
        a = RngStream(123, 0)
        b = RngStream(123, 1)
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_batched_draws_match_scalar_draws(self):
        scalar = RngStream(9, 3)
        batched = RngStream(9, 3)
        singles = [scalar.uniform() for _ in range(64)]
        assert batched.uniforms(64).tolist() == singles
        # Into a buffer: the draws fill out[:n] and continue the stream;
        # the rest of the buffer is left untouched.
        buffered = RngStream(9, 3)
        out = np.full(48, -1.0)
        first = buffered.uniforms(48, out)
        assert np.shares_memory(first, out)
        assert first.tolist() == singles[:48]
        second = buffered.uniforms(16, out)
        assert second.tolist() == singles[48:]
        assert out[16:].tolist() == singles[16:48]

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)
        with pytest.raises(ValueError):
            RngStream(0, -1)


class TestResolveEncounter:
    def test_sm_vs_sm_is_mutual_noncooperation(self):
        cfg = make_config(v_nc=0.5)
        assert resolve_encounter(SM, SM, cfg, RngStream(0)) == (NONCOOP, NONCOOP)

    def test_sm_vs_sm_consumes_one_draw(self):
        """The discarded draw keeps trial alignment stable across variants."""
        cfg = make_config()
        stream = RngStream(42, 0)
        resolve_encounter(SM, SM, cfg, stream)
        reference = RngStream(42, 0)
        reference.uniform()  # skip the draw the encounter consumed
        assert stream.uniform() == reference.uniform()

    def test_cm_vs_cm_certain_recognition_cooperates(self):
        cfg = make_config(p=1.0)
        assert resolve_encounter(CM, CM, cfg, RngStream(1)) == (COOP, COOP)

    def test_cm_vs_cm_impossible_recognition_noncooperates(self):
        cfg = make_config(p=0.0)
        assert resolve_encounter(CM, CM, cfg, RngStream(1)) == (NONCOOP, NONCOOP)

    def test_cm_vs_sm_certain_exploitation(self):
        """The constrained agent is exploited and the other defects."""
        cfg = make_config(q=1.0)
        assert resolve_encounter(CM, SM, cfg, RngStream(2)) == (EXPLOITED, DEFECTED)

    def test_sm_vs_cm_mirrors_exploitation(self):
        cfg = make_config(q=1.0)
        assert resolve_encounter(SM, CM, cfg, RngStream(2)) == (DEFECTED, EXPLOITED)

    def test_cm_vs_sm_without_exploitation_noncooperates(self):
        cfg = make_config(q=0.0)
        assert resolve_encounter(CM, SM, cfg, RngStream(2)) == (NONCOOP, NONCOOP)
        assert resolve_encounter(SM, CM, cfg, RngStream(2)) == (NONCOOP, NONCOOP)

    def test_identical_stream_state_gives_identical_outcomes(self):
        cfg = make_config()
        outcomes_a = [
            resolve_encounter(CM, CM, cfg, stream)
            for stream in [RngStream(77, i) for i in range(10)]
        ]
        outcomes_b = [
            resolve_encounter(CM, CM, cfg, stream)
            for stream in [RngStream(77, i) for i in range(10)]
        ]
        assert outcomes_a == outcomes_b

    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        pairing=st.sampled_from([(SM, SM), (CM, CM), (CM, SM), (SM, CM)]),
        p=st.floats(min_value=0.0, max_value=1.0),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(deadline=None, max_examples=300)
    def test_outcome_pair_consistency(self, seed, pairing, p, q):
        """Defection and exploitation come paired; other classes are shared."""
        cfg = make_config(p=p, q=q)
        out_a, out_b = resolve_encounter(*pairing, cfg, RngStream(seed))
        for mine, theirs in ((out_a, out_b), (out_b, out_a)):
            assert isinstance(mine, OutcomeClass)
            if mine is DEFECTED:
                assert theirs is EXPLOITED
            if mine is EXPLOITED:
                assert theirs is DEFECTED
            if mine in (NONCOOP, COOP):
                assert mine is theirs

    def test_cooperation_frequency_converges_to_p(self):
        """Over many CM-CM encounters the cooperation rate approaches p."""
        n = 100_000
        p = 0.8
        cfg = make_config(p=p)
        stream = RngStream(2024, 0)
        coop = sum(
            resolve_encounter(CM, CM, cfg, stream) == (COOP, COOP)
            for _ in range(n)
        )
        half_width = 2.576 * math.sqrt(p * (1 - p) / n)  # binomial 99% CI
        assert abs(coop / n - p) <= half_width, (
            f"cooperation rate {coop / n} outside 99% interval around {p}"
        )
