"""Behavior of single encounters, as the scalar oracle resolves them, and of
the deterministic RNG stream."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispositions_sim.core import TranslucencyParams, TranslucentPayoffs
from dispositions_sim.encounter import EncounterConfig, RngStream
from scalar_oracle import resolve_encounter, uniform

SM = "sm"
CM = "cm"
NONCOOP = "non_cooperation"
COOP = "cooperation"
DEFECTED = "defection"
EXPLOITED = "exploitation"


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
        assert [uniform(a) for _ in range(20)] == [uniform(b) for _ in range(20)]

    def test_distinct_stream_ids_differ(self):
        a = RngStream(123, 0)
        b = RngStream(123, 1)
        assert [uniform(a) for _ in range(5)] != [uniform(b) for _ in range(5)]

    def test_batched_draws_match_scalar_draws(self):
        scalar = RngStream(9, 3)
        batched = RngStream(9, 3)
        singles = [uniform(scalar) for _ in range(64)]
        # The draws fill the buffer given, a view such as out[:16] too, and
        # continue the stream; the rest of out is left untouched.
        out = np.full(48, -1.0)
        first = batched.uniforms(out)
        assert np.shares_memory(first, out)
        assert first.tolist() == singles[:48]
        second = batched.uniforms(out[:16])
        assert second.tolist() == singles[48:]
        assert out[16:].tolist() == singles[16:48]
        assert batched.uniforms(out[:0]).tolist() == []

    def test_buffer_of_any_shape_gets_one_draw_per_entry(self):
        scalar = RngStream(9, 3)
        singles = [uniform(scalar) for _ in range(5)]
        stream = RngStream(9, 3)
        grid = stream.uniforms(np.empty((2, 2)))
        assert grid.tolist() == [singles[0:2], singles[2:4]]
        assert uniform(stream) == singles[4]

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            RngStream(-1, 0)
        with pytest.raises(ValueError):
            RngStream(0, -1)

    @pytest.mark.parametrize(
        "seed, stream_id, first_draws",
        [
            (0, 0, ["0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2", "0x1.4fa7b529d9bd0p-5"]),
            (7, 3, ["0x1.f337991374b1ap-1", "0x1.c4e5ff35138ecp-1", "0x1.db135082c6e78p-3"]),
            (2**70, 5,
             ["0x1.dd84648a15d97p-1", "0x1.20bc0f21fca88p-2", "0x1.4f3e551dff743p-1"]),
        ],
        ids=["0-0", "7-3", "2**70-5"],
    )
    def test_first_draws_are_pinned(self, seed, stream_id, first_draws):
        """Every ``simulate`` output rests on numpy's PCG64 stream seeded by
        ``SeedSequence([seed, stream_id])``; a numpy that changes that stream
        fails here by name, not only as a changed ``simulate`` checksum."""
        draws = RngStream(seed, stream_id).uniforms(np.empty(3)).tolist()
        assert draws == [float.fromhex(text) for text in first_draws]


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
        uniform(reference)  # skip the draw the encounter consumed
        assert uniform(stream) == uniform(reference)

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
            assert mine in (NONCOOP, COOP, DEFECTED, EXPLOITED)
            if mine == DEFECTED:
                assert theirs == EXPLOITED
            if mine == EXPLOITED:
                assert theirs == DEFECTED
            if mine in (NONCOOP, COOP):
                assert mine == theirs

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
