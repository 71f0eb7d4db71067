"""Behavior of single encounters, as the scalar oracle resolves them on streams
of the pure-Python spec, and of the deterministic RNG stream, checked against
that spec."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispositions_sim.core import TranslucencyParams, TranslucentPayoffs
from dispositions_sim.encounter import EncounterConfig, RngStream
import pcg64
from reference import reference_config
from scalar_oracle import resolve_encounter

SM = "sm"
CM = "cm"
NONCOOP = "non_cooperation"
COOP = "cooperation"
DEFECTED = "defection"
EXPLOITED = "exploitation"


def test_encounter_config_record_contract(record_contract):
    record_contract(
        EncounterConfig,
        {"payoffs": TranslucentPayoffs(0.5, 0.75), "params": TranslucencyParams(0.8, 0.1, 0.5)},
        "EncounterConfig(payoffs=TranslucentPayoffs(v_noncoop=0.5, v_coop=0.75), "
        "params=TranslucencyParams(p=0.8, q=0.1, r=0.5))",
    )


# Seeds of one, two and three 32-bit words, each word's extremes among them.
SPEC_SEEDS = [0, 1, 7, 42, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**64 - 1,
              2**64, 2**70]


def draws(stream, n):
    """The next ``n`` draws of a spec stream."""
    return [stream.random() for _ in range(n)]


def one_draw(stream):
    """An ``RngStream``'s next draw, through a one-slot buffer."""
    return float(stream.uniforms(np.empty(1))[0])


class TestRngStream:
    def test_same_address_reproduces_sequence(self):
        a = RngStream(123, 7)
        b = RngStream(123, 7)
        assert [one_draw(a) for _ in range(20)] == [one_draw(b) for _ in range(20)]

    def test_distinct_stream_ids_differ(self):
        a = RngStream(123, 0)
        b = RngStream(123, 1)
        assert [one_draw(a) for _ in range(5)] != [one_draw(b) for _ in range(5)]

    def test_batched_draws_match_scalar_draws(self):
        batched = RngStream(9, 3)
        singles = draws(pcg64.stream(9, 3), 64)
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
        singles = draws(pcg64.stream(9, 3), 5)
        stream = RngStream(9, 3)
        grid = stream.uniforms(np.empty((2, 2)))
        assert grid.tolist() == [singles[0:2], singles[2:4]]
        assert one_draw(stream) == singles[4]

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
        fails here by name, not only as a changed ``simulate`` checksum. The
        pins are the pure-Python spec's draws too."""
        pinned = [float.fromhex(text) for text in first_draws]
        assert RngStream(seed, stream_id).uniforms(np.empty(3)).tolist() == pinned
        assert draws(pcg64.stream(seed, stream_id), 3) == pinned

    @pytest.mark.parametrize("seed", SPEC_SEEDS)
    def test_stream_matches_the_pure_python_spec(self, seed):
        """Bit for bit, 50 draws of each stream: the first three of a block's streams
        and streams whose id takes more than one 32-bit word."""
        for stream_id in (0, 1, 2, 2**32 + 5):
            kernel = RngStream(seed, stream_id).uniforms(np.empty(50)).tolist()
            spec = draws(pcg64.stream(seed, stream_id), 50)
            assert [x.hex() for x in kernel] == [x.hex() for x in spec], (
                f"seed {seed}, stream_id {stream_id}")

    @pytest.mark.xfail(strict=True, reason=(
        "SeedSequence([seed, stream_id]) concatenates each integer's 32-bit words, so "
        "(1 + 3 * 2**32, 0) and (1, 3) alias (the FOUND: line on RngStream's entropy "
        "in CHANGES.md); the change of address encoding that mends it removes this mark"))
    def test_distinct_addresses_give_distinct_streams(self):
        aliased = (1 + 3 * 2**32, 0), (1, 3)
        kernel = [RngStream(*address).uniforms(np.empty(5)).tolist() for address in aliased]
        assert kernel[0] != kernel[1]
        spec = [draws(pcg64.stream(*address), 5) for address in aliased]
        assert spec[0] != spec[1]


class TestResolveEncounter:
    def test_sm_vs_sm_is_mutual_noncooperation(self):
        cfg = reference_config(v_nc=0.5)
        assert resolve_encounter(SM, SM, cfg, pcg64.stream(0, 0)) == (NONCOOP, NONCOOP)

    def test_sm_vs_sm_consumes_one_draw(self):
        """The discarded draw keeps trial alignment stable across variants."""
        cfg = reference_config()
        stream = pcg64.stream(42, 0)
        resolve_encounter(SM, SM, cfg, stream)
        reference = pcg64.stream(42, 0)
        reference.random()  # skip the draw the encounter consumed
        assert stream.random() == reference.random()

    def test_cm_vs_cm_certain_recognition_cooperates(self):
        cfg = reference_config(p=1.0)
        assert resolve_encounter(CM, CM, cfg, pcg64.stream(1, 0)) == (COOP, COOP)

    def test_cm_vs_cm_impossible_recognition_noncooperates(self):
        cfg = reference_config(p=0.0)
        assert resolve_encounter(CM, CM, cfg, pcg64.stream(1, 0)) == (NONCOOP, NONCOOP)

    def test_cm_vs_sm_certain_exploitation(self):
        """The constrained agent is exploited and the other defects."""
        cfg = reference_config(q=1.0)
        assert resolve_encounter(CM, SM, cfg, pcg64.stream(2, 0)) == (EXPLOITED, DEFECTED)

    def test_sm_vs_cm_mirrors_exploitation(self):
        cfg = reference_config(q=1.0)
        assert resolve_encounter(SM, CM, cfg, pcg64.stream(2, 0)) == (DEFECTED, EXPLOITED)

    def test_cm_vs_sm_without_exploitation_noncooperates(self):
        cfg = reference_config(q=0.0)
        assert resolve_encounter(CM, SM, cfg, pcg64.stream(2, 0)) == (NONCOOP, NONCOOP)
        assert resolve_encounter(SM, CM, cfg, pcg64.stream(2, 0)) == (NONCOOP, NONCOOP)

    def test_identical_stream_state_gives_identical_outcomes(self):
        cfg = reference_config()
        outcomes_a = [
            resolve_encounter(CM, CM, cfg, stream)
            for stream in [pcg64.stream(77, i) for i in range(10)]
        ]
        outcomes_b = [
            resolve_encounter(CM, CM, cfg, stream)
            for stream in [pcg64.stream(77, i) for i in range(10)]
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
        cfg = reference_config(p=p, q=q)
        out_a, out_b = resolve_encounter(*pairing, cfg, pcg64.stream(seed, 0))
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
        cfg = reference_config(p=p)
        stream = pcg64.stream(2024, 0)
        coop = sum(
            resolve_encounter(CM, CM, cfg, stream) == (COOP, COOP)
            for _ in range(n)
        )
        half_width = 2.576 * math.sqrt(p * (1 - p) / n)  # binomial 99% CI
        assert abs(coop / n - p) <= half_width, (
            f"cooperation rate {coop / n} outside 99% interval around {p}"
        )
