"""Encoding, detection, receiver-side correction, decoding, thresholds."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molcode import (
    CalibratedThreshold,
    CalibrationError,
    ChannelProfile,
    ConstantThreshold,
    PilotThreshold,
    collect_pilot_stats,
    decode,
    detect,
    encode,
    error_correct,
    pilot_threshold,
)
from molcode.codebooks import Codebook, CharacterDistribution, build_huffman

bitstrings = st.text(alphabet="01", min_size=0, max_size=64)


class TestEncode:
    def test_concatenates_codewords(self, hcb):
        assert encode("EA", hcb) == "101" + "0000"

    def test_unknown_symbol_names_position(self, hcb):
        with pytest.raises(ValueError, match=r"position 1"):
            encode("E?", hcb)

    def test_empty_text(self, hcb):
        assert encode("", hcb) == ""


class TestErrorCorrect:
    def test_worked_example(self):
        assert error_correct("001101110") == "001001010"

    def test_all_ones_become_alternating(self):
        assert error_correct("11111") == "10101"

    def test_length_preserved_and_clean(self):
        out = error_correct("1101101")
        assert len(out) == 7
        assert "11" not in out

    @given(bitstrings)
    def test_removes_every_adjacent_pair(self, bits):
        assert "11" not in error_correct(bits)

    @given(bitstrings)
    def test_idempotent(self, bits):
        once = error_correct(bits)
        assert error_correct(once) == once

    @given(bitstrings)
    def test_never_creates_ones(self, bits):
        # Correction may clear a bit but must never set one.
        out = error_correct(bits)
        assert all(raw == "1" for raw, kept in zip(bits, out) if kept == "1")


class TestDetect:
    def test_threshold_is_inclusive(self):
        assert detect([120, 119], tau=120) == "10"

    def test_requires_positive_threshold(self):
        with pytest.raises(ValueError):
            detect([1, 2], tau=0.0)


class TestDecode:
    def test_round_trip_huffman(self, hcb):
        text = "THEQUICKBROWNFOX"
        res = decode(encode(text, hcb), hcb)
        assert res.text == text
        assert res.residue == ""
        assert not res.violation and not res.dead_end

    def test_round_trip_proposed(self, pcb):
        text = "JUMPSOVERTHELAZYDOG"
        res = decode(encode(text, pcb), pcb)
        assert res.text == text

    def test_round_trip_ita2(self, icb):
        text = "PACKMYBOX"
        res = decode(encode(text, icb), icb)
        assert res.text == text

    def test_incomplete_tail_reported_as_residue(self, hcb):
        bits = encode("EA", hcb) + "00"
        res = decode(bits, hcb)
        assert res.text == "EA"
        assert res.residue == "00"

    def test_adjacent_ones_flagged_for_proposed(self, pcb):
        res = decode("11", pcb)
        assert res.violation
        assert res.symbols == ()

    def test_dead_end_on_unassigned_pattern(self, icb):
        # 00000 is not one of the 26 assigned five-bit patterns.
        res = decode("00000", icb)
        assert res.dead_end
        assert res.symbols == ()

    @settings(max_examples=50, deadline=None)
    @given(st.text(alphabet="ETAONISRH", min_size=0, max_size=30))
    def test_round_trip_property(self, hcb, pcb, icb, text):
        for cb in (hcb, pcb, icb):
            assert decode(encode(text, cb), cb).text == text


class TestPilotThresholdFormula:
    def test_reference_point(self):
        # 1000 molecules, signal mean 300, interference mean 100: the
        # variance-weighted split lands near 179 with a gap of 8.3 sigmas.
        tau = pilot_threshold(300.0, 100.0, 1000)
        assert tau == pytest.approx(179.129, abs=0.01)

    def test_sits_between_levels(self):
        tau = pilot_threshold(300.0, 100.0, 1000)
        assert 100.0 < tau < 300.0

    def test_equal_levels_degenerate(self):
        assert pilot_threshold(50.0, 50.0, 1000) == 50.0

    def test_zero_variance_midpoint(self):
        # Both levels sit at the binomial extremes where the variance
        # vanishes; the formula falls back to the midpoint.
        assert pilot_threshold(1000.0, 0.0, 1000) == 500.0

    def test_inverted_levels_rejected(self):
        with pytest.raises(CalibrationError):
            pilot_threshold(100.0, 300.0, 1000)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            pilot_threshold(float("nan"), 100.0, 1000)

    def test_level_beyond_budget_rejected(self):
        with pytest.raises(ValueError):
            pilot_threshold(1200.0, 100.0, 1000)


class TestPilotProtocol:
    def test_levels_separate_on_reasonable_link(self, pcb, params):
        profile = ChannelProfile.build(params, slot=0.08, memory=10)
        stats = collect_pilot_stats(pcb, profile, molecules=60, master_seed=1)
        assert stats.signal_level > stats.interference_level
        assert stats.interference_level < stats.tau <= stats.signal_level
        assert stats.counts["E"].shape == (100, len(pcb.codewords["E"]))

    def test_deterministic_in_master_seed(self, pcb, params):
        profile = ChannelProfile.build(params, slot=0.08, memory=10)
        a = collect_pilot_stats(pcb, profile, molecules=60, master_seed=5)
        b = collect_pilot_stats(pcb, profile, molecules=60, master_seed=5)
        assert a.tau == b.tau
        assert np.array_equal(a.counts["E"], b.counts["E"])

    def test_zero_budget_uncalibratable(self, pcb, params):
        profile = ChannelProfile.build(params, slot=0.08, memory=10)
        with pytest.raises(CalibrationError):
            collect_pilot_stats(pcb, profile, molecules=0, master_seed=1)


class TestStrategyObjects:
    def test_constant_requires_positive(self):
        with pytest.raises(ValueError):
            ConstantThreshold(0.0)

    def test_defaults(self):
        assert PilotThreshold().repetitions == 100
        assert CalibratedThreshold().messages == 10_000
