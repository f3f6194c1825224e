"""Closed-form interference lag profiles against the Monte Carlo oracle."""
import math
import tracemalloc

import numpy as np
import pytest

from molcode import (
    build_huffman,
    build_proposed,
    expected_isi_bit0,
    isi_oracle,
    window_distribution,
)
from molcode import isi_analysis
from molcode.codebooks import (
    Codebook,
    CharacterDistribution,
    expected_length,
    expected_ones,
)

# Frozen lag profiles at memory 3 for the bundled English codebooks,
# word-interior rule, full precision from the reference derivation.
H_P0 = 0.5378036824457918
H_C2 = 0.2719391103605931
H_C3 = 0.2745144044777969
P_P0 = 0.6839026934992448
P_C3 = 0.19036675958274155
P_C2_UNCORRECTED = 0.35908352022881024

# Frozen lag profiles at memory 5 and 10: (kind, memory) -> (window rule,
# p0, c_2..c_memory of the uncorrected profile). At memory 10 the huffman
# and ita2 codes have no word-interior zero and fall back to the stream rule.
DEEP_PROFILES = {
    ("huffman", 5): ("word-interior", 0.5378036824457918, (
        0.44776311579618816, 0.3883294179165808, 0.32153840450346627,
        0.29717666722189723)),
    ("proposed", 5): ("word-interior", 0.6839026934992448, (
        0.39930046225939014, 0.19194304034897328, 0.2870317084825626,
        0.27310891883354044)),
    ("ita2", 5): ("word-interior", 0.5060822939177061, (
        0.2873657126044967, 0.24207950748480328, 0.2893568012516742,
        0.3594529541688527)),
    ("huffman", 10): ("stream", 0.5378036824457918, (
        0.2488595882072775, 0.24793321659358514, 0.25120640238514047,
        0.2479706414160138, 0.24824650619435362, 0.24815824093865302,
        0.24949000703535373, 0.2486046226769269, 0.24825014941422993)),
    ("proposed", 10): ("word-interior", 0.6839026934992448, (
        0.4551467238926765, 0.20891823879739244, 0.45637718272990996,
        0.22752551076933472, 0.45637718272990996, 0.1393494633166954,
        0.46924914934385836, 0.2146535441553864, 0.3477139956373327)),
    ("ita2", 10): ("stream", 0.5060822939177061, (
        0.2628183847827676, 0.2785830511676191, 0.25697950767312766,
        0.27323897992296686, 0.24483204315366885, 0.2539266468364524,
        0.2485648458384597, 0.2485648458384597, 0.2539266468364523)),
}


@pytest.fixture(scope="module")
def coin():
    # Fair uncoded bit stream: one-bit codewords, equal symbol masses.
    d = CharacterDistribution.from_weights({"s0": 0.5, "s1": 0.5})
    cb = Codebook(kind="custom", codewords={"s0": "0", "s1": "1"})
    return d, cb


class TestExactProfiles:
    def test_huffman_reference_values(self, hcb, dist):
        prof = expected_isi_bit0(hcb, dist, memory=3)
        assert prof.p0 == pytest.approx(H_P0, abs=1e-12)
        assert prof.coefficients[2] == pytest.approx(H_C2, abs=1e-12)
        assert prof.coefficients[3] == pytest.approx(H_C3, abs=1e-12)
        assert prof.window_rule == "word-interior"

    def test_proposed_corrected_reference_values(self, pcb, dist):
        prof = expected_isi_bit0(pcb, dist, memory=3, corrected=True)
        assert prof.p0 == pytest.approx(P_P0, abs=1e-12)
        assert prof.coefficients[3] == pytest.approx(P_C3, abs=1e-12)
        assert prof.corrected

    def test_correction_removes_exactly_the_first_lag(self, pcb, dist):
        plain = expected_isi_bit0(pcb, dist, memory=3)
        fixed = expected_isi_bit0(pcb, dist, memory=3, corrected=True)
        assert set(plain.coefficients) == {2, 3}
        assert set(fixed.coefficients) == {3}
        assert plain.coefficients[2] == pytest.approx(P_C2_UNCORRECTED, abs=1e-12)
        assert fixed.coefficients[3] == plain.coefficients[3]

    def test_correction_only_defined_for_clean_codebooks(self, hcb, dist):
        with pytest.raises(ValueError):
            expected_isi_bit0(hcb, dist, memory=3, corrected=True)

    def test_symbolic_totals_match_published_rounding(self, hcb, pcb, dist):
        # With unit channel coefficients the totals are the coefficient
        # sums 0.5464 and 0.1904.
        h = expected_isi_bit0(hcb, dist, memory=3)
        p = expected_isi_bit0(pcb, dist, memory=3, corrected=True)
        assert sum(h.coefficients.values()) == pytest.approx(0.5464, abs=5e-4)
        assert sum(p.coefficients.values()) == pytest.approx(0.1904, abs=5e-4)

    def test_p0_is_zero_fraction_of_stream(self, hcb, pcb, icb, dist):
        for cb in (hcb, pcb, icb):
            prof = expected_isi_bit0(cb, dist, memory=3)
            el = expected_length(cb, dist)
            eo = expected_ones(cb, dist)
            assert prof.p0 == pytest.approx((el - eo) / el, abs=1e-9)

    @pytest.mark.parametrize("kind, memory, corrected", [
        (kind, memory, False) for kind, memory in DEEP_PROFILES
    ] + [("proposed", 5, True), ("proposed", 10, True)])
    def test_deep_reference_values(self, request, dist, kind, memory, corrected):
        cb = request.getfixturevalue({"huffman": "hcb", "proposed": "pcb", "ita2": "icb"}[kind])
        rule, p0, coeffs = DEEP_PROFILES[kind, memory]
        prof = expected_isi_bit0(cb, dist, memory=memory, corrected=corrected)
        want = dict(enumerate(coeffs, start=2))
        if corrected:
            del want[2]
        assert prof.window_rule == rule
        assert prof.p0 == pytest.approx(p0, abs=1e-12)
        assert set(prof.coefficients) == set(want)
        for j, c in want.items():
            assert prof.coefficients[j] == pytest.approx(c, abs=1e-12)

    def test_memory_must_cover_one_lag(self, hcb, dist):
        with pytest.raises(ValueError):
            expected_isi_bit0(hcb, dist, memory=1)


class TestWindowRules:
    def test_auto_falls_back_to_stream_for_shallow_codebooks(self, coin):
        d, cb = coin
        prof = expected_isi_bit0(cb, d, memory=3)
        assert prof.window_rule == "stream"

    def test_fair_coin_stream_profile(self, coin):
        # Independent fair bits: a zero sees a one at any lag with
        # probability 1/2, and half of all slots are zeros.
        d, cb = coin
        prof = expected_isi_bit0(cb, d, memory=3)
        assert prof.p0 == pytest.approx(0.5, abs=1e-12)
        assert prof.coefficients[2] == pytest.approx(0.25, abs=1e-12)
        assert prof.coefficients[3] == pytest.approx(0.25, abs=1e-12)

    def test_biased_coin_stream_profile(self):
        d = CharacterDistribution.from_weights({"s0": 0.8, "s1": 0.2})
        cb = Codebook(kind="custom", codewords={"s0": "0", "s1": "1"})
        prof = expected_isi_bit0(cb, d, memory=4)
        for j in (2, 3, 4):
            assert prof.coefficients[j] == pytest.approx(0.8 * 0.2, abs=1e-12)


class TestWindowLaw:
    def test_fair_coin_is_uniform(self, coin):
        d, cb = coin
        wd = window_distribution(cb, d, memory=3)
        assert len(wd) == 8
        for pattern, mass in wd.items():
            assert mass == pytest.approx(1 / 8, abs=1e-12)

    def test_masses_form_a_distribution(self, hcb, dist):
        wd = window_distribution(hcb, dist, memory=4)
        assert math.fsum(wd.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(m >= 0 for m in wd.values())

    def test_clean_codebook_never_shows_adjacent_ones(self, pcb, dist):
        wd = window_distribution(pcb, dist, memory=5)
        for pattern, mass in wd.items():
            if "11" in pattern:
                assert mass == pytest.approx(0.0, abs=1e-15)

    def test_marginal_consistency_across_window_sizes(self, hcb, dist):
        # Summing out the last slot of the 4-window must give the 3-window.
        wd4 = window_distribution(hcb, dist, memory=4)
        wd3 = window_distribution(hcb, dist, memory=3)
        for pattern, mass in wd3.items():
            folded = wd4[pattern + "0"] + wd4[pattern + "1"]
            assert folded == pytest.approx(mass, abs=1e-12)


def _dense_chain(cb, dist, memory):
    """Window law and stream lag profile through the dense transition matrix.

    The reference the one-step map must reproduce: T[i, i + 1] = 1 inside a
    codeword, and a codeword's last bit moves to every codeword start with
    that symbol's probability.
    """
    tables = cb.tables
    probs = np.array([dist.prob(s) for s in cb.symbols])
    n = len(tables.word_flat)
    T = np.eye(n, k=1)
    T[tables.word_off + tables.word_len - 1] = 0.0
    T[np.ix_(tables.word_off + tables.word_len - 1, tables.word_off)] = probs
    bits = tables.word_flat
    pi = np.repeat(probs, tables.word_len) / float(np.dot(probs, tables.word_len))
    layers = {"": pi}
    for _ in range(memory):
        layers = {prefix + str(b): (vec * (bits == b)) @ T
                  for prefix, vec in layers.items() for b in (0, 1)}
    window = {pattern: float(vec.sum()) for pattern, vec in layers.items()}
    vec, lags = pi * (bits == 1), {}
    for lag in range(1, memory):
        vec = vec @ T
        lags[lag + 1] = float(vec[bits == 0].sum())
    return window, lags


class TestOneStepMap:
    @pytest.mark.parametrize("memory", [2, 3, 5])
    @pytest.mark.parametrize("name", ["hcb", "pcb", "icb", "small"])
    def test_matches_dense_matrix(self, request, dist, name, memory):
        if name == "small":
            d = CharacterDistribution.from_weights({"a": 0.5, "b": 0.3, "c": 0.2})
            cb = Codebook(kind="custom", codewords={"a": "0", "b": "110", "c": "10"})
        else:
            d, cb = dist, request.getfixturevalue(name)
        window, lags = _dense_chain(cb, d, memory)
        got = window_distribution(cb, d, memory)
        assert list(got) == list(window)
        assert list(got.values()) == pytest.approx(list(window.values()), rel=1e-12, abs=1e-17)
        bits, _, _, step, pi = isi_analysis._word_chain(cb, d)
        got_lags = isi_analysis._stream_lag_profile(bits, step, pi, memory)
        assert got_lags == pytest.approx(lags, rel=1e-12, abs=1e-17)

    def test_mismatched_symbols_are_named(self):
        d = CharacterDistribution.from_weights({"a": 0.5, "b": 0.3, "z": 0.2})
        cb = Codebook(kind="custom", codewords={"a": "0", "b": "110", "c": "10"})
        with pytest.raises(ValueError, match=r"symbols differ: \['c', 'z'\]"):
            isi_analysis._word_chain(cb, d)

    def test_memory_is_linear_in_the_code_size(self):
        # 500 equiprobable symbols lay out about 6700 proposed code bits; a
        # dense transition matrix over them alone takes about 360 MB.
        d = CharacterDistribution(tuple(f"s{i}" for i in range(500)), (1 / 500,) * 500)
        cb = build_proposed(d)
        tracemalloc.start()
        try:
            expected_isi_bit0(cb, d, memory=5)
            window_distribution(cb, d, memory=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20


class TestOracle:
    def test_agrees_with_exact_huffman(self, hcb, dist):
        exact = expected_isi_bit0(hcb, dist, memory=3)
        mc = isi_oracle(
            hcb, dist, memory=3, samples=400_000, rng=np.random.default_rng(7)
        )
        for j in (2, 3):
            gap = abs(mc.coefficients[j] - exact.coefficients[j])
            assert gap < 3.0 * mc.stderr[j]

    def test_agrees_with_exact_proposed_corrected(self, pcb, dist):
        exact = expected_isi_bit0(pcb, dist, memory=3, corrected=True)
        mc = isi_oracle(
            pcb, dist, memory=3, corrected=True, samples=400_000,
            rng=np.random.default_rng(11),
        )
        assert abs(mc.coefficients[3] - exact.coefficients[3]) < 3.0 * mc.stderr[3]

    def test_stderr_carries_the_sampling_error_of_p0(self):
        # p_i = 2^-i: the huffman words are 1...10, so every qualifying zero
        # sees ones at both lags and only p0 varies from batch to batch.
        # With the whole-stream p0 in every batch the errors read 5.6e-18
        # while the estimate misses the closed form by 1.4e-4.
        d = CharacterDistribution.from_weights([(f"s{i}", 2.0 ** -i) for i in range(1, 31)])
        cb = build_huffman(d)
        exact = expected_isi_bit0(cb, d, memory=3)
        mc = isi_oracle(cb, d, memory=3, samples=200_000, rng=np.random.default_rng(1))
        for j in (2, 3):
            assert mc.coefficients[j] == mc.p0 == 0.49985754060092874
            gap = abs(mc.coefficients[j] - exact.coefficients[j])
            assert gap == pytest.approx(1.4e-4, abs=1e-5)
            assert 1e-4 < mc.stderr[j] < 1e-2
            assert gap < 3.0 * mc.stderr[j]

    @pytest.mark.parametrize("memory", [2, 3, 5])
    @pytest.mark.parametrize("name", ["hcb", "pcb", "icb", "coin"])
    def test_uses_the_exact_window_rule(self, request, dist, name, memory):
        if name == "coin":
            d, cb = request.getfixturevalue("coin")
        else:
            d, cb = dist, request.getfixturevalue(name)
        exact = expected_isi_bit0(cb, d, memory=memory, corrected=cb.corrected)
        mc = isi_oracle(cb, d, memory=memory, corrected=cb.corrected, samples=100_000)
        assert mc.window_rule == exact.window_rule

    def test_rejects_tiny_sample_budgets(self, hcb, dist):
        with pytest.raises(ValueError):
            isi_oracle(hcb, dist, samples=10_000)

