"""Codebook construction, its checks, and codebook statistics."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molcode import codebooks
from molcode.codebooks import (
    CharacterDistribution,
    Codebook,
    build_huffman,
    build_proposed,
    expected_length,
    expected_ones,
    ita2,
    load_distribution,
)

# Reference codeword table for the English letter distribution. Frozen from
# an independent hand-checked construction; the builder must reproduce it
# bit for bit.
GOLDEN_HUFFMAN = {
    "E": "101", "A": "0000", "R": "0001", "I": "0010", "O": "0100",
    "T": "0101", "N": "0110", "S": "1001", "L": "1100", "C": "1110",
    "U": "00110", "D": "01110", "P": "01111", "M": "10000", "H": "10001",
    "G": "11010", "B": "11110", "F": "001110", "Y": "001111",
    "W": "110110", "K": "110111", "V": "111110", "X": "11111100",
    "Z": "11111101", "J": "11111110", "Q": "11111111",
}

# Statistics of the three bundled codebooks under the English letters,
# frozen at full precision from the same reference construction.
EXP_LEN_HUFFMAN = 4.273785726214272
EXP_ONES_HUFFMAN = 1.9753280246719744
EXP_LEN_PROPOSED = 6.249113750886247
EXP_ONES_ITA2 = 2.469588530411469
ONES_RATIO = 0.7998611915900243


def small_distributions():
    """Random distributions over 2..6 symbols for property tests."""
    return st.integers(2, 6).flatmap(
        lambda n: st.lists(
            st.floats(0.01, 1.0, allow_nan=False), min_size=n, max_size=n
        )
    ).map(
        lambda ws: CharacterDistribution.from_weights(
            {chr(ord("a") + i): w / math.fsum(ws) for i, w in enumerate(ws)}
        )
    )


class TestEnglishDistribution:
    def test_has_26_letters_summing_to_one(self, dist):
        assert len(dist.symbols) == 26
        assert math.fsum(dist.probs) == pytest.approx(1.0, abs=1e-12)

    def test_e_is_most_frequent(self, dist):
        assert max(dist.symbols, key=dist.prob) == "E"

    def test_probabilities_keep_relative_weights(self, dist):
        # E/A weight ratio survives normalization exactly.
        assert dist.prob("E") / dist.prob("A") == pytest.approx(
            11.1607 / 8.4966, rel=1e-12
        )


class TestHuffman:
    def test_reference_table_bit_exact(self, hcb):
        assert hcb.codewords == GOLDEN_HUFFMAN

    def test_expected_length(self, hcb, dist):
        assert expected_length(hcb, dist) == pytest.approx(EXP_LEN_HUFFMAN, abs=1e-12)

    def test_expected_ones(self, hcb, dist):
        assert expected_ones(hcb, dist) == pytest.approx(EXP_ONES_HUFFMAN, abs=1e-12)

    def test_kraft_equality(self, hcb):
        assert hcb.kraft_sum() == Fraction(1)

    @pytest.mark.parametrize("weights, words", [
        ((0.5, 0.5), ("0", "1")),
        ((0.25, 0.25, 0.25, 0.25), ("00", "01", "10", "11")),
        ((0.2, 0.2, 0.2, 0.2, 0.2), ("000", "001", "10", "11", "01")),
        ((0.3, 0.2, 0.2, 0.2, 0.1), ("00", "010", "10", "11", "011")),
    ], ids=["two-equal", "four-equal", "five-equal", "three-way-tie"])
    def test_exact_ties_break_first_in_first_out(self, weights, words):
        # Equal groups merge first in, first out, and at an exact tie the
        # earlier-inserted group takes bit 0.
        symbols = "abcde"[:len(weights)]
        d = CharacterDistribution.from_weights(dict(zip(symbols, weights)))
        assert build_huffman(d).codewords == dict(zip(symbols, words))

    def test_two_unequal_symbols(self):
        d = CharacterDistribution.from_weights({"a": 0.9, "b": 0.1})
        cb = build_huffman(d)
        assert cb.codewords == {"a": "0", "b": "1"}

    def test_deep_tree_builds(self):
        # p_i = 2**-i makes a chain-shaped tree 1049 levels deep, far past
        # the interpreter's recursion limit, whose codewords hold n**2 / 2
        # bits: each merge puts the rest of the chain on the 1 branch.
        n = 1050
        d = CharacterDistribution(tuple(f"s{i}" for i in range(1, n + 1)),
                                  tuple(2.0 ** -i for i in range(1, n + 1)))
        words = build_huffman(d).codewords
        lengths = sorted(len(w) for w in words.values())
        assert lengths == list(range(1, n)) + [n - 1]
        assert words == {**{f"s{i}": "1" * (i - 1) + "0" for i in range(1, n)},
                         f"s{n}": "1" * (n - 1)}
        ordered = sorted(words.values())
        assert not any(b.startswith(a) for a, b in zip(ordered, ordered[1:]))

    @settings(max_examples=60, deadline=None)
    @given(small_distributions())
    def test_optimal_among_prefix_codes(self, d):
        """Cost matches brute force over all Kraft-tight length multisets."""
        cb = build_huffman(d)
        n = len(d.symbols)
        probs = sorted(d.probs, reverse=True)
        best = math.inf
        max_len = n - 1

        def search(remaining, budget, min_len, lengths):
            nonlocal best
            if remaining == 0:
                if budget == 0:
                    # Rearrangement: longest codes on rarest symbols.
                    cost = sum(p * l for p, l in zip(probs, sorted(lengths)))
                    best = min(best, cost)
                return
            for l in range(min_len, max_len + 1):
                share = Fraction(1, 2 ** l)
                if share * remaining < budget and l < max_len:
                    continue
                if share > budget:
                    break
                search(remaining - 1, budget - share, l, lengths + [l])

        search(n, Fraction(1), 1, [])
        assert expected_length(cb, d) == pytest.approx(best, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(small_distributions())
    def test_prefix_free_and_kraft_tight(self, d):
        cb = build_huffman(d)
        assert cb.kraft_sum() == Fraction(1)


class TestProposed:
    def test_is_bit_one_substitution_of_huffman(self, hcb, pcb):
        assert set(pcb.codewords) == set(hcb.codewords)
        for sym, w in hcb.codewords.items():
            assert pcb.codewords[sym] == w.replace("1", "10")

    def test_reference_codewords(self, pcb):
        assert pcb.codewords["E"] == "10010"
        assert pcb.codewords["S"] == "100010"
        assert pcb.codewords["H"] == "1000010"
        assert pcb.codewords["Q"] == "1010101010101010"

    def test_expected_length(self, pcb, dist):
        assert expected_length(pcb, dist) == pytest.approx(EXP_LEN_PROPOSED, abs=1e-12)

    def test_ones_count_unchanged_by_substitution(self, pcb, dist):
        assert expected_ones(pcb, dist) == pytest.approx(EXP_ONES_HUFFMAN, abs=1e-12)

    def test_kraft_strictly_below_one(self, pcb):
        assert pcb.kraft_sum() < 1

    def test_only_the_proposed_kind_is_corrected(self, hcb, pcb, icb):
        # A custom code without adjacent ones is still read uncorrected.
        custom = Codebook(kind="custom", codewords=dict(pcb.codewords))
        assert [cb.corrected for cb in (hcb, pcb, icb, custom)] == [False, True, False, False]

    @settings(max_examples=100, deadline=None)
    @given(small_distributions())
    def test_no_adjacent_ones_and_zero_tail(self, d):
        cb = build_proposed(d)
        for w in cb.codewords.values():
            assert "11" not in w
            assert len(w) == 1 or not w.endswith("1")


class TestIta2:
    def test_five_bit_fixed_length(self, icb):
        assert all(len(w) == 5 for w in icb.codewords.values())
        assert len(set(icb.codewords.values())) == 26

    def test_frequent_letters_get_light_codes(self, icb, dist):
        # The assignment pairs letters by frequency rank with the standard
        # five-bit patterns in alphabetical order, so E lands on the
        # pattern listed first.
        assert icb.codewords["E"] == "11000"
        ranked = sorted(dist.symbols, key=dist.prob, reverse=True)
        assert [icb.codewords[s] for s in ranked] == list(codebooks._ITA2_ALPHABETICAL)

    def test_expected_ones(self, icb, dist):
        assert expected_ones(icb, dist) == pytest.approx(EXP_ONES_ITA2, abs=1e-12)

    def test_ones_ratio_vs_huffman(self, hcb, icb, dist):
        ratio = expected_ones(hcb, dist) / expected_ones(icb, dist)
        assert ratio == pytest.approx(ONES_RATIO, abs=1e-12)


class TestValidate:
    """Building a codebook rejects a code its decoders cannot read."""

    def test_duplicate_codeword(self):
        with pytest.raises(ValueError, match="not prefix free"):
            Codebook(kind="custom", codewords={"a": "0", "b": "0"})

    def test_prefix_violation(self):
        with pytest.raises(ValueError, match="not prefix free"):
            Codebook(kind="custom", codewords={"a": "0", "b": "01"})

    def test_kraft_overflow(self):
        # Kraft sum 5/4: a code past the Kraft bound cannot be prefix free.
        with pytest.raises(ValueError, match="not prefix free"):
            Codebook(kind="custom", codewords={"a": "0", "b": "1", "c": "10"})

    def test_adjacent_ones_flagged_for_proposed_kind(self):
        with pytest.raises(ValueError, match="'110' for symbol 'a'"):
            Codebook(kind="proposed", codewords={"a": "110", "b": "0"})
        # The same words are a valid code of another kind.
        Codebook(kind="custom", codewords={"a": "110", "b": "0"})

    def test_trailing_one_flagged_for_proposed_kind(self):
        # Every 1 of a proposed code is followed by a 0 of its own codeword,
        # as the expansion of 1 to 10 gives.
        with pytest.raises(ValueError, match="'01' for symbol 'a'"):
            Codebook(kind="proposed", codewords={"a": "01", "b": "00"})


class TestDistributionIO:
    def test_from_weights_accepts_percent_and_fraction(self):
        pct = CharacterDistribution.from_weights({"a": 75.0, "b": 25.0})
        frac = CharacterDistribution.from_weights({"a": 0.75, "b": 0.25})
        assert pct.prob("a") == pytest.approx(frac.prob("a"), abs=1e-15)

    def test_from_weights_rejects_bad_total(self):
        with pytest.raises(ValueError):
            CharacterDistribution.from_weights({"a": 0.5, "b": 0.3})

    def test_from_weights_rejects_single_symbol(self):
        with pytest.raises(ValueError):
            CharacterDistribution.from_weights({"a": 1.0})

    def test_load_distribution_percent_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("symbol,percent\na,60\nb,40\n")
        d = load_distribution(p)
        assert d.prob("a") == pytest.approx(0.6)

    def test_load_distribution_prob_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("symbol,prob\nx,0.25\ny,0.75\n")
        d = load_distribution(p)
        assert d.prob("y") == pytest.approx(0.75)

    def test_load_distribution_bad_sum(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("symbol,prob\nx,0.2\ny,0.2\n")
        with pytest.raises(ValueError):
            load_distribution(p)

    @pytest.mark.parametrize("probs", [(math.nan, math.nan), (0.5, math.nan), (math.inf, 0.5)])
    def test_rejects_non_finite_probabilities(self, probs):
        with pytest.raises(ValueError, match="finite"):
            CharacterDistribution(("a", "b"), probs)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_load_distribution_rejects_non_finite(self, tmp_path, cell):
        p = tmp_path / "d.csv"
        p.write_text(f"symbol,prob\na,{cell}\nb,0.5\n")
        with pytest.raises(ValueError, match="finite"):
            load_distribution(p)

    def test_unknown_symbol_is_a_key_error(self, dist):
        with pytest.raises(KeyError):
            dist.prob("?")

    def test_statistics_of_a_large_alphabet(self):
        # 20000 equiprobable symbols, symbol i coded as i in 15 binary
        # digits. Bit b is set in (n >> b + 1) << b numbers below n, plus
        # the part of the last incomplete period above 2**b.
        n, width = 20_000, 15
        syms = [f"s{i}" for i in range(n)]
        dist = CharacterDistribution.from_weights([(s, 1.0 / n) for s in syms])
        cb = Codebook(kind="custom",
                      codewords={s: format(i, f"0{width}b") for i, s in enumerate(syms)})
        ones = sum((n >> b + 1 << b) + max(0, n % (2 << b) - (1 << b)) for b in range(width))
        assert expected_length(cb, dist) == pytest.approx(width, rel=1e-9)
        assert expected_ones(cb, dist) == pytest.approx(ones / n, rel=1e-9)
