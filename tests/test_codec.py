"""Encoding, the receiver's count read and correction, decoding, thresholds."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molcode import (
    CalibratedThreshold,
    CalibrationError,
    ConstantThreshold,
    PilotThreshold,
    collect_pilot_stats,
    decode,
    encode,
    channel_coefficients,
    pilot_threshold,
)
from molcode import mc_sim
from molcode.codebooks import Codebook, CharacterDistribution, build_huffman
from molcode.codec import _COUNT_LIMIT, _count_cut, _read_bits

bitstrings = st.text(alphabet="01", min_size=0, max_size=64)


def _contraction_decode(bits, cb):
    """The sequential dict-trie decoder that decode replaced, as a reference.

    The run-length-limited kind is decoded on its contracted tree: each
    10 pair walks branch 1, and a 1 followed by another 1 stops decoding
    as a contract violation. Returns (symbols, residue, dead_end, violation).
    """
    contracted = cb.kind == "proposed"
    if contracted:
        words = {s: w.replace("10", "1") for s, w in cb.codewords.items()}
    else:
        words = cb.codewords
    root = {}
    for sym, word in words.items():
        node = root
        for bit in word[:-1]:
            node = node.setdefault(bit, {})
        node[word[-1]] = sym

    symbols = []
    node = root
    word_start = pos = 0
    violation = dead_end = False
    n = len(bits)
    while pos < n:
        bit = bits[pos]
        if contracted and bit == "1":
            if pos + 1 >= n:
                break  # incomplete pair, left as residue
            if bits[pos + 1] == "1":
                violation = True
                break
            step = 2
        else:
            step = 1
        nxt = node.get(bit)
        if nxt is None:
            dead_end = True
            break
        pos += step
        if isinstance(nxt, dict):
            node = nxt
        else:
            symbols.append(nxt)
            node = root
            word_start = pos
    return tuple(symbols), bits[word_start:], dead_end, violation


class TestEncode:
    def test_concatenates_codewords(self, hcb):
        assert encode("EA", hcb) == "101" + "0000"

    def test_unknown_symbol_names_position(self, hcb):
        with pytest.raises(ValueError, match=r"position 1"):
            encode("E?", hcb)

    def test_empty_text(self, hcb):
        assert encode("", hcb) == ""


def read_row(bits, corrected=True):
    """A bit string read as one row of 0/1 counts with cut 1, back as a string."""
    counts = np.array([[int(b) for b in bits]], dtype=np.int8)
    return "".join(map(str, _read_bits(counts, 1, corrected)[0]))


class TestReadBits:
    """_read_bits reads counts against a cut and corrects a corrected kind."""

    def test_runs_of_ones(self, correct_row):
        rows = [[0] * lead + [1] * run + [0] + [1] * (6 - run) + [0] * (3 - lead)
                for run in range(1, 6) for lead in range(3)]
        det = np.array(rows, dtype=np.int8)
        got = _read_bits(det, 1, corrected=True)
        assert got.dtype == np.int8 and got.shape == det.shape
        assert got.tolist() == [correct_row(row) for row in rows]
        # A run keeps its first, third and fifth 1.
        assert [got[3 * (run - 1), :run].tolist() for run in range(1, 6)] == [
            [1], [1, 0], [1, 0, 1], [1, 0, 1, 0], [1, 0, 1, 0, 1]]

    def test_random_rows(self, correct_row):
        det = np.random.default_rng(3).integers(0, 2, size=(200, 40), dtype=np.int8)
        got = _read_bits(det, 1, corrected=True)
        assert got.tolist() == [correct_row(row) for row in det.tolist()]

    def test_one_column_is_unchanged(self):
        det = np.array([[0], [1], [1]], dtype=np.int8)
        np.testing.assert_array_equal(_read_bits(det, 1, corrected=True), det)

    def test_zero_rows(self):
        got = _read_bits(np.zeros((0, 7), dtype=np.int8), 1, corrected=True)
        assert got.shape == (0, 7) and got.dtype == np.int8

    def test_integer_counts_at_every_cut(self, correct_row):
        self._check_every_cut(correct_row, np.int32)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    def test_narrow_counts_at_every_cut(self, correct_row, dtype):
        self._check_every_cut(correct_row, dtype)

    @staticmethod
    def _check_every_cut(correct_row, dtype):
        # Counts as the simulator passes them: a view without spare columns.
        held = np.random.default_rng(5).integers(0, 12, size=(80, 39), dtype=dtype)
        before = held.copy()
        counts = held[:, :30]
        for cut in range(1, int(counts.max()) + 1):
            plain = [[int(c >= cut) for c in row] for row in counts.tolist()]
            assert _read_bits(counts, cut, corrected=False).tolist() == plain
            want = [correct_row(row) for row in plain]
            assert _read_bits(counts, cut, corrected=True).tolist() == want
        # The correction writes only the matrix the read returns.
        np.testing.assert_array_equal(held, before)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
    @pytest.mark.parametrize("corrected", [False, True])
    def test_clamped_cut_reads_nothing_in_narrow_counts(self, dtype, corrected):
        # A threshold past int32 clamps to _COUNT_LIMIT, far past these dtypes.
        counts = np.full((3, 5), np.iinfo(dtype).max, dtype=dtype)
        got = _read_bits(counts, _count_cut(1e12), corrected)
        assert _count_cut(1e12) == _COUNT_LIMIT
        assert got.dtype == np.int8 and not got.any()

    def test_threshold_is_inclusive(self):
        got = _read_bits(np.array([[120, 119]], dtype=np.int32), 120, corrected=False)
        assert got.tolist() == [[1, 0]]

    @given(bitstrings)
    def test_removes_every_adjacent_pair(self, bits):
        assert "11" not in read_row(bits)

    @given(bitstrings)
    def test_idempotent(self, bits):
        once = read_row(bits)
        assert read_row(once) == once

    @given(bitstrings)
    def test_never_creates_ones(self, bits):
        # Correction may clear a bit but must never set one.
        out = read_row(bits)
        assert len(out) == len(bits)
        assert all(raw == "1" for raw, kept in zip(bits, out) if kept == "1")


class TestDecode:
    def test_round_trip_huffman(self, hcb):
        text = "THEQUICKBROWNFOX"
        res = decode(encode(text, hcb), hcb)
        assert res.text == text
        assert res.residue == ""
        assert not res.dead_end

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
        assert res.dead_end
        assert res.symbols == ()
        assert res.residue == "11"

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

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ETAONISRHQZ", max_size=8), bitstrings)
    def test_matches_contraction_reference(self, hcb, pcb, icb, text, bits):
        # A valid prefix (empty when text is) followed by arbitrary bits.
        incomplete = Codebook(kind="custom", codewords={"a": "00", "b": "01", "c": "110"})
        cases = [(cb, encode(text, cb) + bits) for cb in (hcb, pcb, icb)]
        for cb, stream in cases + [(incomplete, bits)]:
            got = decode(stream, cb)
            symbols, residue, dead_end, violation = _contraction_decode(stream, cb)
            assert got.symbols == symbols
            assert got.residue == residue
            assert got.dead_end == (dead_end or violation)

    @pytest.mark.parametrize("words", [
        {"a": "0", "b": "01", "c": "11"},  # a codeword is a prefix of another
        {"a": "01", "b": "0", "c": "11"},  # a codeword ends at an interior node
        {"a": "0", "b": "10", "c": "10"},  # duplicate codewords
    ], ids=["prefix", "interior-end", "duplicate"])
    def test_code_that_is_not_prefix_free_rejected(self, words):
        with pytest.raises(ValueError, match="not prefix free"):
            Codebook(kind="custom", codewords=words)


class TestCodeTables:
    def test_alphabet_beyond_int16_rejected(self):
        words = {f"s{i}": format(i, "015b") for i in range(2 ** 15)}
        cb = Codebook(kind="custom", codewords=words)
        with pytest.raises(ValueError, match="32768 symbols exceed the limit of 32767"):
            cb.tables
        # One symbol fewer fits: the last index is still an int16.
        del words["s0"]
        tables = Codebook(kind="custom", codewords=words).tables
        assert tables.emit.max() == 2 ** 15 - 2

    def test_built_once_per_codebook(self, hcb):
        assert hcb.tables is hcb.tables

    def test_lay_places_codewords_back_to_back(self, hcb):
        tables = hcb.tables
        syms = np.array([hcb.symbols.index(c) for c in "EAT"])
        bits, pos = tables.lay(syms)
        assert "".join(map(str, bits)) == encode("EAT", hcb)
        assert list(pos) == [t for c in "EAT" for t in range(len(hcb.codewords[c]))]


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


def _pilot_counts(cb, params, molecules, master_seed):
    """The counts of 100 pilots of every codeword of cb."""
    coeffs = channel_coefficients(params, 0.08, 10)
    return mc_sim._pilot_counts(cb, coeffs, molecules, master_seed, 100)


def _pilot_stats(cb, params, molecules, master_seed):
    """Send 100 pilots of every codeword of cb, then read them."""
    return collect_pilot_stats(cb, _pilot_counts(cb, params, molecules, master_seed),
                               molecules)


class TestPilotProtocol:
    def test_levels_separate_on_reasonable_link(self, pcb, params):
        stats = _pilot_stats(pcb, params, molecules=60, master_seed=1)
        assert stats.signal_level > stats.interference_level
        assert stats.interference_level < stats.tau <= stats.signal_level

    def test_deterministic_in_master_seed(self, pcb, params):
        a = _pilot_counts(pcb, params, molecules=60, master_seed=5)
        b = _pilot_counts(pcb, params, molecules=60, master_seed=5)
        assert list(a) == list(pcb.codewords)
        for sym, word in pcb.codewords.items():
            assert a[sym].shape == (100, len(word))
            assert np.array_equal(a[sym], b[sym])

    def test_zero_budget_uncalibratable(self, pcb, params):
        with pytest.raises(CalibrationError):
            _pilot_stats(pcb, params, molecules=0, master_seed=1)

    def test_reading_hand_made_counts(self):
        # "100": peaks 5 and 7, quiet slot 2 peaks 2 and 0; "0" sends nothing.
        cb = Codebook(kind="custom", codewords={"a": "100", "b": "0"})
        counts = {"a": np.array([[5, 1, 2], [7, 0, 0]]), "b": np.zeros((2, 1))}
        stats = collect_pilot_stats(cb, counts, molecules=10)
        assert stats.peak_means == {"a": 6.0}
        assert (stats.signal_level, stats.interference_level) == (6.0, 2.0)
        assert stats.tau == pilot_threshold(6.0, 2.0, 10)

    @pytest.mark.parametrize("counts", [
        {"a": np.ones((2, 3))},
        {"a": np.ones((0, 3)), "b": np.ones((0, 1))},
        {"a": np.ones((2, 2)), "b": np.ones((2, 1))},
        {"a": np.ones((2, 3)), "b": np.ones((3, 1))},
        {"a": np.ones(3), "b": np.ones(1)},
    ], ids=["missing-symbol", "zero-rows", "wrong-width", "uneven-rows", "one-dimensional"])
    def test_malformed_counts_rejected(self, counts):
        cb = Codebook(kind="custom", codewords={"a": "100", "b": "0"})
        with pytest.raises(ValueError, match="pilot counts"):
            collect_pilot_stats(cb, counts, molecules=10)


class TestStrategyObjects:
    def test_constant_requires_positive(self):
        with pytest.raises(ValueError):
            ConstantThreshold(0.0)

    @pytest.mark.parametrize("make", [
        lambda: ConstantThreshold(float("inf")),
        lambda: ConstantThreshold(float("nan")),
        lambda: CalibratedThreshold(candidates=(0.0,)),
        lambda: CalibratedThreshold(candidates=(float("inf"),)),
        lambda: CalibratedThreshold(candidates=(4.0, float("nan"))),
        lambda: CalibratedThreshold(candidates=(True, 4.0)),
    ], ids=["constant-inf", "constant-nan", "candidate-zero", "candidate-inf", "candidate-nan",
            "candidate-bool"])
    def test_thresholds_must_be_positive_and_finite(self, make):
        with pytest.raises(ValueError, match="positive and finite"):
            make()

    @pytest.mark.parametrize("make, match", [
        (lambda: PilotThreshold(repetitions=2.5), "repetitions must be an integer"),
        (lambda: PilotThreshold(repetitions=True), "repetitions must be an integer"),
        (lambda: PilotThreshold(repetitions=0), "repetitions must be an integer"),
        (lambda: CalibratedThreshold(messages=2.5), "messages must be an integer"),
        (lambda: CalibratedThreshold(messages=True), "messages must be an integer"),
        (lambda: CalibratedThreshold(messages=0), "messages must be an integer"),
        (lambda: ConstantThreshold(tau=True), "positive and finite, got True"),
    ], ids=["repetitions-float", "repetitions-bool", "repetitions-zero", "messages-float",
            "messages-bool", "messages-zero", "tau-bool"])
    def test_counts_follow_the_integer_rule(self, make, match):
        # A float count used to construct and then fail inside run_cer, a
        # True count to run one pilot or one calibration message, and a
        # True tau to be reported as the threshold.
        with pytest.raises(ValueError, match=match):
            make()

    def test_defaults(self):
        assert PilotThreshold().repetitions == 100
        assert CalibratedThreshold().messages == 10_000
