"""The fast simulator paths against slow references kept here.

The symbol guide is checked against Generator.choice, the message lay
against rng.choice, CodeTables.lay and np.flatnonzero, in one block of
rows and in many, count
accumulation against a per-release Python loop, a chunk's bool scoring
against the int8 scoring it replaced, the step-table decoder
against the one-slot trie walk it replaced, the batched pilots against
one sample_arrivals call per codeword one, and threshold calibration
against the brute-force scorer it replaced: float counts from
full-length bincount passes, then a full read, correct, decode and score
of every candidate tau on its own. Every reference must agree exactly,
not statistically.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molcode import (
    CalibratedThreshold,
    CharacterDistribution,
    Codebook,
    ConstantThreshold,
    LinkConfig,
    build_huffman,
    build_proposed,
    english_letter_distribution,
    ita2,
    sample_arrivals,
)
from molcode import _inversion, codebooks, mc_sim
from molcode._inversion import _GUIDE_BUCKETS, symbol_table
from molcode.codebooks import _STEP_ENTRIES, PAST_END
from molcode.codec import _count_cut, _decode_rows, _read_bits
from molcode.mc_sim import (
    _CAL_TAG,
    _PILOT_TAG,
    CHUNK_TRIALS,
    _accumulate_counts,
    _budget_share,
    _calibrate_threshold,
    _default_candidates,
    _draw_chunk,
    _pilot_counts,
    _run_chunk,
    _symbol_guide,
)


def _link(codebook, dist, params, molecules, threshold=None, msg_len=10, memory=10):
    return LinkConfig(
        codebook=codebook, distribution=dist, params=params,
        molecules_per_one=molecules, char_duration=0.5,
        threshold=threshold or CalibratedThreshold(), msg_len=msg_len,
        memory=memory, trials=100, master_seed=0,
    )


def _bit_matrix(where, trials, max_t, spare):
    """The int8 (trials, max_t) 0/1 matrix with a 1 at each release position
    of where, in rows of max_t + spare slots."""
    bits = np.zeros((trials, max_t + spare), dtype=np.int8)
    bits.put(where, 1)
    return bits[:, :max_t]


def _laid_messages(tables, guide, trials, msg_len, spare, rng):
    """Messages drawn and laid as a chunk draws them, with their bit matrix.

    The symbols are guide.draw's and the release positions
    tables.lay_ones', as in mc_sim._draw_chunk. Returns (syms, tlen,
    bitmat, where).
    """
    syms = guide.draw(rng, trials * msg_len).reshape(trials, msg_len)
    tlen, where = tables.lay_ones(syms, spare)
    return syms, tlen, _bit_matrix(where, trials, int(tlen.max()), spare), where


def _release_loop_counts(bitmat, cfg, rng):
    """One release at a time, in row-major order, clipped at the row end."""
    trials, max_t = bitmat.shape
    rows, cols = np.nonzero(bitmat)
    arrivals = _sample_arrivals(cfg, rng, rows.size)
    counts = np.zeros((trials, max_t), dtype=np.int64)
    for r, c, spread in zip(rows, cols, arrivals):
        for k, a in enumerate(spread):
            if c + k < max_t:
                counts[r, c + k] += a
    return counts


def _sample_arrivals(cfg, rng, size):
    return sample_arrivals(cfg.molecules_per_one, cfg.coefficients, rng, size=size)


def _symbol_probs(cb, dist):
    return np.array([dist.prob(s) for s in cb.symbols])


# -- the symbol guide against Generator.choice ---------------------------
#: The guide entry of a bucket whose draws search: int16's largest value.
FLAG = np.iinfo(np.int16).max


def _assert_draws_like_choice(probs, size, seed):
    probs = np.asarray(probs, dtype=float)
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = want_rng.choice(len(probs), size=size, p=probs)
    got = symbol_table(probs).draw(got_rng, size)
    assert got.dtype == np.int16
    np.testing.assert_array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    return got


class TestSymbolGuide:
    def test_english(self, dist, hcb):
        _assert_draws_like_choice(_symbol_probs(hcb, dist), 200_000, 1)

    def test_two_symbols(self):
        _assert_draws_like_choice([0.7, 0.3], 100_000, 2)

    def test_cdf_on_bucket_edges(self):
        # Every CDF value is a bucket edge, so no bucket holds a change of
        # symbol and none is searched.
        probs = [0.25, 0.25, 0.5]
        assert (symbol_table(probs).guide != FLAG).all()
        _assert_draws_like_choice(probs, 100_000, 3)

    def test_symbol_below_one_bucket(self):
        # The rare symbol lies inside the first bucket, which is searched.
        probs = np.array([1e-4, 0.3, 0.7 - 1e-4])
        assert symbol_table(probs).guide[0] == FLAG
        got = _assert_draws_like_choice(probs, 200_000, 4)
        assert (got == 0).any()

    def test_most_buckets_searched(self):
        rng = np.random.default_rng(5)
        weights = rng.random(1000)
        guide = symbol_table(weights / weights.sum())
        assert (guide.guide == FLAG).mean() > 0.5
        _assert_draws_like_choice(weights / weights.sum(), 50_000, 6)

    def test_alphabet_at_the_int16_limit(self):
        # 32767 symbols, the most a codebook takes: the last index, 32766,
        # sits one below the flag, and a heavy last symbol holds buckets.
        weights = np.random.default_rng(7).random(32767)
        weights[-1] = 2000.0
        table = symbol_table(weights / weights.sum())
        assert table.flag == FLAG and (table.guide == FLAG - 1).any()
        got = _assert_draws_like_choice(weights / weights.sum(), 200_000, 8)
        assert got.max() == FLAG - 1

    @settings(max_examples=60, deadline=None)
    @given(
        weights=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=60).filter(
            lambda w: sum(w) > 1e-3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_weights(self, weights, seed):
        probs = np.array(weights) / sum(weights)
        _assert_draws_like_choice(probs, 5000, seed)

    @pytest.mark.parametrize("probs", [[0.25, 0.25, 0.5], [1e-4, 0.3, 0.7 - 1e-4], None])
    def test_every_entry_holds_at_both_bucket_ends(self, dist, hcb, probs):
        # The search is monotone in u, so an entry that is the search's
        # answer at the least and the greatest uniform of its bucket is
        # the answer for every uniform in between.
        probs = _symbol_probs(hcb, dist) if probs is None else np.asarray(probs)
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        guide = symbol_table(probs).guide
        held = np.flatnonzero(guide != FLAG)
        low = held / _GUIDE_BUCKETS
        high = (held + 1) / _GUIDE_BUCKETS - 2.0 ** -53
        for u in (low, high):
            np.testing.assert_array_equal(cdf.searchsorted(u, side="right"), guide[held])


# -- Table.of against a brute-force first-hit search -----------------------
_LATTICE = 2**53
_STEP = _LATTICE // _GUIDE_BUCKETS
#: Lattice points a cut may sit on: anywhere, on a bucket's first point or
#: on a bucket's last one.
_CUT = st.one_of(
    st.integers(0, _LATTICE - 1),
    st.integers(0, _GUIDE_BUCKETS - 1).map(lambda b: b * _STEP),
    st.integers(1, _GUIDE_BUCKETS).map(lambda b: b * _STEP - 1),
)


@st.composite
def _cut_rows(draw):
    """Ascending int64 cut rows of one width, repeats included, each ending
    in a cut that no uniform passes."""
    rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    cuts = [sorted(draw(st.lists(_CUT, min_size=width - 1, max_size=width - 1)))
            for _ in range(rows)]
    last = draw(st.sampled_from([_LATTICE - 1, _LATTICE]))
    repeat = draw(st.booleans())  # a cut twice in a row
    return np.array([row[:1] * repeat + row[repeat:] + [last] for row in cuts],
                    dtype=np.int64)


def _first_hit(cuts, rows, m):
    """The first x of each row whose cut reaches the lattice point m."""
    return np.array([np.argmax(cuts[r] >= v) for r, v in zip(rows, m)])


class TestTableOf:
    @settings(max_examples=150, deadline=None)
    @given(cuts=_cut_rows(), seed=st.integers(0, 2**32 - 1))
    def test_guide_search_draw_and_lookup_agree(self, cuts, seed):
        rows, width = cuts.shape
        table = _inversion.Table.of(cuts, np.uint8, np.full(rows, width - 1), 1.0)
        row = np.repeat(np.arange(rows), _GUIDE_BUCKETS)
        first = np.tile(np.arange(_GUIDE_BUCKETS) * _STEP, rows)
        low = table.search(row, first / _LATTICE)
        high = table.search(row, (first + _STEP - 1) / _LATTICE)
        np.testing.assert_array_equal(low, _first_hit(cuts, row, first))
        np.testing.assert_array_equal(high, _first_hit(cuts, row, first + _STEP - 1))
        held = table.guide != table.flag
        np.testing.assert_array_equal(table.guide[held], low[held])
        np.testing.assert_array_equal(table.guide[held], high[held])
        assert (low[~held] != high[~held]).all()

        # Random uniforms, and those at and just past every cut.
        rng = np.random.default_rng(seed)
        near = np.clip(np.concatenate([cuts.ravel(), cuts.ravel() + 1]), 0, _LATTICE - 1)
        u = np.concatenate([rng.random(2000), near / _LATTICE])
        n = rng.integers(0, rows, u.size)
        want = _first_hit(cuts, n, (u * _LATTICE).astype(np.int64))
        np.testing.assert_array_equal(table.search(n, u), want)
        got, redraw = table.lookup(n.astype(np.uint8), u, _inversion.Scratch.empty(u.size))
        np.testing.assert_array_equal(got, want)
        assert not redraw
        drawn = table.draw(np.random.default_rng(seed), 2000)
        u = np.random.default_rng(seed).random(2000)
        np.testing.assert_array_equal(drawn, _first_hit(cuts, [0] * u.size, u * _LATTICE))


# -- the one-pass lay against choice, CodeTables.lay and flatnonzero -------
def _reference_bits(tables, probs, trials, msg_len, rng):
    """Messages drawn by rng.choice and laid bit by bit by CodeTables.lay."""
    syms = rng.choice(len(probs), size=trials * msg_len, p=probs).reshape(trials, msg_len)
    tlen = tables.word_len[syms].sum(axis=1)
    bitmat = np.zeros((trials, int(tlen.max())), dtype=np.int8)
    bitmat[np.arange(bitmat.shape[1]) < tlen[:, None]] = tables.lay(syms)[0]
    return syms, tlen, bitmat


LAY_CODES = {
    **{kind: None for kind in ("huffman", "proposed", "ita2")},
    "one-bit": (0.6, 0.4),
    "incomplete": (0.5, 0.3, 0.2),
    # Most messages of two characters are all "00": rows with no release.
    "zero-word": (0.8, 0.15, 0.05),
}


class TestSampleBits:
    @pytest.mark.parametrize("spare", [0, 9])
    @pytest.mark.parametrize("code", sorted(LAY_CODES))
    def test_matches_choice_lay_and_flatnonzero(self, code, spare, dist):
        if code == "zero-word":
            cb = Codebook(kind="custom", codewords={"a": "00", "b": "01", "c": "1"})
            msg_len = 2
        else:
            cb = DECODE_CODES[code]
            msg_len = 7
        probs = (_symbol_probs(cb, dist) if LAY_CODES[code] is None
                 else np.array(LAY_CODES[code]))
        want_rng, got_rng = np.random.default_rng(12), np.random.default_rng(12)
        want_syms, want_tlen, want_bits = _reference_bits(cb.tables, probs, 700, msg_len,
                                                          want_rng)
        max_t = want_bits.shape[1]
        want_where = np.flatnonzero(want_bits)
        want_where += want_where // max_t * spare

        syms, tlen, bitmat, where = _laid_messages(cb.tables, symbol_table(probs), 700,
                                                   msg_len, spare, got_rng)
        np.testing.assert_array_equal(syms, want_syms)
        np.testing.assert_array_equal(tlen, want_tlen)
        assert bitmat.shape == want_bits.shape
        np.testing.assert_array_equal(bitmat, want_bits)
        np.testing.assert_array_equal(where, want_where)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        if code == "zero-word":
            assert (np.count_nonzero(bitmat, axis=1) == 0).any()


class TestBlockedLay:
    """lay_ones a few rows at a time against CodeTables.lay in one pass."""

    @pytest.mark.parametrize("spare", [0, 9])
    @pytest.mark.parametrize("block", [1, 64])
    @pytest.mark.parametrize("code", ["huffman", "proposed", "ita2", "zero-word"])
    def test_matches_one_pass(self, code, block, spare, dist, monkeypatch):
        monkeypatch.setattr(codebooks, "_LAY_BLOCK", block)
        if code == "zero-word":
            cb = Codebook(kind="custom", codewords={"a": "00", "b": "01", "c": "1"})
            probs, msg_len = np.array([0.5, 0.3, 0.2]), 2
        else:
            cb = DECODE_CODES[code]
            probs, msg_len = _symbol_probs(cb, dist), 7
        rows = max(1, block // msg_len)
        trials = 4 * rows + rows // 2 + 1  # four whole blocks and a short one
        syms = symbol_table(probs).draw(np.random.default_rng(4), trials * msg_len)
        syms = syms.reshape(trials, msg_len)
        if code == "zero-word":
            # The first block and the short last one lay no ones.
            syms[:rows] = syms[4 * rows:] = 0

        tables = cb.tables
        want_tlen = tables.word_len[syms].sum(axis=1)
        max_t = int(want_tlen.max())
        bits = np.zeros((trials, max_t + spare), dtype=np.int8)
        bits[:, :max_t][np.arange(max_t) < want_tlen[:, None]] = tables.lay(syms)[0]
        tlen, where = tables.lay_ones(syms, spare)
        np.testing.assert_array_equal(tlen, want_tlen)
        np.testing.assert_array_equal(where, np.flatnonzero(bits))
        if code == "zero-word":
            assert not bits[:rows].any() and not bits[4 * rows:].any()
            assert bits[rows:4 * rows].any()


def _fast_and_loop_counts(cfg, trials, seed):
    """_accumulate_counts and the release loop on one laid chunk and stream,
    with its bit matrix and message lengths; where is checked unchanged."""
    rng = np.random.default_rng(seed)
    syms, tlen, bitmat, where = _laid_messages(cfg.codebook.tables, _symbol_guide(cfg),
                                               trials, cfg.msg_len, cfg.memory - 1, rng)
    state, sent = rng.bit_generator.state, where.copy()
    fast = _accumulate_counts(where, bitmat.shape, cfg, rng)
    np.testing.assert_array_equal(where, sent)
    rng.bit_generator.state = state
    return fast, _release_loop_counts(bitmat, cfg, rng), bitmat, tlen


class TestAccumulateCounts:
    @pytest.mark.parametrize("kind", ["huffman", "proposed"])
    def test_matches_release_loop(self, kind, dist, hcb, pcb, params):
        cfg = _link(hcb if kind == "huffman" else pcb, dist, params, molecules=40, msg_len=4)
        fast, slow, bitmat, tlen = _fast_and_loop_counts(cfg, 300, 11)

        # 40 molecules over 10 slots of memory can sum to 400, past uint8.
        assert fast.dtype == np.uint16
        assert fast.shape == bitmat.shape
        np.testing.assert_array_equal(fast, slow)
        # The case the spare columns exist for: windows that run past max_t.
        _, cols = np.nonzero(bitmat)
        assert (cols + cfg.memory > bitmat.shape[1]).any()
        # And counts past a message's own end stay in the matrix.
        past_end = np.arange(bitmat.shape[1]) >= tlen[:, None]
        assert fast[past_end].any()

    # molecules * memory on both sides of uint8's largest value, 255; the
    # releases of 260 molecules are drawn by rng.binomial, not by tables.
    @pytest.mark.parametrize("molecules, memory, dtype", [
        (25, 10, np.uint8), (26, 10, np.uint16), (250, 1, np.uint8), (260, 1, np.uint16)])
    def test_narrowest_dtype_at_the_uint8_edge(self, molecules, memory, dtype, dist, pcb,
                                               params):
        cfg = _link(pcb, dist, params, molecules, msg_len=6, memory=memory)
        fast, slow, _, _ = _fast_and_loop_counts(cfg, 200, molecules)
        assert fast.dtype == dtype
        np.testing.assert_array_equal(fast, slow)
        assert slow.max() > 0


# -- the bool scoring of a chunk against the int8 block it replaced --------
def _int8_chunk_totals(cfg, trials, tau, seed_tuple):
    """A chunk's totals as _run_chunk scored them on int8 matrices.

    The sent bits are an int8 matrix put together from the release
    positions, and both it and the read bits are compared with == 1 and
    == 0.
    """
    syms, tlen, where, counts = _draw_chunk(cfg, _symbol_guide(cfg), trials, seed_tuple)
    bitmat = _bit_matrix(where, trials, counts.shape[1], cfg.memory - 1)
    final = _read_bits(counts, _count_cut(tau), cfg.codebook.corrected)
    err_per_trial, dec_len, dead, incomplete = _decode_rows(final, tlen, syms,
                                                            cfg.codebook.tables)

    valid = np.arange(bitmat.shape[1])[None, :] < tlen[:, None]
    slots = int(tlen.sum())
    sent_ones = int(np.count_nonzero(bitmat))
    read_ones = int(np.count_nonzero(final & valid))
    kept_ones = int(np.count_nonzero(bitmat & final))

    sent, got = bitmat, final
    ctx100 = (sent[:, :-2] == 1) & (sent[:, 1:-1] == 0) & (sent[:, 2:] == 0) & valid[:, 2:]
    ctx_x01 = (sent[:, :-1] == 0) & (sent[:, 1:] == 1)
    return {
        "00": slots - sent_ones - read_ones + kept_ones,
        "01": read_ones - kept_ones,
        "10": sent_ones - kept_ones,
        "11": kept_ones,
        "ctx_100": int(ctx100.sum()),
        "ctx_100_err": int((ctx100 & (got[:, 2:] == 1)).sum()),
        "ctx_x01": int(ctx_x01.sum()),
        "ctx_x01_err": int((ctx_x01 & (got[:, 1:] == 0)).sum()),
        "dead_end": int(dead.sum()),
        "incomplete_tail": int(incomplete.sum()),
        "decoded_overflow": int((dec_len > cfg.msg_len).sum()),
        "sum_err": int(err_per_trial.sum()),
        "sum_err_sq": int((err_per_trial ** 2).sum()),
    }


SCORE_CODES = {
    **{kind: None for kind in ("huffman", "proposed", "ita2")},
    # Rows of one or two characters with no release at all.
    "zero-word": ({"a": "00", "b": "01", "c": "1"}, (0.8, 0.15, 0.05)),
    # Releases in adjacent slots and in the last slot of a row.
    "one-bit": ({"a": "0", "b": "1"}, (0.6, 0.4)),
}


class TestChunkScoring:
    @pytest.mark.parametrize("memory", [1, 2, 3, 10])
    @pytest.mark.parametrize("code", sorted(SCORE_CODES))
    def test_matches_int8_scoring(self, code, memory, dist, params):
        if SCORE_CODES[code] is None:
            cb, link_dist = DECODE_CODES[code], dist
        else:
            words, probs = SCORE_CODES[code]
            cb = Codebook(kind="custom", codewords=words)
            link_dist = CharacterDistribution(cb.symbols, probs)
        errors = 0
        for msg_len in (1, 10):
            for molecules in (0, 5, 40, 300):
                cfg = _link(cb, link_dist, params, molecules, ConstantThreshold(1.0),
                            msg_len=msg_len, memory=memory)
                tau = max(1.0, 0.4 * molecules * cfg.coefficients[0])
                seed = (molecules, msg_len, memory)
                want = _int8_chunk_totals(cfg, 400, tau, seed)
                got = _run_chunk(cfg, _symbol_guide(cfg), 400, tau, seed)
                assert got == want, (msg_len, molecules)
                assert all(type(total) is int for total in got.values())
                errors += got["01"] + got["10"]
        assert errors

    @pytest.mark.parametrize("msg_len", [1, 10])
    @pytest.mark.parametrize("code", ["huffman", "proposed", "ita2"])
    def test_blocks_of_rows_score_as_one(self, code, msg_len, dist, params, monkeypatch):
        # Blocks of 1 row, of 3 rows with a short last one, and the chunk.
        cb = DECODE_CODES[code]
        cfg = _link(cb, dist, params, 40, ConstantThreshold(1.0), msg_len=msg_len, memory=3)
        tau, seed, trials = 0.4 * 40 * cfg.coefficients[0], (msg_len,), 100
        want = _int8_chunk_totals(cfg, trials, tau, seed)
        for rows in (1, 3, trials):
            monkeypatch.setattr(mc_sim, "_SCORE_BLOCK", rows * msg_len)
            assert _run_chunk(cfg, _symbol_guide(cfg), trials, tau, seed) == want, rows


# -- the step-table decoder against the one-slot trie walk ---------------
def _one_slot_decode_rows(final, tlen, syms, tables):
    """The decoder the step table replaced: one trie edge per row and slot."""
    trials, max_t = final.shape
    msg_len = syms.shape[1]
    inputs = np.where(np.arange(max_t) < tlen[:, None], final, PAST_END)
    # Decoded symbol j of a row is checked against sent[row, min(j, msg_len)];
    # the extra column holds -2, which no emission equals.
    sent = np.full((trials, msg_len + 1), -2, dtype=np.int16)
    sent[:, :msg_len] = syms
    sent = sent.ravel()
    base = np.arange(trials, dtype=np.int64) * (msg_len + 1)
    at = np.zeros(trials, dtype=np.int64)  # 3 * the state of each row
    decoded = np.zeros(trials, dtype=np.int64)
    matches = np.zeros(trials, dtype=np.int64)
    for t in range(max_t):
        edge = at + inputs[:, t]
        sym = tables.emit[edge]
        at = tables.next_at[edge]
        matches += sym == sent[base + np.minimum(decoded, msg_len)]
        decoded += sym >= 0
    state = at // 3
    dead = state == tables.dead
    incomplete = (~dead) & (state != 0)
    return msg_len - matches, decoded, dead, incomplete


_ENGLISH = english_letter_distribution()
DECODE_CODES = {
    "huffman": build_huffman(_ENGLISH),
    "proposed": build_proposed(_ENGLISH),
    "ita2": ita2(),
    # 11 and 101 have no trie edge, so random bits reach dead ends.
    "incomplete": Codebook(kind="custom", codewords={"a": "00", "b": "01", "c": "100"}),
    # Every slot completes a symbol: the most emissions an entry can hold.
    "one-bit": Codebook(kind="custom", codewords={"a": "0", "b": "1"}),
}


def _random_rows(cb, rng, trials, msg_len, max_t, ones):
    """Random read bits, message lengths and sent symbols for cb."""
    final = (rng.random((trials, max_t)) < ones).astype(np.int8)
    tlen = rng.integers(0, max_t + 1, size=trials)
    syms = rng.integers(0, len(cb.codewords), size=(trials, msg_len))
    return final, tlen, syms


def _assert_same_decode(final, tlen, syms, tables):
    want = _one_slot_decode_rows(final, tlen, syms, tables)
    got = _decode_rows(final, tlen, syms, tables)
    for name, w, g in zip(("errors", "decoded", "dead", "incomplete"), want, got):
        np.testing.assert_array_equal(g, w, err_msg=name)


class TestStepDecoder:
    @settings(max_examples=150, deadline=None)
    @given(
        code=st.sampled_from(sorted(DECODE_CODES)),
        seed=st.integers(0, 2**32 - 1),
        trials=st.integers(1, 60),
        msg_len=st.integers(1, 12),
        extra=st.integers(0, 70),
        ones=st.floats(0.0, 1.0),
    )
    def test_matches_one_slot_walk(self, code, seed, trials, msg_len, extra, ones):
        # Rows hold at least msg_len slots, as every message of msg_len
        # codewords does; tlen may fall anywhere up to the row end.
        cb = DECODE_CODES[code]
        rng = np.random.default_rng(seed)
        final, tlen, syms = _random_rows(cb, rng, trials, msg_len, msg_len + extra, ones)
        _assert_same_decode(final, tlen, syms, cb.tables)

    @pytest.mark.parametrize("code", sorted(DECODE_CODES))
    def test_matches_one_slot_walk_on_sent_messages(self, code):
        # Clean messages decode fully; a few flipped bits desynchronize.
        cb = DECODE_CODES[code]
        rng = np.random.default_rng(3)
        probs = np.full(len(cb.codewords), 1 / len(cb.codewords))
        syms, tlen, bitmat, _ = _laid_messages(cb.tables, symbol_table(probs), 500, 10, 0,
                                               rng)
        flips = (rng.random(bitmat.shape) < 0.02).astype(np.int8)
        _assert_same_decode(bitmat, tlen, syms, cb.tables)
        _assert_same_decode(bitmat ^ flips, tlen, syms, cb.tables)

    @pytest.mark.parametrize("words", [{"a": "0", "b": "1"},
                                       {"a": "0", "b": "10", "c": "11"}])
    def test_rows_that_decode_far_past_msg_len(self, words):
        # A 0 at a word start decodes an a, so a row of zeros decodes one
        # symbol a slot: the writes past msg_len are clipped, the decoded
        # counts are not.
        cb = Codebook(kind="custom", codewords=words)
        rng = np.random.default_rng(9)
        final, _, syms = _random_rows(cb, rng, 40, 3, 150, 0.3)
        final[::2] = 0
        tlen = np.full(40, 150)
        tlen[1::4] = rng.integers(0, 150, size=10)
        _assert_same_decode(final, tlen, syms, cb.tables)
        decoded = _decode_rows(final, tlen, syms, cb.tables)[1]
        assert (decoded[::2] == 150).all() and (decoded > 10 * syms.shape[1]).any()

    @pytest.mark.parametrize("symbols, bits, slots", [(1000, 10, 7), (2**15 - 1, 15, 3)])
    def test_large_alphabet_takes_fewer_slots(self, symbols, bits, slots):
        # Fixed-length words of the first symbols integers: a trie too big
        # for 8 slots per step, with dead ends past the last word.
        words = {f"s{i}": format(i, f"0{bits}b") for i in range(symbols)}
        cb = Codebook(kind="custom", codewords=words)
        steps = cb.tables.steps
        assert steps.slots == slots
        assert len(steps.next) == len(steps.count) == steps.emit.shape[1] <= _STEP_ENTRIES
        rng = np.random.default_rng(symbols)
        final, tlen, syms = _random_rows(cb, rng, 300, 3, 3 * bits + 5, 0.5)
        _assert_same_decode(final, tlen, syms, cb.tables)


# -- the batched pilots against one sample_arrivals call per codeword one --
def _loop_pilot_counts(cb, coefficients, molecules, master_seed, repetitions):
    """The pilot counts of one sample_arrivals call per codeword one, in
    codebook then word order, and the generator's final state."""
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, _PILOT_TAG)))
    out = {}
    for sym, word in cb.codewords.items():
        counts = out[sym] = np.zeros((repetitions, len(word)), dtype=np.int64)
        for i, bit in enumerate(word):
            if bit == "1":
                arrivals = sample_arrivals(molecules, coefficients, rng, size=repetitions)
                keep = min(len(coefficients), len(word) - i)
                counts[:, i:i + keep] += arrivals[:, :keep]
    return out, rng.bit_generator.state


def _ones(cb):
    return sum(word.count("1") for word in cb.codewords.values())


def _assert_pilots_like_loop(cb, coefficients, molecules, seed, repetitions):
    """Check _pilot_counts, and the generator it leaves, against the loop,
    and return the number of groups it drew through arrival_columns."""
    want, want_state = _loop_pilot_counts(cb, coefficients, molecules, seed, repetitions)
    made, calls = [], []
    default_rng, columns = np.random.default_rng, _inversion.arrival_columns
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng",
                      lambda *args: made.append(default_rng(*args)) or made[-1])
        patch.setattr(_inversion, "arrival_columns",
                      lambda *args: calls.append(args) or columns(*args))
        got = _pilot_counts(cb, coefficients, molecules, seed, repetitions)
    assert list(got) == list(want)
    for sym in want:
        assert got[sym].dtype == want[sym].dtype
        np.testing.assert_array_equal(got[sym], want[sym])
    (rng,) = made
    assert rng.bit_generator.state == want_state
    return len(calls)


class TestBatchedPilots:
    @pytest.mark.parametrize("memory", [1, 10])
    @pytest.mark.parametrize("molecules", [0, 1, 2, 3, 40, 255, 256])
    @pytest.mark.parametrize("kind", ["huffman", "proposed", "ita2"])
    def test_matches_one_call_per_one(self, kind, molecules, memory, dist, hcb, pcb, icb,
                                      params):
        cb = {"huffman": hcb, "proposed": pcb, "ita2": icb}[kind]
        cfg = _link(cb, dist, params, molecules, memory=memory)
        _assert_pilots_like_loop(cb, cfg.coefficients, molecules, 3, 100)

    @pytest.mark.parametrize("molecules", [1, 2, 3])
    def test_spent_releases_fall_back(self, molecules, dist, pcb, params):
        # With a few molecules over ten slots some release is spent before
        # the last slot, where numpy draws nothing, so its block falls back.
        cfg = _link(pcb, dist, params, molecules)
        assert 0 < _assert_pilots_like_loop(pcb, cfg.coefficients, molecules, 4, 100)

    @pytest.mark.parametrize("coefficients", [(0.3, 0.6, 0.05), (0.2, 0.0, 0.1)],
                             ids=["p-over-half", "zero-slot"])
    def test_slot_without_table_falls_back(self, coefficients, pcb):
        assert not all(_inversion.link_tables(40, coefficients)[1])
        assert _assert_pilots_like_loop(pcb, coefficients, 40, 5, 100) == _ones(pcb)

    # BLOCK of 250 releases: two pilot groups of 100 a block, and a group of
    # 300 that always takes arrival_columns.
    @pytest.mark.parametrize("repetitions, batched", [(100, True), (250, True), (300, False)])
    def test_many_blocks(self, repetitions, batched, dist, icb, params, monkeypatch):
        monkeypatch.setattr(_inversion, "BLOCK", 250)
        cfg = _link(icb, dist, params, 40, memory=3)
        fallbacks = _assert_pilots_like_loop(icb, cfg.coefficients, 40, 6, repetitions)
        assert fallbacks == (0 if batched else _ones(icb))

    def test_blocks_fall_back_one_by_one(self, dist, icb, params, monkeypatch):
        # With 2 molecules and blocks of 2 groups, some blocks are spent
        # before their last slot and some are not.
        monkeypatch.setattr(_inversion, "BLOCK", 20)
        cfg = _link(icb, dist, params, 2, memory=3)
        assert 0 < _assert_pilots_like_loop(icb, cfg.coefficients, 2, 6, 10) < _ones(icb)

    def test_redraw_falls_back(self, dist, pcb, params, monkeypatch):
        # As in test_redraw_falls_back_to_numpy: slot 3's cuts capped at
        # 0.999 make a uniform above that one numpy would redraw, which
        # some blocks of 10 groups draw and some do not.
        cfg = _link(pcb, dist, params, 43)
        probs, tables = _inversion.link_tables(43, cfg.coefficients)
        tables = list(tables)
        table = tables[3]
        rows = np.arange(len(table.bound))[:, None]
        cuts = table.keys.reshape(-1, table.width) - rows * (2**53 + 1)
        within = np.arange(table.width) <= table.bound[:, None]
        cuts = np.where(within, np.minimum(cuts, int(0.999 * 2**53)), cuts)
        tables[3] = _inversion.Table.of(cuts, np.uint8, table.bound, 0.0)
        monkeypatch.setattr(_inversion, "link_tables", lambda *key: (probs, tables))
        monkeypatch.setattr(_inversion, "BLOCK", 1000)
        fallbacks = _assert_pilots_like_loop(pcb, cfg.coefficients, 43, 2, 100)
        assert 0 < fallbacks < _ones(pcb)

    def test_many_blocks_at_full_size(self, dist, icb, params):
        cfg = _link(icb, dist, params, 30, memory=3)
        repetitions = _inversion.BLOCK // 3 + 1
        assert _assert_pilots_like_loop(icb, cfg.coefficients, 30, 7, repetitions) == 0

    @pytest.mark.parametrize("budget", [50, 70, 85, 100, 120])
    def test_reference_links_never_fall_back(self, budget, dist, pcb, params, monkeypatch):
        # A silent fallback would keep the counts and lose the batch.
        def refuse(*args, **kwargs):
            raise AssertionError("a pilot block fell back to arrival_columns")

        cfg = _link(pcb, dist, params, _budget_share(dist, pcb, budget))
        monkeypatch.setattr(_inversion, "arrival_columns", refuse)
        counts = _pilot_counts(pcb, cfg.coefficients, cfg.molecules_per_one, 1, 100)
        assert list(counts) == list(pcb.codewords)

    def test_groups_match_successive_calls(self, monkeypatch):
        monkeypatch.setattr(_inversion, "BLOCK", 64)
        coefficients = (0.2, 0.15, 0.1)
        want_rng, got_rng = np.random.default_rng(8), np.random.default_rng(8)
        want = [sample_arrivals(12, coefficients, want_rng, size=20) for _ in range(7)]
        got = list(_inversion.arrival_groups(12, coefficients, got_rng, 7, 20))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


# -- the brute-force calibration: one full scoring pass per candidate ------
class _ReferenceTrie:
    """The codeword trie as 2-D tables over (state, bit), with a dead state."""

    def __init__(self, cb, symbols):
        order = {s: i for i, s in enumerate(symbols)}
        children, leaf = [[-1, -1]], [[-1, -1]]
        for sym, word in cb.codewords.items():
            node = 0
            for bit in word[:-1]:
                b = int(bit)
                if children[node][b] == -1:
                    children.append([-1, -1])
                    leaf.append([-1, -1])
                    children[node][b] = len(children) - 1
                node = children[node][b]
            leaf[node][int(word[-1])] = order[sym]
        n = len(children)
        self.trans = np.full((n + 1, 2), n, dtype=np.int64)
        self.emit = np.full((n + 1, 2), -1, dtype=np.int64)
        for s in range(n):
            for b in (0, 1):
                if leaf[s][b] >= 0:
                    self.trans[s, b] = 0
                    self.emit[s, b] = leaf[s][b]
                elif children[s][b] >= 0:
                    self.trans[s, b] = children[s][b]


def _reference_counts(bitmat, cfg, rng):
    trials, max_t = bitmat.shape
    er, ec = np.nonzero(bitmat)
    counts = np.zeros(trials * max_t, dtype=np.float64)
    arrivals = _sample_arrivals(cfg, rng, er.size)
    for k in range(cfg.memory):
        dest = ec + k
        keep = dest < max_t
        lin = er[keep] * max_t + dest[keep]
        counts += np.bincount(lin, weights=arrivals[keep, k], minlength=trials * max_t)
    return counts.reshape(trials, max_t)


def _reference_errors(final, tlen, syms, trie):
    trials, max_t = final.shape
    msg_len = syms.shape[1]
    state = np.zeros(trials, dtype=np.int64)
    dec_len = np.zeros(trials, dtype=np.int64)
    out = np.full((trials, msg_len), -1, dtype=np.int64)
    rows = np.arange(trials)
    for t in range(max_t):
        act = t < tlen
        b = final[:, t].astype(np.int64)
        e = trie.emit[state, b]
        fire = act & (e >= 0)
        idx = rows[fire]
        keep = dec_len[idx] < msg_len
        out[idx[keep], dec_len[idx[keep]]] = e[fire][keep]
        dec_len[idx] += 1
        state = np.where(act, trie.trans[state, b], state)
    return int((out != syms).sum())


def _reference_correct(det):
    out = np.empty_like(det)
    prev = np.zeros(det.shape[0], dtype=det.dtype)
    for t in range(det.shape[1]):
        out[:, t] = prev = det[:, t] & (1 - prev)
    return out


def _brute_force_calibration(cfg, strategy, master_seed):
    candidates = strategy.candidates or _default_candidates(cfg)
    tables, probs = cfg.codebook.tables, _symbol_probs(cfg.codebook, cfg.distribution)
    trie = _ReferenceTrie(cfg.codebook, cfg.codebook.symbols)
    errors = [0] * len(candidates)
    remaining, index = strategy.messages, 0
    while remaining > 0:
        size = min(CHUNK_TRIALS, remaining)
        rng = np.random.default_rng(np.random.SeedSequence((master_seed, _CAL_TAG, index)))
        syms, tlen, bitmat = _reference_bits(tables, probs, size, cfg.msg_len, rng)
        counts = _reference_counts(bitmat, cfg, rng)
        for ci, tau in enumerate(candidates):
            det = (counts >= tau).astype(np.int8)
            final = _reference_correct(det) if cfg.codebook.kind == "proposed" else det
            errors[ci] += _reference_errors(final, tlen, syms, trie)
        remaining -= size
        index += 1
    best = min(range(len(candidates)), key=lambda i: (errors[i], candidates[i]))
    return float(candidates[best]), errors


class TestCalibrationEquivalence:
    def test_default_grid_over_two_chunks(self, dist, hcb, params):
        cfg = _link(hcb, dist, params, molecules=40)
        strategy = CalibratedThreshold(messages=CHUNK_TRIALS + 700)
        want, _ = _brute_force_calibration(cfg, strategy, 5)
        assert _calibrate_threshold(cfg, strategy, 5) == want

    def test_candidates_sharing_a_ceiling(self, dist, icb, params):
        # Up to four candidates per integer cut, out of order: the
        # candidates of a cut tie, and the smallest of the winning cut wins.
        cfg = _link(icb, dist, params, molecules=34)
        grid = (7.9, 3.2, 5.5, 7.1, 4.0, 6.6, 5.01, 3.9, 7.5, 6.1, 4.4, 3.05)
        strategy = CalibratedThreshold(candidates=grid, messages=3000)
        want, errors = _brute_force_calibration(cfg, strategy, 8)
        by_cut = {}
        for tau, err in zip(grid, errors):
            by_cut.setdefault(math.ceil(tau), set()).add(err)
        assert all(len(errs) == 1 for errs in by_cut.values())
        assert _calibrate_threshold(cfg, strategy, 8) == want

    def test_proposed_with_correction(self, dist, pcb, params):
        cfg = _link(pcb, dist, params, molecules=30)
        strategy = CalibratedThreshold(messages=4000)
        want, _ = _brute_force_calibration(cfg, strategy, 2)
        assert _calibrate_threshold(cfg, strategy, 2) == want
