"""The fast simulator paths against slow references kept here.

Count accumulation is checked against a per-release Python loop, and
threshold calibration against the brute-force scorer it replaced: float
counts from full-length bincount passes, then a full detect, correct,
decode and score of every candidate tau on its own. Both references must
agree exactly, not statistically.
"""
import math

import numpy as np
import pytest

from molcode import CalibratedThreshold, LinkConfig, sample_arrivals
from molcode.mc_sim import (
    _CAL_TAG,
    CHUNK_TRIALS,
    _accumulate_counts,
    _calibrate_threshold,
    _default_candidates,
    _sample_bits,
    _Tables,
)


def _link(codebook, dist, params, molecules, threshold=None, msg_len=10):
    return LinkConfig.build(
        codebook=codebook, distribution=dist, params=params,
        molecules_per_one=molecules, char_duration=0.5,
        threshold=threshold or CalibratedThreshold(), msg_len=msg_len,
        memory=10, trials=100, master_seed=0,
    )


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
    return sample_arrivals(cfg.molecules_per_one, cfg.profile.coefficients, rng, size=size)


class TestAccumulateCounts:
    @pytest.mark.parametrize("kind", ["huffman", "proposed"])
    def test_matches_release_loop(self, kind, dist, hcb, pcb, params):
        cfg = _link(hcb if kind == "huffman" else pcb, dist, params, molecules=40, msg_len=4)
        tables = _Tables(cfg)
        rng = np.random.default_rng(11)
        syms, tlen, bitmat = _sample_bits(tables, 300, cfg.msg_len, rng)
        state = rng.bit_generator.state
        fast = _accumulate_counts(bitmat, tlen, cfg, rng)
        rng.bit_generator.state = state
        slow = _release_loop_counts(bitmat, cfg, rng)

        assert fast.dtype == np.int32
        assert fast.shape == bitmat.shape
        np.testing.assert_array_equal(fast, slow)
        # The case the spare columns exist for: windows that run past max_t.
        _, cols = np.nonzero(bitmat)
        assert (cols + cfg.profile.memory > bitmat.shape[1]).any()
        # And counts past a message's own end stay in the matrix.
        past_end = np.arange(bitmat.shape[1]) >= tlen[:, None]
        assert fast[past_end].any()


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
    for k in range(cfg.profile.memory):
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
    tables = _Tables(cfg)
    trie = _ReferenceTrie(cfg.codebook, cfg.distribution.symbols)
    errors = [0] * len(candidates)
    remaining, index = strategy.messages, 0
    while remaining > 0:
        size = min(CHUNK_TRIALS, remaining)
        rng = np.random.default_rng(np.random.SeedSequence((master_seed, _CAL_TAG, index)))
        syms, tlen, bitmat = _sample_bits(tables, size, cfg.msg_len, rng)
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
