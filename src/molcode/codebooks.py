"""Prefix codebooks and character distributions for slotted binary links.

Three codebook families are supported: classic Huffman codes, a
run-length-limited variant of the same code in which every 1 is expanded
to "10" (so no transmitted codeword stream ever contains adjacent ones),
and a fixed 5-bit teleprinter alphabet. build_huffman builds the Huffman
code by merging groups of symbols, under the first-in, first-out tie rule
its docstring states, and keeps no tree of its own.

Every codebook also carries its CodeTables, built once on first use: the
codeword layout that lays symbols into a stream, and the codeword trie
that every decoder walks, one slot at a time or, through its step table,
several slots at a time. Nothing here draws random numbers: the symbols
of a stream are drawn by _inversion.symbol_table.
"""
from __future__ import annotations

import csv
import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "CharacterDistribution",
    "Codebook",
    "PAST_END",
    "CodeTables",
    "english_letter_distribution",
    "build_huffman",
    "build_proposed",
    "ita2",
    "KINDS",
    "build",
    "expected_length",
    "expected_ones",
    "load_distribution",
]

# Letter appearance frequencies (percent) from a dictionary-headword count,
# in descending order. These are the unrounded values; the usual two-decimal
# display of this table rounds them.
_ENGLISH_LETTER_PERCENT: tuple[tuple[str, float], ...] = (
    ("E", 11.1607), ("A", 8.4966), ("R", 7.5809), ("I", 7.5448),
    ("O", 7.1635), ("T", 6.9509), ("N", 6.6544), ("S", 5.7351),
    ("L", 5.4893), ("C", 4.5388), ("U", 3.6308), ("D", 3.3844),
    ("P", 3.1671), ("M", 3.0129), ("H", 3.0034), ("G", 2.4705),
    ("B", 2.0720), ("F", 1.8121), ("Y", 1.7779), ("W", 1.2899),
    ("K", 1.1016), ("V", 1.0074), ("X", 0.2902), ("Z", 0.2722),
    ("J", 0.1965), ("Q", 0.1962),
)

# The fixed 5-bit teleprinter letter codes, listed for A..Z.
_ITA2_ALPHABETICAL: tuple[str, ...] = (
    "11000", "10011", "01110", "10010", "10000", "10110", "01011",
    "00101", "01100", "11010", "11110", "01001", "00111", "00110",
    "00011", "01101", "11101", "01010", "10100", "00001", "11100",
    "01111", "11001", "10111", "10101", "10001",
)

# Relative slack allowed on the raw sum (against 1.0 or 100.0) before
# normalization of an input distribution. The boundary is inclusive up to
# float summation noise: a percent column off by exactly 1e-4 is accepted.
_SUM_TOLERANCE = 1e-6 * (1.0 + 1e-9)

#: Trie input for a slot after the end of a message.
PAST_END = 2

#: Symbol indices are int16 in the trie and in the decoder's sent symbols.
_MAX_SYMBOLS = int(np.iinfo(np.int16).max)

#: Most slots a step table entry covers, so that its bits fit a byte.
_STEP_SLOTS = 8
#: Largest step table; a trie with more states takes fewer slots per step.
_STEP_ENTRIES = 1 << 20
#: Entries walked at a time while a step table is built.
_STEP_BLOCK = 1 << 12
#: Symbols laid at a time by CodeTables.lay_ones, in whole rows. Sized for
#: cache and page reuse, not for memory: a block's temporaries, about 130
#: bytes a symbol, fit a 2 MiB L2 cache and reuse the pages the block
#: before freed, where blocks of 2**17 laid a chunk of 8192 messages of
#: 10 symbols at once, on pages freshly mapped for every chunk.
_LAY_BLOCK = 1 << 14


@dataclass(frozen=True)
class CharacterDistribution:
    """Alphabet symbols with appearance probabilities summing to one.

    Symbol order is preserved; it is the tie-breaking order for codebook
    construction, so two distributions with the same weights but different
    order may build different (equally optimal) codes.
    """

    symbols: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) < 2:
            raise ValueError("a distribution needs at least 2 symbols")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("duplicate symbols in distribution")
        if len(self.symbols) != len(self.probs):
            raise ValueError("symbols and probs length mismatch")
        if any(not (p > 0.0 and math.isfinite(p)) for p in self.probs):
            raise ValueError("probabilities must be positive and finite")
        total = sum(self.probs)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

    @classmethod
    def from_weights(
        cls, weights: Mapping[str, float] | Iterable[tuple[str, float]]
    ) -> "CharacterDistribution":
        """Build from symbol weights given as fractions or percentages.

        The raw sum must land within a relative 1e-6 of either 1 or 100;
        values are then normalized exactly.
        """
        pairs = list(weights.items()) if isinstance(weights, Mapping) else list(weights)
        if len(pairs) < 2:
            raise ValueError("a distribution needs at least 2 symbols")
        total = sum(p for _, p in pairs)
        if not (total > 0 and math.isfinite(total)):
            raise ValueError(f"weights must sum to a finite positive value, got {total!r}")
        scale = 100.0 if total > 50.0 else 1.0
        if abs(total / scale - 1.0) > _SUM_TOLERANCE:
            raise ValueError(
                f"weights sum to {total!r}; expected 1 or 100 within rel {_SUM_TOLERANCE}"
            )
        return cls(
            symbols=tuple(s for s, _ in pairs),
            probs=tuple(p / total for _, p in pairs),
        )

    @cached_property
    def _index(self) -> dict[str, int]:
        """Position of every symbol in symbols; built once."""
        return {s: i for i, s in enumerate(self.symbols)}

    def prob(self, symbol: str) -> float:
        return self.probs[self._index[symbol]]


_ENGLISH: CharacterDistribution | None = None


def english_letter_distribution() -> CharacterDistribution:
    """The 26-letter English alphabet distribution bundled with the package."""
    global _ENGLISH
    if _ENGLISH is None:
        _ENGLISH = CharacterDistribution.from_weights(_ENGLISH_LETTER_PERCENT)
    return _ENGLISH


@dataclass(frozen=True)
class Codebook:
    """A prefix code: symbol to codeword over the alphabet {0, 1}.

    kind is one of huffman | proposed | ita2 | custom and selects
    receiver-side behavior: see corrected. Construction raises ValueError
    for a code that is not prefix free (a repeated codeword included) and,
    for the proposed kind, for a codeword that contains "11" or ends in 1:
    every 1 of a proposed code is followed by a 0 of its own codeword, so
    no stream of its codewords holds two adjacent ones.
    """

    kind: str
    codewords: dict[str, str] = field(repr=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS and self.kind != "custom":
            raise ValueError(f"unknown codebook kind {self.kind!r}")
        if len(self.codewords) < 2:
            raise ValueError("a codebook needs at least 2 codewords")
        for sym, word in self.codewords.items():
            if not word or set(word) - {"0", "1"}:
                raise ValueError(f"bad codeword {word!r} for symbol {sym!r}")
        # In sorted order a word that is a prefix of any other word is a
        # prefix of the next one, so neighbours show every prefix and repeat.
        ordered = sorted(self.codewords.values())
        for word, after in zip(ordered, ordered[1:]):
            if after.startswith(word):
                raise ValueError(f"codeword table is not prefix free at {word!r}")
        if self.corrected:
            for sym, word in self.codewords.items():
                if "11" in word or word.endswith("1"):
                    raise ValueError(
                        f"proposed codeword {word!r} for symbol {sym!r} contains "
                        "'11' or ends in 1"
                    )

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(self.codewords)

    @property
    def corrected(self) -> bool:
        """Whether the receiver error corrects this code's bits: only for
        the proposed kind, whose streams never put two ones in a row."""
        return self.kind == "proposed"

    @cached_property
    def tables(self) -> "CodeTables":
        """The codebook as CodeTables, symbol i being symbols[i]; built once."""
        return CodeTables(self)

    def kraft_sum(self) -> Fraction:
        return sum(
            (Fraction(1, 2 ** len(w)) for w in self.codewords.values()),
            start=Fraction(0),
        )


# The fewest slots, rows x stride, whose release positions are int32.
_INT32_FROM = 1 << 22


def _position_dtype(rows: int, stride: int) -> type:
    """int32 for flat positions into a rows x stride matrix of
    _INT32_FROM slots up to int32's range, else int64.

    int32 halves the positions' bytes, but np.add.at casts them to intp
    through a buffer, and its count scatter ran 13-30 % slower than on
    int64 positions. Below _INT32_FROM slots the positions take at most
    a few MiB, so an 8192 x 10 chunk (0.5-0.8M slots) keeps int64 and its
    speed, and an 8192 x 200 one (7.5-11.3M slots) halves 25-31 MiB.
    """
    if _INT32_FROM <= rows * stride <= np.iinfo(np.int32).max:
        return np.int32
    return np.int64


def _ragged(first: np.ndarray, size: np.ndarray):
    """Where the rows flat[first[i]:first[i] + size[i]] of a ragged table
    lie, for every i, laid back to back.

    Returns, for each laid item, the i of its row and its index into flat.
    """
    ends = np.cumsum(size)
    owner = np.repeat(np.arange(size.size), size)
    index = np.arange(int(ends[-1]) if ends.size else 0)
    index += (first - ends + size)[owner]
    return owner, index


class StepTable(NamedTuple):
    """The codeword trie walked slots slots at a time.

    Entry (state * (slots + 1) + valid) * 2**slots + bits is the walk of
    slots slots from state in which the first valid slots read the bits
    of bits, lowest bit first, and the rest are PAST_END. next holds span
    times the state it ends in, span being (slots + 1) * 2**slots, so that
    next + valid * 2**slots + bits is the entry of the following step.
    emit[j, entry] is the index of the j-th symbol the entry completes, or
    -1; emit has as many rows as any entry completes symbols, and count
    says how many the entry completes.
    """

    slots: int
    next: np.ndarray
    emit: np.ndarray
    count: np.ndarray

    @property
    def span(self) -> int:
        return (self.slots + 1) << self.slots


class CodeTables:
    """A codebook as flat arrays: its codeword layout and its codeword trie.

    Symbol i is cb.symbols[i]; its codeword is word_flat[word_off[i]:][:word_len[i]],
    and the in-word positions of its ones are ones_flat[ones_off[i]:][:ones_len[i]].
    The trie is an automaton indexed by 3 * state + input, where input is a
    bit or PAST_END (a slot after the message, which keeps the state and
    emits nothing). next_at holds 3 * the next state; emit holds the index
    of the symbol an edge completes, else -1. State 0 is the root; any bit
    with no trie edge enters the absorbing state dead, where a sequential
    decoder stops. steps is the same automaton read several slots per
    lookup, built from next_at and emit on first use, so there is one trie.

    The codebook is prefix free by construction. Raises ValueError, before
    any table is built, for an alphabet beyond the int16 symbol indices.
    """

    def __init__(self, cb: Codebook):
        words = list(cb.codewords.values())
        if len(words) > _MAX_SYMBOLS:
            raise ValueError(
                f"{len(words)} symbols exceed the limit of {_MAX_SYMBOLS} per codebook"
            )
        self.word_len = np.array([len(w) for w in words], dtype=np.int64)
        self.word_flat = np.array([int(b) for w in words for b in w], dtype=np.int8)
        self.word_off = np.cumsum(self.word_len) - self.word_len
        self.ones_len = np.array([w.count("1") for w in words], dtype=np.int64)
        self.ones_flat = np.array([i for w in words for i, b in enumerate(w) if b == "1"],
                                  dtype=np.int64)
        self.ones_off = np.cumsum(self.ones_len) - self.ones_len

        # Per state and bit: the next state (-1 for no edge) and the emitted
        # symbol; an edge that completes a codeword returns to the root.
        nxt: list[list[int]] = [[-1, -1]]
        emit: list[list[int]] = [[-1, -1]]
        for index, word in enumerate(words):
            node = 0
            for bit in map(int, word[:-1]):
                if nxt[node][bit] < 0:
                    nxt[node][bit] = len(nxt)
                    nxt.append([-1, -1])
                    emit.append([-1, -1])
                node = nxt[node][bit]
            last = int(word[-1])
            nxt[node][last] = 0
            emit[node][last] = index
        self.dead = len(nxt)
        nxt.append([-1, -1])
        emit.append([-1, -1])
        table = np.array(nxt, dtype=np.int64)
        table[table < 0] = self.dead
        self.next_at = 3 * np.column_stack([table, np.arange(len(nxt))]).ravel()
        self.emit = np.column_stack([emit, np.full(len(emit), -1)]).astype(np.int16).ravel()

    @cached_property
    def steps(self) -> StepTable:
        """The trie as a StepTable of up to 8 slots per step; built once.

        The slots per step are the most, up to 8, for which the table of
        every state stays within _STEP_ENTRIES entries. The entries are
        walked slot by slot through next_at and emit, a block of states at
        a time.
        """
        states = self.dead + 1
        slots = next((k for k in range(_STEP_SLOTS, 0, -1)
                      if states * ((k + 1) << k) <= _STEP_ENTRIES), 1)
        span = (slots + 1) << slots
        next_at = self.next_at.reshape(states, 3)
        emits = self.emit.reshape(states, 3) >= 0
        # After j passes, most[s] is the most symbols a walk of j bits from s completes.
        most = np.zeros(states, dtype=np.int64)
        for _ in range(slots):
            most = np.maximum(emits[:, 0] + most[next_at[:, 0] // 3],
                              emits[:, 1] + most[next_at[:, 1] // 3])

        table = StepTable(
            slots=slots,
            next=np.empty(states * span, dtype=np.int32),
            emit=np.full((int(most.max()), states * span), -1, dtype=np.int16),
            count=np.zeros(states * span, dtype=np.uint8),
        )
        # The trie input of slot j of every entry of one state.
        valid, bits = np.divmod(np.arange(span, dtype=np.int16), 1 << slots)
        inputs = [np.where(valid > j, (bits >> j) & 1, PAST_END) for j in range(slots)]
        per_block = max(1, _STEP_BLOCK // span)
        for first in range(0, states, per_block):
            block = np.arange(first, min(first + per_block, states))
            rows = slice(first * span, (first + len(block)) * span)
            count, emit = table.count[rows], table.emit[:, rows]
            at = np.repeat(3 * block, span)
            for slot_input in inputs:
                edge = at + np.tile(slot_input, len(block))
                sym = self.emit[edge]
                at = self.next_at[edge]
                done = np.flatnonzero(sym >= 0)
                emit[count[done], done] = sym[done]
                count[done] += 1
            table.next[rows] = at // 3 * span
        return table

    def lay(self, syms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The codewords of syms back to back, and each bit's in-word position."""
        syms = syms.ravel()
        first = self.word_off[syms]
        owner, index = _ragged(first, self.word_len[syms])
        return self.word_flat[index], index - first[owner]

    def lay_ones(self, syms: np.ndarray, spare: int) -> tuple[np.ndarray, np.ndarray]:
        """Each row of the 2-D syms laid as one message, by its ones only.

        The messages are the rows of a row-major matrix of max_t + spare
        columns, max_t being the longest message. Returns every message's
        length in slots, and the flat positions of its ones in that
        matrix, ascending: each is its word's start plus its in-word
        position, of the dtype _position_dtype picks for the matrix. Every
        other slot of the matrix holds a 0.

        The rows are laid _LAY_BLOCK symbols at a time, in two forward
        passes: the first sums each message's length and the chunk's count
        of ones, which sizes where, and the second writes each block's
        positions into the next part of where, computing them in where's
        dtype. So where is the only array held that grows with the chunk's
        symbols or ones.
        """
        rows = max(1, _LAY_BLOCK // syms.shape[1])
        firsts = range(0, syms.shape[0], rows)
        tlen = np.concatenate([self.word_len[syms[a:a + rows]].sum(axis=1) for a in firsts])
        total = sum(int(self.ones_len[syms[a:a + rows]].sum()) for a in firsts)
        stride = int(tlen.max()) + spare
        dtype = _position_dtype(syms.shape[0], stride)
        # A take into an out of another dtype buffers the whole gather.
        word_len, ones_flat = self.word_len.astype(dtype), self.ones_flat.astype(dtype)
        end = 0
        for a in firsts:
            block = syms[a:a + rows]
            lens = word_len[block]
            starts = lens.cumsum(axis=1, dtype=dtype)
            starts -= lens
            starts += np.arange(a * stride, (a + len(block)) * stride, stride,
                                dtype=dtype)[:, None]
            owner, index = _ragged(self.ones_off[block.ravel()], self.ones_len[block].ravel())
            if a == 0:
                # After the first gather: allocated before it, where took fresh pages
                # beside the gather's temporaries and a two-thread sweep's peak RSS rose 3 %.
                where = np.empty(total, dtype=dtype)
            part = where[end:end + index.size]
            end += index.size
            # mode="clip" writes straight into part; "raise" would buffer.
            starts.ravel().take(owner, out=part, mode="clip")
            part += ones_flat[index]
        return tlen, where


def build_huffman(dist: CharacterDistribution) -> Codebook:
    """Optimal prefix code for dist with bit-0 on the higher probability branch.

    The Huffman merge works on groups of symbols, one heap entry
    (prob, seq, members) per group: symbols enter as one-member groups in
    distribution order, merged groups in creation order, and seq is unique,
    so equal probabilities dequeue first in, first out. Each merge of the
    two least probable groups prepends its bit to the codewords of both:
    the strictly lower probability operand takes bit 1, and at an exact
    tie the earlier-inserted operand takes bit 0. Each symbol collects its
    bits last first, and they are joined reversed once at the end.
    """
    bits: list[list[str]] = [[] for _ in dist.symbols]
    heap = [(p, seq, [seq]) for seq, p in enumerate(dist.probs)]
    heapq.heapify(heap)
    seq = len(heap)
    while len(heap) > 1:
        first = heapq.heappop(heap)
        second = heapq.heappop(heap)
        one, zero = (second, first) if first[0] == second[0] else (first, second)
        for i in one[2]:
            bits[i].append("1")
        for i in zero[2]:
            bits[i].append("0")
        heapq.heappush(heap, (first[0] + second[0], seq, first[2] + second[2]))
        seq += 1
    words = ("".join(reversed(b)) for b in bits)
    return Codebook(kind="huffman", codewords=dict(zip(dist.symbols, words)))


def build_proposed(dist: CharacterDistribution) -> Codebook:
    """Run-length-limited code: the Huffman code for dist with 1 expanded to 10.

    The expansion guarantees no codeword contains "11" and none ends in 1,
    so arbitrary concatenations stay free of adjacent ones.
    """
    huff = build_huffman(dist)
    words = {s: w.replace("1", "10") for s, w in huff.codewords.items()}
    return Codebook(kind="proposed", codewords=words)


def ita2() -> Codebook:
    """The fixed 5-bit teleprinter codebook over the 26 English letters.

    Codewords are assigned by frequency rank: the i-th most frequent letter
    receives the i-th code of the classic alphabetical code list. All rate
    statistics of this package (expected 2.4696 ones per character under the
    bundled frequencies, and the derived fair molecule budgets) are defined
    by this ranked assignment.
    """
    dist = english_letter_distribution()
    words = dict(zip(dist.symbols, _ITA2_ALPHABETICAL))
    return Codebook(kind="ita2", codewords=words)


_BUILDERS = {
    "huffman": build_huffman,
    "proposed": build_proposed,
    "ita2": lambda dist: ita2(),
}

#: The codebook kinds build() constructs; "custom" codebooks are built by hand.
KINDS = tuple(_BUILDERS)


def build(kind: str, dist: CharacterDistribution) -> Codebook:
    """The codebook of a built-in kind for dist (ita2 ignores dist)."""
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise ValueError(f"unknown codebook kind {kind!r}") from None
    return builder(dist)


def _check_symbols(cb: Codebook, dist: CharacterDistribution) -> None:
    if set(cb.codewords) != set(dist.symbols):
        missing = set(cb.codewords) ^ set(dist.symbols)
        raise ValueError(f"codebook and distribution symbols differ: {sorted(missing)}")


def expected_length(cb: Codebook, dist: CharacterDistribution) -> float:
    """Mean codeword length in bits per character under dist."""
    _check_symbols(cb, dist)
    return sum(dist.prob(s) * len(w) for s, w in cb.codewords.items())


def expected_ones(cb: Codebook, dist: CharacterDistribution) -> float:
    """Mean number of bit-1s per character under dist."""
    _check_symbols(cb, dist)
    return sum(dist.prob(s) * w.count("1") for s, w in cb.codewords.items())


def load_distribution(path: str | Path) -> CharacterDistribution:
    """Read a distribution from a CSV file with columns symbol, prob.

    The probability column may be named prob, probability or percent, and
    values may be fractions or percentages (detected from their sum).
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty distribution file")
        fields = [f.strip().lower() for f in reader.fieldnames]
        try:
            sym_col = reader.fieldnames[fields.index("symbol")]
        except ValueError:
            raise ValueError(f"{path}: missing 'symbol' column") from None
        prob_col = None
        for name in ("prob", "probability", "percent"):
            if name in fields:
                prob_col = reader.fieldnames[fields.index(name)]
                break
        if prob_col is None:
            raise ValueError(f"{path}: missing probability column")
        pairs = []
        for row in reader:
            sym = (row[sym_col] or "").strip()
            if not sym:
                continue
            cell = row[prob_col]
            if cell is None or not cell.strip():
                raise ValueError(f"{path}: line {reader.line_num}: no probability for {sym!r}")
            pairs.append((sym, float(cell)))
    return CharacterDistribution.from_weights(pairs)

