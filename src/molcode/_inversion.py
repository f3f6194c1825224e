"""Draws equal to numpy's, bit for bit: message symbols and arrival counts.

Generator.random returns m * 2**-53 for an integer m, and both draws map
it to an outcome monotone in m. A Table holds that map as rows of exact
lattice cuts, with a guide that answers most uniforms by one take (Chen
and Asau, AIIE Trans. 1974, made exact): symbol_table for
Generator.choice, and arrival_columns' tables for the slots that
Generator.binomial samples by inversion (Kachitvichyanukul and
Schmeiser, CACM 1988), which arrival_groups reads for many small
releases at once. mc_sim and isi_analysis import it on first use.
"""
from __future__ import annotations

import functools
import math
from typing import Iterator, NamedTuple, Sequence

import numpy as np

#: numpy samples Binomial(n, p) by inversion when p <= 0.5 and n * p <= this.
_INVERSION_MEAN = 30.0
#: Largest release drawn from tables; remaining counts then fit uint8.
_TABLE_MOLECULES = 255
#: Buckets of a guide row. A power of two, so floor(u * _GUIDE_BUCKETS) is
#: exact for every uniform u and every bucket spans whole lattice points.
_GUIDE_BUCKETS = 1024
#: Releases looked up at a time. It sizes the reused Scratch, 18 bytes a
#: release, and keeps each numpy call long: only some of the calls a lookup
#: makes let go of the GIL (see Table.lookup), so two sampling threads
#: overlap only within them, and at 8192 two threads sampled no faster
#: than one.
BLOCK = 1 << 16
#: Uniforms Table.draw reads at a time. Sized for cache and page reuse, not
#: for memory: its buffers, 13 bytes a uniform, stay in cache and their
#: pages stay mapped from block to block, where one block per chunk took
#: fresh pages for every chunk's uniforms.
_DRAW_BLOCK = 1 << 14
#: Generator.random returns m * 2**-53 for an integer 0 <= m < 2**53.
_LATTICE = 2 ** 53


class Table(NamedTuple):
    """Rows of exact cuts on the uniform lattice, with a guide.

    A uniform m * 2**-53 drawn in row r takes the first x whose cut is at
    least m; every row ends in a cut no uniform passes. keys holds row r's
    width cuts plus r * (2**53 + 1), so the rows ascend as one array and
    one search of keys answers a draw in any row. An outcome past bound[r]
    is one numpy would redraw, and no uniform up to safe draws one.

    guide[r * _GUIDE_BUCKETS + b] answers the uniforms of bucket
    b = floor(u * _GUIDE_BUCKETS) in row r. The draw is monotone in m, so
    where the least and the greatest lattice point of the bucket draw the
    same x, every point between does, and the entry is x. Any other entry
    is flag, the guide dtype's largest value, held as a field so no lookup
    builds it, and only those draws search.
    The two ends differ exactly where a cut of row r lies in the bucket
    short of its greatest point, and x is the count of row r's cuts below
    the bucket.
    """

    keys: np.ndarray
    guide: np.ndarray
    bound: np.ndarray
    width: int
    safe: float
    flag: int

    @classmethod
    def of(cls, cuts: np.ndarray, dtype, bound: np.ndarray, safe: float) -> Table:
        """The Table of the int64 lattice cuts, one ascending row per row of cuts,
        with a guide of dtype, whose largest value no outcome may reach."""
        rows, width = cuts.shape
        row = np.arange(rows)[:, None]
        keys = (cuts + row * (_LATTICE + 1)).ravel()
        step = _LATTICE // _GUIDE_BUCKETS
        bucket, within = np.divmod(cuts, step)
        # Column b + 1 of a row counts its cuts in bucket b, so the running
        # sum at b counts those below bucket b; a cut of 2**53 is below none.
        above = np.minimum(bucket + 1, _GUIDE_BUCKETS) + row * (_GUIDE_BUCKETS + 1)
        below = np.bincount(above.ravel(), minlength=rows * (_GUIDE_BUCKETS + 1))
        guide = below.reshape(rows, -1).cumsum(axis=1)[:, :-1]
        split = (bucket < _GUIDE_BUCKETS) & (within < step - 1)
        flag = int(np.iinfo(dtype).max)
        guide[split.nonzero()[0], bucket[split]] = flag
        return cls(keys, guide.astype(dtype).ravel(), bound, width, safe, flag)

    def search(self, rows, u: np.ndarray) -> np.ndarray:
        """The outcome of each uniform of u in its row of rows, from keys alone."""
        rows = np.asarray(rows, dtype=np.int64)
        at = self.keys.searchsorted(rows * (_LATTICE + 1) + (u * _LATTICE).astype(np.int64))
        return at - rows * self.width

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Outcomes of row 0 for size uniforms of rng, in the guide dtype.

        For a symbol_table these are rng.choice's symbols, bit for bit,
        and rng ends in the same state: the uniforms are drawn _DRAW_BLOCK
        at a time, in order, into buffers reused from block to block, and
        each block's guide entries are taken straight into its part of the
        one array returned; only flagged draws search.
        """
        x = np.empty(size, dtype=self.guide.dtype)
        block = max(1, min(size, _DRAW_BLOCK))
        u_buf, idx_buf, flag_buf = (np.empty(block), np.empty(block, np.int32),
                                    np.empty(block, bool))
        for start in range(0, size, block):
            part = x[start:start + block]
            u = rng.random(part.size, out=u_buf[:part.size])
            idx = np.multiply(u, _GUIDE_BUCKETS, out=idx_buf[:part.size], casting="unsafe")
            # mode="clip" writes straight into part; "raise" would buffer.
            self.guide.take(idx, out=part, mode="clip")
            flagged = np.flatnonzero(np.equal(part, self.flag, out=flag_buf[:part.size]))
            part[flagged] = self.search(0, u[flagged])
        return x

    def lookup(self, n: np.ndarray, u: np.ndarray,
               scratch: Scratch) -> tuple[np.ndarray, bool]:
        """Outcomes of rows n >= 1 for their uniforms u, and whether numpy
        would have redrawn any of them.

        Each pass over the whole block writes into scratch, which holds at
        least n.size entries, and the outcomes are a uint8 view of
        scratch.x: one int32 guide index, one byte take and one flag test
        per draw; only flagged draws search. Of these calls the take holds
        the GIL for its whole run, while the elementwise ufuncs and the
        flag's flatnonzero let go of it.
        """
        s = scratch.head(n.size)
        idx, x = s.idx, s.x
        np.multiply(u, _GUIDE_BUCKETS, out=idx, casting="unsafe")
        np.add(idx, np.multiply(n, _GUIDE_BUCKETS, out=s.row, dtype=np.int32), out=idx)
        self.guide.take(idx, out=x, mode="clip")
        flagged = np.flatnonzero(np.equal(x, self.flag, out=s.flagged))
        x[flagged] = self.search(n[flagged], u[flagged])
        redraw = bool(u.size) and u.max() > self.safe and bool((x > self.bound[n]).any())
        return x, redraw


class Scratch(NamedTuple):
    """Buffers that Table.lookup reuses from block to block: the uniforms,
    the guide index and each count's guide row offset, the guide entries,
    which become the counts, and the flags."""

    u: np.ndarray
    idx: np.ndarray
    row: np.ndarray
    x: np.ndarray
    flagged: np.ndarray

    @classmethod
    def empty(cls, size: int) -> Scratch:
        return cls(np.empty(size), np.empty(size, np.int32), np.empty(size, np.int32),
                   np.empty(size, np.uint8), np.empty(size, bool))

    def head(self, size: int) -> Scratch:
        """The first size entries of every buffer."""
        return Scratch(*(buf[:size] for buf in self))


def symbol_table(probs: Sequence[float]) -> Table:
    """The one-row int16 Table of rng.choice(len(probs), size, p=probs).

    numpy's choice forms cdf = probs.cumsum(), cdf /= cdf[-1], and returns
    cdf.searchsorted(u, side="right"): the first symbol whose cdf exceeds
    u = m * 2**-53, that is, whose cut ceil(cdf * 2**53) - 1 reaches m.
    The symbols must stay below the flag, 32767, as codebook symbol
    indices do (CodeTables checks the limit).
    """
    cdf = np.asarray(probs, dtype=float).cumsum()
    cdf /= cdf[-1]
    cuts = np.ceil(cdf * _LATTICE).astype(np.int64) - 1
    return Table.of(cuts[None], np.int16, np.array([cdf.size - 1]), 1.0)


def _walk_stops(px: np.ndarray, rows: np.ndarray, xs: np.ndarray, m: np.ndarray):
    """Whether numpy's inversion walk from U = m / 2**53 stops at X <= xs.

    px holds the walk's probabilities, one row per n; rows picks each
    case's row. Cases come sorted by xs, largest first, so those still
    walking at step j are a prefix. Float subtraction is monotone, so the
    answer is monotone in m.
    """
    u = m * (1.0 / _LATTICE)
    stops = np.zeros(len(m), dtype=bool)
    at = rows * px.shape[1]
    reach = np.cumsum(np.bincount(xs, minlength=px.shape[1])[::-1])[::-1]
    for j, c in enumerate(reach):
        pj = px.ravel()[at[:c] + j]
        walk = u[:c] > pj
        stops[:c] |= ~walk
        np.subtract(u[:c], pj, out=u[:c], where=walk)
    return stops


def _build_table(molecules: int, p: float) -> Table:
    """The uint8 Table of Binomial(n, p) for remaining counts n <= molecules.

    numpy draws one uniform U and walks `while U > px: X += 1; U -= px;
    px = next`, redrawing if X passes bound[n]. Row n holds at x the
    largest lattice point whose walk stops at X <= x, for x <= bound[n],
    and 2**53 after that. The walk constants use the scalar math functions,
    which call libm as numpy's C code does, in numpy's operation order.
    Each cut is bisected over the lattice, vectorized over every (n, x),
    from a bracket around the float CDF that widens to the whole lattice
    wherever it does not hold.
    """
    q = 1.0 - p
    ns = range(molecules + 1)
    bound = np.array([int(min(n, n * p + 10.0 * math.sqrt(n * p * q + 1.0))) for n in ns])
    width = int(bound.max()) + 2  # up to the 2**53 after the last bound
    px = np.empty((molecules + 1, width - 1))
    px[:, 0] = [math.exp(n * math.log(q)) for n in ns]
    n = np.arange(molecules + 1)
    for x in range(1, width - 1):
        px[:, x] = ((n - x + 1) * p * px[:, x - 1]) / (x * q)

    # Every case (n >= 1, x <= bound[n]), largest x first.
    rows = np.repeat(n, bound + 1)
    xs = np.arange(len(rows)) - np.repeat(np.cumsum(bound + 1) - (bound + 1), bound + 1)
    order = np.argsort(-xs, kind="stable")
    order = order[rows[order] > 0]
    rows, xs = rows[order], xs[order]
    # The walk's rounding moves a cut a few lattice steps off the CDF.
    guess = np.cumsum(px, axis=1)[rows, xs] * _LATTICE
    lo = np.clip(np.floor(guess).astype(np.int64) - 16, 0, _LATTICE - 1)
    hi = np.clip(np.ceil(guess).astype(np.int64) + 16, 1, _LATTICE)
    # Invariant: the walk from lo stops by x and the one from hi does not;
    # hi = 2**53 stands for U = 1.0, which no uniform reaches.
    inside = hi < _LATTICE
    ok = _walk_stops(px, rows, xs, lo)
    ok[inside] &= ~_walk_stops(px, rows[inside], xs[inside], hi[inside])
    lo[~ok], hi[~ok] = 0, _LATTICE
    open_ = np.flatnonzero(hi - lo > 1)
    while open_.size:
        mid = (lo[open_] + hi[open_]) // 2
        stops = _walk_stops(px, rows[open_], xs[open_], mid)
        lo[open_[stops]] = mid[stops]
        hi[open_[~stops]] = mid[~stops]
        open_ = open_[hi[open_] - lo[open_] > 1]

    cuts = np.full((molecules + 1, width), _LATTICE, dtype=np.int64)
    cuts[rows, xs] = lo
    return Table.of(cuts, np.uint8, bound, float(cuts[n[1:], bound[1:]].min() / _LATTICE))


@functools.lru_cache(maxsize=32)
def link_tables(molecules: int, coefficients: tuple[float, ...]):
    """A link's slot probabilities, each given the molecules still in
    flight, and each slot's Table, or None where numpy does not invert or
    the release is not of 1 to _TABLE_MOLECULES molecules.

    Built on first use, one slot at a time to keep the transient memory
    small, and cached per link; two threads that miss at once both build,
    which is harmless.
    """
    probs = []
    consumed = 0.0
    for a in coefficients:
        rest = 1.0 - consumed
        probs.append(float(min(a / rest, 1.0)) if rest > 1e-15 else 0.0)
        consumed += a
    return tuple(probs), tuple(
        _build_table(molecules, p) if 0 < molecules <= _TABLE_MOLECULES
        and 0.0 < p <= 0.5 and p * molecules <= _INVERSION_MEAN else None
        for p in probs
    )


def count_dtype(molecules: int) -> type:
    """int32 for arrival counts of releases within its range, else int64."""
    return np.int32 if molecules <= np.iinfo(np.int32).max else np.int64


def draw_slot(table: Table, remaining: np.ndarray, column: np.ndarray,
              rng: np.random.Generator, scratch: Scratch) -> bool:
    """Draw one slot from its table into column, or, where numpy would
    redraw, restore rng and return False.

    Reads one uniform per nonzero remaining count, in release order, as
    numpy's binomial loop does, a block at a time into scratch, which
    holds at least min(len(remaining), BLOCK) entries. Writes every entry
    of column and never remaining: the caller takes the column off the
    remaining counts.
    """
    state = rng.bit_generator.state
    for start in range(0, len(remaining), BLOCK):
        rem = remaining[start:start + BLOCK]
        col = column[start:start + BLOCK]
        if np.count_nonzero(rem) == rem.size:
            nz, n = slice(None), rem
        else:
            nz = np.flatnonzero(rem)
            n = rem[nz]
            col[:] = 0
        u = rng.random(n.size, out=scratch.u[:n.size])
        x, redraw = table.lookup(n, u, scratch)
        if redraw:
            rng.bit_generator.state = state
            return False
        col[nz] = x
    return True


def _checked_link(molecules: int, coefficients: Sequence[float]):
    """link_tables of a release of molecules, once both are checked."""
    coeffs = np.asarray(coefficients, dtype=float)
    if molecules < 0:
        raise ValueError("molecule count must be non-negative")
    if (coeffs < 0).any() or coeffs.sum() > 1.0 + 1e-12:
        raise ValueError("arrival coefficients must be non-negative and sum to at most 1")
    return link_tables(molecules, tuple(coeffs.tolist()))


def arrival_columns(molecules: int, coefficients: Sequence[float],
                    rng: np.random.Generator, size: int,
                    dtype=None) -> Iterator[np.ndarray]:
    """Yield the arrival counts of size releases of molecules, slot by slot.

    This is the sampler behind mc_sim.sample_arrivals, which documents the
    draws. Every slot's column is written into one array of dtype, by
    default count_dtype(molecules), which is yielded, so a column is valid
    until the next one is drawn and no more than one is ever held. dtype
    must hold molecules; mc_sim streams the columns in its counts' dtype,
    so each np.add.at adds two arrays of one dtype, which numpy's fast loop
    needs.
    """
    probs, tables = _checked_link(molecules, coefficients)
    remaining = np.full(size, molecules,
                        dtype=np.uint8 if molecules <= _TABLE_MOLECULES else np.int64)
    column = np.empty(size, dtype=count_dtype(molecules) if dtype is None else dtype)
    scratch = Scratch.empty(min(size, BLOCK)) if any(tables) else None
    for p, table in zip(probs, tables):
        if table is None or not draw_slot(table, remaining, column, rng, scratch):
            column[:] = rng.binomial(remaining, p)
        # In remaining's dtype: numpy's int32 loop for the pair took twice as long.
        np.subtract(remaining, column, out=remaining, dtype=remaining.dtype, casting="unsafe")
        yield column


def _draw_groups(tables: Sequence[Table], molecules: int, rng: np.random.Generator,
                 out: np.ndarray, scratch: Scratch) -> bool:
    """Draw the releases of a block of groups into out, of shape (groups,
    memory, size), from one rng.random call, or restore rng and return
    False where the block's draws would not be those of its groups drawn
    one by one.

    The uniforms are laid group, then slot, then release, which is the
    order arrival_columns reads them in as long as every slot has a table,
    every release still has molecules left at every slot after its first,
    and no uniform lands where numpy would redraw. Each slot is read by
    one lookup over the whole block, through scratch, which holds at
    least groups * size entries.
    """
    state = rng.bit_generator.state
    groups, _, size = out.shape
    u = rng.random(out.shape)
    remaining = np.full(groups * size, molecules, dtype=np.uint8)
    slot_u = scratch.u[:remaining.size]
    for k, table in enumerate(tables):
        if k and not remaining.all():  # numpy draws nothing for a spent release
            break
        np.copyto(slot_u.reshape(groups, size), u[:, k])
        x, redraw = table.lookup(remaining, slot_u, scratch)
        if redraw:
            break
        out[:, k] = x.reshape(groups, size)
        np.subtract(remaining, x, out=remaining)
    else:
        return True
    rng.bit_generator.state = state
    return False


def arrival_groups(molecules: int, coefficients: Sequence[float],
                   rng: np.random.Generator, groups: int, size: int) -> Iterator[np.ndarray]:
    """Yield the arrivals of groups successive releases of molecules, each
    group of size releases, as a (size, memory) array.

    The groups, and the state rng is left in, are those of groups
    successive mc_sim.sample_arrivals calls, bit for bit. Whole groups of
    at most BLOCK releases are drawn at a time, each block from one
    rng.random call when every slot has a table; any block those uniforms
    cannot draw, and every group of more than BLOCK releases, is drawn
    group by group through arrival_columns. A block holds at most BLOCK *
    memory uniforms and as many counts, and each array yielded is a view
    into its block's counts.
    """
    _, tables = _checked_link(molecules, coefficients)
    per_block = max(1, BLOCK // max(size, 1))
    batched = size <= BLOCK and all(tables)
    scratch = Scratch.empty(min(groups, per_block) * size) if batched else None
    for start in range(0, groups, per_block):
        out = np.empty((min(per_block, groups - start), len(tables), size),
                       dtype=count_dtype(molecules))
        if not (batched and _draw_groups(tables, molecules, rng, out, scratch)):
            for group in out:
                for row, column in zip(group, arrival_columns(molecules, coefficients,
                                                              rng, size)):
                    row[:] = column
        yield from out.transpose(0, 2, 1)
