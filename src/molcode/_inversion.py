"""Exact tables of numpy's binomial inversion, for the arrival sampler.

numpy's Generator.binomial(n, p) samples by inversion when p <= 0.5 and
n * p <= 30: it draws one uniform and walks the probability mass function
until the uniform is used up. For a fixed p, which uniforms end the walk
at each x is fixed too, so the walk can be replaced by a lookup in exact
precomputed cuts that reads the same uniforms and returns the same counts.
mc_sim imports this module when it first looks up a link's tables.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

#: numpy samples Binomial(n, p) by inversion when p <= 0.5 and n * p <= this.
_INVERSION_MEAN = 30.0
#: Buckets of the guide that starts each table lookup. A power of two,
#: so floor(u * _GUIDE_BUCKETS) is exact for every uniform u.
_GUIDE_BUCKETS = 1024
#: A guide entry of _WALK + x sends its draws walking the cuts from x.
#: Every x fits below it: n * p <= 30 keeps bound[n] below 86.
_WALK = 128
#: Releases looked up at a time. It sizes the reused Scratch, 18 bytes a
#: release, and keeps each numpy call long: only some of the calls a lookup
#: makes let go of the GIL (see Table.lookup), so two sampling threads
#: overlap only within them, and at 8192 two threads sampled no faster
#: than one.
BLOCK = 1 << 16
#: Generator.random returns m * 2**-53 for an integer 0 <= m < 2**53.
_LATTICE = 2 ** 53


class Table(NamedTuple):
    """numpy's binomial inversion for one slot probability, as exact cuts.

    For Binomial(n, p), numpy draws one uniform U and walks
    `while U > px: X += 1; U -= px; px = next`, redrawing if X passes
    bound[n]. Row n of cuts (width entries from n * width) holds at x the
    largest uniform for which that walk stops at X <= x, for x <= bound[n],
    and 1.0, above any uniform, after that. So X is the first x with
    U <= cuts[n, x], and an X past bound[n] means numpy would have
    redrawn; no uniform up to safe does.

    A lookup of a uniform in bucket b = floor(U * _GUIDE_BUCKETS) reads
    the byte guide[n, b]. Where no cut of row n falls inside bucket b,
    every uniform in it stops at the same x, and the entry is that x. Where
    one does, the entry is _WALK + the first x whose cut reaches
    b / _GUIDE_BUCKETS, and only those draws walk the cuts from there.
    """

    cuts: np.ndarray
    guide: np.ndarray
    bound: np.ndarray
    width: int
    safe: float

    def lookup(self, n: np.ndarray, u: np.ndarray,
               scratch: Scratch) -> tuple[np.ndarray, bool]:
        """X for remaining counts n >= 1 and their uniforms u, and whether
        numpy would have redrawn any of them.

        Each pass over the whole block writes into scratch, which holds at
        least n.size entries, and X is a uint8 view of scratch.x: one
        int32 guide index, one byte take and one flag test per draw. Only
        the draws of flagged entries walk on, by index lists. Of these
        calls the take holds the GIL for its whole run, while the
        elementwise ufuncs and the flag's flatnonzero let go of it.
        """
        s = scratch.head(n.size)
        idx, x = s.idx, s.x
        np.multiply(u, _GUIDE_BUCKETS, out=idx, casting="unsafe")
        np.add(idx, np.multiply(n, _GUIDE_BUCKETS, out=s.row, dtype=np.int32), out=idx)
        self.guide.take(idx, out=x, mode="clip")
        walk = np.flatnonzero(np.greater_equal(x, _WALK, out=s.walk))
        if walk.size:
            row = n[walk] * np.intp(self.width)
            pos = row + (x[walk] - _WALK)
            uw = u[walk]
            todo = np.flatnonzero(uw > self.cuts[pos])
            while todo.size:
                pos[todo] += 1
                todo = todo[uw[todo] > self.cuts[pos[todo]]]
            x[walk] = pos - row
        redraw = bool(u.size) and u.max() > self.safe and bool((x > self.bound[n]).any())
        return x, redraw


class Scratch(NamedTuple):
    """Buffers that Table.lookup reuses from block to block: the uniforms,
    the guide index and each count's guide row offset, the guide entries,
    which become the counts, and the walk flags."""

    u: np.ndarray
    idx: np.ndarray
    row: np.ndarray
    x: np.ndarray
    walk: np.ndarray

    @classmethod
    def empty(cls, size: int) -> Scratch:
        return cls(np.empty(size), np.empty(size, np.int32), np.empty(size, np.int32),
                   np.empty(size, np.uint8), np.empty(size, bool))

    def head(self, size: int) -> Scratch:
        """The first size entries of every buffer."""
        return Scratch(*(buf[:size] for buf in self))


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
    """The Table of probability p, for remaining counts <= molecules.

    The walk constants use the scalar math functions, which call libm as
    numpy's C code does, and numpy's own operation order. Each cut is then
    bisected over the uniform lattice, vectorized over every (n, x), from
    a bracket around the float CDF that widens to the whole lattice
    wherever it does not hold.
    """
    q = 1.0 - p
    ns = range(molecules + 1)
    bound = np.array([int(min(n, n * p + 10.0 * math.sqrt(n * p * q + 1.0))) for n in ns])
    width = int(bound.max()) + 2  # up to the 1.0 after the last bound
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

    cuts = np.ones((molecules + 1, width))
    cuts[rows, xs] = lo * (1.0 / _LATTICE)
    # first[n, b] counts the x whose cut lies below b / _GUIDE_BUCKETS,
    # that is, whose bucket floor(cut * _GUIDE_BUCKETS) lies below b. Row
    # n's buckets are offset into a band of their own, so one search over
    # the flattened rows answers every (n, b).
    bucket = (cuts * _GUIDE_BUCKETS).astype(np.intp)
    band = n[:, None] * (_GUIDE_BUCKETS + 1)
    first = np.searchsorted((bucket + band).ravel(), band + np.arange(_GUIDE_BUCKETS))
    first -= n[:, None] * width
    # A bucket that holds a cut walks; the 1.0s past each bound fill a
    # bucket past the last, which is dropped.
    holds = np.zeros((molecules + 1, _GUIDE_BUCKETS + 1), dtype=bool)
    holds[n[:, None], bucket] = True
    return Table(
        cuts=cuts.ravel(),
        guide=(first + _WALK * holds[:, :-1]).astype(np.uint8).ravel(),
        bound=bound,
        width=width,
        safe=float(cuts[n[1:], bound[1:]].min()),
    )


@functools.lru_cache(maxsize=32)
def link_tables(molecules: int, probs: tuple[float, ...]) -> tuple[Table | None, ...]:
    """Each slot's inversion table, or None where numpy does not invert.

    Built on first use, one slot at a time to keep the transient memory
    small, and cached per link; two threads that miss at once both build,
    which is harmless.
    """
    return tuple(
        _build_table(molecules, p) if 0.0 < p <= 0.5 and p * molecules <= _INVERSION_MEAN
        else None
        for p in probs
    )


def draw_slot(table: Table, remaining: np.ndarray, column: np.ndarray,
              rng: np.random.Generator, scratch: Scratch) -> bool:
    """Draw one slot from its table into column; False if numpy would redraw.

    Reads one uniform per nonzero remaining count, in release order, as
    numpy's binomial loop does, a block at a time into scratch, which
    holds at least min(len(remaining), BLOCK) entries. Writes every entry
    of column and never remaining: the caller takes the column off the
    remaining counts, and on False restores the generator instead.
    """
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
            return False
        col[nz] = x
    return True
