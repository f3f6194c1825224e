"""Exact and empirical inter-symbol interference statistics of a codebook.

All quantities describe the semi-infinite bit stream obtained by encoding
i.i.d. symbols and concatenating their codewords. The stream is a Markov
chain over codeword positions: within a codeword the next position is
deterministic, and at a codeword boundary the next symbol is drawn from the
character distribution.

The central quantity is the lag profile of a bit-0 slot: for each lag
j - 1 in the channel memory window, the probability that the slot j - 1
steps earlier carried a 1, scaled by the overall bit-0 frequency p0. The
window rule that draws the conditioning zeros is chosen automatically. The
word-interior rule conditions on zeros whose full memory window lies
inside their own codeword (each such zero weighted by its codeword
probability); it is the rule behind the reference coefficient values for
the bundled English codebooks, and it is used whenever such a zero exists.
Otherwise, e.g. for any single-bit code, the stream rule applies: it uses
the unrestricted stationary law.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebooks import (
    CharacterDistribution,
    Codebook,
    _check_symbols,
    expected_length,
)
from .codec import _check_integer

__all__ = [
    "IsiCoefficients",
    "window_distribution",
    "expected_isi_bit0",
    "isi_oracle",
]


@dataclass(frozen=True)
class IsiCoefficients:
    """Lag profile of a bit-0 slot: p0 and one coefficient per memory lag.

    coefficients maps j (the slot index within the memory window, starting
    at 2 for the immediately preceding slot) to

        c_j = p0 * P(slot j - 1 steps back carried a 1 | current slot is 0).

    With error correction in force the j = 2 term is removed, because a
    corrected stream never has a 1 directly before a 0 that was itself
    preceded by a 1; corrected results simply omit that key.
    """

    p0: float
    coefficients: dict[int, float]
    corrected: bool
    window_rule: str
    stderr: dict[int, float] | None = None


def _word_chain(cb: Codebook, dist: CharacterDistribution):
    """Markov chain over (symbol, in-word position) states of the stream.

    State i is bit i of every codeword laid once in codebook order.
    Returns (bits, pos, weight, step, pi): per-state bit values, in-word
    positions and symbol probabilities, the one-step map of a mass vector
    over the states, and the stationary distribution
    pi(sym, t) = p(sym) / mean codeword length. step moves the mass of each
    state to the next bit of its codeword, and the mass of all codeword
    ends to the codeword starts in proportion to the symbol probabilities.
    """
    _check_symbols(cb, dist)
    tables = cb.tables
    probs = np.array([dist.prob(s) for s in cb.symbols])
    bits, pos = tables.lay(np.arange(len(probs)))
    weight = np.repeat(probs, tables.word_len)
    ends = tables.word_off + tables.word_len - 1

    def step(vec: np.ndarray) -> np.ndarray:
        out = np.empty_like(vec)
        out[1:] = vec[:-1]
        out[tables.word_off] = vec[ends].sum() * probs
        return out

    return bits, pos, weight, step, weight / float(np.dot(probs, tables.word_len))


def _interior_zeros(bits: np.ndarray, pos: np.ndarray, memory: int) -> np.ndarray:
    """Which bits are zeros whose memory window lies inside their own codeword."""
    return (bits == 0) & (pos >= memory - 1)


def window_distribution(
    cb: Codebook, dist: CharacterDistribution, memory: int
) -> dict[str, float]:
    """Exact stationary probability of every bit pattern of length memory."""
    _check_integer("memory", memory, 1)
    bits, _, _, step, pi = _word_chain(cb, dist)
    layers: dict[str, np.ndarray] = {"": pi}
    for _ in range(memory):
        layers = {prefix + str(b): step(vec * (bits == b))
                  for prefix, vec in layers.items() for b in (0, 1)}
    # Each vector now carries the joint mass of (pattern seen, state after
    # the window); its sum is the pattern probability.
    return {pattern: float(vec.sum()) for pattern, vec in layers.items()}


def _stream_lag_profile(bits, step, pi, memory):
    """c_j via the unrestricted stationary law, for j = 2..memory."""
    out: dict[int, float] = {}
    vec = pi * (bits == 1)  # joint mass of (bit 1 now, state)
    for lag in range(1, memory):
        vec = step(vec)
        out[lag + 1] = float(vec[bits == 0].sum())
    return out


def _check_lag_args(cb: Codebook, memory: int, corrected: bool) -> None:
    """Reject a window without lags, or correction the code's receiver lacks."""
    _check_integer("memory", memory, 2)
    if corrected and not cb.corrected:
        raise ValueError("only the run-length-limited kind supports correction")


def expected_isi_bit0(
    cb: Codebook,
    dist: CharacterDistribution,
    memory: int = 3,
    corrected: bool = False,
) -> IsiCoefficients:
    """Closed-form lag profile of a bit-0 slot of the coded stream.

    Uses the word-interior rule when the codebook has qualifying zeros and
    the stream rule otherwise (see module docstring); the result's
    window_rule names the rule used.
    """
    _check_lag_args(cb, memory, corrected)
    bits, pos, weight, step, pi = _word_chain(cb, dist)
    p0 = float(pi[bits == 0].sum())
    zeros = np.flatnonzero(_interior_zeros(bits, pos, memory))
    if zeros.size:
        # Each qualifying zero weighs as much as its codeword, and its
        # lagged slots all lie in that codeword.
        rule, mass = "word-interior", weight[zeros]
        den = float(mass.sum())
        coeffs = {lag + 1: p0 * (float(mass[bits[zeros - lag] == 1].sum()) / den)
                  for lag in range(1, memory)}
    else:
        rule, coeffs = "stream", _stream_lag_profile(bits, step, pi, memory)
    if corrected:
        coeffs = {j: c for j, c in coeffs.items() if j != 2}
    return IsiCoefficients(
        p0=p0, coefficients=coeffs, corrected=corrected, window_rule=rule
    )


def isi_oracle(
    cb: Codebook,
    dist: CharacterDistribution,
    memory: int = 3,
    corrected: bool = False,
    samples: int = 10_000_000,
    rng: np.random.Generator | None = None,
) -> IsiCoefficients:
    """Monte Carlo estimate of expected_isi_bit0 with batch-means errors.

    Simulates a coded stream of roughly samples bits (at least 1e5, below
    which the batch error estimates are meaningless), splits it into 100
    batches, and reports every coefficient under the window rule
    expected_isi_bit0 would use: its estimate from the whole stream, and a
    standard error from the spread of the batches' own estimates, each of
    them the batch's p0 times its hit ratio. Meant as an independent check
    of the closed form.
    """
    _check_lag_args(cb, memory, corrected)
    if samples < 100_000:
        raise ValueError("the oracle needs at least 1e5 stream bits")
    bits, pos, *_ = _word_chain(cb, dist)
    rule = "word-interior" if _interior_zeros(bits, pos, memory).any() else "stream"
    batches = 100

    symbols = max(int(samples / expected_length(cb, dist)), memory * batches * 4)
    if rng is None:
        rng = np.random.default_rng(0)
    from . import _inversion  # compiled on first use, not by every import

    table = _inversion.symbol_table([dist.prob(s) for s in cb.symbols])
    stream, pos = cb.tables.lay(table.draw(rng, symbols))

    n = len(stream)
    p0 = float((stream == 0).mean())
    if rule == "word-interior":
        zero_mask = _interior_zeros(stream, pos, memory)
    else:
        zero_mask = stream == 0
        zero_mask[: memory - 1] = False
    idx = np.nonzero(zero_mask)[0]
    if idx.size == 0:
        raise ValueError("the sampled stream has no qualifying zero windows")

    edges = np.linspace(0, n, batches + 1).astype(np.int64)
    batch_of = np.searchsorted(edges, idx, side="right") - 1
    batch_p0 = np.add.reduceat(stream == 0, edges[:-1]) / np.diff(edges)
    per_tot = np.bincount(batch_of, minlength=batches)
    keep = per_tot > 0
    lags = [lag for lag in range(1, memory) if not (corrected and lag == 1)]
    coeffs: dict[int, float] = {}
    errs: dict[int, float] = {}
    for lag in lags:
        hit = stream[idx - lag] == 1
        ratio = float(hit.mean())
        coeffs[lag + 1] = p0 * ratio
        per_hit = np.bincount(batch_of, weights=hit.astype(float), minlength=batches)
        per_batch = batch_p0[keep] * (per_hit[keep] / per_tot[keep])
        errs[lag + 1] = float(per_batch.std(ddof=1) / np.sqrt(keep.sum()))
    return IsiCoefficients(
        p0=p0, coefficients=coeffs, corrected=corrected, window_rule=rule, stderr=errs
    )
