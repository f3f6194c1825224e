"""The receiver: the count read with its correction, the row decoder,
encode/decode and threshold strategies.

The run-length-limited codebook kind ("proposed") carries a structural
guarantee: a transmitted stream never contains adjacent ones. The receiver
exploits it by forcing any 1 that follows a decided 1 back to 0 (error
correction), then parses the stream with the prefix code like any other
kind. _read_bits is the one place that read rule lives: it turns a matrix
of slot counts into bits against an integer count cut, correcting them
for a corrected kind, and _decode_rows parses and scores every row. The
simulator reads every chunk through these two. The codeword tables that
every decoder walks live on the codebook: Codebook.tables, built once per
codebook on first use. Its trie over the expanded codewords has no edge
for a 1 after a 1, so such a stream stops decoding at a dead end. Nothing
here draws random numbers: mc_sim sends the pilots, and
collect_pilot_stats only reads their counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Iterable, Union

import numpy as np

from .codebooks import Codebook, CodeTables

__all__ = [
    "DecodeResult",
    "encode",
    "decode",
    "ConstantThreshold",
    "PilotThreshold",
    "CalibratedThreshold",
    "ThresholdStrategy",
    "CalibrationError",
    "PilotStats",
    "pilot_threshold",
    "collect_pilot_stats",
]


def encode(text: Iterable[str], cb: Codebook) -> str:
    """Concatenate the codewords of the given symbols into one bit string."""
    parts: list[str] = []
    for i, sym in enumerate(text):
        try:
            parts.append(cb.codewords[sym])
        except KeyError:
            raise ValueError(f"symbol {sym!r} at position {i} is not in the codebook") from None
    return "".join(parts)


@dataclass(frozen=True)
class DecodeResult:
    """Decoded symbols plus whatever trailing bits could not be resolved.

    residue holds the original bits from the start of the codeword that was
    in progress when decoding stopped, at the end of the stream or at a
    dead end: a bit with no codeword trie edge, such as a branch missing
    from an incomplete code or a 1 after a 1 in a run-length-limited stream.
    """

    symbols: tuple[str, ...]
    residue: str
    dead_end: bool = False

    @property
    def text(self) -> str:
        return "".join(self.symbols)


def decode(bits: str, cb: Codebook) -> DecodeResult:
    """Parse a bit string into symbols of cb by walking its codeword trie.

    Decoding stops at the end of the stream or at a dead end, a bit with
    no trie edge; for the run-length-limited kind a 1 after a 1 is one.
    Either way the unconsumed bits are left in residue.
    """
    if set(bits) - {"0", "1"}:
        raise ValueError("bit string may contain only 0 and 1")
    names = cb.symbols
    tables = cb.tables
    symbols: list[str] = []
    at = 0  # 3 * the current state
    word_start = 0
    for pos, bit in enumerate(bits):
        edge = at + int(bit)
        at = tables.next_at[edge]
        if at == 3 * tables.dead:
            break
        if tables.emit[edge] >= 0:
            symbols.append(names[tables.emit[edge]])
            word_start = pos + 1
    return DecodeResult(symbols=tuple(symbols), residue=bits[word_start:],
                        dead_end=bool(at == 3 * tables.dead))


#: mc_sim.LinkConfig keeps every slot count below this, int32's largest
#: value; the counts themselves are of the narrowest unsigned dtype that
#: holds molecules_per_one * memory, and a cut past that dtype reads 0.
_COUNT_LIMIT = int(np.iinfo(np.int32).max)


def _count_cut(tau: float) -> int:
    """Smallest integer slot count that reads as 1 under threshold tau.

    Slot counts are integers, so count >= tau and count >= ceil(tau) read
    the same bits. Thresholds beyond the int32 range clamp to its top,
    which no count reaches (mc_sim.LinkConfig keeps every count below it).
    """
    return _COUNT_LIMIT if tau >= _COUNT_LIMIT else math.ceil(tau)


def _read_bits(counts: np.ndarray, cut: int, corrected: bool) -> np.ndarray:
    """Read a (trials, slots) count matrix into an int8 0/1 matrix.

    A slot reads 1 when its count is at least cut. For a corrected kind
    the slots are then corrected in order along every row, each 1 after a
    decided 1 cleared: x_t = d_t AND NOT x_{t-1}. The correction works in
    place on the fresh matrix of the compare, so counts is never written.
    """
    det = (counts >= cut).view(np.int8)
    if corrected:
        for t in range(1, det.shape[1]):
            det[:, t] &= ~det[:, t - 1]
    return det


def _decode_rows(final: np.ndarray, tlen: np.ndarray, syms: np.ndarray, tables: CodeTables):
    """Walk the codeword trie along every row and score it against syms.

    final has a column per slot of the longest message, so at least
    msg_len, and may have more: a row's slots past its tlen are never
    read. The walk reads tables.steps, the same trie k slots per lookup,
    in ceil(max_t / k) steps, max_t being final's width: each row's bits
    are packed into k-bit codes, time major, and a step looks up every
    row's entry from its state, its count of those k slots that lie
    before its tlen, and their code. A step writes the entry's emit
    column (its symbols, then -1) into the row's stretch of an int16
    buffer from the row's decoded count on, or from msg_len once that
    count passes it: only the first msg_len are scored. A step writes at
    most the table's width, so
    stretches of msg_len + width never spill into each other, and past a
    row's decoded count they hold -1. The count itself is not clipped.

    Returns per-row character errors (positions among the first msg_len
    whose decoded symbol differs from the sent one or is missing), the
    number of decoded symbols and the dead-end and incomplete-tail flags,
    all equal to those of a walk of one slot at a time.
    """
    steps = tables.steps
    k, width = steps.slots, len(steps.emit)
    trials, max_t = final.shape
    msg_len = syms.shape[1]
    # Step s reads slots s * k to s * k + k - 1 of every row: the number
    # of them before the row's tlen, and their bits, from 16-bit windows
    # of the packed rows.
    starts = np.arange(0, max_t, k, dtype=np.int32)
    row_bytes = -(-max_t // 8)
    # One flat packbits: packbits along axis 1 pays per row and is the
    # slower of the two below about a thousand slots. The simulator reads
    # rows of whole bytes, packed as they are; rows of any other width are
    # packed from a zero-padded copy.
    if max_t % 8:
        padded = np.zeros((trials, 8 * row_bytes), dtype=np.uint8)
        padded[:, :max_t] = final
        final = padded
    wide = np.zeros((row_bytes + 1, trials), dtype=np.uint16)
    wide[:-1] = np.packbits(final, bitorder="little").reshape(trials, row_bytes).T
    window = wide[starts >> 3] | wide[(starts >> 3) + 1] << 8
    keys = np.clip(tlen.astype(np.int32) - starts[:, None], 0, k) << k
    keys += (window >> (starts & 7)[:, None]) & ((1 << k) - 1)

    stride = msg_len + width
    out = np.full(trials * stride, -1, dtype=np.int16)
    first = np.arange(trials, dtype=np.int64) * stride
    last = first + msg_len
    put = first.copy()  # where each row's next symbol goes
    lanes = np.arange(width)[:, None]
    at = np.zeros(trials, dtype=np.int32)  # span * the state of each row
    for key in keys:
        entry = at + key
        out[np.minimum(put, last) + lanes] = steps.emit.take(entry, axis=1)
        put += steps.count.take(entry)
        at = steps.next.take(entry)
    matches = np.count_nonzero(out.reshape(trials, stride)[:, :msg_len] == syms, axis=1)
    state = at // steps.span
    dead = state == tables.dead
    incomplete = (~dead) & (state != 0)
    return msg_len - matches, put - first, dead, incomplete


def _check_integer(name: str, value, least: int) -> None:
    """Raise ValueError unless value is a non-bool integer no smaller than least."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _check_positive(name: str, value) -> None:
    """Raise ValueError unless value is a non-bool real, above 0 and finite."""
    if (isinstance(value, bool) or not isinstance(value, Real) or not value > 0
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class ConstantThreshold:
    """Use a fixed detection threshold as given: positive, finite, not a bool."""

    tau: float

    def __post_init__(self) -> None:
        _check_positive("threshold", self.tau)


@dataclass(frozen=True)
class PilotThreshold:
    """Derive the threshold from per-codeword pilot transmissions.

    The simulator sends repetitions pilots of every codeword, and
    collect_pilot_stats reads them.
    """

    repetitions: int = 100

    def __post_init__(self) -> None:
        _check_integer("repetitions", self.repetitions, 1)


@dataclass(frozen=True)
class CalibratedThreshold:
    """Pick the threshold that minimizes error rate on a calibration batch.

    candidates is an explicit tau grid; by default a grid proportional to
    the first-slot signal level is used. All candidates are scored on one
    shared batch of messages (common random numbers) and ties go to the
    smaller tau. Slot counts are integers, so candidates with the same
    ceiling always tie; each such integer cut is scored once. The batch is
    drawn in chunks of the simulator's main chunk size, each from its own
    calibration stream of the seed, and run_cer, sweep and
    resolve_threshold score it through the same chunks: the first two on
    the worker pool, resolve_threshold one chunk after another.
    """

    candidates: tuple[float, ...] | None = None
    messages: int = 10_000

    def __post_init__(self) -> None:
        _check_integer("messages", self.messages, 1)
        if self.candidates is not None:
            if not self.candidates:
                raise ValueError("candidate grid must not be empty")
            for c in self.candidates:
                _check_positive("candidate threshold", c)


ThresholdStrategy = Union[ConstantThreshold, PilotThreshold, CalibratedThreshold]


class CalibrationError(ValueError):
    """The pilots of a link cannot separate signal from interference.

    This is a property of the link (for example a budget too small to
    lift any pilot above the interference), not a configuration mistake;
    sweep turns it into an error-tagged row.
    """


def pilot_threshold(signal_level: float, interference_level: float, molecules: int) -> float:
    """Threshold between a signal and an interference count level.

    Both levels are modeled as binomial counts out of molecules trials; the
    threshold divides the segment [interference, signal] where their
    z-scores match:

        tau = (sigma_i * n_s + sigma_s * n_i) / (sigma_s + sigma_i),

    with sigma = sqrt(n (1 - n / molecules)). Equal sigmas give the
    midpoint; a collapsed segment (equal levels) returns the common value.
    """
    n1, n3 = float(signal_level), float(interference_level)
    if not (math.isfinite(n1) and math.isfinite(n3)):
        raise ValueError("pilot levels must be finite")
    if n1 < n3:
        raise CalibrationError(
            f"signal level {n1!r} is below interference level {n3!r}; "
            "the link cannot be calibrated from these pilots"
        )
    if n3 < 0 or n1 > molecules:
        raise ValueError("pilot levels must lie within [0, molecules]")
    if n1 == n3:
        return n1
    sigma1 = math.sqrt(n1 * (1.0 - n1 / molecules))
    sigma3 = math.sqrt(n3 * (1.0 - n3 / molecules))
    if sigma1 + sigma3 == 0.0:
        return (n1 + n3) / 2.0
    return (sigma3 * n1 + sigma1 * n3) / (sigma1 + sigma3)


@dataclass(frozen=True)
class PilotStats:
    """The levels and threshold read from pilots.

    peak_means holds the per-codeword mean of the positive per-pilot peak
    counts.
    """

    peak_means: dict[str, float]
    signal_level: float
    interference_level: float
    tau: float


def collect_pilot_stats(cb: Codebook, counts: dict, molecules: int) -> PilotStats:
    """Read pilots of every codeword into detection levels.

    counts maps every symbol of cb to a (repetitions, codeword length)
    array of per-slot molecule counts, one row per pilot: the codeword sent
    alone, each bit-1 releasing molecules. A pilot is read by its peak, the
    largest of its counts, and only positive peaks are averaged. The signal
    level is the smallest per-codeword mean peak (so even the weakest
    codeword clears the threshold); the interference level is the mean peak
    after masking every bit-1 slot and its successor (leaving only spillover
    into quiet slots). A counts entry that is missing, has no rows or has
    the wrong width raises ValueError.
    """
    peak_means: dict[str, float] = {}
    exc_peaks: list[float] = []
    repetitions = 0
    for sym, word in cb.codewords.items():
        shape = np.shape(counts.get(sym))  # () for a missing symbol
        if not repetitions and shape:
            repetitions = shape[0]
        if not repetitions or shape != (repetitions, len(word)):
            raise ValueError(
                f"pilot counts for {sym!r} have shape {shape}; every symbol needs "
                f"the same number (at least 1) of rows of {len(word)} slots"
            )
        sym_counts = np.asarray(counts[sym])
        peaks = sym_counts.max(axis=1)
        if peaks.any():
            peak_means[sym] = float(peaks[peaks > 0].mean())

        ones = np.array([b == "1" for b in word])
        quiet = ~(ones | np.r_[False, ones[:-1]])
        q_peaks = sym_counts[:, quiet].max(axis=1, initial=0)
        exc_peaks.extend(float(x) for x in q_peaks[q_peaks > 0])

    if not peak_means:
        raise CalibrationError("no usable pilot readings for the signal level")
    if not exc_peaks:
        raise CalibrationError("no usable pilot readings for the interference level")
    signal_level = min(peak_means.values())
    interference_level = float(np.mean(exc_peaks))
    if signal_level <= interference_level:
        raise CalibrationError(
            f"pilot signal level {signal_level!r} does not exceed the "
            f"interference level {interference_level!r}; uncalibratable link"
        )
    tau = pilot_threshold(signal_level, interference_level, molecules)
    return PilotStats(
        peak_means=peak_means,
        signal_level=signal_level,
        interference_level=interference_level,
        tau=tau,
    )
