"""Bit-level link operations: encode, correct, detect, decode, threshold.

The run-length-limited codebook kind ("proposed") carries a structural
guarantee: a transmitted stream never contains adjacent ones. The receiver
exploits it by forcing any 1 that follows a decided 1 back to 0 (error
correction), then parses the stream with the prefix code like any other
kind. The codeword tables that every decoder walks live on the codebook:
Codebook.tables, built once per codebook on first use. Its trie over the
expanded codewords has no edge for a 1 after a 1, so such a stream stops
decoding at a dead end. Nothing here draws random numbers: mc_sim sends
the pilots, and collect_pilot_stats only reads their counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .codebooks import Codebook

__all__ = [
    "DecodeResult",
    "encode",
    "error_correct",
    "detect",
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


def error_correct(bits: str) -> str:
    """Force every 1 that follows an already accepted 1 to 0.

    The pass is sequential: each output bit is the input bit ANDed with the
    negation of the previous output bit, so alternating runs like 11111
    become 10101. Idempotent, and a no-op on any stream without adjacent
    ones.
    """
    out: list[str] = []
    prev = "0"
    for b in bits:
        if b not in "01":
            raise ValueError(f"bit string contains {b!r}")
        cur = "1" if (b == "1" and prev == "0") else "0"
        out.append(cur)
        prev = cur
    return "".join(out)


def detect(counts: Sequence[float], tau: float) -> str:
    """Threshold per-slot molecule counts into bits: count >= tau reads as 1."""
    if not (tau > 0):
        raise ValueError("threshold must be positive")
    return "".join("1" if c >= tau else "0" for c in counts)


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


@dataclass(frozen=True)
class ConstantThreshold:
    """Use a fixed detection threshold as given."""

    tau: float

    def __post_init__(self) -> None:
        if not (self.tau > 0) or not math.isfinite(self.tau):
            raise ValueError("threshold must be positive and finite")


@dataclass(frozen=True)
class PilotThreshold:
    """Derive the threshold from per-codeword pilot transmissions.

    The simulator sends repetitions pilots of every codeword, and
    collect_pilot_stats reads them.
    """

    repetitions: int = 100

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")


@dataclass(frozen=True)
class CalibratedThreshold:
    """Pick the threshold that minimizes error rate on a calibration batch.

    candidates is an explicit tau grid; by default a grid proportional to
    the first-slot signal level is used. All candidates are scored on one
    shared batch of messages (common random numbers) and ties go to the
    smaller tau. Slot counts are integers, so candidates with the same
    ceiling always tie; each such integer cut is scored once.
    """

    candidates: tuple[float, ...] | None = None
    messages: int = 10_000

    def __post_init__(self) -> None:
        if self.messages < 1:
            raise ValueError("messages must be at least 1")
        if self.candidates is not None:
            if not self.candidates:
                raise ValueError("candidate grid must not be empty")
            if any(not (c > 0) or not math.isfinite(c) for c in self.candidates):
                raise ValueError("candidate thresholds must be positive and finite")


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
