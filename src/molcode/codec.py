"""Bit-level link operations: encode, correct, detect, decode, threshold.

The run-length-limited codebook kind ("proposed") carries a structural
guarantee: a transmitted stream never contains adjacent ones. The receiver
exploits it twice, first by forcing any 1 that follows a decided 1 back to
0 (error correction), then by decoding through pair contraction, which maps
each 10 back to the underlying tree branch 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

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
    in progress when decoding stopped (end of stream, a branch missing from
    an incomplete code, or an adjacent-ones contract violation).
    """

    symbols: tuple[str, ...]
    residue: str
    violation: bool = False
    dead_end: bool = False

    @property
    def text(self) -> str:
        return "".join(self.symbols)


def _decode_trie(words: dict[str, str]) -> dict:
    root: dict = {}
    for sym, word in words.items():
        node = root
        for bit in word[:-1]:
            node = node.setdefault(bit, {})
            if not isinstance(node, dict):
                raise ValueError(f"codeword table is not prefix free at {word!r}")
        last = word[-1]
        if last in node:
            raise ValueError(f"codeword table is not prefix free at {word!r}")
        node[last] = sym
    return root


def decode(bits: str, cb: Codebook) -> DecodeResult:
    """Parse a bit string into symbols of cb.

    For the run-length-limited kind the stream is contracted on the fly
    (each 1 must be followed by a 0 and the pair walks the underlying tree
    branch 1); a 1 followed by another 1 is a contract violation and stops
    decoding. For every kind, falling off the codeword trie stops decoding
    at a dead end. Both stops leave the unconsumed bits in residue.
    """
    if set(bits) - {"0", "1"}:
        raise ValueError("bit string may contain only 0 and 1")
    contracted = cb.kind == "proposed"
    if contracted:
        words = {s: w.replace("10", "1") for s, w in cb.codewords.items()}
    else:
        words = cb.codewords
    root = _decode_trie(words)

    symbols: list[str] = []
    node = root
    word_start = 0
    pos = 0
    violation = False
    dead_end = False
    n = len(bits)
    while pos < n:
        bit = bits[pos]
        if contracted and bit == "1":
            if pos + 1 >= n:
                break  # incomplete pair, leave it as residue
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
    return DecodeResult(
        symbols=tuple(symbols),
        residue=bits[word_start:],
        violation=violation,
        dead_end=dead_end,
    )


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

    repetitions pilots are sent for every codeword. Slots with zero counts
    are skipped when reading the pilots; set drop_first_slot to instead
    discard slot 1 of every pilot and keep the zeros.
    """

    repetitions: int = 100
    drop_first_slot: bool = False

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
            if any(not (c > 0) for c in self.candidates):
                raise ValueError("candidate thresholds must be positive")


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
    """Raw pilot readings and the levels and threshold derived from them.

    counts holds one (repetitions, codeword length) array of per-slot
    molecule counts for each symbol; peak_means the per-codeword mean of
    the per-pilot peak counts.
    """

    counts: dict[str, "object"]
    peak_means: dict[str, float]
    signal_level: float
    interference_level: float
    tau: float
    molecules: int
    repetitions: int


def collect_pilot_stats(
    cb: Codebook,
    profile,
    molecules: int,
    master_seed: int,
    repetitions: int = 100,
    drop_first_slot: bool = False,
) -> PilotStats:
    """Transmit every codeword repeatedly and derive detection levels.

    Each pilot sends one codeword and records per-slot molecule counts over
    the codeword duration. The signal level is the smallest per-codeword
    mean peak count (so even the weakest codeword clears the threshold);
    the interference level is the mean peak count after masking every
    bit-1 slot and its successor (leaving only spillover into quiet slots).
    Pilots with nothing left after masking or zero dropping are skipped.
    """
    import numpy as np

    from . import mc_sim

    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, 0x9110_07)))
    coeffs = np.asarray(profile.coefficients)
    memory = len(coeffs)

    all_counts: dict[str, np.ndarray] = {}
    peak_means: dict[str, float] = {}
    exc_peaks: list[float] = []
    for sym, word in cb.codewords.items():
        length = len(word)
        ones = [i for i, b in enumerate(word) if b == "1"]
        counts = np.zeros((repetitions, length), dtype=np.int64)
        for i in ones:
            arrivals = mc_sim.sample_arrivals(molecules, profile.coefficients, rng,
                                              size=repetitions)
            keep = min(memory, length - i)
            counts[:, i:i + keep] += arrivals[:, :keep]
        all_counts[sym] = counts

        readable = np.ones(length, dtype=bool)
        if drop_first_slot:
            readable[0] = False
        read = counts[:, readable]
        if drop_first_slot:
            usable = np.ones(repetitions, dtype=bool) if read.shape[1] else np.zeros(
                repetitions, dtype=bool)
            peaks = read.max(axis=1) if read.shape[1] else np.zeros(repetitions)
        else:
            usable = (read > 0).any(axis=1)
            peaks = read.max(axis=1, initial=0)
        if usable.any():
            peak_means[sym] = float(peaks[usable].mean())

        quiet = np.ones(length, dtype=bool)
        for i in ones:
            quiet[i] = False
            if i + 1 < length:
                quiet[i + 1] = False
        if drop_first_slot:
            quiet[0] = False
        quiet_counts = counts[:, quiet]
        if quiet_counts.shape[1]:
            q_peaks = quiet_counts.max(axis=1, initial=0)
            if drop_first_slot:
                exc_peaks.extend(float(x) for x in q_peaks)
            else:
                q_usable = (quiet_counts > 0).any(axis=1)
                exc_peaks.extend(float(x) for x in q_peaks[q_usable])

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
        counts=all_counts,
        peak_means=peak_means,
        signal_level=signal_level,
        interference_level=interference_level,
        tau=tau,
        molecules=molecules,
        repetitions=repetitions,
    )
