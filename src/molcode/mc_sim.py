"""Monte Carlo character-error-rate simulation of a slotted molecular link.

Each trial transmits one message of independently drawn characters. Every
bit-1 slot releases a fixed molecule budget whose arrivals spread over the
channel memory window; slot counts are thresholded into bits, optionally
error corrected, parsed back into characters and scored positionally
against the sent message.

Determinism contract: trials are processed in fixed chunks of
CHUNK_TRIALS, and chunk c draws all of its randomness from a dedicated
generator seeded by (master_seed, stream tag, c). Results are therefore
bit-identical for a given (master_seed, trials) no matter how many worker
threads process the chunks. Changing CHUNK_TRIALS changes the streams.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import codec
from .channel import ChannelParams, ChannelProfile
from .codebooks import (
    Codebook,
    CharacterDistribution,
    build_huffman,
    build_proposed,
    expected_length,
    expected_ones,
    ita2,
)
from .codec import (
    CalibratedThreshold,
    CalibrationError,
    ConstantThreshold,
    PilotThreshold,
    ThresholdStrategy,
)

__all__ = [
    "CHUNK_TRIALS",
    "LinkConfig",
    "CerReport",
    "SimulatedMessage",
    "fair_budgets",
    "sample_arrivals",
    "simulate_message",
    "resolve_threshold",
    "run_cer",
    "sweep",
]

#: Trials per deterministic chunk; part of the reproducibility contract.
CHUNK_TRIALS = 8192

#: Slot counts are int32; LinkConfig keeps every count below this.
_COUNT_LIMIT = int(np.iinfo(np.int32).max)

#: Decoder input for a slot after the end of a message.
_PAST_END = 2

_MAIN_TAG = 0xC0DE
_CAL_TAG = 0xCA1


@dataclass(frozen=True)
class LinkConfig:
    """Everything needed to simulate one codebook on one channel.

    The slot length of the profile must match char_duration divided by the
    expected codeword length, so every codebook transmits characters at the
    same average rate regardless of its bit count. A zero molecule budget
    is allowed and gives the all-silent baseline link.
    """

    codebook: Codebook
    distribution: CharacterDistribution
    profile: ChannelProfile
    molecules_per_one: int
    char_duration: float
    threshold: ThresholdStrategy
    msg_len: int = 10
    trials: int = 100_000
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.molecules_per_one < 0:
            raise ValueError("molecule budget must be non-negative")
        if self.msg_len < 1:
            raise ValueError("messages must have at least 1 character")
        if self.trials < 1:
            raise ValueError("need at least 1 trial")
        if self.master_seed < 0:
            raise ValueError("master seed must be non-negative")
        if self.char_duration <= 0:
            raise ValueError("character duration must be positive")
        if self.molecules_per_one * self.profile.memory >= _COUNT_LIMIT:
            raise ValueError(
                "molecule budget too large: slot counts must stay below 2**31 - 1"
            )
        want = self.char_duration / expected_length(self.codebook, self.distribution)
        if abs(self.profile.slot - want) > 1e-9 * want:
            raise ValueError(
                f"profile slot {self.profile.slot!r} does not match "
                f"char_duration / expected codeword length = {want!r}"
            )

    @classmethod
    def build(
        cls,
        codebook: Codebook,
        distribution: CharacterDistribution,
        params: ChannelParams,
        molecules_per_one: int,
        char_duration: float,
        threshold: ThresholdStrategy,
        msg_len: int = 10,
        memory: int = 10,
        trials: int = 100_000,
        master_seed: int = 0,
    ) -> "LinkConfig":
        slot = char_duration / expected_length(codebook, distribution)
        profile = ChannelProfile.build(params, slot, memory)
        return cls(
            codebook=codebook,
            distribution=distribution,
            profile=profile,
            molecules_per_one=molecules_per_one,
            char_duration=char_duration,
            threshold=threshold,
            msg_len=msg_len,
            trials=trials,
            master_seed=master_seed,
        )


@dataclass(frozen=True)
class CerReport:
    """Outcome of a run_cer call.

    bit_counts maps sent-received pairs ("10" means sent 1, read 0) over
    the post-correction bit stream. context_counts and context_rates hold
    the two context-conditional error statistics that drive the character
    error rate of a run-length-limited link: a spurious 1 two slots after a
    legal 1 (context 100) and a missed legal 1 (context x01).
    """

    cer: float
    cer_stderr: float
    char_errors: int
    chars: int
    trials: int
    tau: float
    threshold_origin: str
    master_seed: int
    bit_counts: dict[str, int]
    context_counts: dict[str, int]
    context_rates: dict[str, float]
    anomalies: dict[str, int]
    config: LinkConfig


def fair_budgets(
    dist: CharacterDistribution,
    base_molecules: int,
    kinds: Sequence[str] = ("huffman", "proposed", "ita2"),
) -> dict[str, int]:
    """Per-bit-1 molecule budgets that equalize molecules per character.

    base_molecules is the budget of the Huffman code; every other codebook
    gets base * E[ones](huffman) / E[ones](kind), rounded to the nearest
    integer, so all kinds spend the same expected molecule count per
    transmitted character.
    """
    if base_molecules < 1:
        raise ValueError("base budget must be at least 1")
    builders = {"huffman": build_huffman, "proposed": build_proposed, "ita2": lambda d: ita2()}
    ones_h = expected_ones(build_huffman(dist), dist)
    out: dict[str, int] = {}
    for kind in kinds:
        try:
            cb = builders[kind](dist)
        except KeyError:
            raise ValueError(f"unknown codebook kind {kind!r}") from None
        out[kind] = int(round(base_molecules * ones_h / expected_ones(cb, dist)))
    return out


def _budget_share(dist: CharacterDistribution, cb: Codebook, molecules_per_char: float) -> int:
    """Bit-1 budget that spends molecules_per_char on average per character."""
    if molecules_per_char < 0:
        raise ValueError("a molecule budget cannot be negative")
    return int(round(molecules_per_char / expected_ones(cb, dist)))


def sample_arrivals(
    molecules: int,
    coefficients: Sequence[float],
    rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Arrival counts per memory slot for one release of molecules.

    Sampling is sequential binomial over the slots: conditioned on what
    already arrived, the count of slot k is binomial out of the remaining
    molecules with the renormalized slot probability. The marginal of each
    slot count is Binomial(molecules, a_k) and the total never exceeds the
    release. With size given, that many independent releases are drawn and
    an array of shape (size, memory) is returned. Counts are int32 unless
    molecules exceeds the int32 range.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    if molecules < 0:
        raise ValueError("molecule count must be non-negative")
    if (coeffs < 0).any() or coeffs.sum() > 1.0 + 1e-12:
        raise ValueError("arrival coefficients must be non-negative and sum to at most 1")
    n = 1 if size is None else int(size)
    remaining = np.full(n, molecules, dtype=np.int64)
    out = np.empty((n, len(coeffs)), dtype=np.int32 if molecules <= _COUNT_LIMIT else np.int64)
    consumed = 0.0
    for k, a in enumerate(coeffs):
        rest = 1.0 - consumed
        p = min(a / rest, 1.0) if rest > 1e-15 else 0.0
        out[:, k] = rng.binomial(remaining, p)
        remaining -= out[:, k]
        consumed += a
    return out[0] if size is None else out


@dataclass(frozen=True)
class SimulatedMessage:
    """Single-trial transcript, the readable counterpart of the array engine."""

    text: str
    sent_bits: str
    slot_counts: tuple[int, ...]
    detected_bits: str
    corrected_bits: str | None
    decoded: codec.DecodeResult
    char_errors: int


def simulate_message(
    text: str,
    cfg: LinkConfig,
    rng: np.random.Generator,
    tau: float | None = None,
) -> SimulatedMessage:
    """Run one message through the full pipeline, step by step.

    The threshold must already be a number: either pass tau explicitly or
    configure the link with a ConstantThreshold.
    """
    if tau is None:
        if not isinstance(cfg.threshold, ConstantThreshold):
            raise ValueError(
                "simulate_message needs a resolved threshold; pass tau or use "
                "a ConstantThreshold"
            )
        tau = cfg.threshold.tau
    bits = codec.encode(text, cfg.codebook)
    memory = cfg.profile.memory
    counts = np.zeros(len(bits), dtype=np.int64)
    for i, b in enumerate(bits):
        if b != "1":
            continue
        arrivals = sample_arrivals(cfg.molecules_per_one, cfg.profile.coefficients, rng)
        keep = min(memory, len(bits) - i)
        counts[i:i + keep] += arrivals[:keep]
    detected = codec.detect(counts.tolist(), tau)
    corrected = codec.error_correct(detected) if cfg.codebook.kind == "proposed" else None
    decoded = codec.decode(corrected if corrected is not None else detected, cfg.codebook)
    errors = sum(
        1 for i in range(len(text))
        if i >= len(decoded.symbols) or decoded.symbols[i] != text[i]
    )
    return SimulatedMessage(
        text=text,
        sent_bits=bits,
        slot_counts=tuple(int(c) for c in counts),
        detected_bits=detected,
        corrected_bits=corrected,
        decoded=decoded,
        char_errors=errors,
    )


class _Automaton:
    """Codeword trie as flat transition tables for the array decoder.

    State 0 is the root; the extra absorbing state (index dead) is entered
    on any bit with no trie edge, which models the sequential decoder
    stopping at a dead end. The flat tables are indexed by 3 * state +
    input, where input is a bit or _PAST_END for a slot after the message,
    which keeps the state and emits nothing. next_at holds 3 * the next
    state; emit holds the decoded symbol index when the edge completes a
    codeword, else -1.
    """

    def __init__(self, cb: Codebook, symbols: Sequence[str]):
        order = {s: i for i, s in enumerate(symbols)}
        children: list[list[int]] = [[-1, -1]]
        leaf: list[list[int]] = [[-1, -1]]
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
        self.dead = n
        nxt = np.full((n + 1, 3), self.dead, dtype=np.int64)
        nxt[:, _PAST_END] = np.arange(n + 1)
        self.emit = np.full((n + 1, 3), -1, dtype=np.int16)
        for s in range(n):
            for b in (0, 1):
                if leaf[s][b] >= 0:
                    nxt[s, b] = 0
                    self.emit[s, b] = leaf[s][b]
                elif children[s][b] >= 0:
                    nxt[s, b] = children[s][b]
        self.next_at = (3 * nxt).ravel()
        self.emit = self.emit.ravel()


class _Tables:
    """Per-codebook constants shared by all chunks of a run."""

    def __init__(self, cfg: LinkConfig):
        dist = cfg.distribution
        self.words = [cfg.codebook.codewords[s] for s in dist.symbols]
        self.probs = np.asarray(dist.probs)
        self.word_len = np.array([len(w) for w in self.words], dtype=np.int64)
        self.word_flat = np.array(
            [int(b) for w in self.words for b in w], dtype=np.int8
        )
        self.word_off = np.zeros(len(self.words), dtype=np.int64)
        np.cumsum(self.word_len[:-1], out=self.word_off[1:])
        self.automaton = _Automaton(cfg.codebook, dist.symbols)
        self.correct = cfg.codebook.kind == "proposed"


def _excl_cumsum(a: np.ndarray) -> np.ndarray:
    out = np.zeros(len(a), dtype=np.int64)
    np.cumsum(a[:-1], out=out[1:])
    return out


def _sample_bits(tables: _Tables, trials: int, msg_len: int, rng: np.random.Generator):
    """Draw messages and lay their codewords into a padded bit matrix."""
    syms = rng.choice(len(tables.words), size=trials * msg_len, p=tables.probs)
    syms = syms.reshape(trials, msg_len)
    reps = tables.word_len[syms.ravel()]
    tlen = reps.reshape(trials, msg_len).sum(axis=1)
    total = int(reps.sum())
    in_word = np.arange(total, dtype=np.int64) - np.repeat(_excl_cumsum(reps), reps)
    flat_bits = tables.word_flat[np.repeat(tables.word_off[syms.ravel()], reps) + in_word]

    max_t = int(tlen.max())
    row = np.repeat(np.arange(trials, dtype=np.int64), tlen)
    col = np.arange(total, dtype=np.int64) - np.repeat(_excl_cumsum(tlen), tlen)
    bitmat = np.zeros((trials, max_t), dtype=np.int8)
    bitmat[row, col] = flat_bits
    return syms, tlen, bitmat


def _accumulate_counts(bitmat, tlen, cfg: LinkConfig, rng) -> np.ndarray:
    """Superpose the arrival spreads of every bit-1 release into slot counts.

    Releases are taken in row-major order, one arrival row each. Counts
    are exact int32 sums of integer arrivals (LinkConfig bounds them below
    the int32 limit). The count matrix carries memory - 1 spare columns, so
    a window that runs past max_t spills there instead of being masked, and
    each lag k is one fancy-index add at the release columns shifted by k:
    within one lag every (row, column) pair occurs at most once, so the add
    is exact. Returns a (trials, max_t) view without the spare columns.
    """
    trials, max_t = bitmat.shape
    spare = cfg.profile.memory - 1
    counts = np.zeros((trials, max_t + spare), dtype=np.int32)
    where = np.flatnonzero(bitmat)
    if where.size:
        arrivals = sample_arrivals(
            cfg.molecules_per_one, cfg.profile.coefficients, rng, size=where.size
        )
        where += where // max_t * spare
        flat = counts.reshape(-1)
        for k in range(cfg.profile.memory):
            flat[where] += arrivals[:, k]
            where += 1
    return counts[:, :max_t]


def _correct_rows(det: np.ndarray) -> np.ndarray:
    """Row-wise sequential error correction of a 0/1 matrix."""
    out = np.empty_like(det)
    prev = np.zeros(det.shape[0], dtype=det.dtype)
    for t in range(det.shape[1]):
        cur = det[:, t] & (1 - prev)
        out[:, t] = cur
        prev = cur
    return out


def _decode_rows(final: np.ndarray, tlen: np.ndarray, syms: np.ndarray, auto: _Automaton):
    """Walk the trie automaton along every row and score it against syms.

    Returns per-row character errors (positions among the first msg_len
    whose decoded symbol differs from the sent one or is missing), the
    number of decoded symbols and the dead-end and incomplete-tail flags.
    """
    trials, max_t = final.shape
    msg_len = syms.shape[1]
    inputs = np.where(np.arange(max_t) < tlen[:, None], final, _PAST_END)
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
        sym = auto.emit[edge]
        at = auto.next_at[edge]
        matches += sym == sent[base + np.minimum(decoded, msg_len)]
        decoded += sym >= 0
    state = at // 3
    dead = state == auto.dead
    incomplete = (~dead) & (state != 0)
    return msg_len - matches, decoded, dead, incomplete


def _count_cut(tau: float) -> int:
    """Smallest integer slot count that reads as 1 under threshold tau.

    Slot counts are integers, so count >= tau and count >= ceil(tau) read
    the same bits. Thresholds beyond the int32 range clamp to its top,
    which no count reaches (LinkConfig keeps every count below it).
    """
    return _COUNT_LIMIT if tau >= _COUNT_LIMIT else math.ceil(tau)


def _read_bits(counts: np.ndarray, cut: int, tables: _Tables) -> np.ndarray:
    """Read counts >= cut as bits, then correct them if the kind is corrected."""
    det = (counts >= cut).view(np.int8)
    return _correct_rows(det) if tables.correct else det


def _run_chunk(cfg: LinkConfig, tables: _Tables, trials: int, tau: float, seed_tuple):
    """Simulate, detect, correct, decode and score one chunk of trials."""
    rng = np.random.default_rng(np.random.SeedSequence(seed_tuple))
    syms, tlen, bitmat = _sample_bits(tables, trials, cfg.msg_len, rng)
    counts = _accumulate_counts(bitmat, tlen, cfg, rng)
    final = _read_bits(counts, _count_cut(tau), tables)
    err_per_trial, dec_len, dead, incomplete = _decode_rows(
        final, tlen, syms, tables.automaton
    )
    sum_err = int(err_per_trial.sum())
    sum_err_sq = int((err_per_trial ** 2).sum())

    max_t = bitmat.shape[1]
    valid = np.arange(max_t)[None, :] < tlen[:, None]
    # Padding after a message is 0 in bitmat but may read 1 in final.
    slots = int(tlen.sum())
    sent_ones = int(np.count_nonzero(bitmat))
    read_ones = int(np.count_nonzero(final & valid))
    kept_ones = int(np.count_nonzero(bitmat & final))
    bit_counts = [
        slots - sent_ones - read_ones + kept_ones,
        read_ones - kept_ones,
        sent_ones - kept_ones,
        kept_ones,
    ]

    sent, got = bitmat, final
    ctx100 = (sent[:, :-2] == 1) & (sent[:, 1:-1] == 0) & (sent[:, 2:] == 0) & valid[:, 2:]
    ctx100_err = ctx100 & (got[:, 2:] == 1)
    ctx_x01 = (sent[:, :-1] == 0) & (sent[:, 1:] == 1) & valid[:, 1:]
    ctx_x01_err = ctx_x01 & (got[:, 1:] == 0)

    return {
        "trials": trials,
        "sum_err": sum_err,
        "sum_err_sq": sum_err_sq,
        "bits": bit_counts,
        "ctx_100": int(ctx100.sum()),
        "ctx_100_err": int(ctx100_err.sum()),
        "ctx_x01": int(ctx_x01.sum()),
        "ctx_x01_err": int(ctx_x01_err.sum()),
        "dead_end": int(dead.sum()),
        "incomplete_tail": int(incomplete.sum()),
        "decoded_overflow": int((dec_len > cfg.msg_len).sum()),
    }


def resolve_threshold(cfg: LinkConfig, master_seed: int) -> tuple[float, str]:
    """Turn the configured threshold strategy into a number.

    Pilot and calibration randomness comes from dedicated substreams of
    master_seed, so resolving never perturbs the main simulation stream.
    """
    strat = cfg.threshold
    if isinstance(strat, ConstantThreshold):
        return strat.tau, "constant"
    if isinstance(strat, PilotThreshold):
        stats = codec.collect_pilot_stats(
            cfg.codebook,
            cfg.profile,
            cfg.molecules_per_one,
            master_seed,
            repetitions=strat.repetitions,
            drop_first_slot=strat.drop_first_slot,
        )
        return stats.tau, "pilot"
    if isinstance(strat, CalibratedThreshold):
        return _calibrate_threshold(cfg, strat, master_seed), "calibrated"
    raise TypeError(f"unknown threshold strategy {strat!r}")


def _thread_count(threads: int | None) -> int:
    """Worker threads: threads if given, else MOLCODE_THREADS, else 1.

    A count below 1 or a MOLCODE_THREADS that is not an integer is a
    configuration mistake and raises ValueError.
    """
    if threads is None:
        env = os.environ.get("MOLCODE_THREADS", "").strip()
        if not env:
            return 1
        try:
            threads = int(env)
        except ValueError:
            raise ValueError(
                f"MOLCODE_THREADS must be a positive integer, got {env!r}"
            ) from None
    if threads < 1:
        raise ValueError(f"thread count must be at least 1, got {threads!r}")
    return int(threads)


def run_cer(cfg: LinkConfig, threads: int | None = None) -> CerReport:
    """Estimate the character error rate of a link over random messages.

    Runs cfg.trials messages seeded from cfg.master_seed. threads defaults
    to the MOLCODE_THREADS environment variable (1 when unset); the result
    is bit-identical for any thread count.
    """
    trials = cfg.trials
    master_seed = cfg.master_seed
    tau, origin = resolve_threshold(cfg, master_seed)
    tables = _Tables(cfg)
    sizes = [CHUNK_TRIALS] * (trials // CHUNK_TRIALS)
    if trials % CHUNK_TRIALS:
        sizes.append(trials % CHUNK_TRIALS)

    def work(item):
        index, size = item
        return _run_chunk(cfg, tables, size, tau, (master_seed, _MAIN_TAG, index))

    jobs = list(enumerate(sizes))
    n_threads = _thread_count(threads)
    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            parts = list(pool.map(work, jobs))
    else:
        parts = [work(j) for j in jobs]

    sum_err = sum(p["sum_err"] for p in parts)
    sum_err_sq = sum(p["sum_err_sq"] for p in parts)
    chars = trials * cfg.msg_len
    cer = sum_err / chars
    mean_e = sum_err / trials
    var_e = max(sum_err_sq / trials - mean_e ** 2, 0.0)
    stderr = (var_e / trials) ** 0.5 / cfg.msg_len
    bits = [sum(p["bits"][i] for p in parts) for i in range(4)]
    ctx = {
        key: sum(p[key] for p in parts)
        for key in ("ctx_100", "ctx_100_err", "ctx_x01", "ctx_x01_err")
    }
    anomalies = {
        key: sum(p[key] for p in parts)
        for key in ("dead_end", "incomplete_tail", "decoded_overflow")
    }
    return CerReport(
        cer=cer,
        cer_stderr=stderr,
        char_errors=sum_err,
        chars=chars,
        trials=trials,
        tau=tau,
        threshold_origin=origin,
        master_seed=master_seed,
        bit_counts={"00": bits[0], "01": bits[1], "10": bits[2], "11": bits[3]},
        context_counts=ctx,
        context_rates={
            "one_given_100": ctx["ctx_100_err"] / ctx["ctx_100"] if ctx["ctx_100"] else 0.0,
            "zero_given_x01": ctx["ctx_x01_err"] / ctx["ctx_x01"] if ctx["ctx_x01"] else 0.0,
        },
        anomalies=anomalies,
        config=cfg,
    )


def _default_candidates(cfg: LinkConfig) -> tuple[float, ...]:
    # The natural threshold scale is the expected first-slot signal; the
    # floor keeps the grid valid for the zero-budget baseline link.
    scale = max(cfg.molecules_per_one * cfg.profile.coefficients[0], 1.0)
    return tuple(scale * f for f in np.linspace(0.05, 1.2, 24))


def _calibrate_threshold(
    cfg: LinkConfig, strategy: CalibratedThreshold, master_seed: int
) -> float:
    """Candidate tau with the fewest character errors on one shared batch.

    Candidates that share an integer count cut ceil(tau) read identical
    bits, so each distinct cut is scored once per batch chunk and its error
    count is credited to all of its candidates. Scoring counts character
    errors only (detect, correct, decode, compare with the sent symbols).
    The fewest errors win; ties go to the smaller tau.
    """
    candidates = strategy.candidates or _default_candidates(cfg)
    tables = _Tables(cfg)
    cut_errors = dict.fromkeys(map(_count_cut, candidates), 0)
    remaining = strategy.messages
    index = 0
    while remaining > 0:
        size = min(CHUNK_TRIALS, remaining)
        rng = np.random.default_rng(
            np.random.SeedSequence((master_seed, _CAL_TAG, index))
        )
        syms, tlen, bitmat = _sample_bits(tables, size, cfg.msg_len, rng)
        counts = _accumulate_counts(bitmat, tlen, cfg, rng)
        for cut in cut_errors:
            final = _read_bits(counts, cut, tables)
            cut_errors[cut] += int(_decode_rows(final, tlen, syms, tables.automaton)[0].sum())
        remaining -= size
        index += 1
    return float(min(candidates, key=lambda tau: (cut_errors[_count_cut(tau)], tau)))


def sweep(
    dist: CharacterDistribution,
    params: ChannelParams,
    budgets: Iterable[float],
    trials: int,
    master_seed: int,
    kinds: Sequence[str] = ("huffman", "proposed", "ita2"),
    chars_per_second: float = 2.0,
    msg_len: int = 10,
    memory: int = 10,
    thresholds: dict[str, ThresholdStrategy] | None = None,
    threads: int | None = None,
    progress=None,
) -> list[dict]:
    """Character error rate across codebooks at equal molecules per character.

    budgets are expected molecule counts per transmitted character; each
    codebook's bit-1 budget is budget / E[ones](kind) rounded, the same
    equalization as fair_budgets. All kinds also share the character rate,
    so rows with equal budget are directly comparable. By default the
    run-length-limited kind resolves its threshold from pilots and the
    conventional kinds calibrate a fixed threshold on a training batch.

    Returns one row dict per (kind, budget); a row whose threshold cannot
    be resolved (a CalibrationError, for example pilots that cannot
    separate signal from interference at a tiny budget) carries an error
    tag instead of a CER. Configuration mistakes, such as an unknown kind
    or a bad thread count, raise ValueError before any row is simulated.
    progress, when given, is called with each finished row.
    """
    builders = {"huffman": build_huffman, "proposed": build_proposed, "ita2": lambda d: ita2()}
    for kind in kinds:
        if kind not in builders:
            raise ValueError(f"unknown codebook kind {kind!r}")
    n_threads = _thread_count(threads)
    if thresholds is None:
        thresholds = {}
    default_thresholds: dict[str, ThresholdStrategy] = {
        "huffman": CalibratedThreshold(),
        "proposed": PilotThreshold(),
        "ita2": CalibratedThreshold(),
    }

    rows: list[dict] = []
    for kind in kinds:
        cb = builders[kind](dist)
        strategy = thresholds.get(kind, default_thresholds[kind])
        for budget in budgets:
            cfg = LinkConfig.build(
                codebook=cb,
                distribution=dist,
                params=params,
                molecules_per_one=_budget_share(dist, cb, budget),
                char_duration=1.0 / chars_per_second,
                threshold=strategy,
                msg_len=msg_len,
                memory=memory,
                trials=trials,
                master_seed=master_seed,
            )
            row = {
                "codebook": kind,
                "molecules_per_char": float(budget),
                "N_bit1": cfg.molecules_per_one,
                "t_s": cfg.profile.slot,
                "trials": trials,
                "seed": master_seed,
            }
            try:
                report = run_cer(cfg, threads=n_threads)
            except CalibrationError as exc:
                row.update(tau=None, cer=None, cer_stderr=None,
                           error=f"uncalibratable: {exc}")
            else:
                row.update(tau=report.tau, cer=report.cer,
                           cer_stderr=report.cer_stderr, error=None)
            rows.append(row)
            if progress is not None:
                progress(row)
    return rows
