"""Monte Carlo character-error-rate simulation of a slotted molecular link.

Each trial transmits one message of independently drawn characters. Every
bit-1 slot releases a fixed molecule budget whose arrivals spread over the
channel memory window. This module draws every random stream (messages,
arrivals, pilots) and hands the slot counts to the receiver in codec.
Messages and arrivals are drawn by _inversion, exactly as rng.choice and
rng.binomial draw them, and the messages are laid by their ones straight
into release positions, where each slot's arrivals are added.
codec._read_bits reads the counts into bits, error corrected for a
corrected kind, and codec._decode_rows parses them back into characters
and scores them positionally against the sent message; only _run_chunk
puts the sent bits together, from the release positions, to count bit
errors. A LinkConfig describes one link and derives its slot and
coefficients.

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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from . import codec
from .channel import ChannelParams, channel_coefficients
from .codebooks import (
    KINDS,
    CharacterDistribution,
    Codebook,
    build,
    expected_length,
    expected_ones,
)
from .codec import (
    _COUNT_LIMIT,
    CalibratedThreshold,
    CalibrationError,
    ConstantThreshold,
    PilotThreshold,
    ThresholdStrategy,
    _check_integer,
    _check_positive,
    _count_cut,
    _decode_rows,
    _read_bits,
)

if TYPE_CHECKING:
    from ._inversion import Table

__all__ = [
    "CHUNK_TRIALS",
    "LinkConfig",
    "CerReport",
    "slot_length",
    "sample_arrivals",
    "resolve_threshold",
    "run_cer",
    "sweep",
]

#: Trials per deterministic chunk; part of the reproducibility contract.
CHUNK_TRIALS = 8192

_MAIN_TAG = 0xC0DE
_CAL_TAG = 0xCA1
_PILOT_TAG = 0x9110_07
#: Symbols of rows scored at a time, about 2**20 slots at msg_len 200;
#: a chunk of 8192 messages of 10 symbols is one block.
_SCORE_BLOCK = 1 << 17


def slot_length(codebook: Codebook, distribution: CharacterDistribution,
                char_duration: float) -> float:
    """The slot that sends one character per char_duration on average:
    char_duration over the expected codeword length."""
    return char_duration / expected_length(codebook, distribution)


@dataclass(frozen=True)
class LinkConfig:
    """Everything needed to simulate one codebook on one channel.

    slot and coefficients are derived when the config is built. The slot
    is slot_length(codebook, distribution, char_duration), so every
    codebook transmits characters at the same average rate regardless of
    its bit count; the coefficients are the per-slot arrival probabilities
    a_1..a_memory of params at that slot. A zero molecule budget is allowed
    and gives the all-silent baseline link. The counts molecules_per_one,
    msg_len, memory, trials and master_seed must be integers (not bools);
    anything else, or a value below its floor, raises ValueError, as does
    a char_duration that is not a positive, finite real.
    """

    codebook: Codebook
    distribution: CharacterDistribution
    params: ChannelParams
    molecules_per_one: int
    char_duration: float
    threshold: ThresholdStrategy
    msg_len: int = 10
    memory: int = 10
    trials: int = 100_000
    master_seed: int = 0
    slot: float = field(init=False, repr=False, compare=False)
    coefficients: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, least in (("molecules_per_one", 0), ("msg_len", 1), ("memory", 1),
                            ("trials", 1), ("master_seed", 0)):
            _check_integer(name, getattr(self, name), least)
        _check_positive("char_duration", self.char_duration)
        if self.molecules_per_one * self.memory >= _COUNT_LIMIT:
            raise ValueError(
                "molecule budget too large: slot counts must stay below 2**31 - 1"
            )
        slot = slot_length(self.codebook, self.distribution, self.char_duration)
        object.__setattr__(self, "slot", slot)
        object.__setattr__(self, "coefficients",
                           channel_coefficients(self.params, slot, self.memory))

    @classmethod
    def build(cls, **fields) -> "LinkConfig":
        """LinkConfig(**fields), under the name existing callers use.

        build once derived the slot and coefficients that the constructor
        now derives itself; it stays so keyword callers keep working.
        """
        return cls(**fields)


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


def _budget_share(dist: CharacterDistribution, cb: Codebook, molecules_per_char: float) -> int:
    """Bit-1 budget that spends molecules_per_char on average per character."""
    if not (math.isfinite(molecules_per_char) and molecules_per_char >= 0):
        raise ValueError(
            "a molecule budget must be a finite, non-negative number, "
            f"got {molecules_per_char!r}"
        )
    return int(round(molecules_per_char / expected_ones(cb, dist)))


def sample_arrivals(
    molecules: int,
    coefficients: Sequence[float],
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Arrival counts per memory slot for size independent releases of molecules.

    Sampling is sequential binomial over the slots: conditioned on what
    already arrived, the count of slot k is binomial out of the remaining
    molecules with the renormalized slot probability. The marginal of each
    slot count is Binomial(molecules, a_k) and the total never exceeds the
    release. Returns an array of shape (size, memory); counts are int32
    unless molecules exceeds the int32 range.

    The draws are those of rng.binomial(remaining, p) slot by slot, bit for
    bit, and leave rng in the same state. Where numpy samples by inversion
    (p <= 0.5, molecules * p <= 30) and molecules <= 255, the counts are
    read from exact tables of numpy's inversion walk, built on first use
    per link; any other slot, and a slot where numpy would redraw, calls
    rng.binomial itself.

    The result stacks the columns the simulator streams one at a time: it
    is the transpose of a slot-major (memory, size) array, each of whose
    rows is one slot's draws.
    """
    from . import _inversion  # compiled on first use, not by every import

    columns = _inversion.arrival_columns(molecules, coefficients, rng, size)
    out = np.empty((len(coefficients), size), dtype=_inversion.count_dtype(molecules))
    for row, column in zip(out, columns):
        row[:] = column
    return out.T


def _symbol_guide(cfg: LinkConfig) -> Table:
    """The table that draws symbol indices of cfg.codebook.symbols."""
    from . import _inversion

    return _inversion.symbol_table([cfg.distribution.prob(s) for s in cfg.codebook.symbols])


def _release_matrix(shape: tuple[int, int], cfg: LinkConfig, dtype) -> tuple:
    """A zero matrix of dtype in the stride max_t + memory - 1 of the
    release positions, so a window that runs past max_t spills into spare
    columns instead of being masked: returns it flat and as a (trials,
    max_t) view.
    """
    trials, max_t = shape
    full = np.zeros((trials, max_t + cfg.memory - 1), dtype=dtype)
    return full.reshape(-1), full[:, :max_t]


def _accumulate_counts(where: np.ndarray, shape: tuple[int, int], cfg: LinkConfig,
                       rng) -> np.ndarray:
    """Superpose the arrival spreads of every bit-1 release into slot counts.

    where holds the release positions, flat indices into a _release_matrix
    of shape (trials, max_t), whose view is returned. Counts are exact
    sums of integer arrivals in the narrowest unsigned dtype that holds
    molecules_per_one * memory: a slot counts the arrivals of at most
    memory releases, one per lag, each of at most molecules_per_one.
    Each slot's arrival column is drawn in that dtype too, so np.add.at
    stays on numpy's loop for one dtype (a column of another dtype took
    over ten times as long), and added as soon as it is drawn, at where in
    a view of the flat counts that starts lag slots in, so no (memory,
    releases) array is ever held and where is left as it was.
    """
    from . import _inversion

    dtype = np.min_scalar_type(cfg.molecules_per_one * cfg.memory)
    flat, counts = _release_matrix(shape, cfg, dtype)
    if where.size:
        for lag, column in enumerate(_inversion.arrival_columns(
                cfg.molecules_per_one, cfg.coefficients, rng, where.size, dtype)):
            np.add.at(flat[lag:], where, column)
    return counts


def _draw_chunk(cfg: LinkConfig, guide: Table, trials: int, seed_tuple):
    """The messages and slot counts of one chunk, drawn from its own stream.

    The generator is seeded by seed_tuple, and it draws the messages
    first and the arrivals of their releases second; that order is part
    of the determinism contract. The symbols are guide.draw's, which are
    rng.choice's, laid by their ones with CodeTables.lay_ones. Returns
    (syms, tlen, where, counts), where being the release positions.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed_tuple))
    syms = guide.draw(rng, trials * cfg.msg_len).reshape(trials, cfg.msg_len)
    tlen, where = cfg.codebook.tables.lay_ones(syms, cfg.memory - 1)
    counts = _accumulate_counts(where, (trials, int(tlen.max())), cfg, rng)
    return syms, tlen, where, counts


def _score_rows(sent: np.ndarray, final: np.ndarray, tlen: np.ndarray) -> list[int]:
    """Read ones, kept ones and the two contexts' counts and errors of rows.

    sent and final are bool matrices of the same shape, and tlen holds
    the rows' message lengths. Returns [read_ones, kept_ones, ctx_100,
    ctx_100_err, ctx_x01, ctx_x01_err].
    """
    # Padding after a message is 0 in sent but may read 1 in final.
    valid = np.arange(final.shape[1]) < tlen[:, None]
    ctx100 = sent[:, :-2] & ~sent[:, 1:-1] & ~sent[:, 2:] & valid[:, 2:]
    # A sent 1 lies inside its message, so ctx_x01 needs no valid term.
    ctx_x01 = ~sent[:, :-1] & sent[:, 1:]
    return [int(np.count_nonzero(mask)) for mask in (
        final & valid, sent & final,
        ctx100, ctx100 & final[:, 2:], ctx_x01, ctx_x01 & ~final[:, 1:])]


def _run_chunk(cfg: LinkConfig, guide: Table, trials: int, tau: float,
               seed_tuple):
    """Simulate, read, decode and score one chunk of trials.

    The chunk's counts are read by codec._read_bits at tau's count cut,
    correction included, and decoded by codec._decode_rows; the sent bits
    are put from the release positions once the counts are freed, and
    scored _SCORE_BLOCK symbols of rows at a time, so the masks of the
    scoring are one block's. Returns the chunk's integer totals under
    their CerReport names, and the sum and sum of squares of its
    per-trial character errors.
    """
    syms, tlen, where, counts = _draw_chunk(cfg, guide, trials, seed_tuple)
    final = _read_bits(counts, _count_cut(tau), cfg.codebook.corrected).view(bool)
    del counts
    err_per_trial, dec_len, dead, incomplete = _decode_rows(final, tlen, syms,
                                                            cfg.codebook.tables)

    flat, sent = _release_matrix(final.shape, cfg, bool)
    flat.put(where, True)
    rows = max(1, _SCORE_BLOCK // cfg.msg_len)
    blocks = [_score_rows(sent[a:a + rows], final[a:a + rows], tlen[a:a + rows])
              for a in range(0, trials, rows)]
    read_ones, kept_ones, ctx100, ctx100_err, ctx_x01, ctx_x01_err = map(sum, zip(*blocks))
    slots = int(tlen.sum())
    sent_ones = where.size
    return {
        "00": slots - sent_ones - read_ones + kept_ones,
        "01": read_ones - kept_ones,
        "10": sent_ones - kept_ones,
        "11": kept_ones,
        "ctx_100": ctx100,
        "ctx_100_err": ctx100_err,
        "ctx_x01": ctx_x01,
        "ctx_x01_err": ctx_x01_err,
        "dead_end": int(dead.sum()),
        "incomplete_tail": int(incomplete.sum()),
        "decoded_overflow": int((dec_len > cfg.msg_len).sum()),
        "sum_err": int(err_per_trial.sum()),
        "sum_err_sq": int((err_per_trial ** 2).sum()),
    }


def _pilot_counts(cb: Codebook, coefficients: Sequence[float], molecules: int,
                  master_seed: int, repetitions: int) -> dict[str, np.ndarray]:
    """Per-slot counts of repetitions pilots of every codeword of cb.

    A pilot sends one codeword alone: every bit-1 releases molecules, and
    arrivals past the end of the codeword are dropped. Returns one
    (repetitions, codeword length) array per symbol, in cb.codewords order.
    """
    rng = np.random.default_rng(np.random.SeedSequence((master_seed, _PILOT_TAG)))
    memory = len(coefficients)
    out = {}
    for sym, word in cb.codewords.items():
        counts = out[sym] = np.zeros((repetitions, len(word)), dtype=np.int64)
        for i in [i for i, bit in enumerate(word) if bit == "1"]:
            arrivals = sample_arrivals(molecules, coefficients, rng, size=repetitions)
            keep = min(memory, len(word) - i)
            counts[:, i:i + keep] += arrivals[:, :keep]
    return out


def resolve_threshold(cfg: LinkConfig, master_seed: int) -> tuple[float, str]:
    """Turn the configured threshold strategy into a number.

    Pilot and calibration randomness comes from dedicated substreams of
    master_seed, so resolving never perturbs the main simulation stream;
    codec.collect_pilot_stats reads the pilots _pilot_counts sends.
    """
    strat = cfg.threshold
    if isinstance(strat, ConstantThreshold):
        return strat.tau, "constant"
    if isinstance(strat, PilotThreshold):
        counts = _pilot_counts(cfg.codebook, cfg.coefficients, cfg.molecules_per_one,
                               master_seed, strat.repetitions)
        stats = codec.collect_pilot_stats(cfg.codebook, counts, cfg.molecules_per_one)
        return stats.tau, "pilot"
    if isinstance(strat, CalibratedThreshold):
        return _calibrate_threshold(cfg, strat, master_seed), "calibrated"
    raise TypeError(f"unknown threshold strategy {strat!r}")


def _thread_count(threads: int | None) -> int:
    """Worker threads: threads if given, else the available cores.

    The cores are those this process may run on (os.sched_getaffinity),
    or os.cpu_count() where that is unavailable, or 1 where neither is
    known. A count that is not an integer, or is a bool or below 1, is a
    configuration mistake and raises ValueError.
    """
    if threads is None:
        try:
            return len(os.sched_getaffinity(0))
        except AttributeError:
            return os.cpu_count() or 1
    _check_integer("thread count", threads, 1)
    return int(threads)


def _chunk_sizes(trials: int) -> list[int]:
    """trials split into chunks of CHUNK_TRIALS, the remainder last."""
    whole, rest = divmod(trials, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * whole + ([rest] if rest else [])


def _map_in_order(fn, items: list, workers: int, each=None) -> list:
    """[fn(item) for item in items], on up to workers threads.

    Starts no pool when one thread would do. each, when given, is called
    with every result in item order, as soon as it and all results before
    it are in. If fn or each raises, the items not yet started are
    cancelled and the exception propagates once the running ones finish.
    """
    workers = min(workers, len(items))
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    results = []
    try:
        for result in pool.map(fn, items) if pool else map(fn, items):
            results.append(result)
            if each is not None:
                each(result)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return results


def _build_link_tables(cfg: LinkConfig) -> None:
    """Build the cached tables a link's chunks read, before any chunk runs.

    These are the codebook's step table and the link's inversion tables.
    They live as long as their caches, so building them while no chunk
    array exists keeps them from pinning the heap above a chunk's peak.
    """
    cfg.codebook.tables.steps
    from . import _inversion

    _inversion.link_tables(cfg.molecules_per_one, cfg.coefficients)


def run_cer(cfg: LinkConfig, threads: int | None = None) -> CerReport:
    """Estimate the character error rate of a link over random messages.

    Runs cfg.trials messages seeded from cfg.master_seed on up to threads
    worker threads, one chunk each; threads defaults to the available
    cores. The result is bit-identical for any thread count.
    """
    n_threads = _thread_count(threads)
    trials = cfg.trials
    master_seed = cfg.master_seed
    _build_link_tables(cfg)
    tau, origin = resolve_threshold(cfg, master_seed)
    guide = _symbol_guide(cfg)

    def work(item):
        index, size = item
        return _run_chunk(cfg, guide, size, tau, (master_seed, _MAIN_TAG, index))

    parts = _map_in_order(work, list(enumerate(_chunk_sizes(trials))), n_threads)

    total = {key: sum(p[key] for p in parts) for key in parts[0]}
    sum_err = total["sum_err"]
    chars = trials * cfg.msg_len
    cer = sum_err / chars
    mean_e = sum_err / trials
    var_e = max(total["sum_err_sq"] / trials - mean_e ** 2, 0.0)
    stderr = (var_e / trials) ** 0.5 / cfg.msg_len
    ctx = {key: total[key] for key in ("ctx_100", "ctx_100_err", "ctx_x01", "ctx_x01_err")}
    return CerReport(
        cer=cer,
        cer_stderr=stderr,
        char_errors=sum_err,
        chars=chars,
        trials=trials,
        tau=tau,
        threshold_origin=origin,
        master_seed=master_seed,
        bit_counts={key: total[key] for key in ("00", "01", "10", "11")},
        context_counts=ctx,
        context_rates={
            "one_given_100": ctx["ctx_100_err"] / ctx["ctx_100"] if ctx["ctx_100"] else 0.0,
            "zero_given_x01": ctx["ctx_x01_err"] / ctx["ctx_x01"] if ctx["ctx_x01"] else 0.0,
        },
        anomalies={key: total[key]
                   for key in ("dead_end", "incomplete_tail", "decoded_overflow")},
        config=cfg,
    )


def _default_candidates(cfg: LinkConfig) -> tuple[float, ...]:
    # The natural threshold scale is the expected first-slot signal; the
    # floor keeps the grid valid for the zero-budget baseline link.
    scale = max(cfg.molecules_per_one * cfg.coefficients[0], 1.0)
    return tuple(scale * f for f in np.linspace(0.05, 1.2, 24))


def _calibrate_threshold(
    cfg: LinkConfig, strategy: CalibratedThreshold, master_seed: int
) -> float:
    """Candidate tau with the fewest character errors on one shared batch.

    Candidates that share an integer count cut ceil(tau) read identical
    bits, so each distinct cut is scored once per batch chunk and its error
    count is credited to all of its candidates. Scoring counts character
    errors only: each cut reads the batch through codec._read_bits, with
    the same correction as run_cer, and codec._decode_rows compares the
    decoded symbols with the sent ones.
    The fewest errors win; ties go to the smaller tau.
    """
    candidates = strategy.candidates or _default_candidates(cfg)
    tables = cfg.codebook.tables
    guide = _symbol_guide(cfg)
    cut_errors = dict.fromkeys(map(_count_cut, candidates), 0)
    for index, size in enumerate(_chunk_sizes(strategy.messages)):
        syms, tlen, _, counts = _draw_chunk(cfg, guide, size, (master_seed, _CAL_TAG, index))
        for cut in cut_errors:
            final = _read_bits(counts, cut, cfg.codebook.corrected)
            cut_errors[cut] += int(_decode_rows(final, tlen, syms, tables)[0].sum())
    return float(min(candidates, key=lambda tau: (cut_errors[_count_cut(tau)], tau)))


def sweep(
    dist: CharacterDistribution,
    params: ChannelParams,
    budgets: Iterable[float],
    trials: int,
    master_seed: int,
    kinds: Sequence[str] = KINDS,
    char_duration: float = 0.5,
    msg_len: int = 10,
    memory: int = 10,
    threads: int | None = None,
    progress=None,
) -> list[dict]:
    """Character error rate across codebooks at equal molecules per character.

    budgets are expected molecule counts per transmitted character; each
    codebook's bit-1 budget is budget / E[ones](kind) rounded, so every kind
    spends the same expected molecule count per character. All kinds also
    share the character duration char_duration (seconds), so rows with
    equal budget are directly comparable. A corrected codebook resolves
    its threshold from pilots and any other calibrates a fixed threshold
    on a training batch.

    Returns one row dict per (kind, budget), kinds outer and budgets inner;
    a row whose threshold cannot be resolved (a CalibrationError, for
    example pilots that cannot separate signal from interference at a tiny
    budget) carries an error tag instead of a CER. Configuration mistakes,
    such as no kinds or no budgets, an unknown or repeated kind, a
    repeated or negative budget, a budget whose counts could overflow, or
    a bad thread count, raise ValueError before any row is simulated.

    Rows run concurrently: min(threads, rows) of them at a time, each on
    threads // rows (at least 1) threads of its own, so one row's threshold
    resolution overlaps another row's sampling. threads defaults as in
    run_cer. Every row is bit-identical for any thread count. progress,
    when given, is called with each finished row, in row order.
    """
    budgets = list(budgets)
    for name, values in (("kind", kinds), ("budget", [float(b) for b in budgets])):
        if not values:
            raise ValueError(f"no {name}s given")
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ValueError(f"repeated {name}s: {', '.join(map(str, repeated))}")
    books = [build(kind, dist) for kind in kinds]
    n_threads = _thread_count(threads)
    grid = [
        (kind, budget, LinkConfig(
            codebook=cb,
            distribution=dist,
            params=params,
            molecules_per_one=_budget_share(dist, cb, budget),
            char_duration=char_duration,
            threshold=PilotThreshold() if cb.corrected else CalibratedThreshold(),
            msg_len=msg_len,
            memory=memory,
            trials=trials,
            master_seed=master_seed,
        ))
        for kind, cb in zip(kinds, books)
        for budget in budgets
    ]
    row_threads = max(1, n_threads // max(len(grid), 1))

    def run_row(item) -> dict:
        kind, budget, cfg = item
        row = {
            "codebook": kind,
            "molecules_per_char": float(budget),
            "N_bit1": cfg.molecules_per_one,
            "t_s": cfg.slot,
            "trials": trials,
            "seed": master_seed,
        }
        try:
            report = run_cer(cfg, threads=row_threads)
        except CalibrationError as exc:
            row.update(tau=None, cer=None, cer_stderr=None,
                       error=f"uncalibratable: {exc}")
        else:
            row.update(tau=report.tau, cer=report.cer,
                       cer_stderr=report.cer_stderr, error=None)
        return row

    return _map_in_order(run_row, grid, n_threads, each=progress)
