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
and scores them positionally against the sent message; only _link_totals
puts the sent bits together, from the release positions, to count bit
errors. A LinkConfig describes one link and derives its slot and
coefficients.

Determinism contract: trials are processed in fixed chunks of
CHUNK_TRIALS, and chunk c draws all of its randomness from a dedicated
generator seeded by (master_seed, stream tag, c): first the messages,
then the arrivals of their releases. Results are therefore bit-identical
for a given (master_seed, trials) no matter how many worker threads
process the chunks. Changing CHUNK_TRIALS changes the streams. Links that
differ only in molecules_per_one draw the same messages, so run_cer and
sweep run through one runner, _run_groups, that draws a chunk's messages
once for a group of such links and restores the generator state they
left before each link's arrivals; a link's results are those it has when
run alone.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import islice
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

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
#: Symbols of rows scored at a time, about 2**17 slots. Sized for cache and
#: page reuse, not for memory, as codebooks._LAY_BLOCK is: the masks of one
#: block stay in cache and reuse freed pages from block to block.
_SCORE_BLOCK = 1 << 14


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


def _read_width(max_t: int) -> int:
    """The slots a (trials, max_t) chunk is read over: max_t rounded up to
    whole bytes, so codec._decode_rows packs the read with no padded copy.
    Slots past a row's tlen are ignored by the decode and the scoring."""
    return -(-max_t // 8) * 8


def _release_matrix(shape: tuple[int, int], cfg: LinkConfig, dtype) -> tuple:
    """A zero matrix of dtype in the stride max_t + memory - 1 of the
    release positions, so a window that runs past max_t spills into spare
    columns instead of being masked: returns it flat and as a view of its
    first _read_width(max_t) columns, or all of them where memory < 8
    leaves the stride short of that width.
    """
    trials, max_t = shape
    full = np.zeros((trials, max_t + cfg.memory - 1), dtype=dtype)
    return full.reshape(-1), full[:, :_read_width(max_t)]


def _accumulate_counts(where: np.ndarray, shape: tuple[int, int], cfg: LinkConfig,
                       rng) -> np.ndarray:
    """Superpose the arrival spreads of every bit-1 release into slot counts.

    where holds the release positions, flat indices into a _release_matrix
    of shape (trials, max_t), whose view is returned: the counts over the
    read width. Counts are exact sums of integer arrivals in the narrowest
    unsigned dtype that holds molecules_per_one * memory: a slot counts
    the arrivals of at most memory releases, one per lag, each of at most
    molecules_per_one.
    Each slot's arrival column is drawn in that dtype too, so np.add.at
    stays on numpy's loop for one dtype (a column of another dtype took
    over ten times as long), and added as soon as it is drawn, at where in
    a view of the flat counts that starts lag slots in, so no (memory,
    releases) array is ever held and where is left as it was. int32
    positions np.add.at casts to intp through a small buffer on every
    call, which made its scatter 13-30 % slower than with int64 ones; see
    codebooks._position_dtype.
    """
    from . import _inversion

    dtype = np.min_scalar_type(cfg.molecules_per_one * cfg.memory)
    flat, counts = _release_matrix(shape, cfg, dtype)
    if where.size:
        for lag, column in enumerate(_inversion.arrival_columns(
                cfg.molecules_per_one, cfg.coefficients, rng, where.size, dtype)):
            np.add.at(flat[lag:], where, column)
    return counts


class _Messages:
    """One chunk's messages, laid, and the generator that drew them.

    where holds the release positions in a _release_matrix of shape
    (trials, max_t), and state is the generator's state right after the
    messages, where every link's arrivals start.
    """

    def __init__(self, syms: np.ndarray, tlen: np.ndarray, where: np.ndarray,
                 rng: np.random.Generator) -> None:
        self.syms, self.tlen, self.where, self.rng = syms, tlen, where, rng
        self.shape = (len(tlen), int(tlen.max()))
        self.state = rng.bit_generator.state

    def counts(self, cfg: LinkConfig) -> np.ndarray:
        """cfg's slot counts of these messages, drawn from state.

        Every link that differs only in molecules_per_one draws its
        arrivals from the same state, as it would right after drawing the
        same messages itself.
        """
        self.rng.bit_generator.state = self.state
        return _accumulate_counts(self.where, self.shape, cfg, self.rng)


def _draw_messages(cfg: LinkConfig, guide: Table, trials: int, seed_tuple) -> _Messages:
    """The messages of one chunk, drawn from its own stream.

    The generator is seeded by seed_tuple, and it draws the messages
    first and the arrivals of their releases second (_Messages.counts);
    that order is part of the determinism contract. The symbols are
    guide.draw's, which are rng.choice's, laid by their ones with
    CodeTables.lay_ones.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed_tuple))
    syms = guide.draw(rng, trials * cfg.msg_len).reshape(trials, cfg.msg_len)
    tlen, where = cfg.codebook.tables.lay_ones(syms, cfg.memory - 1)
    return _Messages(syms, tlen, where, rng)


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


def _run_chunk(links: Sequence[LinkConfig], taus: Sequence[float], guide: Table,
               trials: int, seed_tuple) -> list[dict]:
    """Simulate, read, decode and score one chunk of trials on every link.

    links differ only in molecules_per_one, so the chunk's messages are
    drawn once for all of them; each link then draws its own arrivals
    and is read at its tau by _link_totals. Returns each link's totals,
    in links order.
    """
    messages = _draw_messages(links[0], guide, trials, seed_tuple)
    return [_link_totals(cfg, tau, messages) for cfg, tau in zip(links, taus)]


def _link_totals(cfg: LinkConfig, tau: float, messages: _Messages) -> dict:
    """Read, decode and score one link's arrivals on a chunk's messages.

    The counts are read by codec._read_bits at tau's count cut,
    correction included, over the read width, and decoded by
    codec._decode_rows; the sent bits are set at the release positions
    once the counts are freed, by a fancy assignment (put took 1.6-3
    times as long, and copies int32 positions to intp), and
    scored _SCORE_BLOCK symbols of rows at a time, so the masks of the
    scoring are one block's. Every array is freed on return, before the
    next link's are drawn. Returns the chunk's integer totals under their
    CerReport names, and the sum and sum of squares of its per-trial
    character errors.
    """
    syms, tlen, where = messages.syms, messages.tlen, messages.where
    counts = messages.counts(cfg)
    final = _read_bits(counts, _count_cut(tau), cfg.codebook.corrected).view(bool)
    del counts
    err_per_trial, dec_len, dead, incomplete = _decode_rows(final, tlen, syms,
                                                            cfg.codebook.tables)

    flat, sent = _release_matrix(messages.shape, cfg, bool)
    flat[where] = True
    rows = max(1, _SCORE_BLOCK // cfg.msg_len)
    trials = len(tlen)
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
    The ones release in codebook order, then in word order, each with the
    draws of one sample_arrivals call of repetitions releases, made in
    batches by _inversion.arrival_groups.
    """
    from . import _inversion

    rng = np.random.default_rng(np.random.SeedSequence((master_seed, _PILOT_TAG)))
    memory = len(coefficients)
    out = {sym: np.zeros((repetitions, len(word)), dtype=np.int64)
           for sym, word in cb.codewords.items()}
    ones = [(out[sym], i) for sym, word in cb.codewords.items()
            for i, bit in enumerate(word) if bit == "1"]
    groups = _inversion.arrival_groups(molecules, coefficients, rng, len(ones), repetitions)
    for (counts, i), arrivals in zip(ones, groups):
        keep = min(memory, counts.shape[1] - i)
        counts[:, i:i + keep] += arrivals[:, :keep]
    return out


def resolve_threshold(cfg: LinkConfig, master_seed: int) -> tuple[float, str]:
    """Turn the configured threshold strategy into a number.

    Pilot and calibration randomness comes from dedicated substreams of
    master_seed, so resolving never perturbs the main simulation stream;
    codec.collect_pilot_stats reads the pilots _pilot_counts sends. A
    calibrated threshold runs the calibration chunks that _run_groups runs
    for cfg seeded with master_seed (_threshold_items), one after another.
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
        items, finish = _threshold_items([replace(cfg, master_seed=master_seed)],
                                         _symbol_guide(cfg))
        (outcome,) = finish([item() for item in items])
        return outcome
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


def _map_groups(jobs: list[list], workers: int, each=None) -> list[list]:
    """[[job() for job in group] for group in jobs], on up to workers threads.

    Every job of every group runs on one pool, which is not started when
    one thread would do, and the results come back in submission order.
    each, when given, is called with every group's index and results as
    soon as they and every earlier group's are in, so a group without jobs
    is passed on right after the groups before it. If a job or each raises,
    the jobs not yet started are cancelled and the exception propagates
    once the running ones finish.
    """
    flat = [job for group in jobs for job in group]
    workers = min(workers, len(flat))
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    out = []
    try:
        results = pool.map(_call, flat) if pool else map(_call, flat)
        for g, group in enumerate(jobs):
            out.append(list(islice(results, len(group))))
            if each is not None:
                each(g, out[g])
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return out


def _build_link_tables(cfg: LinkConfig) -> None:
    """Build the cached tables a link's chunks read, before any chunk runs.

    These are the codebook's step table and the link's inversion tables.
    They live as long as their caches, so building them while no chunk
    array exists keeps them from pinning the heap above a chunk's peak.
    """
    cfg.codebook.tables.steps
    from . import _inversion

    _inversion.link_tables(cfg.molecules_per_one, cfg.coefficients)


def _resolved(cfg: LinkConfig):
    """resolve_threshold(cfg, cfg.master_seed), or the CalibrationError it raises."""
    try:
        return resolve_threshold(cfg, cfg.master_seed)
    except CalibrationError as exc:
        return exc


def _report(cfg: LinkConfig, tau: float, origin: str, parts: list[dict]) -> CerReport:
    """The CerReport of a link from the totals of each of its chunks."""
    trials = cfg.trials
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
        master_seed=cfg.master_seed,
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


def _threshold_items(group: list[LinkConfig], guide: Table) -> tuple[list, Callable]:
    """The items that resolve a group's thresholds, and finish, which turns
    their results into each link's (tau, origin) or CalibrationError.

    A calibrated group's items are its calibration chunks, chunk c seeded
    by (master_seed, _CAL_TAG, c) and scored at every link's candidate
    cuts (_calibration_errors), and finish picks each link's tau from them
    by _pick_tau. Any other link is one _resolved item.
    """
    if not isinstance(group[0].threshold, CalibratedThreshold):
        return [partial(_resolved, cfg) for cfg in group], list
    candidates = [cfg.threshold.candidates or _default_candidates(cfg) for cfg in group]
    items = [partial(_calibration_errors, group, candidates, guide, size,
                     (group[0].master_seed, _CAL_TAG, index))
             for index, size in enumerate(_chunk_sizes(group[0].threshold.messages))]

    def finish(chunks: list) -> list:
        return [(_pick_tau(cands, [chunk[j] for chunk in chunks]), "calibrated")
                for j, cands in enumerate(candidates)]

    return items, finish


def _run_groups(groups: list[list[LinkConfig]], threads: int, each=None) -> list[list]:
    """Run every link of every group: a CerReport, or the CalibrationError
    its threshold raised, per link, in groups order.

    The links of a group must differ only in molecules_per_one. Chunk c of
    each of them then draws the same messages from (master_seed, tag, c),
    so the group draws them once per chunk (_draw_messages) and each link
    draws its own arrivals from the state they left.
    Every cached table is built first. The work then runs through one
    scheduler, _map_groups, on up to threads worker threads, in two
    passes: first every group's threshold items (_threshold_items), then
    each main chunk of a group, over the links whose threshold resolved.
    each, when given, is called with a group's index and outcomes as soon
    as that group's last main chunk and every earlier group's are in.
    """
    for group in groups:
        for cfg in group:
            _build_link_tables(cfg)
    guides = [_symbol_guide(group[0]) for group in groups]
    plans = [_threshold_items(group, guide) for group, guide in zip(groups, guides)]
    outcomes = [finish(results) for (_, finish), results
                in zip(plans, _map_groups([items for items, _ in plans], threads))]
    jobs = []
    for group, outs, guide in zip(groups, outcomes, guides):
        live = [j for j, o in enumerate(outs) if not isinstance(o, CalibrationError)]
        sizes = _chunk_sizes(group[0].trials) if live else []
        jobs.append([partial(_run_chunk, [group[j] for j in live], [outs[j][0] for j in live],
                             guide, size, (group[0].master_seed, _MAIN_TAG, index))
                     for index, size in enumerate(sizes)])
    reports: list[list] = []

    def land(g: int, chunks: list[list[dict]]) -> None:
        per_link = zip(*chunks)  # each resolved link's totals of every chunk
        reports.append([o if isinstance(o, CalibrationError)
                        else _report(groups[g][j], *o, list(next(per_link)))
                        for j, o in enumerate(outcomes[g])])
        if each is not None:
            each(g, reports[g])

    _map_groups(jobs, threads, each=land)
    return reports


def _call(job):
    return job()


def run_cer(cfg: LinkConfig, threads: int | None = None) -> CerReport:
    """Estimate the character error rate of a link over random messages.

    Runs cfg.trials messages seeded from cfg.master_seed on up to threads
    worker threads, one chunk each; threads defaults to the available
    cores. A calibrated threshold's chunks run the same way, before the
    main chunks. The result is bit-identical for any thread count. A
    threshold that cannot be resolved raises CalibrationError.
    """
    ((outcome,),) = _run_groups([[cfg]], _thread_count(threads))
    if isinstance(outcome, CalibrationError):
        raise outcome
    return outcome


def _default_candidates(cfg: LinkConfig) -> tuple[float, ...]:
    # The natural threshold scale is the expected first-slot signal; the
    # floor keeps the grid valid for the zero-budget baseline link.
    scale = max(cfg.molecules_per_one * cfg.coefficients[0], 1.0)
    return tuple(scale * f for f in np.linspace(0.05, 1.2, 24))


def _calibration_errors(links: Sequence[LinkConfig], candidates: Sequence[Sequence[float]],
                        guide: Table, trials: int, seed_tuple) -> list[dict[int, int]]:
    """Each link's character errors at each count cut of its candidates, on
    one calibration chunk whose messages are drawn once for all links.

    Candidates that share an integer count cut ceil(tau) read identical
    bits, so each distinct cut is read once. Scoring counts character
    errors only: each cut reads the chunk through codec._read_bits, with
    the same correction as run_cer, and codec._decode_rows compares the
    decoded symbols with the sent ones.
    """
    messages = _draw_messages(links[0], guide, trials, seed_tuple)
    return [_cut_errors(cfg, cands, messages) for cfg, cands in zip(links, candidates)]


def _cut_errors(cfg: LinkConfig, candidates: Sequence[float],
                messages: _Messages) -> dict[int, int]:
    counts = messages.counts(cfg)
    return {cut: int(_decode_rows(_read_bits(counts, cut, cfg.codebook.corrected),
                                  messages.tlen, messages.syms, cfg.codebook.tables)[0].sum())
            for cut in dict.fromkeys(map(_count_cut, candidates))}


def _pick_tau(candidates: Sequence[float], chunk_errors: list[dict[int, int]]) -> float:
    """The candidate with the fewest errors over all chunks; ties go to the
    smaller tau."""
    errors = {cut: sum(chunk[cut] for chunk in chunk_errors) for cut in chunk_errors[0]}
    return float(min(candidates, key=lambda tau: (errors[_count_cut(tau)], tau)))


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

    The budgets of a kind share their messages: every chunk, calibration
    chunks included, is drawn once per kind and read by each budget in
    turn. The whole grid runs on up to threads worker threads (default as
    in run_cer): first every pilot row and every calibration chunk of
    every kind, then every main chunk of every kind. Every row is
    bit-identical for any thread count, and to run_cer of its link.
    progress, when given, is called with each row in row order, a kind's
    rows together once that kind's last chunk is in.
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
    groups = [
        [LinkConfig(
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
        ) for budget in budgets]
        for cb in books
    ]
    rows: list[dict] = []

    def land(g: int, outcomes: list) -> None:
        for budget, cfg, outcome in zip(budgets, groups[g], outcomes):
            row = {
                "codebook": kinds[g],
                "molecules_per_char": float(budget) + 0.0,  # a -0.0 budget reads 0.0
                "N_bit1": cfg.molecules_per_one,
                "t_s": cfg.slot,
                "trials": trials,
                "seed": master_seed,
            }
            if isinstance(outcome, CalibrationError):
                row.update(tau=None, cer=None, cer_stderr=None,
                           error=f"uncalibratable: {outcome}")
            else:
                row.update(tau=outcome.tau, cer=outcome.cer,
                           cer_stderr=outcome.cer_stderr, error=None)
            rows.append(row)
            if progress is not None:
                progress(row)

    _run_groups(groups, n_threads, each=land)
    return rows
