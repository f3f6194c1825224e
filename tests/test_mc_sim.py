"""Monte Carlo link engine: sampling, determinism, fairness, sweeps."""
import dataclasses
import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from molcode import (
    CalibratedThreshold,
    CalibrationError,
    ConstantThreshold,
    LinkConfig,
    PilotThreshold,
    channel_coefficients,
    decode,
    expected_ones,
    resolve_threshold,
    run_cer,
    sample_arrivals,
    sweep,
)
from molcode import _inversion, mc_sim
from molcode.codebooks import Codebook, build
from molcode.mc_sim import CHUNK_TRIALS, _budget_share


@pytest.fixture
def pool_sizes(monkeypatch):
    """max_workers of every thread pool mc_sim starts, in order."""
    sizes = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(mc_sim, "ThreadPoolExecutor", Recording)
    return sizes


@pytest.fixture(scope="module")
def link(dist, pcb, params):
    # Small but realistic link: ten-character messages at two per second.
    return LinkConfig(
        codebook=pcb,
        distribution=dist,
        params=params,
        molecules_per_one=40,
        char_duration=0.5,
        threshold=ConstantThreshold(8.0),
        msg_len=10,
        memory=10,
        trials=4000,
        master_seed=3,
    )


class TestSampleArrivals:
    def test_marginal_means(self):
        rng = np.random.default_rng(0)
        coeffs = (0.28, 0.06, 0.03)
        n, draws = 200, 20_000
        got = sample_arrivals(n, coeffs, rng, size=draws)
        for k, a in enumerate(coeffs):
            se = math.sqrt(n * a * (1 - a) / draws)
            assert abs(got[:, k].mean() - n * a) < 4 * se

    def test_total_never_exceeds_budget(self):
        rng = np.random.default_rng(1)
        got = sample_arrivals(50, (0.4, 0.3, 0.2), rng, size=5000)
        assert got.sum(axis=1).max() <= 50

    def test_zero_budget_is_silent(self):
        rng = np.random.default_rng(2)
        got = sample_arrivals(0, (0.4, 0.3), rng, size=100)
        assert not got.any()

    def test_leftover_mass_stays_untransmitted(self):
        # With coefficient sum s < 1 the expected total arrival is n * s.
        rng = np.random.default_rng(3)
        coeffs = (0.2, 0.1)
        n, draws = 100, 40_000
        got = sample_arrivals(n, coeffs, rng, size=draws)
        s = sum(coeffs)
        se = math.sqrt(n * s * (1 - s) / draws)
        assert abs(got.sum(axis=1).mean() - n * s) < 4 * se

    def test_int32_unless_the_release_exceeds_it(self):
        rng = np.random.default_rng(5)
        assert sample_arrivals(100, (0.5, 0.2), rng, size=3).dtype == np.int32
        big = sample_arrivals(2**40, (0.5,), rng, size=3)
        assert big.dtype == np.int64 and (big > 2**38).all()


def binomial_loop(molecules, coefficients, rng, size):
    """The sequential binomial sampler as one rng.binomial call per slot.

    sample_arrivals must return the same counts and leave rng in the same
    state, so a numpy release that changes its binomial algorithm fails
    the tests below.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    remaining = np.full(size, molecules, dtype=np.int64)
    out = np.empty((size, len(coeffs)), dtype=np.int32 if molecules <= 2**31 - 1 else np.int64)
    consumed = 0.0
    for k, a in enumerate(coeffs):
        rest = 1.0 - consumed
        p = min(a / rest, 1.0) if rest > 1e-15 else 0.0
        out[:, k] = rng.binomial(remaining, p)
        remaining -= out[:, k]
        consumed += a
    return out


def assert_same_stream(molecules, coeffs, seed, size):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_arrivals(molecules, coeffs, got_rng, size=size)
    want = binomial_loop(molecules, coeffs, want_rng, size)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert got_rng.random() == want_rng.random()


@st.composite
def arrival_coefficients(draw):
    """Dyadic coefficient vectors, so sums are exact: zeros, sums below 1,
    sums of exactly 1, and renormalized slots with p > 0.5 all occur."""
    weights = draw(st.lists(st.integers(0, 64), min_size=1, max_size=10))
    if draw(st.booleans()):
        weights.append(max(0, 64 - sum(weights)))
        den = max(64, 2 ** (sum(weights) - 1).bit_length())
    else:
        den = draw(st.sampled_from([64, 256, 4096]))
        den = max(den, 2 ** max(sum(weights) - 1, 0).bit_length())
    return tuple(w / den for w in weights)


class TestArrivalStreamIdentity:
    """sample_arrivals draws exactly what the rng.binomial loop draws."""

    @settings(max_examples=200, deadline=None)
    @given(
        molecules=st.integers(0, 300),
        coeffs=arrival_coefficients(),
        seed=st.integers(0, 2**32 - 1),
        size=st.one_of(st.sampled_from([0, 1]), st.integers(0, 3000)),
    )
    @example(molecules=255, coeffs=(0.25, 0.25, 0.5), seed=0, size=500)
    @example(molecules=40, coeffs=(0.0, 0.125, 0.0, 0.75), seed=1, size=1)
    @example(molecules=300, coeffs=(0.375, 0.5, 0.0625), seed=2, size=200)
    def test_matches_binomial_loop(self, molecules, coeffs, seed, size):
        assert_same_stream(molecules, coeffs, seed, size)

    @pytest.mark.parametrize("molecules, counts", [(43, range(1, 44)), (255, (1, 2, 100, 255))])
    def test_lookup_is_exact_at_every_cut(self, coefficients, molecules, counts):
        # A sampled stream almost never lands within a few 2**-53 of a cut,
        # so the uniforms at and just above each cut are checked directly
        # against numpy's inversion walk, transcribed from its C source.
        def numpy_walk(n, p, u):
            q = 1.0 - p
            x, px = 0, math.exp(n * math.log(q))
            bound = int(min(n, n * p + 10.0 * math.sqrt(n * p * q + 1)))
            while u > px:
                x += 1
                if x > bound:
                    return None  # numpy redraws
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
            return x

        probs, tables = _inversion.link_tables(molecules, tuple(coefficients))
        for p, table in zip(probs, tables):
            if table is None:
                continue
            for n in counts:
                cuts = table.keys[n * table.width:][:table.bound[n] + 1] - n * (2**53 + 1)
                cuts = cuts * 2.0**-53
                u = np.concatenate([cuts, np.minimum(cuts + 2.0**-53, 1 - 2.0**-53)])
                want = [numpy_walk(n, p, v) for v in u]
                got, redraw = table.lookup(np.full(len(u), n, dtype=np.uint8), u,
                                           _inversion.Scratch.empty(len(u)))
                assert redraw == (None in want)
                assert [x if x <= table.bound[n] else None for x in got] == want

    @pytest.mark.parametrize("slot", [0.08, 0.2, 0.5, 1.0, 2.0])
    def test_reference_link_grid(self, params, slot):
        coeffs = channel_coefficients(params, slot, 10)
        for molecules in (1, 2, 5, 17, 30, 43, 60, 90, 150, 255):
            for seed in range(4):
                assert_same_stream(molecules, coeffs, seed, 20_000)

    @pytest.mark.parametrize("molecules", [1, 2, 43])
    def test_matches_binomial_loop_past_the_first_block(self, coefficients, molecules):
        # Two full lookup blocks and 17 releases more. With 1 or 2 molecules
        # the later slots see zero remaining counts in every block; with 43
        # every block after the first is full.
        assert_same_stream(molecules, coefficients, 5, 2 * _inversion.BLOCK + 17)

    def test_slot_past_the_inversion_regime_calls_numpy(self):
        # 100 * 0.4 > 30: numpy samples slot 0 by BTPE, so it has no table.
        coeffs = (0.4, 0.1, 0.05)
        _, tables = _inversion.link_tables(100, coeffs)
        assert [table is not None for table in tables] == [False, True, True]
        assert_same_stream(100, coeffs, 7, 5000)

    def test_redraw_falls_back_to_numpy(self, monkeypatch, coefficients):
        # A real redraw has probability near 1e-16, so cap the cuts of slot
        # 3 at 0.999: a uniform above that lands past the bound, several
        # blocks into the slot, and the whole slot is redone by numpy.
        molecules, coeffs = 43, coefficients
        probs, tables = _inversion.link_tables(molecules, tuple(coeffs))
        tables = list(tables)
        table = tables[3]
        rows = np.arange(len(table.bound))[:, None]
        cuts = table.keys.reshape(-1, table.width) - rows * (2**53 + 1)
        within = np.arange(table.width) <= table.bound[:, None]
        cuts = np.where(within, np.minimum(cuts, int(0.999 * 2**53)), cuts)
        tables[3] = _inversion.Table.of(cuts, np.uint8, table.bound, 0.0)
        monkeypatch.setattr(_inversion, "link_tables", lambda *key: (probs, tables))
        monkeypatch.setattr(_inversion, "BLOCK", 100)
        slots = []
        real = _inversion.draw_slot

        def spy(table, remaining, column, rng, buf):
            done = real(table, remaining, column, rng, buf)
            slots.append(done)
            return done

        monkeypatch.setattr(_inversion, "draw_slot", spy)
        got_rng, want_rng = np.random.default_rng(4), np.random.default_rng(4)
        got = sample_arrivals(molecules, coeffs, got_rng, size=5000)
        want = binomial_loop(molecules, coeffs, want_rng, 5000)
        assert slots[3] is False and slots.count(False) == 1
        np.testing.assert_array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def numpy_walks(molecules, p, u):
    """numpy's inversion walk, as transcribed in test_lookup_is_exact_at_every_cut,
    for every row n = 1..molecules and every uniform of u at once.

    Row n of the result holds X for each uniform, or bound[n] + 1 where
    numpy would redraw. The walk's probability after x steps does not
    depend on the uniform, so each step updates one px per row, with the
    scalar's operations in the scalar's order.
    """
    q = 1.0 - p
    n = np.arange(1, molecules + 1)
    bound = np.array([int(min(k, k * p + 10.0 * math.sqrt(k * p * q + 1))) for k in n])
    px = np.array([math.exp(k * math.log(q)) for k in n])
    u = np.tile(u, (molecules, 1))
    x = np.zeros(u.shape, dtype=np.int64)
    for step in range(1, int(bound.max()) + 2):
        walk = (u > px[:, None]) & (x == step - 1)
        if not walk.any():
            break
        x += walk
        u = np.where(walk, u - px[:, None], u)
        px = ((n - step + 1) * p * px) / (step * q)
    return np.minimum(x, bound[:, None] + 1), bound


class TestInversionGuide:
    """Every guide byte against numpy's walk at both ends of its bucket."""

    def assert_guide_exact(self, molecules, coefficients):
        buckets = _inversion._GUIDE_BUCKETS
        b = np.arange(buckets)
        ends = np.concatenate([b / buckets, (b + 1) / buckets - 2.0**-53])
        probs, tables = _inversion.link_tables(molecules, tuple(coefficients))
        checked = 0
        for p, table in zip(probs, tables):
            if table is None:
                continue
            want, bound = numpy_walks(molecules, p, ends)
            guide = table.guide.reshape(-1, buckets)[1:]
            flagged = guide == table.flag
            lo, hi = want[:, :buckets], want[:, buckets:]
            np.testing.assert_array_equal(guide[~flagged], lo[~flagged])
            np.testing.assert_array_equal(guide[~flagged], hi[~flagged])
            assert (lo[flagged] != hi[flagged]).all()
            assert (bound < table.flag).all()
            checked += 1
        assert checked

    @pytest.mark.parametrize("kind", ["huffman", "proposed", "ita2"])
    def test_reference_grid(self, dist, params, kind):
        cb = build(kind, dist)
        for budget in (50, 70, 85, 100, 120):
            link = LinkConfig(
                codebook=cb, distribution=dist, params=params,
                molecules_per_one=_budget_share(dist, cb, budget), char_duration=0.5,
                threshold=ConstantThreshold(1.0), memory=10,
            )
            self.assert_guide_exact(link.molecules_per_one, link.coefficients)

    def test_largest_table_release(self, coefficients):
        self.assert_guide_exact(255, coefficients)


class TestStreamedCounts:
    def test_peak_stays_below_the_arrival_matrix(self, dist, hcb, params):
        # Each slot's column is scattered as soon as it is drawn, so no
        # (memory, releases) int32 array of arrivals is ever held.
        cfg = LinkConfig(
            codebook=hcb, distribution=dist, params=params, molecules_per_one=43,
            char_duration=0.5, threshold=ConstantThreshold(8.0), msg_len=200, memory=10,
        )
        mc_sim._build_link_tables(cfg)
        rng = np.random.default_rng(8)
        syms = mc_sim._symbol_guide(cfg).draw(rng, 1024 * cfg.msg_len).reshape(1024, -1)
        tlen, where = hcb.tables.lay_ones(syms, cfg.memory - 1)
        arrivals_bytes = cfg.memory * where.size * 4
        tracemalloc.start()
        try:
            mc_sim._accumulate_counts(where, (1024, int(tlen.max())), cfg, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arrivals_bytes


class TestChunkPeak:
    def test_long_chunk_peaks_below_3_2_times_the_positions(self, dist, pcb, params):
        # Narrow counts, a decode buffer of msg_len + width columns and
        # scoring in row blocks: int32 counts, a max_t + width buffer and
        # scoring masks of the whole chunk peaked at 3.74 times where.
        cfg = LinkConfig(
            codebook=pcb, distribution=dist, params=params,
            molecules_per_one=_budget_share(dist, pcb, 85), char_duration=0.5,
            threshold=ConstantThreshold(8.0), msg_len=200, memory=10,
        )
        mc_sim._build_link_tables(cfg)
        guide = mc_sim._symbol_guide(cfg)
        seed = (0, mc_sim._MAIN_TAG, 0)
        # The chunk's own messages: its generator draws them first.
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        syms = guide.draw(rng, CHUNK_TRIALS * 200).reshape(CHUNK_TRIALS, 200)
        where_bytes = pcb.tables.lay_ones(syms, cfg.memory - 1)[1].nbytes
        del syms
        tracemalloc.start()
        try:
            mc_sim._run_chunk(cfg, guide, CHUNK_TRIALS, 8.0, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * where_bytes


class TestBlockedLay:
    @pytest.mark.parametrize("kind", ["huffman", "proposed", "ita2"])
    def test_peak_stays_below_twice_the_positions(self, dist, kind):
        # The rows are laid a block at a time straight into where, so no
        # other array grows with the chunk: one pass over the whole chunk
        # peaked at 5.3 times where.
        cb = build(kind, dist)
        probs = [dist.prob(s) for s in cb.symbols]
        syms = _inversion.symbol_table(probs).draw(np.random.default_rng(8),
                                                   CHUNK_TRIALS * 200)
        tables = cb.tables
        tracemalloc.start()
        try:
            tlen, where = tables.lay_ones(syms.reshape(CHUNK_TRIALS, 200), 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * where.nbytes


class TestLinkConfig:
    def test_build_assembles_consistent_profile(self, link, pcb, dist, params):
        from molcode.codebooks import expected_length

        want = 0.5 / expected_length(pcb, dist)
        assert link.slot == pytest.approx(want, rel=1e-12)
        assert link.coefficients == channel_coefficients(params, link.slot, 10)

    def test_replace_rederives_slot_and_coefficients(self, link, params):
        slower = dataclasses.replace(link, char_duration=1.0)
        assert slower.slot == pytest.approx(2 * link.slot, rel=1e-12)
        assert slower.coefficients == channel_coefficients(params, slower.slot, 10)

    def test_build_is_the_constructor(self, dist, pcb, params):
        kw = dict(codebook=pcb, distribution=dist, params=params, molecules_per_one=40,
                  char_duration=0.5, threshold=ConstantThreshold(8.0), memory=6)
        built, made = LinkConfig.build(**kw), LinkConfig(**kw)
        assert built == made
        assert (built.slot, built.coefficients) == (made.slot, made.coefficients)
        assert len(made.coefficients) == 6

    def test_derived_fields_are_not_settable(self, link):
        with pytest.raises(ValueError):
            dataclasses.replace(link, coefficients=(0.5,))

    def test_channel_errors_surface_at_construction(self, link):
        # 0.5 ms per character puts the arrival peak past the first slot.
        with pytest.raises(ValueError, match="not strictly decreasing"):
            dataclasses.replace(link, char_duration=5e-4)

    def test_rejects_negative_molecules(self, dist, pcb, params):
        with pytest.raises(ValueError):
            LinkConfig(
                codebook=pcb, distribution=dist, params=params,
                molecules_per_one=-1, char_duration=0.5,
                threshold=ConstantThreshold(8.0),
            )

    def test_rejects_zero_trials(self, link):
        with pytest.raises(ValueError):
            dataclasses.replace(link, trials=0)

    @pytest.mark.parametrize("name, value", [
        ("msg_len", 2.5), ("msg_len", True), ("msg_len", 0), ("master_seed", 1.5),
        ("master_seed", -1), ("memory", 2.5), ("memory", 0), ("trials", 5.5),
        ("molecules_per_one", 40.0), ("molecules_per_one", False),
    ])
    def test_rejects_counts_off_the_integer_rule(self, link, name, value):
        # A count that is not an integer is a configuration mistake, caught
        # at construction rather than deep inside run_cer.
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            dataclasses.replace(link, **{name: value})

    @pytest.mark.parametrize("value", [True, float("nan"), float("inf"), 0.0, "0.5"])
    def test_rejects_char_duration_off_the_positive_rule(self, link, value):
        # True is an int to Python, so unchecked it would read as a
        # 1-second character; nan must fail here, not on the slot it gives.
        with pytest.raises(ValueError, match="char_duration must be positive and finite"):
            dataclasses.replace(link, char_duration=value)


class TestDeterminism:
    def test_repeat_runs_identical(self, link):
        a = run_cer(link)
        b = run_cer(link)
        assert a.cer == b.cer
        assert a.char_errors == b.char_errors
        assert a.bit_counts == b.bit_counts
        assert a.context_counts == b.context_counts

    def test_thread_counts_agree_bitwise(self, dist, pcb, params):
        # Trials straddle a chunk boundary so splitting actually happens.
        cfg = LinkConfig(
            codebook=pcb, distribution=dist, params=params,
            molecules_per_one=40, char_duration=0.5,
            threshold=ConstantThreshold(8.0),
            trials=CHUNK_TRIALS + 500, master_seed=9,
        )
        a = run_cer(cfg, threads=1)
        b = run_cer(cfg, threads=4)
        assert a.cer == b.cer
        assert a.char_errors == b.char_errors
        assert a.bit_counts == b.bit_counts
        assert a.context_counts == b.context_counts
        assert a.anomalies == b.anomalies

    def test_seed_changes_move_the_estimate(self, link):
        a = run_cer(link)
        b = run_cer(dataclasses.replace(link, master_seed=link.master_seed + 1))
        assert a.cer != b.cer


class TestReportInternals:
    def test_error_rate_matches_counter(self, link):
        rep = run_cer(link)
        assert rep.chars == link.trials * link.msg_len
        assert rep.cer == rep.char_errors / rep.chars
        assert 0 < rep.cer < 1
        assert rep.cer_stderr > 0

    def test_bit_confusion_covers_valid_region(self, link):
        rep = run_cer(link)
        assert sum(rep.bit_counts.values()) > 0
        # Correction can only clear ones, so a sent 0 is read as 1 less
        # often than a sent 1 is kept.
        assert rep.bit_counts["01"] < rep.bit_counts["11"]

    def test_context_rates_are_probabilities(self, link):
        rep = run_cer(link)
        for value in rep.context_rates.values():
            assert 0.0 <= value <= 1.0

    def test_zero_budget_baseline(self, dist, hcb, params):
        # No molecules at all: every slot stays below threshold and the
        # outcome is a deterministic worst case, useful as a floor check.
        cfg = LinkConfig(
            codebook=hcb, distribution=dist, params=params,
            molecules_per_one=0, char_duration=0.5,
            threshold=ConstantThreshold(0.5),
            trials=500, master_seed=1,
        )
        rep = run_cer(cfg)
        assert rep.bit_counts["11"] == 0 and rep.bit_counts["01"] == 0
        assert rep.cer > 0.5


class TestEngineAgreesWithScalarPath:
    def test_quiet_channel_recovers_text(self, dist, pcb, params):
        # A huge budget and a decisive threshold make the link noiseless
        # in slot one, and correction strips the interference.
        cfg = LinkConfig(
            codebook=pcb, distribution=dist, params=params,
            molecules_per_one=5000, char_duration=0.5,
            threshold=ConstantThreshold(900.0),
            trials=200, master_seed=5,
        )
        rep = run_cer(cfg)
        assert rep.cer < 0.01

    @pytest.mark.parametrize("kind", ["proposed", "huffman"])
    def test_error_counts_match_a_python_reimplementation(self, kind, dist, params,
                                                          correct_row):
        # Read every slot of the same streams in Python, correct a
        # corrected kind slot by slot, decode with the public scalar
        # decoder and compare character error totals on a small run.
        cb = build(kind, dist)
        cfg = LinkConfig(
            codebook=cb, distribution=dist, params=params,
            molecules_per_one=40, char_duration=0.5,
            threshold=ConstantThreshold(8.0),
            trials=300, master_seed=17,
        )
        rep = run_cer(cfg)

        from molcode.mc_sim import _MAIN_TAG, _draw_chunk, _symbol_guide

        syms, tlen, _, counts = _draw_chunk(cfg, _symbol_guide(cfg), cfg.trials,
                                            (17, _MAIN_TAG, 0))
        alphabet = cb.symbols
        errors = 0
        for i in range(cfg.trials):
            sent = [alphabet[s] for s in syms[i]]
            bits = [int(c >= 8.0) for c in counts[i, : tlen[i]].tolist()]
            if cb.corrected:
                bits = correct_row(bits)
            got = decode("".join(map(str, bits)), cb).symbols
            for pos in range(cfg.msg_len):
                have = got[pos] if pos < len(got) else None
                errors += sent[pos] != have
        assert errors == rep.char_errors


class TestCodeTables:
    def test_run_cer_rejects_a_code_that_is_not_prefix_free(self):
        # No link, and so no run, can hold such a code: building it raises.
        with pytest.raises(ValueError, match="not prefix free"):
            Codebook(kind="custom", codewords={"a": "0", "b": "01", "c": "11"})


class TestFairness:
    def test_fair_budgets_reference_point(self, dist):
        # A huffman bit-1 budget of 1000 molecules, as molecules per character.
        per_char = 1000 * expected_ones(build("huffman", dist), dist)
        shares = {kind: _budget_share(dist, build(kind, dist), per_char)
                  for kind in ("huffman", "proposed", "ita2")}
        assert shares == {"huffman": 1000, "proposed": 1000, "ita2": 800}

    def test_budget_share_scales_by_ones_density(self, dist, hcb, icb):
        assert _budget_share(dist, hcb, 85.0) == 43
        assert _budget_share(dist, icb, 85.0) == 34

    def test_rejects_negative_budget(self, dist, hcb):
        with pytest.raises(ValueError):
            _budget_share(dist, hcb, -1.0)


class TestThresholdResolution:
    def test_constant_passthrough(self, link):
        tau, origin = resolve_threshold(link, master_seed=1)
        assert (tau, origin) == (8.0, "constant")

    def test_pilot_origin_and_range(self, dist, pcb, params):
        cfg = LinkConfig(
            codebook=pcb, distribution=dist, params=params,
            molecules_per_one=40, char_duration=0.5,
            threshold=PilotThreshold(), trials=100, master_seed=2,
        )
        tau, origin = resolve_threshold(cfg, master_seed=2)
        assert origin == "pilot"
        assert 0 < tau < 40

    def test_calibrated_origin_picks_grid_point(self, dist, hcb, params):
        cfg = LinkConfig(
            codebook=hcb, distribution=dist, params=params,
            molecules_per_one=40, char_duration=0.5,
            threshold=CalibratedThreshold(messages=2000),
            trials=100, master_seed=2,
        )
        tau, origin = resolve_threshold(cfg, master_seed=2)
        assert origin == "calibrated"
        first = 40 * cfg.coefficients[0]
        grid = np.maximum(first, 1.0) * np.linspace(0.05, 1.2, 24)
        assert min(abs(grid - tau)) < 1e-9

    def test_ties_go_to_the_smaller_tau_in_any_grid_order(self, dist, hcb, params):
        # 9.0 and 8.5 share the integer cut 9, so they always tie.
        cfg = LinkConfig(
            codebook=hcb, distribution=dist, params=params,
            molecules_per_one=40, char_duration=0.5,
            threshold=CalibratedThreshold(candidates=(9.0, 8.5), messages=500),
            trials=100, master_seed=2,
        )
        assert resolve_threshold(cfg, 2) == (8.5, "calibrated")

    def test_calibration_deterministic(self, dist, hcb, params):
        cfg = LinkConfig(
            codebook=hcb, distribution=dist, params=params,
            molecules_per_one=40, char_duration=0.5,
            threshold=CalibratedThreshold(messages=2000),
            trials=100, master_seed=2,
        )
        assert resolve_threshold(cfg, 2) == resolve_threshold(cfg, 2)


class TestSweep:
    def test_rows_cover_kind_budget_grid(self, dist, params):
        rows = sweep(
            dist, params, budgets=[60.0, 85.0], trials=400, master_seed=1,
            kinds=("huffman", "proposed"),
        )
        assert [(r["codebook"], r["molecules_per_char"]) for r in rows] == [
            ("huffman", 60.0), ("huffman", 85.0),
            ("proposed", 60.0), ("proposed", 85.0),
        ]
        for r in rows:
            assert r["error"] is None
            assert 0 <= r["cer"] <= 1
            assert r["N_bit1"] > 0

    def test_uncalibratable_budget_yields_error_row(self, dist, params):
        rows = sweep(
            dist, params, budgets=[0.0], trials=200, master_seed=1,
            kinds=("proposed",),
        )
        (row,) = rows
        assert row["cer"] is None
        assert row["error"].startswith("uncalibratable")

    def test_progress_callback_sees_every_row(self, dist, params):
        seen = []
        sweep(
            dist, params, budgets=[60.0], trials=200, master_seed=1,
            kinds=("huffman",), progress=seen.append,
        )
        assert len(seen) == 1 and seen[0]["codebook"] == "huffman"

    def test_negative_zero_budget_is_zero(self, dist, params):
        (row,) = sweep(dist, params, budgets=[-0.0], trials=100, master_seed=1,
                       kinds=("huffman",))
        assert row["molecules_per_char"] == 0.0
        assert math.copysign(1.0, row["molecules_per_char"]) == 1.0

    def test_unknown_kind_rejected(self, dist, params):
        with pytest.raises(ValueError):
            sweep(dist, params, budgets=[60.0], trials=100, master_seed=1,
                  kinds=("morse",))

    def test_one_shot_budget_iterator_covers_every_kind(self, dist, params):
        rows = sweep(dist, params, budgets=iter([60.0]), trials=200, master_seed=1,
                     kinds=("huffman", "proposed"))
        assert [r["codebook"] for r in rows] == ["huffman", "proposed"]

    @pytest.mark.parametrize("kinds, budgets, match", [
        (("proposed", "proposed"), [60.0], "repeated kinds: proposed"),
        (("huffman",), [60.0, 85.0, 60], "repeated budgets: 60.0"),
    ], ids=["kind", "budget"])
    def test_repeats_rejected_before_any_row(self, dist, params, monkeypatch,
                                             kinds, budgets, match):
        monkeypatch.setattr(mc_sim, "run_cer", lambda cfg, threads=None: 1 / 0)
        with pytest.raises(ValueError, match=match):
            sweep(dist, params, budgets=budgets, trials=100, master_seed=1, kinds=kinds)

    def test_rows_agree_for_any_thread_count(self, dist, params, pool_sizes):
        runs = {}
        for threads in (1, 3):
            seen = []
            rows = sweep(dist, params, budgets=[0.0, 60.0], trials=300, master_seed=4,
                         kinds=("huffman", "proposed"), threads=threads,
                         progress=seen.append)
            runs[threads] = (rows, seen)
            assert seen == rows
        assert runs[1] == runs[3]
        assert [(r["codebook"], r["molecules_per_char"]) for r in runs[1][0]] == [
            ("huffman", 0.0), ("huffman", 60.0), ("proposed", 0.0), ("proposed", 60.0),
        ]
        assert runs[1][0][2]["error"].startswith("uncalibratable")
        # One pool of three rows at a time; each row then runs on one thread.
        assert pool_sizes == [3]

    def test_rows_agree_on_one_and_two_threads_past_a_chunk(self, dist, params):
        # Every row runs two chunks; on two threads two rows run at once,
        # and the inversion tables they build land in the one shared cache.
        kwargs = dict(budgets=[60.0, 85.0], trials=CHUNK_TRIALS + 500, master_seed=6,
                      kinds=("huffman", "proposed"))
        _inversion.link_tables.cache_clear()
        two = sweep(dist, params, threads=2, **kwargs)
        one = sweep(dist, params, threads=1, **kwargs)
        assert one == two
        assert all(row["error"] is None and row["tau"] > 0 for row in one)

    def test_failing_row_cancels_queued_rows(self, dist, params, monkeypatch):
        started = []

        def broken(cfg, threads=None):
            started.append(cfg.molecules_per_one)
            if len(started) == 1:
                raise RuntimeError("internal bug")
            threading.Event().wait(1.0)

        monkeypatch.setattr(mc_sim, "run_cer", broken)
        with pytest.raises(RuntimeError, match="internal bug"):
            sweep(dist, params, budgets=[50.0, 60.0, 70.0, 80.0, 90.0, 100.0],
                  trials=100, master_seed=1, kinds=("huffman",), threads=2)
        # The failing row, and at most the two rows its worker and the
        # other worker took before the failure was seen.
        assert len(started) <= 3


class TestThreadEnvCap:
    @pytest.mark.parametrize("value", [0, -2, 1.5, True, "2"])
    def test_bad_env_value_is_a_configuration_error(self, link, value):
        with pytest.raises(ValueError, match="at least 1") as info:
            run_cer(link, threads=value)
        assert not isinstance(info.value, CalibrationError)

    def test_bad_thread_count_raises_before_any_row(self, dist, params):
        seen = []
        with pytest.raises(ValueError, match="at least 1"):
            sweep(dist, params, budgets=[60.0], trials=100, master_seed=1,
                  kinds=("huffman",), threads=0, progress=seen.append)
        assert seen == []

    @pytest.mark.parametrize("bad, match", [
        (-1.0, "negative"), (1e9, "2\\*\\*31"), (math.inf, "got inf"), (math.nan, "got nan"),
    ], ids=["negative", "int32_overflow", "infinite", "nan"])
    def test_bad_budget_raises_before_any_row(self, dist, params, bad, match):
        seen = []
        with pytest.raises(ValueError, match=match):
            sweep(dist, params, budgets=[60.0, bad], trials=100, master_seed=1,
                  kinds=("huffman",), progress=seen.append)
        assert seen == []

    def test_default_is_the_available_cores(self, monkeypatch):
        monkeypatch.setattr(mc_sim.os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert mc_sim._thread_count(None) == 3
        monkeypatch.delattr(mc_sim.os, "sched_getaffinity")
        monkeypatch.setattr(mc_sim.os, "cpu_count", lambda: 6)
        assert mc_sim._thread_count(None) == 6
        monkeypatch.setattr(mc_sim.os, "cpu_count", lambda: None)
        assert mc_sim._thread_count(None) == 1
        assert mc_sim._thread_count(2) == 2

    def test_pool_is_clamped_to_the_chunks(self, dist, pcb, params, pool_sizes):
        for trials in (CHUNK_TRIALS + 500, 500):
            cfg = LinkConfig(
                codebook=pcb, distribution=dist, params=params,
                molecules_per_one=40, char_duration=0.5,
                threshold=ConstantThreshold(8.0), trials=trials,
            )
            run_cer(cfg, threads=8)
        # Two chunks take two workers; a single chunk starts no pool.
        assert pool_sizes == [2]


class TestErrorClassification:
    def test_only_calibration_errors_become_rows(self, dist, params, monkeypatch):
        def broken(cfg, threads=None):
            raise ValueError("not a calibration problem")

        monkeypatch.setattr(mc_sim, "run_cer", broken)
        with pytest.raises(ValueError, match="not a calibration problem"):
            sweep(dist, params, budgets=[60.0], trials=100, master_seed=1,
                  kinds=("huffman",))


class TestCountLimit:
    def test_budget_that_could_overflow_int32_counts_is_rejected(self, dist, hcb, params):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            LinkConfig(
                codebook=hcb, distribution=dist, params=params,
                molecules_per_one=2**28, char_duration=0.5,
                threshold=ConstantThreshold(8.0), memory=10,
            )
