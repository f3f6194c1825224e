"""Monte Carlo link engine: sampling, determinism, fairness, sweeps."""
import dataclasses
import math

import numpy as np
import pytest

from molcode import (
    CalibratedThreshold,
    CalibrationError,
    ConstantThreshold,
    LinkConfig,
    PilotThreshold,
    decode,
    detect,
    error_correct,
    fair_budgets,
    resolve_threshold,
    run_cer,
    sample_arrivals,
    simulate_message,
    sweep,
)
from molcode import mc_sim
from molcode.mc_sim import CHUNK_TRIALS, _budget_share


@pytest.fixture(scope="module")
def link(dist, pcb, params):
    # Small but realistic link: ten-character messages at two per second.
    return LinkConfig.build(
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

    def test_scalar_draw_shape(self):
        rng = np.random.default_rng(4)
        got = sample_arrivals(10, (0.5, 0.2), rng)
        assert got.shape == (2,)

    def test_int32_unless_the_release_exceeds_it(self):
        rng = np.random.default_rng(5)
        assert sample_arrivals(100, (0.5, 0.2), rng, size=3).dtype == np.int32
        big = sample_arrivals(2**40, (0.5,), rng, size=3)
        assert big.dtype == np.int64 and (big > 2**38).all()


class TestLinkConfig:
    def test_slot_must_match_character_budget(self, dist, pcb, params, profile):
        # profile.slot=0.1 but 0.5 s per character over E[len]=6.25 slots
        # needs a 0.080 s slot, so the pairing is rejected.
        with pytest.raises(ValueError):
            LinkConfig(
                codebook=pcb,
                distribution=dist,
                profile=profile,
                molecules_per_one=40,
                char_duration=0.5,
                threshold=ConstantThreshold(8.0),
            )

    def test_build_assembles_consistent_profile(self, link, pcb, dist):
        from molcode.codebooks import expected_length

        want = 0.5 / expected_length(pcb, dist)
        assert link.profile.slot == pytest.approx(want, rel=1e-12)

    def test_rejects_negative_molecules(self, dist, pcb, params):
        with pytest.raises(ValueError):
            LinkConfig.build(
                codebook=pcb, distribution=dist, params=params,
                molecules_per_one=-1, char_duration=0.5,
                threshold=ConstantThreshold(8.0),
            )

    def test_rejects_zero_trials(self, link):
        with pytest.raises(ValueError):
            dataclasses.replace(link, trials=0)


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
        cfg = LinkConfig.build(
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
        cfg = LinkConfig.build(
            codebook=hcb, distribution=dist, params=params,
            molecules_per_one=0, char_duration=0.5,
            threshold=ConstantThreshold(0.5),
            trials=500, master_seed=1,
        )
        rep = run_cer(cfg)
        assert rep.bit_counts["11"] == 0 and rep.bit_counts["01"] == 0
        assert rep.cer > 0.5


class TestEngineAgreesWithScalarPath:
    def test_message_pipeline_consistency(self, link):
        # The scalar helper must reproduce its own stages exactly.
        rng = np.random.default_rng(42)
        sim = simulate_message("MOLEC", link, rng, tau=8.0)
        assert detect(sim.slot_counts, 8.0) == sim.detected_bits
        assert error_correct(sim.detected_bits) == sim.corrected_bits
        redecoded = decode(sim.corrected_bits, link.codebook)
        assert redecoded.symbols == sim.decoded.symbols

    def test_quiet_channel_recovers_text(self, dist, pcb, params):
        # A huge budget and a decisive threshold make the link noiseless
        # in slot one, and correction strips the interference.
        cfg = LinkConfig.build(
            codebook=pcb, distribution=dist, params=params,
            molecules_per_one=5000, char_duration=0.5,
            threshold=ConstantThreshold(900.0),
            trials=200, master_seed=5,
        )
        rep = run_cer(cfg)
        assert rep.cer < 0.01

    def test_error_counts_match_a_python_reimplementation(self, dist, pcb, params):
        # Decode the same detected streams with the public scalar decoder
        # and compare character error totals on a small run.
        cfg = LinkConfig.build(
            codebook=pcb, distribution=dist, params=params,
            molecules_per_one=40, char_duration=0.5,
            threshold=ConstantThreshold(8.0),
            trials=300, master_seed=17,
        )
        rep = run_cer(cfg)

        from molcode.mc_sim import _MAIN_TAG, _Tables, _sample_bits, _accumulate_counts

        tables = _Tables(cfg)
        rng = np.random.default_rng(np.random.SeedSequence((17, _MAIN_TAG, 0)))
        syms, tlen, bitmat = _sample_bits(tables, cfg.trials, cfg.msg_len, rng)
        counts = _accumulate_counts(bitmat, tlen, cfg, rng)
        alphabet = cfg.distribution.symbols
        errors = 0
        for i in range(cfg.trials):
            sent = [alphabet[s] for s in syms[i]]
            bits = detect(counts[i, : tlen[i]].tolist(), 8.0)
            got = decode(error_correct(bits), cfg.codebook).symbols
            for pos in range(cfg.msg_len):
                have = got[pos] if pos < len(got) else None
                errors += sent[pos] != have
        assert errors == rep.char_errors


class TestFairness:
    def test_fair_budgets_reference_point(self, dist):
        shares = fair_budgets(dist, 1000)
        assert shares == {"huffman": 1000, "proposed": 1000, "ita2": 800}

    def test_budget_share_scales_by_ones_density(self, dist, hcb, icb):
        assert _budget_share(dist, hcb, 85.0) == 43
        assert _budget_share(dist, icb, 85.0) == 34

    def test_rejects_nonpositive_base(self, dist):
        with pytest.raises(ValueError):
            fair_budgets(dist, 0)


class TestThresholdResolution:
    def test_constant_passthrough(self, link):
        tau, origin = resolve_threshold(link, master_seed=1)
        assert (tau, origin) == (8.0, "constant")

    def test_pilot_origin_and_range(self, dist, pcb, params):
        cfg = LinkConfig.build(
            codebook=pcb, distribution=dist, params=params,
            molecules_per_one=40, char_duration=0.5,
            threshold=PilotThreshold(), trials=100, master_seed=2,
        )
        tau, origin = resolve_threshold(cfg, master_seed=2)
        assert origin == "pilot"
        assert 0 < tau < 40

    def test_calibrated_origin_picks_grid_point(self, dist, hcb, params):
        cfg = LinkConfig.build(
            codebook=hcb, distribution=dist, params=params,
            molecules_per_one=40, char_duration=0.5,
            threshold=CalibratedThreshold(messages=2000),
            trials=100, master_seed=2,
        )
        tau, origin = resolve_threshold(cfg, master_seed=2)
        assert origin == "calibrated"
        first = 40 * cfg.profile.coefficients[0]
        grid = np.maximum(first, 1.0) * np.linspace(0.05, 1.2, 24)
        assert min(abs(grid - tau)) < 1e-9

    def test_ties_go_to_the_smaller_tau_in_any_grid_order(self, dist, hcb, params):
        # 9.0 and 8.5 share the integer cut 9, so they always tie.
        cfg = LinkConfig.build(
            codebook=hcb, distribution=dist, params=params,
            molecules_per_one=40, char_duration=0.5,
            threshold=CalibratedThreshold(candidates=(9.0, 8.5), messages=500),
            trials=100, master_seed=2,
        )
        assert resolve_threshold(cfg, 2) == (8.5, "calibrated")

    def test_calibration_deterministic(self, dist, hcb, params):
        cfg = LinkConfig.build(
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

    def test_unknown_kind_rejected(self, dist, params):
        with pytest.raises(ValueError):
            sweep(dist, params, budgets=[60.0], trials=100, master_seed=1,
                  kinds=("morse",))


class TestThreadEnvCap:
    def test_env_variable_limits_threads(self, link, monkeypatch):
        monkeypatch.setenv("MOLCODE_THREADS", "1")
        capped = run_cer(link)
        monkeypatch.delenv("MOLCODE_THREADS")
        free = run_cer(link)
        assert capped.cer == free.cer
        assert capped.bit_counts == free.bit_counts

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_env_value_is_a_configuration_error(self, link, monkeypatch, value):
        monkeypatch.setenv("MOLCODE_THREADS", value)
        with pytest.raises(ValueError, match="MOLCODE_THREADS|at least 1") as info:
            run_cer(link)
        assert not isinstance(info.value, CalibrationError)

    def test_bad_thread_count_raises_before_any_row(self, dist, params, monkeypatch):
        monkeypatch.setenv("MOLCODE_THREADS", "abc")
        seen = []
        with pytest.raises(ValueError, match="MOLCODE_THREADS"):
            sweep(dist, params, budgets=[60.0], trials=100, master_seed=1,
                  kinds=("huffman",), progress=seen.append)
        assert seen == []


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
            LinkConfig.build(
                codebook=hcb, distribution=dist, params=params,
                molecules_per_one=2**28, char_duration=0.5,
                threshold=ConstantThreshold(8.0), memory=10,
            )
