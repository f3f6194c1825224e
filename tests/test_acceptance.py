"""End-to-end acceptance checks.

Each test covers one numbered claim about the system at its stated
tolerance and prints a single PASS/FAIL line so a log scan shows the
verdicts at a glance. Random checks run under fixed seeds, so the suite
is deterministic.
"""
import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from molcode import (
    ChannelParams,
    ConstantThreshold,
    LinkConfig,
    build_huffman,
    build_proposed,
    channel_coefficients,
    decode,
    encode,
    english_letter_distribution,
    expected_isi_bit0,
    expected_length,
    expected_ones,
    hit_probability,
    isi_oracle,
    ita2,
    min_symbol_slot,
    run_cer,
    sample_arrivals,
    sweep,
)
from molcode import channel as channel_mod
from molcode.codec import _read_bits

DIST = english_letter_distribution()
PARAMS = ChannelParams(diffusion=79.4, distance=4.0, receiver_radius=2.0)
LETTERS = "".join(DIST.symbols)


@contextmanager
def criterion(number, description):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    else:
        dt = time.perf_counter() - t0
        print(f"criterion {number} PASS: {description} ({dt:.2f} s)")


def random_texts(rng, count, max_len=20):
    lengths = rng.integers(1, max_len + 1, size=count)
    flat = rng.integers(0, 26, size=int(lengths.sum()))
    texts, at = [], 0
    for n in lengths:
        texts.append("".join(LETTERS[i] for i in flat[at:at + n]))
        at += int(n)
    return texts


def bit_matrix(streams):
    """Bit strings as the rows of a zero-padded int8 0/1 matrix."""
    width = max(map(len, streams), default=0)
    rows = np.zeros((len(streams), width), dtype=np.int8)
    for row, bits in zip(rows, streams):
        row[:len(bits)] = [int(b) for b in bits]
    return rows


def test_criterion_1_codebook_statistics():
    with criterion(1, "codebook statistics and ones ratio"):
        t0 = time.perf_counter()
        hcb, pcb, icb = build_huffman(DIST), build_proposed(DIST), ita2()
        assert expected_length(hcb, DIST) == pytest.approx(4.2738, abs=1e-4)
        assert expected_length(pcb, DIST) == pytest.approx(6.2491, abs=1e-4)
        assert expected_ones(hcb, DIST) == pytest.approx(1.9753, abs=1e-4)
        assert expected_ones(icb, DIST) == pytest.approx(2.4696, abs=1e-4)
        ratio = expected_ones(hcb, DIST) / expected_ones(icb, DIST)
        assert ratio == pytest.approx(0.7999, abs=5e-4)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_substitution_identity():
    with criterion(2, "bit-one substitution identity on 10^4 texts"):
        hcb, pcb = build_huffman(DIST), build_proposed(DIST)
        rng = np.random.default_rng(2024)
        for text in random_texts(rng, 10_000):
            stream = encode(text, pcb)
            assert stream == encode(text, hcb).replace("1", "10")
            assert "11" not in stream


def test_criterion_3_error_correction():
    with criterion(3, "receiver correction rule on 10^5 bitstrings"):
        example = _read_bits(bit_matrix(["001101110"]), 1, corrected=True)
        assert "".join(map(str, example[0])) == "001001010"
        rng = np.random.default_rng(33)
        lengths = rng.integers(0, 33, size=100_000)
        flat = rng.integers(0, 2, size=int(lengths.sum()))
        rows = np.zeros((lengths.size, 32), dtype=np.int8)
        valid = np.arange(32) < lengths[:, None]
        rows[valid] = flat
        once = _read_bits(rows, 1, corrected=True)
        # Every row's first n bits: no 11, and a second read changes nothing.
        assert not (once[:, :-1] & once[:, 1:] & valid[:, 1:]).any()
        twice = _read_bits(once, 1, corrected=True)
        assert (twice[valid] == once[valid]).all()


def test_criterion_4_isi_profiles():
    with criterion(4, "interference profiles vs 10^7-bit oracle"):
        t0 = time.perf_counter()
        hcb, pcb = build_huffman(DIST), build_proposed(DIST)
        h = expected_isi_bit0(hcb, DIST, memory=3)
        p = expected_isi_bit0(pcb, DIST, memory=3, corrected=True)
        assert h.coefficients[2] == pytest.approx(0.2719, abs=5e-3)
        assert h.coefficients[3] == pytest.approx(0.2745, abs=5e-3)
        assert p.coefficients[3] == pytest.approx(0.1904, abs=5e-3)

        h_mc = isi_oracle(hcb, DIST, memory=3, samples=10_000_000,
                          rng=np.random.default_rng(4))
        for j in (2, 3):
            assert abs(h_mc.coefficients[j] - h.coefficients[j]) < 3 * h_mc.stderr[j]
        p_mc = isi_oracle(pcb, DIST, memory=3, corrected=True,
                          samples=10_000_000, rng=np.random.default_rng(44))
        assert abs(p_mc.coefficients[3] - p.coefficients[3]) < 3 * p_mc.stderr[3]
        assert time.perf_counter() - t0 < 10.0


def test_criterion_5_channel_adequacy():
    with criterion(5, "channel shape, capture limit and minimal slot"):
        t0 = time.perf_counter()
        coeffs = channel_coefficients(PARAMS, 0.1, memory=10)
        assert all(a > b for a, b in zip(coeffs, coeffs[1:]))
        assert hit_probability(PARAMS, 1e12) == pytest.approx(0.5, abs=1e-6)

        s = min_symbol_slot(PARAMS, memory=10)
        assert all(channel_mod._memory_predicates(PARAMS, 1.001 * s, 10))
        assert not all(channel_mod._memory_predicates(PARAMS, 0.999 * s, 10))
        assert time.perf_counter() - t0 < 1.0


def test_criterion_6_sampler_and_thread_determinism():
    with criterion(6, "arrival sampler moments and thread-count invariance"):
        t0 = time.perf_counter()
        coeffs = channel_coefficients(PARAMS, 0.1, memory=10)
        n, draws = 500, 100_000
        got = sample_arrivals(n, coeffs, np.random.default_rng(6), size=draws)
        assert got.sum(axis=1).max() <= n
        for k, a in enumerate(coeffs):
            se = math.sqrt(n * a * (1 - a) / draws)
            assert abs(got[:, k].mean() - n * a) < 3 * se

        cfg = LinkConfig(
            codebook=build_proposed(DIST), distribution=DIST, params=PARAMS,
            molecules_per_one=40, char_duration=0.5,
            threshold=ConstantThreshold(8.0),
            trials=2 * 8192 + 500, master_seed=66,
        )
        reports = [run_cer(cfg, threads=k) for k in (1, 2, 4)]
        for other in reports[1:]:
            assert other.cer == reports[0].cer
            assert other.char_errors == reports[0].char_errors
            assert other.bit_counts == reports[0].bit_counts
            assert other.context_counts == reports[0].context_counts
            assert other.anomalies == reports[0].anomalies
        assert time.perf_counter() - t0 < 60.0


def test_criterion_7_error_rate_separation():
    with criterion(7, "proposed codebook wins at every equalized budget"):
        budgets = [50.0, 70.0, 85.0, 100.0, 120.0]
        rows = sweep(
            DIST, PARAMS, budgets=budgets, trials=100_000, master_seed=1,
            kinds=("huffman", "proposed", "ita2"), char_duration=0.5,
            msg_len=10, memory=10,
        )
        table = {(r["codebook"], r["molecules_per_char"]): r for r in rows}
        assert all(r["error"] is None for r in rows)

        for budget in budgets:
            prop = table[("proposed", budget)]
            for rival in ("huffman", "ita2"):
                other = table[(rival, budget)]
                gap = other["cer"] - prop["cer"]
                combined = math.hypot(prop["cer_stderr"], other["cer_stderr"])
                assert gap > 3.0 * combined, (budget, rival, gap, combined)

        for kind in ("huffman", "proposed", "ita2"):
            series = [table[(kind, b)]["cer"] for b in budgets]
            assert all(x > y for x, y in zip(series, series[1:])), (kind, series)


def test_criterion_8_round_trip():
    with criterion(8, "decode inverts encode on 10^4 texts per codebook"):
        hcb, pcb, icb = build_huffman(DIST), build_proposed(DIST), ita2()
        rng = np.random.default_rng(88)
        texts = random_texts(rng, 10_000)
        for text in texts:
            for cb in (hcb, pcb, icb):
                assert decode(encode(text, cb), cb).text == text
        streams = [encode(text, pcb) for text in texts]
        cleaned = _read_bits(bit_matrix(streams), 1, corrected=True)
        for text, bits, row in zip(texts, streams, cleaned):
            assert decode("".join(map(str, row[:len(bits)])), pcb).text == text
