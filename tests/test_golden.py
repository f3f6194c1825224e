"""Golden outputs: exact CerReport fields of a small seeded sweep.

The data in data/golden_sweep.json was produced by the simulator before
its hot path was last optimized. Any change that alters a random stream,
a detection decision or a score shows up here as an exact mismatch, not
just as a statistical drift. A change that moves the streams on purpose
must say so and rewrite the file:

    PYTHONPATH=src python tests/test_golden.py --write
"""
import json
import sys
from pathlib import Path

import pytest

from molcode import (
    CalibratedThreshold,
    ChannelParams,
    LinkConfig,
    PilotThreshold,
    build_huffman,
    build_proposed,
    english_letter_distribution,
    ita2,
    resolve_threshold,
    run_cer,
)
from molcode.mc_sim import _budget_share

GOLDEN_PATH = Path(__file__).with_name("data") / "golden_sweep.json"

PARAMS = ChannelParams(diffusion=79.4, distance=4.0, receiver_radius=2.0)
KINDS = ("huffman", "proposed", "ita2")
BUILDERS = {"huffman": build_huffman, "proposed": build_proposed, "ita2": lambda d: ita2()}
#: The thresholds sweep uses by default: calibration for the conventional
#: kinds, pilots for the run-length-limited one.
DEFAULT_THRESHOLDS = {
    "huffman": CalibratedThreshold(),
    "proposed": PilotThreshold(),
    "ita2": CalibratedThreshold(),
}

SWEEP_BUDGETS = (70, 100)
SWEEP_TRIALS = 8192
SWEEP_SEED = 7

#: The reference sweep of `molcode simulate` (budgets and seed are the CLI
#: defaults); only its calibrated rows are pinned.
REFERENCE_BUDGETS = (50, 70, 85, 100, 120)
REFERENCE_SEED = 1
CALIBRATED_KINDS = ("huffman", "ita2")


def _config(kind, budget, trials, seed):
    dist = english_letter_distribution()
    cb = BUILDERS[kind](dist)
    return LinkConfig.build(
        codebook=cb,
        distribution=dist,
        params=PARAMS,
        molecules_per_one=_budget_share(dist, cb, budget),
        char_duration=0.5,
        threshold=DEFAULT_THRESHOLDS[kind],
        msg_len=10,
        memory=10,
        trials=trials,
        master_seed=seed,
    )


def _report_fields(report) -> dict:
    cfg = report.config
    return {
        "cer": report.cer,
        "cer_stderr": report.cer_stderr,
        "char_errors": report.char_errors,
        "chars": report.chars,
        "trials": report.trials,
        "tau": report.tau,
        "threshold_origin": report.threshold_origin,
        "master_seed": report.master_seed,
        "bit_counts": report.bit_counts,
        "context_counts": report.context_counts,
        "context_rates": report.context_rates,
        "anomalies": report.anomalies,
        "config": {
            "codebook": cfg.codebook.kind,
            "molecules_per_one": cfg.molecules_per_one,
            "slot": cfg.profile.slot,
            "char_duration": cfg.char_duration,
            "threshold": repr(cfg.threshold),
            "msg_len": cfg.msg_len,
            "trials": cfg.trials,
            "master_seed": cfg.master_seed,
        },
    }


def _sweep_key(kind, budget):
    return f"{kind}/{budget}"


def compute_sweep() -> dict:
    return {
        _sweep_key(kind, budget): _report_fields(
            run_cer(_config(kind, budget, SWEEP_TRIALS, SWEEP_SEED))
        )
        for kind in KINDS
        for budget in SWEEP_BUDGETS
    }


def compute_reference_taus() -> dict:
    out = {}
    for kind in CALIBRATED_KINDS:
        for budget in REFERENCE_BUDGETS:
            cfg = _config(kind, budget, 1, REFERENCE_SEED)
            tau, origin = resolve_threshold(cfg, REFERENCE_SEED)
            assert origin == "calibrated"
            out[_sweep_key(kind, budget)] = tau
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_sweep_reports_match_golden(golden):
    got = compute_sweep()
    assert sorted(got) == sorted(golden["sweep"])
    for key, fields in golden["sweep"].items():
        # Round-tripping through JSON also demands plain Python numbers:
        # numpy scalars compare equal but do not serialize.
        assert json.loads(json.dumps(got[key])) == fields, key


def test_reference_sweep_calibrated_taus_match_golden(golden):
    assert compute_reference_taus() == golden["reference_taus"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    doc = {"sweep": compute_sweep(), "reference_taus": compute_reference_taus()}
    GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
