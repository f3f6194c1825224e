"""The benchmark's own tests: python3 -m pytest perfbench

Each workload runs at the tiny size and must print every metric that
BENCHMARK.json names, with its unit; a perturbed reference CER must fail
the gate, and so must a threshold resolution that lands on a worse
neighbouring threshold; and without the package the command must fail
without a result.
"""
from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))


def bench(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return done


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), (m["name"], got)
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_perturbed_reference_fails_the_gate():
    import run

    run.load_package()
    import workloads

    reference = copy.deepcopy(workloads.load_reference())
    entry = reference["references"]["proposed/85/10"]["6"]
    entry["cer"] += 0.05
    result = run.run("cer_hotpath", 5, 0.0, False, "tiny", reference=reference)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["failed"] < result["attempted"]

    assert run.run("cer_hotpath", 5, 0.0, False, "tiny")["correct"] is True


def test_resolution_to_a_worse_threshold_fails_the_gate(monkeypatch, capsys):
    import run

    run.load_package()
    from molcode import mc_sim

    resolve = mc_sim.resolve_threshold

    def one_count_higher(cfg, master_seed):
        tau, origin = resolve(cfg, master_seed)
        return float(math.ceil(tau) + 1), origin

    monkeypatch.setattr(mc_sim, "resolve_threshold", one_count_higher)
    result = run.run("sweep_reference", 5, 0.0, False, "tiny")
    assert result["correct"] is False
    assert result["failed"] >= 1
    # The CERs are right for the thresholds used; only their choice fails.
    err = capsys.readouterr().err
    assert "which default resolution picked" in err
    assert "standard errors" not in err


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "cer_hotpath", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
