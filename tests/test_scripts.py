"""scripts/bench.py runs perfbench on one or two checkouts and writes its summary."""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_bench_writes_a_trajectory(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--workloads", "cer_hotpath",
         "--seeds", "1", "--seconds", "0", "--size", "tiny", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["benchmark"]["seeds"] == [1] and "pairs" not in doc
    (checkout,) = doc["checkouts"]
    run = checkout["workloads"]["cer_hotpath"]
    assert {"git_revision", "threads", "numpy", "round0_digest", "failed"} <= set(run)
    assert run["threads"] == 1 and run["failed"] == 0 and set(run["round0_digest"]) == {"1"}
    assert set(run["metrics"]) == {"setup_s", "chars_per_s", "peak_rss_mb"}
    for entry in run["metrics"].values():
        assert {"median", "min", "max"} <= set(entry)
        assert entry["min"] <= entry["median"] <= entry["max"]


def test_bench_compares_two_checkouts(tmp_path):
    # The same checkout under two labels: every pair is measured, and
    # the digests agree because the code is the same.
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--workloads", "cer_hotpath",
         "--checkout", str(ROOT), "--label", "first", "--checkout", str(ROOT),
         "--label", "second", "--seeds", "1", "--seconds", "0", "--size", "tiny",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert [c["label"] for c in doc["checkouts"]] == ["first", "second"]
    pair = doc["pairs"]["cer_hotpath"]
    assert pair["digests_equal"] is True
    medians = [{name: entry["median"] for name, entry in c["workloads"]["cer_hotpath"]
                ["metrics"].items()} for c in doc["checkouts"]]
    for name in ("setup_s", "chars_per_s", "peak_rss_mb"):
        entry = pair[name]
        assert entry["pairs"] == 1
        assert entry["second_better"] + entry["second_worse"] <= 1
        assert entry["median_change"] == pytest.approx(medians[1][name] / medians[0][name] - 1)
