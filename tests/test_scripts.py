"""scripts/bench.py runs perfbench on one or two checkouts and writes its summary.

Each test benchmarks a copy of the repository in tmp_path, because
perfbench writes its records into the checkout it runs in.
"""
import argparse
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "scripts" / "bench.py"
#: The rusage entries of a run, each per attempted call.
RUSAGE_KEYS = ("user_s_per_call", "system_s_per_call", "minor_faults_per_call")


def load_bench():
    """scripts/bench.py as a module, for its helpers."""
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def checkout_copy(tmp_path: Path) -> Path:
    """The files a benchmark run reads, copied to tmp_path / "checkout"."""
    copy = tmp_path / "checkout"
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_out", "*.egg-info")
    for name in ("src", "perfbench", "scripts"):
        shutil.copytree(ROOT / name, copy / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    return copy


def test_bench_writes_a_trajectory(tmp_path):
    copy = checkout_copy(tmp_path)
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(copy / "scripts" / "bench.py"), "--workloads", "cer_hotpath",
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
    assert set(run["rusage"]) == set(RUSAGE_KEYS)
    for entry in [*run["metrics"].values(), *run["rusage"].values()]:
        assert {"median", "min", "max"} <= set(entry)
        assert entry["min"] <= entry["median"] <= entry["max"]
    # The run and its set-up probes import numpy: they take CPU time and fault pages in.
    rusage = run["rusage"]
    assert rusage["user_s_per_call"]["min"] > 0 and rusage["minor_faults_per_call"]["min"] > 0
    assert rusage["system_s_per_call"]["min"] >= 0


def test_bench_compares_two_checkouts(tmp_path):
    # The same checkout under two labels: every pair is measured, and
    # the digests agree because the code is the same.
    copy = checkout_copy(tmp_path)
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(copy / "scripts" / "bench.py"), "--workloads", "cer_hotpath",
         "--checkout", str(copy), "--label", "first", "--checkout", str(copy),
         "--label", "second", "--seeds", "1", "--seconds", "0", "--size", "tiny",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert [c["label"] for c in doc["checkouts"]] == ["first", "second"]
    pair = doc["pairs"]["cer_hotpath"]
    assert pair["digests_equal"] is True
    first, second = (c["workloads"]["cer_hotpath"]["metrics"] for c in doc["checkouts"])
    firsts, seconds = (c["workloads"]["cer_hotpath"]["rusage"] for c in doc["checkouts"])
    assert set(pair["rusage"]) == set(RUSAGE_KEYS)
    for entry, a, b in [(pair[name], first[name], second[name])
                        for name in ("setup_s", "chars_per_s", "peak_rss_mb")] + [
                        (pair["rusage"][name], firsts[name], seconds[name])
                        for name in RUSAGE_KEYS]:
        assert entry["pairs"] == 1
        assert entry["second_better"] + entry["second_worse"] <= 1
        assert entry["median_change"] == (pytest.approx(b["median"] / a["median"] - 1)
                                          if a["median"] else None)
        assert entry["resolved"] is (abs(b["median"] - a["median"]) > a["q3"] - a["q1"])


@pytest.mark.parametrize("text, seeds", [
    ("1", [1]), ("1-3,7", [1, 2, 3, 7]), ("0,4-4,2", [0, 4, 2]),
])
def test_parse_seeds(text, seeds):
    assert load_bench().parse_seeds(text) == seeds


@pytest.mark.parametrize("text, message", [
    ("1,5-3", "'5-3' runs backwards"),
    ("2,2", "'2' repeats seed 2"),
    ("1-4,3-6", "'3-6' repeats seed 3"),
    ("1,x", "'x' is not"),
    ("-3", "'-3' is not"),
    ("", "'' is not"),
])
def test_parse_seeds_names_the_bad_part(text, message):
    with pytest.raises(argparse.ArgumentTypeError, match=message):
        load_bench().parse_seeds(text)


def test_bad_seeds_stop_the_run_before_it_starts(tmp_path):
    out = tmp_path / "x.json"
    proc = subprocess.run([sys.executable, str(BENCH), "--seeds", "1,5-3", "--out", str(out)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "seed range '5-3' runs backwards" in proc.stderr
    assert not out.exists()


def fake_record(tree: str) -> dict:
    """A perfbench record whose round0_digest names the tree that made it."""
    meta = {"git_revision": None, "threads": 1, "numpy": "n", "python": "p", "nproc": 1,
            "round0_digest": tree}
    metrics = {name: {"value": 1.0} for name in ("setup_s", "chars_per_s", "peak_rss_mb")}
    return {"meta": meta,
            "result": {"attempted": 1, "failed": 0, "correct": True, "metrics": metrics},
            "rusage": {"user_s_per_call": 1.0, "system_s_per_call": 0.1,
                       "minor_faults_per_call": 100.0}}


def test_swap_halves_runs_each_checkout_in_both_directories(tmp_path, monkeypatch):
    bench = load_bench()
    dirs = {}
    for name in ("parent", "change"):
        dirs[name] = tmp_path / name
        dirs[name].mkdir()
        (dirs[name] / "tree").write_text(name)
    ran = []

    def run_once(checkout, workload, seed, seconds, size):
        tree = (checkout / "tree").read_text()
        ran.append((seed, tree, checkout.name))
        return fake_record(tree)

    monkeypatch.setattr(bench, "run_once", run_once)
    out = tmp_path / "bench.json"
    assert bench.main([
        "--checkout", str(dirs["parent"]), "--label", "parent",
        "--checkout", str(dirs["change"]), "--label", "change", "--workloads",
        "cer_hotpath,sweep_reference", "--seeds", "1-3", "--swap-halves", "--out", str(out),
    ]) == 0
    # Seeds 1 and 2 run in each checkout's own directory, seed 3 in the
    # other's, for every workload; each label's records come from its tree.
    own = {(seed, name, name) for seed in (1, 2) for name in dirs}
    other = {(3, "parent", "change"), (3, "change", "parent")}
    assert sorted(ran) == sorted(list(own | other) * 2)
    doc = json.loads(out.read_text())
    assert doc["benchmark"]["swapped_seeds"] == [3]
    for checkout in doc["checkouts"]:
        for run in checkout["workloads"].values():
            assert set(run["round0_digest"].values()) == {checkout["label"]}
    assert {name: (d / "tree").read_text() for name, d in dirs.items()} == {
        "parent": "parent", "change": "change"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bench.json", "change", "parent"]


def test_swapped_directories_return_after_an_error(tmp_path):
    bench = load_bench()
    first, second = tmp_path / "a", tmp_path / "b"
    for d in (first, second):
        d.mkdir()
        (d / "tree").write_text(d.name)
    with pytest.raises(RuntimeError, match="mid-run"):
        with bench.swapped(first, second):
            assert (first / "tree").read_text() == "b"
            raise RuntimeError("mid-run")
    assert [(d / "tree").read_text() for d in (first, second)] == ["a", "b"]


@pytest.mark.parametrize("checkouts", [["one"], ["one", "one"], ["one", "one/two"]],
                         ids=["single", "same", "nested"])
def test_swap_halves_needs_two_separate_checkouts(tmp_path, checkouts, capsys):
    argv = ["--swap-halves", "--out", str(tmp_path / "x.json")]
    for i, name in enumerate(checkouts):
        (tmp_path / name).mkdir(parents=True, exist_ok=True)
        argv += ["--checkout", str(tmp_path / name), "--label", f"side{i}"]
    with pytest.raises(SystemExit) as exit_info:
        load_bench().main(argv)
    assert exit_info.value.code == 2
    assert "neither inside the other" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


def test_chunk_memory_names_each_stage_and_the_peak():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "chunk_memory.py"), "--msg-len", "10",
         "--trials", "256", "--kinds", "huffman,proposed"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    stages = ["draw", "lay", "counts", "read", "decode", "score"]
    assert lines[1].split() == ["kind", "max_t", "releases", *stages]
    for kind, row, verdict in zip(("huffman", "proposed"), lines[2::2], lines[3::2]):
        name, max_t, releases, *peaks = row.split()
        assert name == kind and int(max_t) >= 10 and int(releases) > 0
        peaks = dict(zip(stages, map(float, peaks)))
        # "<kind> peaks at <MiB> MiB in <stage>, <B> B per message x slot"
        said, verb, _, mib, _, _, top, *_ = verdict.split()
        assert (said, verb) == (kind, "peaks") and top.rstrip(",") in stages
        assert float(mib) == peaks[top.rstrip(",")] == max(peaks.values()) > 0
