#!/usr/bin/env python3
"""Benchmark trajectory: repeated perfbench runs summarized in one JSON file.

Runs perfbench/run.py of each checkout once per seed for each workload,
untraced, for the run length BENCHMARK.json sets unless --seconds says
otherwise. With several checkouts every seed runs all of them back to
back, and the order rotates from one seed to the next, so drift on a
noisy machine hits each side alike.

The output holds, per checkout and workload, the median, quartiles,
minimum and maximum of every end-to-end metric BENCHMARK.json names, the
round0_digest of every seed, the attempted and failed call counts, and
the git revision, thread count and numpy version from the run records.
It also summarizes, under "rusage", each run's user and system CPU
seconds and minor page faults per call: resource.getrusage(RUSAGE_CHILDREN)
differences around the run's subprocess, divided by the calls the run
attempted. A run lasts a fixed time, so its totals grow with its speed;
per call they do not. They still include the set-up probes perfbench
starts in processes of its own, spread over the calls, and the CPU time
of every thread. With exactly two checkouts it also gives, per workload and
metric (the rusage entries under "rusage"), the
size of the change (the second median over the first, minus 1), whether
that change is resolved (the medians differ by more than the first
checkout's interquartile range), and the seeds on which the second did
better than the first, and says whether their digests agree on every
seed.

A run's memory can depend on the directory it runs in, so --swap-halves
swaps two checkouts' directories (three renames) for the second half of
each workload's seeds: each checkout then runs half its seeds in either
directory, and one command gives a comparison free of that bias. The
directories are swapped back when the half ends, also on an error.

Usage:
    python scripts/bench.py --out BENCH.json
    python scripts/bench.py --checkout ../parent --label parent \\
        --checkout ../change --label change --seeds 1-10 --swap-halves --out BENCH.json
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: What run_once measures of each run, summarized and compared as the metrics.
RUSAGE = [
    {"name": "user_s_per_call", "unit": "s", "better": "lower"},
    {"name": "system_s_per_call", "unit": "s", "better": "lower"},
    {"name": "minor_faults_per_call", "unit": "count", "better": "lower"},
]


def parse_seeds(text: str) -> list[int]:
    """"1-3,7" -> [1, 2, 3, 7].

    A part that is not a seed or a range, a range that runs backwards and
    a seed named twice are errors that name the part.
    """
    seeds: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        try:
            low, high = int(first), int(last or first)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{part!r} is not a non-negative seed or range of seeds") from None
        if high < low:
            raise argparse.ArgumentTypeError(f"seed range {part!r} runs backwards")
        repeated = sorted(set(seeds).intersection(range(low, high + 1)))
        if repeated:
            raise argparse.ArgumentTypeError(
                f"{part!r} repeats seed {repeated[0]}; each seed runs once")
        seeds.extend(range(low, high + 1))
    return seeds


def dirty(checkout: Path) -> bool | None:
    """Whether tracked files differ from the checked-out commit (None: no git)."""
    try:
        done = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                              cwd=checkout, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(done.stdout.strip()) if done.returncode == 0 else None


@contextlib.contextmanager
def swapped(first: Path, second: Path):
    """Swap the directories first and second by name until the block ends.

    A spare name beside first holds one of them for the middle rename; it
    must not exist.
    """
    spare = first.with_name(f".{first.name}.bench-swap")
    if spare.exists():
        raise SystemExit(f"error: cannot swap checkouts: {spare} exists")

    def swap():
        first.rename(spare)
        second.rename(first)
        spare.rename(second)

    swap()
    try:
        yield
    finally:
        swap()


def run_once(checkout: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """One untraced perfbench run; returns its record file, with the
    run's RUSAGE, per attempted call, under "rusage"."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0", "--size", size],
        cwd=checkout, capture_output=True, text=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if done.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed} in {checkout} exited "
                         f"{done.returncode}:\n{done.stderr}")
    record = json.loads(
        (checkout / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    calls = record["result"]["attempted"]
    record["rusage"] = {"user_s_per_call": (after.ru_utime - before.ru_utime) / calls,
                        "system_s_per_call": (after.ru_stime - before.ru_stime) / calls,
                        "minor_faults_per_call": (after.ru_minflt - before.ru_minflt) / calls}
    return record


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "values": values}


def summarize(records: dict[int, dict], metrics: list[dict]) -> dict:
    """One checkout's runs of one workload, keyed by seed."""
    first = next(iter(records.values()))["meta"]
    out = {key: first[key] for key in ("git_revision", "threads", "numpy", "python", "nproc")}
    out.update(
        runs=len(records),
        attempted=sum(r["result"]["attempted"] for r in records.values()),
        failed=sum(r["result"]["failed"] for r in records.values()),
        correct=all(r["result"]["correct"] for r in records.values()),
        round0_digest={str(seed): r["meta"]["round0_digest"] for seed, r in records.items()},
    )
    for key, specs, value in (
            ("metrics", metrics, lambda r, name: r["result"]["metrics"][name]["value"]),
            ("rusage", RUSAGE, lambda r, name: r["rusage"][name])):
        out[key] = {m["name"]: {"unit": m["unit"], "better": m["better"],
                                **summary([value(r, m["name"]) for r in records.values()])}
                    for m in specs}
    return out


def compare(first: dict, second: dict, metrics: list[dict]) -> dict:
    """Per metric, and per RUSAGE entry under "rusage", second's median
    over first's minus 1 (None if first's is 0), whether the medians differ
    by more than first's interquartile range q3 - q1, and the seeds on which
    second beat first; ties count for neither."""

    def change(a_side: dict, b_side: dict) -> dict:
        sign = 1 if a_side["better"] == "higher" else -1
        pairs = list(zip(a_side["values"], b_side["values"]))
        return {
            "median_change": (b_side["median"] / a_side["median"] - 1
                              if a_side["median"] else None),
            "resolved": abs(b_side["median"] - a_side["median"]) > a_side["q3"] - a_side["q1"],
            "pairs": len(pairs),
            "second_better": sum(sign * (b - a) > 0 for a, b in pairs),
            "second_worse": sum(sign * (b - a) < 0 for a, b in pairs),
        }

    out = {"digests_equal": first["round0_digest"] == second["round0_digest"]}
    for m in metrics:
        out[m["name"]] = change(first["metrics"][m["name"]], second["metrics"][m["name"]])
    out["rusage"] = {m["name"]: change(first["rusage"][m["name"]], second["rusage"][m["name"]])
                     for m in RUSAGE}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", type=Path, action="append",
                    help="repository to measure; repeat to compare (default: this one)")
    ap.add_argument("--label", action="append",
                    help="name of each checkout in the output (default: its directory name)")
    ap.add_argument("--workloads", default=",".join(names),
                    help=f"comma-separated subset of {','.join(names)}")
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-5"),
                    help="seeds to run, as in 1-10 or 1,4,9 (default 1-5)")
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                    help="run length of each perfbench run (default: BENCHMARK.json's)")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--swap-halves", action="store_true",
                    help="swap the two checkouts' directories for the second half "
                         "of each workload's seeds")
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = ap.parse_args(argv)

    checkouts = [c.resolve() for c in args.checkout or [ROOT]]
    labels = args.label or [c.name for c in checkouts]
    if len(labels) != len(checkouts) or len(set(labels)) != len(labels):
        ap.error("give one distinct --label per --checkout")
    workloads = args.workloads.split(",")
    if set(workloads) - set(names):
        ap.error(f"unknown workloads: {', '.join(sorted(set(workloads) - set(names)))}")

    if args.swap_halves and (len(checkouts) != 2 or any(
            a == b or a in b.parents for a, b in (checkouts, checkouts[::-1]))):
        ap.error("--swap-halves needs two --checkout directories, neither inside the other")
    swap_at = (len(args.seeds) + 1) // 2 if args.swap_halves else len(args.seeds)

    records = {label: {w: {} for w in workloads} for label in labels}
    for workload in workloads:
        with contextlib.ExitStack() as stack:
            for i, seed in enumerate(args.seeds):
                if i == swap_at:
                    stack.enter_context(swapped(*checkouts))
                # Once swapped, each label's tree sits in the other's directory.
                sides = list(zip(labels, checkouts if i < swap_at else checkouts[::-1]))
                shift = i % len(sides)
                for label, checkout in sides[shift:] + sides[:shift]:
                    rec = run_once(checkout, workload, seed, args.seconds, args.size)
                    records[label][workload][seed] = rec
                    metrics = rec["result"]["metrics"]
                    print(f"{workload} seed {seed} {label}: " + ", ".join(
                        [f"{k} {v['value']:.6g}" for k, v in metrics.items()]
                        + [f"{k} {v:.6g}" for k, v in rec["rusage"].items()]), file=sys.stderr)

    metrics = spec["end_to_end"]
    doc = {
        "benchmark": {"command": spec["command"], "seconds": args.seconds, "size": args.size,
                      "seeds": args.seeds, "swapped_seeds": args.seeds[swap_at:],
                      "workloads": workloads},
        "checkouts": [
            {"label": label, "dirty": dirty(checkout),
             "workloads": {w: summarize(records[label][w], metrics) for w in workloads}}
            for label, checkout in zip(labels, checkouts)
        ],
    }
    if len(checkouts) == 2:
        first, second = (c["workloads"] for c in doc["checkouts"])
        doc["pairs"] = {w: compare(first[w], second[w], metrics) for w in workloads}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
