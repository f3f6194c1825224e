"""molcode benchmark: character-error-rate simulation throughput.

Run from the repository root:

    python3 perfbench/run.py --workload cer_hotpath --seed 1 --seconds 30 --trace 0

It imports molcode from src/ of the same checkout, runs the workload in
rounds for about --seconds (always at least one round), checks
every output against the stored references, and prints a metric table
followed, as the last line, by one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced rounds of identical work and
reports the per-layer metrics from the traced ones, plus the tracing
overhead. A result file (and with --trace 1 the span file) is written to
.perfbench_out/ at the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Extra fresh processes that repeat the set-up, so setup_s is a median.
#: They are spread over the run, between rounds, outside the timed body.
SETUP_PROBES = 8


def load_package():
    """Import molcode from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "molcode" / "__init__.py").is_file():
        print(f"error: no molcode package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import molcode

    if Path(molcode.__file__).resolve().parent != (src / "molcode").resolve():
        print(f"error: molcode was imported from {molcode.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return molcode


def timed_setup(workload: str, size: str):
    """Build the workload; return it and the seconds from `import molcode`.

    numpy and yaml, third-party dependencies whose import no change to
    molcode can speed up, are imported before the clock starts.
    """
    import numpy  # noqa: F401
    import yaml  # noqa: F401

    start = time.perf_counter()
    load_package()
    import workloads

    wl = workloads.make(workload, size)
    OUT_DIR.mkdir(exist_ok=True)
    wl.setup(OUT_DIR)
    return wl, time.perf_counter() - start


def probe_setup(workload: str, size: str) -> float:
    """Set-up time of the workload in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", "0", "--size", size],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def l3_bytes() -> int | None:
    try:
        done = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                              text=True, timeout=10)
        return int(done.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def run_rounds(wl, gate, seed: int, seconds: float, tracer=None, between=None):
    """Run rounds until their total time is about seconds.

    Returns the untraced and traced round times and the calls. Untraced,
    round i uses round_seed(seed, i). With a tracer, every round uses
    round 0's seed and runs twice, traced and untraced, in alternating
    order. After each round, between(share) is called with the share of
    seconds used so far; its own time is not counted.
    """
    from workloads import Call, round_seed

    untraced, traced, calls = [], [], []

    def one(seed, label):
        if label is not None:
            tracer.round = label
            tracer.install()
        start = time.perf_counter()
        try:
            got = wl.run_round(seed, gate)
        except Exception as exc:  # a failing round is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            got = [Call("round", time.perf_counter() - start, 0,
                        [f"round raised {exc!r}"], None)] * wl.calls_per_round
        finally:
            if label is not None:
                tracer.uninstall()
        (traced if label is not None else untraced).append(time.perf_counter() - start)
        calls.append(got)

    index = 0
    body = 0.0
    while True:
        began = time.perf_counter()
        if tracer is None:
            one(round_seed(seed, index), None)
        else:
            order = (None, f"round {index}") if index % 2 == 0 else (f"round {index}", None)
            for label in order:
                one(round_seed(seed, 0), label)
        index += 1
        took = time.perf_counter() - began
        body += took
        if between is not None:
            between(min(body / seconds, 1.0) if seconds > 0 else 1.0)
        # Stop where the body length comes closest to the budget.
        if body + 0.5 * took > seconds:
            return untraced, traced, calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cer_hotpath", "long_message", "sweep_reference"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every call; for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.setup_probe:
        wl, seconds = timed_setup(args.workload, args.size)
        wl.close()
        print(repr(seconds))
        return 0

    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
        reference: dict | None = None) -> dict:
    """Run one workload and return the result object the last line prints."""
    recorder = None
    if trace:
        load_package()
        import tracer as tracing

        recorder = tracing.Tracer()
        recorder.install()
    try:
        wl, first = timed_setup(workload, size)
    finally:
        if recorder is not None:
            recorder.uninstall()
    import molcode
    import numpy
    import workloads

    gate = workloads.Gate(workloads.load_reference() if reference is None else reference)
    setup_times = [first]

    def probe(share):
        while len(setup_times) - 1 < round(SETUP_PROBES * share):
            setup_times.append(probe_setup(workload, size))

    try:
        untraced, traced, rounds = run_rounds(wl, gate, seed, seconds, recorder,
                                              None if trace else probe)
    finally:
        wl.close()

    calls = [c for got in rounds for c in got]
    problems = [p for c in calls for p in c.problems] + gate.pooled_problems()
    failed = sum(1 for c in calls if c.failed)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)

    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "threads": wl.threads,
        "git_revision": git_revision(),
        "molcode": molcode.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
        "rounds": len(rounds),
        "calls": len(calls),
        "round0_digest": workloads.digest(rounds[0]),
    }
    if trace:
        tags = tracing.layer_metrics(recorder)
        overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
        tags["tracing.overhead"] = {"value": overhead, "unit": "ratio", "tag": "measured"}
        span_file = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        recorder.write(span_file)
        meta["span_file"] = str(span_file.relative_to(ROOT))
        meta["traced_rounds"] = len(traced)
    else:
        meta["setup_samples"] = [round(t, 4) for t in setup_times]
        tags = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s",
                        "samples": len(setup_times)},
            "chars_per_s": {"value": sum(c.chars for c in calls) / sum(untraced),
                            "unit": "chars/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
        }
        for entry in tags.values():
            entry["tag"] = "measured"
    # Printed and recorded but not in the result line: failed_frac is
    # carried by the attempted and failed counts, and call_s_p50 times the
    # same calls as chars_per_s.
    extra = {"failed_frac": {"value": failed / len(calls), "unit": "ratio",
                             "tag": "measured", "samples": len(calls)}}
    if not trace:
        by_label: dict[str, list] = {}
        for c in calls:
            by_label.setdefault(c.label, []).append(c.seconds)
        extra["call_s_p50"] = {
            "value": statistics.median(statistics.median(v) for v in by_label.values()),
            "unit": "s", "tag": "measured", "samples": len(calls)}

    for key, value in meta.items():
        print(f"# {key}: {value}")
    for name, entry in {**tags, **extra}.items():
        note = entry.get("absent") or entry["tag"]
        samples = f", n={entry['samples']}" if "samples" in entry else ""
        value = "absent" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{name:36s} {value:>14s} {entry['unit']:8s} ({note}{samples})")

    result = {
        "correct": not problems,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": e["value"], "unit": e["unit"]} for name, e in tags.items()},
    }
    record = {"meta": meta, "metrics": {**tags, **extra}, "problems": problems,
              "result": result,
              "calls": [[c.label, c.seconds] for c in calls]}
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    return result


if __name__ == "__main__":
    sys.exit(main())
