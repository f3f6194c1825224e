"""The benchmark's workloads, its correctness gate and its round seeds.

Every workload uses the reference link: D = 79.4 um^2/s, r0 = 4 um,
rr = 2 um, memory 10 slots, 2 characters per second. A workload runs in
rounds; a round is the smallest unit of work it repeats, and each call in
a round (one run_cer, or one sweep row) is timed and checked on its own.
Calls go through module attributes at call time, so a tracer that
replaces those attributes sees them.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import yaml

from molcode import channel, cli, codebooks, codec, mc_sim

GEOMETRY = {"diffusion": 79.4, "distance": 4.0, "receiver_radius": 2.0}
MEMORY = 10
CHARS_PER_SECOND = 2.0
BUDGETS = (50, 70, 85, 100, 120)
KINDS = ("huffman", "proposed", "ita2")

#: Molecules per character of the constant-threshold workloads, and the
#: tau the reference sweep resolves there for each kind.
HOTPATH_BUDGET = 85
HOTPATH_TAUS = {"huffman": 8.29, "proposed": 5.44, "ita2": 6.28}

#: Trials per call. "tiny" exists for the benchmark's own tests.
TRIALS = {
    "full": {"cer_hotpath": 16384, "long_message": 8192, "sweep_reference": 16384},
    "tiny": {"cer_hotpath": 1024, "long_message": 256, "sweep_reference": 4096},
}

#: A CER further than this many combined standard errors from its
#: reference fails the gate.
GATE_SIGMAS = 5.0

#: Messages in molcode's default calibration batch when the references
#: were made. Two thresholds whose CERs differ by a few standard errors
#: at this size are both plausible picks, so the gate accepts either.
RESOLUTION_TRIALS = 10_000

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def round_seed(seed: int, index: int) -> int:
    """Master seed of round index of a run started with seed."""
    return int(np.random.SeedSequence((seed, index)).generate_state(1)[0])


@dataclasses.dataclass
class Call:
    """One timed public call and what the gate made of it."""

    label: str
    seconds: float
    chars: int
    problems: list[str]
    output: dict

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Gate:
    """Statistical check of CERs against stored reference values.

    A reference is keyed by kind, molecules per character, message length
    and the integer count threshold ceil(tau): slot counts are integers,
    so every tau with the same ceiling detects identically. Each entry
    holds the reference CER, its trial count and the standard deviation of
    one trial's CER, so the standard error of any call is sd1 / sqrt(trials)
    no matter which seed produced it. Calls are checked one by one, and
    the pooled CER of every key is checked once more at the end of a run;
    a repeated (key, seed) enters the pool once.

    Where the reference also records the thresholds that default
    resolution picked (the sweep's keys), the resolved threshold must be
    about as good as those: its reference CER may not exceed that of the
    worst picked threshold by more than GATE_SIGMAS combined standard
    errors of a RESOLUTION_TRIALS-message batch, the resolving power of
    calibration. A resolution that lands on a clearly worse neighbour
    fails even though its CER is right for the threshold it chose.
    """

    def __init__(self, reference: dict):
        self.reference = reference["references"]
        self.picked = reference["picked"]
        self._pooled: dict[tuple, dict] = {}

    @staticmethod
    def key(kind: str, budget: float, msg_len: int) -> str:
        return f"{kind}/{budget:g}/{msg_len}"

    def check(self, kind, budget, msg_len, tau, cer, trials, seed) -> str | None:
        key = self.key(kind, budget, msg_len)
        cut = str(math.ceil(tau))
        ref = self.reference.get(key, {}).get(cut)
        if ref is None:
            return f"{key}: no reference CER for count threshold {cut} (tau {tau!r})"
        self._pooled.setdefault((key, cut), {})[seed] = (cer, trials)
        return (self._compare(f"{key} tau {tau!r}", ref, cer, trials)
                or self._resolution(key, cut))

    def pooled_problems(self) -> list[str]:
        problems = []
        for (key, cut), runs in sorted(self._pooled.items()):
            trials = sum(n for _, n in runs.values())
            cer = sum(c * n for c, n in runs.values()) / trials
            problem = self._compare(f"pooled {key} cut {cut}", self.reference[key][cut],
                                    cer, trials)
            if problem:
                problems.append(problem)
        return problems

    def _resolution(self, key, cut) -> str | None:
        if key not in self.picked:
            return None
        refs = self.reference[key]
        worst = max(self.picked[key], key=lambda p: refs[p]["cer"])
        got, bar = refs[cut], refs[worst]
        se = math.hypot(got["sd1"], bar["sd1"]) / math.sqrt(RESOLUTION_TRIALS)
        if got["cer"] - bar["cer"] > GATE_SIGMAS * se:
            return (f"{key}: threshold resolved to count threshold {cut}, whose reference "
                    f"CER {got['cer']!r} is worse than that of count threshold {worst} "
                    f"({bar['cer']!r}), which default resolution picked")
        return None

    def _compare(self, label, ref, cer, trials) -> str | None:
        se = ref["sd1"] * math.sqrt(1.0 / trials + 1.0 / ref["trials"])
        if abs(cer - ref["cer"]) > GATE_SIGMAS * se:
            return (f"{label}: CER {cer!r} is {abs(cer - ref['cer']) / se:.1f} combined "
                    f"standard errors from the reference {ref['cer']!r}")
        return None


def load_reference() -> dict:
    """reference.json's "references" and "picked" maps."""
    doc = json.loads(REFERENCE_PATH.read_text())
    return {"references": doc["references"], "picked": doc["picked"]}


def link_config(kind, budget, msg_len, threshold, trials, master_seed=0):
    """LinkConfig of one kind on the reference link at budget molecules/char.

    The bit-1 budget is budget / E[ones](kind), rounded, the same
    equalization molcode's sweep applies.
    """
    dist = codebooks.english_letter_distribution()
    if kind == "ita2":
        cb = codebooks.ita2()
    else:
        cb = {"huffman": codebooks.build_huffman, "proposed": codebooks.build_proposed}[kind](dist)
    return mc_sim.LinkConfig.build(
        codebook=cb,
        distribution=dist,
        params=channel.ChannelParams(**GEOMETRY),
        molecules_per_one=int(round(budget / codebooks.expected_ones(cb, dist))),
        char_duration=1.0 / CHARS_PER_SECOND,
        threshold=threshold,
        msg_len=msg_len,
        memory=MEMORY,
        trials=trials,
        master_seed=master_seed,
    )


class RunCerWorkload:
    """Repeated run_cer calls with constant thresholds, one thread.

    A round is one call per kind; all calls of round r share its master
    seed.
    """

    threads = 1

    def __init__(self, kinds, msg_len: int, trials: int):
        self.kinds = kinds
        self.calls_per_round = len(kinds)
        self.msg_len = msg_len
        self.trials = trials
        self.configs = {}

    def setup(self, work_dir: Path) -> None:
        for kind in self.kinds:
            self.configs[kind] = link_config(
                kind, HOTPATH_BUDGET, self.msg_len,
                codec.ConstantThreshold(HOTPATH_TAUS[kind]), self.trials)

    def run_round(self, seed: int, gate: Gate) -> list[Call]:
        calls = []
        for kind, base in self.configs.items():
            cfg = dataclasses.replace(base, master_seed=seed)
            start = time.perf_counter()
            report = mc_sim.run_cer(cfg, threads=self.threads)
            seconds = time.perf_counter() - start
            problems = []
            if report.trials != cfg.trials or report.chars != cfg.trials * cfg.msg_len:
                problems.append(f"{kind}: report covers {report.trials} trials, "
                                f"{report.chars} chars")
            if report.char_errors != round(report.cer * report.chars):
                problems.append(f"{kind}: cer {report.cer!r} disagrees with "
                                f"{report.char_errors} errors")
            problem = gate.check(kind, HOTPATH_BUDGET, self.msg_len, report.tau,
                                 report.cer, report.trials, seed)
            if problem:
                problems.append(problem)
            calls.append(Call(
                label=kind,
                seconds=seconds,
                chars=report.chars,
                problems=problems,
                output={
                    "kind": kind,
                    "cer": repr(report.cer),
                    "char_errors": report.char_errors,
                    "tau": repr(report.tau),
                    "bit_counts": report.bit_counts,
                    "context_counts": report.context_counts,
                    "anomalies": report.anomalies,
                },
            ))
        return calls

    def close(self) -> None:
        pass


class _StampedLines:
    """A stderr stand-in that keeps each line with the time it ended."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def write(self, text: str) -> int:
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append((time.perf_counter(), line))
        return len(text)

    def flush(self) -> None:
        pass


class SweepWorkload:
    """`molcode simulate` over the reference grid, in process, 2 threads.

    A round is one cli.main call: 3 kinds x 5 budgets with the default
    thresholds (pilots for proposed, calibration for the others). A call
    is one sweep row; its latency runs from the previous row's progress
    line (or the start of cli.main) to its own.
    """

    threads = 2
    msg_len = 10
    calls_per_round = len(KINDS) * len(BUDGETS)

    def __init__(self, trials: int):
        self.trials = trials
        self.dir: Path | None = None

    def setup(self, work_dir: Path) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=work_dir))
        config = {
            "channel": {**GEOMETRY, "memory": MEMORY},
            "link": {"chars_per_second": CHARS_PER_SECOND, "msg_len": self.msg_len},
        }
        (self.dir / "config.yaml").write_text(yaml.safe_dump(config))

    def run_round(self, seed: int, gate: Gate) -> list[Call]:
        out = self.dir / "cer.csv"
        out.unlink(missing_ok=True)
        argv = [
            "--config", str(self.dir / "config.yaml"),
            "simulate",
            "--trials", str(self.trials),
            "--seed", str(seed),
            "--budgets", ",".join(str(b) for b in BUDGETS),
            "--kinds", ",".join(KINDS),
            "--threads", str(self.threads),
            "--out", str(out),
        ]
        stamps = _StampedLines()
        start = time.perf_counter()
        with contextlib.redirect_stderr(stamps):
            code = cli.main(argv)
        done = [t for t, line in stamps.lines if line.startswith("done ")]
        rows = list(csv.DictReader(out.open(newline=""))) if out.exists() else []

        calls = []
        grid = [(kind, budget) for kind in KINDS for budget in BUDGETS]
        previous = start
        for i, (kind, budget) in enumerate(grid):
            problems = []
            if code != 0:
                problems.append(f"molcode simulate exited with {code}")
            row = rows[i] if i < len(rows) else None
            ended = done[i] if i < len(done) else time.perf_counter()
            where = row and (row["codebook"], float(row["molecules_per_char"]))
            if where != (kind, budget):
                problems.append(f"{kind}/{budget}: row missing or out of order")
                output = None
            elif row["error"]:
                problems.append(f"{kind}/{budget}: error-tagged row {row['error']!r}")
                output = dict(row)
            elif int(row["trials"]) != self.trials:
                problems.append(f"{kind}/{budget}: row has {row['trials']} trials")
                output = dict(row)
            else:
                problem = gate.check(kind, budget, self.msg_len, float(row["tau"]),
                                     float(row["cer"]), self.trials, seed)
                if problem:
                    problems.append(problem)
                output = dict(row)
            calls.append(Call(
                label=f"{kind}/{budget}",
                seconds=ended - previous,
                chars=self.trials * self.msg_len,
                problems=problems,
                output=output,
            ))
            previous = ended

        # The paper's claim: the run-length-limited code has the lower CER
        # at every equal budget.
        cer = {(c.output["codebook"], float(c.output["molecules_per_char"])): c
               for c in calls if c.output and c.output["cer"]}
        for budget in BUDGETS:
            prop, huff = cer.get(("proposed", budget)), cer.get(("huffman", budget))
            if prop and huff and not float(prop.output["cer"]) < float(huff.output["cer"]):
                problem = (f"budget {budget}: proposed CER {prop.output['cer']} is not "
                           f"below huffman CER {huff.output['cer']}")
                prop.problems.append(problem)
                huff.problems.append(problem)
        return calls

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)


def make(name: str, size: str = "full"):
    trials = TRIALS[size][name]
    if name == "cer_hotpath":
        return RunCerWorkload(KINDS, msg_len=10, trials=trials)
    if name == "long_message":
        return RunCerWorkload(("huffman", "proposed"), msg_len=200, trials=trials)
    if name == "sweep_reference":
        return SweepWorkload(trials=trials)
    raise ValueError(f"unknown workload {name!r}")


def digest(calls: list[Call]) -> str:
    """sha256 of a round's outputs, to show whether two commits' streams agree."""
    text = json.dumps([c.output for c in calls], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
