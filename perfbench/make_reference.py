"""Regenerate perfbench/reference.json, the correctness gate's reference CERs.

    python3 perfbench/make_reference.py

For every (kind, molecules per character, message length) the benchmark
checks, it finds the integer count thresholds ceil(tau) that default
threshold resolution picks on a few round seeds, records them as
"picked", adds their neighbours, and runs a long run_cer at each with a
constant threshold. Master seeds are above 2**32,
so they never coincide with a benchmark round seed. Takes several minutes
on 2 cores.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from molcode import codec, mc_sim  # noqa: E402

import workloads  # noqa: E402

TRIALS = {10: 262_144, 200: 65_536}
PROBE_SEEDS = tuple(workloads.round_seed(s, 0) for s in range(1, 9))
SEED_BASE = 7_000_000_000


def targets():
    """(kind, budget, msg_len) -> count thresholds to measure, and the picks.

    The picks map the sweep's keys to the thresholds resolution chose.
    """
    out, picked = {}, {}
    for kind in workloads.KINDS:
        default = codec.PilotThreshold() if kind == "proposed" else codec.CalibratedThreshold()
        for budget in workloads.BUDGETS:
            cfg = workloads.link_config(kind, budget, 10, default, trials=1)
            cuts = {math.ceil(mc_sim.resolve_threshold(cfg, s)[0]) for s in PROBE_SEEDS}
            picked[workloads.Gate.key(kind, budget, 10)] = sorted(str(c) for c in cuts)
            out[(kind, budget, 10)] = {c + d for c in cuts for d in (-1, 0, 1) if c + d > 0}
    for kind, tau in workloads.HOTPATH_TAUS.items():
        out.setdefault((kind, workloads.HOTPATH_BUDGET, 10), set()).add(math.ceil(tau))
        if kind != "ita2":
            out[(kind, workloads.HOTPATH_BUDGET, 200)] = {math.ceil(tau)}
    return out, picked


def main() -> int:
    references: dict[str, dict] = {}
    index = 0
    cut_sets, picked = targets()
    for (kind, budget, msg_len), cuts in sorted(cut_sets.items()):
        key = workloads.Gate.key(kind, budget, msg_len)
        for cut in sorted(cuts):
            trials = TRIALS[msg_len]
            cfg = workloads.link_config(kind, budget, msg_len,
                                        codec.ConstantThreshold(float(cut)),
                                        trials, master_seed=SEED_BASE + index)
            index += 1
            report = mc_sim.run_cer(cfg, threads=2)
            references.setdefault(key, {})[str(cut)] = {
                "cer": report.cer,
                "sd1": report.cer_stderr * math.sqrt(trials),
                "trials": trials,
            }
            print(f"{key} cut {cut}: cer {report.cer:.6f} +- {report.cer_stderr:.6f}",
                  file=sys.stderr, flush=True)
    doc = {
        "about": "Reference CERs for the perfbench correctness gate; "
                 "regenerate with perfbench/make_reference.py.",
        "references": references,
        "picked": picked,
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
