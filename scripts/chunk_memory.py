#!/usr/bin/env python3
"""Per-stage tracemalloc peaks of one simulator chunk, for each codebook kind.

Traces one mc_sim._run_chunk per kind, its messages and one link on the
molcode command's default channel and character rate at a molecule
budget per character, read at the constant threshold TAU, and prints
the traced peak of each stage of the chunk:

    draw    the chunk's symbols (_inversion.Table.draw)
    lay     their release positions (CodeTables.lay_ones)
    counts  the slot counts (mc_sim._accumulate_counts)
    read    the read bits (codec._read_bits)
    decode  the trie walk and its scores (codec._decode_rows)
    score   the bit and context totals, from the decode's return on

A stage's peak counts every array the chunk holds while it runs, so the
largest is the chunk's peak, and the line after each kind's stages names
the stage that sets it. The peak is also given in bytes per message x
slot of the longest message, max_t. Each kind's tables are built before
tracing starts.

Usage:
    python scripts/chunk_memory.py                 # 8192 x 200 at 85 molecules/char
    python scripts/chunk_memory.py --msg-len 10 --budget 50 --kinds proposed
"""
from __future__ import annotations

import argparse
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from molcode import _inversion, cli, codebooks, mc_sim  # noqa: E402
from molcode.codec import ConstantThreshold  # noqa: E402

#: The constant threshold every chunk is read at.
TAU = 8.0
#: The stages in the order a chunk runs them.
STAGES = ("draw", "lay", "counts", "read", "decode", "score")
#: The function each stage but the last runs in, as (owner, attribute).
SEAMS = {
    "draw": (_inversion.Table, "draw"),
    "lay": (codebooks.CodeTables, "lay_ones"),
    "counts": (mc_sim, "_accumulate_counts"),
    "read": (mc_sim, "_read_bits"),
    "decode": (mc_sim, "_decode_rows"),
}


class StagePeaks:
    """The traced peak of every stage, kept while the seams are wrapped.

    Entering a seam closes the stage that ran until then: its peak is the
    traced peak since the last close, and the peak is reset. After a seam
    returns the chunk stays in its stage, until the next seam; after the
    decode it is in score.
    """

    def __init__(self) -> None:
        self.peaks = dict.fromkeys(STAGES, 0)
        self.stage = STAGES[0]

    def close(self, next_stage: str) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        self.peaks[self.stage] = max(self.peaks[self.stage], peak)
        tracemalloc.reset_peak()
        self.stage = next_stage

    def wrap(self, stage: str, fn):
        after = "score" if stage == "decode" else stage

        def traced(*args, **kwargs):
            self.close(stage)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(after)

        return traced


def trace_chunk(cfg: mc_sim.LinkConfig, trials: int) -> tuple:
    """The stage peaks, max_t and release count of one chunk of cfg, the
    first main chunk of master seed 0, read at TAU."""
    mc_sim._build_link_tables(cfg)
    guide = mc_sim._symbol_guide(cfg)
    seed_tuple = (0, mc_sim._MAIN_TAG, 0)
    messages = mc_sim._draw_messages(cfg, guide, trials, seed_tuple)
    max_t, releases = messages.shape[1], messages.where.size
    del messages
    stages = StagePeaks()
    originals = {stage: getattr(*seam) for stage, seam in SEAMS.items()}
    for stage, (owner, name) in SEAMS.items():
        setattr(owner, name, stages.wrap(stage, originals[stage]))
    tracemalloc.start()
    try:
        mc_sim._run_chunk([cfg], [TAU], guide, trials, seed_tuple)
        stages.close("score")
    finally:
        tracemalloc.stop()
        for stage, (owner, name) in SEAMS.items():
            setattr(owner, name, originals[stage])
    return stages.peaks, max_t, releases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--msg-len", type=int, default=200)
    parser.add_argument("--budget", type=float, default=85.0,
                        help="molecules per character (default 85)")
    parser.add_argument("--trials", type=int, default=mc_sim.CHUNK_TRIALS)
    parser.add_argument("--kinds", default=",".join(codebooks.KINDS))
    args = parser.parse_args(argv)

    dist = codebooks.english_letter_distribution()
    params = cli._channel_params(cli.DEFAULTS)
    mib = 1 << 20
    print(f"{args.trials} x {args.msg_len} chunk at {args.budget:g} molecules/char, "
          f"tau {TAU:g}; tracemalloc peaks in MiB")
    print(f"{'kind':<10}{'max_t':>6}{'releases':>10}"
          + "".join(f"{stage:>8}" for stage in STAGES))
    for kind in args.kinds.split(","):
        cb = codebooks.build(kind, dist)
        cfg = mc_sim.LinkConfig(
            codebook=cb, distribution=dist, params=params,
            molecules_per_one=mc_sim._budget_share(dist, cb, args.budget),
            char_duration=cli._char_duration(cli.DEFAULTS),
            threshold=ConstantThreshold(TAU),
            msg_len=args.msg_len, memory=cli.DEFAULTS["channel"]["memory"],
            trials=args.trials,
        )
        peaks, max_t, releases = trace_chunk(cfg, args.trials)
        print(f"{kind:<10}{max_t:>6}{releases:>10}"
              + "".join(f"{peaks[stage] / mib:>8.1f}" for stage in STAGES))
        top = max(STAGES, key=peaks.get)
        print(f"  {kind} peaks at {peaks[top] / mib:.1f} MiB in {top}, "
              f"{peaks[top] / (args.trials * max_t):.1f} B per message x slot")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
