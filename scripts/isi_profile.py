#!/usr/bin/env python3
"""Interference lag profiles: closed form against the stream oracle.

For each codebook the table lists the exact lag coefficients of a bit-0
slot, the Monte Carlo estimate from a long simulated stream, and the
weighted interference totals on the reference channel.

Usage:
    python scripts/isi_profile.py --memory 3 --samples 2000000
"""
import argparse
import sys

import numpy as np

from molcode import (
    ChannelParams,
    ChannelProfile,
    english_letter_distribution,
    expected_isi_bit0,
    isi_oracle,
    isi_reduction_report,
)
from molcode.codebooks import build


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--memory", type=int, default=3)
    ap.add_argument("--samples", type=int, default=2_000_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--slot", type=float, default=0.1, help="slot length, seconds")
    args = ap.parse_args()

    dist = english_letter_distribution()
    params = ChannelParams(diffusion=79.4, distance=4.0, receiver_radius=2.0)
    print(f"memory {args.memory}, oracle on {args.samples} stream bits")
    for name in ("huffman", "proposed"):
        cb = build(name, dist)
        corrected = name == "proposed"
        exact = expected_isi_bit0(cb, dist, memory=args.memory, corrected=corrected)
        mc = isi_oracle(
            cb, dist, memory=args.memory, corrected=corrected,
            samples=args.samples,
            rng=np.random.default_rng(np.random.SeedSequence((args.seed, 0x151))),
        )
        tag = "corrected" if corrected else "uncorrected"
        print(f"\n{name} ({tag}), p0 = {exact.p0:.6f}")
        for j in sorted(exact.coefficients):
            print(f"  lag {j}: exact {exact.coefficients[j]:.6f}   "
                  f"oracle {mc.coefficients[j]:.6f} +- {mc.stderr[j]:.6f}")

    profile = ChannelProfile.build(params, slot=args.slot, memory=max(args.memory, 3))
    report = isi_reduction_report(dist, profile, memory=args.memory)
    print(f"\nweighted totals on the reference channel (slot {args.slot} s):")
    for row in report.rows:
        print(f"  {row.name:9s} {row.total:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
