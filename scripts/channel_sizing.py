#!/usr/bin/env python3
"""Slot sizing for the diffusive first-arrival channel.

Prints the arrival-mass split across slots for each codebook's natural
slot at a given character rate, plus the smallest slot that keeps the
channel memory assumptions valid.

Usage:
    python scripts/channel_sizing.py --cps 2 --memory 10
"""
import argparse
import sys

from molcode import (
    ChannelParams,
    channel_coefficients,
    english_letter_distribution,
    expected_length,
    hit_probability,
    min_symbol_slot,
    peak_time,
)
from molcode.codebooks import KINDS, build


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cps", type=float, default=2.0, help="characters per second")
    ap.add_argument("--memory", type=int, default=10)
    args = ap.parse_args()

    dist = english_letter_distribution()
    params = ChannelParams(diffusion=79.4, distance=4.0, receiver_radius=2.0)

    floor = min_symbol_slot(params, memory=args.memory)
    print(f"arrival peak at {peak_time(params) * 1e3:.3f} ms, "
          f"minimum usable slot {floor * 1e3:.3f} ms")

    for name in KINDS:
        cb = build(name, dist)
        slot = (1.0 / args.cps) / expected_length(cb, dist)
        if slot < floor:
            print(f"\n{name}: slot {slot * 1e3:.3f} ms is below the floor, skipped")
            continue
        coeffs = channel_coefficients(params, slot, memory=args.memory)
        window = hit_probability(params, args.memory * slot)
        print(f"\n{name}: slot {slot * 1e3:.3f} ms, "
              f"window captures {window:.3f} of all molecules")
        for k, a in enumerate(coeffs, start=1):
            bar = "#" * max(1, round(60 * a / coeffs[0]))
            print(f"  slot {k:2d}  {a:.6f}  {bar}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
