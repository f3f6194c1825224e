"""Command line front end.

Four subcommands cover the library surface: codebook (emit codeword
tables), channel (per-slot arrival coefficients), isi (closed-form and
Monte Carlo interference lag profiles) and simulate (character error rates
across codebooks and molecule budgets). All output is CSV with stable
formatting: runs with equal inputs produce byte-identical files. Summary
statistics and progress go to stderr, never into the CSV.

Each subparser binds its handler with set_defaults(run=...); main loads
the config and calls args.run, so build_parser alone names the commands.

Exit codes: 0 success (including partial simulate results), 2 usage or
configuration problems (OSError, ValueError, YAML errors), 3 any other
exception, which is an internal error.
"""
from __future__ import annotations

import argparse
import copy
import csv
import math
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Sequence

import yaml

from . import channel as channel_mod
from . import codebooks, isi_analysis, mc_sim

__all__ = ["main", "load_config", "DEFAULTS"]

#: Built-in defaults; a config file and command line flags override them.
#: The channel block is the reference link geometry (micrometers and
#: seconds); the simulate budget grid covers the molecule range where the
#: link operates between roughly 2 and 30 percent character errors.
DEFAULTS: dict = {
    "channel": {
        "diffusion": 79.4,        # um^2 / s
        "distance": 4.0,          # um
        "receiver_radius": 2.0,   # um
        "memory": 10,
    },
    "link": {
        "chars_per_second": 2.0,
        "msg_len": 10,
    },
    "simulate": {
        "trials": 100_000,
        "seed": 1,
        "budgets": [50, 70, 85, 100, 120],   # molecules per character
        "kinds": list(codebooks.KINDS),
    },
    "distribution": None,  # path to a CSV; None means the built-in English letters
}


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: What each config value must be: a check and the words for it.
_VALUE_RULES = {
    "diffusion": (_number, "a number"),
    "distance": (_number, "a number"),
    "receiver_radius": (_number, "a number"),
    "memory": (_integer, "an integer"),
    "chars_per_second": (_number, "a number"),
    "msg_len": (_integer, "an integer"),
    "trials": (_integer, "an integer"),
    "seed": (_integer, "an integer"),
    "budgets": (lambda v: isinstance(v, list) and all(map(_number, v)), "a list of numbers"),
    "kinds": (lambda v: isinstance(v, list) and all(isinstance(k, str) for k in v),
              "a list of codebook kinds"),
}

def load_config(path: str | None) -> dict:
    """DEFAULTS with the sections of a YAML file merged on top."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is None:
        return cfg
    raw = yaml.safe_load(Path(path).read_text())
    if raw is None:
        return cfg
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a mapping")
    unknown = set(raw) - set(cfg)
    if unknown:
        raise ValueError(f"{path}: unknown config sections: {sorted(unknown)}")
    for section, values in cfg.items():
        if isinstance(values, dict) and section in raw:
            if not isinstance(raw[section], dict):
                raise ValueError(f"{path}: section {section!r} must be a mapping")
            bad = set(raw[section]) - set(values)
            if bad:
                raise ValueError(f"{path}: unknown keys in {section!r}: {sorted(bad)}")
            for key, value in raw[section].items():
                check, want = _VALUE_RULES[key]
                if not check(value):
                    raise ValueError(f"{path}: {section}.{key} must be {want}, got {value!r}")
            values.update(raw[section])
    if "distribution" in raw:
        if raw["distribution"] is not None and not isinstance(raw["distribution"], str):
            raise ValueError(f"{path}: distribution must be a file path")
        cfg["distribution"] = raw["distribution"]
    return cfg


def _char_duration(cfg: dict) -> float:
    rate = float(cfg["link"]["chars_per_second"])
    duration = 1.0 / rate if rate else math.inf
    if not (duration > 0 and math.isfinite(duration)):
        raise ValueError(f"chars_per_second must be positive and finite, got {rate!r}")
    return duration


def _distribution(cfg: dict) -> codebooks.CharacterDistribution:
    if cfg["distribution"] is None:
        return codebooks.english_letter_distribution()
    return codebooks.load_distribution(cfg["distribution"])


def _channel_params(cfg: dict) -> channel_mod.ChannelParams:
    c = cfg["channel"]
    return channel_mod.ChannelParams(
        diffusion=float(c["diffusion"]),
        distance=float(c["distance"]),
        receiver_radius=float(c["receiver_radius"]),
    )


def _write_rows(path: str | None, header: list[str], rows: list[list]) -> None:
    with nullcontext(sys.stdout) if path is None else open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_kinds(kinds: list[str]) -> list[str]:
    if not kinds:
        raise ValueError("no codebook kinds given")
    if kinds == ["all"]:
        return sorted(codebooks.KINDS)
    for i, kind in enumerate(kinds):
        if kind not in codebooks.KINDS:
            raise ValueError(f"unknown codebook kind {kind!r}")
        if kind in kinds[:i]:
            raise ValueError(f"codebook kind {kind!r} is given twice")
    return kinds


def _cmd_codebook(args, cfg: dict) -> int:
    dist = _distribution(cfg)
    rows = []
    for kind in _parse_kinds(args.kinds):
        cb = codebooks.build(kind, dist)
        if set(cb.symbols) != set(dist.symbols):
            _note(f"warning: {kind} skipped, its alphabet differs from the distribution's")
            continue
        for sym in cb.codewords:
            rows.append([kind, sym, cb.codewords[sym], repr(dist.prob(sym))])
        _note(
            f"{kind}: expected length {codebooks.expected_length(cb, dist):.6f}, "
            f"expected ones {codebooks.expected_ones(cb, dist):.6f}, "
            f"Kraft sum {float(cb.kraft_sum()):.6f}"
        )
    _write_rows(args.out, ["codebook", "symbol", "codeword", "probability"], rows)
    return 0


def _cmd_channel(args, cfg: dict) -> int:
    params = _channel_params(cfg)
    memory = int(cfg["channel"]["memory"])
    if args.slot is not None:
        slot = args.slot
    else:
        dist = _distribution(cfg)
        cb = codebooks.build(args.kind, dist)
        slot = mc_sim.slot_length(cb, dist, _char_duration(cfg))
    coeffs = channel_mod.channel_coefficients(params, slot, memory)
    rows = [[k + 1, repr(a)] for k, a in enumerate(coeffs)]
    _note(
        f"slot {slot:.6f} s, peak time {channel_mod.peak_time(params):.6f} s, "
        f"min usable slot {channel_mod.min_symbol_slot(params, memory):.6f} s, "
        f"window hit probability "
        f"{channel_mod.hit_probability(params, memory * slot):.6f}"
    )
    _write_rows(args.out, ["k", "a_k"], rows)
    return 0


def _cmd_isi(args, cfg: dict) -> int:
    import numpy as np

    dist = _distribution(cfg)
    rows = []
    for kind in _parse_kinds(args.kinds):
        cb = codebooks.build(kind, dist)
        corrected = cb.corrected
        exact = isi_analysis.expected_isi_bit0(
            cb, dist, memory=args.memory, corrected=corrected
        )
        oracle = isi_analysis.isi_oracle(
            cb,
            dist,
            memory=args.memory,
            corrected=corrected,
            samples=args.oracle_samples,
            rng=np.random.default_rng(np.random.SeedSequence((args.seed, 0x151))),
        )
        for j in sorted(exact.coefficients):
            rows.append([
                kind,
                j,
                repr(exact.coefficients[j]),
                repr(exact.p0),
                "corrected" if corrected else "uncorrected",
                repr(oracle.coefficients[j]),
                repr(oracle.stderr[j]),
            ])
    _write_rows(
        args.out,
        ["codebook", "j", "coefficient", "p0", "variant", "oracle", "oracle_stderr"],
        rows,
    )
    return 0


def _cmd_simulate(args, cfg: dict) -> int:
    dist = _distribution(cfg)
    params = _channel_params(cfg)
    sim = cfg["simulate"]
    trials = args.trials if args.trials is not None else int(sim["trials"])
    seed = args.seed if args.seed is not None else int(sim["seed"])
    budgets = args.budgets if args.budgets is not None else [float(b) for b in sim["budgets"]]
    kinds = _parse_kinds(args.kinds if args.kinds is not None else list(sim["kinds"]))

    def progress(row: dict) -> None:
        state = f"cer {row['cer']:.6f}" if row["error"] is None else row["error"]
        _note(f"done {row['codebook']:9s} at {row['molecules_per_char']:g} "
              f"molecules/char: {state}")

    rows = mc_sim.sweep(
        dist,
        params,
        budgets=budgets,
        trials=trials,
        master_seed=seed,
        kinds=kinds,
        char_duration=_char_duration(cfg),
        msg_len=int(cfg["link"]["msg_len"]),
        memory=int(cfg["channel"]["memory"]),
        threads=args.threads,
        progress=progress,
    )
    columns = ["codebook", "molecules_per_char", "N_bit1", "t_s", "tau", "cer",
               "trials", "seed", "error"]
    _write_rows(args.out, columns, [[_fmt(row[c]) for c in columns] for row in rows])
    cer = {(r["codebook"], r["molecules_per_char"]): r for r in rows if r["cer"] is not None}
    for budget in dict.fromkeys(r["molecules_per_char"] for r in rows):
        huff, prop = cer.get(("huffman", budget)), cer.get(("proposed", budget))
        if huff and prop:
            gap = huff["cer"] - prop["cer"]
            se = math.hypot(huff["cer_stderr"], prop["cer_stderr"])
            sigmas = f"{gap / se:+.1f}" if se else "n/a"
            _note(f"separation at {budget:g} molecules/char: huffman cer {huff['cer']:.6f}, "
                  f"proposed cer {prop['cer']:.6f}, gap {gap:+.6f} = {sigmas} "
                  "combined standard errors")
    return 0


def _csv_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _float_list(text: str) -> list[float]:
    return [float(item) for item in _csv_list(text)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molcode",
        description="Codebooks, interference analysis and Monte Carlo error "
                    "rates for slotted molecular links.",
    )
    parser.add_argument("--config", help="YAML configuration file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("codebook", help="emit codeword tables as CSV")
    p.add_argument("--kinds", type=_csv_list, default=["all"],
                   help="comma separated kinds, or 'all'")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(run=_cmd_codebook)

    p = sub.add_parser("channel", help="emit per-slot arrival coefficients as CSV")
    p.add_argument("--slot", type=float, help="slot length in seconds")
    p.add_argument("--kind", choices=sorted(codebooks.KINDS), default="proposed",
                   help="codebook whose character rate sets the slot when --slot is absent")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(run=_cmd_channel)

    p = sub.add_parser("isi", help="emit interference lag coefficients as CSV")
    p.add_argument("--memory", type=int, default=3)
    p.add_argument("--kinds", type=_csv_list, default=["huffman", "proposed"])
    p.add_argument("--seed", type=int, default=0, help="seed for the oracle stream")
    p.add_argument("--oracle-samples", type=int, default=1_000_000,
                   help="stream bits for the Monte Carlo cross-check")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(run=_cmd_isi)

    p = sub.add_parser("simulate", help="Monte Carlo character error rates as CSV")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--budgets", type=_float_list,
                   help="comma separated molecules per character")
    p.add_argument("--kinds", type=_csv_list)
    p.add_argument("--threads", type=int,
                   help="worker threads (default: the available cores); "
                        "results do not depend on it")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(run=_cmd_simulate)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, load_config(args.config))
    except (OSError, ValueError, yaml.YAMLError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
