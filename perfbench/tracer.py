"""Span recorder that wraps molcode's public functions from outside.

install() replaces every public function of the package's layer modules
at each module attribute (and module-level dict entry) a caller looks it
up from, so calls between layers go through a recorder. uninstall() puts
the original objects back. Nothing inside the package is edited.

A span holds its name, start, end, parent span, call id (the id of the
root span it belongs to), thread and the round label current when it
opened. A span opened on a worker thread, where no span is open yet,
takes the open mc_sim.run_cer span as its parent. Spans stay in memory
until write() is called.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import threading
import time
import types

#: The package's layer modules; span names are "<layer>.<function>".
LAYERS = ("cli", "codebooks", "channel", "codec", "mc_sim", "isi_analysis")

_RUN_CER = "mc_sim.run_cer"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.round = "setup"
        self.hooks: set[str] = set()
        self.observe_errors: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_run_cer: dict | None = None
        self._patches: list[tuple[object, str, object, bool]] = []
        self._origin = time.perf_counter()
        self._observers = {
            "sample_arrivals": _observe_arrivals,
            "run_cer": _observe_run_cer,
            "resolve_threshold": _observe_threshold,
        }

    # -- patching ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every public function of every layer module that exists."""
        package = importlib.import_module("molcode")
        modules = []
        for layer in LAYERS:
            try:
                modules.append((layer, importlib.import_module(f"molcode.{layer}")))
            except ImportError:
                continue  # its metrics report themselves absent
        wrappers: dict[int, object] = {}
        for layer, mod in modules:
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[id(fn)] = self._wrap(name, fn)
                    self.hooks.add(name)
        for mod in [package] + [m for _, m in modules]:
            for key, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and id(value) in wrappers:
                    self._patches.append((mod, key, value, False))
                    setattr(mod, key, wrappers[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if isinstance(v, types.FunctionType) and id(v) in wrappers:
                            self._patches.append((value, k, v, True))
                            value[k] = wrappers[id(v)]

    def uninstall(self) -> None:
        for container, key, original, is_dict in reversed(self._patches):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    # -- recording --------------------------------------------------------
    def _wrap(self, name: str, fn):
        observe = self._observers.get(name.split(".", 1)[1])
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def recorder(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                tracer._close(span)
            if observe is not None:
                try:
                    span.update(observe(signature.bind(*args, **kwargs).arguments, result))
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    tracer.observe_errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        return recorder

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else self._open_run_cer
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "call": parent["call"] if parent else None,
            "thread": threading.get_ident(),
            "round": self.round,
            "start": time.perf_counter() - self._origin,
        }
        if span["call"] is None:
            span["call"] = span["id"]
        stack.append(span)
        if name == _RUN_CER:
            span["_outer"] = self._open_run_cer
            self._open_run_cer = span
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter() - self._origin
        self._stack().pop()
        if span["name"] == _RUN_CER:
            self._open_run_cer = span.pop("_outer")
        self.spans.append(span)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def _observe_arrivals(arguments: dict, result) -> dict:
    size = arguments.get("size")
    return {"releases": 1 if size is None else int(size), "bytes": int(result.nbytes)}


def _observe_run_cer(arguments: dict, report) -> dict:
    from molcode import mc_sim

    out = {
        "slots": sum(report.bit_counts.values()),
        "anomalies": dict(report.anomalies),
    }
    chunk = getattr(mc_sim, "CHUNK_TRIALS", None)
    if chunk is not None:
        out["chunks"] = math.ceil(report.trials / chunk)
    return out


def _observe_threshold(arguments: dict, result) -> dict:
    from molcode import mc_sim

    cfg = arguments["cfg"]
    _, origin = result
    if origin != "calibrated":
        return {"candidates": 1}
    grid = cfg.threshold.candidates or mc_sim._default_candidates(cfg)
    return {"candidates": len(grid)}


# -- span arithmetic ------------------------------------------------------
def union_length(intervals) -> float:
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Duration of each span minus the part its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ())
            if c["end"] > s["start"] and c["start"] < s["end"]
        )
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def outermost(spans: list[dict], names) -> list[dict]:
    """Spans named in names that have no ancestor also named in names."""
    names = set(names)
    by_id = {s["id"]: s for s in spans}
    picked = []
    for s in spans:
        if s["name"] not in names:
            continue
        p = by_id.get(s["parent"])
        while p is not None and p["name"] not in names:
            p = by_id.get(p["parent"])
        if p is None:
            picked.append(s)
    return picked


# -- per-layer metrics ------------------------------------------------------
class Absent(Exception):
    """A metric's hook point does not exist in the package under test."""


ARRIVALS = ("mc_sim.sample_arrivals",)
RUN_CER = (_RUN_CER,)
THRESHOLD = ("mc_sim.resolve_threshold",)
PILOTS = ("codec.collect_pilot_stats",)
BUILDERS = ("codebooks.build_huffman", "codebooks.build_proposed", "codebooks.ita2")
COEFFICIENTS = ("channel.channel_coefficients",)
CLI_MAIN = ("cli.main",)


def _named(spans, hooks):
    return [s for s in spans if s["name"] in hooks]


def _busy(hooks):
    return lambda spans, st: sum(s["end"] - s["start"] for s in outermost(spans, hooks))


def _self(hooks):
    return lambda spans, st: sum(st[s["id"]] for s in _named(spans, hooks))


def _calls(hooks):
    return lambda spans, st: len(_named(spans, hooks))


def _failed(hooks):
    return lambda spans, st: sum(1 for s in _named(spans, hooks) if s.get("error"))


def _field(hooks, key, combine=sum):
    def value(spans, st):
        picked = [s for s in _named(spans, hooks) if not s.get("error")]
        if any(key not in s for s in picked):
            raise Absent(f"{key} was not observed on {'/'.join(hooks)}")
        return combine([s[key] for s in picked] or [0])
    return value


def _anomaly(key):
    def value(spans, st):
        picked = [s for s in _named(spans, RUN_CER) if not s.get("error")]
        if any(key not in s.get("anomalies", {}) for s in picked):
            raise Absent(f"CerReport.anomalies has no {key!r}")
        return sum(s["anomalies"][key] for s in picked)
    return value


def _overlap(spans, st):
    picked = _named(spans, ARRIVALS)
    union = union_length((s["start"], s["end"]) for s in picked)
    return sum(s["end"] - s["start"] for s in picked) / union if union else 0.0


def _useful_ratio(spans, st):
    picked = [s for s in _named(spans, THRESHOLD) if not s.get("error")]
    if any("candidates" not in s for s in picked):
        raise Absent("candidate count of a calibration was not observed")
    scored = sum(s["candidates"] for s in picked)
    return len(picked) / scored if scored else 1.0


#: name -> (unit, tag, hooks, value function, additive). Additive metrics
#: add the traced set-up to the per-round median; the others are the
#: per-round median alone.
PER_LAYER = {
    "mc_sim.sample_arrivals.s": ("s", "measured", ARRIVALS, _busy(ARRIVALS), True),
    "mc_sim.sample_arrivals.calls": ("count", "measured", ARRIVALS, _calls(ARRIVALS), True),
    "mc_sim.sample_arrivals.releases": ("count", "measured", ARRIVALS,
                                        _field(ARRIVALS, "releases"), True),
    "mc_sim.sample_arrivals.overlap": ("ratio", "measured", ARRIVALS, _overlap, False),
    "mc_sim.run_cer.s": ("s", "measured", RUN_CER, _busy(RUN_CER), True),
    "mc_sim.run_cer.self_s": ("s", "measured", RUN_CER, _self(RUN_CER), True),
    "mc_sim.run_cer.calls": ("count", "measured", RUN_CER, _calls(RUN_CER), True),
    "mc_sim.resolve_threshold.s": ("s", "measured", THRESHOLD, _busy(THRESHOLD), True),
    "mc_sim.resolve_threshold.self_s": ("s", "measured", THRESHOLD, _self(THRESHOLD), True),
    "mc_sim.resolve_threshold.failed": ("count", "measured", THRESHOLD,
                                        _failed(THRESHOLD), True),
    "codec.collect_pilot_stats.s": ("s", "measured", PILOTS, _busy(PILOTS), True),
    "codec.collect_pilot_stats.calls": ("count", "measured", PILOTS, _calls(PILOTS), True),
    "mc_sim.slots": ("count", "computed", RUN_CER, _field(RUN_CER, "slots"), True),
    "mc_sim.chunks": ("count", "computed", RUN_CER, _field(RUN_CER, "chunks"), True),
    "mc_sim.chunk_bytes_computed": ("bytes", "computed", ARRIVALS,
                                    _field(ARRIVALS, "bytes", max), False),
    "mc_sim.calibration.useful_ratio": ("ratio", "computed", THRESHOLD, _useful_ratio, False),
    "mc_sim.anomalies.dead_end": ("count", "measured", RUN_CER, _anomaly("dead_end"), True),
    "mc_sim.anomalies.incomplete_tail": ("count", "measured", RUN_CER,
                                         _anomaly("incomplete_tail"), True),
    "mc_sim.anomalies.decoded_overflow": ("count", "measured", RUN_CER,
                                          _anomaly("decoded_overflow"), True),
    "codebooks.build.s": ("s", "measured", BUILDERS, _busy(BUILDERS), True),
    "channel.coefficients.s": ("s", "measured", COEFFICIENTS, _busy(COEFFICIENTS), True),
    "cli.main.self_s": ("s", "measured", CLI_MAIN, _self(CLI_MAIN), True),
}


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Every PER_LAYER metric from the tracer's spans.

    Each entry holds value, unit, tag, and for an absent metric value None
    and the reason.
    """
    setup = [s for s in tracer.spans if s["round"] == "setup"]
    rounds: dict[str, list] = {}
    for s in tracer.spans:
        if s["round"] != "setup":
            rounds.setdefault(s["round"], []).append(s)
    round_spans = list(rounds.values())
    setup_st = self_times(setup)
    round_st = [self_times(spans) for spans in round_spans]
    out = {}
    for name, (unit, tag, hooks, fn, additive) in PER_LAYER.items():
        entry = {"unit": unit, "tag": tag}
        try:
            if not set(hooks) & tracer.hooks:
                raise Absent(f"no public function {' or '.join(hooks)} in molcode")
            per_round = sorted(fn(spans, st) for spans, st in zip(round_spans, round_st))
            value = per_round[len(per_round) // 2] if per_round else 0
            if additive:
                value += fn(setup, setup_st)
            entry["value"] = value
        except Absent as exc:
            entry["value"] = None
            reasons = [str(exc)] + [tracer.observe_errors[h] for h in hooks
                                    if h in tracer.observe_errors]
            entry["absent"] = "; ".join(reasons)
        out[name] = entry
    return out
