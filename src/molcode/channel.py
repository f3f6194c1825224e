"""Pure-diffusion link with a spherical absorbing receiver.

A point transmitter releases molecules that random-walk with diffusion
coefficient D (um^2/s) toward a fully absorbing sphere. The fraction
absorbed by time t has the closed form

    F(t) = (rr / r0) * erfc((r0 - rr) / sqrt(4 D t)),

where r0 is the transmitter distance from the sphere center and rr the
sphere radius (both um). Slotting time into symbol intervals of length t_s
turns F into per-slot arrival coefficients a_k = F(k t_s) - F((k-1) t_s).
A link never stores them: mc_sim.LinkConfig derives its slot from the
character rate and its coefficients from (params, slot, memory).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real

__all__ = [
    "ChannelParams",
    "hit_probability",
    "peak_time",
    "channel_coefficients",
    "min_symbol_slot",
]

#: Default number of slots the receiver remembers (channel memory).
DEFAULT_MEMORY = 10

#: Residual-arrival bound: the slot after the memory window must capture
#: less than this probability mass for the memory to be declared adequate.
EPS_TAIL = 0.008

#: The memory window must already capture more than this fraction of all
#: molecules (the everywhere-hit limit is rr / r0, so 0.33 is about two
#: thirds of it at the default geometry).
TAIL_FLOOR = 0.33


def _is_real(value) -> bool:
    """Whether value is a real number other than a bool, which reads as 1 or 0."""
    return isinstance(value, Real) and not isinstance(value, bool)


def _check_memory(memory) -> None:
    """Raise ValueError unless memory is a non-bool integer of at least 1."""
    if isinstance(memory, bool) or not isinstance(memory, Integral) or memory < 1:
        raise ValueError(f"memory must be an integer of at least 1, got {memory!r}")


@dataclass(frozen=True)
class ChannelParams:
    """Physical link parameters; micrometers and seconds throughout.

    Each is a positive finite real number, not a bool, and distance puts
    the transmitter outside the receiver; ValueError otherwise.
    """

    diffusion: float
    distance: float
    receiver_radius: float

    def __post_init__(self) -> None:
        if not _is_real(self.diffusion) or not 0 < self.diffusion < math.inf:
            raise ValueError(f"diffusion must be positive and finite, got {self.diffusion!r}")
        if not _is_real(self.receiver_radius) or not 0 < self.receiver_radius < math.inf:
            raise ValueError(
                f"receiver_radius must be positive and finite, got {self.receiver_radius!r}"
            )
        if not _is_real(self.distance) or not self.receiver_radius < self.distance < math.inf:
            raise ValueError(
                "distance must be finite and put the transmitter outside the receiver, "
                f"got {self.distance!r}"
            )


def hit_probability(params: ChannelParams, t: float) -> float:
    """Probability that a molecule released at time 0 is absorbed by time t.

    t is a non-negative real number of seconds, not a bool and not NaN;
    anything else raises ValueError.
    """
    if not _is_real(t) or not t >= 0:
        raise ValueError(f"time must be a non-negative real number, got {t!r}")
    if t == 0.0:
        return 0.0
    gap = params.distance - params.receiver_radius
    return (params.receiver_radius / params.distance) * math.erfc(
        gap / math.sqrt(4.0 * params.diffusion * t)
    )


def peak_time(params: ChannelParams) -> float:
    """Time of the maximum arrival rate (mode of the first-hit density)."""
    gap = params.distance - params.receiver_radius
    return gap * gap / (6.0 * params.diffusion)


def channel_coefficients(
    params: ChannelParams, slot: float, memory: int = DEFAULT_MEMORY
) -> tuple[float, ...]:
    """Per-slot arrival probabilities a_1..a_memory for slot length t_s.

    Raises ValueError when the sequence is not strictly decreasing, which
    happens when the slot is short enough that the arrival-rate peak falls
    beyond the first slot.
    """
    if not _is_real(slot) or not 0 < slot < math.inf:
        raise ValueError(f"slot length must be positive and finite, got {slot!r}")
    _check_memory(memory)
    hits = [hit_probability(params, k * slot) for k in range(memory + 1)]
    coeffs = tuple(hits[k] - hits[k - 1] for k in range(1, memory + 1))
    for k in range(1, memory):
        if not coeffs[k] < coeffs[k - 1]:
            raise ValueError(
                f"arrival coefficients not strictly decreasing at slot {slot!r}: "
                f"a_{k} = {coeffs[k - 1]!r} <= a_{k + 1} = {coeffs[k]!r}"
            )
    return coeffs


def _memory_predicates(
    params: ChannelParams, slot: float, memory: int
) -> tuple[bool, bool, bool]:
    """(window mass > TAIL_FLOOR, next-slot mass < EPS_TAIL, strictly decreasing)."""
    hits = [hit_probability(params, k * slot) for k in range(memory + 2)]
    coeffs = [hits[k] - hits[k - 1] for k in range(1, memory + 2)]
    window_ok = hits[memory] > TAIL_FLOOR
    residual_ok = coeffs[memory] < EPS_TAIL
    decreasing = all(coeffs[k] < coeffs[k - 1] for k in range(1, memory))
    return window_ok, residual_ok, decreasing


def min_symbol_slot(params: ChannelParams, memory: int = DEFAULT_MEMORY) -> float:
    """Smallest slot length for which the memory window is adequate.

    Adequate means all three predicates hold: the memory window captures
    more than TAIL_FLOOR of the molecules, the slot after the window
    receives less than EPS_TAIL, and the coefficients strictly decrease.
    Each predicate's own threshold slot is located on a log grid of 512
    slots from 1e-8 s to a ceiling of 1e4 s and refined by bisection to a
    relative tolerance of 1e-6; the answer is the largest of the three. A
    predicate true over the whole grid contributes a floor of zero; one
    still false at the ceiling raises ValueError, as does a bad memory.
    """
    _check_memory(memory)
    grid_points = 512
    ceiling = 1e4
    log_lo, log_hi = math.log10(1e-8), math.log10(ceiling)
    grid = [10 ** (log_lo + (log_hi - log_lo) * i / (grid_points - 1)) for i in range(grid_points)]

    flags = [_memory_predicates(params, t, memory) for t in grid]
    floors: list[float] = []
    for p in range(3):
        column = [f[p] for f in flags]
        if not column[-1]:
            raise ValueError(
                f"memory predicate {p} still fails at the ceiling slot {ceiling!r}"
            )
        if all(column):
            floors.append(0.0)
            continue
        last_false = max(i for i, ok in enumerate(column) if not ok)
        lo, hi = grid[last_false], grid[last_false + 1]
        while (hi - lo) > 1e-6 * hi:
            mid = math.sqrt(lo * hi)
            if _memory_predicates(params, mid, memory)[p]:
                hi = mid
            else:
                lo = mid
        floors.append(hi)
    return max(floors)
