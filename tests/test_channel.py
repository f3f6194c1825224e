"""First-arrival channel curve, slot coefficients and memory sizing."""
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molcode import channel
from molcode.channel import (
    ChannelParams,
    channel_coefficients,
    hit_probability,
    min_symbol_slot,
    peak_time,
)
from molcode.isi_analysis import expected_isi_bit0, isi_oracle, window_distribution

# Frozen reference values for the default geometry (79.4 um^2/s, emitter at
# 4 um, receiver radius 2 um), computed once from the closed form with an
# independent erfc evaluation.
HIT_AT_100MS = 0.3078739929286831
PEAK_TIME = 0.008396305625524769
MIN_SLOT_M10 = 0.013015944130096109


class TestHitProbability:
    def test_reference_value(self, params):
        assert hit_probability(params, 0.1) == pytest.approx(HIT_AT_100MS, abs=1e-15)

    def test_zero_time(self, params):
        assert hit_probability(params, 0.0) == 0.0

    def test_negative_time_rejected(self, params):
        with pytest.raises(ValueError):
            hit_probability(params, -1.0)

    @pytest.mark.parametrize("t", ["0.1", None, True, False, math.nan])
    def test_time_that_is_not_a_real_number_rejected(self, params, t):
        # A bool would read as 1 or 0 s, and NaN would return NaN.
        with pytest.raises(ValueError, match=f"got {re.escape(repr(t))}"):
            hit_probability(params, t)

    def test_long_time_limit_is_radius_ratio(self, params):
        assert hit_probability(params, 1e12) == pytest.approx(
            params.receiver_radius / params.distance, abs=1e-6
        )

    def test_monotone_in_time(self, params):
        # Below about a millisecond the curve underflows to exactly zero,
        # so strict growth is only checkable once it is representable.
        times = [10 ** (k / 8) for k in range(-24, 25)]
        values = [hit_probability(params, t) for t in times]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestPeakTime:
    def test_reference_value(self, params):
        assert peak_time(params) == pytest.approx(PEAK_TIME, abs=1e-18)

    def test_matches_numeric_density_maximum(self, params):
        # Central differences of the hit curve approximate the first-arrival
        # density; the analytic peak must beat both 0.1% neighbours.
        def density(t, h=1e-7):
            return (hit_probability(params, t + h) - hit_probability(params, t - h)) / (2 * h)

        tp = peak_time(params)
        assert density(tp) > density(tp * 1.001)
        assert density(tp) > density(tp * 0.999)


class TestCoefficients:
    def test_telescoping_sum(self, params):
        slot = 0.1
        coeffs = channel_coefficients(params, slot, memory=10)
        for k in range(1, 11):
            assert math.fsum(coeffs[:k]) == pytest.approx(
                hit_probability(params, k * slot), abs=1e-12
            )

    def test_strictly_decreasing(self, params):
        coeffs = channel_coefficients(params, 0.1, memory=10)
        assert all(a > b for a, b in zip(coeffs, coeffs[1:]))

    def test_rejects_slot_inside_rising_edge(self, params):
        # A slot shorter than the arrival peak puts more mass in the second
        # slot than the first, which breaks the decreasing-tail assumption.
        with pytest.raises(ValueError):
            channel_coefficients(params, 0.001, memory=3)


class TestMinSymbolSlot:
    def test_reference_value(self, params):
        assert min_symbol_slot(params, memory=10) == pytest.approx(
            MIN_SLOT_M10, rel=1e-5
        )

    def test_is_a_boundary(self, params):
        # All sizing predicates hold just above the returned slot and at
        # least one fails just below it.
        s = min_symbol_slot(params, memory=10)
        assert all(channel._memory_predicates(params, 1.001 * s, 10))
        assert not all(channel._memory_predicates(params, 0.999 * s, 10))

    def test_unreachable_floor_raises(self):
        # The hit curve tops out at r_r / r_0 = 2 / 7, below TAIL_FLOOR, so
        # no slot gives the window enough coverage.
        far = ChannelParams(diffusion=79.4, distance=7.0, receiver_radius=2.0)
        with pytest.raises(ValueError, match="memory predicate 0 still fails at the ceiling"):
            min_symbol_slot(far, memory=10)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(10.0, 500.0),
        # Keep the capture limit r_r / r_0 above the coverage floor, else
        # no slot can ever satisfy it and the sizing rightfully errors out.
        st.floats(1.1, 2.5),
    )
    def test_predicates_hold_at_returned_slot(self, diffusion, spacing):
        p = ChannelParams(diffusion=diffusion, distance=2.0 * spacing, receiver_radius=2.0)
        s = min_symbol_slot(p, memory=6)
        assert all(channel._memory_predicates(p, 1.000001 * s, 6))


class TestParamsValidation:
    def test_emitter_inside_receiver_rejected(self):
        with pytest.raises(ValueError):
            ChannelParams(diffusion=79.4, distance=1.0, receiver_radius=2.0)

    def test_nonpositive_diffusion_rejected(self):
        with pytest.raises(ValueError):
            ChannelParams(diffusion=0.0, distance=4.0, receiver_radius=2.0)

    @pytest.mark.parametrize("args, name", [
        ((True, 4.0, 2.0), "diffusion"),
        ((79.4, 4.0, True), "receiver_radius"),
        ((79.4, True, 0.5), "distance"),
    ])
    def test_bool_rejected(self, args, name):
        # True is an int to Python, so unchecked it would read as 1.
        with pytest.raises(ValueError, match=f"{name} must"):
            ChannelParams(*args)


@pytest.mark.parametrize("call, value", [
    (lambda p, cb, d: ChannelParams("79.4", 4.0, 2.0), "79.4"),
    (lambda p, cb, d: ChannelParams(79.4, 4.0, None), None),
    (lambda p, cb, d: channel_coefficients(p, "0.1"), "0.1"),
    (lambda p, cb, d: channel_coefficients(p, 0.1, memory=True), True),
    (lambda p, cb, d: min_symbol_slot(p, memory=2.5), 2.5),
    (lambda p, cb, d: expected_isi_bit0(cb, d, memory=2.5), 2.5),
    (lambda p, cb, d: isi_oracle(cb, d, memory=2.5), 2.5),
    (lambda p, cb, d: window_distribution(cb, d, memory=2.5), 2.5),
], ids=["diffusion-str", "radius-none", "slot-str", "memory-bool", "min-slot-memory",
        "isi-memory", "oracle-memory", "window-memory"])
def test_bad_input_is_value_error_naming_it(params, hcb, dist, call, value):
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        call(params, hcb, dist)
