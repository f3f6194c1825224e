"""Character coding and evaluation for diffusion-limited molecular links.

The package builds prefix codebooks over a character distribution, analyzes
the inter-symbol interference their bit streams cause on a diffusive
channel with an absorbing receiver, and measures character error rates by
Monte Carlo simulation. The run-length-limited codebook kind is the center
piece: it never transmits adjacent ones, which both thins out interference
and gives the receiver a correctable structure.
"""
from .channel import (
    ChannelParams,
    ChannelProfile,
    channel_coefficients,
    hit_probability,
    min_symbol_slot,
    peak_time,
)
from .codebooks import (
    CharacterDistribution,
    Codebook,
    build_huffman,
    build_proposed,
    english_letter_distribution,
    expected_length,
    expected_ones,
    ita2,
    load_distribution,
    validate,
)
from .codec import (
    CalibratedThreshold,
    CalibrationError,
    ConstantThreshold,
    DecodeResult,
    PilotThreshold,
    collect_pilot_stats,
    decode,
    detect,
    encode,
    error_correct,
    pilot_threshold,
)
from .isi_analysis import (
    IsiCoefficients,
    IsiReductionReport,
    WindowDistribution,
    expected_isi_bit0,
    isi_oracle,
    isi_reduction_report,
    window_distribution,
)
from .mc_sim import (
    CerReport,
    LinkConfig,
    fair_budgets,
    resolve_threshold,
    run_cer,
    sample_arrivals,
    simulate_message,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "ChannelProfile",
    "channel_coefficients",
    "hit_probability",
    "min_symbol_slot",
    "peak_time",
    "CharacterDistribution",
    "Codebook",
    "build_huffman",
    "build_proposed",
    "english_letter_distribution",
    "expected_length",
    "expected_ones",
    "ita2",
    "load_distribution",
    "validate",
    "CalibratedThreshold",
    "CalibrationError",
    "ConstantThreshold",
    "DecodeResult",
    "PilotThreshold",
    "collect_pilot_stats",
    "decode",
    "detect",
    "encode",
    "error_correct",
    "pilot_threshold",
    "IsiCoefficients",
    "IsiReductionReport",
    "WindowDistribution",
    "expected_isi_bit0",
    "isi_oracle",
    "isi_reduction_report",
    "window_distribution",
    "CerReport",
    "LinkConfig",
    "fair_budgets",
    "resolve_threshold",
    "run_cer",
    "sample_arrivals",
    "simulate_message",
    "sweep",
    "__version__",
]
