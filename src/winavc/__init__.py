"""Windowed adversarial channels: capacities, codes, jammers, simulation."""

__version__ = "0.1.0"

from .capacity import (
    CapacityResult,
    WindowedCapacityVerdict,
    bitflip_list_capacity,
    list_capacity,
    oblivious_capacity,
    windowed_capacity_verdict,
)
from .codec import (
    CodecParams,
    DecodeResult,
    HashParams,
    JamBudget,
    KeyCode,
    ListCode,
    PhasePlan,
    ThreePhaseCodec,
    build_three_phase_codec,
    hamming_budget,
    interleave_allocation,
    poly_hash,
)
from .core import (
    Channel,
    ConstraintSet,
    Distribution,
    InfeasibleSetError,
    WindowedAvcSpec,
    binary_convolution,
    binary_entropy,
    bitflip_spec,
    entropy,
)
from .harness import (
    ExperimentConfig,
    JammerParams,
    RunStats,
    TrialRecord,
    run_trials,
    sweep,
    wilson_interval,
)
from .jammers import JammerGenerationError
from .symmetrize import (
    SymmetrizabilityResult,
    ecn_symmetrizable,
    gamma_prime,
    scan_nonsymmetrizable,
)
from .windows import (
    WindowReport,
    expurgate,
    guard_word,
    verify_windows,
)
