"""Variation seminorms of spherical means on the Hamming cube."""

from .core import (
    CubeFunction,
    character,
    convolve,
    fwht,
    popcounts,
)
from .krawtchouk import (
    KrawtchoukTable,
    bound_scan_a,
    bound_scan_b_c,
    build_table,
    estimate_exp_constant,
    kraw_exact,
)
from .operators import (
    apply_radial_multipliers,
    noise_binomial,
    noise_multiplier,
    spherical_mean_direct,
    spherical_mean_multiplier,
    spherical_mean_stack,
)
from .variation import (
    dyadic_floor,
    dyadic_partition,
    vr_pointwise_values,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    character_variation,
    counterexample_all_ones,
    counterexample_corollary,
    counterexample_truncated,
    parity_character_scan,
    phi_scan,
    proposition_halfspectrum_scan,
    psi_scan,
    variation_norm_ratio,
)

__version__ = "0.1.0"
