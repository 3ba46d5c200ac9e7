"""Variation seminorms of spherical means on the Hamming cube."""

from .core import (
    CubeFunction,
    character,
    convolve,
    delta,
    fourier,
    fwht,
    inverse_fourier,
    length,
    popcounts,
)
from .krawtchouk import (
    KrawtchoukTable,
    bound_scan_a,
    bound_scan_b_c,
    build_table,
    check_difference_identity,
    check_fact_properties,
    estimate_exp_constant,
    kraw_exact,
)
from .operators import (
    antipodal_check,
    apply_radial_multipliers,
    noise_binomial,
    noise_multiplier,
    reflect,
    semigroup_axioms_check,
    spherical_mean_direct,
    spherical_mean_multiplier,
    spherical_mean_stack,
)
from .variation import (
    VariationResult,
    check_chain_lemma,
    check_variation_properties,
    dyadic_floor,
    dyadic_partition,
    vr_bruteforce,
    vr_exact,
    vr_pointwise_values,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    character_variation,
    counterexample_all_ones,
    counterexample_corollary,
    counterexample_truncated,
    full_vs_parity_norm,
    parity_character_scan,
    phi_scan,
    proposition_halfspectrum_scan,
    psi_scan,
    variation_norm_ratio,
)

__version__ = "0.1.0"
