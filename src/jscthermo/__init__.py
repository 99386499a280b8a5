"""Thermodynamic analysis of random joint source-channel codes.

Grid-based entropy/Legendre calculus, memoryless source and channel models,
phase classification with the mutual-information rate formula, an exact
finite-size oracle over seeded random codebooks, and wiretap / multiple-access
calculators, exposed both as a library and through the ``jscthermo`` CLI.
"""

from .applications import (
    GammaResult,
    MacChannelSpec,
    MacOracleReport,
    MacSpec,
    WiretapSpec,
    channel_mutual_information,
    equivocation_bound,
    gamma,
    mac_mi_user,
    mac_oracle,
    mac_phi_conditional,
    mac_phi_conditional_at,
    max_main_rate,
    secrecy_capacity,
    tap_capacity,
)
from .errors import (
    BoundarySolution,
    DegenerateFunction,
    EdgeDerivative,
    ImpossibleOutput,
    IncompatibleSupport,
    InfeasibleRate,
    InvalidTemperature,
    NotAboveCapacity,
    OutOfRange,
    PhaseMismatch,
    SpecError,
    TooLarge,
)
from .models import (
    ChannelSpec,
    EnsembleSpec,
    EntropyPoint,
    PhiPoint,
    SourceSpec,
    SystemSpec,
    binary_convolution,
    binary_entropy,
    bias_from_field,
    channel_energy_range,
    channel_phi,
    channel_phi_at,
    crossover_from_energy,
    energy_from_crossover,
    field_from_bias,
    output_marginal,
    source_entropy_at,
    source_entropy_function,
    source_log_partition,
    source_shannon_entropy,
    zeta,
    zeta_prime_neg,
)
from .oracle import (
    AggregateReport,
    CodeInstance,
    DEFAULT_ENUM_BUDGET,
    OracleReport,
    boltzmann_log_partition,
    derive_seed,
    draw_code,
    ensemble_stats,
    exact_mi,
    mc_mi,
    message_digits,
    partition_split,
    posterior,
    posterior_energy_split,
)
from .phases import (
    Phase,
    PhaseReport,
    analyze,
    classify_phase,
    dominant_energy,
    energy_split,
    mi_rate_alternative,
    mutual_information_rate,
    total_entropy,
)
from .spec_json import mac_from_dict, system_from_dict, wiretap_from_dict
from .tabulated import (
    DEFAULT_BETA_MAX,
    DEFAULT_GRID_SIZE,
    NEG_INF,
    ConcaveFunction,
    EquilibriumSolution,
    TabulatedFunction,
    clip_nonnegative,
    concave_envelope,
    derivative,
    inf_transform_table,
    legendre_inf,
    legendre_sup,
    solve_equilibrium,
    spin_dominant_energy,
    sup_transform_table,
    two_level_dominant_energy,
    weighted_sup_convolution,
)

__version__ = "0.1.0"
