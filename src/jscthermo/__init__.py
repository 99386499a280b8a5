"""Thermodynamic analysis of random joint source-channel codes.

Grid-based entropy/Legendre calculus, memoryless source and channel models,
phase classification with the mutual-information rate formula, an exact
finite-size oracle over seeded random codebooks, and wiretap / multiple-access
calculators, exposed both as a library and through the ``jscthermo`` CLI.

Each module loads on first use of one of its names (PEP 562), so importing
the package, or ``jscthermo.cli``, compiles none of them.
"""

import importlib

# home module -> the names the package re-exports from it
_EXPORTS = {
    "applications": (
        "GammaResult", "MacChannelSpec", "MacOracleReport", "MacSpec", "WiretapSpec",
        "channel_mutual_information", "equivocation_bound", "gamma", "mac_mi_user",
        "mac_oracle", "mac_phi_conditional", "mac_phi_conditional_at", "max_main_rate",
        "secrecy_capacity", "tap_capacity",
    ),
    "errors": (
        "BoundarySolution", "DegenerateFunction", "EdgeDerivative", "ImpossibleOutput",
        "IncompatibleSupport", "InfeasibleRate", "InvalidTemperature", "NotAboveCapacity",
        "NumericalFailure", "OutOfRange", "PhaseMismatch", "SpecError", "TooLarge",
    ),
    "models": (
        "ChannelSpec", "EnsembleSpec", "EntropyPoint", "PhiPoint", "SourceSpec", "SystemSpec",
        "binary_convolution", "binary_entropy", "bias_from_field", "channel_energy_range",
        "channel_phi", "channel_phi_at", "crossover_from_energy", "energy_from_crossover",
        "field_from_bias", "output_marginal", "source_entropy_at", "source_entropy_function",
        "source_log_partition", "source_shannon_entropy", "zeta", "zeta_prime_neg",
    ),
    "oracle": (
        "AggregateReport", "CodeInstance", "DEFAULT_ENUM_BUDGET", "OracleReport",
        "boltzmann_log_partition", "derive_seed", "draw_code", "ensemble_stats", "exact_mi",
        "mc_mi", "message_digits", "partition_split", "posterior", "posterior_energy_split",
    ),
    "phases": (
        "Phase", "PhaseReport", "analyze", "classify_phase", "dominant_energy", "energy_split",
        "mi_rate_alternative", "mutual_information_rate", "total_entropy",
    ),
    "spec_json": ("mac_from_dict", "system_from_dict", "wiretap_from_dict"),
    "tabulated": (
        "DEFAULT_BETA_MAX", "DEFAULT_GRID_SIZE", "NEG_INF", "ConcaveFunction",
        "EquilibriumSolution", "TabulatedFunction", "clip_nonnegative", "concave_envelope",
        "derivative", "inf_transform_table", "legendre_inf", "legendre_sup",
        "solve_equilibrium", "spin_dominant_energy", "sup_transform_table",
        "two_level_dominant_energy", "weighted_sup_convolution",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:   # a submodule not yet imported
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
