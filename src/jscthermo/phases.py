"""Full-system analysis: phase, mutual information rate and combined entropy.

At the spec's own temperature the phase is the sign of the entropy balance
H(S) - lambda*I_beta, where I_beta = -zeta(beta) - beta*eps_C is the
information per channel letter of the system family at beta: the transmitted
message dominates the posterior (Ordered, rate H(S)) iff
H(S) <= lambda*I_beta, and otherwise the code is paramagnetic with rate
lambda*I_beta.  The combined entropy curve -- the weighted supremal
convolution of the source entropy with the channel rate function, enveloped
and clipped at zero -- is tabulated only for the reported dominant energy
epsilon0 and the entropy there; no label or rate depends on its grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateFunction, PhaseMismatch
from .models import (
    SystemSpec,
    channel_phi,
    channel_phi_at,
    source_entropy_at,
    source_entropy_function,
    source_shannon_entropy,
    zeta,
    zeta_prime_neg,
)
from .tabulated import (
    DEFAULT_GRID_SIZE,
    NEG_INF,
    ConcaveFunction,
    TabulatedFunction,
    clip_nonnegative,
    concave_envelope,
    legendre_sup,
    weighted_sup_convolution,
)

_BLOCK_CELLS = 1 << 14   # (totals x source indices) cells in one block's temporaries


class Phase(str, Enum):
    ORDERED = "Ordered"
    PARAMAGNETIC = "Paramagnetic"


@dataclass(frozen=True)
class PhaseReport:
    """Phase label with the dominant energy split and information rates."""

    phase: Phase
    epsilon0: float
    epsilon_star: float
    channel_share: float
    mi_rate: float
    source_entropy: float
    sigma_at_eps0: float


class DominantEnergy(NamedTuple):
    epsilon0: float
    psi: float


def _convolution_objective(sigma_s, phi, lam, totals, idx):
    """Objective of the supremal convolution at source grid indices idx.

    totals has shape (G,), idx shape (G, width); returns (G, width) values.
    """
    w = 1.0 / (1.0 + lam)
    eps_p = sigma_s.x_min + idx * sigma_s.step
    args = (totals[:, None] - eps_p) / lam
    s_vals = sigma_s.values[idx]
    phi_vals = phi.values_at(args.ravel()).reshape(args.shape)
    return np.where(np.isfinite(s_vals) & np.isfinite(phi_vals),
                    w * s_vals + (lam * w) * phi_vals, NEG_INF)


def _convolution_table(sigma_s: ConcaveFunction, phi: ConcaveFunction,
                       lam: float, grid_size: int) -> TabulatedFunction:
    """Raw combined entropy on a uniform total-energy grid.

    For each total energy the objective over the source-energy grid is
    concave with a contiguous feasible interval, so a coarse scan plus a
    one-stride refinement finds the exact grid argmax (smallest-index ties
    included).  The scans run block by block over consecutive totals, each
    block's temporaries holding at most about _BLOCK_CELLS cells, so memory
    grows linearly with grid_size; every row's arithmetic is the same as in
    one pass over the whole table.
    """
    s_span = sigma_s.support_range()
    p_span = phi.support_range()
    if s_span is None or p_span is None:
        raise DegenerateFunction("source or channel entropy has empty support")
    lo = (s_span[0] + lam * p_span[0]) / (1.0 + lam)
    hi = (s_span[1] + lam * p_span[1]) / (1.0 + lam)
    if hi - lo <= 1e-12 * hi:   # a point, relative to the energy scale
        vals = np.full(grid_size, NEG_INF)
        vals[0] = weighted_sup_convolution(sigma_s, phi, lam, lo).value
        return TabulatedFunction(lo, lo + 1.0, vals)
    grid = np.linspace(lo, hi, grid_size)
    totals = (1.0 + lam) * grid
    h = sigma_s.step
    s_first, s_last = sigma_s.support_indices()

    # feasible source-index interval per total energy
    lo_eps = np.maximum.reduce([np.full(grid_size, sigma_s.x_min + s_first * h),
                                totals - lam * p_span[1],
                                np.zeros(grid_size)])
    hi_eps = np.minimum.reduce([np.full(grid_size, sigma_s.x_min + s_last * h),
                                totals - lam * p_span[0],
                                totals])
    a_idx = np.ceil((lo_eps - sigma_s.x_min) / h - 1e-9).astype(int)
    b_idx = np.floor((hi_eps - sigma_s.x_min) / h + 1e-9).astype(int)
    a_idx = np.clip(a_idx, s_first, s_last)
    b_idx = np.clip(b_idx, s_first, s_last)

    coarse = 128
    j = np.arange(coarse + 1)
    span = (b_idx - a_idx).astype(float)
    stride = np.maximum(np.ceil(span / coarse).astype(int), 1)
    width = int(stride.max()) * 2 + 5   # one refinement width for the whole table
    offsets = np.arange(width) - (width // 2)
    rows = max(1, _BLOCK_CELLS // max(coarse + 1, width))
    vals = np.empty(grid_size)
    for start in range(0, grid_size, rows):
        blk = slice(start, start + rows)
        a_blk = a_idx[blk, None]
        coarse_idx = a_blk + np.round(j[None, :] * span[blk, None] / coarse).astype(int)
        coarse_idx = np.clip(coarse_idx, s_first, s_last)
        obj = _convolution_objective(sigma_s, phi, lam, totals[blk], coarse_idx)
        best = np.take_along_axis(coarse_idx, np.argmax(obj, axis=1)[:, None], axis=1)
        fine_idx = np.clip(best + offsets, a_blk, b_idx[blk, None])
        obj = _convolution_objective(sigma_s, phi, lam, totals[blk], fine_idx)
        vals[blk] = np.take_along_axis(obj, np.argmax(obj, axis=1)[:, None], axis=1)[:, 0]
    vals[a_idx > b_idx] = NEG_INF
    return TabulatedFunction(lo, hi, vals)


def total_entropy(system: SystemSpec,
                  grid_size: int = DEFAULT_GRID_SIZE) -> TabulatedFunction:
    """Typical-code combined entropy over the total per-particle energy: the
    enveloped table, negative values clipped to NEG_INF."""
    sigma_s = source_entropy_function(system.source, grid_size)
    phi = channel_phi(system, grid_size)
    conv = _convolution_table(sigma_s, phi, system.lambda_value, grid_size)
    try:
        conv = concave_envelope(conv)
    except DegenerateFunction:
        pass   # fewer than 3 finite points: nothing to envelope
    return clip_nonnegative(conv)


def dominant_energy(system: SystemSpec, beta: Optional[float] = None,
                    grid_size: int = DEFAULT_GRID_SIZE,
                    sigma: Optional[TabulatedFunction] = None) -> DominantEnergy:
    """Grid argmax of Sigma(eps) - beta*eps, ties toward the smallest eps; the
    slope beta defaults to the system's own, sigma to the system's table."""
    if sigma is None:
        sigma = total_entropy(system, grid_size)
    if not sigma.finite_mask.any():
        return DominantEnergy(math.nan, NEG_INF)
    sup = legendre_sup(sigma, system.beta if beta is None else beta)
    return DominantEnergy(sup.epsilon, sup.value)


def _entropy_balance(system: SystemSpec):
    """(phase, mi_rate, H(S), eps_C) from the sign of H(S) - lambda*I_beta."""
    b = system.beta
    h_source = source_shannon_entropy(system.source)
    eps_channel = zeta_prime_neg(system)
    # lambda*I_beta, with I_beta = -phi(eps_C) >= 0
    info = system.lambda_value * max(-zeta(system, b) - b * eps_channel, 0.0)
    if h_source <= info + 1e-12 * max(h_source, info):
        # the transmitted message dominates the posterior; exact ties included
        return Phase.ORDERED, h_source, h_source, eps_channel
    # +0.0 normalizes a signed zero
    return Phase.PARAMAGNETIC, info + 0.0, h_source, eps_channel


def analyze(system: SystemSpec, grid_size: int = DEFAULT_GRID_SIZE) -> PhaseReport:
    """Classify the phase and assemble the full report at the system's own
    temperature; analyze(system.retempered(b)) reports at another.

    The label and mi_rate are exact; grid_size sets only the resolution of
    the paramagnetic epsilon0 and of sigma_at_eps0.
    """
    lam = system.lambda_value
    phase, mi, h_source, eps_channel = _entropy_balance(system)
    eps_source = system.source.mean_energy()
    sigma = total_entropy(system, grid_size)
    if phase is Phase.ORDERED:
        eps0 = (eps_source + lam * eps_channel) / (1.0 + lam)
    else:
        eps0 = dominant_energy(system, sigma=sigma).epsilon0
    return PhaseReport(phase, eps0, eps_source, eps_channel, mi, h_source,
                       sigma.values_at(eps0))


def classify_phase(system: SystemSpec) -> Phase:
    return _entropy_balance(system)[0]


def mutual_information_rate(system: SystemSpec) -> float:
    """Nats of mutual information per source symbol for the typical code."""
    return _entropy_balance(system)[1]


def energy_split(system: SystemSpec, grid_size: int = DEFAULT_GRID_SIZE):
    """(eps_star, channel_share) of the dominant posterior configurations."""
    report = analyze(system, grid_size)
    if report.phase is not Phase.PARAMAGNETIC:
        raise PhaseMismatch(f"energy split defined in the paramagnetic phase, got {report.phase.value}")
    lam = system.lambda_value
    sigma = total_entropy(system, grid_size)
    gap = abs((1.0 + lam) * report.epsilon0
              - (report.epsilon_star + lam * report.channel_share))
    if gap > 3.0 * (1.0 + lam) * sigma.step:
        raise RuntimeError(f"energy split inconsistent with the dominant energy (gap {gap:.3g})")
    return report.epsilon_star, report.channel_share


def mi_rate_alternative(system: SystemSpec, grid_size: int = DEFAULT_GRID_SIZE) -> float:
    """Mutual information via the log-likelihood chain,
    beta*eps* + psi_S - Sigma_S(eps*) - lam*phi(share), an independent route
    that must agree with mutual_information_rate up to grid resolution.
    """
    report = analyze(system, grid_size)
    if report.phase is not Phase.PARAMAGNETIC:
        raise PhaseMismatch(f"alternative rate defined in the paramagnetic phase, got {report.phase.value}")
    lam = system.lambda_value
    eps_star = system.source.mean_energy()
    psi_s = system.source.log_partition()
    sigma_star = source_entropy_at(system.source, eps_star).value
    share = ((1.0 + lam) * report.epsilon0 - eps_star) / lam
    phi_share = channel_phi_at(system, share).value
    return system.beta * eps_star + psi_s - sigma_star - lam * phi_share
