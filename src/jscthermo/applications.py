"""Wiretap-channel secrecy calculators and the two-user additive-access case.

The wiretap side evaluates the rate-versus-leakage curve Gamma(R), its fixed
point (the secrecy capacity) and the equivocation guaranteed by a random code
operating above the eavesdropper's capacity.  The multiple-access side
computes the per-user mutual information rate from the conditional and
unconditional channel-energy rate functions; its exact finite-size oracle
runs oracle.exact_mi on the product of the two users' codebooks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    InfeasibleRate,
    NotAboveCapacity,
    PhaseMismatch,
    SpecError,
    TooLarge,
)
from .models import (
    ChannelSpec,
    EnsembleSpec,
    PhiPoint,
    SourceSpec,
    SystemSpec,
    _as_number,
    _ByContent,
    _TiltedFamily,
    channel_from_dict,
    channel_phi_at,
    ensemble_from_dict,
    entropy,
    masked_log,
    parse_lambda,
    same_temperature,
    source_from_dict,
    source_shannon_entropy,
    zeta_prime_neg,
)
from .oracle import (
    DEFAULT_ENUM_BUDGET,
    CodeInstance,
    _message_log_prior,
    derive_seed,
    draw_code,
    exact_mi,
)
from .phases import Phase, classify_phase, mutual_information_rate
from .tabulated import DEFAULT_GRID_SIZE, ConcaveFunction

def channel_mutual_information(p_x: np.ndarray, w: np.ndarray) -> float:
    """I(X;Y) in nats for input law p_x over transition matrix w."""
    p_y = p_x @ w
    h_y = entropy(p_y)
    h_y_given_x = float(np.dot(p_x, [entropy(row) for row in w]))
    return h_y - h_y_given_x


def _simplex_grid(dim: int, steps: int) -> np.ndarray:
    """All probability vectors with coordinates k/steps, lexicographic order."""
    if dim == 1:
        return np.ones((1, 1))
    if dim == 2:
        first = np.arange(steps + 1) / steps
        return np.column_stack([first, 1.0 - first])
    if dim == 3:
        rows = []
        for i in range(steps + 1):
            j = np.arange(steps + 1 - i)
            block = np.column_stack([np.full(j.size, i / steps), j / steps,
                                     (steps - i - j) / steps])
            rows.append(block)
        return np.vstack(rows)
    raise ValueError("exhaustive grid only for up to 3 inputs")


@dataclass(frozen=True, eq=False)
class WiretapSpec(_ByContent):
    """Main channel followed by a tap channel, at lam uses per source symbol."""

    main_channel: ChannelSpec
    tap_channel: ChannelSpec
    lam: Fraction
    source_entropy: float

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        if self.tap_channel.in_size != self.main_channel.out_size:
            raise ValueError("tap channel must consume the main channel output")
        if self.source_entropy < 0:
            raise ValueError("source entropy must be nonnegative")

    def cascade(self) -> ChannelSpec:
        """The end-to-end eavesdropper channel W(z|x)."""
        w = self.main_channel.transition_matrix() @ self.tap_channel.transition_matrix()
        return ChannelSpec.from_transition(w, 1.0)


class GammaResult(NamedTuple):
    value: float
    input_dist: np.ndarray
    certified: bool


def _mi_tables(spec: WiretapSpec, resolution: int):
    w_y = spec.main_channel.transition_matrix()
    w_z = w_y @ spec.tap_channel.transition_matrix()
    grid = _simplex_grid(spec.main_channel.in_size, resolution)
    mi_y = entropy(grid @ w_y, axis=1) - grid @ np.array([entropy(row) for row in w_y])
    mi_z = entropy(grid @ w_z, axis=1) - grid @ np.array([entropy(row) for row in w_z])
    return grid, mi_y, mi_z


def _local_ascent(spec: WiretapSpec, rate: float, starts: int = 16):
    """Multi-start hill climb for more than 3 input letters; not certified."""
    w_y = spec.main_channel.transition_matrix()
    w_z = w_y @ spec.tap_channel.transition_matrix()
    dim = spec.main_channel.in_size
    rng = np.random.default_rng(0)
    best_val, best_p = -math.inf, None
    for s in range(starts):
        p = np.full(dim, 1.0 / dim) if s == 0 else rng.dirichlet(np.ones(dim))
        step = 0.25
        val = -math.inf
        if channel_mutual_information(p, w_y) >= rate:
            val = channel_mutual_information(p, w_y) - channel_mutual_information(p, w_z)
        for _ in range(400):
            moved = False
            for i in range(dim):
                for sgn in (1.0, -1.0):
                    q = p.copy()
                    q[i] = max(q[i] + sgn * step, 0.0)
                    q = q / q.sum()
                    if channel_mutual_information(q, w_y) < rate:
                        continue
                    cand = channel_mutual_information(q, w_y) - channel_mutual_information(q, w_z)
                    if cand > val + 1e-15:
                        p, val, moved = q, cand, True
            if not moved:
                step *= 0.5
                if step < 1e-9:
                    break
        if val > best_val:
            best_val, best_p = val, p
    if best_p is None:
        raise InfeasibleRate(f"no input distribution reaches rate {rate!r}")
    return GammaResult(float(best_val), best_p, False)


def gamma(spec: WiretapSpec, rate: float, resolution: int = 1000) -> GammaResult:
    """max over {P_X : I(X;Y) >= rate} of I(X;Y) - I(X;Z).

    Exhaustive simplex grid (lexicographic tie-breaking) for up to 3 input
    letters; multi-start local ascent, flagged non-certified, beyond that.
    """
    if spec.main_channel.in_size > 3:
        return _local_ascent(spec, rate)
    grid, mi_y, mi_z = _mi_tables(spec, resolution)
    feasible = mi_y >= rate - 1e-12
    if not feasible.any():
        raise InfeasibleRate(f"no input distribution reaches rate {rate!r}")
    delta = np.where(feasible, mi_y - mi_z, -math.inf)
    k = int(np.argmax(delta))   # first occurrence: lexicographically smallest
    return GammaResult(float(delta[k]), grid[k], True)


def secrecy_capacity(spec: WiretapSpec, resolution: int = 1000,
                     tol: float = 1e-8) -> float:
    """Solve R = Gamma(R) by bisection on the grid-evaluated Gamma.

    Returns the lower bracket, so the result R keeps R <= Gamma(R) <= Gamma(0).
    """
    grid, mi_y, _ = _mi_tables(spec, resolution)
    r_max = float(mi_y.max())
    g0 = gamma(spec, 0.0, resolution).value
    if g0 <= 0.0:
        return 0.0
    lo, hi = 0.0, r_max
    if gamma(spec, r_max, resolution).value >= r_max:
        return r_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if gamma(spec, mid, resolution).value - mid > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def tap_capacity(spec: WiretapSpec, resolution: int = 1000) -> float:
    """Capacity of the cascade channel seen by the eavesdropper."""
    _, _, mi_z = _mi_tables(spec, resolution)
    return float(mi_z.max())


def max_main_rate(spec: WiretapSpec, resolution: int = 1000) -> float:
    """Capacity of the main channel (the upper end of the feasible rates)."""
    _, mi_y, _ = _mi_tables(spec, resolution)
    return float(mi_y.max())


def equivocation_bound(spec: WiretapSpec, eavesdrop_system: SystemSpec,
                       resolution: int = 1000) -> float:
    """Guaranteed H(S|Z) per source symbol for a code above tap capacity.

    The eavesdrop system models the codeword process against the cascade
    channel; the bound is its message entropy minus the leaked mutual
    information, clamped to [0, H(S)].
    """
    w_eaves = eavesdrop_system.channel.transition_matrix()
    w_casc = spec.cascade().transition_matrix()
    if w_eaves.shape != w_casc.shape or not np.allclose(w_eaves, w_casc, atol=1e-9):
        raise ValueError("eavesdrop system must run over the cascade channel")
    h_code = source_shannon_entropy(eavesdrop_system.source)
    lam = float(eavesdrop_system.lam)
    rate_per_use = h_code / lam
    cap = tap_capacity(spec, resolution)
    if rate_per_use <= cap + 1e-12:
        raise NotAboveCapacity(
            f"code rate {rate_per_use:.6g} nats/use does not exceed tap capacity {cap:.6g}")
    leaked = mutual_information_rate(eavesdrop_system)
    return min(max(h_code - leaked, 0.0), spec.source_entropy)


# ---------------------------------------------------------------------------
# Two-user multiple access


@dataclass(frozen=True, eq=False)
class MacChannelSpec(_ByContent):
    """Memoryless two-input channel, W(y|xs,xt) prop. exp(-beta*E(xs,xt,y)).

    Validated and shifted as the ChannelSpec whose inputs are the input pairs.
    """

    hamiltonian: np.ndarray   # shape (|Xs|, |Xt|, |Y|), +inf allowed
    beta: float

    def __post_init__(self):
        e = np.asarray(self.hamiltonian, dtype=float)
        if e.ndim != 3 or e.shape[2] < 2:
            raise ValueError("need a 3-d energy tensor with at least 2 outputs")
        flat = ChannelSpec(e.reshape(-1, e.shape[2]), self.beta)
        object.__setattr__(self, "hamiltonian", flat.hamiltonian.reshape(e.shape))

    @property
    def shape(self):
        return self.hamiltonian.shape

    def flattened(self) -> ChannelSpec:
        """Single-user view with the input pair as one super-letter."""
        ks, kt, ky = self.hamiltonian.shape
        return ChannelSpec(self.hamiltonian.reshape(ks * kt, ky), self.beta)


@dataclass(frozen=True, eq=False)
class MacSpec(_ByContent):
    """Two independent sources and codebooks feeding one two-input channel."""

    source_s: SourceSpec
    source_t: SourceSpec
    ensemble_s: EnsembleSpec
    ensemble_t: EnsembleSpec
    channel: MacChannelSpec
    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        ks, kt, _ = self.channel.shape
        if self.ensemble_s.size != ks or self.ensemble_t.size != kt:
            raise ValueError("ensemble sizes must match the channel inputs")
        if not (same_temperature(self.source_s.beta, self.source_t.beta)
                and same_temperature(self.source_s.beta, self.channel.beta)):
            raise ValueError("sources and channel must share one inverse temperature")

    @property
    def beta(self) -> float:
        return self.source_s.beta

    def combined_system(self) -> SystemSpec:
        """Both users merged into one super-source and super-ensemble."""
        e_joint = (self.source_s.hamiltonian[:, None]
                   + self.source_t.hamiltonian[None, :]).ravel()
        source = SourceSpec(e_joint, self.beta)
        m_joint = (self.ensemble_s.coding_dist[:, None]
                   * self.ensemble_t.coding_dist[None, :]).ravel()
        return SystemSpec(source, self.channel.flattened(),
                          EnsembleSpec(m_joint), self.lam)


def _conditional_family(spec: MacSpec) -> _TiltedFamily:
    """Tilted family of the T-codeword energy given the true (xs, y).

    The conditioning pair is folded into the output axis with its true joint
    law: xs ~ M_S and y from the channel fed by both ensembles.
    """
    e = spec.channel.hamiltonian
    ks, kt, ky = e.shape
    w = spec.channel.flattened().transition_matrix().reshape(ks, kt, ky)
    m_s = spec.ensemble_s.coding_dist
    m_t = spec.ensemble_t.coding_dist
    joint = m_s[:, None] * np.einsum("t,sty->sy", m_t, w)   # law of (xs, y)
    joint = (joint / joint.sum()).ravel()
    energies = np.transpose(e, (1, 0, 2)).reshape(kt, ks * ky)
    return _TiltedFamily(masked_log(spec.ensemble_t.coding_dist), energies, joint)


def mac_phi_conditional(spec: MacSpec,
                        grid_size: int = DEFAULT_GRID_SIZE) -> ConcaveFunction:
    """Rate function of the channel energy with the S-codeword pinned."""
    e = spec.channel.hamiltonian
    return _conditional_family(spec).table(0.0, float(e[np.isfinite(e)].max()), grid_size)


def mac_phi_conditional_at(spec: MacSpec, epsilon: float) -> PhiPoint:
    return _conditional_family(spec).at(epsilon)


def mac_mi_user(spec: MacSpec) -> float:
    """Mutual information rate between user S and the output, in nats/symbol.

    lam * [phi(eps_C* | S) - phi(eps_C*)] at the dominant channel energy,
    valid in the paramagnetic phase of the combined system.
    """
    combined = spec.combined_system()
    phase = classify_phase(combined)
    if phase is not Phase.PARAMAGNETIC:
        raise PhaseMismatch(f"combined system is {phase.value}, not Paramagnetic")
    eps_c = zeta_prime_neg(combined)
    cond = mac_phi_conditional_at(spec, eps_c).value
    joint = channel_phi_at(combined, eps_c).value
    return float(spec.lam) * (cond - joint)


class MacOracleReport(NamedTuple):
    mi_s: float
    mi_t_given_s: float
    mi_joint: float


def mac_oracle(spec: MacSpec, N: int, seed: int,
               budget: int = DEFAULT_ENUM_BUDGET) -> MacOracleReport:
    """Exact I(S;Y), I(T;Y|S), I(S,T;Y) per source symbol at block length N.

    Codebooks for the two users are drawn on independent derived streams;
    user S's stream seed is derive_seed(seed, 1) and user T's derive_seed(seed, 2).
    Every quantity comes from exact_mi: I(S,T;Y) on the product code over the
    combined system, I(T;Y|S) averaged over user S's messages with x_S(s)
    held fixed, and I(S;Y) as their difference.
    """
    combined = spec.combined_system()
    n = combined.block_length(N)
    ks_src = spec.source_s.alphabet_size
    kt_src = spec.source_t.alphabet_size
    num_s, num_t, num_y = ks_src ** N, kt_src ** N, spec.channel.shape[2] ** n
    if num_s * num_t * num_y > budget:
        raise TooLarge(f"enumeration {num_s}x{num_t}x{num_y} exceeds budget {budget}")

    sys_s = SystemSpec(spec.source_s, ChannelSpec(
        np.zeros((spec.ensemble_s.size, 2)), spec.beta), spec.ensemble_s, spec.lam)
    sys_t = SystemSpec(spec.source_t, ChannelSpec(
        np.zeros((spec.ensemble_t.size, 2)), spec.beta), spec.ensemble_t, spec.lam)
    code_s = draw_code(sys_s, N, derive_seed(seed, 1), budget)
    book_t = draw_code(sys_t, N, derive_seed(seed, 2), budget).codebook

    # product codewords carry the letters x_S * |X_T| + x_T, in the combined
    # message order, whose digits interleave s_1 t_1 s_2 t_2 ...
    kx_t = spec.ensemble_t.size
    pairs = (code_s.codebook[:, None, :] * kx_t + book_t[None, :, :]).reshape(-1, n)
    order = np.arange(num_s * num_t).reshape([ks_src] * N + [kt_src] * N)
    order = order.transpose(np.arange(2 * N).reshape(2, N).T.ravel()).ravel()
    mi_joint = exact_mi(CodeInstance(combined, N, n, seed, pairs[order]), budget).mi_per_symbol

    given_s = SystemSpec(spec.source_t, combined.channel, combined.ensemble, spec.lam)
    mi_t_given_s = float(np.dot(np.exp(_message_log_prior(code_s)), [
        exact_mi(CodeInstance(given_s, N, n, seed, x_s * kx_t + book_t), budget).mi_per_symbol
        for x_s in code_s.codebook]))
    # the difference, kept in [0, I(S,T;Y)] against rounding
    mi_s = min(max(0.0, mi_joint - mi_t_given_s), mi_joint)
    return MacOracleReport(mi_s, mi_t_given_s, mi_joint)


# ---------------------------------------------------------------------------
# JSON ingestion


def wiretap_from_dict(obj: dict) -> WiretapSpec:
    block = obj.get("wiretap")
    if block is None:
        raise SpecError("wiretap", "missing")
    main = channel_from_dict(block.get("main", {}), "wiretap.main")
    tap = channel_from_dict(block.get("tap", {}), "wiretap.tap")
    lam = parse_lambda(block, "wiretap")
    if "source_entropy" in block:
        h = _as_number(block["source_entropy"], "wiretap.source_entropy")
        if h < 0:
            raise SpecError("wiretap.source_entropy", "expected a nonnegative number")
    elif "binary_source" in block or "source" in block:
        h = source_shannon_entropy(source_from_dict(block, "wiretap"))
    else:
        raise SpecError("wiretap.source_entropy", "missing")
    try:
        return WiretapSpec(main, tap, lam, h)
    except ValueError as exc:
        raise SpecError("wiretap", str(exc)) from exc


def mac_from_dict(obj: dict) -> MacSpec:
    block = obj.get("mac")
    if block is None:
        raise SpecError("mac", "missing")
    source_s = source_from_dict(block, "mac")
    shim_t = {}
    if "source_t" in block:
        shim_t["source"] = block["source_t"]
    if "binary_source_t" in block:
        shim_t["binary_source"] = block["binary_source_t"]
    source_t = source_from_dict(shim_t, "mac(second user)")
    tensor = block.get("channel3")
    if tensor is None:
        raise SpecError("mac.channel3", "missing")
    beta = _as_number(block.get("beta", source_s.beta), "mac.beta")
    try:
        channel = MacChannelSpec(np.asarray(tensor, dtype=float), beta)
    except (ValueError, TypeError) as exc:
        raise SpecError("mac.channel3", str(exc)) from exc
    ks, kt, _ = channel.shape
    ens_s = ensemble_from_dict(block, ks, "mac")
    ens_t = ensemble_from_dict(
        {"ensemble": block["ensemble_t"]} if "ensemble_t" in block else {}, kt, "mac")
    lam = parse_lambda(block, "mac")
    try:
        return MacSpec(source_s, source_t, ens_s, ens_t, channel, lam)
    except ValueError as exc:
        raise SpecError("mac", str(exc)) from exc
