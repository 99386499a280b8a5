"""Memoryless sources, discrete channels and i.i.d. coding ensembles.

Sources and channels are Boltzmann families: the stored Hamiltonian together
with an inverse temperature defines the letter distribution P(s) and the
transition matrix W(y|x).  This module computes their per-letter log
partition functions, microcanonical entropy curves, the output-averaged log
moment generating function of the channel energy and its rate function, plus
the closed-form crossover/bias parameter mappings and binary convolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .errors import IncompatibleSupport, InvalidTemperature, OutOfRange
from .tabulated import (
    DEFAULT_GRID_SIZE,
    NEG_INF,
    ConcaveFunction,
    TabulatedFunction,
)

# Tolerances and the tilt window are relative to a family's largest energy.
_DEGENERATE_SPAN = 1e-12   # energy ranges below this collapse to a point
_POINT_SLACK = 1e-9        # a one-point energy range accepts eps this close
_SLOPE_CAP = 1e5           # window for tilt parameters
_CELL_BUDGET = 1 << 22     # cells in one (tilts x inputs x outputs) temporary


def logsumexp(a, axis=None):
    """log(sum(exp(a))) along axis without overflow; an all -inf slice gives -inf."""
    a = np.asarray(a, dtype=float)
    peak = np.max(a, axis=axis, keepdims=True)
    peak[~np.isfinite(peak)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - peak), axis=axis)) + np.squeeze(peak, axis=axis)


def masked_log(p):
    """ln p elementwise, -inf where p = 0, without a divide-by-zero warning."""
    positive = p > 0.0
    return np.where(positive, np.log(np.where(positive, p, 1.0)), -np.inf)


def entropy(p, axis=-1):
    """Shannon entropy -sum p ln p in nats along axis, with 0 ln 0 = 0.  A
    vector drops its cells at or below 1e-300 and returns a float; an array
    sums a zero for each empty cell, so every slice sums in the same order."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 1:
        p = p[p > 1e-300]
        return float(-np.sum(p * np.log(p)))
    positive = p > 0.0
    return -np.sum(np.where(positive, p * np.log(np.where(positive, p, 1.0)), 0.0), axis=axis)


def binary_entropy(x):
    """h2 in nats; accepts scalars or arrays, 0 at the endpoints."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inner = (x > 0.0) & (x < 1.0)
    xi = x[inner]
    out[inner] = -xi * np.log(xi) - (1.0 - xi) * np.log(1.0 - xi)
    return float(out) if out.ndim == 0 else out


def binary_convolution(m: float, p: float) -> float:
    """m*p = m(1-p) + p(1-m), the crossover of two cascaded BSC mechanisms."""
    return m * (1.0 - p) + p * (1.0 - m)


def _check_kt(k_t: float):
    if k_t <= 0:
        raise InvalidTemperature(f"kT={k_t!r} must be positive")


def crossover_from_energy(e0: float, k_t: float) -> float:
    """BSC crossover p for a two-level channel with excitation energy e0."""
    _check_kt(k_t)
    return 1.0 / (1.0 + math.exp(e0 / k_t))


def energy_from_crossover(p: float, k_t: float) -> float:
    """Inverse of crossover_from_energy."""
    _check_kt(k_t)
    if not 0.0 < p < 1.0:
        raise OutOfRange(f"p={p!r} must lie in (0, 1)")
    return k_t * math.log((1.0 - p) / p)


def bias_from_field(b_field: float, k_t: float) -> float:
    """Probability of the aligned spin state under field B."""
    _check_kt(k_t)
    return 1.0 / (1.0 + math.exp(-2.0 * b_field / k_t))


def field_from_bias(q: float, k_t: float) -> float:
    """Inverse of bias_from_field."""
    _check_kt(k_t)
    if not 0.0 < q < 1.0:
        raise OutOfRange(f"q={q!r} must lie in (0, 1)")
    return 0.5 * k_t * math.log(q / (1.0 - q))


def same_temperature(a: float, b: float) -> bool:
    """Whether two positive inverse temperatures agree to 1e-12 of their size."""
    return abs(a - b) <= 1e-12 * max(a, b)


class _ByContent:
    """Equality and hashing of a frozen spec field by field; arrays compare
    by shape and bytes, so equal specs always hash equal."""

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in fields(self))
        return tuple((v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
                     for v in values)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class SourceSpec(_ByContent):
    """Memoryless source with P(s) proportional to exp(-beta * E(s)).

    The Hamiltonian is shifted so its minimum is 0; the shift cancels in
    every probability and posterior.
    """

    hamiltonian: np.ndarray
    beta: float

    def __post_init__(self):
        e = np.asarray(self.hamiltonian, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise ValueError("source needs at least 2 symbols")
        if not np.isfinite(e).all():
            raise ValueError("source energies must be finite")
        if not 0.0 < self.beta < math.inf:
            raise ValueError("source beta must be positive and finite")
        e = e - e.min()
        e.setflags(write=False)
        object.__setattr__(self, "hamiltonian", e)

    @property
    def alphabet_size(self) -> int:
        return int(self.hamiltonian.size)

    def retempered(self, beta: float) -> "SourceSpec":
        return SourceSpec(self.hamiltonian, beta)

    def probabilities(self) -> np.ndarray:
        return np.exp(-self.beta * self.hamiltonian - self.log_partition())

    def log_partition(self) -> float:
        return source_log_partition(self, self.beta)

    def mean_energy(self) -> float:
        return float(np.dot(self.probabilities(), self.hamiltonian))


def source_log_partition(source: SourceSpec, beta: float) -> float:
    """Per-letter log partition function psi_S(beta), at any slope beta."""
    return float(logsumexp(-beta * source.hamiltonian))


def source_shannon_entropy(source: SourceSpec) -> float:
    """Per-symbol Shannon entropy in nats: psi(beta) + beta * mean energy."""
    return source.log_partition() + source.beta * source.mean_energy()


class PhiPoint(NamedTuple):
    value: float
    slope: float


EntropyPoint = PhiPoint   # Sigma_S is the same Legendre dual


class _TiltedFamily:
    """zeta(t) = sum_y Q(y) log sum_x w(x) exp(-t E(x,y)) and its Legendre dual
    phi(eps) = inf_t [zeta(t) + eps*t], the growth rate of configurations at
    output-averaged energy eps.

    The channel rate function takes w = M and Q the output law; the source
    entropy Sigma_S is the same dual under counting measure with one output.
    Cells with E = +inf or w = 0 are masked and outputs with Q(y) = 0 are
    dropped.  Every method is vectorised over tilts, inputs and outputs.
    """

    def __init__(self, log_w, energies, out_weights):
        log_w = np.asarray(log_w, dtype=float)
        q = np.asarray(out_weights, dtype=float)
        used = q > 0.0
        energies = np.asarray(energies, dtype=float)[:, used]
        ok = np.isfinite(energies) & np.isfinite(log_w)[:, None]
        empty = ~ok.any(axis=0)
        if empty.any():
            y = int(np.flatnonzero(used)[np.argmax(empty)])
            raise IncompatibleSupport(f"output {y} has no compatible input letter")
        self.q = q[used]
        self.energies = np.where(ok, energies, 0.0)
        self.log_w = np.where(ok, log_w[:, None], NEG_INF)
        self.scale = float(np.abs(self.energies).max()) or 1.0
        self.tol = _DEGENERATE_SPAN * self.scale
        e_lo = np.where(ok, energies, np.inf).min(axis=0)
        e_hi = np.where(ok, energies, -np.inf).max(axis=0)
        self.eps_lo = float(e_lo @ self.q)
        self.eps_hi = float(e_hi @ self.q)
        # log mass of each output's lowest and highest level
        self.lo_mass, self.hi_mass = (
            float(logsumexp(np.where(level, self.log_w, NEG_INF), axis=0) @ self.q)
            for level in (energies <= e_lo + self.tol, energies >= e_hi - self.tol))

    def _chunked(self, fn, xs) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        step = max(1, _CELL_BUDGET // self.energies.size)
        return np.concatenate([fn(xs[a:a + step]) for a in range(0, xs.size, step)] or [xs])

    def _logits(self, ts: np.ndarray) -> np.ndarray:
        return self.log_w - ts[:, None, None] * self.energies

    def _moments(self, ts: np.ndarray):
        """Output-averaged mean and variance of the energy under each tilted law."""
        logits = self._logits(ts)
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        z = p.sum(axis=1)
        mean = (p * self.energies).sum(axis=1) / z
        var = (p * (self.energies - mean[:, None, :]) ** 2).sum(axis=1) / z
        return mean @ self.q, var @ self.q

    def log_mgf(self, ts) -> np.ndarray:
        """zeta at each tilt."""
        return self._chunked(lambda t: logsumexp(self._logits(t), axis=1) @ self.q, ts)

    def mean(self, ts) -> np.ndarray:
        """-zeta'(t): the output-averaged mean energy of each tilted law."""
        return self._chunked(lambda t: self._moments(t)[0], ts)

    def tilt(self, targets) -> np.ndarray:
        """Solve mean(t) = target inside (eps_lo, eps_hi).  The mean falls
        strictly in t with slope -variance, within +-_SLOPE_CAP per unit of the
        largest energy.  Each target starts between two knots of a log-spaced
        table of tilts and takes Newton steps; a step that leaves the shrinking
        bracket is replaced by the bracket midpoint.  No target takes more than
        110 evaluations."""
        cap = _SLOPE_CAP / self.scale
        side = cap * np.logspace(-10.0, 0.0, 129)
        knots = np.concatenate([-side[::-1], [0.0], side])
        # searchsorted needs non-increasing means; rounding can break that where they saturate
        means = np.minimum.accumulate(self.mean(knots))

        def newton(goal):
            k = np.clip(np.searchsorted(-means, -goal), 1, knots.size - 1)
            lo, hi = knots[k - 1], knots[k]
            with np.errstate(divide="ignore", invalid="ignore"):
                frac = (means[k - 1] - goal) / (means[k - 1] - means[k])
            t = lo + (hi - lo) * np.where(np.isfinite(frac), np.clip(frac, 0.0, 1.0), 0.5)
            out, todo = t.copy(), np.arange(goal.size)
            for _ in range(110):
                m, var = self._moments(t)
                above = m > goal                  # the root lies above t
                lo, hi = np.where(above, t, lo), np.where(above, hi, t)
                with np.errstate(divide="ignore", invalid="ignore"):
                    nt = t + (m - goal) / var
                inside = (nt >= lo) & (nt <= hi)
                done = inside & (np.abs(nt - t) <= 1e-12 * (np.abs(nt) + 1.0 / self.scale))
                t = np.where(inside, nt, 0.5 * (lo + hi))
                done |= hi - lo <= 4.0 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
                out[todo] = t
                keep = ~done
                todo, t, lo, hi, goal = todo[keep], t[keep], lo[keep], hi[keep], goal[keep]
                if not todo.size:
                    break
            return out

        return self._chunked(newton, targets)

    def _dual(self, eps: np.ndarray):
        """phi and its slope at eps; at or beyond an end, that end's level."""
        lo = eps <= self.eps_lo + self.tol
        inner = ~lo & (eps < self.eps_hi - self.tol)
        value = np.where(lo, self.lo_mass, self.hi_mass)
        slope = np.where(lo, math.inf, -math.inf)
        ts = self.tilt(eps[inner])
        value[inner] = self.log_mgf(ts) + eps[inner] * ts
        slope[inner] = ts
        return value, slope

    def at(self, eps: float) -> PhiPoint:
        """phi(eps) with the minimising tilt as slope; NEG_INF if unreachable."""
        if self.eps_hi - self.eps_lo <= self.tol:
            if abs(eps - self.eps_lo) <= _POINT_SLACK * self.scale:
                return PhiPoint(float(self.log_mgf(0.0)[0]), 0.0)
            return PhiPoint(NEG_INF, math.nan)
        if not self.eps_lo - self.tol <= eps <= self.eps_hi + self.tol:
            return PhiPoint(NEG_INF, math.nan)
        value, slope = self._dual(np.array([eps], dtype=float))
        return PhiPoint(float(value[0]), float(slope[0]))

    def table(self, x_min: float, x_max: float, grid_size: int) -> ConcaveFunction:
        """phi on a uniform grid over [x_min, x_max], NEG_INF where unreachable."""
        vals = np.full(grid_size, NEG_INF)
        if x_max - x_min <= self.tol:
            vals[0] = self.at(self.eps_lo).value
            return ConcaveFunction(TabulatedFunction(x_min, x_min + 1.0, vals))
        grid = np.linspace(x_min, x_max, grid_size)
        inside = (grid >= self.eps_lo - self.tol) & (grid <= self.eps_hi + self.tol)
        if not inside.any():
            # reachable interval thinner than one grid cell
            inside[np.argmin(np.abs(grid - 0.5 * (self.eps_lo + self.eps_hi)))] = True
        vals[inside] = self._dual(grid[inside])[0]
        return ConcaveFunction(TabulatedFunction(x_min, x_max, vals))


def _source_family(source: SourceSpec) -> _TiltedFamily:
    return _TiltedFamily(np.zeros(source.alphabet_size), source.hamiltonian[:, None], [1.0])


def source_entropy_function(source: SourceSpec,
                            grid_size: int = DEFAULT_GRID_SIZE) -> ConcaveFunction:
    """Microcanonical entropy Sigma_S over [0, max E]: growth rate of the
    number of N-strings at per-symbol energy eps.

    Interior points solve the tilted-mean equation exactly; the endpoints are
    the log multiplicities of the extreme energy levels.  A source whose
    energies are all equal collapses to a single finite point at eps = 0.
    """
    return _source_family(source).table(0.0, float(source.hamiltonian.max()), grid_size)


def source_entropy_at(source: SourceSpec, epsilon: float) -> EntropyPoint:
    """Pointwise Sigma_S(eps) and its slope beta(eps), solved exactly."""
    return _source_family(source).at(epsilon)


@dataclass(frozen=True, eq=False)
class ChannelSpec(_ByContent):
    """DMC with W(y|x) proportional to exp(-beta * E(x, y)).

    E may contain +inf for forbidden transitions (W = 0).  A single global
    shift puts the minimum finite energy at 0.  Row normalisation absorbs
    per-row shifts, so they leave W unchanged, but they would change the
    thermodynamic analysis, which uses E itself; they are never applied.
    """

    hamiltonian: np.ndarray
    beta: float

    def __post_init__(self):
        e = np.asarray(self.hamiltonian, dtype=float)
        if e.ndim != 2 or e.shape[0] < 1 or e.shape[1] < 2:
            raise ValueError("channel needs a 2-d energy matrix")
        if np.isnan(e).any() or np.isneginf(e).any():
            raise ValueError("channel energies must be finite or +inf")
        finite = np.isfinite(e)
        if not finite.any(axis=1).all():
            raise ValueError("every input needs at least one allowed output")
        if not 0.0 < self.beta < math.inf:
            raise ValueError("channel beta must be positive and finite")
        e = e - e[finite].min()
        e.setflags(write=False)
        object.__setattr__(self, "hamiltonian", e)

    @property
    def in_size(self) -> int:
        return int(self.hamiltonian.shape[0])

    @property
    def out_size(self) -> int:
        return int(self.hamiltonian.shape[1])

    def retempered(self, beta: float) -> "ChannelSpec":
        return ChannelSpec(self.hamiltonian, beta)

    @classmethod
    def from_transition(cls, w, beta: float) -> "ChannelSpec":
        """The channel at beta whose transition matrix is w: E = -ln W / beta,
        +inf where W = 0, so every row has Z_x = 1 before the global shift."""
        return cls(-masked_log(np.asarray(w, dtype=float)) / beta, beta)

    def row_log_partition(self) -> np.ndarray:
        """ln Z_x = ln sum_y exp(-beta E(x, y)) for every input x."""
        return logsumexp(-self.beta * self.hamiltonian, axis=1)

    def transition_matrix(self) -> np.ndarray:
        """W(y|x) = exp(-beta E(x, y)) / Z_x, exactly 0 where E = +inf."""
        return np.exp(-self.beta * self.hamiltonian - self.row_log_partition()[:, None])


@dataclass(frozen=True, eq=False)
class EnsembleSpec(_ByContent):
    """Per-letter law under which codeword coordinates are drawn i.i.d."""

    coding_dist: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.coding_dist, dtype=float)
        if m.ndim != 1 or m.size < 1:
            raise ValueError("coding distribution must be a vector")
        if (m < 0).any() or not abs(m.sum() - 1.0) <= 1e-9:   # NaN fails too
            raise ValueError("coding distribution must be a probability vector")
        m = m / m.sum()
        m.setflags(write=False)
        object.__setattr__(self, "coding_dist", m)

    @property
    def size(self) -> int:
        return int(self.coding_dist.size)


@dataclass(frozen=True, eq=False)
class SystemSpec(_ByContent):
    """Source + channel + coding ensemble + bandwidth expansion factor.

    Source and channel share one inverse temperature; lam is the (rational)
    number of channel uses per source symbol.
    """

    source: SourceSpec
    channel: ChannelSpec
    ensemble: EnsembleSpec
    lam: Fraction

    def __post_init__(self):
        lam = Fraction(self.lam)
        if lam <= 0:
            raise ValueError("lambda must be positive")
        object.__setattr__(self, "lam", lam)
        if self.ensemble.size != self.channel.in_size:
            raise ValueError("coding distribution does not match channel inputs")
        if not same_temperature(self.source.beta, self.channel.beta):
            raise ValueError("source and channel must share one inverse temperature")

    @property
    def beta(self) -> float:
        return self.source.beta

    @property
    def lambda_value(self) -> float:
        return float(self.lam)

    def retempered(self, beta: float) -> "SystemSpec":
        if beta == self.beta:
            return self
        return SystemSpec(self.source.retempered(beta),
                          self.channel.retempered(beta), self.ensemble, self.lam)

    def block_length(self, num_symbols: int) -> int:
        n = self.lam * num_symbols
        if n.denominator != 1:
            raise ValueError(f"lambda*N = {n} is not an integer")
        return int(n)


def output_marginal(ensemble: EnsembleSpec, channel: ChannelSpec) -> np.ndarray:
    """Law of a channel output fed by one ensemble-distributed letter."""
    if ensemble.size != channel.in_size:
        raise ValueError("dimension mismatch between ensemble and channel")
    q = ensemble.coding_dist @ channel.transition_matrix()
    return q / q.sum()


def _system_family(system: SystemSpec) -> _TiltedFamily:
    q = output_marginal(system.ensemble, system.channel)
    return _TiltedFamily(masked_log(system.ensemble.coding_dist), system.channel.hamiltonian, q)


def zeta(system: SystemSpec, t: float) -> float:
    """Output-averaged per-letter log MGF of the channel energy under M."""
    return float(_system_family(system).log_mgf(t)[0])


def zeta_prime_neg(system: SystemSpec, t: Optional[float] = None) -> float:
    """-d zeta/dt at tilt t, by default the system's beta, where it is the
    dominant per-letter channel energy."""
    return float(_system_family(system).mean(system.beta if t is None else t)[0])


def channel_phi_at(system: SystemSpec, epsilon: float) -> PhiPoint:
    """Rate function of the channel energy against a typical output, at eps."""
    return _system_family(system).at(epsilon)


def channel_phi(system: SystemSpec,
                grid_size: int = DEFAULT_GRID_SIZE) -> ConcaveFunction:
    """Tabulated rate function over the finite channel energy range.

    phi <= 0 everywhere, with maximum 0 at the unconstrained mean energy;
    energies unreachable under the ensemble get NEG_INF.
    """
    e = system.channel.hamiltonian
    return _system_family(system).table(0.0, float(e[np.isfinite(e)].max()), grid_size)


def channel_energy_range(system: SystemSpec):
    """(eps_lo, eps_hi) achievable per-letter channel energies under M."""
    family = _system_family(system)
    return family.eps_lo, family.eps_hi
