"""Grid-based calculus for entropy-like functions.

Functions are sampled on uniform grids with a minus-infinity sentinel for
"no configurations here".  On top of that representation this module provides
upper concave envelopes, Legendre transforms in both directions, numerical
derivatives, the weighted supremal convolution of two entropy curves, and the
equal-slope equilibrium solver, plus the closed-form dominant energies of the
two-level and spin toy systems used as analytic oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundarySolution,
    DegenerateFunction,
    EdgeDerivative,
    InvalidTemperature,
)

NEG_INF = float("-inf")

DEFAULT_GRID_SIZE = 4097      # power of two plus one: midpoints stay on-grid
DEFAULT_BETA_MAX = 50.0       # default slope range for transform tables
TOL_CONCAVITY_REL = 1e-9      # concavity slack, relative to the value range
TOL_ROOT = 1e-10              # slope residual accepted by the equilibrium solver

# Interpolation weights this close to a node snap onto it, so that values
# at finite support edges are not poisoned by the NEG_INF neighbour when the
# query point is off the node by a rounding error.
_SNAP = 1e-9


@dataclass(frozen=True)
class TabulatedFunction:
    """A real function sampled on a uniform grid, with NEG_INF sentinels.

    Evaluation between grid points is linear interpolation; NEG_INF at either
    neighbour makes the interpolated value NEG_INF.  Outside [x_min, x_max]
    the function is NEG_INF.  Values are immutable after construction.
    """

    x_min: float
    x_max: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 3:
            raise ValueError("need a 1-d grid with at least 3 points")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be below x_max")
        if np.isnan(vals).any() or np.isposinf(vals).any():
            raise ValueError("values must be finite or NEG_INF")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def size(self) -> int:
        return int(self.values.size)

    @property
    def step(self) -> float:
        return (self.x_max - self.x_min) / (self.size - 1)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.size)

    @property
    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.values)

    def support_indices(self):
        """(first, last) finite grid index, or None if all NEG_INF."""
        idx = np.flatnonzero(self.finite_mask)
        if idx.size == 0:
            return None
        return int(idx[0]), int(idx[-1])

    def support_range(self):
        """(x_lo, x_hi) of the finite support, or None."""
        span = self.support_indices()
        if span is None:
            return None
        return self.x_min + span[0] * self.step, self.x_min + span[1] * self.step

    def values_at(self, xs) -> np.ndarray:
        """Vectorised evaluation with the NEG_INF interpolation rule."""
        xs = np.asarray(xs, dtype=float)
        scalar = xs.ndim == 0
        xs = np.atleast_1d(xs)
        h = self.step
        pos = (xs - self.x_min) / h
        idx = np.clip(np.floor(pos).astype(int), 0, self.size - 2)
        w = pos - idx
        w = np.where(np.abs(w) < _SNAP, 0.0, w)
        w = np.where(np.abs(w - 1.0) < _SNAP, 1.0, w)
        lo = self.values[idx]
        hi = self.values[idx + 1]
        out = np.full(xs.shape, NEG_INF)
        both = np.isfinite(lo) & np.isfinite(hi)
        with np.errstate(invalid="ignore"):
            np.copyto(out, lo + w * (hi - lo), where=both)
        np.copyto(out, lo, where=(w == 0.0) & np.isfinite(lo))
        np.copyto(out, hi, where=(w == 1.0) & np.isfinite(hi))
        edge = _SNAP * (self.x_max - self.x_min)
        outside = (xs < self.x_min - edge) | (xs > self.x_max + edge)
        out[outside] = NEG_INF
        return float(out[0]) if scalar else out

    def __call__(self, x: float) -> float:
        return float(self.values_at(x))


class ConcaveFunction(TabulatedFunction):
    """A TabulatedFunction whose finite part is contiguous and concave."""

    def __init__(self, table: TabulatedFunction):
        super().__init__(table.x_min, table.x_max, table.values)

    def __post_init__(self):
        super().__post_init__()
        mask = self.finite_mask
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            raise ValueError("no finite values")
        if not mask[idx[0]:idx[-1] + 1].all():
            raise ValueError("finite support must be contiguous")
        vals = self.values[idx[0]:idx[-1] + 1]
        if vals.size >= 3:
            rng = float(vals.max() - vals.min())
            tol = TOL_CONCAVITY_REL * max(rng, 1.0)
            second = vals[:-2] - 2.0 * vals[1:-1] + vals[2:]
            if second.max() > tol:
                raise ValueError("values are not concave on the grid")


class SupTransform(NamedTuple):
    value: float
    epsilon: float


class InfTransform(NamedTuple):
    value: float
    beta: float


class SupConvolution(NamedTuple):
    value: float
    epsilon_source: float


@dataclass(frozen=True)
class EquilibriumSolution:
    """Equal-slope energy split between two subsystems.

    epsilon_star is the per-particle energy of subsystem 1, epsilon_channel
    the per-particle energy ((1+lambda)*eps0 - eps_star)/lambda of subsystem 2,
    and beta the common slope of the two entropy curves at the solution.
    """

    epsilon_star: float
    epsilon_channel: float
    beta: float


def concave_envelope(points: TabulatedFunction) -> ConcaveFunction:
    """Upper concave hull of the finite samples.

    NEG_INF regions outside the hull support are preserved; gaps between
    finite samples are filled by the hull.  Raises DegenerateFunction when
    fewer than 3 finite samples are available.
    """
    mask = points.finite_mask
    if int(mask.sum()) < 3:
        raise DegenerateFunction("concave envelope needs at least 3 finite points")
    xs = points.grid[mask]
    vs = points.values[mask]

    # Monotone-chain upper hull over points sorted by x (grid order).
    hull_x = [xs[0]]
    hull_v = [vs[0]]
    for x, v in zip(xs[1:], vs[1:]):
        while len(hull_x) >= 2:
            x1, v1 = hull_x[-2], hull_v[-2]
            x2, v2 = hull_x[-1], hull_v[-1]
            # drop the middle point when it lies on or below chord (x1,v1)-(x,v)
            if (v2 - v1) * (x - x1) <= (v - v1) * (x2 - x1):
                hull_x.pop()
                hull_v.pop()
            else:
                break
        hull_x.append(x)
        hull_v.append(v)

    out = np.full(points.size, NEG_INF)
    slack = _SNAP * points.step
    inside = (points.grid >= xs[0] - slack) & (points.grid <= xs[-1] + slack)
    out[inside] = np.interp(points.grid[inside], hull_x, hull_v)
    return ConcaveFunction(TabulatedFunction(points.x_min, points.x_max, out))


def legendre_sup(f: TabulatedFunction, beta: float) -> SupTransform:
    """sup over the grid of f(eps) - beta*eps, ties toward the smallest eps."""
    mask = f.finite_mask
    if not mask.any():
        raise DegenerateFunction("function has no finite support")
    obj = np.where(mask, f.values - beta * f.grid, NEG_INF)
    k = int(np.argmax(obj))
    return SupTransform(float(obj[k]), float(f.x_min + k * f.step))


def legendre_inf(psi: TabulatedFunction, epsilon: float) -> InfTransform:
    """min over psi's slope grid of beta*epsilon + psi(beta), smallest-beta ties."""
    mask = psi.finite_mask
    if not mask.any():
        raise DegenerateFunction("psi has no finite support")
    obj = np.where(mask, psi.grid * epsilon + psi.values, np.inf)
    k = int(np.argmin(obj))
    return InfTransform(float(obj[k]), float(psi.x_min + k * psi.step))


def sup_transform_table(f: TabulatedFunction, beta_min: float = 0.0,
                        beta_max: float = DEFAULT_BETA_MAX,
                        size: int = DEFAULT_GRID_SIZE) -> TabulatedFunction:
    """Tabulate beta -> legendre_sup(f, beta) on a uniform slope grid."""
    mask = f.finite_mask
    xs = f.grid[mask]
    vs = f.values[mask]
    betas = np.linspace(beta_min, beta_max, size)
    out = np.empty(size)
    chunk = max(1, (1 << 22) // max(xs.size, 1))
    for a in range(0, size, chunk):
        b = betas[a:a + chunk]
        out[a:a + len(b)] = np.max(vs[None, :] - b[:, None] * xs[None, :], axis=1)
    return TabulatedFunction(beta_min, beta_max, out)


def inf_transform_table(psi: TabulatedFunction, x_min: float, x_max: float,
                        size: int = DEFAULT_GRID_SIZE) -> TabulatedFunction:
    """Tabulate eps -> legendre_inf(psi, eps) on a uniform energy grid."""
    mask = psi.finite_mask
    bs = psi.grid[mask]
    ps = psi.values[mask]
    xs = np.linspace(x_min, x_max, size)
    out = np.empty(size)
    chunk = max(1, (1 << 22) // max(bs.size, 1))
    for a in range(0, size, chunk):
        x = xs[a:a + chunk]
        out[a:a + len(x)] = np.min(x[:, None] * bs[None, :] + ps[None, :], axis=1)
    return TabulatedFunction(x_min, x_max, out)


def derivative(f: TabulatedFunction, x: float) -> float:
    """Central-difference slope at x, interpolated between grid nodes.

    Refuses points at or outside the edge of the finite support (one full
    grid step inside is required) with EdgeDerivative.
    """
    span = f.support_indices()
    if span is None:
        raise EdgeDerivative("function has no finite support")
    i0, i1 = span
    h = f.step
    pos = (x - f.x_min) / h
    k = int(math.floor(pos + _SNAP))
    w = pos - k
    if abs(w) < _SNAP:
        # exactly on a node: single central difference there
        if not (i0 + 1 <= k <= i1 - 1):
            raise EdgeDerivative(f"x={x!r} is not interior to the support")
        return float((f.values[k + 1] - f.values[k - 1]) / (2.0 * h))
    k = int(math.floor(pos))
    if not (i0 + 1 <= k and k + 1 <= i1 - 1):
        raise EdgeDerivative(f"x={x!r} is not interior to the support")
    dk = (f.values[k + 1] - f.values[k - 1]) / (2.0 * h)
    dk1 = (f.values[k + 2] - f.values[k]) / (2.0 * h)
    return float(dk + (pos - k) * (dk1 - dk))


def weighted_sup_convolution(sigma_s: TabulatedFunction, phi: TabulatedFunction,
                             lam: float, epsilon: float) -> SupConvolution:
    """Combined entropy at total per-particle energy epsilon.

    Maximises sigma_s(e')/(1+lam) + lam/(1+lam) * phi(((1+lam)*epsilon-e')/lam)
    over the grid points e' of sigma_s with 0 <= e' <= (1+lam)*epsilon.
    Returns NEG_INF (not an error) when the feasible set is empty.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    total = (1.0 + lam) * epsilon
    slack = _SNAP * max(abs(total), sigma_s.step)
    mask = sigma_s.finite_mask & (sigma_s.grid >= -slack) & (sigma_s.grid <= total + slack)
    if not mask.any():
        return SupConvolution(NEG_INF, math.nan)
    eps_p = sigma_s.grid[mask]
    args = (total - eps_p) / lam
    phi_vals = phi.values_at(args)
    w = 1.0 / (1.0 + lam)
    obj = np.where(np.isfinite(phi_vals),
                   w * sigma_s.values[mask] + (lam * w) * phi_vals, NEG_INF)
    k = int(np.argmax(obj))
    if not np.isfinite(obj[k]):
        return SupConvolution(NEG_INF, math.nan)
    return SupConvolution(float(obj[k]), float(eps_p[k]))


def clip_nonnegative(sigma0: TabulatedFunction) -> TabulatedFunction:
    """Replace strictly negative values by NEG_INF, keep the rest."""
    out = np.where(sigma0.values < 0.0, NEG_INF, sigma0.values)
    return TabulatedFunction(sigma0.x_min, sigma0.x_max, out)


def solve_equilibrium(sigma1: TabulatedFunction, sigma2: TabulatedFunction,
                      lam: float, epsilon0: float,
                      tol_root: float = TOL_ROOT) -> EquilibriumSolution:
    """Solve sigma1'(eps) = sigma2'(((1+lam)*eps0 - eps)/lam) by bisection.

    Both curves must be concave, so the slope difference is monotone in eps
    and a sign change brackets the root.  Without a sign change the supremum
    sits on an endpoint and BoundarySolution is raised.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    span1, span2 = sigma1.support_range(), sigma2.support_range()
    if span1 is None or span2 is None:
        raise DegenerateFunction("both curves need finite support")
    total = (1.0 + lam) * epsilon0

    # eps must stay one grid step inside sigma1's support, and the partner
    # energy one step inside sigma2's.
    lo = max(span1[0] + sigma1.step, total - lam * (span2[1] - sigma2.step), 0.0)
    hi = min(span1[1] - sigma1.step, total - lam * (span2[0] + sigma2.step), total)

    def partner(eps: float) -> float:
        return (total - eps) / lam

    def g(eps: float) -> float:
        return derivative(sigma1, eps) - derivative(sigma2, partner(eps))

    if lo >= hi:
        lower = total - lam * (span2[0] + sigma2.step) <= span1[0] + sigma1.step
        endpoint = "lower" if lower else "upper"
        raise BoundarySolution(endpoint, lo if endpoint == "lower" else hi)
    g_lo, g_hi = g(lo), g(hi)
    # g is nonincreasing: positive at lo and negative at hi brackets a root
    if g_lo < -tol_root:
        raise BoundarySolution("lower", lo)
    if g_hi > tol_root:
        raise BoundarySolution("upper", hi)
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        gm = g(mid)
        if abs(gm) <= tol_root:
            a = b = mid
            break
        if gm > 0.0:
            a = mid
        else:
            b = mid
        if b - a <= 1e-17 * max(1.0, abs(total)):
            break
    eps = 0.5 * (a + b)
    residual = g(eps)
    if abs(residual) > tol_root:
        raise BoundarySolution("lower" if residual < 0 else "upper", eps)
    s1 = derivative(sigma1, eps)
    s2 = derivative(sigma2, partner(eps))
    return EquilibriumSolution(epsilon_star=float(eps),
                               epsilon_channel=float(partner(eps)),
                               beta=float(0.5 * (s1 + s2)))


def spin_dominant_energy(b_field: float, k_t: float) -> float:
    """Per-particle dominant energy magnitude of a two-state spin in field B."""
    if k_t <= 0:
        raise InvalidTemperature(f"kT={k_t!r} must be positive")
    return b_field * math.tanh(b_field / k_t)


def two_level_dominant_energy(e0: float, k_t: float) -> float:
    """Per-particle dominant energy of a zero/e0 two-level system."""
    if k_t <= 0:
        raise InvalidTemperature(f"kT={k_t!r} must be positive")
    # e0/(1+exp(e0/kT)), written overflow-safe for large |e0|/kT
    x = e0 / k_t
    if x >= 0:
        return e0 * math.exp(-x) / (1.0 + math.exp(-x))
    return e0 / (1.0 + math.exp(x))
