"""Brown measure of a self-adjoint initial condition plus a free circular
Brownian motion.

Everything is driven by the implicit support-height function

    v_t(a) = the unique b in (0, sqrt(t)] with sum_j w_j/((a-x_j)^2 + b^2) = 1/t,
             or 0 when sum_j w_j/(a-x_j)^2 <= 1/t,

found by Newton's method in s = b^2, where the reciprocal of the sum is
increasing and concave, so iterates started below the root climb to it (the
sum is bounded by 1/b^2, so the root never exceeds sqrt(t)). The support of
the Brown measure is the vertical strip |b| < v_t(a); inside it the planar
density is constant in b and equals

    w_t(a) = (1/(pi t)) * (1 - (t/2) * dI2/da),   I2(a) = sum_j w_j x_j / D_j,

with D_j = (a-x_j)^2 + v_t(a)^2 and d(v_t^2)/da obtained by implicit
differentiation of the defining identity (no finite differences near the
support edge, where v_t' blows up). The real-axis map

    psi_t(a) = a + t sum_j w_j (a-x_j)/D_j = Re H_t(a + i v_t(a)),
    H_t(z)   = z + t G(z),

pushes the Brown measure forward to the semicircular flow's law: the density
of that law at psi_t(a) is v_t(a)/(pi t), and w_t = psi_t'/(2 pi t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._boundary import check_time, map_chunks, solve_blocked, support_intervals
from .errors import AtomDivision, OutsideSupport, ValidationError
from .measures import SpectralMeasure, cauchy_transform
from .quadrature import integrate_adaptive

#: residual target for the v_t solve, relative to 1/t
V_RESIDUAL_REL = 1e-12


def _sum_inv_sq(mu, a):
    """sum_j w_j / (a - x_j)^2, read as +inf when a hits an atom."""
    d = np.asarray(a, float)[:, None] - mu.locations[None, :]
    np.multiply(d, d, out=d)
    with np.errstate(divide="ignore", over="ignore"):
        return np.divide(mu.weights[None, :], d, out=d).sum(axis=1)


def v_t_array(mu: SpectralMeasure, t: float, a) -> np.ndarray:
    """v_t at every point of ``a``: Newton on 1/S(s) = t in s = v^2.

    S(s) = sum_j w_j/(d_j^2 + s) is decreasing and convex, 1/S is increasing
    and concave, so Newton started below the root climbs to it without
    overshooting. The start s_0 = max(0, max_j(t w_j - d_j^2)) is below the
    root (each term alone is at most 1/t there), exact for one atom and
    positive at an atom. The root never exceeds t since S(s) <= 1/s.
    """
    mu.require_real("v_t")
    check_time(t)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    target = 1.0 / t
    inside = _sum_inv_sq(mu, a) > target
    v = np.zeros_like(a)
    ai = a[inside]
    wj = mu.weights[None, :]

    def evaluate(s, d2):
        D = d2 + s[:, None]
        inv = wj / D
        S = inv.sum(axis=1)
        B = np.divide(inv, D, out=D).sum(axis=1)
        # s > 0: a point inside the strip never freezes at v = 0
        done = (np.abs(S - target) <= V_RESIDUAL_REL * target) & (s > 0.0)
        return done, S > target, s + t * S * (S - target) / B

    def block(sl):
        d2 = (ai[sl, None] - mu.locations[None, :]) ** 2
        s0 = np.maximum(0.0, np.max(t * wj - d2, axis=1))
        return s0, np.full_like(s0, t), s0, lambda s: evaluate(s, d2)

    v[inside] = np.sqrt(solve_blocked(len(ai), block))
    return v


def v_t(mu: SpectralMeasure, t: float, a: float) -> float:
    """Support height at a single point (0 outside the strip)."""
    return float(v_t_array(mu, t, np.array([a]))[0])


def subordination_H(mu: SpectralMeasure, t: float, z: complex) -> complex:
    """H_t(z) = z + t G(z), the left inverse of the subordination map."""
    check_time(t)
    return complex(z) + t * cauchy_transform(mu, z)


def psi_t_array(mu, t, a, v=None):
    mu.require_real("psi_t")
    check_time(t)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if v is None:
        v = v_t_array(mu, t, a)
    d = a[:, None] - mu.locations[None, :]
    D = d * d + (v * v)[:, None]
    if np.any(D == 0.0):
        raise AtomDivision("psi_t at an atom with v_t = 0")
    return a + t * (mu.weights[None, :] * d / D).sum(axis=1)


def psi_t(mu: SpectralMeasure, t: float, a: float) -> float:
    """psi_t(a) = a + t sum_j w_j (a-x_j)/((a-x_j)^2 + v_t(a)^2)."""
    return float(psi_t_array(mu, t, np.array([a]))[0])


def density_w_array(mu, t, a, v=None):
    mu.require_real("density_w")
    check_time(t)
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if v is None:
        v = v_t_array(mu, t, a)
    w = np.zeros_like(a)
    inside = v > 0.0
    if not np.any(inside):
        return w
    ai, vi = a[inside], v[inside]
    d = ai[:, None] - mu.locations[None, :]
    D = d * d + (vi * vi)[:, None]
    D2 = D * D
    wj = mu.weights[None, :]
    A = (wj * d / D2).sum(axis=1)
    B = (wj / D2).sum(axis=1)
    dv2 = -2.0 * A / B
    x = mu.locations[None, :]
    dI2 = -(wj * x * (2.0 * d + dv2[:, None]) / D2).sum(axis=1)
    w[inside] = (1.0 / (np.pi * t)) * (1.0 - 0.5 * t * dI2)
    return w


def density_w(mu: SpectralMeasure, t: float, a: float) -> float:
    """Planar Brown density at real coordinate a (0 outside the strip)."""
    return float(density_w_array(mu, t, np.array([a]))[0])


def additive_law_density(mu: SpectralMeasure, t: float, a: float):
    """Point (psi_t(a), v_t(a)/(pi t)) on the graph of the law of the
    semicircular flow; only defined where v_t(a) > 0."""
    v = v_t(mu, t, a)
    if v <= 0.0:
        raise OutsideSupport(f"v_t({a}) = 0: no push-forward density there")
    return psi_t(mu, t, a), v / (np.pi * t)


# -- profiles ----------------------------------------------------------------


@dataclass(frozen=True)
class AdditiveProfile:
    """Grid evaluation of (v_t, w_t, psi_t) plus the refined support set."""

    measure: SpectralMeasure
    t: float
    grid: np.ndarray
    v: np.ndarray
    w: np.ndarray
    psi: np.ndarray
    support_intervals: tuple

    def __iter__(self):
        """Rows (a, v, w, psi) in grid order."""
        return iter(zip(self.grid, self.v, self.w, self.psi))


def additive_profile(mu: SpectralMeasure, t: float, grid, workers=None) -> AdditiveProfile:
    """Evaluate the profile on a strictly increasing grid.

    Support intervals are the maximal grid runs with v > 0, their endpoints
    refined by bisection on the exactly computable indicator
    sum_j w_j/(a-x_j)^2 - 1/t (a run touching the grid edge keeps the edge),
    plus the components around atoms that fall between grid points.
    Rows are computed in deterministic grid order; ``workers`` (default from
    FREEBROWN_THREADS) chunks the grid across threads.
    """
    mu.require_real("additive_profile")
    check_time(t)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or not np.all(np.diff(grid) > 0):
        raise ValidationError("grid must be strictly increasing with >= 2 points")

    def rows_for(chunk):
        v = v_t_array(mu, t, chunk)
        return v, density_w_array(mu, t, chunk, v), psi_t_array(mu, t, chunk, v)

    v, w, psi = map_chunks(rows_for, grid, workers)
    intervals = support_intervals(
        grid, v > 0.0, lambda a: _sum_inv_sq(mu, a) > 1.0 / t, mu.locations
    )
    return AdditiveProfile(mu, t, grid, v, w, psi, intervals)


# -- integrals over the support ----------------------------------------------


def _pushforward_integrand(mu, t, powers):
    def f(a):
        v = v_t_array(mu, t, a)
        w = density_w_array(mu, t, a, v)
        base = 2.0 * v * w
        psi = psi_t_array(mu, t, a, v)
        return np.stack([base * psi**k for k in powers], axis=1)

    return f


def pushforward_moments(profile: AdditiveProfile, k_max: int) -> np.ndarray:
    """Moments m_k = int psi_t(a)^k 2 v_t(a) w_t(a) da, k = 1..k_max.

    Adaptive per-interval quadrature, refined until successive Richardson
    estimates agree to 1e-8 relative.
    """
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    powers = list(range(1, k_max + 1))
    total = np.zeros(k_max)
    f = _pushforward_integrand(profile.measure, profile.t, powers)
    for lo, hi in profile.support_intervals:
        total += integrate_adaptive(f, lo, hi, rel_tol=1e-8)
    return total


def total_mass(profile: AdditiveProfile) -> float:
    """int 2 v_t w_t da over the support (should be 1)."""
    f = _pushforward_integrand(profile.measure, profile.t, [0])
    mass = 0.0
    for lo, hi in profile.support_intervals:
        mass += float(integrate_adaptive(f, lo, hi, rel_tol=1e-8)[0])
    return mass


# -- file output ---------------------------------------------------------------


def write_profile_csv(profile: AdditiveProfile, path):
    """CSV rows a,v,w,psi at 17 significant digits (byte-stable)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("a,v,w,psi\n")
        for a, v, w, psi in profile:
            fh.write(f"{a:.17g},{v:.17g},{w:.17g},{psi:.17g}\n")


def support_sidecar(profile: AdditiveProfile) -> dict:
    return {
        "t": profile.t,
        "intervals": [[lo, hi] for lo, hi in profile.support_intervals],
    }
