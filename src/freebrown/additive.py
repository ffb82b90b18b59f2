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

All three come from one pass over each block of points (``_rows``), which
forms a - x_j once for the support test, the v_t solve and the w_t and psi_t
rows; every public function of them is a column of that pass. The rows read
the Newton step's last tables, at the roots: B = sum_j w_j/D_j^2 = -dS/ds is
also the denominator of d(v_t^2)/da. The Brown mass (``total_mass``) is the
integral of the one density 2 v_t w_t over the exact support intervals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ._boundary import (
    RESIDUAL_REL,
    blocks,
    check_time,
    finite_points,
    outside_gaps,
    refine_endpoints,
    require_finite,
    solve,
)
from .errors import ValidationError
from .measures import SpectralMeasure
from .quadrature import integrate_adaptive


def _sum_inv_sq(mu, a):
    """sum_j w_j / (a - x_j)^2, read as +inf when a hits an atom."""
    d = np.asarray(a, float)[:, None] - mu.locations[None, :]
    np.multiply(d, d, out=d)
    with np.errstate(divide="ignore", over="ignore"):
        return np.divide(mu.weights[None, :], d, out=d).sum(axis=1)


def _tables(s, d2, wj):
    """The tables w_j/D_j and w_j/D_j^2 at s, D_j = d_j^2 + s, and their
    sums S and B."""
    D = d2 + s[:, None]
    inv = wj / D
    T = np.divide(inv, D, out=D)
    return inv, T, inv.sum(axis=1), T.sum(axis=1)


def _rows(mu, t, a, what="v_t"):
    """(v_t, w_t, psi_t) at every point of ``a``, one ``blocks`` slice at a time.

    Each block forms d_j = a - x_j and d_j^2 once, for the support test
    S(0) > 1/t, the v_t solve and the rows. v_t comes from Newton on
    1/S(s) = t in s = v^2: S(s) = sum_j w_j/D_j, D_j = d_j^2 + s, is
    decreasing and convex with S'(s) = -B, B = sum_j w_j/D_j^2, so 1/S is
    increasing and concave and Newton started below the root climbs to it
    without overshooting. The start s_0 = max(0, max_j(t w_j - d_j^2)) is
    below the root (each term alone is at most 1/t there), exact for one
    atom and positive at an atom. The root never exceeds t since S(s) <= 1/s.

    The rows read the tables of the solve's last evaluation, made at the
    roots: psi_t from the table w_j/D_j, and w_t from the table w_j/D_j^2
    and d(v^2)/da = -2 A/B, A = sum_j w_j d_j/D_j^2, by implicit
    differentiation of S = 1/t. Outside the strip (s = 0) psi_t comes from
    the table w_j/d_j^2 of the support test, and w_t = 0.
    """
    mu.require_real(what)
    check_time(t)
    a = finite_points(a, "point")
    target, x, wj = 1.0 / t, mu.locations[None, :], mu.weights[None, :]

    def evaluate(s, d2):
        inv, T, S, B = _tables(s, d2, wj)
        # s > 0: a point inside the strip never freezes at v = 0
        done = (np.abs(S - target) <= RESIDUAL_REL * target) & (s > 0.0)
        return done, S > target, s + t * S * (S - target) / B, (inv, T, B)

    v, w, psi = np.zeros_like(a), np.zeros_like(a), np.empty_like(a)
    # +inf at an atom, d2 = +inf (outside) past |d| ~ 1e154, and at extreme t
    # tables past the floats: the rows are checked once, after the loop
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for sl in blocks(len(a), len(mu.locations)):
            d = a[sl, None] - x
            d2 = d * d
            inv = wj / d2
            inside = inv.sum(axis=1) > target
            vb, wb, psib, ab, out = v[sl], w[sl], psi[sl], a[sl], ~inside
            psib[out] = ab[out] + t * (inv[out] * d[out]).sum(axis=1)
            del inv  # each table is freed or reused once done with: fewer held at once
            d2 = d2[inside]
            s0 = np.maximum(0.0, np.max(t * wj - d2, axis=1))
            s, (inv, T, B) = solve(s0, t, s0, partial(evaluate, d2=d2))
            d = d[inside]
            vb[inside] = np.sqrt(s)
            psib[inside] = ab[inside] + t * np.multiply(inv, d, out=inv).sum(axis=1)
            dv2 = -2.0 * np.multiply(T, d, out=inv).sum(axis=1) / B
            d *= 2.0
            d += dv2[:, None]
            T *= x
            T *= d  # w_j x_j (2 d_j + d(v^2)/da)/D_j^2, whose sum is -dI2/da
            wb[inside] = (1.0 / (np.pi * t)) * (1.0 + 0.5 * t * T.sum(axis=1))
    require_finite(what, t, w, psi)  # v^2 lies in the solve's bracket [s0, t]
    return v, w, psi


def v_t_array(mu: SpectralMeasure, t: float, a) -> np.ndarray:
    """v_t at every point of ``a`` (0 outside the strip)."""
    return _rows(mu, t, a, "v_t_array")[0]


def v_t(mu: SpectralMeasure, t: float, a: float) -> float:
    """Support height at a single point (0 outside the strip)."""
    return float(_rows(mu, t, [a], "v_t")[0][0])


def psi_t_array(mu, t, a):
    return _rows(mu, t, a, "psi_t_array")[2]


def psi_t(mu: SpectralMeasure, t: float, a: float) -> float:
    """psi_t(a) = a + t sum_j w_j (a-x_j)/((a-x_j)^2 + v_t(a)^2)."""
    return float(_rows(mu, t, [a], "psi_t")[2][0])


def density_w_array(mu, t, a):
    return _rows(mu, t, a, "density_w_array")[1]


def density_w(mu: SpectralMeasure, t: float, a: float) -> float:
    """Planar Brown density at real coordinate a (0 outside the strip)."""
    return float(_rows(mu, t, [a], "density_w")[1][0])


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


def additive_profile(mu: SpectralMeasure, t: float, grid) -> AdditiveProfile:
    """Evaluate the profile on a strictly increasing grid.

    The support intervals are the exact components of {v_t > 0}, at most
    one per atom, clipped to [grid[0], grid[-1]]: an interval cut by the
    clip keeps the grid edge, since the support goes on past it.
    """
    mu.require_real("additive_profile")
    check_time(t)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or not np.all(np.diff(grid) > 0):
        raise ValidationError("grid must be strictly increasing with >= 2 points")
    v, w, psi = _rows(mu, t, grid)
    lo, hi = np.clip(_components(mu, t), grid[0], grid[-1])
    intervals = tuple((a, b) for a, b in zip(lo.tolist(), hi.tolist()) if a < b)
    return AdditiveProfile(mu, t, grid, v, w, psi, intervals)


def _components(mu, t):
    """Ends (lo, hi) of the components of {sum_j w_j/(a-x_j)^2 > 1/t}: the
    outside interval of each kept gap between atoms, found through the slope
    sum_j w_j/(a-x_j)^3, and the two outer ends, within sqrt(t) of the
    extreme atoms (bracketed at 2 sqrt(t), clear of rounding)."""
    x, wj, level = mu.locations, mu.weights, 1.0 / t

    def slope(a):
        d = a[:, None] - x
        inv = wj / d**3
        return inv.sum(axis=1), -3.0 * (inv / d).sum(axis=1)

    indicator = partial(_sum_inv_sq, mu)
    k, m = outside_gaps(indicator, level, slope, x[:-1], x[1:], wj[:-1], wj[1:])
    r, n = 2.0 * np.sqrt(t), len(k)
    ends = refine_endpoints(
        indicator, lambda a: -2.0 * slope(a)[0], level,
        np.concatenate((x[k], x[k + 1], x[[0, -1]])),
        np.concatenate((m, m, [x[0] - r, x[-1] + r])),
    )
    return np.append(ends[-2], ends[n:-2]), np.append(ends[:n], ends[-1])


# -- mass over the support ----------------------------------------------------


def total_mass(profile: AdditiveProfile) -> float:
    """int 2 v_t w_t da over the support (should be 1)."""
    mu, t = profile.measure, profile.t

    def f(a):
        v, w, _ = _rows(mu, t, a)
        return 2.0 * v * w

    # (-1, 2): a grid clear of the support keeps no interval, and mass 0
    lo, hi = np.reshape(profile.support_intervals, (-1, 2)).T
    return float(integrate_adaptive(f, lo, hi).sum())


def support_sidecar(profile: AdditiveProfile) -> dict:
    return {
        "t": profile.t,
        "intervals": [[lo, hi] for lo, hi in profile.support_intervals],
    }
