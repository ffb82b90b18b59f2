"""Brown measure of a unitary initial condition times a free multiplicative
Brownian motion.

Conventions: the low-level functions integrate against ``mu_bar``, the
distribution of the adjoint unitary (atom angles ``beta_j``), and evaluate
kernels at ``u_j = theta + beta_j``; this equals integrating the original
spectral measure of the unitary at ``theta - alpha_j``. The profile builder
takes the original measure and reflects it internally.

The boundary radius function is the implicit root of

    f(r, theta) = (1-r^2)/(-2 log r) * sum_j w_j / (1 - 2 r cos u_j + r^2)

against 1/t: r_t(theta) is the unique root in (0,1) when the circle limit
f(1-, theta) exceeds 1/t, else 1 (f is strictly increasing in r on (0,1) and
satisfies f(r) = f(1/r)). With x = -log r, p = (1-r)^2/r = 4 sinh^2(x/2) and
q4_j = 4 sin^2(u_j/2), the identity 1 - 2 r cos u_j + r^2 = r (p + q4_j)
gives

    f = sinh(x)/x * sum_j w_j/(p + q4_j) = tanh(x/2)/(2x) * sum_j iota_j,
    iota_j = w_j (4 + p)/(p + q4_j),

the additive's sum in p. r_t is found by Newton's method on 1/f = t in
u = log(1 + p/4) = 2 log cosh(x/2), which behaves like p/4 near the arc ends
and like x at large t, with a bisection step whenever the Newton step leaves
the bracket. Inside the support annulus sector {r_t < r < 1/r_t} the planar
density in polar coordinates is w_t(theta)/r^2 with

    w_t(theta) = (1/4pi) (2/t + dm_t/dtheta) = (1/(2 pi t)) dphi/dtheta,

where m_t(theta) = 2 sum_j w_j r sin u_j / D_j and phi(theta) =
theta + (t/2) m_t(theta) is the continuous boundary angle map; r_t'(theta)
enters dm_t/dtheta through implicit differentiation of the defining
identity, so no finite differences appear. The iota sums come from the
additive's kernel (``_boundary.stieltjes``), given the denominators
(p + q4_j)/(4 + p); the Newton step of ``_rows`` forms f and its u-slope
from them, and the package evaluates f nowhere else, so the direct sum in r
above stays free to check the roots. The Haar measure short-circuits every
formula: r_t = exp(-t/2), phi = theta, w_t = 1/(2 pi t).

Everything is formed from u (p = 4 expm1(u), x = 2 asinh(sqrt(expm1 u))),
exact where the float r = e^{-x} cannot carry 1 - r. One pass over each block
of angles (``_rows``) serves the support test (``_boundary.support``, with
q4_j in place of the additive's (a - x_j)^2 and p_0 its start), the r_t
solve and the rows; every public function of them is a column of that
pass. Times past T_MAX are refused: there e^{-x} underflows for some root
x = -log r_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

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
    stieltjes,
    support,
)
from .errors import ValidationError
from .measures import SpectralMeasure, reflect_circle_measure
from .quadrature import integrate_adaptive

_TINY = np.finfo(float).tiny
#: -log of the smallest normal float: e^{-x} is normal for x <= X_NORMAL
X_NORMAL = -np.log(_TINY)
#: largest t whose boundary radii are normal floats: every root has x <=
#: x_hi(t) = t/4 + sqrt(t^2/16 + t) <= X_NORMAL exactly when t <= 2 X^2/(2 + X)
#: (about 1412.8); past it r_t = e^{-x} (and the Haar e^{-t/2}) underflows
T_MAX = 2.0 * X_NORMAL**2 / (2.0 + X_NORMAL)


def _check_time(t):
    check_time(t)
    if t > T_MAX:
        raise ValidationError(
            f"t must be <= {T_MAX:.6g} for the multiplicative flow, where the "
            f"boundary radius r_t >= e^(-{X_NORMAL:.6g}) is a normal float; got {t}"
        )


def _log_g_slope(x, p, tau):
    """d ln g/du = 2/p - 1/(x tau) of g = tanh(x/2)/(2x), u = 2 log cosh(x/2),
    p = 4 sinh^2(x/2), tau = tanh(x/2). The two terms cancel from 2/x^2 to
    about -1/3, so below x = 0.1 (where that costs 1e-13 relative) it is the
    series in x^2, whose first omitted term is under 2e-18 there."""
    small = x < 0.1
    if not small.any():
        return 2.0 / p - 1.0 / (x * tau)
    y = x * x
    series = -1 / 3 + y * (1 / 90 + y * (-1 / 2520 + y * (1 / 75600 - y / 2395008)))
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0 takes the series
        return np.where(small, series, 2.0 / p - 1.0 / (x * tau))


def f_limit_at_circle(mu_bar: SpectralMeasure, theta) -> np.ndarray:
    """f(1-, theta) = sum_j w_j / (4 sin^2(u_j/2)); +inf at atom angles.

    The Haar limit is +inf for every theta (the full circle lies in U_t).
    """
    mu_bar.require_circle("f_limit_at_circle")
    th = np.atleast_1d(np.asarray(theta, dtype=float))
    if mu_bar.is_haar:
        return np.full_like(th, np.inf)
    u = th[:, None] + mu_bar.locations[None, :]
    with np.errstate(divide="ignore"):
        vals = (mu_bar.weights[None, :] / (4.0 * np.sin(0.5 * u) ** 2)).sum(axis=1)
    return vals


def r_t_array(mu_bar: SpectralMeasure, t: float, thetas) -> np.ndarray:
    """Boundary radius r_t at each angle (1 outside U_t)."""
    return _rows(mu_bar, t, thetas, "r_t_array")[0]


def r_t(mu_bar: SpectralMeasure, t: float, theta: float) -> float:
    return float(_rows(mu_bar, t, [theta], "r_t")[0][0])


def _rows(mu_bar, t, thetas, what="r_t"):
    """(r, phi, w, m) at every angle, one ``blocks`` slice at a time.

    Each block builds sin h_j, h_j = u_j/2, q4_j = 4 sin^2 h_j and sin u_j
    once, for the support test, the solve and the rows; cos h_j comes by
    angle addition from theta/2 and beta_j/2.

    r_t comes from bracketed Newton on 1/f = t in u, from u_0 = log(1 + p_0/4)
    with ``support``'s p_0 (below the root since sinh(x)/x >= 1), up to u at
    x_hi = t/4 + sqrt(t^2/16 + t): D >= (1-r)^2 gives f <= 1/(2x tanh(x/2)),
    and tanh y >= y/(1+y) bounds that by (2+x)/(2x^2) <= 1/t for x >= x_hi.
    Each iterate gives ``stieltjes`` the denominators (p + q4_j)/(4 + p), so
    its tables are iota_j = w_j (4 + p)/(p + q4_j) and kappa_j = iota_j (4 +
    p)/(p + q4_j), both tending to w_j as p grows, where w_j/(p + q4_j)^2
    underflows (past t ~ 700). Then f = g S_iota, g = tanh(x/2)/(2x), and
    d ln f/du = d ln g/du + 1 - S_kappa/S_iota, as d iota_j/du = iota_j
    (q4_j - 4)/(p + q4_j).

    The rows read the tables of the solve's last evaluation, made at the
    roots: m = 2 sum_j iota_j sin u_j/(4 + p), sin u = 2 sin h cos h, and w
    from dm/dtheta, where du/dtheta = -(d ln f/dtheta)/(d ln f/du) by
    implicit differentiation of f = 1/t, with d ln f/dtheta = -2 sum_j
    kappa_j sin u_j/((4 + p) S_iota). phi is the continuous representative
    (a finite sum of continuous terms, not a principal-branch argument).
    Outside U_t (x = 0, r = 1) phi and m are the unit-circle continuations,
    from ``support``'s outside row sum_j w_j sin u_j/q4_j, and w = 0.
    """
    mu_bar.require_circle(what)
    _check_time(t)
    th = finite_points(thetas, "theta")
    if mu_bar.is_haar:
        r = np.full_like(th, np.exp(-0.5 * t))
        w = np.full_like(th, 1.0 / (2.0 * np.pi * t))
        return r, th.copy(), w, np.zeros_like(th)
    target, half = 1.0 / t, 0.5 * mu_bar.locations
    wj, cb, sb = mu_bar.weights[None, :], np.cos(half), np.sin(half)
    u_hi = math.log1p(math.sinh(0.125 * t + 0.5 * math.sqrt(t * t / 16.0 + t)) ** 2)

    def evaluate(u, q4):
        e = np.expm1(u)
        p, x = 4.0 * e, 2.0 * np.arcsinh(np.sqrt(e))
        a = 1.0 / (4.0 + p)
        R = q4 * a[:, None]
        R += (p * a)[:, None]
        iota, kappa, S_i, S_k = stieltjes(R, wj)
        tau = np.tanh(0.5 * x)
        if (x > 0.0).all():
            g = tau / (2.0 * x)
        else:  # g(0) = 1/4
            g = np.divide(tau, 2.0 * x, out=np.full_like(x, 0.25), where=x > 0.0)
        f, slope = g * S_i, _log_g_slope(x, p, tau) + 1.0 - S_k / S_i
        # u > 0: a point inside U_t never freezes at r = 1
        done = (np.abs(f - target) <= RESIDUAL_REL * target) & (u > 0.0)
        return done, f > target, u + (1.0 - t * f) / slope, (a, p, x, iota, kappa, S_i, S_k, slope)

    r, m, w = np.ones_like(th), np.empty_like(th), np.zeros_like(th)
    # +inf at an atom, and at extreme t tables past the floats: the rows
    # are checked once, after the loop
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for sl in blocks(len(th), len(mu_bar.locations)):
            ht = 0.5 * th[sl, None]
            su = ht + half  # h, sin h, then sin u = 2 sin h cos h, in place
            np.sin(su, out=su)
            q4 = su * su
            q4 *= 4.0
            ch = 2.0 * np.cos(ht) * cb
            ch -= 2.0 * np.sin(ht) * sb
            su *= ch
            inside, outside, q4, p0 = support(t, wj, q4, su)
            rb, mb, wb = r[sl], m[sl], w[sl]
            mb[~inside] = 2.0 * outside
            _, (a, p, x, iota, kappa, S_i, S_k, slope) = solve(
                0.0, u_hi, np.log1p(0.25 * p0), partial(evaluate, q4=q4)
            )
            su = su[inside]
            mb[inside] = 2.0 * a * np.multiply(iota, su, out=iota).sum(axis=1)
            # S_E = sum_j w_j (4 + p) sin u_j/(p + q4_j)^2 = -S_iota (d ln f/dtheta)/2
            S_E = a * np.multiply(kappa, su, out=kappa).sum(axis=1)
            du = 2.0 * S_E / (S_i * slope)
            # dm/dtheta = 2 sum_j w_j (p cos u_j - q4_j)/(p + q4_j)^2 - 2 S_E du/dtheta,
            # whose sum is (p S_kappa - (2 + p) S_iota)/(4 + p) with cos u = 1 - q4/2
            dm = a * (p * S_k - (2.0 + p) * S_i) - 2.0 * du * S_E
            rb[inside] = np.exp(-x)
            wb[inside] = (2.0 / t + dm) / (4.0 * np.pi)
    # r = e^{-x}, x in the solve's bracket; phi is finite with m
    require_finite(what, t, w, m)
    return r, th + 0.5 * t * m, w, m


def _arg_density(r, w):
    """a_t = -2 log(r_t) w_t, exactly 0 outside U_t."""
    return np.where(r < 1.0, -2.0 * np.log(r) * w, 0.0)


def phi_of_theta_array(mu_bar: SpectralMeasure, t: float, thetas) -> np.ndarray:
    """Vectorized boundary angle map, extended by the unit-circle
    continuation (r_t = 1) outside U_t."""
    return _rows(mu_bar, t, thetas, "phi_of_theta_array")[1]


def _row_at(mu_bar, t, theta, what):
    """(r, phi, w, m) at one angle of U_t; ``what`` names the caller."""
    r, phi, w, m = (float(z[0]) for z in _rows(mu_bar, t, [float(theta)], what))
    if r >= 1.0:
        raise ValidationError(f"theta={theta} not in U_t")
    return r, phi, w, m


def phi_of_theta(mu_bar: SpectralMeasure, t: float, theta: float) -> float:
    """Continuous boundary angle phi(theta) = theta + (t/2) m_t(theta)."""
    return _row_at(mu_bar, t, theta, "phi_of_theta")[1]


def density_w_theta(mu_bar: SpectralMeasure, t: float, theta: float) -> float:
    """Angular density w_t(theta) = (1/4pi)(2/t + dm_t/dtheta)."""
    return _row_at(mu_bar, t, theta, "density_w_theta")[2]


# -- profiles ----------------------------------------------------------------


@dataclass(frozen=True)
class MultiplicativeProfile:
    """Per-angle rows (theta, r, phi, w, arg_density); the U_t arcs on first read.

    Rows with r = 1 sit outside U_t: w and arg_density are 0 there and phi
    holds the boundary continuation of the angle map. ``measure`` is the
    unitary's own measure; the rows integrate against its reflection,
    ``reflect_circle_measure(measure)``, which the measure caches.
    """

    measure: SpectralMeasure
    t: float
    thetas: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    w: np.ndarray
    arg_density: np.ndarray

    @cached_property
    def u_components(self) -> tuple:
        """The exact arcs of U_t (at most K + 1), from the atoms and t alone,
        within (-pi, pi]: a component crossing the cut at +-pi shows up as
        two arcs, the full circle (e.g. Haar) as the single arc (-pi, pi).
        Computed on first read."""
        return _u_components(self.measure, self.t)


def multiplicative_profile(mu: SpectralMeasure, t: float, n_theta: int) -> MultiplicativeProfile:
    """Profile on a uniform angle grid over (-pi, pi].

    Takes the spectral measure of the unitary itself; the reflection is built
    internally and the support region is {r_t(theta) < r < 1/r_t(theta)}.
    """
    mu.require_circle("multiplicative_profile")
    _check_time(t)
    if n_theta < 16:
        raise ValidationError("n_theta must be >= 16")
    thetas = np.linspace(-np.pi, np.pi, n_theta + 1)[1:]

    r, phi, w, _ = _rows(reflect_circle_measure(mu), t, thetas, "multiplicative_profile")
    return MultiplicativeProfile(mu, t, thetas, r, phi, w, _arg_density(r, w))


def _u_components(mu, t):
    """Arcs of U_t = {I(theta) > 1/t} in (-pi, pi], I = f(1-, theta) =
    sum_j w_j/(4 s_j^2), s_j = sin h_j, c_j = cos h_j, h_j = (theta -
    alpha_j)/2: the outside arc of each kept gap between atom angles. The
    last gap runs from alpha_K to alpha_1 + 2 pi; the one bracket of its
    ends that crosses the cut is cut at pi, on the side where the sign
    changes, so every end is refined in (-pi, pi]."""
    if mu.is_haar:
        return ((-np.pi, np.pi),)
    mu_bar, alpha, level = reflect_circle_measure(mu), mu.locations, 1.0 / t
    right = np.append(alpha[1:], alpha[0] + 2.0 * np.pi)

    def indicator(th):  # th - 2 pi is exact for th in [pi, 4 pi]
        return f_limit_at_circle(mu_bar, np.where(th > np.pi, th - 2.0 * np.pi, th))

    def derivative(th):  # I' = -sum_j w_j c_j/(4 s_j^3), I'' = sum_j w_j (1 + 2 c_j^2)/(8 s_j^4)
        h = 0.5 * (th[:, None] + mu_bar.locations)
        s, c = np.sin(h), np.cos(h)
        q = mu_bar.weights / s**3
        return -0.25 * (q * c).sum(axis=1), 0.125 * (q * (1.0 + 2.0 * c * c) / s).sum(axis=1)

    # a lone atom ends its own gap on both sides, half its weight at each
    w = mu.weights / (2.0 if len(alpha) == 1 else 1.0)
    k, m = outside_gaps(indicator, derivative, level, alpha, right, w, np.roll(w, -1))
    # rows: the inside and the outside end of each bracket
    brackets = np.array([np.concatenate((alpha[k], right[k])), np.concatenate((m, m))])
    cross = (brackets.min(axis=0) < np.pi) & (brackets.max(axis=0) > np.pi)
    brackets[0 if indicator(np.array([np.pi]))[0] > level else 1, cross] = np.pi
    brackets[:, brackets.max(axis=0) > np.pi] -= 2.0 * np.pi
    ends = refine_endpoints(indicator, derivative, level, *brackets)
    n, arcs = len(k), []
    # the arc before kept gap i starts where the outside arc of gap i-1 ends
    for lo, hi in zip(np.roll(ends[n:], 1).tolist(), ends[:n].tolist()):
        arcs += [(lo, hi)] if lo < hi else [(lo, np.pi), (-np.pi, hi)]
    return tuple(sorted(arcs)) or ((-np.pi, np.pi),)


def mult_law_density(mu: SpectralMeasure, t: float, theta: float):
    """Point (phi(theta), -log r_t(theta)/(pi t)) on the law of the unitary
    flow; defined for theta in U_t."""
    mu.require_circle("mult_law_density")
    r, phi, _, _ = _row_at(reflect_circle_measure(mu), t, theta, "mult_law_density")
    return phi, float(-np.log(r) / (np.pi * t))


def total_mass(profile: MultiplicativeProfile) -> float:
    """int -2 log(r_t) w_t dtheta over the arcs (equals int p_t dphi; 1)."""
    mu_bar, t = reflect_circle_measure(profile.measure), profile.t

    def f(th):
        r, _, w, _ = _rows(mu_bar, t, th, "total_mass")
        return _arg_density(r, w)

    lo, hi = np.transpose(profile.u_components)
    return float(integrate_adaptive(f, lo, hi).sum())


# -- radial CDF and the Haar annulus cross-check --------------------------------


def radius_cdf(profile: MultiplicativeProfile, radii: np.ndarray) -> np.ndarray:
    """CDF(rho) = int w_t(theta) log(min(rho, 1/r_t)/r_t)+ dtheta at each radius.

    The angle grid is periodic (its last angle is pi, its first -pi + 2 pi/n),
    so the trapezoid over the closed circle is the plain sum
    (2 pi/n) sum_j w_j gain_j over the angles in U_t, taken a ``blocks``
    slice of radii at a time so the (radii x angles) table stays within
    ``_boundary.TABLE_ENTRIES``. Each row is summed on its own (not by a
    matrix-vector product, whose rounding follows the block's row count),
    so the blocks do not change the result.
    """
    hit = profile.r < 1.0
    log_rt = np.log(profile.r[hit])
    inv_rt = 1.0 / profile.r[hit]
    wt = profile.w[hit]
    cdf = np.empty(len(radii))
    for rows in blocks(len(radii), len(profile.thetas)):
        gain = np.log(np.minimum(radii[rows, None], inv_rt))
        gain -= log_rt
        np.maximum(gain, 0.0, out=gain)
        cdf[rows] = np.multiply(gain, wt, out=gain).sum(axis=1)
    cdf *= 2.0 * np.pi / len(profile.thetas)
    return cdf


@dataclass(frozen=True)
class AnnulusCheck:
    """Haar-case radial CDF: the S-transform closed form against
    ``radius_cdf`` of the Haar profile, at ``ANNULUS_RADII`` radii."""

    t: float
    radii: np.ndarray
    cdf_stransform: np.ndarray
    cdf_radial: np.ndarray
    max_discrepancy: float


#: radii at which ``haar_annulus_check`` compares the two CDFs
ANNULUS_RADII = 33


def haar_annulus_check(t: float) -> AnnulusCheck:
    """Compare the Haagerup-Larsen CDF 1 + S^{-1}(r^-2) = 1/2 + log(r)/t
    against ``radius_cdf`` of the Haar profile, the CDF that
    ``compare --marginal radius`` integrates, on a uniform grid of the
    annulus [e^{-t/2}, e^{t/2}]."""
    _check_time(t)
    radii = np.linspace(np.exp(-0.5 * t), np.exp(0.5 * t), ANNULUS_RADII)
    cdf_s = np.clip(0.5 + np.log(radii) / t, 0.0, 1.0)
    # 16 angles, the fewest a profile takes: the Haar rows do not depend on theta
    cdf_num = radius_cdf(multiplicative_profile(SpectralMeasure.haar(), t, 16), radii)
    return AnnulusCheck(t, radii, cdf_s, cdf_num, float(np.max(np.abs(cdf_s - cdf_num))))
