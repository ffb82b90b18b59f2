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
satisfies f(r) = f(1/r)). It is found by Newton's method on 1/f = t in
x = -log r, which is exact for Haar, with a bisection step whenever the
Newton step leaves the bracket. Inside the support annulus sector
{r_t < r < 1/r_t} the planar density in polar coordinates is w_t(theta)/r^2
with

    w_t(theta) = (1/4pi) (2/t + dm_t/dtheta) = (1/(2 pi t)) dphi/dtheta,

where m_t(theta) = 2 sum_j w_j r sin u_j / D_j and phi(theta) =
theta + (t/2) m_t(theta) is the continuous boundary angle map; r_t'(theta)
enters dm_t/dtheta through implicit differentiation -f_theta/f_r of the
defining identity, so no finite differences appear. The Haar measure short-
circuits every formula: r_t = exp(-t/2), phi = theta, w_t = 1/(2 pi t).

Denominators are evaluated as D = (1-r)^2 + 4 r sin^2(u/2), which stays
accurate as r -> 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._boundary import check_time, map_chunks, solve_blocked, support_intervals
from .errors import InvalidRadius, OutsideU, PoleAtAtom, ValidationError, ZeroLambda
from .measures import SpectralMeasure, reflect_circle_measure
from .quadrature import integrate_adaptive

#: residual target for the r_t solve, relative to 1/t
R_RESIDUAL_REL = 1e-12
#: upper bracket: roots are separated from 1 by the f(1-,theta) > 1/t margin
R_BRACKET_HI = 1.0 - 1e-15
#: halvings of the lower bracket from 1/2 (f(r) ~ 1/(-2 log r) as r -> 0)
R_BRACKET_HALVINGS = 200


def _g(r):
    """(1 - r^2)/(-2 log r) for r in (0,1).

    1 - r^2 is formed as (1-r)(1+r): near r = 1 the difference 1-r is exact
    and log(r) of the representable r is well conditioned, so no log1p
    gymnastics are needed.
    """
    return (1.0 - r) * (1.0 + r) / (-2.0 * np.log(r))


def _g_prime(r):
    """d/dr of _g; series for r near 1 where the direct form cancels."""
    r = np.asarray(r, dtype=float)
    u = 1.0 - r
    L = -np.log(r)
    direct = ((1.0 - r) * (1.0 + r) / r - 2.0 * r * L) / (2.0 * L * L)
    series = 1.0 - u / 3.0
    return np.where(u < 1e-4, series, direct)


def _den(r, u):
    """1 - 2 r cos u + r^2 written as (1-r)^2 + 4 r sin^2(u/2)."""
    return (1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * u) ** 2


def f_value(mu_bar: SpectralMeasure, r: float, theta: float) -> float:
    """f(r, theta); canonicalized through f(r) = f(1/r) for r > 1.

    Haar returns the closed form 1/(-2 log r).
    """
    mu_bar.require_circle("f_value")
    if r <= 0.0 or r == 1.0:
        raise InvalidRadius(f"f is singular at r={r}")
    if r > 1.0:
        r = 1.0 / r
    if mu_bar.is_haar:
        return float(1.0 / (-2.0 * np.log(r)))
    u = float(theta) + mu_bar.locations
    return float(_g(r) * np.sum(mu_bar.weights / _den(r, u)))


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


def T_of_lambda(mu_bar: SpectralMeasure, lam: complex) -> float:
    """T(lambda) = 1/f(|lambda|, arg lambda); 0 where f diverges.

    Satisfies T(lambda) = T(1/conj(lambda)).
    """
    lam = complex(lam)
    if lam == 0:
        raise ZeroLambda("T is undefined at lambda = 0")
    r, theta = abs(lam), float(np.angle(lam))
    if r == 1.0:
        fl = float(f_limit_at_circle(mu_bar, theta)[0])
        return 0.0 if np.isinf(fl) else 1.0 / fl
    return 1.0 / f_value(mu_bar, r, theta)


def r_t_array(mu_bar: SpectralMeasure, t: float, thetas) -> np.ndarray:
    """Boundary radius r_t at each angle: bracketed Newton on 1/f = t in
    x = -log r, where 1/f = 2x for Haar, started from the Haar root t/2.

    The iterate is x, and f is formed from x (1 - r = -expm1(-x)), so the
    residual target is met even where 1 - r is too small for the float r
    to carry it; r = e^{-x} is then its correct rounding. The bracket runs
    from R_BRACKET_HI down to the first halving of r = 1/2 with f < 1/t.
    """
    mu_bar.require_circle("r_t")
    check_time(t)
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    if mu_bar.is_haar:
        return np.full_like(th, np.exp(-0.5 * t))
    target = 1.0 / t
    inside = f_limit_at_circle(mu_bar, th) > target
    r = np.ones_like(th)
    thi = th[inside]
    wj = mu_bar.weights[None, :]

    def evaluate(x, q4):
        rr = np.exp(-x)
        c = -np.expm1(-x)
        D = rr[:, None] * q4
        D += (c * c)[:, None]
        inv = wj / D
        S1 = inv.sum(axis=1)
        g = c * (1.0 + rr) / (2.0 * x)
        f = g * S1
        T = np.divide(inv, D, out=D)
        S_D2 = T.sum(axis=1)
        S_qD2 = np.multiply(T, q4, out=T).sum(axis=1)
        # df/dx, with dg/dx = (r^2 - g)/x and dD/dx = r (2 (1-r) - q4)
        f_x = (rr * rr - g) / x * S1 - g * rr * (2.0 * c * S_D2 - S_qD2)
        done = np.abs(f - target) <= R_RESIDUAL_REL * target
        return done, f > target, x + f * (1.0 - t * f) / f_x

    def block(sl):
        u = thi[sl, None] + mu_bar.locations[None, :]
        q4 = 4.0 * np.sin(0.5 * u) ** 2
        hi = np.full(len(q4), np.log(2.0))
        for _ in range(R_BRACKET_HALVINGS):
            bad = evaluate(hi, q4)[1]
            if not np.any(bad):
                break
            hi = np.where(bad, hi + np.log(2.0), hi)
        lo = np.full_like(hi, -np.log(R_BRACKET_HI))
        return lo, hi, np.clip(0.5 * t, lo, hi), lambda x: evaluate(x, q4)

    r[inside] = np.exp(-solve_blocked(len(thi), block))
    return r


def r_t(mu_bar: SpectralMeasure, t: float, theta: float) -> float:
    return float(r_t_array(mu_bar, t, np.array([theta]))[0])


def phi_map(mu_bar: SpectralMeasure, t: float, z: complex) -> complex:
    """Left inverse of the subordination map:
    Phi(z) = z exp((t/2) sum_j w_j (1 + xi_j z)/(1 - xi_j z)), xi_j = e^{i beta_j}.
    """
    mu_bar.require_circle("phi_map")
    check_time(t)
    z = complex(z)
    if mu_bar.is_haar:
        return z * np.exp(0.5 * t)
    xi = mu_bar.unit_atoms
    d = 1.0 - xi * z
    if np.min(np.abs(d)) <= 1e-14:
        raise PoleAtAtom(f"Phi has a pole at z={z}")
    expo = 0.5 * t * np.sum(mu_bar.weights * (1.0 + xi * z) / d)
    return z * complex(np.exp(expo))


def _angle_rows(mu_bar, t, thetas, r):
    """(phi, w, m) at angles with r = r_t(theta) < 1, vectorized.

    phi comes out as the continuous representative directly (it is a finite
    sum of continuous terms, not a principal-branch argument).
    """
    if mu_bar.is_haar:
        w = np.full_like(thetas, 1.0 / (2.0 * np.pi * t))
        return thetas.copy(), w, np.zeros_like(thetas)
    u = thetas[:, None] + mu_bar.locations[None, :]
    wj = mu_bar.weights[None, :]
    rc = r[:, None]
    D = _den(rc, u)
    D2 = D * D
    su, cu = np.sin(u), np.cos(u)
    S1 = (wj / D).sum(axis=1)
    Ssin_D = (wj * su / D).sum(axis=1)
    Ssin_D2 = (wj * su / D2).sum(axis=1)
    Scos_D2 = (wj * cu / D2).sum(axis=1)
    S_D2 = (wj / D2).sum(axis=1)

    m = 2.0 * r * Ssin_D
    phi = thetas + 0.5 * t * m

    g = _g(r)
    gp = _g_prime(r)
    f_r = gp * S1 + g * (2.0 * Scos_D2 - 2.0 * r * S_D2)
    f_th = -2.0 * r * g * Ssin_D2
    drdth = -f_th / f_r
    dm = 2.0 * (
        drdth * (1.0 - r * r) * Ssin_D2 + (r**3 + r) * Scos_D2 - 2.0 * r * r * S_D2
    )
    w = (2.0 / t + dm) / (4.0 * np.pi)
    return phi, w, m


def _phi_only(mu_bar, t, thetas, r):
    """Angle map theta + (t/2) m without the density machinery; valid at
    r = 1 too (used for rows outside U_t)."""
    if mu_bar.is_haar:
        return thetas.copy()
    u = thetas[:, None] + mu_bar.locations[None, :]
    D = _den(r[:, None], u)
    m = 2.0 * r * (mu_bar.weights[None, :] * np.sin(u) / D).sum(axis=1)
    return thetas + 0.5 * t * m


def phi_of_theta_array(mu_bar: SpectralMeasure, t: float, thetas) -> np.ndarray:
    """Vectorized boundary angle map, extended by the unit-circle
    continuation (r_t = 1) outside U_t."""
    th = np.atleast_1d(np.asarray(thetas, dtype=float))
    return _phi_only(mu_bar, t, th, r_t_array(mu_bar, t, th))


def _row_at(mu_bar, t, theta):
    """(r, phi, w, m) at one angle of U_t."""
    r = r_t(mu_bar, t, theta)
    if r >= 1.0:
        raise OutsideU(f"theta={theta} not in U_t")
    rows = _angle_rows(mu_bar, t, np.array([float(theta)]), np.array([r]))
    return (r,) + tuple(float(z[0]) for z in rows)


def m_t(mu_bar: SpectralMeasure, t: float, theta: float) -> float:
    """m_t(theta) = 2 sum_j w_j r sin u_j / D_j at r = r_t(theta)."""
    return _row_at(mu_bar, t, theta)[3]


def phi_of_theta(mu_bar: SpectralMeasure, t: float, theta: float) -> float:
    """Continuous boundary angle phi(theta) = theta + (t/2) m_t(theta)."""
    return _row_at(mu_bar, t, theta)[1]


def density_w_theta(mu_bar: SpectralMeasure, t: float, theta: float) -> float:
    """Angular density w_t(theta) = (1/4pi)(2/t + dm_t/dtheta)."""
    return _row_at(mu_bar, t, theta)[2]


# -- profiles ----------------------------------------------------------------


@dataclass(frozen=True)
class MultiplicativeProfile:
    """Per-angle rows (theta, r, phi, w, arg_density) plus the U_t arcs.

    ``u_components`` are maximal open arcs within the principal interval
    (-pi, pi]; a component of U_t crossing the cut at +-pi shows up as two
    entries, and the full circle (e.g. Haar) as the single arc (-pi, pi).
    Rows with r = 1 sit outside U_t: w and arg_density are 0 there and phi
    holds the boundary continuation of the angle map.
    """

    measure: SpectralMeasure
    measure_bar: SpectralMeasure
    t: float
    thetas: np.ndarray
    r: np.ndarray
    phi: np.ndarray
    w: np.ndarray
    arg_density: np.ndarray
    u_components: tuple

    def __iter__(self):
        return iter(zip(self.thetas, self.r, self.phi, self.w, self.arg_density))


def multiplicative_profile(
    mu: SpectralMeasure, t: float, n_theta: int, workers=None
) -> MultiplicativeProfile:
    """Profile on a uniform angle grid over (-pi, pi].

    Takes the spectral measure of the unitary itself; the reflection is built
    internally and the support region is {r_t(theta) < r < 1/r_t(theta)}.
    """
    mu.require_circle("multiplicative_profile")
    check_time(t)
    if n_theta < 16:
        raise ValidationError("n_theta must be >= 16")
    mu_bar = reflect_circle_measure(mu)
    thetas = np.linspace(-np.pi, np.pi, n_theta + 1)[1:]

    def rows_for(chunk):
        r = r_t_array(mu_bar, t, chunk)
        phi = np.empty_like(chunk)
        w = np.zeros_like(chunk)
        hit = r < 1.0
        if np.any(hit):
            phi[hit], w[hit], _ = _angle_rows(mu_bar, t, chunk[hit], r[hit])
        if np.any(~hit):
            # boundary continuation of the angle map on the unit circle
            phi[~hit] = _phi_only(mu_bar, t, chunk[~hit], r[~hit])
        return r, phi, w

    r, phi, w = map_chunks(rows_for, thetas, workers)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(r < 1.0, -2.0 * np.log(r) * w, 0.0)
    # runs on the grid extended by -pi, the grid angle pi seen across the
    # cut: a component crossing the cut gives two arcs meeting at +-pi, and
    # a run ending at pi whose endpoint lies just beyond gives the sliver
    # (-pi, endpoint - 2 pi); the unitary's atom angles, the poles of
    # f(1-, theta), seed the arcs that hold no grid angle
    comps = support_intervals(
        np.concatenate(([-np.pi], thetas)), np.concatenate(([r[-1] < 1.0], r < 1.0)),
        lambda th: f_limit_at_circle(mu_bar, th) > 1.0 / t,
        mu.locations,
    )
    return MultiplicativeProfile(mu, mu_bar, t, thetas, r, phi, w, a, comps)


def mult_law_density(mu: SpectralMeasure, t: float, theta: float):
    """Point (phi(theta), -log r_t(theta)/(pi t)) on the law of the unitary
    flow; defined for theta in U_t."""
    mu.require_circle("mult_law_density")
    r, phi, _, _ = _row_at(reflect_circle_measure(mu), t, theta)
    return phi, float(-np.log(r) / (np.pi * t))


def arg_marginal(profile: MultiplicativeProfile) -> np.ndarray:
    """Rows (theta, a_t(theta)) of the argument marginal a_t = -2 log(r_t) w_t."""
    return np.column_stack((profile.thetas, profile.arg_density))


def _mass_integrand(mu_bar, t):
    def f(th):
        r = r_t_array(mu_bar, t, th)
        out = np.zeros_like(th)
        hit = r < 1.0
        if np.any(hit):
            _, w, _ = _angle_rows(mu_bar, t, th[hit], r[hit])
            out[hit] = -2.0 * np.log(r[hit]) * w
        return out

    return f


def total_mass(profile: MultiplicativeProfile) -> float:
    """int -2 log(r_t) w_t dtheta over the arcs (equals int p_t dphi; 1)."""
    if profile.measure_bar.is_haar:
        return 1.0  # -2 log(e^{-t/2}) * 1/(2 pi t) * 2 pi exactly
    f = _mass_integrand(profile.measure_bar, profile.t)
    mass = 0.0
    for lo, hi in profile.u_components:
        mass += float(integrate_adaptive(f, lo, hi, rel_tol=1e-8))
    return mass


# -- Haar annulus cross-check --------------------------------------------------


@dataclass(frozen=True)
class AnnulusCheck:
    """Haar-case radial CDF comparison: S-transform route vs density route."""

    t: float
    radii: np.ndarray
    cdf_stransform: np.ndarray
    cdf_radial: np.ndarray
    max_discrepancy: float


def annulus_radial_cdf(t: float, r: float) -> float:
    """Closed-form radial CDF 1 + S^{-1}(r^-2) = 1/2 + log(r)/t on the
    annulus [e^{-t/2}, e^{t/2}], clipped to [0, 1] outside."""
    check_time(t)
    return float(np.clip(0.5 + np.log(r) / t, 0.0, 1.0))


def haar_annulus_check(t: float, n_radii: int = 33) -> AnnulusCheck:
    """Compare the Haagerup-Larsen CDF against the numeric radial integral
    of the annulus density 1/(2 pi t rho^2) (area element 2 pi rho drho)."""
    check_time(t)
    r_in, r_out = np.exp(-0.5 * t), np.exp(0.5 * t)
    radii = np.linspace(r_in, r_out, n_radii)
    cdf_s = np.array([annulus_radial_cdf(t, r) for r in radii])

    def dens(rho):
        return (1.0 / (2.0 * np.pi * t * rho**2)) * 2.0 * np.pi * rho

    cdf_num = np.zeros_like(radii)
    for i, r in enumerate(radii):
        if r > r_in:
            cdf_num[i] = float(
                integrate_adaptive(dens, r_in, float(r), rel_tol=1e-13, abs_floor=1e-15)
            )
    disc = float(np.max(np.abs(cdf_s - cdf_num)))
    return AnnulusCheck(t, radii, cdf_s, cdf_num, disc)


# -- file output ----------------------------------------------------------------


def write_profile_csv(profile: MultiplicativeProfile, path):
    """CSV rows theta,r,phi,w,arg_density at 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("theta,r,phi,w,arg_density\n")
        for th, r, phi, w, a in profile:
            fh.write(f"{th:.17g},{r:.17g},{phi:.17g},{w:.17g},{a:.17g}\n")


def arcs_sidecar(profile: MultiplicativeProfile) -> dict:
    return {"t": profile.t, "arcs": [[lo, hi] for lo, hi in profile.u_components]}
