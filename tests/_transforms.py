"""The transforms the tests hold the Brown-measure rows to, each in its
direct form, pointwise.

Real-atomic measures (additive flow):

* Cauchy transform ``G(z) = sum_j w_j / (z - x_j)``,
* ``H_t(z) = z + t G(z)``, the left inverse of the subordination map; it
  sends a + i v_t(a) to the real point psi_t(a).

Circle measures (multiplicative flow), with ``xi_j = exp(i theta_j)``:

* ``psi(z) = sum_j w_j xi_j z / (1 - xi_j z)`` and ``eta = psi / (1 + psi)``,
* ``Phi(z) = z exp((t/2) sum_j w_j (1 + xi_j z)/(1 - xi_j z))``, which sends
  the boundary point r_t(theta) e^{i theta} of mu_bar to the unit circle,
* ``f(r, theta)``, whose level set f = 1/t is that boundary, and
  ``T(lambda) = 1/f(|lambda|, arg lambda)``.

None of them calls the package's row pass: f is the plain sum in r, not the
(p, u) tables that the r_t solve iterates on.
"""

from __future__ import annotations

import math

import numpy as np

from freebrown._boundary import check_time
from freebrown.errors import NumericalError, ValidationError
from freebrown.measures import SpectralMeasure
from freebrown.multiplicative import f_limit_at_circle

#: evaluation this close to a pole raises ValidationError
POLE_TOL = 1e-14


def cauchy_transform(mu: SpectralMeasure, z: complex) -> complex:
    """G_mu(z) = sum_j w_j / (z - x_j); maps C+ into C-."""
    mu.require_real("cauchy_transform")
    z = complex(z)
    d = z - mu.locations
    if np.min(np.abs(d)) <= POLE_TOL:
        raise ValidationError(f"z={z} sits on an atom of the measure")
    return complex(np.sum(mu.weights / d))


def subordination_H(mu: SpectralMeasure, t: float, z: complex) -> complex:
    """H_t(z) = z + t G(z), the left inverse of the subordination map."""
    check_time(t)
    return complex(z) + t * cauchy_transform(mu, z)


def moment_generator_psi(mu: SpectralMeasure, z: complex) -> complex:
    """psi_mu(z) = sum_j w_j xi_j z / (1 - xi_j z); identically 0 for Haar."""
    mu.require_circle("moment_generator_psi")
    if mu.is_haar:
        return 0.0 + 0.0j
    z = complex(z)
    xi = np.exp(1j * mu.locations)
    d = 1.0 - xi * z
    if np.min(np.abs(d)) <= POLE_TOL:
        raise ValidationError(f"z={z} sits on a pole of psi")
    return complex(np.sum(mu.weights * xi * z / d))


def eta_transform(mu: SpectralMeasure, z: complex) -> complex:
    """eta = psi / (1 + psi)."""
    psi = moment_generator_psi(mu, z)
    denom = 1.0 + psi
    if abs(denom) < POLE_TOL:
        raise NumericalError(f"1 + psi vanished at z={z}")
    return psi / denom


def phi_map(mu_bar: SpectralMeasure, t: float, z: complex) -> complex:
    """Left inverse of the subordination map:
    Phi(z) = z exp((t/2) sum_j w_j (1 + xi_j z)/(1 - xi_j z)), xi_j = e^{i beta_j}.
    """
    mu_bar.require_circle("phi_map")
    check_time(t)
    z = complex(z)
    if mu_bar.is_haar:
        return z * np.exp(0.5 * t)
    xi = np.exp(1j * mu_bar.locations)
    d = 1.0 - xi * z
    if np.min(np.abs(d)) <= POLE_TOL:
        raise ValidationError(f"Phi has a pole at z={z}")
    expo = 0.5 * t * np.sum(mu_bar.weights * (1.0 + xi * z) / d)
    return z * complex(np.exp(expo))


def f_value(mu_bar: SpectralMeasure, r: float, theta: float) -> float:
    """f(r, theta) = (1 - r^2)/(-2 log r) sum_j w_j/((1 - r)^2 + 4 r sin^2(u_j/2)),
    u_j = theta + beta_j; canonicalized through f(r) = f(1/r) for r > 1.

    The denominator is 1 - 2 r cos u_j + r^2 with no cancellation, and stays
    finite below the smallest normal r. Haar is the closed form 1/(-2 log r).
    """
    mu_bar.require_circle("f_value")
    if r <= 0.0 or r == 1.0:
        raise ValidationError(f"f is singular at r={r}")
    if r > 1.0:
        r = 1.0 / r
    if mu_bar.is_haar:
        return 1.0 / (-2.0 * math.log(r))
    s = np.sin(0.5 * (float(theta) + mu_bar.locations))
    total = np.sum(mu_bar.weights / ((1.0 - r) ** 2 + 4.0 * r * s * s))
    return float((1.0 - r) * (1.0 + r) / (-2.0 * math.log(r)) * total)


def T_of_lambda(mu_bar: SpectralMeasure, lam: complex) -> float:
    """T(lambda) = 1/f(|lambda|, arg lambda); 0 where f diverges.

    Satisfies T(lambda) = T(1/conj(lambda)).
    """
    lam = complex(lam)
    if lam == 0:
        raise ValidationError("T is undefined at lambda = 0")
    r, theta = abs(lam), float(np.angle(lam))
    if r == 1.0:
        fl = float(f_limit_at_circle(mu_bar, theta)[0])
        return 0.0 if np.isinf(fl) else 1.0 / fl
    return 1.0 / f_value(mu_bar, r, theta)
