"""Moments of the push-forward laws, by quadrature of the Brown-measure rows.

The push-forward of the additive Brown measure under psi_t is the law of
x_0 + s_t, and of the multiplicative one under the angle map phi the law of
u u_t. Their moments are integrals of the rows over the exact support:

    additive:        m_k = int psi_t(a)^k 2 v_t(a) w_t(a) da over the intervals,
    multiplicative:  m_k = int e^{i k phi(theta)} a_t(theta) dtheta over the arcs,

with a_t = -2 log(r_t) w_t (p_t dphi = a_t dtheta). Both go through the
package's ``integrate_adaptive``, all k at once, so each interval refines
until every moment has converged.
"""

import numpy as np

from freebrown import additive, multiplicative
from freebrown.measures import reflect_circle_measure
from freebrown.quadrature import integrate_adaptive


def pushforward_moments(profile, k_max):
    """m_1..m_k_max of the profile's push-forward law: real for an
    ``AdditiveProfile``, complex for a ``MultiplicativeProfile``."""
    ks, t = np.arange(1, k_max + 1), profile.t
    circle = isinstance(profile, multiplicative.MultiplicativeProfile)
    if circle:
        mu_bar = reflect_circle_measure(profile.measure)

        def f(th):
            r, phi, w, _ = multiplicative._rows(mu_bar, t, th)
            z = np.exp(1j * phi[:, None] * ks) * multiplicative._arg_density(r, w)[:, None]
            return np.concatenate((z.real, z.imag), axis=1)

        ends = profile.u_components
    else:
        mu = profile.measure

        def f(a):
            v, w, psi = additive._rows(mu, t, a)
            return (2.0 * v * w)[:, None] * psi[:, None] ** ks

        ends = profile.support_intervals
    # (-1, 2): a profile clear of the support keeps no interval, and moments 0
    lo, hi = np.reshape(ends, (-1, 2)).T
    m = integrate_adaptive(f, lo, hi).sum(axis=0)
    return m[:k_max] + 1j * m[k_max:] if circle else m
