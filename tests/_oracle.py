"""A 40-digit pointwise reference for both flows, in mpmath.

It shares no formula with the float code past the defining identities:
v_t and r_t are bracketed roots of the defining sums, found to the working
precision, and the densities are ``mp.diff`` of I2(a) and of m_t(theta)
along the root, not implicit differentiation. ``mp.diff`` raises the
working precision (to about 94 digits at 40), and every root inside it is
found at that precision.

Atoms, weights, t and the probe points enter as the exact values of their
floats, so the reference answers for the inputs the float code was given.
"""

import numpy as np
from mpmath import mp

from freebrown.measures import SpectralMeasure

DPS = 40
#: the first atom angle of ``k_fold_measure``
ALPHA0 = 0.3


def _root(F, lo, hi):
    """The root of a decreasing F on [lo, hi], F(lo) > 0 >= F(hi), by
    Illinois regula falsi (a midpoint when a step leaves the bracket),
    until the bracket is a few units of the working precision wide."""
    flo, fhi = F(lo), F(hi)
    tol = 8 * mp.eps * (abs(lo) + abs(hi))
    side = 0
    for _ in range(10 * mp.prec):
        if hi - lo <= tol:
            return (lo + hi) / 2
        c = (lo * fhi - hi * flo) / (fhi - flo)
        if not lo < c < hi:
            c = (lo + hi) / 2
        fc = F(c)
        if fc > 0:
            lo, flo = c, fc
            if side == 1:
                fhi /= 2
            side = 1
        else:
            hi, fhi = c, fc
            if side == -1:
                flo /= 2
            side = -1
    raise RuntimeError("oracle root did not converge")


class Additive:
    """x0 + c_t for a real-atomic measure: v_t, psi_t and w_t at a point
    that is not an atom."""

    def __init__(self, mu, t):
        self.x = [mp.mpf(float(x)) for x in mu.locations]
        self.w = [mp.mpf(float(w)) for w in mu.weights]
        self.t = mp.mpf(float(t))

    def table(self, a):
        """(w_j, x_j, a - x_j, (a - x_j)^2) at the working precision."""
        a = mp.mpf(a)
        return [(w, x, a - x, (a - x) ** 2) for x, w in zip(self.x, self.w)]

    def S(self, tab, s):
        return mp.fsum(w / (d2 + s) for w, _, _, d2 in tab)

    def s(self, tab):
        """v_t^2: the root of S(s) = 1/t in (0, t], or 0 outside the strip."""
        level = 1 / self.t
        if self.S(tab, 0) <= level:
            return mp.zero
        return _root(lambda s: self.S(tab, s) - level, mp.zero, self.t)

    def psi(self, a):
        tab = self.table(a)
        s = self.s(tab)
        return mp.mpf(a) + self.t * mp.fsum(w * d / (d2 + s) for w, _, d, d2 in tab)

    def I2(self, a):
        tab = self.table(a)
        s = self.s(tab)
        return mp.fsum(w * x / (d2 + s) for w, x, _, d2 in tab)

    def density(self, a):
        """w_t(a) = (1/(pi t)) (1 - (t/2) dI2/da)."""
        return (1 - self.t / 2 * mp.diff(self.I2, mp.mpf(a))) / (mp.pi * self.t)


class Multiplicative:
    """u b_t for the reflected circle measure ``mu_bar``: r_t, phi and w_t
    at an angle that is not an atom angle, in x = -log r."""

    def __init__(self, mu_bar, t):
        self.b = [mp.mpf(float(b)) for b in mu_bar.locations]
        self.w = [mp.mpf(float(w)) for w in mu_bar.weights]
        self.t = mp.mpf(float(t))

    def table(self, th):
        """(w_j, sin u_j, 4 sin^2(u_j/2)), u_j = theta + beta_j, at the
        working precision."""
        th = mp.mpf(th)
        return [(w, mp.sin(th + b), 4 * mp.sin((th + b) / 2) ** 2) for b, w in zip(self.b, self.w)]

    def f(self, tab, x):
        """(1 - r^2)/(2x) sum_j w_j/D_j, D_j = (1-r)^2 + r q4_j, continued by
        its limit at x = 0."""
        c, r = -mp.expm1(-x), mp.exp(-x)
        g = 1 if x == 0 else -mp.expm1(-2 * x) / (2 * x)
        return g * mp.fsum(w / (c * c + r * q4) for w, _, q4 in tab)

    def x(self, tab):
        """-log r_t(theta), 0 outside U_t. The root lies below
        x_hi = t/4 + sqrt(t^2/16 + t)."""
        level, t = 1 / self.t, self.t
        if self.f(tab, mp.zero) <= level:
            return mp.zero
        return _root(lambda x: self.f(tab, x) - level, mp.zero, t / 4 + mp.sqrt(t * t / 16 + t))

    def m_at(self, tab, x):
        """2 r sum_j w_j sin u_j / D_j at r = e^{-x}."""
        c, r = -mp.expm1(-x), mp.exp(-x)
        return 2 * r * mp.fsum(w * su / (c * c + r * q4) for w, su, q4 in tab)

    def m(self, th):
        """m_t(theta): m_at on the boundary x = -log r_t(theta)."""
        tab = self.table(th)
        return self.m_at(tab, self.x(tab))

    def phi(self, th):
        return mp.mpf(th) + self.t / 2 * self.m(th)

    def density(self, th):
        """w_t(theta) = (1/(4 pi)) (2/t + dm_t/dtheta)."""
        return (2 / self.t + mp.diff(self.m, mp.mpf(th))) / (4 * mp.pi)


def k_fold_measure(K):
    """K atoms ALPHA0 + 2 pi j/K of weight 1/K each, the measure of ``KFold``."""
    angles = ALPHA0 + 2.0 * np.pi * np.arange(K) / K
    return SpectralMeasure.circle_atomic(angles, np.full(K, 1.0 / K))


class KFold:
    """u b_t for the K-fold measure: K atoms alpha_0 + 2 pi j/K of weight 1/K
    each, in closed form with no sum over atoms. Averaging the Poisson
    kernel over the K shifts keeps only its Fourier modes that are multiples
    of K, so with R = e^{-Kx} and theta' = theta - alpha_0

        f = (1/(2x)) (1 - R^2)/(1 - 2R cos K theta' + R^2),
        m = 2R sin K theta'/(1 - 2R cos K theta' + R^2),

    and f(1-, theta) = K/(4 sin^2(K theta'/2)). x = -log r_t and m_t are
    taken at an angle of U_t that is not an atom angle, w_t through mp.diff
    of m_t along the root."""

    def __init__(self, K, alpha0, t):
        self.K, self.a0, self.t = K, mp.mpf(float(alpha0)), mp.mpf(float(t))

    def f(self, th, x):
        c = self.K * (mp.mpf(th) - self.a0)
        if x == 0:
            return self.K / (4 * mp.sin(c / 2) ** 2)
        R = mp.exp(-self.K * x)
        return -mp.expm1(-2 * self.K * x) / (2 * x * (1 - 2 * R * mp.cos(c) + R * R))

    def m_at(self, th, x):
        c, R = self.K * (mp.mpf(th) - self.a0), mp.exp(-self.K * x)
        return 2 * R * mp.sin(c) / (1 - 2 * R * mp.cos(c) + R * R)

    def x(self, th):
        """-log r_t(theta), below x_hi = t/4 + sqrt(t^2/16 + t)."""
        t = self.t
        return _root(lambda x: self.f(th, x) - 1 / t, mp.zero, t / 4 + mp.sqrt(t * t / 16 + t))

    def m(self, th):
        return self.m_at(th, self.x(th))

    def density(self, th):
        """w_t(theta) = (1/(4 pi)) (2/t + dm_t/dtheta)."""
        return (2 / self.t + mp.diff(self.m, mp.mpf(th))) / (4 * mp.pi)
