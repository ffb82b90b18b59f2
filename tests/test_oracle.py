"""The boundary roots v_t and r_t, and what is built on them -- w_t, psi_t
and phi -- against the 40-digit reference in ``_oracle.py``, at points 1e-3
to 1e-11 inside every support end and at random points of the support.

Bounds:
* v_t^2 and -log r_t: the residual window carried through the defining
  sum. The float root only meets |S - 1/t| <= RESIDUAL/t (f for the
  circle), so it may sit RHO/(t |dS/ds|) from the exact root, with the
  slope of the reference at its root. SLACK, relative to the root, covers
  the rounding of the float sums; on the circle r = e^{-x} also rounds, by
  at most 2^-53 relative, which moves -log r by as much.
* psi_t and phi: the same window carried through the map, which moves by
  its own slope times it: RESIDUAL |A|/B for psi_t, RESIDUAL |m_x|/(2 |f_x|)
  for phi, slopes of the reference at its root. SLACK, relative to the
  size of the map's terms, covers the rounding of the float sums.
* ``mult_law_density``, one call per point, within the phi bound and
  -log r/(pi t) within the -log r_t window over pi t; the rows' m column
  within RESIDUAL |m_x|/(t |f_x|), with SLACK relative to the size of its
  terms.
* w_t: a share of max|w|. On the circle the rows divide by the slope
  d ln f/du, whose first term 2/p - coth(x/2)/x cancels from about 2/x^2
  to -1/3 as x -> 0. The share admits a slope error of 1e4 RESIDUAL, and
  refuses that direct form, whose error 1e-16/x^2 reaches 1e-4 at the
  probes' x ~ 1e-6. On the line the rows divide by B, which stays
  positive at the ends, so w keeps to a few times RESIDUAL.
"""

import math

import numpy as np
import pytest
from _oracle import ALPHA0, DPS, Additive, KFold, Multiplicative, k_fold_measure
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from mpmath import mp

from freebrown import additive, multiplicative
from freebrown.measures import SpectralMeasure, reflect_circle_measure

#: residual target of both solves, relative to 1/t
RESIDUAL = 1e-12
#: rounding of the float sums, relative to the size of the map's terms
SLACK = 1e-14
#: bound on |w - w_exact| as a share of max|w| over the support
W_SHARE = {"line": 10 * RESIDUAL, "circle": 1e4 * RESIDUAL}
OFFSETS = (1e-3, 1e-5, 1e-7, 1e-9, 1e-11)
RHO = RESIDUAL + SLACK
#: hypothesis settings of the random-measure tests: the same examples every run
RANDOM = dict(
    max_examples=12, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)


def _dense(seed, kind, lo, hi):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(200))
    return SpectralMeasure(kind, rng.uniform(lo, hi, 200), w)


def _probes(intervals, skip, offsets, n_random, rng):
    """Points ``offsets`` inside each end (ends in ``skip`` are cuts, not
    ends) and ``n_random`` uniform points of the intervals."""
    pts = []
    for lo, hi in intervals:
        pts += [lo + d for d in offsets if lo not in skip]
        pts += [hi - d for d in offsets if hi not in skip]
    lengths = np.array([hi - lo for lo, hi in intervals])
    for k in rng.choice(len(intervals), n_random, p=lengths / lengths.sum()):
        pts.append(rng.uniform(*intervals[k]))
    return np.array(pts)


# -- x0 + c_t ------------------------------------------------------------------


def check_line(mu, t, offsets=OFFSETS, n_random=4, limit=None):
    """The worst error over the probes, as a share of its bound, for
    s = v_t^2, w_t and psi_t."""
    half = float(np.max(np.abs(mu.locations))) + 2.0 * math.sqrt(t)
    prof = additive.additive_profile(mu, t, np.linspace(-half, half, 801))
    rng = np.random.default_rng(0)
    pts = _probes(prof.support_intervals, (-half, half), offsets, n_random, rng)[:limit]
    v, w, psi = additive._rows(mu, t, pts)
    w_bound = W_SHARE["line"] * float(np.max(prof.w))
    ref, worst = Additive(mu, t), {"s": 0.0, "w": 0.0, "psi": 0.0}
    with mp.workdps(DPS):
        for a, v_f, w_f, psi_f in zip(pts, v, w, psi):
            tab = ref.table(a)
            s = ref.s(tab)
            assert s > 0 and v_f > 0
            # S moves by -B ds: s within RHO/(t B); psi moves by -t A ds: RHO |A|/B
            D2 = [(d2 + s) ** 2 for _, _, _, d2 in tab]
            A = mp.fsum(w * d / q for (w, _, d, _), q in zip(tab, D2))
            B = mp.fsum(w / q for (w, _, _, _), q in zip(tab, D2))
            s_bound = RHO / (ref.t * B) + SLACK * s
            terms = abs(a) + ref.t * mp.fsum(w * abs(d) / (d2 + s) for w, _, d, d2 in tab)
            psi_bound = RHO * abs(A) / B + SLACK * terms
            worst["s"] = max(worst["s"], float(abs(mp.mpf(v_f) ** 2 - s) / s_bound))
            worst["w"] = max(worst["w"], abs(float(ref.density(a)) - w_f) / w_bound)
            worst["psi"] = max(worst["psi"], float(abs(ref.psi(a) - psi_f) / psi_bound))
    return worst


def test_line_three_atoms():
    worst = check_line(SpectralMeasure.real_atomic([-1.0, 0.3, 1.5], [0.2, 0.5, 0.3]), 0.5)
    assert max(worst.values()) <= 1.0, worst


def test_line_two_hundred_atoms():
    """Six points next to the ends of the 200-atom measure whose support
    has 39 intervals at t = 0.05."""
    worst = check_line(_dense(1, "real-atomic", -3, 3), 0.05, (1e-3, 1e-11), 0, limit=6)
    assert max(worst.values()) <= 1.0, worst


def atoms(lo, hi):
    return st.integers(1, 6).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(lo, hi), min_size=k, max_size=k, unique=True),
            st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k),
        )
    )


times = st.floats(math.log(0.02), math.log(3.0)).map(math.exp)


@settings(**RANDOM)
@given(atoms(-3, 3), times)
def test_line_random_measures(lw, t):
    mu = SpectralMeasure.real_atomic(lw[0], np.array(lw[1]) / sum(lw[1]))
    worst = check_line(mu, t, (1e-3, 1e-7, 1e-11), 2)
    assert max(worst.values()) <= 1.0, worst


# -- u b_t -----------------------------------------------------------------------


def check_circle(mu, t, offsets=OFFSETS, n_random=4, limit=None):
    """The worst error over the probes, as a share of its bound, for
    x = -log r_t, w_t and phi."""
    mu_bar = reflect_circle_measure(mu)
    prof = multiplicative.multiplicative_profile(mu, t, 1440)
    rng = np.random.default_rng(0)
    pts = _probes(prof.u_components, (-np.pi, np.pi), offsets, n_random, rng)[:limit]
    r, phi, w, m = multiplicative._rows(mu_bar, t, pts)
    law = [multiplicative.mult_law_density(mu, t, th) for th in pts]
    w_bound = W_SHARE["circle"] * float(np.max(prof.w))
    ref = Multiplicative(mu_bar, t)
    worst = {"x": 0.0, "w": 0.0, "phi": 0.0, "law": 0.0, "m": 0.0}
    with mp.workdps(DPS):
        for th, r_f, phi_f, w_f, (law_phi, law_p), m_f in zip(pts, r, phi, w, law, m):
            tab = ref.table(th)
            x = ref.x(tab)
            assert x > 0 and r_f < 1
            # f moves by f_x dx: x within RHO/(t |f_x|); phi moves by
            # (t/2) m_x dx: RHO |m_x|/(2|f_x|)
            m_x = mp.diff(lambda y: ref.m_at(tab, y), x)
            f_x = mp.diff(lambda y: ref.f(tab, y), x)
            x_bound = RHO / (ref.t * abs(f_x)) + SLACK * x + mp.mpf(2) ** -53
            terms = abs(th) + ref.t * abs(ref.m_at(tab, x))
            phi_bound = RHO * abs(m_x / f_x) / 2 + SLACK * terms
            worst["x"] = max(worst["x"], float(abs(-mp.log(mp.mpf(r_f)) - x) / x_bound))
            worst["w"] = max(worst["w"], abs(float(ref.density(th)) - w_f) / w_bound)
            phi_ref = ref.phi(th)
            worst["phi"] = max(worst["phi"], float(abs(phi_ref - phi_f) / phi_bound))
            # the law's density x/(pi t) moves with x; m_t by m_x dx, and
            # rounds within SLACK of the size of its terms
            worst["law"] = max(
                worst["law"],
                float(abs(phi_ref - law_phi) / phi_bound),
                float(abs(x / (mp.pi * ref.t) - law_p) / (x_bound / (mp.pi * ref.t))),
            )
            c, r_x = -mp.expm1(-x), mp.exp(-x)
            m_terms = 2 * r_x * mp.fsum(wj * abs(su) / (c * c + r_x * q4) for wj, su, q4 in tab)
            m_bound = RHO * abs(m_x / f_x) / ref.t + SLACK * m_terms
            worst["m"] = max(worst["m"], float(abs(ref.m_at(tab, x) - m_f) / m_bound))
    return worst


def test_circle_three_atoms():
    worst = check_circle(SpectralMeasure.circle_atomic([-2.5, 0.4, 2.0], [0.2, 0.5, 0.3]), 0.25)
    assert max(worst.values()) <= 1.0, worst


def test_circle_two_hundred_atoms():
    """Six points next to the arc ends of the 200-atom measure with 75 arcs
    at t = 0.02."""
    mu = _dense(5, "circle-atomic", -np.pi, np.pi)
    worst = check_circle(mu, 0.02, (1e-3, 1e-11), 0, limit=6)
    assert max(worst.values()) <= 1.0, worst


@settings(**RANDOM)
@given(atoms(-3.1, 3.1), times)
def test_circle_random_measures(lw, t):
    mu = SpectralMeasure.circle_atomic(lw[0], np.array(lw[1]) / sum(lw[1]))
    worst = check_circle(mu, t, (1e-3, 1e-7, 1e-11), 2)
    assert max(worst.values()) <= 1.0, worst


# -- K-fold circle measures, in closed form ---------------------------------------


@pytest.mark.parametrize("k", [5, 64, 200])
def test_k_fold_random_angles(k):
    """x = -log r_t, m_t and w_t of the K-fold measure at random angles,
    t = 1 (Kt > 4: U_t is the whole circle), against the closed form, within
    check_circle's windows. The m window scales SLACK by the float rows' own
    terms 2r sum_j w_j |sin u_j|/D_j."""
    t, mu = 1.0, k_fold_measure(k)
    mu_bar = reflect_circle_measure(mu)
    pts = np.random.default_rng(k).uniform(-np.pi, np.pi, 8)
    r, _, w, m = multiplicative._rows(mu_bar, t, pts)
    prof = multiplicative.multiplicative_profile(mu, t, 1440)
    w_bound = W_SHARE["circle"] * float(np.max(prof.w))
    ref, worst = KFold(k, ALPHA0, t), {"x": 0.0, "w": 0.0, "m": 0.0}
    with mp.workdps(DPS):
        for th, r_f, w_f, m_f in zip(pts, r, w, m):
            x = ref.x(th)
            f_x = mp.diff(lambda y: ref.f(th, y), x)
            m_x = mp.diff(lambda y: ref.m_at(th, y), x)
            x_bound = RHO / (ref.t * abs(f_x)) + SLACK * x + mp.mpf(2) ** -53
            worst["x"] = max(worst["x"], float(abs(-mp.log(mp.mpf(r_f)) - x) / x_bound))
            worst["w"] = max(worst["w"], abs(float(ref.density(th)) - w_f) / w_bound)
            u = th + mu_bar.locations
            D = 1.0 - 2.0 * r_f * np.cos(u) + r_f * r_f
            m_terms = 2.0 * r_f * np.sum(mu_bar.weights * np.abs(np.sin(u)) / D)
            m_bound = RHO * abs(m_x / f_x) / ref.t + SLACK * m_terms
            worst["m"] = max(worst["m"], float(abs(ref.m_at(th, x) - m_f) / m_bound))
    assert max(worst.values()) <= 1.0, worst


@pytest.mark.parametrize("k,t", [(200, 0.01), (64, 0.02), (7, 0.3)])
def test_k_fold_arc_ends(k, t):
    """For Kt < 4, f(1-, theta) = K/(4 sin^2(K theta'/2)) exceeds 1/t on K
    arcs around the atoms, of half-width d = (2/K) arcsin(sqrt(Kt/4)). Every
    end off the cut lies within 4 ulps of pi of atom +- d: the first float
    outside, and the few ulps where the float indicator is not monotone."""
    mu = k_fold_measure(k)
    ends = sorted(e for arc in multiplicative._u_components(mu, t) for e in arc if abs(e) < np.pi)
    with mp.workdps(DPS):
        d = 2 * mp.asin(mp.sqrt(k * mp.mpf(t) / 4)) / k
        want = sorted(
            float((mp.mpf(a) + s * d + mp.pi) % (2 * mp.pi) - mp.pi)
            for a in mu.locations
            for s in (-1, 1)
        )
    assert len(ends) == 2 * k
    assert np.max(np.abs(np.array(ends) - want)) <= 4 * np.spacing(np.pi)


def test_log_g_slope_against_mp_diff():
    """d ln g/du of g = tanh(x/2)/(2x), u = 2 log cosh(x/2), within 5e-14
    relative of 40-digit mp.diff for x log-spaced over [1e-15, 708]: the
    direct form 2/p - 1/(x tanh(x/2)) keeps about 1.2e-15/x^2 above the series
    cutoff 0.1, and is 6% off at x = 1e-7 below it."""
    x = np.logspace(-15, math.log10(708.0), 121)
    got = multiplicative._log_g_slope(x, 4.0 * np.sinh(0.5 * x) ** 2, np.tanh(0.5 * x))
    with mp.workdps(DPS):
        for xi, gi in zip(x, got):
            y = mp.mpf(xi)
            want = mp.diff(lambda z: mp.log(mp.tanh(z / 2) / (2 * z)), y) / mp.tanh(y / 2)
            assert abs((gi - want) / want) <= 5e-14, xi
