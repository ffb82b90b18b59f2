"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them stream).

Statistical thresholds in criterion 7 are fixtures frozen from pilot runs at
the committed seeds (additive: n=1000 seed 42 distance 0.0062; multiplicative
n=500 steps=500: haar seed 7 radius 0.0177 / argument 0.0100, two-atom seed 11
argument 0.0145 / radius 0.0175).
"""

import functools
import time

import numpy as np
import pytest
from _cumulants import (
    free_additive_with_semicircle,
    free_cumulants_to_moments,
    moments_of_measure,
    moments_to_free_cumulants,
)
from _moments import pushforward_moments
from _transforms import phi_map

from freebrown.additive import (
    additive_profile,
    density_w,
    psi_t,
    total_mass,
)
from freebrown.measures import SpectralMeasure, reflect_circle_measure
from freebrown.multiplicative import (
    density_w_theta,
    haar_annulus_check,
    multiplicative_profile,
    phi_of_theta,
    r_t,
    r_t_array,
    total_mass as mult_total_mass,
)
from freebrown.rmt import compare_marginal

TWO = SpectralMeasure.real_atomic([-0.8, 0.8], [0.25, 0.75])
ASYM = SpectralMeasure.circle_atomic([2 * np.pi / 5, 3 * np.pi / 4], [1 / 3, 2 / 3])


def report(num, description):
    def wrap(fn):
        @functools.wraps(fn)  # keeps the signature visible to pytest fixtures
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except AssertionError:
                print(f"ACCEPTANCE {num} FAIL - {description}")
                raise
            print(f"ACCEPTANCE {num} PASS - {description}")

        return run

    return wrap


@report(1, "circular law reduction (delta_0, t=1)")
def test_criterion_1_circular_law():
    mu = SpectralMeasure.real_atomic([0.0], [1.0])
    start = time.perf_counter()
    prof = additive_profile(mu, 1.0, np.linspace(-2, 2, 801))
    mass = total_mass(prof)
    elapsed = time.perf_counter() - start
    assert len(prof.support_intervals) == 1
    lo, hi = prof.support_intervals[0]
    assert lo == pytest.approx(-1.0, abs=1e-10)
    assert hi == pytest.approx(1.0, abs=1e-10)
    interior = np.abs(prof.grid) < 1.0 - 1e-12
    assert np.all(np.abs(prof.w[interior] - 1.0 / np.pi) <= 1e-10)
    assert mass == pytest.approx(1.0, abs=1e-6)
    assert elapsed < 1.0


@report(2, "additive bound, v-identity and mass at t in {0.5, 1, 2}")
def test_criterion_2_additive_bounds():
    for t in (0.5, 1.0, 2.0):
        prof = additive_profile(TWO, t, np.linspace(-4, 4, 801))
        assert np.max(prof.w) <= 2.0 / (np.pi * t) + 1e-9
        inside = prof.v > 0
        d = prof.grid[inside, None] - TWO.locations[None, :]
        resid = (TWO.weights[None, :] / (d * d + prof.v[inside, None] ** 2)).sum(
            axis=1
        ) - 1.0 / t
        assert np.max(np.abs(resid)) <= 1e-10 / t
        assert total_mass(prof) == pytest.approx(1.0, abs=1e-6)


@report(3, "push-forward moments match the free-convolution oracle (k<=6)")
def test_criterion_3_pushforward():
    prof = additive_profile(TWO, 1.0, np.linspace(-3.5, 3.5, 801))
    got = pushforward_moments(prof, 6)
    want = free_additive_with_semicircle(TWO, 1.0, 6)
    assert np.allclose(got, want, rtol=1e-5, atol=1e-8)


@report(4, "Haar annulus closed forms and Haagerup-Larsen CDF at t in {0.25, 1, 4}")
def test_criterion_4_haar():
    haar = SpectralMeasure.haar()
    for t in (0.25, 1.0, 4.0):
        thetas = np.linspace(-np.pi, np.pi, 33)
        r = r_t_array(haar, t, thetas)
        assert np.max(np.abs(r - np.exp(-t / 2.0))) <= 1e-12
        for th in (-1.1, 0.0, 2.2):
            assert abs(density_w_theta(haar, t, th) - 1.0 / (2.0 * np.pi * t)) <= 1e-12
        assert haar_annulus_check(t).max_discrepancy <= 1e-12


@report(5, "multiplicative bounds, mass and boundary modulus (two-atom, t=0.8)")
def test_criterion_5_multiplicative():
    t = 0.8
    prof = multiplicative_profile(ASYM, t, 1441)
    inside = prof.r < 1.0
    dphi = 2.0 * np.pi * t * prof.w[inside]
    assert np.all(dphi > 0.0)
    assert np.all(dphi <= 2.0 + 1e-9)
    assert np.max(prof.w) <= 1.0 / (np.pi * t) + 1e-9
    assert mult_total_mass(prof) == pytest.approx(1.0, abs=1e-6)
    mu_bar = reflect_circle_measure(ASYM)
    mods = np.array(
        [
            abs(phi_map(mu_bar, t, rr * np.exp(1j * th)))
            for rr, th in zip(prof.r[inside], prof.thetas[inside])
        ]
    )
    assert np.max(np.abs(mods - 1.0)) <= 1e-9


@report(6, "analytic densities match finite differences at 100 random points")
def test_criterion_6_derivative_consistency():
    rng = np.random.default_rng(2024)
    h = 1e-6
    # additive: sample interior points of the support intervals
    t = 1.0
    prof = additive_profile(TWO, t, np.linspace(-4, 4, 801))
    points = []
    while len(points) < 100:
        lo, hi = prof.support_intervals[rng.integers(len(prof.support_intervals))]
        a = rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
        points.append(a)
    for a in points:
        fd = (psi_t(TWO, t, a + h) - psi_t(TWO, t, a - h)) / (2.0 * h)
        assert abs(density_w(TWO, t, a) - fd / (2.0 * np.pi * t)) <= 1e-5
    # multiplicative: interior points of the arcs
    tm = 0.8
    mu_bar = reflect_circle_measure(ASYM)
    mprof = multiplicative_profile(ASYM, tm, 1441)
    arcs = mprof.u_components
    points = []
    while len(points) < 100:
        lo, hi = arcs[rng.integers(len(arcs))]
        th = rng.uniform(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
        if r_t(mu_bar, tm, th) < 1.0:
            points.append(th)
    for th in points:
        fd = (phi_of_theta(mu_bar, tm, th + h) - phi_of_theta(mu_bar, tm, th - h)) / (
            2.0 * h
        )
        assert abs(density_w_theta(mu_bar, tm, th) - fd / (2.0 * np.pi * tm)) <= 1e-5


@report(7, "finite-N spectra match computed marginals (statistical)")
def test_criterion_7_rmt_agreement(
    additive_delta0_spectrum_1000, haar_mult_spectrum_500, asym_mult_spectrum_500
):
    mu0 = SpectralMeasure.real_atomic([0.0], [1.0])
    prof_add = additive_profile(mu0, 1.0, np.linspace(-3, 3, 801))
    rep = compare_marginal(additive_delta0_spectrum_1000, prof_add, "real-part")
    assert rep.distance <= 0.05

    prof_haar = multiplicative_profile(SpectralMeasure.haar(), 1.0, 1441)
    assert compare_marginal(haar_mult_spectrum_500, prof_haar, "radius").distance <= 0.08
    assert (
        compare_marginal(haar_mult_spectrum_500, prof_haar, "argument").distance <= 0.08
    )

    prof_asym = multiplicative_profile(ASYM, 0.8, 1441)
    assert (
        compare_marginal(asym_mult_spectrum_500, prof_asym, "argument").distance <= 0.08
    )
    assert compare_marginal(asym_mult_spectrum_500, prof_asym, "radius").distance <= 0.08


@report(8, "moment/cumulant round-trip identity and t=0 exactness")
def test_criterion_8_oracle_roundtrips():
    rng = np.random.default_rng(5)
    for _ in range(50):
        K = int(rng.integers(1, 13))
        kappa = rng.uniform(-2, 2, size=K)
        moments = free_cumulants_to_moments(kappa)
        back = moments_to_free_cumulants(moments)
        scale = max(1.0, np.abs(moments).max())
        assert np.max(np.abs(back - kappa)) <= 1e-12 * scale
    assert np.array_equal(
        free_additive_with_semicircle(TWO, 0.0, 12), moments_of_measure(TWO, 12)
    )
