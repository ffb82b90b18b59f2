import re

import numpy as np
import pytest
from _cumulants import free_additive_with_semicircle
from _moments import pushforward_moments
from _transforms import subordination_H
from hypothesis import given, settings
from hypothesis import strategies as st

from freebrown.additive import (
    additive_profile,
    density_w,
    density_w_array,
    psi_t,
    support_sidecar,
    total_mass,
    v_t,
)
from freebrown.cli import write_rows
from freebrown.errors import NumericalError, ValidationError
from freebrown.measures import SpectralMeasure

D0 = SpectralMeasure.real_atomic([0.0], [1.0])
BERN = SpectralMeasure.real_atomic([-1.0, 1.0], [0.5, 0.5])
TWO = SpectralMeasure.real_atomic([-0.8, 0.8], [0.25, 0.75])


def real_measures():
    return st.integers(1, 4).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(-3, 3), min_size=k, max_size=k, unique=True),
            st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k),
        )
    ).map(
        lambda lw: SpectralMeasure.real_atomic(lw[0], np.array(lw[1]) / sum(lw[1]))
    )


# -- v_t -------------------------------------------------------------------------


def test_v_examples():
    assert v_t(D0, 1.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert v_t(D0, 1.0, 0.6) == pytest.approx(0.8, abs=1e-12)
    assert v_t(BERN, 2.0, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert v_t(D0, 1.0, 2.0) == 0.0


def test_v_nonpositive_time():
    with pytest.raises(ValidationError, match=r"^t must be finite and > 0, got 0\.0$"):
        v_t(D0, 0.0, 0.0)


def test_v_at_atom_is_positive():
    # the defining sum reads +inf at an atom, so every atom is in the strip
    assert v_t(TWO, 0.05, 0.8) > 0.0


@settings(max_examples=60, deadline=None)
@given(real_measures(), st.floats(0.1, 4.0), st.floats(-4, 4))
def test_v_residual_identity(mu, t, a):
    """Whenever v > 0: |sum w_j/((a-x_j)^2+v^2) - 1/t| <= 1e-10/t."""
    v = v_t(mu, t, a)
    assert v <= np.sqrt(t) + 1e-12
    if v > 0:
        resid = np.sum(mu.weights / ((a - mu.locations) ** 2 + v * v)) - 1.0 / t
        assert abs(resid) <= 1e-10 / t


# -- H_t and psi_t ----------------------------------------------------------------


def test_H_examples():
    assert subordination_H(D0, 1.0, 1j) == pytest.approx(0.0)
    assert subordination_H(D0, 1.0, 2j) == pytest.approx(1.5j)
    a = 0.6
    z = a + 1j * v_t(D0, 1.0, a)
    h = subordination_H(D0, 1.0, z)
    assert h.imag == pytest.approx(0.0, abs=1e-9)
    assert h.real == pytest.approx(1.2)


def test_H_pole():
    with pytest.raises(ValidationError, match="^z=0j sits on an atom of the measure$"):
        subordination_H(D0, 1.0, 0.0)


def test_psi_examples():
    assert psi_t(D0, 1.0, 0.3) == pytest.approx(0.6)
    assert psi_t(D0, 1.0, 0.0) == pytest.approx(0.0)
    assert psi_t(BERN, 2.0, 0.0) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.floats(-0.9, 0.9), st.floats(0.2, 3.0))
def test_boundary_maps_to_real_line(a, t):
    """Im H_t(a + i v_t(a)) = 0 wherever v_t(a) > 0 (scaled point mass)."""
    mu = TWO
    v = v_t(mu, t, a)
    if v > 0:
        h = subordination_H(mu, t, complex(a, v))
        assert abs(h.imag) <= 1e-9
        assert h.real == pytest.approx(psi_t(mu, t, a), abs=1e-9)


def test_newton_inversion_recovers_subordination_point():
    """F_t = H_t^{-1}: Newton from a + i v_t(a) lands back on the curve."""
    mu, t = TWO, 1.0
    for a in (-0.9, -0.2, 0.5, 1.1):
        v = v_t(mu, t, a)
        assert v > 0
        y = psi_t(mu, t, a)
        z = complex(a, v) + 0.05j  # perturbed seed strictly above the curve
        for _ in range(60):
            hz = subordination_H(mu, t, z)
            hp = 1.0 - t * np.sum(mu.weights / (z - mu.locations) ** 2)
            z = z - (hz - y) / hp
        assert z.real == pytest.approx(a, abs=1e-9)
        assert z.imag == pytest.approx(v, abs=1e-9)


# -- density -----------------------------------------------------------------------


def test_density_examples():
    assert density_w(D0, 1.0, 0.5) == pytest.approx(1.0 / np.pi, abs=1e-12)
    assert density_w(D0, 2.0, 0.0) == pytest.approx(1.0 / (2.0 * np.pi), abs=1e-12)
    val = density_w(BERN, 2.0, 0.0)
    assert 0.0 < val <= 1.0 / np.pi


def test_density_fd_cross_check():
    """Analytic w_t vs (1/(2 pi t)) central difference of psi_t at h=1e-6."""
    h, t = 1e-6, 2.0
    for a in (-0.4, 0.0, 0.7):
        fd = (psi_t(BERN, t, a + h) - psi_t(BERN, t, a - h)) / (2 * h)
        assert density_w(BERN, t, a) == pytest.approx(
            fd / (2 * np.pi * t), abs=1e-6
        )


def _law_point(mu, t, a):
    """(psi_t(a), v_t(a)/(pi t)): the law's density at psi_t(a)."""
    return psi_t(mu, t, a), v_t(mu, t, a) / (np.pi * t)


def test_law_density_examples():
    y, p = _law_point(D0, 1.0, 0.0)
    assert (y, p) == (pytest.approx(0.0), pytest.approx(1.0 / np.pi))
    y, p = _law_point(D0, 1.0, 0.6)
    assert y == pytest.approx(1.2)
    assert p == pytest.approx(0.8 / np.pi)
    # semicircle closed form sqrt(4t - y^2)/(2 pi t) as independent route
    assert p == pytest.approx(np.sqrt(4.0 - 1.2**2) / (2.0 * np.pi))
    y, p = _law_point(BERN, 2.0, 0.0)
    assert (y, p) == (pytest.approx(0.0, abs=1e-12), pytest.approx(1 / (2 * np.pi)))


# -- profile ------------------------------------------------------------------------


def test_profile_on_a_huge_grid():
    """Past |a| ~ 1e154 the squared distance overflows to +inf, which reads
    as outside the strip, without a RuntimeWarning (an error in this suite):
    v and w are 0 there and psi_t(a) = a."""
    grid = np.linspace(-1e307, 1e307, 100)
    prof = additive_profile(D0, 1.0, grid)
    assert not prof.v.any() and not prof.w.any()
    assert np.array_equal(prof.psi, grid)
    assert np.allclose(prof.support_intervals, [(-1.0, 1.0)], atol=1e-12)


@pytest.mark.parametrize("t", [1e-300, 1e300])
def test_rows_at_extreme_time(t):
    """At t = 1e-300 the table w_j/D_j^2 overflows, at t = 1e300 the Newton
    step loses its scale: the rows are not finite, and the row pass raises
    NumericalError, without a RuntimeWarning (an error in this suite)."""
    for f in (density_w, v_t, psi_t):
        with pytest.raises(NumericalError, match=re.escape(f"non-finite rows at t={t:g}") + "$"):
            f(D0, t, 0.0)


def test_profile_disk_support():
    prof = additive_profile(D0, 1.0, np.linspace(-2, 2, 801))
    assert len(prof.support_intervals) == 1
    lo, hi = prof.support_intervals[0]
    assert lo == pytest.approx(-1.0, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert v_t(D0, 1.0, hi) <= 1e-10
    prof4 = additive_profile(D0, 4.0, np.linspace(-3, 3, 801))
    (lo4, hi4) = prof4.support_intervals[0]
    assert (lo4, hi4) == (pytest.approx(-2.0, abs=1e-12), pytest.approx(2.0, abs=1e-12))


def test_profile_two_atom_intervals():
    # t=1 merges the components (the two end atoms alone keep the sum
    # above 1/t on the gap); endpoints are sign changes of
    # sum w_j/(a-x_j)^2 - 1/t, checked against a brute scan
    prof = additive_profile(TWO, 1.0, np.linspace(-3, 3, 1201))
    assert len(prof.support_intervals) == 1
    for lo, hi in prof.support_intervals:
        for edge in (lo, hi):
            assert v_t(TWO, 1.0, edge) <= 1e-10
        # just inside both edges the strip is open
        width = hi - lo
        assert v_t(TWO, 1.0, lo + 1e-6 * width) > 0
        assert v_t(TWO, 1.0, hi - 1e-6 * width) > 0
    # at t=0.5 the support splits in two
    prof05 = additive_profile(TWO, 0.5, np.linspace(-3, 3, 1201))
    assert len(prof05.support_intervals) == 2


def test_profile_invariants():
    for t in (0.5, 1.0, 2.0):
        prof = additive_profile(TWO, t, np.linspace(-4, 4, 1001))
        assert np.all(prof.v <= np.sqrt(t) + 1e-12)
        assert np.all((prof.w == 0) == (prof.v == 0))
        assert np.all(prof.w >= 0)
        assert np.all(prof.w <= 2.0 / (np.pi * t) + 1e-9)
        # psi nondecreasing on each support run
        inside = prof.v > 0
        runs = np.split(np.arange(len(prof.grid)), np.where(np.diff(inside))[0] + 1)
        for run in runs:
            if len(run) > 1 and inside[run[0]]:
                assert np.all(np.diff(prof.psi[run]) >= -1e-12)


def test_profile_grid_validation():
    with pytest.raises(ValidationError):
        additive_profile(D0, 1.0, np.array([1.0, 0.5]))


# -- mass and push-forward -------------------------------------------------------------


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_mass_is_one(t):
    prof = additive_profile(TWO, t, np.linspace(-4, 4, 801))
    assert total_mass(prof) == pytest.approx(1.0, abs=1e-6)


def test_pushforward_moments_semicircle():
    prof = additive_profile(D0, 1.0, np.linspace(-2, 2, 401))
    m = pushforward_moments(prof, 4)
    assert m[0] == pytest.approx(0.0, abs=1e-8)
    assert m[1] == pytest.approx(1.0, rel=1e-6)
    assert m[2] == pytest.approx(0.0, abs=1e-8)
    assert m[3] == pytest.approx(2.0, rel=1e-6)


def test_pushforward_matches_cumulant_oracle():
    prof = additive_profile(TWO, 1.0, np.linspace(-3.5, 3.5, 801))
    got = pushforward_moments(prof, 6)
    want = free_additive_with_semicircle(TWO, 1.0, 6)
    assert np.allclose(got, want, rtol=1e-5, atol=1e-8)


@settings(max_examples=10, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(-2, 2), min_size=k, max_size=k, unique=True),
            st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k),
        )
    ),
    st.floats(0.8, 2.0),
)
def test_pushforward_oracle_property(atoms, t):
    """Uniqueness surrogate on random measures: the push-forward moments are
    the free-convolution-with-semicircle moments. t >= 0.8 keeps every
    support component wide relative to the profile grid."""
    locs, ws = atoms
    mu = SpectralMeasure.real_atomic(locs, np.array(ws) / np.sum(ws))
    half = float(np.max(np.abs(mu.locations))) + 2.0 * np.sqrt(t) + 0.5
    prof = additive_profile(mu, t, np.linspace(-half, half, 1201))
    got = pushforward_moments(prof, 4)
    want = free_additive_with_semicircle(mu, t, 4)
    assert np.allclose(got, want, rtol=1e-5, atol=1e-7)


def test_semicircle_discretization_pushes_to_summed_variance():
    """A fine atomic discretization of the semicircle sigma_1 flows to
    sigma_1 boxplus sigma_1 = sigma_2 (Catalan moments 2, 8, 40), up to the
    discretization error of the input measure."""

    def semicircle_cdf(x):
        return 0.5 + x * np.sqrt(4.0 - x * x) / (4.0 * np.pi) + np.arcsin(x / 2.0) / np.pi

    n = 400
    qs = (np.arange(n) + 0.5) / n
    xs = np.zeros(n)
    for i, q in enumerate(qs):
        lo, hi = -2.0, 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if semicircle_cdf(mid) < q:
                lo = mid
            else:
                hi = mid
        xs[i] = 0.5 * (lo + hi)
    mu = SpectralMeasure.real_atomic(xs, np.full(n, 1.0 / n))
    prof = additive_profile(mu, 1.0, np.linspace(-4, 4, 801))
    m = pushforward_moments(prof, 6)
    assert np.allclose(m[[0, 2, 4]], 0.0, atol=1e-8)
    assert np.allclose(m[[1, 3, 5]], [2.0, 8.0, 40.0], rtol=1e-3)
    assert total_mass(prof) == pytest.approx(1.0, abs=1e-6)


def test_vertical_constancy_by_construction():
    # the 2-d density at (a, b) with |b| < v(a) is w(a) by definition; the
    # scalar, array and profile paths share one row pass, so they agree exactly
    a = np.array([-0.3, 0.1, 0.9])
    w = density_w_array(TWO, 1.0, a)
    assert np.array_equal(w, additive_profile(TWO, 1.0, a).w)
    for ai, wi in zip(a, w):
        assert density_w(TWO, 1.0, float(ai)) == wi


# -- output -----------------------------------------------------------------------------


def test_csv_and_sidecar(tmp_path):
    prof = additive_profile(D0, 1.0, np.linspace(-2, 2, 101))
    path = tmp_path / "prof.csv"
    write_rows(path, ["a", "v", "w", "psi"], [prof.grid, prof.v, prof.w, prof.psi])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,v,w,psi"
    assert len(lines) == 102
    side = support_sidecar(prof)
    assert side["t"] == 1.0
    assert len(side["intervals"]) == 1
