import numpy as np
import pytest
from _cumulants import (
    free_multiplicative_with_unitary_flow,
    moments_of_measure,
    unitary_flow_moments,
)
from _moments import pushforward_moments
from _oracle import k_fold_measure
from _transforms import T_of_lambda, f_value, phi_map
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freebrown.cli import write_rows
from freebrown.errors import NumericalError, ValidationError
from freebrown.measures import SpectralMeasure, reflect_circle_measure
from freebrown.multiplicative import (
    density_w_theta,
    f_limit_at_circle,
    haar_annulus_check,
    mult_law_density,
    multiplicative_profile,
    phi_of_theta,
    r_t,
    radius_cdf,
    total_mass,
)

HAAR = SpectralMeasure.haar()
D0C = SpectralMeasure.circle_atomic([0.0], [1.0])  # delta at angle 0
ASYM = SpectralMeasure.circle_atomic([2 * np.pi / 5, 3 * np.pi / 4], [1 / 3, 2 / 3])
ASYM_BAR = reflect_circle_measure(ASYM)


def circle_measures():
    return st.integers(1, 4).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(-3.1, 3.1), min_size=k, max_size=k, unique=True),
            st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k),
        )
    ).map(
        lambda lw: SpectralMeasure.circle_atomic(lw[0], np.array(lw[1]) / sum(lw[1]))
    )


# -- f and T ---------------------------------------------------------------------


def test_f_haar_closed_form():
    assert f_value(HAAR, 0.5, 1.7) == pytest.approx(1.0 / (2.0 * np.log(2.0)))


def test_f_direct_arithmetic():
    # delta at angle 0: f(0.5, pi) = (1/2)(0.75/log 2)(1/2.25)
    want = 0.5 * (0.75 / np.log(2.0)) / 2.25
    assert f_value(D0C, 0.5, np.pi) == pytest.approx(want)


def test_f_small_r_limit():
    # decay toward the stated limit 0 is logarithmic: f ~ 1/(-2 log r), also
    # below the smallest normal r, where (1 - r)^2/r overflows
    seq = [f_value(D0C, r, 0.0) for r in (1e-3, 1e-9, 1e-100, 1e-300, 1e-310, 5e-324)]
    assert all(a > b for a, b in zip(seq, seq[1:]))
    assert seq[-1] < 1e-3


def test_f_invalid_radius():
    with pytest.raises(ValidationError, match=r"^f is singular at r=1\.0$"):
        f_value(HAAR, 1.0, 0.0)
    with pytest.raises(ValidationError, match=r"^f is singular at r=0\.0$"):
        f_value(HAAR, 0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(circle_measures(), st.floats(0.05, 0.95), st.floats(-np.pi, np.pi))
def test_f_inversion_symmetry(mu, r, th):
    mu_bar = reflect_circle_measure(mu)
    assert f_value(mu_bar, 1.0 / r, th) == pytest.approx(
        f_value(mu_bar, r, th), rel=1e-9
    )


def test_T_examples():
    assert T_of_lambda(HAAR, 0.5) == pytest.approx(2.0 * np.log(2.0))
    assert T_of_lambda(HAAR, 2.0) == pytest.approx(2.0 * np.log(2.0))
    # f(1-, pi) = 1/(2 - 2 cos pi) = 1/4 for the angle-0 point mass
    assert T_of_lambda(D0C, np.exp(1j * np.pi)) == pytest.approx(4.0)
    # at an atom angle on the circle f diverges, so T = 0
    assert T_of_lambda(D0C, 1.0 + 0.0j) == 0.0


def test_T_zero_lambda():
    with pytest.raises(ValidationError, match="^T is undefined at lambda = 0$"):
        T_of_lambda(HAAR, 0.0)


@settings(max_examples=50, deadline=None)
@given(circle_measures(), st.floats(0.1, 0.9), st.floats(-np.pi, np.pi))
def test_T_inversion_symmetry(mu, r, th):
    mu_bar = reflect_circle_measure(mu)
    lam = r * np.exp(1j * th)
    assert T_of_lambda(mu_bar, 1.0 / np.conj(lam)) == pytest.approx(
        T_of_lambda(mu_bar, lam), rel=1e-9
    )


# -- r_t ------------------------------------------------------------------------


@pytest.mark.parametrize("t", [0.2, 1.0, 4.0])
def test_r_haar_exact(t):
    assert r_t(HAAR, t, 0.3) == pytest.approx(np.exp(-t / 2.0), abs=1e-12)


def test_r_outside_u():
    # f(1-, pi/2) = 1/2 <= 1 for the angle-0 point mass at t=1
    assert float(f_limit_at_circle(D0C, np.pi / 2)[0]) == pytest.approx(0.5)
    assert r_t(D0C, 1.0, np.pi / 2) == 1.0


def test_r_nonpositive_time():
    with pytest.raises(ValidationError, match=r"^t must be finite and > 0, got -1\.0$"):
        r_t(HAAR, -1.0, 0.0)


@settings(max_examples=50, deadline=None)
@given(st.floats(-np.pi, np.pi), st.floats(0.2, 3.0))
def test_r_residual(th, t):
    """|f(r_t, theta) - 1/t| <= 1e-10/t wherever r_t < 1."""
    r = r_t(ASYM_BAR, t, th)
    if r < 1.0:
        assert abs(f_value(ASYM_BAR, r, th) - 1.0 / t) <= 1e-10 / t


# -- Phi and phi -------------------------------------------------------------------


def test_phi_map_examples():
    assert phi_map(HAAR, 1.0, 0.3) == pytest.approx(0.3 * np.exp(0.5))
    assert phi_map(D0C, 1.0, 0.0) == 0.0
    with pytest.raises(ValidationError, match=r"^Phi has a pole at z=\(1\+0j\)$"):
        phi_map(reflect_circle_measure(D0C), 1.0, 1.0 + 0j)


def test_boundary_maps_to_unit_circle():
    for th in (-0.5, 0.0, 0.9):
        r = r_t(D0C, 1.0, th)
        if r < 1.0:
            assert abs(phi_map(D0C, 1.0, r * np.exp(1j * th))) == pytest.approx(
                1.0, abs=1e-10
            )


def test_phi_of_theta_examples():
    assert phi_of_theta(HAAR, 0.7, 1.1) == pytest.approx(1.1)
    assert phi_of_theta(D0C, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    # cross-check against the principal argument of Phi (mod 2 pi)
    th = 2.0
    r = r_t(ASYM_BAR, 0.8, th)
    assert r < 1.0
    phi = phi_of_theta(ASYM_BAR, 0.8, th)
    arg = np.angle(phi_map(ASYM_BAR, 0.8, r * np.exp(1j * th)))
    delta = (phi - arg + np.pi) % (2.0 * np.pi) - np.pi
    assert abs(delta) <= 1e-9


def test_phi_outside_u():
    with pytest.raises(ValidationError, match=r"^theta=1\.57\d* not in U_t$"):
        phi_of_theta(D0C, 1.0, np.pi / 2)


# -- density ----------------------------------------------------------------------


@pytest.mark.parametrize("t,expect", [(1.0, 1 / (2 * np.pi)), (4.0, 1 / (8 * np.pi))])
def test_w_haar(t, expect):
    assert density_w_theta(HAAR, t, 0.3) == pytest.approx(expect, abs=1e-12)


def test_w_fd_cross_check():
    """w_t vs (1/(2 pi t)) central difference of phi at h=1e-6."""
    h, t = 1e-6, 0.8
    for th in (1.0, 1.8, 2.6):
        fd = (phi_of_theta(ASYM_BAR, t, th + h) - phi_of_theta(ASYM_BAR, t, th - h)) / (
            2.0 * h
        )
        assert density_w_theta(ASYM_BAR, t, th) == pytest.approx(
            fd / (2.0 * np.pi * t), abs=1e-6
        )


def test_scalar_wrappers_equal_profile_rows():
    """The scalar wrappers and the profile share one row pass, so at grid
    angles inside U_t they give the profile's rows exactly."""
    t = 0.8
    prof = multiplicative_profile(ASYM, t, 64)
    hit = np.flatnonzero(prof.r < 1.0)
    assert len(hit) > 0
    for i in hit:
        th = float(prof.thetas[i])
        assert r_t(ASYM_BAR, t, th) == prof.r[i]
        assert phi_of_theta(ASYM_BAR, t, th) == prof.phi[i]
        assert density_w_theta(ASYM_BAR, t, th) == prof.w[i]


def test_w_outside_u():
    with pytest.raises(ValidationError, match=r"^theta=1\.57\d* not in U_t$"):
        density_w_theta(D0C, 1.0, np.pi / 2)


# -- profile -----------------------------------------------------------------------


def test_profile_haar_full_circle():
    prof = multiplicative_profile(HAAR, 1.0, 64)
    assert prof.u_components == ((-np.pi, np.pi),)
    assert np.allclose(prof.r, np.exp(-0.5), atol=1e-12)
    assert np.allclose(prof.w, 1.0 / (2.0 * np.pi), atol=1e-12)
    assert np.allclose(prof.phi, prof.thetas)
    assert np.allclose(prof.arg_density, 1.0 / (2.0 * np.pi), atol=1e-12)
    assert total_mass(prof) == pytest.approx(1.0, abs=1e-12)


def test_profile_point_mass_arc():
    # U_t = {4 sin^2(theta/2) < 1} = (-pi/3, pi/3) at t = 1
    prof = multiplicative_profile(D0C, 1.0, 1441)
    assert len(prof.u_components) == 1
    lo, hi = prof.u_components[0]
    assert lo == pytest.approx(-np.pi / 3.0, abs=1e-10)
    assert hi == pytest.approx(np.pi / 3.0, abs=1e-10)


def test_profile_asym_arcs_cover_atoms():
    prof = multiplicative_profile(ASYM, 0.8, 1441)
    # the component wraps the +-pi cut: two reported arcs
    assert len(prof.u_components) == 2

    def in_some_arc(th):
        return any(lo < th < hi for lo, hi in prof.u_components)

    for atom in ASYM.locations:
        assert in_some_arc(atom)
    # reflected angles must NOT be covered (orientation check)
    for atom in ASYM.locations:
        assert not in_some_arc(-atom)
    # arc endpoints sit on the indicator boundary f(1-) = 1/t
    interior_edges = [prof.u_components[0][1], prof.u_components[1][0]]
    for edge in interior_edges:
        val = float(f_limit_at_circle(ASYM_BAR, edge)[0])
        assert val == pytest.approx(1.0 / 0.8, rel=1e-9)


def test_profile_invariants():
    t = 0.8
    prof = multiplicative_profile(ASYM, t, 1441)
    inside = prof.r < 1.0
    assert np.all(prof.r > 0.0) and np.all(prof.r <= 1.0)
    assert np.all(prof.w[~inside] == 0.0)
    assert np.all(prof.w[inside] > 0.0)
    assert np.all(prof.w <= 1.0 / (np.pi * t) + 1e-9)
    dphi = 2.0 * np.pi * t * prof.w[inside]
    assert np.all(dphi > 0.0) and np.all(dphi <= 2.0 + 1e-9)
    assert np.allclose(
        prof.arg_density[inside], -2.0 * np.log(prof.r[inside]) * prof.w[inside]
    )
    assert np.all(prof.arg_density >= 0.0)


def test_profile_mass_and_arg_marginal():
    prof = multiplicative_profile(ASYM, 0.8, 1441)
    assert total_mass(prof) == pytest.approx(1.0, abs=1e-6)


def test_arg_marginal_vanishes_at_arc_boundary():
    # a_t = -2 log(r_t) w_t -> 0 as theta approaches the arc endpoint where
    # r_t -> 1 (sqrt-rate decay)
    t = 0.8
    mu_bar = ASYM_BAR
    prof = multiplicative_profile(ASYM, t, 1441)
    edge = prof.u_components[1][0]  # interior endpoint of the wrapped component
    vals = []
    for delta in (1e-2, 1e-4, 1e-6, 1e-8):
        th = edge + delta
        r = r_t(mu_bar, t, th)
        assert r < 1.0
        vals.append(-2.0 * np.log(r) * density_w_theta(mu_bar, t, th))
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 2e-3


@settings(max_examples=10, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k, unique=True),
            st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k),
        )
    ),
    st.floats(0.8, 2.5),
)
def test_mass_property_random_measures(atoms, t):
    """Total Brown mass is 1 for random atomic unitaries; t >= 0.8 keeps the
    arcs wide relative to the angle grid. The push-forward is the law of
    u u_t, so by freeness, tau(u_t) = e^{-t/2} and tau(u_t^2) = e^{-t}(1 - t),
    its first two moments are e^{-t/2} m_1 and e^{-t}(m_2 - t m_1^2) with
    m_k = sum_j w_j e^{i k alpha_j} on the unitary's own atoms. Complex
    moments, not only cosines: a reflection u -> u* conjugates them."""
    locs, ws = atoms
    mu = SpectralMeasure.circle_atomic(locs, np.array(ws) / np.sum(ws))
    prof = multiplicative_profile(mu, t, 721)
    assert total_mass(prof) == pytest.approx(1.0, abs=1e-6)
    got = pushforward_moments(prof, 2)
    m1, m2 = moments_of_measure(mu, 2)
    want = [np.exp(-t / 2.0) * m1, np.exp(-t) * (m2 - t * m1 * m1)]
    assert abs(got[0] - want[0]) <= 1e-8
    assert abs(got[1] - want[1]) <= 1e-8


_DENSE = np.random.default_rng(1)
#: 200 uniform(-pi, pi) atom angles with Dirichlet(1) weights
DENSE_CIRCLE = SpectralMeasure.circle_atomic(
    _DENSE.uniform(-np.pi, np.pi, 200), _DENSE.dirichlet(np.ones(200))
)


@settings(max_examples=10, deadline=None)
@given(circle_measures(), st.floats(0.05, 2.5))
@example(DENSE_CIRCLE, 1e-4)
@example(DENSE_CIRCLE, 1e-3)
def test_pushforward_moments_random_measures(mu, t):
    """tau((u u_t)^k) for k <= 6: the push-forward's moments against the sum
    over NC(k) of u's free cumulants and the Kreweras complement's moments of
    u_t, on random 1-4-atom unitaries and, as examples, a 200-atom one at
    small t, with well over 100 arcs. The moments integrate over the exact
    arcs, not the angle grid, so 16 angles do and t may be small. On 60
    random draws the errors read up to 3e-13, while on those with 2-4 atoms
    the moments of u* u_t (a reflection error) miss by at least 0.067."""
    got = pushforward_moments(multiplicative_profile(mu, t, 16), 6)
    want = free_multiplicative_with_unitary_flow(mu, t, 6)
    assert np.max(np.abs(got - want)) <= 1e-8


def test_profile_validation():
    with pytest.raises(ValidationError):
        multiplicative_profile(HAAR, 1.0, 8)


def test_inversion_symmetry_of_planar_density():
    """W(r, theta) = w(theta)/r^2, so W(r) r^2 is constant along rays and the
    reported density at r e^{i theta} equals the one at (1/r) e^{i theta}
    scaled by r^4."""
    prof = multiplicative_profile(ASYM, 0.8, 256)
    inside = prof.r < 1.0
    rt, wt = prof.r[inside][:10], prof.w[inside][:10]
    for r0, w0 in zip(rt, wt):
        for rr in np.linspace(r0 * 1.01, 1.0 / (r0 * 1.01), 7):
            W = w0 / rr**2
            W_inv = w0 / (1.0 / rr) ** 2
            assert W_inv == pytest.approx(W * rr**4, rel=1e-12)


# -- law of the unitary flow -------------------------------------------------------


def test_mult_law_haar():
    phi, p = mult_law_density(HAAR, 2.0, 0.4)
    assert (phi, p) == (pytest.approx(0.4), pytest.approx(1.0 / (2.0 * np.pi)))


def test_mult_law_point_mass():
    r = r_t(D0C, 1.0, 0.0)
    phi, p = mult_law_density(D0C, 1.0, 0.0)
    assert phi == pytest.approx(0.0, abs=1e-12)
    assert p == pytest.approx(-np.log(r) / np.pi)
    with pytest.raises(ValidationError, match=r"^theta=1\.57\d* not in U_t$"):
        mult_law_density(D0C, 1.0, np.pi / 2)


def test_law_normalization_via_mass():
    """int p_t dphi over the arcs equals int -2 log(r_t) w_t dtheta = 1."""
    prof = multiplicative_profile(ASYM, 0.8, 1441)
    assert total_mass(prof) == pytest.approx(1.0, abs=1e-6)
    # independent trapezoid route on the law parametrized by theta,
    # accumulated per contiguous grid run (the arcs are disjoint)
    inside = prof.r < 1.0
    integrand = np.where(
        inside, -np.log(np.where(inside, prof.r, 1.0)) * 2.0 * prof.w, 0.0
    )
    approx = np.trapezoid(integrand, prof.thetas)
    assert approx == pytest.approx(1.0, abs=5e-3)


def test_haar_moments_vanish():
    """Push-forward surrogate: trapezoidal circular moments of the Haar law
    vanish for k >= 1 and give 1 for k = 0 (closed full-period grid)."""
    prof = multiplicative_profile(HAAR, 1.0, 512)
    # close the circle: theta = -pi is the same point as the last grid angle
    phis = np.concatenate(([-np.pi], prof.phi))
    p = 1.0 / (2.0 * np.pi)  # p_t(phi) for Haar, with dphi = dtheta
    assert np.trapezoid(np.full_like(phis, p), phis) == pytest.approx(1.0, abs=1e-12)
    for k in (1, 2, 3):
        mom = np.trapezoid(np.exp(1j * k * phis) * p, phis)
        assert abs(mom) <= 1e-10


@pytest.mark.parametrize("t", [0.5, 1.0])
def test_law_matches_unitary_flow_closed_form(t):
    """For a point-mass unitary the flow law is the free unitary Brownian
    motion itself; its circular moments have a classical closed form. This
    exercises r_t, phi and w_t end to end against the literature values.
    The imaginary parts vanish by the symmetry of this measure."""
    got = pushforward_moments(multiplicative_profile(D0C, t, 721), 3).real
    want = unitary_flow_moments(t, 3)
    assert np.allclose(got, want, atol=1e-8)


# -- annulus check ------------------------------------------------------------------


@pytest.mark.parametrize("t", [0.25, 1.0, 2.0, 4.0, 16.0, 50.0, 200.0, 1400.0])
def test_annulus_check(t):
    chk = haar_annulus_check(t)
    assert chk.max_discrepancy <= 1e-12
    assert chk.cdf_stransform[-1] == pytest.approx(1.0)
    assert chk.cdf_stransform[0] == pytest.approx(0.0)


def test_rows_at_tiny_time():
    """At t = 1e-300 the solve's table kappa_j overflows at an atom angle:
    the rows are not finite, and the row pass raises NumericalError, without
    a RuntimeWarning (an error in this suite)."""
    mu_bar = reflect_circle_measure(SpectralMeasure.circle_atomic([0.4, 2.0], [0.5, 0.5]))
    with pytest.raises(NumericalError, match=r"non-finite rows at t=1e-300$"):
        r_t(mu_bar, 1e-300, 2.0)


def test_k_fold_measure_reaches_the_annulus():
    """K atoms at alpha_0 + 2 pi j/K with weight 1/K: averaging the Poisson
    kernel over the K shifts keeps only its Fourier modes that are multiples
    of K, so r_t, w_t and the radius CDF sit O(e^{-Kt/2}) from the Haar
    annulus. This runs the general root solve and rows, which the Haar
    measure short-circuits."""
    t = 1.0
    prof = multiplicative_profile(k_fold_measure(200), t, 1441)
    assert np.max(np.abs(prof.r - np.exp(-0.5 * t))) <= 1e-12
    assert np.max(np.abs(prof.w - 1.0 / (2.0 * np.pi * t))) <= 1e-12
    radii = np.linspace(np.exp(-0.5 * t), np.exp(0.5 * t), 33)
    assert np.max(np.abs(radius_cdf(prof, radii) - (0.5 + np.log(radii) / t))) <= 1e-12


def test_annulus_nonpositive_time():
    with pytest.raises(ValidationError, match=r"^t must be finite and > 0, got 0\.0$"):
        haar_annulus_check(0.0)


# -- output -------------------------------------------------------------------------


def test_csv_and_sidecar(tmp_path):
    prof = multiplicative_profile(D0C, 1.0, 64)
    path = tmp_path / "prof.csv"
    write_rows(
        path, ["theta", "r", "phi", "w", "arg_density"],
        [prof.thetas, prof.r, prof.phi, prof.w, prof.arg_density],
    )
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,r,phi,w,arg_density"
    assert len(lines) == 65
    assert len(prof.u_components) == 1
