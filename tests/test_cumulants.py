import numpy as np
import pytest
from _cumulants import (
    MAX_ORDER,
    free_additive_with_semicircle,
    free_cumulants_to_moments,
    free_multiplicative_with_unitary_flow,
    kreweras_complement,
    moments_of_measure,
    moments_to_free_cumulants,
    non_crossing_partitions,
    unitary_flow_moments,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from freebrown.errors import ValidationError
from freebrown.measures import SpectralMeasure


# -- independent oracle: the sum over non-crossing partitions ---------------------


def moments_from_cumulants_by_enumeration(kappa, K):
    """m_n = sum over non-crossing partitions of prod kappa_{|block|}."""
    ms = []
    for n in range(1, K + 1):
        total = 0.0
        for parts in non_crossing_partitions(n):
            prod = 1.0
            for block in parts:
                prod *= kappa[len(block) - 1]
            total += prod
        ms.append(total)
    return np.array(ms)


def test_enumeration_counts_catalan():
    # sanity for the oracle itself: |NC(n)| are the Catalan numbers
    counts = [len(non_crossing_partitions(n)) for n in range(1, 7)]
    assert counts == [1, 2, 5, 14, 42, 132]


def test_moments_of_measure():
    d0 = SpectralMeasure.real_atomic([0.0], [1.0])
    assert np.allclose(moments_of_measure(d0, 4), [0, 0, 0, 0])
    bern = SpectralMeasure.real_atomic([-1, 1], [0.5, 0.5])
    assert np.allclose(moments_of_measure(bern, 4), [0, 1, 0, 1])
    two = SpectralMeasure.real_atomic([-0.8, 0.8], [0.25, 0.75])
    assert np.allclose(moments_of_measure(two, 2), [0.4, 0.64])


def test_semicircle_cumulants_via_enumeration():
    # semicircle(t): kappa = (0, t, 0, 0, ...); enumeration oracle gives the
    # Catalan moments, and the recursion must invert them back
    for t in (1.0, 2.5):
        kappa = np.array([0.0, t, 0.0, 0.0, 0.0, 0.0])
        moments = moments_from_cumulants_by_enumeration(kappa, 6)
        assert np.allclose(moments, [0, t, 0, 2 * t**2, 0, 5 * t**3])
        assert np.allclose(moments_to_free_cumulants(moments), kappa, atol=1e-12)


def test_bernoulli_cumulants():
    kappa = moments_to_free_cumulants([0.0, 1.0, 0.0, 1.0])
    assert np.allclose(kappa, [0.0, 1.0, 0.0, -1.0], atol=1e-12)


def test_zero_cumulants_zero_moments():
    assert np.allclose(free_cumulants_to_moments([0.0]), [0.0])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=MAX_ORDER)
)
def test_roundtrip_identity(kappa):
    moments = free_cumulants_to_moments(kappa)
    back = moments_to_free_cumulants(moments)
    assert np.allclose(back, kappa, atol=1e-12 * max(1.0, np.abs(moments).max()))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-1.5, 1.5, allow_nan=False), min_size=1, max_size=7))
def test_recursion_matches_enumeration(kappa):
    K = len(kappa)
    via_recursion = free_cumulants_to_moments(kappa)
    via_enumeration = moments_from_cumulants_by_enumeration(kappa, K)
    assert np.allclose(via_recursion, via_enumeration, atol=1e-10)


def test_free_additive_with_semicircle():
    d0 = SpectralMeasure.real_atomic([0.0], [1.0])
    assert np.allclose(free_additive_with_semicircle(d0, 1.0, 4), [0, 1, 0, 2])
    dc = SpectralMeasure.real_atomic([0.7], [1.0])
    assert np.allclose(
        free_additive_with_semicircle(dc, 0.3, 2), [0.7, 0.7**2 + 0.3]
    )
    bern = SpectralMeasure.real_atomic([-1, 1], [0.5, 0.5])
    assert np.allclose(free_additive_with_semicircle(bern, 1.0, 4), [0, 2, 0, 7])


def test_t_zero_is_identity():
    mu = SpectralMeasure.real_atomic([-0.8, 0.8], [0.25, 0.75])
    assert np.array_equal(
        free_additive_with_semicircle(mu, 0.0, 8), moments_of_measure(mu, 8)
    )


def test_order_cap():
    with pytest.raises(ValidationError):
        moments_to_free_cumulants(np.zeros(MAX_ORDER + 1))


# -- the product with the free unitary Brownian motion -----------------------------


def product_by_subordination(mu, t, k_max):
    """Moments of u u_t from Biane's subordination eta_{u u_t}(Phi_t(z)) =
    eta_u(z), Phi_t(z) = z exp((t/2)(1 + 2 psi_u(z))), psi(z) = sum_n m_n z^n,
    as power series to order k_max. eta = psi/(1 + psi) is one-to-one, so
    psi_{u u_t}(Phi_t(z)) = psi_u(z) too; Phi_t(z)^k = e^{kt/2} z^k + O(z^{k+1}),
    so the coefficient of z^n gives M_n from M_1..M_{n-1}."""
    psi_u = np.concatenate(([0.0], moments_of_measure(mu, k_max)))
    h = t * psi_u  # the exponent less its constant t/2: E' = h' E
    e = np.zeros(k_max + 1, dtype=complex)
    e[0] = 1.0
    for n in range(1, k_max + 1):
        e[n] = sum(k * h[k] * e[n - k] for k in range(1, n + 1)) / n
    phi = np.exp(t / 2.0) * np.concatenate(([0.0], e[:-1]))
    powers, power = [], np.ones(1)
    for _ in range(k_max):
        power = np.convolve(power, phi)[: k_max + 1]
        powers.append(power)
    M = np.zeros(k_max + 1, dtype=complex)
    for n in range(1, k_max + 1):
        known = sum(M[k] * powers[k - 1][n] for k in range(1, n))
        M[n] = (psi_u[n] - known) / powers[n - 1][n]
    return M[1:]


def test_kreweras_complement_sizes():
    """|pi| + |K(pi)| = n + 1 on NC(n), and K maps NC(n) onto itself."""
    for n in range(1, 7):
        nc = non_crossing_partitions(n)
        images = [kreweras_complement(parts, n) for parts in nc]
        assert all(len(p) + len(k) == n + 1 for p, k in zip(nc, images))
        assert sorted(map(sorted, images)) == sorted(map(sorted, nc))


def test_point_mass_gives_the_unitary_flow():
    """u = 1: the product is u_t itself, by both routes."""
    one = SpectralMeasure.circle_atomic([0.0], [1.0])
    for t in (0.3, 1.0, 4.0):
        want = unitary_flow_moments(t, 6)
        assert np.allclose(free_multiplicative_with_unitary_flow(one, t, 6), want, atol=1e-14)
        assert np.allclose(product_by_subordination(one, t, 6), want, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(-3.1, 3.1), min_size=k, max_size=k, unique=True),
            st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k),
        )
    ),
    st.floats(0.05, 3.0),
)
def test_kreweras_sum_matches_subordination(atoms, t):
    locs, ws = atoms
    mu = SpectralMeasure.circle_atomic(locs, np.array(ws) / np.sum(ws))
    got = free_multiplicative_with_unitary_flow(mu, t, 6)
    assert np.allclose(got, product_by_subordination(mu, t, 6), rtol=0.0, atol=1e-12)
