import numpy as np
import pytest
from _cumulants import (
    MAX_ORDER,
    free_additive_with_semicircle,
    free_cumulants_to_moments,
    moments_of_measure,
    moments_to_free_cumulants,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from freebrown.errors import ValidationError
from freebrown.measures import SpectralMeasure


# -- independent oracle: explicit non-crossing partition enumeration ------------


def non_crossing_partitions(n):
    """All non-crossing partitions of {0..n-1}, built recursively: the block
    of element 0 is chosen, and the gaps it leaves are partitioned
    independently (non-crossing forbids blocks straddling a gap)."""
    if n == 0:
        return [[]]
    out = []
    items = list(range(n))

    def helper(elements):
        if not elements:
            return [[]]
        first, rest = elements[0], elements[1:]
        results = []
        # choose the rest of first's block as any subset of `rest` that keeps
        # the partition non-crossing: iterate over sorted index subsets
        for mask in range(2 ** len(rest)):
            block = [first] + [rest[i] for i in range(len(rest)) if mask >> i & 1]
            # split remaining elements into segments between block members
            segments = []
            current = []
            bset = set(block)
            for e in rest:
                if e in bset:
                    segments.append(current)
                    current = []
                else:
                    current.append(e)
            segments.append(current)
            subresults = [[]]
            ok = True
            for seg in segments:
                seg_parts = helper(seg)
                subresults = [a + b for a in subresults for b in seg_parts]
                if not seg_parts:
                    ok = False
                    break
            if ok:
                results.extend([[block] + parts for parts in subresults])
        return results

    for parts in helper(items):
        out.append(parts)
    return out


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
    d0 = SpectralMeasure.point_mass(0.0)
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
    d0 = SpectralMeasure.point_mass(0.0)
    assert np.allclose(free_additive_with_semicircle(d0, 1.0, 4), [0, 1, 0, 2])
    dc = SpectralMeasure.point_mass(0.7)
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
