"""Moment / free-cumulant conversion: the brute-force convolution oracle.

Moment sequences are plain 1-d arrays ``[m_1, ..., m_K]`` with ``m_0 = 1``
implicit, real on the line and complex on the circle. Conversions use the
triangular recursion obtained by decomposing a non-crossing partition along
the block containing 1:

    m_n = sum_{s=1..n} kappa_s * sum_{i_1+...+i_s = n-s} m_{i_1} ... m_{i_s}

Free additive convolution with a semicircle of variance t is ``kappa_2 += t``
in cumulant coordinates. The product of a unitary u with the free unitary
Brownian motion u_t, free from it, has the moments

    tau((u u_t)^n) = sum_{pi in NC(n)} kappa_pi[u] tau_{K(pi)}[u_t]

with K the Kreweras complement (Nica and Speicher, *Lectures on the
Combinatorics of Free Probability*, Theorem 14.4) and Biane's moments of
u_t. Orders are capped at 12: the acceptance checks only need k <= 6 and
partition counts stay tiny.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial, prod

import numpy as np

from freebrown.errors import ValidationError
from freebrown.measures import REAL_ATOMIC, SpectralMeasure

MAX_ORDER = 12


def _check_order(k):
    if k < 1 or k > MAX_ORDER:
        raise ValidationError(f"order {k} outside 1..{MAX_ORDER}")


def _numbers(x):
    """``x`` as an array of floats, or of complex numbers if it holds any."""
    x = np.asarray(x)
    return x.astype(np.result_type(x, float))


def moments_of_measure(mu: SpectralMeasure, k_max: int) -> np.ndarray:
    """Raw moments m_k = sum_j w_j x_j^k for k = 1..k_max (exact finite sums);
    on the circle x_j = e^{i alpha_j}, and the Haar moments are 0."""
    _check_order(k_max)
    x = mu.locations if mu.kind == REAL_ATOMIC else np.exp(1j * mu.locations)
    ks = np.arange(1, k_max + 1)
    return (mu.weights[None, :] * x[None, :] ** ks[:, None]).sum(axis=1)


def _composition_sums(moments_with_1, s_max, q_max):
    """P[s, q] = sum over s-tuples (i_1..i_s) >= 0 with sum q of prod m_{i_j}.

    Computed by repeated truncated convolution of the moment vector
    (m_0=1, m_1, ..., m_{q_max}).
    """
    m = _numbers(moments_with_1[: q_max + 1])
    P = np.zeros((s_max + 1, q_max + 1), dtype=m.dtype)
    P[0, 0] = 1.0
    for s in range(1, s_max + 1):
        P[s] = np.convolve(P[s - 1], m)[: q_max + 1]
    return P


def moments_to_free_cumulants(moments) -> np.ndarray:
    """Free cumulants kappa_1..kappa_K from raw moments m_1..m_K."""
    moments = _numbers(moments)
    K = len(moments)
    _check_order(K)
    m_full = np.concatenate(([1.0], moments))
    P = _composition_sums(m_full, K, K)
    kappa = np.zeros(K, dtype=moments.dtype)
    for n in range(1, K + 1):
        acc = sum(kappa[s - 1] * P[s, n - s] for s in range(1, n))
        kappa[n - 1] = moments[n - 1] - acc  # P[n, 0] = 1
    return kappa


def free_cumulants_to_moments(kappa) -> np.ndarray:
    """Raw moments m_1..m_K from free cumulants kappa_1..kappa_K."""
    kappa = _numbers(kappa)
    K = len(kappa)
    _check_order(K)
    m_full = np.zeros(K + 1, dtype=kappa.dtype)
    m_full[0] = 1.0
    for n in range(1, K + 1):
        # composition sums over the moments known so far (orders < n suffice:
        # each factor m_{i_j} has i_j <= n - s <= n - 1)
        P = _composition_sums(m_full, n, n - 1)
        m_full[n] = sum(kappa[s - 1] * P[s, n - s] for s in range(1, n + 1))
    return m_full[1:]


def free_additive_with_semicircle(mu: SpectralMeasure, t: float, k_max: int) -> np.ndarray:
    """Moments of mu boxplus sigma_t: shift kappa_2 by t, convert back.

    t = 0 returns the moments of mu unchanged.
    """
    if t < 0:
        raise ValidationError("semicircle variance t must be >= 0")
    if t == 0:
        return moments_of_measure(mu, k_max)  # exact, no conversion wiggle
    kappa = moments_to_free_cumulants(moments_of_measure(mu, k_max))
    if k_max >= 2:
        kappa[1] += t
    return free_cumulants_to_moments(kappa)


# -- the product with the free unitary Brownian motion ---------------------------


def non_crossing_partitions(n):
    """All non-crossing partitions of {0..n-1}, built recursively: the block
    of element 0 is chosen, and the gaps it leaves are partitioned
    independently (non-crossing forbids blocks straddling a gap)."""

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

    return helper(list(range(n)))


def kreweras_complement(parts, n):
    """K(pi) of a non-crossing partition of {0..n-1}: the cycles of the
    permutation pi^{-1} gamma, gamma = (0 1 ... n-1), where pi runs through
    each block in increasing order."""
    pi_inv = {}
    for block in parts:
        for a, b in zip(block, block[1:] + block[:1]):
            pi_inv[b] = a
    k = [pi_inv[(i + 1) % n] for i in range(n)]
    seen, blocks = set(), []
    for start in range(n):
        block, j = [], start
        while j not in seen:
            seen.add(j)
            block.append(j)
            j = k[j]
        if block:
            blocks.append(sorted(block))
    return blocks


@cache
def _nc_block_sizes(n):
    """(block sizes of pi, block sizes of K(pi)) for every pi in NC(n)."""
    return [
        ([len(b) for b in parts], [len(b) for b in kreweras_complement(parts, n)])
        for parts in non_crossing_partitions(n)
    ]


def unitary_flow_moments(t: float, k_max: int) -> np.ndarray:
    """Biane's moments of the free unitary Brownian motion, n = 1..k_max:
    tau(u_t^n) = e^{-nt/2} sum_{k=0}^{n-1} (-t)^k/k! n^{k-1} C(n, k+1)."""
    return np.array([
        np.exp(-n * t / 2.0)
        * sum((-t) ** k / factorial(k) * n ** (k - 1) * comb(n, k + 1) for k in range(n))
        for n in range(1, k_max + 1)
    ])


def free_multiplicative_with_unitary_flow(mu: SpectralMeasure, t: float, k_max: int) -> np.ndarray:
    """tau((u u_t)^n), n = 1..k_max, for u of law ``mu`` on the circle: the sum
    over NC(n) of kappa_pi[u] tau_{K(pi)}[u_t]."""
    mu.require_circle("free_multiplicative_with_unitary_flow")
    kappa = moments_to_free_cumulants(moments_of_measure(mu, k_max))
    flow = unitary_flow_moments(t, k_max)
    return np.array([
        sum(
            prod(kappa[s - 1] for s in sizes) * prod(flow[s - 1] for s in k_sizes)
            for sizes, k_sizes in _nc_block_sizes(n)
        )
        for n in range(1, k_max + 1)
    ])
