"""Moment / free-cumulant conversion: the brute-force convolution oracle.

Moment sequences are plain 1-d arrays ``[m_1, ..., m_K]`` with ``m_0 = 1``
implicit. Conversions use the triangular recursion obtained by decomposing a
non-crossing partition along the block containing 1:

    m_n = sum_{s=1..n} kappa_s * sum_{i_1+...+i_s = n-s} m_{i_1} ... m_{i_s}

Free additive convolution with a semicircle of variance t is ``kappa_2 += t``
in cumulant coordinates. Orders are capped at 12: the acceptance checks only
need k <= 6 and partition counts stay tiny.
"""

from __future__ import annotations

import numpy as np

from freebrown.errors import ValidationError
from freebrown.measures import SpectralMeasure

MAX_ORDER = 12


def _check_order(k):
    if k < 1 or k > MAX_ORDER:
        raise ValidationError(f"order {k} outside 1..{MAX_ORDER}")


def moments_of_measure(mu: SpectralMeasure, k_max: int) -> np.ndarray:
    """Raw moments m_k = sum_j w_j x_j^k for k = 1..k_max (exact finite sums)."""
    mu.require_real("moments_of_measure")
    _check_order(k_max)
    ks = np.arange(1, k_max + 1)
    return (mu.weights[None, :] * mu.locations[None, :] ** ks[:, None]).sum(axis=1)


def _composition_sums(moments_with_1, s_max, q_max):
    """P[s, q] = sum over s-tuples (i_1..i_s) >= 0 with sum q of prod m_{i_j}.

    Computed by repeated truncated convolution of the moment vector
    (m_0=1, m_1, ..., m_{q_max}).
    """
    m = np.asarray(moments_with_1[: q_max + 1], dtype=float)
    P = np.zeros((s_max + 1, q_max + 1))
    P[0, 0] = 1.0
    for s in range(1, s_max + 1):
        P[s] = np.convolve(P[s - 1], m)[: q_max + 1]
    return P


def moments_to_free_cumulants(moments) -> np.ndarray:
    """Free cumulants kappa_1..kappa_K from raw moments m_1..m_K."""
    moments = np.asarray(moments, dtype=float)
    K = len(moments)
    _check_order(K)
    m_full = np.concatenate(([1.0], moments))
    P = _composition_sums(m_full, K, K)
    kappa = np.zeros(K)
    for n in range(1, K + 1):
        acc = sum(kappa[s - 1] * P[s, n - s] for s in range(1, n))
        kappa[n - 1] = moments[n - 1] - acc  # P[n, 0] = 1
    return kappa


def free_cumulants_to_moments(kappa) -> np.ndarray:
    """Raw moments m_1..m_K from free cumulants kappa_1..kappa_K."""
    kappa = np.asarray(kappa, dtype=float)
    K = len(kappa)
    _check_order(K)
    m_full = np.zeros(K + 1)
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
