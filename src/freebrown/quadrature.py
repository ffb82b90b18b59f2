"""Nested Clenshaw-Curtis quadrature over many intervals at once.

The densities integrated here vanish like sqrt(distance) at support-interval
endpoints, so the integrand is first pushed through the substitution
``x = mid + half*sin(pi s / 2)`` whose cosine weight makes it analytic in
``s`` on [-1, 1]. There Clenshaw-Curtis on the nodes cos(pi k/n) converges
geometrically, and doubling n reuses every node. Each estimate comes from one
FFT of the even extension of the values (Waldvogel, BIT 46, 2006). Each
interval doubles until its successive estimates agree to REL_TOL relative;
all intervals still refining share one integrand call.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ValidationError

#: node doublings before NumericalError
MAX_DOUBLINGS = 18
#: n of the first estimate, on the n + 1 nodes cos(pi k/n)
INITIAL_NODES = 16
#: relative tolerance of the per-interval convergence test
REL_TOL = 1e-8
#: absolute floor of the per-interval convergence test
ABS_FLOOR = 1e-12


def _clenshaw_curtis(vals):
    """Integral over [-1, 1] from values at cos(pi k/n), k = 0..n (n even),
    on the last axis: the Chebyshev coefficients c_j are the rfft of the
    even extension over n, and int T_j = 2/(1 - j^2) for even j."""
    n = vals.shape[-1] - 1
    c = np.fft.rfft(np.concatenate((vals, vals[..., -2:0:-1]), axis=-1)).real[..., ::2] / n
    c[..., [0, -1]] *= 0.5
    j = np.arange(0, n + 1, 2)
    return (c * (2.0 / (1.0 - j * j))).sum(axis=-1)


def integrate_adaptive(f, lo, hi):
    """Integrate a vectorized (possibly vector-valued) integrand over each
    interval [lo_i, hi_i].

    ``f`` maps a 1-d array of abscissas to an array of shape ``(n,)`` or
    ``(n, m)``. ``lo`` and ``hi`` are 1-d arrays of interval ends; the
    result has a leading interval axis, empty when there are no intervals.
    Each interval refines until all its components meet
    ``|Q_k - Q_{k-1}| <= max(REL_TOL * |Q_k|, ABS_FLOOR)``.

    Raises NumericalError after MAX_DOUBLINGS refinements.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if np.any(hi <= lo):
        raise ValidationError("empty or inverted integration interval")
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    def substituted(rows, s):
        """Weighted values at nodes ``s`` of the intervals ``rows``, with
        the nodes on the last axis."""
        x = mid[rows, None] + half[rows, None] * np.sin(0.5 * np.pi * s)
        weight = half[rows, None] * 0.5 * np.pi * np.cos(0.5 * np.pi * s)
        vals = np.asarray(f(np.clip(x, lo[rows, None], hi[rows, None]).ravel()), dtype=float)
        vals = vals.reshape(x.shape + vals.shape[1:])
        return np.moveaxis(vals * weight.reshape(weight.shape + (1,) * (vals.ndim - 2)), 1, -1)

    n, rows = INITIAL_NODES, np.arange(len(lo))
    vals = substituted(rows, np.cos(np.pi * np.arange(n + 1) / n))
    prev = _clenshaw_curtis(vals)
    out = np.empty_like(prev)
    for _ in range(MAX_DOUBLINGS):
        if not len(rows):
            break
        n *= 2
        merged = np.empty(vals.shape[:-1] + (n + 1,))
        merged[..., 0::2] = vals
        merged[..., 1::2] = substituted(rows, np.cos(np.pi * np.arange(1, n, 2) / n))
        est = _clenshaw_curtis(merged)
        ok = np.abs(est - prev) <= np.maximum(REL_TOL * np.abs(est), ABS_FLOOR)
        done = ok.all(axis=tuple(range(1, ok.ndim)))
        out[rows[done]] = est[done]
        rows, vals, prev = rows[~done], merged[~done], est[~done]
    if len(rows):
        raise NumericalError(
            f"no convergence on [{lo[rows[0]]}, {hi[rows[0]]}] after {MAX_DOUBLINGS} doublings"
        )
    return out
