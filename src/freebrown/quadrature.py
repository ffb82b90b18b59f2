"""Adaptive composite Simpson quadrature with Richardson extrapolation.

The densities integrated here vanish like sqrt(distance) at support-interval
endpoints, so the integrand is first pushed through the substitution
``x = mid + half*sin(pi s / 2)`` whose cosine weight turns the sqrt endpoint
behavior into a smooth function of ``s``. Panels are doubled (reusing nodes)
until successive Richardson-extrapolated Simpson estimates agree to the
requested relative tolerance.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureNonconvergence

#: panel doublings before QuadratureNonconvergence
MAX_DOUBLINGS = 18
#: Simpson panels of the first estimate
INITIAL_PANELS = 8


def _simpson(vals, h):
    """Composite Simpson over equally spaced values (odd count), per column."""
    return (h / 3.0) * (
        vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum(axis=0) + 2.0 * vals[2:-1:2].sum(axis=0)
    )


def integrate_adaptive(f, lo: float, hi: float, rel_tol: float = 1e-8, abs_floor: float = 1e-12):
    """Integrate a vectorized (possibly vector-valued) integrand over [lo, hi].

    ``f`` maps a 1-d array of abscissas to an array of shape ``(n,)`` or
    ``(n, m)``; all ``m`` components must individually meet the convergence
    criterion ``|R_k - R_{k-1}| <= max(rel_tol * |R_k|, abs_floor)``.

    Raises QuadratureNonconvergence after MAX_DOUBLINGS refinements.
    """
    if hi <= lo:
        raise ValueError("empty or inverted integration interval")
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)

    def substituted(s):
        x = mid + half * np.sin(0.5 * np.pi * s)
        weight = half * 0.5 * np.pi * np.cos(0.5 * np.pi * s)
        vals = np.asarray(f(np.clip(x, lo, hi)), dtype=float)
        if vals.ndim == 1:
            return vals * weight
        return vals * weight[:, None]

    n_nodes = 2 * INITIAL_PANELS + 1
    s = np.linspace(-1.0, 1.0, n_nodes)
    vals = substituted(s)
    h = 2.0 / (n_nodes - 1)
    simpson_prev = _simpson(vals, h)
    richardson_prev = None

    for _ in range(MAX_DOUBLINGS):
        new_s = (s[:-1] + s[1:]) / 2.0
        new_vals = substituted(new_s)
        merged = np.empty((len(s) + len(new_s),) + vals.shape[1:], dtype=float)
        merged[0::2] = vals
        merged[1::2] = new_vals
        s = np.linspace(-1.0, 1.0, len(merged))
        vals = merged
        h /= 2.0
        simpson = _simpson(vals, h)
        richardson = simpson + (simpson - simpson_prev) / 15.0
        if richardson_prev is not None:
            err = np.abs(richardson - richardson_prev)
            tol = np.maximum(rel_tol * np.abs(richardson), abs_floor)
            if np.all(err <= tol):
                return richardson
        simpson_prev = simpson
        richardson_prev = richardson

    raise QuadratureNonconvergence(
        f"no convergence on [{lo}, {hi}] after {MAX_DOUBLINGS} doublings"
    )
