"""Machinery shared by the boundary solves of both flows, v_t(a) for
x0 + c_t and r_t(theta) for u b_t: a safeguarded Newton root solve for one
block of points, the exact support components and the time check. Each flow
slices its points into ``blocks`` of at most TABLE_ENTRIES (points x atoms)
table entries and builds one atom table per block, for its support test, the
solve and its density rows.

The support indicator of either flow is convex on each gap between
neighbouring atoms, so a gap holds at most one outside interval and K atoms
give at most K components (Biane 1997): ``outside_gaps`` finds those gaps
and ``refine_endpoints`` bisects their ends.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import NonpositiveTime, NumericalError, ValidationError

#: (points x atoms) entries per block: keeps the work arrays cache-sized,
#: 128 points per block for 200 atoms and one block for a few-atom grid
TABLE_ENTRIES = 25_600
#: residual target of both boundary solves, relative to 1/t
RESIDUAL_REL = 1e-12
#: Newton/bisection iterations per point before NumericalError
MAX_ITER = 100
#: endpoint bisection cap; a unit bracket collapses to adjacent floats in ~55
ENDPOINT_STEPS = 200
#: Newton stop for a gap minimiser, relative to the gap length
GAP_STEP_REL = 1e-9


def check_time(t):
    if not 0 < t < np.inf:
        raise NonpositiveTime(f"t must be finite and > 0, got {t}")


def finite_points(points, name):
    """``points`` as a 1-d float array; a NaN or infinite point raises
    ValidationError rather than read as outside the support."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise ValidationError(f"every {name} must be finite")
    return pts


def blocks(n, atoms):
    """Consecutive slices of range(n), each of at most TABLE_ENTRIES // atoms
    points (at least one), so a block's table against ``atoms`` atoms stays
    within TABLE_ENTRIES entries."""
    rows = max(1, TABLE_ENTRIES // atoms)
    return (slice(start, start + rows) for start in range(0, n, rows))


def solve(lo, hi, x, evaluate):
    """Roots of independent monotone equations, one per row of a block.

    ``lo`` and ``hi`` bracket the roots and ``x`` holds first iterates
    inside them; ``evaluate(x) -> (done, below, newton, tables)`` says
    whether x meets the residual target, whether the root lies above x, and
    gives the Newton candidate from x and what the caller keeps of x. A
    Newton candidate outside the bracket is replaced by its midpoint. Frozen
    points stay in the block and keep their iterate (the evaluations wasted
    on them cost less than compacting its arrays), so the last evaluation,
    whose ``tables`` are returned with the roots, is made at the roots.
    """
    frozen = np.zeros(x.shape, dtype=bool)
    for _ in range(MAX_ITER):
        done, below, newton, tables = evaluate(x)
        frozen |= done
        if np.all(frozen):
            return x, tables
        del tables  # freed before the next evaluation builds its own
        lo = np.where(below, x, lo)
        hi = np.where(below, hi, x)
        step = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
        x = np.where(frozen, x, step)
    raise NumericalError(
        f"{np.count_nonzero(~frozen)} boundary points missed the residual "
        f"target after {MAX_ITER} iterations"
    )


def refine_endpoints(is_inside, a_in, a_out):
    """Bisect every bracket (``is_inside`` true at a_in, false at a_out) at
    once until its midpoint rounds onto an end. Returns the outside-side
    iterates: there the boundary is exactly trivial (v_t = 0, r_t = 1) and
    the true endpoint lies within one float."""
    a_in = np.array(a_in, dtype=float)
    a_out = np.array(a_out, dtype=float)
    for _ in range(ENDPOINT_STEPS):
        mid = 0.5 * (a_in + a_out)
        run = np.flatnonzero((mid != a_in) & (mid != a_out))
        if len(run) == 0:
            break
        hit = is_inside(mid[run])
        a_in[run[hit]] = mid[run[hit]]
        a_out[run[~hit]] = mid[run[~hit]]
    return a_out


def outside_gaps(indicator, level, slope, left, right, w_left, w_right):
    """Indices and minimisers of the gaps (left[i], right[i]) between
    neighbouring atoms that hold an outside interval.

    The indicator is convex on a gap and infinite at its atoms, so it is at
    most ``level`` on at most one interval, around its minimiser: the root
    of the decreasing ``slope(x) -> (g, dg/dx)``, by Newton to GAP_STEP_REL
    of the gap length L. Gaps where the end atoms alone keep it above
    ``level``, (w_left^(1/3) + w_right^(1/3))^3 / L^2 > level, are skipped
    unsolved. A gap is kept when the indicator at the minimiser is strictly
    below ``level``, so both its ends bracket a sign change (a tangency
    stays inside)."""
    length = right - left
    cl, cr = np.cbrt(w_left), np.cbrt(w_right)
    i = np.flatnonzero(~((cl + cr) ** 3 > level * length**2))
    lo, hi, tol = left[i], right[i], GAP_STEP_REL * length[i]
    first = lo + length[i] * cl[i] / (cl[i] + cr[i])  # the two-atom minimiser

    def evaluate(sl, x):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            g, dg = slope(x)
            step = g / dg
        return np.abs(step) <= tol[sl], g > 0.0, x - step, None

    m = np.empty(len(i))
    # the slope table has one column per atom, at most len(left) + 1 of them
    for sl in blocks(len(i), len(left) + 1):
        m[sl] = solve(lo[sl], hi[sl], first[sl], partial(evaluate, sl))[0]
    kept = indicator(m) < level
    return i[kept], m[kept]
