"""Machinery shared by the boundary solves of both flows, v_t(a) for
x0 + c_t and r_t(theta) for u b_t: a safeguarded Newton root solve for one
block of points, the exact support components and the time check. Each flow
slices its points into ``blocks`` of at most TABLE_ENTRIES (points x atoms)
table entries and builds one atom table per block, for its support test, the
solve and its density rows.

The support indicator of either flow is convex on each gap between
neighbouring atoms, so a gap holds at most one outside interval and K atoms
give at most K components (Biane 1997): ``outside_gaps`` finds those gaps
and ``refine_endpoints`` their ends: Newton on the indicator's inverse
square root, concave on each gap, then a few probes and bisection steps.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import NumericalError, ValidationError

#: (points x atoms) entries per block: keeps the work arrays cache-sized,
#: 128 points per block for 200 atoms and one block for a few-atom grid
TABLE_ENTRIES = 25_600
#: residual target of both boundary solves, relative to 1/t
RESIDUAL_REL = 1e-12
#: Newton/bisection iterations per point before NumericalError
MAX_ITER = 100
#: cap on the probe and bisection steps after an endpoint's Newton (about 5)
ENDPOINT_STEPS = 200
#: Newton stop for a gap minimiser, relative to the gap length
GAP_STEP_REL = 1e-9


def check_time(t):
    if not 0 < t < np.inf:
        raise ValidationError(f"t must be finite and > 0, got {t}")


def finite_points(points, name):
    """``points`` as a 1-d float array; a NaN or infinite point raises
    ValidationError rather than read as outside the support."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    if not np.isfinite(pts).all():  # the method skips np.all's dispatch
        raise ValidationError(f"every {name} must be finite")
    return pts


def require_finite(what, t, *columns):
    """NumericalError when a row column holds a NaN or an infinity, as at a
    t so small or large that the row tables leave the floats."""
    if not all(np.isfinite(c).all() for c in columns):
        raise NumericalError(f"{what}: non-finite rows at t={t:g}")


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
        if frozen.all():
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


def refine_endpoints(indicator, derivative, level, a_in, a_out):
    """The end of every bracket (``indicator`` > ``level`` at a_in, not at
    a_out): the first float outside, next to a sign change of that float
    predicate, where the boundary is exactly trivial (v_t = 0, r_t = 1).

    The indicator is convex between atoms, so indicator^(-1/2) is concave
    there (linear near a lone atom): ``solve`` runs Newton on it from the
    midpoints, updating brackets by the predicate, until a raw step is within
    4 ulps. Probes 4, 8, 16, ... ulps on from that iterate, while nearer than
    the midpoint, and then bisection close each bracket onto adjacent floats.
    """
    a_in, a_out = np.array(a_in, dtype=float), np.array(a_out, dtype=float)
    sign = np.where(a_out > a_in, 1.0, -1.0)  # y = sign * a grows outward
    lo, hi = sign * a_in, sign * a_out
    gap = 4.0 * np.spacing(np.maximum(np.abs(a_in), np.abs(a_out)))
    last = [np.nan]

    def evaluate(y):
        f = indicator(sign * y)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = 2.0 * f * (1.0 - np.sqrt(f / level)) / (sign * derivative(sign * y))
        # a NaN step (on an atom) stops, and so does a repeated iterate: near
        # a tangency rounding noise in the step outlasts the bracket
        done, last[0] = ~(np.abs(step) > gap) | (y == last[0]), y
        inside = f > level
        return done, inside, y + step, inside

    y, inside = solve(lo, hi, 0.5 * (lo + hi), evaluate)
    lo, hi = np.where(inside, y, lo), np.where(inside, hi, y)
    for _ in range(ENDPOINT_STEPS):
        mid = 0.5 * (lo + hi)
        mid = np.where(inside, np.minimum(lo + gap, mid), np.maximum(hi - gap, mid))
        run = np.flatnonzero((mid != lo) & (mid != hi))
        if len(run) == 0:
            break
        hit = indicator(sign[run] * mid[run]) > level
        lo[run[hit]] = mid[run[hit]]
        hi[run[~hit]] = mid[run[~hit]]
        gap *= 2.0
    return sign * hi


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
