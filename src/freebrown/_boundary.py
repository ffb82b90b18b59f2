"""Machinery shared by the boundary solves of both flows, v_t(a) for
x0 + c_t and r_t(theta) for u b_t: a blocked, safeguarded Newton root
engine, the support components of a grid and the time check.
"""

from __future__ import annotations

import numpy as np

from .errors import NonpositiveTime, NumericalError

#: points per block: keeps the (points x atoms) work arrays cache-sized
BLOCK = 128
#: Newton/bisection iterations per point before NumericalError
MAX_ITER = 100
#: endpoint bisection cap; a grid cell collapses to adjacent floats in ~50
ENDPOINT_STEPS = 200


def check_time(t):
    if not t > 0:
        raise NonpositiveTime(f"t must be > 0, got {t}")


def solve_blocked(n, block_problem):
    """Roots of ``n`` independent monotone equations, BLOCK at a time.

    ``block_problem(sl)`` sets up the points of the slice ``sl`` and returns
    ``(lo, hi, x, evaluate)``: brackets holding the roots, first iterates
    inside them, and ``evaluate(x) -> (done, below, newton)``, which says
    whether x meets the residual target, whether the root lies above x, and
    gives the Newton candidate from x. Frozen points stay in the block: the
    evaluations wasted on them cost less than compacting its arrays.
    """
    out = np.empty(n)
    for start in range(0, n, BLOCK):
        sl = slice(start, start + BLOCK)
        out[sl] = _solve_block(*block_problem(sl))
    return out


def _solve_block(lo, hi, x, evaluate):
    root = np.empty_like(x)
    frozen = np.zeros(x.shape, dtype=bool)
    for _ in range(MAX_ITER):
        done, below, newton = evaluate(x)
        hit = done & ~frozen
        root[hit] = x[hit]
        frozen |= hit
        if np.all(frozen):
            return root
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


def support_intervals(grid, inside, is_inside, atoms):
    """Support components on an increasing grid, as sorted (lo, hi) pairs.

    Each maximal run of ``inside`` grid points gives one interval whose ends
    are refined against the neighbouring outside points; a run touching the
    grid edge keeps the edge, since the support may go on past it. An atom
    in the open grid range outside every interval lies in a component that
    holds no grid point: it is bracketed by the nearest outside grid point
    or refined end on each side and refined the same way. Two such atoms in
    one grid cell may give overlapping brackets; those intervals are merged
    (the boundary is trivial on any gap between them).
    """
    n = len(grid)
    change = np.diff(np.concatenate(([0], inside.astype(np.int8), [0])))
    starts = np.flatnonzero(change == 1)
    ends = np.flatnonzero(change == -1) - 1
    left, right = starts[starts > 0], ends[ends < n - 1]
    edges = refine_endpoints(
        is_inside,
        np.concatenate((grid[left], grid[right])),
        np.concatenate((grid[left - 1], grid[right + 1])),
    )
    lo, hi = grid[starts], grid[ends]
    lo[starts > 0] = edges[: len(left)]
    hi[ends < n - 1] = edges[len(left):]

    atoms = atoms[(atoms > grid[0]) & (atoms < grid[-1])]
    lost = atoms[~np.any((atoms[:, None] >= lo) & (atoms[:, None] <= hi), axis=1)]
    if len(lost):
        outside = np.sort(np.concatenate((grid[~inside], edges)))
        j = np.searchsorted(outside, lost)  # in 1..len-1: runs cover the rest
        seeded = refine_endpoints(
            is_inside, np.concatenate((lost, lost)),
            np.concatenate((outside[j - 1], outside[j])),
        )
        lo = np.concatenate((lo, seeded[: len(lost)]))
        hi = np.concatenate((hi, seeded[len(lost):]))

    merged = []
    for a, b in sorted(zip(lo.tolist(), hi.tolist())):
        if merged and a < merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple(map(tuple, merged))
