"""The shared boundary engine: Newton roots of v_t and r_t against plain
bisection references, the iteration cap, and the exact support components,
which depend on the atoms and t but not on the grid."""

import math

import numpy as np
import pytest
from _oracle import k_fold_measure
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from freebrown import _boundary, additive, multiplicative
from freebrown.additive import additive_profile, v_t_array
from freebrown.cli import parse_grid
from freebrown.errors import NumericalError, ValidationError
from freebrown.measures import SpectralMeasure, reflect_circle_measure
from freebrown.multiplicative import multiplicative_profile, r_t_array

#: residual target of both solves, relative to 1/t
RESIDUAL = 1e-12
#: rounding of the engine's (numpy) sums against the exact fsum, relative
SLACK = 1e-14
#: agreement with the reference, relative, outside the residual window
AGREE = 1e-10


def atoms(lo, hi, k_max=4):
    return st.integers(1, k_max).flatmap(
        lambda k: st.tuples(
            st.lists(st.floats(lo, hi), min_size=k, max_size=k, unique=True),
            st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k),
        )
    )


def _weights(ws):
    return np.array(ws) / np.sum(ws)


def _bisect(excess, lo, hi):
    """Plain bisection of a decreasing ``excess`` on [lo, hi] until the
    bracket collapses to adjacent floats; the midpoint is never an end."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def _probe_points(edges, atom_points, rng, span):
    """Atoms, points 1e-9 to either side of each support edge, and random
    points of the span."""
    pts = list(atom_points) + list(rng.uniform(*span, 8))
    for e in edges:
        pts += [e - 1e-9, e + 1e-9]
    return np.array(pts)


# -- v_t -------------------------------------------------------------------------


def _sum_exact(mu, a, s):
    return math.fsum(w / ((a - x) ** 2 + s) for x, w in zip(mu.locations, mu.weights))


@settings(max_examples=40, deadline=None)
@given(atoms(-3, 3), st.floats(0.05, 3.0), st.integers(0, 2**32 - 1))
def test_v_newton_matches_bisection_reference(lw, t, seed):
    """Every point: v > 0 exactly where sum w/(a-x)^2 > 1/t; there the fsum
    residual meets the target, and s = v^2 agrees to 1e-10 with a plain
    bisection of the residual window |sum - 1/t| <= (1e-12 + slack)/t. That
    window is ~1e-12 s wide inside the strip and at atoms; within 1e-9 of an
    edge the target itself pins s only to the window."""
    mu = SpectralMeasure.real_atomic(lw[0], _weights(lw[1]))
    half = float(np.max(np.abs(mu.locations))) + 2.0 * np.sqrt(t)
    prof = additive_profile(mu, t, np.linspace(-half, half, 101))
    edges = [e for iv in prof.support_intervals for e in iv if abs(e) < half]
    pts = _probe_points(edges, mu.locations, np.random.default_rng(seed), (-half, half))
    target = 1.0 / t
    rho = RESIDUAL + SLACK
    for a, v in zip(pts, v_t_array(mu, t, pts)):
        d2 = (a - mu.locations) ** 2
        inside = np.any(d2 == 0.0) or _sum_exact(mu, a, 0.0) > target
        assert (v > 0.0) == inside
        if not inside:
            continue
        s = v * v
        assert abs(_sum_exact(mu, a, s) - target) <= rho * target
        s_lo = _bisect(lambda x: _sum_exact(mu, a, x) - target * (1 + rho), 0.0, t)
        s_hi = _bisect(lambda x: _sum_exact(mu, a, x) - target * (1 - rho), 0.0, t)
        assert s_lo * (1 - AGREE) <= s <= s_hi * (1 + AGREE)


# -- r_t -------------------------------------------------------------------------


def _f_exact(mu_bar, theta, r):
    g = (1.0 - r) * (1.0 + r) / (-2.0 * math.log(r))
    return g * math.fsum(
        w / ((1.0 - r) ** 2 + 4.0 * r * math.sin(0.5 * (theta + b)) ** 2)
        for b, w in zip(mu_bar.locations, mu_bar.weights)
    )


def _f_limit_exact(mu_bar, theta):
    terms = [
        (w, 4.0 * math.sin(0.5 * (theta + b)) ** 2)
        for b, w in zip(mu_bar.locations, mu_bar.weights)
    ]
    if any(q == 0.0 for _, q in terms):
        return math.inf
    return math.fsum(w / q for w, q in terms)


@settings(max_examples=40, deadline=None)
@given(atoms(-3.1, 3.1), st.floats(0.05, 3.0) | st.floats(250.0, 1000.0), st.integers(0, 2**32 - 1))
@example(lw=([0.0], [1.0]), t=745.0, seed=0)
@example(lw=([0.0], [1.0]), t=1412.0, seed=0)
def test_r_newton_matches_bisection_reference(lw, t, seed):
    """As for v_t, in x = -log r: r < 1 exactly where f(1-, theta) > 1/t;
    there the fsum residual meets the target and x agrees to 1e-10 with a
    plain bisection of the residual window over [0, x_hi], x_hi = t/4 +
    sqrt(t^2/16 + t). Large t (250 to 1000, and the examples up to the
    largest t the flow takes) puts the root near x = t/2, where
    w_j/(p + q4_j)^2 underflows past t ~ 700, p = (1 - r)^2/r."""
    mu = SpectralMeasure.circle_atomic(lw[0], _weights(lw[1]))
    mu_bar = reflect_circle_measure(mu)
    prof = multiplicative_profile(mu, t, 181)
    edges = [e for arc in prof.u_components for e in arc if abs(e) < np.pi]
    pts = _probe_points(edges, mu.locations, np.random.default_rng(seed), (-np.pi, np.pi))
    target = 1.0 / t
    rho = RESIDUAL + SLACK
    for th, r in zip(pts, r_t_array(mu_bar, t, pts)):
        inside = _f_limit_exact(mu_bar, th) > target
        assert (r < 1.0) == inside
        if not inside:
            continue
        assert abs(_f_exact(mu_bar, th, r) - target) <= rho * target
        # f increases in r, so it decreases in x = -log r
        def excess(x, level):
            return _f_exact(mu_bar, th, math.exp(-x)) - level

        top = 0.25 * t + math.sqrt(t * t / 16.0 + t)
        x_lo = _bisect(lambda x: excess(x, target * (1 + rho)), 0.0, top)
        x_hi = _bisect(lambda x: excess(x, target * (1 - rho)), 0.0, top)
        x = -math.log(r)
        assert x_lo * (1 - AGREE) <= x <= x_hi * (1 + AGREE)


# -- engine ----------------------------------------------------------------------

TWO = SpectralMeasure.real_atomic([-0.8, 0.8], [0.25, 0.75])
ASYM = SpectralMeasure.circle_atomic([2 * np.pi / 5, 3 * np.pi / 4], [1 / 3, 2 / 3])


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(_boundary, "MAX_ITER", 1)
    with pytest.raises(NumericalError):
        v_t_array(TWO, 1.0, np.linspace(-1.0, 1.0, 9))
    with pytest.raises(NumericalError):
        r_t_array(reflect_circle_measure(ASYM), 0.8, np.linspace(0.5, 2.0, 9))


def _points(f, bad):
    """``bad`` for a scalar function; for an array one, ``bad`` after a
    good point."""
    return np.array([0.0, bad]) if f.__name__.endswith("_array") else bad


ADDITIVE_ROWS = [
    additive.v_t,
    additive.v_t_array,
    additive.psi_t,
    additive.psi_t_array,
    additive.density_w,
    additive.density_w_array,
]
MULTIPLICATIVE_ROWS = [
    multiplicative.r_t,
    multiplicative.r_t_array,
    multiplicative.phi_of_theta,
    multiplicative.phi_of_theta_array,
    multiplicative.density_w_theta,
    multiplicative.mult_law_density,
]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("f", ADDITIVE_ROWS)
def test_additive_rejects_non_finite_points(f, bad):
    """A NaN point must not read as outside the strip (v = 0)."""
    with pytest.raises(ValidationError, match="finite"):
        f(TWO, 1.0, _points(f, bad))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("mu", [ASYM, SpectralMeasure.haar()], ids=["asym", "haar"])
@pytest.mark.parametrize("f", MULTIPLICATIVE_ROWS)
def test_multiplicative_rejects_non_finite_angles(f, mu, bad):
    """A NaN angle must not read as outside U_t (r = 1). ``mult_law_density``
    takes the measure itself, the others its reflection."""
    if f is not multiplicative.mult_law_density:
        mu = reflect_circle_measure(mu)
    with pytest.raises(ValidationError, match="finite"):
        f(mu, 0.8, _points(f, bad))


@pytest.mark.parametrize("f", ADDITIVE_ROWS + MULTIPLICATIVE_ROWS, ids=lambda f: f.__name__)
def test_wrong_support_names_the_function_called(f):
    """A measure on the wrong space is refused in the name of the public
    function called, not of the row pass or array function behind it."""
    mu = ASYM if f in ADDITIVE_ROWS else TWO
    with pytest.raises(ValidationError, match=rf"^{f.__name__} needs a "):
        f(mu, 0.8, _points(f, 0.5))


# -- exact support components ------------------------------------------------------


def _dense(seed, kind, lo, hi):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(200))
    return SpectralMeasure(kind, rng.uniform(lo, hi, 200), w)


def test_found_components_do_not_depend_on_the_grid():
    """200 atoms at t = 0.05: 39 components on the CLI's default grid and on
    a 101-point grid over the same range. Grid runs took two of them for
    one, across an outside gap that held no grid point, and gave 38."""
    mu, t = _dense(1, "real-atomic", -3, 3), 0.05
    grid = parse_grid(None, mu, t)
    prof = additive_profile(mu, t, grid)
    coarse = additive_profile(mu, t, np.linspace(grid[0], grid[-1], 101))
    assert len(prof.support_intervals) == 39
    assert coarse.support_intervals == prof.support_intervals
    assert abs(additive.total_mass(prof) - 1.0) <= 1e-9


def test_lost_arcs_do_not_depend_on_the_grid():
    """The same on the circle at t = 0.02: 75 arcs at 1441 and at 181 grid
    angles, where grid runs found 73."""
    mu = _dense(5, "circle-atomic", -np.pi, np.pi)
    prof = multiplicative_profile(mu, 0.02, 1441)
    assert len(prof.u_components) == 75
    assert multiplicative_profile(mu, 0.02, 181).u_components == prof.u_components
    assert abs(multiplicative.total_mass(prof) - 1.0) <= 1e-9


def _ends_change_sign(intervals, indicator, level, skip):
    """Each end e off ``skip`` has indicator(e) <= level < indicator(next
    float inward), up to the rounding of the engine's sums."""
    for lo, hi in intervals:
        assert lo < hi
        for end, inward in ((lo, hi), (hi, lo)):
            if end in skip:
                continue
            assert indicator(end) <= level * (1 + SLACK)
            assert indicator(np.nextafter(end, inward)) > level * (1 - SLACK)


@settings(max_examples=40, deadline=None)
@given(atoms(-3, 3, 6), st.floats(0.02, 3.0))
def test_additive_components_from_atoms(lw, t):
    """At most K components, each end a sign change of the fsum indicator,
    the same on a fine and a coarse grid."""
    mu = SpectralMeasure.real_atomic(lw[0], _weights(lw[1]))
    half = float(np.max(np.abs(mu.locations))) + 2.0 * np.sqrt(t)
    prof = additive_profile(mu, t, np.linspace(-half, half, 401))
    intervals = prof.support_intervals
    assert 1 <= len(intervals) <= len(mu.locations)
    assert all(a[1] <= b[0] for a, b in zip(intervals, intervals[1:]))
    _ends_change_sign(intervals, lambda a: _sum_exact(mu, a, 0.0), 1.0 / t, (-half, half))
    assert additive_profile(mu, t, np.linspace(-half, half, 37)).support_intervals == intervals


@settings(max_examples=40, deadline=None)
@given(atoms(-3.1, 3.1, 6), st.floats(0.02, 3.0))
def test_multiplicative_components_from_atoms(lw, t):
    """At most K + 1 arcs (a component crossing the cut counts twice), each
    end off the cut a sign change of the fsum indicator, the same at two
    grid sizes."""
    mu = SpectralMeasure.circle_atomic(lw[0], _weights(lw[1]))
    mu_bar = reflect_circle_measure(mu)
    arcs = multiplicative_profile(mu, t, 181).u_components
    assert 1 <= len(arcs) <= len(mu.locations) + 1
    assert all(a[1] <= b[0] for a, b in zip(arcs, arcs[1:]))
    _ends_change_sign(arcs, lambda th: _f_limit_exact(mu_bar, th), 1.0 / t, (-np.pi, np.pi))
    assert multiplicative_profile(mu, t, 64).u_components == arcs


def _first_outside(intervals, predicate, skip=()):
    """Each end e off ``skip`` is the first float outside next to a sign
    change of the engine's float ``predicate``: false at e, true at the
    next float inward."""
    ends = [(e, inward) for lo, hi in intervals for e, inward in ((lo, hi), (hi, lo))]
    ends = np.array([(e, np.nextafter(e, inward)) for e, inward in ends if e not in skip])
    if len(ends):
        assert not predicate(ends[:, 0]).any()
        assert predicate(ends[:, 1]).all()


def _k_fold_atoms(k):
    return k_fold_measure(k).locations.tolist(), [1.0] * k


@settings(max_examples=40, deadline=None)
@given(atoms(-3, 3, 6), atoms(-3.1, 3.1, 6), st.floats(0.02, 3.0))
@example(([-1.0, 1.0], [1.0, 1.0]), _k_fold_atoms(200), 0.01)
@example(([-1.0, 1.0], [1.0, 1.0]), _k_fold_atoms(64), 0.02)
@example(([-1.0, 1.0], [1.0, 1.0]), _k_fold_atoms(7), 0.3)
def test_ends_are_the_first_float_outside(line, circle, t):
    """Newton brings each end within a few ulps; the probes and bisection
    after it must still end on the first float outside, exactly. The
    examples include K-fold circle measures at Kt < 4, whose K arcs have
    closed-form ends (``test_oracle.py::test_k_fold_arc_ends``)."""
    level = 1.0 / t
    mu = SpectralMeasure.real_atomic(line[0], _weights(line[1]))
    intervals = np.transpose(additive._components(mu, t))
    _first_outside(intervals, lambda a: additive._sum_inv_sq(mu, a) > level)
    mu = SpectralMeasure.circle_atomic(circle[0], _weights(circle[1]))
    mu_bar = reflect_circle_measure(mu)
    arcs = multiplicative._u_components(mu, t)
    in_u = lambda th: multiplicative.f_limit_at_circle(mu_bar, th) > level  # noqa: E731
    _first_outside(arcs, in_u, (-np.pi, np.pi))


# -- the small-angle limit ------------------------------------------------------------


def _limit_errors(mu, t, a, eps):
    """Largest gaps between the additive rows (at ``a``) and components of
    ``mu`` at t and the multiplicative ones of u = e^{i eps x_0}, same
    weights, at eps^2 t, scaled: -log r/eps against v, phi/eps against psi,
    eps^2 w against w, arc ends/eps against interval ends."""
    lo, hi = additive._components(mu, t)
    v, w, psi = additive._rows(mu, t, a)
    circle = SpectralMeasure.circle_atomic(eps * mu.locations, mu.weights)
    r, phi, w_mult, _ = multiplicative._rows(reflect_circle_measure(circle), eps**2 * t, eps * a)
    arcs = np.transpose(multiplicative._u_components(circle, eps**2 * t)) / eps
    return np.array([
        np.max(np.abs(-np.log(r) / eps - v)),
        np.max(np.abs(phi / eps - psi)),
        np.max(np.abs(eps**2 * w_mult - w)),
        np.max(np.abs(arcs - (lo, hi))),
    ])


@settings(max_examples=30, deadline=None)
@given(atoms(-1, 1), st.floats(0.05, 2.0))
@example(([-0.8, 0.1, 0.7], [0.3, 0.3, 0.4]), 0.5)
def test_small_angle_limit_is_the_additive_flow(lw, t):
    """Near the identity the multiplicative flow is the additive one: with
    u_j = eps (a - x_j) and r = e^{-eps v}, f(r, eps a) = 1/(eps^2 t) tends
    to sum_j w_j/((a - x_j)^2 + v^2) = 1/t. Each scaled row and arc end
    misses the additive one by O(eps^2), so every error falls 100-fold from
    eps = 0.1 to 0.01 and again to 0.001 (within 1% on 300 random measures
    of this strategy). The two solves share no variable: s = v^2 on the
    line, u = log(1 + p/4) on the circle.

    The points sit at a quarter, half and three quarters of each interval
    and 0.3 outside the outer ends, clear of the ends, where v has an
    infinite slope. Two cases leave the O(eps^2) law and are set aside: atoms
    within 1e-6 of each other (within 1e-9 they merge on the circle at
    eps = 0.001, ``measures.DEDUP_TOL``), and a tangency, such as atoms 0
    and 1 of weight 1/2 at t = 1/4, where v = 0 inside an interval and moves
    by O(eps)."""
    mu = SpectralMeasure.real_atomic(lw[0], _weights(lw[1]))
    assume(np.all(np.diff(mu.locations) > 1e-6))
    lo, hi = additive._components(mu, t)
    a = np.append(np.outer(hi - lo, [0.25, 0.5, 0.75]) + lo[:, None], [lo[0] - 0.3, hi[-1] + 0.3])
    assume(np.all(v_t_array(mu, t, a[:-2]) > 0.1 * np.sqrt(t)))
    e1, e2, e3 = (_limit_errors(mu, t, a, eps) for eps in (0.1, 0.01, 0.001))
    assert np.all(np.abs(e1 / e2 - 100.0) < 5.0)
    assert np.all(np.abs(e2 / e3 - 100.0) < 5.0)


# -- blocks ------------------------------------------------------------------------

LINE = {
    1: (SpectralMeasure.real_atomic([0.0], [1.0]), 1.0),
    3: (SpectralMeasure.real_atomic([-1.0, 0.3, 1.5], [0.2, 0.5, 0.3]), 0.5),
    200: (_dense(1, "real-atomic", -3, 3), 0.05),
}
CIRCLE = {
    1: (SpectralMeasure.circle_atomic([0.7], [1.0]), 1.0),
    3: (SpectralMeasure.circle_atomic([-2.5, 0.4, 2.0], [0.2, 0.5, 0.3]), 0.5),
    200: (_dense(1, "circle-atomic", -np.pi, np.pi), 0.02),
}


def _in_chunks(f, mu, t, pts, size=7):
    return np.concatenate([f(mu, t, pts[i : i + size]) for i in range(0, len(pts), size)])


@pytest.mark.parametrize("k", sorted(LINE))
@pytest.mark.parametrize(
    "f", [additive.v_t_array, additive.density_w_array, additive.psi_t_array]
)
def test_additive_rows_do_not_depend_on_blocks(k, f):
    """Every row depends on its own point alone: one call on the whole
    grid and calls on 7-point chunks give the same floats."""
    mu, t = LINE[k]
    grid = np.linspace(-4.0, 4.0, 801)
    assert np.array_equal(f(mu, t, grid), _in_chunks(f, mu, t, grid))


@pytest.mark.parametrize("k", sorted(CIRCLE))
@pytest.mark.parametrize("f", [multiplicative.r_t_array, multiplicative.phi_of_theta_array])
def test_multiplicative_rows_do_not_depend_on_blocks(k, f):
    mu, t = CIRCLE[k]
    mu_bar = reflect_circle_measure(mu)
    thetas = np.linspace(-np.pi, np.pi, 1441)
    assert np.array_equal(f(mu_bar, t, thetas), _in_chunks(f, mu_bar, t, thetas))


@pytest.mark.parametrize("k, calls", [(3, 1), (200, 12)])
def test_blocks_hold_a_fixed_number_of_table_entries(monkeypatch, k, calls):
    """1441 angles against 3 atoms fit one block; against 200 atoms a block
    holds 128 angles, so they take ceil(1441 / 128) = 12 solves."""
    seen = []

    def counting(*args):
        seen.append(args)
        return _boundary.solve(*args)

    monkeypatch.setattr(multiplicative, "solve", counting)
    mu, t = CIRCLE[k]
    r_t_array(reflect_circle_measure(mu), t, np.linspace(-np.pi, np.pi, 1441))
    assert len(seen) == calls


# -- Newton evaluations --------------------------------------------------------------


def _clustered(seed, kind="circle-atomic", lo=-np.pi, hi=np.pi, clusters=8, atoms=200):
    """Jittered lattices of atoms, 0.08 either side of ``clusters`` centres
    spread evenly over (lo, hi) (on the circle away from the cut at +-pi),
    with Dirichlet(50) weights."""
    half_width = 0.08
    rng = np.random.default_rng(seed)
    per = atoms // clusters
    spacing = 2.0 * half_width / per
    locs = [
        c - half_width + spacing * (np.arange(per) + 0.5 + rng.uniform(-0.3, 0.3, per))
        for c in lo + (hi - lo) * (np.arange(clusters) + 0.5) / clusters
    ]
    return SpectralMeasure(kind, np.concatenate(locs), rng.dirichlet(np.full(atoms, 50.0)))


def _counting(monkeypatch, flow):
    """Count the evaluations of each ``flow.solve`` call and every call of
    the Stieltjes kernel ``flow.stieltjes``; returns (evaluations per solve,
    table passes)."""
    per_solve, passes = [], [0]
    tables = flow.stieltjes

    def counting_tables(*args):
        passes[0] += 1
        return tables(*args)

    def counting_solve(lo, hi, x, evaluate):
        per_solve.append(0)

        def counted(y):
            per_solve[-1] += 1
            return evaluate(y)

        return _boundary.solve(lo, hi, x, counted)

    monkeypatch.setattr(flow, "stieltjes", counting_tables)
    monkeypatch.setattr(flow, "solve", counting_solve)
    return per_solve, passes


def test_r_newton_evaluations(monkeypatch):
    """Newton in u = log(1 + p/4) from u_0 = log(1 + p_0/4) on a clustered
    200-atom measure at t = 0.25: every block of a 1441-angle grid, and every
    node set of the mass quadrature (which crowd the arc ends, where f is
    flat in x = -log r), converges within 6 evaluations. Newton in x from
    the Haar root t/2 took up to 10 on the grid and 21 on the nodes. The
    rows read the last evaluation's tables: no table pass follows the solve."""
    mu = _clustered(1)
    prof = multiplicative_profile(mu, 0.25, 1440)
    per_solve, passes = _counting(monkeypatch, multiplicative)
    r_t_array(reflect_circle_measure(mu), 0.25, np.linspace(-np.pi, np.pi, 1441))
    assert len(per_solve) == 12 and max(per_solve) <= 6
    assert passes[0] == sum(per_solve)
    del per_solve[:]
    passes[0] = 0
    assert abs(multiplicative.total_mass(prof) - 1.0) <= 1e-9
    assert max(per_solve) <= 6 and passes[0] == sum(per_solve)


def test_additive_rows_read_the_last_evaluation(monkeypatch):
    """On the line too, the rows take no table pass after the solve."""
    mu, t = LINE[200]
    per_solve, passes = _counting(monkeypatch, additive)
    v_t_array(mu, t, np.linspace(-4.0, 4.0, 801))
    assert len(per_solve) == 7 and passes[0] == sum(per_solve)


@pytest.mark.parametrize(
    "flow, indicator, mu, t, components",
    [
        (additive, "_sum_inv_sq", _clustered(1, "real-atomic", -3.0, 3.0), 0.1, 8),
        (multiplicative, "f_limit_at_circle", _clustered(1), 0.25, 8),
        (multiplicative, "f_limit_at_circle", k_fold_measure(200), 0.01, 200),
    ],
    ids=["line", "circle", "k-fold"],
)
def test_components_take_few_indicator_calls(monkeypatch, flow, indicator, mu, t, components):
    """One support components call on a clustered 200-atom measure (8
    clusters on [-3, 3] or around the circle) evaluates the indicator at
    most 20 times: 12 and 11 here, where bisection alone took 54 and 55.
    On the 200-fold measure at Kt = 2, whose 200 arcs have closed-form ends,
    it takes 11."""
    calls, orig = [0], getattr(flow, indicator)

    def counting(*args):
        calls[0] += 1
        return orig(*args)

    monkeypatch.setattr(flow, indicator, counting)
    if flow is additive:
        assert len(np.transpose(additive._components(mu, t))) == components
    else:
        assert len(multiplicative._u_components(mu, t)) == components
    assert calls[0] <= 20
