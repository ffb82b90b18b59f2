"""The shared boundary engine: Newton roots of v_t and r_t against plain
bisection references, the iteration cap, and support components that hold
no grid point."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freebrown import _boundary
from freebrown.additive import additive_profile, v_t_array
from freebrown.cli import main
from freebrown.errors import NumericalError
from freebrown.measures import SpectralMeasure, reflect_circle_measure
from freebrown.multiplicative import multiplicative_profile, r_t_array, total_mass

#: residual target of both solves, relative to 1/t
RESIDUAL = 1e-12
#: rounding of the engine's (numpy) sums against the exact fsum, relative
SLACK = 1e-14
#: agreement with the reference, relative, outside the residual window
AGREE = 1e-10


def atoms(lo, hi):
    return st.integers(1, 4).flatmap(
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
@given(atoms(-3.1, 3.1), st.floats(0.05, 3.0), st.integers(0, 2**32 - 1))
def test_r_newton_matches_bisection_reference(lw, t, seed):
    """As for v_t, in x = -log r: r < 1 exactly where f(1-, theta) > 1/t;
    there the fsum residual meets the target and x agrees to 1e-10 with a
    plain bisection of the residual window."""
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

        x_lo = _bisect(lambda x: excess(x, target * (1 + rho)), 0.0, 700.0)
        x_hi = _bisect(lambda x: excess(x, target * (1 - rho)), 0.0, 700.0)
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


def _dense(kind):
    rng = np.random.default_rng(5)
    w = rng.dirichlet(np.ones(200))
    if kind == "real":
        return SpectralMeasure.real_atomic(rng.uniform(-2, 2, 200), w)
    return SpectralMeasure.circle_atomic(rng.uniform(-np.pi, np.pi, 200), w)


# -- support components without grid points ----------------------------------------


def test_lost_component_is_seeded_by_its_atom(tmp_path, capsys):
    """200 atoms at t = 0.05 on the CLI's default grid: the component around
    the atom near 0.17534 holds no grid point, and without it the mass was
    0.999858."""
    rng = np.random.default_rng(1)
    w = rng.dirichlet(np.ones(200))
    x = rng.uniform(-3, 3, 200)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(
        {"kind": "real-atomic", "atoms": [{"x": float(a), "w": float(b)} for a, b in zip(x, w)]}
    ))
    out = tmp_path / "d.csv"
    assert main(["additive", "density", "--measure", str(path), "--t", "0.05",
                 "--out", str(out)]) == 0
    mass = float(capsys.readouterr().out.split("mass=")[1].split()[0])
    assert mass == pytest.approx(1.0, abs=1e-6)
    atom = x[np.argmin(np.abs(x - 0.17534))]
    intervals = json.loads((tmp_path / "d.csv.intervals.json").read_text())["intervals"]
    assert any(lo < atom < hi for lo, hi in intervals)


def test_lost_arcs_are_seeded_by_their_atoms():
    """The same on the circle at t = 0.02: three arcs hold no grid angle,
    and without them the mass was 0.99994."""
    mu = _dense("circle")
    prof = multiplicative_profile(mu, 0.02, 1441)
    for th in mu.locations:
        assert any(lo < th < hi for lo, hi in prof.u_components)
    assert total_mass(prof) == pytest.approx(1.0, abs=1e-6)
