"""Independent checks of a job's outputs.

Nothing here compares against a stored copy of earlier output. Each check
re-evaluates a defining identity from the measure the benchmark generated:

* the implicit equations of ``v_t`` and ``r_t`` at every CSV row, summed
  with ``math.fsum``, to the documented 1e-12 relative plus rounding slack;
* the support sidecars: each endpoint brackets a sign change of the exactly
  computable indicator, and the rows inside agree with the intervals;
* mass 1 from the summary line, and the benchmark's own trapezoid of the
  planar mass on the CSV grid agreeing with it within the rule's end-cell
  error bound;
* ``|Phi(r_t e^{i theta})| = 1`` and ``arg Phi = phi``, with Phi coded here;
* ``additive law`` rows against ``mu ⊞ sigma_t``, from ``omega = z - t G(omega)``
  solved by complex Newton here;
* the closed forms for delta_0 (circular law, semicircle) and Haar (annulus);
* ``w = psi'/(2 pi t)`` and ``w_theta = phi'/(2 pi t)`` by central
  differences of freebrown's own scalar maps;
* KS distances of finite-n eigenvalues against closed-form limits, under a
  bound set by n, and ``compare`` distances under the 0.08 acceptance gate.
"""

from __future__ import annotations

import cmath
import json
import math
import re

import numpy as np

from workloads import FD_STEP, SWEEP_STENCIL, atoms_of

RES_REL = 1e-12  # documented residual target of the v_t and r_t solves
RES_SLACK = 1e-13  # rounding of an fsum re-evaluation of the same identity
MASS_TOL = 1e-6  # documented mass target
MASS_GRID_SLACK = 1.5  # end-cell bound of the grid trapezoid, plus interior error
FD_TOL = 1e-6  # central differences, relative to the density bound
PHI_TOL = 1e-10  # |Phi| - 1 and arg Phi - phi
LAW_TOL = 1e-9  # additive law density against the Newton solution
LAW_R_TOL = 1e-11  # r_t equation at r = exp(-pi t p) rebuilt from a law density
BRACKET = 1e-9  # relative offset at which an endpoint's sign change is tested
KS_C = 1.0  # KS distance bound is KS_C / sqrt(n)
COMPARE_GATE = 0.08  # distance gate of the acceptance suite

#: worst error over tolerance per check in this process (printed by the run)
MARGINS = {}


def check_workload(wl, results):
    """All checks of one job's results; returns a list of problems."""
    problems = []
    for label, exp in wl.expect.items():
        try:
            found = CHECKS[exp["check"]](wl, label, exp, results)
        except Exception as exc:  # noqa: BLE001 - an unreadable output fails its check
            found = [f"{type(exc).__name__}: {exc}"]
        problems += [f"{label}: {p}" for p in found]
    return problems


# -- helpers ---------------------------------------------------------------------


def _cli(results, label):
    value = results[label]
    if isinstance(value, Exception):
        raise value
    code, out = value
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return out


def _read_csv(path, header):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != header:
        raise ValueError(f"header {lines[0]!r}, expected {header!r}")
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def _summary(out, key):
    m = re.search(rf"{key}=([-+0-9.eEinfa]+)", out)
    if m is None:
        raise ValueError(f"no {key}= in summary {out.strip()!r}")
    return float(m.group(1))


def _exceed(name, errors, tol):
    """A problem if any error is above tol; the worst error over tol is kept
    in ``MARGINS`` so that a run can show how close the checks came."""
    errors = np.atleast_1d(np.asarray(errors, dtype=float))
    worst = float(np.max(errors)) if errors.size else 0.0
    MARGINS[name] = max(MARGINS.get(name, 0.0), worst / tol)
    bad = int(np.sum(~(errors <= tol)))
    return [f"{name}: {bad} of {errors.size} above {tol:.1e}, worst {worst:.3e}"] if bad else []


def _five_point(values):
    """Central-difference derivative from f at x + s FD_STEP, s in SWEEP_STENCIL."""
    fm2, fm1, fp1, fp2 = values
    return (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * FD_STEP)


def _wrap(x):
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def _grid_mass(xs, f, intervals, edges):
    """Rectangle sum of f on the uniform grid (f is zero outside the support,
    so this is the trapezoid rule), and its error bound: the cell that
    straddles an endpoint holds between 0 and h f_p of mass, f_p the value at
    its inner grid point, where the rule counts h f_p / 2."""
    h = xs[1] - xs[0]
    bound = 0.0
    for lo, hi in intervals:
        for end, side in ((lo, 1), (hi, -1)):
            inner = np.nonzero((xs > end) if side > 0 else (xs < end))[0]
            if end in edges or not len(inner):
                continue
            bound += 0.5 * h * f[inner[0] if side > 0 else inner[-1]]
    return h * math.fsum(f), bound


def _grid_mass_agrees(xs, f, intervals, edges, mass):
    grid_mass, bound = _grid_mass(xs, f, intervals, edges)
    return _exceed("grid trapezoid mass - summary mass, over its bound",
                   abs(grid_mass - mass) / (bound + 1e-6), MASS_GRID_SLACK)


def _brackets(intervals, g, edges):
    """Endpoints not on a grid edge must sit on a sign change of g."""
    problems = []
    for lo, hi in intervals:
        if not lo < hi:
            problems.append(f"empty interval [{lo}, {hi}]")
        for end, side in ((lo, 1), (hi, -1)):
            if end in edges:
                continue
            d = BRACKET * max(1.0, abs(end))
            if not g(end - side * d) < 0.0 < g(end + side * d):
                problems.append(f"endpoint {end!r} does not bracket a sign change")
    for (_, hi), (lo, _) in zip(intervals, intervals[1:]):
        if not hi <= lo:
            problems.append("intervals overlap or are unsorted")
    return problems


def _membership(xs, inside, intervals, edges):
    """Rows inside the support lie in an interval: open at a refined endpoint
    (v vanishes there), closed at a grid edge or the cut."""
    member = np.zeros(len(xs), dtype=bool)
    for lo, hi in intervals:
        member |= ((xs > lo) | ((xs == lo) & (lo in edges))) & ((xs < hi) | ((xs == hi) & (hi in edges)))
    bad = int(np.sum(member != inside))
    return [f"{bad} rows disagree with the sidecar intervals"] if bad else []


# -- additive --------------------------------------------------------------------


def _add_sums(x, w, a, v):
    """fsum of w/((a-x)^2+v^2) and of w(a-x)/((a-x)^2+v^2) (and |.|)."""
    d = a - x
    den = d * d + v * v
    return math.fsum(w / den), math.fsum(w * d / den), math.fsum(np.abs(w * d / den))


def additive_density(wl, label, exp, results):
    out = _cli(results, label)
    doc = wl.measures[exp["measure"]][1]
    x, w = map(np.array, atoms_of(doc))
    t = exp["t"]
    a, v, wd, psi = _read_csv(exp["out"], "a,v,w,psi").T
    problems = []
    inside = v > 0.0
    res, psi_err = [], []
    for i in range(len(a)):
        if inside[i]:
            s, sp, sa = _add_sums(x, w, a[i], v[i])
            res.append(abs(s * t - 1.0))
            psi_err.append(abs(psi[i] - (a[i] + t * sp)) / (1.0 + abs(a[i]) + t * sa))
        else:
            d = a[i] - x
            res.append(math.fsum(w / (d * d)) * t - 1.0)
    problems += _exceed("v_t residual", res, RES_REL + RES_SLACK)
    problems += _exceed("psi_t formula", psi_err, 1e-12)
    bound = 2.0 / (math.pi * t)
    if np.any(wd[~inside] != 0.0) or np.any(wd[inside] <= 0.0) or np.any(wd > bound):
        problems.append("w outside (0, 2/(pi t)] inside the support or nonzero outside")

    with open(exp["out"] + ".intervals.json", encoding="utf-8") as fh:
        side = json.load(fh)
    intervals = [tuple(iv) for iv in side["intervals"]]
    edges = (a[0], a[-1])

    def indicator(y):
        d = y - x
        return math.fsum(w / (d * d)) - 1.0 / t

    problems += _brackets(intervals, indicator, edges)
    problems += _membership(a, inside, intervals, edges)

    mass = _summary(out, "mass")
    problems += _exceed("summary mass - 1", abs(mass - 1.0), MASS_TOL)
    problems += _grid_mass_agrees(a, 2.0 * v * wd, intervals, edges, mass)

    problems += _psi_central_differences(wl, exp, a, wd, inside, intervals)
    if exp["measure"] == "delta0":
        problems += _circular_law(a, v, wd, psi, intervals, t)
    return problems


def _psi_central_differences(wl, exp, a, wd, inside, intervals, samples=12):
    """w = psi'/(2 pi t) at rows three grid steps or more from any endpoint."""
    from freebrown import additive
    from freebrown.measures import load_measure

    mu = load_measure(wl.measures[exp["measure"]][0])
    t = exp["t"]
    ends = np.array([e for iv in intervals for e in iv])
    far = inside & (np.min(np.abs(a[:, None] - ends[None, :]), axis=1) > 3.0 * (a[1] - a[0]))
    idx = np.nonzero(far)[0]
    idx = idx[np.linspace(0, len(idx) - 1, min(samples, len(idx))).astype(int)]
    if not len(idx):
        return ["no rows far enough from the support edge for central differences"]
    errs = []
    for i in idx:
        cd = _five_point([additive.psi_t(mu, t, a[i] + s * FD_STEP) for s in SWEEP_STENCIL])
        errs.append(abs(cd / (2.0 * math.pi * t) - wd[i]) / (2.0 / (math.pi * t)))
    return _exceed("w vs psi'/(2 pi t)", errs, FD_TOL)


def _circular_law(a, v, wd, psi, intervals, t):
    """delta_0: v^2 + a^2 = t on (-sqrt t, sqrt t), w = 1/(pi t), psi = 2a."""
    problems = []
    r = math.sqrt(t)
    inside = v > 0.0
    if np.any(inside != (np.abs(a) < r)):
        problems.append("support is not (-sqrt t, sqrt t)")
    problems += _exceed("circular law v^2 + a^2 = t", np.abs(v[inside] ** 2 + a[inside] ** 2 - t) / t, 2e-12)
    problems += _exceed("circular law w = 1/(pi t)", np.abs(wd[inside] * math.pi * t - 1.0), 1e-12)
    problems += _exceed("circular law psi = 2a",
                        np.abs(psi[inside] - 2.0 * a[inside]) / (1.0 + np.abs(a[inside])), 1e-11)
    if len(intervals) != 1 or max(abs(intervals[0][0] + r), abs(intervals[0][1] - r)) > 1e-12:
        problems.append(f"intervals {intervals} are not [-sqrt t, sqrt t]")
    return problems


def _subordination(x, w, t, y):
    """omega with omega + t G_mu(omega) = y, Im omega > 0, for real y: Newton
    along z = y + i eta with eta falling from above the support to 0."""
    scale = 1.0 + float(np.max(np.abs(x))) + math.sqrt(t)
    omega = y + 2j * scale
    for eta in list(2.0 * scale * 0.5 ** np.arange(60)) + [0.0] * 5:
        z = y + 1j * eta
        for _ in range(8):
            d = omega[:, None] - x[None, :]
            f = omega + t * (w / d).sum(axis=1) - z
            df = 1.0 - t * (w / (d * d)).sum(axis=1)
            step = f / df
            new = omega - step
            for _ in range(60):  # stay in the upper half plane
                low = new.imag <= 0.0
                if not np.any(low):
                    break
                step[low] *= 0.5
                new = omega - step
            omega = new
    return omega


def additive_law(wl, label, exp, results):
    _cli(results, label)
    doc = wl.measures[exp["measure"]][1]
    x, w = map(np.array, atoms_of(doc))
    t = exp["t"]
    _, y, p = _read_csv(exp["out"], "a,y,p").T
    omega = _subordination(x, w, t, y)
    p_ref = -(w / (omega[:, None] - x[None, :])).sum(axis=1).imag / math.pi
    if not len(p):
        return ["no law rows"]
    problems = _exceed("law density vs mu ⊞ sigma_t", np.abs(p - p_ref), LAW_TOL)
    if exp["measure"] == "delta0":
        semi = np.sqrt(np.maximum(4.0 * t - y * y, 0.0)) / (2.0 * math.pi * t)
        problems += _exceed("semicircle law", np.abs(p - semi), LAW_TOL)
    return problems


def _sweep_values(results, label, key):
    """Results of one sweep point by op suffix; a failed call fails the check."""
    vals = {}
    for name, value in results.items():
        if name.startswith(label + "_"):
            if isinstance(value, Exception):
                raise value
            vals[name[len(label) + 1:]] = value
    if not {f"{key}{s:+d}" for s in SWEEP_STENCIL} <= set(vals):
        raise KeyError(f"sweep point lacks the {key} stencil")
    return vals


def additive_sweep(wl, label, exp, results):
    doc = wl.measures[exp["measure"]][1]
    x, w = map(np.array, atoms_of(doc))
    t, a = exp["t"], exp["a"]
    vals = _sweep_values(results, label, "psi")
    v = vals["v"]
    if not v > 0.0:
        return [f"v_t({a}) = {v}, expected a point inside the support"]
    s, sp, sa = _add_sums(x, w, a, v)
    cd = _five_point([vals[f"psi{s:+d}"] for s in SWEEP_STENCIL])
    return (
        _exceed("scalar v_t residual", abs(s * t - 1.0), RES_REL + RES_SLACK)
        + _exceed("scalar psi_t formula", abs(vals["psi"] - (a + t * sp)) / (abs(a) + t * sa), 1e-12)
        + _exceed("density_w vs psi'/(2 pi t)",
                  abs(cd / (2.0 * math.pi * t) - vals["w"]) / (2.0 / (math.pi * t)), FD_TOL)
    )


# -- multiplicative --------------------------------------------------------------


def _f_value(alpha, w, r, theta):
    """f(r, theta) of the unitary's own atoms alpha (kernel at theta - alpha)."""
    s = np.sin(0.5 * (theta - alpha))
    return (1.0 - r) * (1.0 + r) / (-2.0 * math.log(r)) * math.fsum(w / ((1.0 - r) ** 2 + 4.0 * r * s * s))


def _f_circle(alpha, w, theta):
    s = np.sin(0.5 * (theta - alpha))
    return math.fsum(w / (4.0 * s * s))


def _big_phi(alpha, w, t, z):
    """Phi(z) = z exp((t/2) int (1 + xi z)/(1 - xi z) dmu_bar(xi)); Haar: z e^{t/2}."""
    if not len(alpha):
        return z * cmath.exp(0.5 * t)
    q = [(1.0 + cmath.exp(-1j * al) * z) / (1.0 - cmath.exp(-1j * al) * z) for al in alpha]
    s = complex(math.fsum(wi * qi.real for wi, qi in zip(w, q)),
                math.fsum(wi * qi.imag for wi, qi in zip(w, q)))
    return z * cmath.exp(0.5 * t * s)


def _boundary_errors(alpha, w, t, r, theta, phi, tol_res=RES_REL + RES_SLACK):
    """Problems of the rows (r, theta, phi) as points of the boundary
    r = r_t(theta): the r_t equation, |Phi| = 1 and arg Phi = phi."""
    res, modulus, arg = [], [], []
    for ri, th, ph in zip(r, theta, phi):
        if len(alpha):
            res.append(abs(_f_value(alpha, w, ri, th) * t - 1.0))
        big = _big_phi(alpha, w, t, ri * cmath.exp(1j * th))
        modulus.append(abs(abs(big) - 1.0))
        arg.append(abs(_wrap(cmath.phase(big) - ph)))
    return (
        _exceed("r_t residual", res, tol_res)
        + _exceed("|Phi(r_t e^{i theta})| - 1", modulus, PHI_TOL)
        + _exceed("arg Phi - phi", arg, PHI_TOL)
    )


def mult_density(wl, label, exp, results):
    out = _cli(results, label)
    doc = wl.measures[exp["measure"]][1]
    alpha, w = map(np.array, atoms_of(doc))
    t = exp["t"]
    th, r, phi, wd, ad = _read_csv(exp["out"], "theta,r,phi,w,arg_density").T
    hit = r < 1.0
    problems = _boundary_errors(alpha, w, t, r[hit], th[hit], phi[hit])
    problems += _exceed("arg_density = -2 log(r) w",
                        np.abs(ad[hit] / (-2.0 * np.log(r[hit]) * wd[hit]) - 1.0), 1e-13)
    if len(alpha):
        problems += _exceed("f(1-, theta) <= 1/t outside U_t",
                            [_f_circle(alpha, w, y) * t - 1.0 for y in th[~hit]], RES_SLACK)
    bound = 1.0 / (math.pi * t)
    if np.any(wd[~hit] != 0.0) or np.any(ad[~hit] != 0.0) or np.any(wd[hit] <= 0.0) or np.any(wd > bound):
        problems.append("w outside (0, 1/(pi t)] on U_t or nonzero outside")

    with open(exp["out"] + ".arcs.json", encoding="utf-8") as fh:
        arcs = [tuple(arc) for arc in json.load(fh)["arcs"]]
    cut = (-math.pi, math.pi)
    if len(alpha):
        problems += _brackets(arcs, lambda y: _f_circle(alpha, w, y) - 1.0 / t, cut)
    problems += _membership(th, hit, arcs, cut)

    mass = _summary(out, "mass")
    problems += _exceed("summary mass - 1", abs(mass - 1.0), MASS_TOL)
    problems += _grid_mass_agrees(th, ad, arcs, cut, mass)

    if len(alpha):
        problems += _phi_central_differences(wl, exp, th, wd, hit, arcs)
    else:
        problems += _annulus(th, r, phi, wd, arcs, t)
    return problems


def _phi_central_differences(wl, exp, th, wd, hit, arcs, samples=12):
    """w_theta = phi'/(2 pi t) at rows three grid steps or more from any arc end."""
    from freebrown import multiplicative
    from freebrown.measures import load_measure, reflect_circle_measure

    mu_bar = reflect_circle_measure(load_measure(wl.measures[exp["measure"]][0]))
    t = exp["t"]
    ends = np.array([e for arc in arcs for e in arc if abs(e) != math.pi] or [np.inf])
    gap = np.abs(_wrap(th[:, None] - ends[None, :]))
    far = hit & (np.min(gap, axis=1) > 3.0 * (th[1] - th[0]))
    idx = np.nonzero(far)[0]
    idx = idx[np.linspace(0, len(idx) - 1, min(samples, len(idx))).astype(int)]
    if not len(idx):
        return ["no rows far enough from the arc ends for central differences"]
    errs = []
    for i in idx:
        cd = _five_point([multiplicative.phi_of_theta(mu_bar, t, th[i] + s * FD_STEP) for s in SWEEP_STENCIL])
        errs.append(abs(cd / (2.0 * math.pi * t) - wd[i]) / (1.0 / (math.pi * t)))
    return _exceed("w_theta vs phi'/(2 pi t)", errs, FD_TOL)


def _annulus(th, r, phi, wd, arcs, t):
    """Haar: r_t = e^{-t/2}, phi = theta, w = 1/(2 pi t), U_t the whole circle."""
    problems = _exceed("annulus r = e^{-t/2}", np.abs(r / math.exp(-0.5 * t) - 1.0), 1e-15)
    problems += _exceed("annulus w = 1/(2 pi t)", np.abs(wd * 2.0 * math.pi * t - 1.0), 1e-15)
    if np.any(phi != th):
        problems.append("phi != theta")
    if arcs != [(-math.pi, math.pi)]:
        problems.append(f"arcs {arcs} are not the whole circle")
    return problems


def mult_law(wl, label, exp, results):
    _cli(results, label)
    doc = wl.measures[exp["measure"]][1]
    alpha, w = map(np.array, atoms_of(doc))
    t = exp["t"]
    th, phi, p = _read_csv(exp["out"], "theta,phi,p").T
    if not len(p):
        return ["no law rows"]
    if not len(alpha):
        problems = _exceed("Haar law p = 1/(2 pi)", np.abs(p * 2.0 * math.pi - 1.0), 1e-15)
        return problems + ([] if np.all(phi == th) else ["Haar law phi != theta"])
    return _boundary_errors(alpha, w, t, np.exp(-math.pi * t * p), th, phi, LAW_R_TOL)


def mult_sweep(wl, label, exp, results):
    doc = wl.measures[exp["measure"]][1]
    alpha, w = map(np.array, atoms_of(doc))
    t, th = exp["t"], exp["theta"]
    vals = _sweep_values(results, label, "phi")
    phi_law, p = vals["law"]
    problems = _boundary_errors(alpha, w, t, [math.exp(-math.pi * t * p)], [th], [phi_law], LAW_R_TOL)
    if phi_law != vals["phi"]:
        problems.append("mult_law_density and phi_of_theta disagree on phi")
    cd = _five_point([vals[f"phi{s:+d}"] for s in SWEEP_STENCIL])
    return problems + _exceed("density_w_theta vs phi'/(2 pi t)",
                              abs(cd / (2.0 * math.pi * t) - vals["w"]) / (1.0 / (math.pi * t)), FD_TOL)


def haar_check(wl, label, exp, results):
    out = _cli(results, label)
    t = exp["t"]
    with open(exp["out"], encoding="utf-8") as fh:
        rep = json.load(fh)
    radii = np.array(rep["radii"])
    problems = []
    expected = np.linspace(math.exp(-0.5 * t), math.exp(0.5 * t), len(radii))
    if rep["t"] != t or len(radii) < 2 or np.any(np.abs(radii - expected) > 1e-15 * expected):
        problems.append("radii are not a uniform grid of the annulus [e^{-t/2}, e^{t/2}]")
    cdf = np.array([min(1.0, max(0.0, 0.5 + math.log(x) / t)) for x in radii])
    problems += _exceed("S-transform CDF = 1/2 + log(r)/t", np.abs(np.array(rep["cdf_stransform"]) - cdf), 1e-14)
    problems += _exceed("radial CDF = 1/2 + log(r)/t", np.abs(np.array(rep["cdf_radial"]) - cdf), 1e-10)
    problems += _exceed("reported max_discrepancy", rep["max_discrepancy"], 1e-10)
    if abs(_summary(out, "max_discrepancy") - rep["max_discrepancy"]) > 1e-3 * rep["max_discrepancy"] + 1e-300:
        problems.append("summary and report disagree")
    return problems


# -- finite n ----------------------------------------------------------------------


def _ks(samples, cdf):
    s = np.sort(samples)
    n = len(s)
    f = cdf(s)
    k = np.arange(1, n + 1)
    return float(max(np.max(k / n - f), np.max(f - (k - 1) / n)))


def _circular_law_real_cdf(t):
    """CDF of Re z for z uniform on the disc of radius sqrt(t)."""
    R = math.sqrt(t)

    def cdf(x):
        x = np.clip(x, -R, R)
        return 0.5 + (x * np.sqrt(R * R - x * x) + R * R * np.arcsin(x / R)) / (math.pi * R * R)

    return cdf


def spectrum(wl, label, exp, results):
    out = _cli(results, label)
    re_, im_ = _read_csv(exp["out"], "re,im").T
    lam = re_ + 1j * im_
    problems = []
    with open(exp["out"] + ".meta.json", encoding="utf-8") as fh:
        meta = json.load(fh)
    want = {"model": exp["model"], "n": exp["n"], "t": exp["t"], "seed": exp["seed"]}
    if {k: meta.get(k) for k in want} != want:
        problems.append(f"metadata {meta} does not match {want}")
    if len(lam) != exp["n"] or not np.all(np.isfinite(lam)):
        problems.append(f"{len(lam)} finite eigenvalues, expected {exp['n']}")
    if f"n={exp['n']}" not in out:
        problems.append("summary line lacks n")
    t = exp["t"]
    if exp["measure"] == "haar":
        ks = _ks(np.abs(lam), lambda r: np.clip(0.5 + np.log(r) / t, 0.0, 1.0))
    elif exp["measure"] == "delta0":
        ks = _ks(lam.real, _circular_law_real_cdf(t))
    else:
        return problems
    return problems + _exceed(f"KS distance x sqrt(n), {exp['measure']}", ks * math.sqrt(exp["n"]), KS_C)


def compare(wl, label, exp, results):
    out = _cli(results, label)
    with open(exp["out"], encoding="utf-8") as fh:
        rep = json.load(fh)
    problems = []
    if rep["marginal"] != exp["marginal"]:
        problems.append(f"report is for marginal {rep['marginal']!r}")
    problems += _exceed(f"compare distance, {exp['marginal']}", rep["distance"], COMPARE_GATE)
    if abs(_summary(out, "distance") - rep["distance"]) > 1e-6:
        problems.append("summary and report disagree")
    return problems


CHECKS = {
    "additive_density": additive_density,
    "additive_law": additive_law,
    "additive_sweep": additive_sweep,
    "mult_density": mult_density,
    "mult_law": mult_law,
    "mult_sweep": mult_sweep,
    "haar_check": haar_check,
    "spectrum": spectrum,
    "compare": compare,
}
