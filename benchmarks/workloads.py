"""Workload inputs, made from a seed, and the jobs that run on them.

A workload writes its measure files once per run and then builds a job: a
fixed list of operations, each one CLI call of ``freebrown.cli.main`` or one
public API call. Every job of a run repeats the same operations on the same
files, so a job's outputs must come out byte-identical each time.

The seed moves atom positions and weights inside a fixed layout (cluster
centres, atom counts, times, grid sizes), so the amount of work hardly
depends on the seed and the job time stays comparable across seeds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# dense-atoms: 200-atom measures whose clusters split the support at small t
DENSE_ATOMS = 200
DENSE_REAL_CLUSTERS = 11
DENSE_CIRCLE_CLUSTERS = 8
DENSE_T_SMALL = 0.1
DENSE_T_UNIT = 1.0
DENSE_T_MULT = 0.25

# few-atoms: times of the CLI calls and of the scalar sweeps
FEW_T_ADD = 0.5
FEW_T_MULT = 0.8
FEW_T_HAAR = 1.0
FEW_T_HAAR_LAW = 2.0
SWEEP_OFFSETS = (-0.6, -0.3, 0.3, 0.6)  # times sqrt(w t) from each atom
SWEEP_STENCIL = (-2, -1, 1, 2)  # five-point central-difference offsets, in steps
FD_STEP = 1e-4  # of FD_STEP: truncation O(h^4), solve noise O(1e-12 / h)

# finite-n: matrix sizes of the samplers
FLOW_N = 160
FLOW_STEPS = 100
FLOW_T = 1.0
ADD_N = 400
ADD_T = 1.0


@dataclass
class Op:
    """One operation of a job: ``run()`` returns what the checks need."""

    name: str
    run: object
    kind: str = "cli"


@dataclass
class Workload:
    """Measure files, the job's operations and what the checks need."""

    measures: dict  # label -> (path, measure document)
    ops: list = field(default_factory=list)
    expect: dict = field(default_factory=dict)  # check inputs by output label


# -- measure documents ---------------------------------------------------------


def _dirichlet_weights(rng, n, concentration):
    w = rng.dirichlet(np.full(n, concentration))
    return [float(x) for x in w]


def _clustered(rng, n_atoms, centers, half_width):
    """Jittered lattices of atoms around fixed cluster centres."""
    per = np.full(len(centers), n_atoms // len(centers))
    per[: n_atoms - per.sum()] += 1
    locs = []
    for c, m in zip(centers, per):
        spacing = 2.0 * half_width / m
        lattice = c - half_width + spacing * (np.arange(m) + 0.5)
        locs.extend(lattice + spacing * rng.uniform(-0.3, 0.3, m))
    return [float(x) for x in locs]


def real_doc(xs, ws):
    return {"kind": "real-atomic", "atoms": [{"x": x, "w": w} for x, w in zip(xs, ws)]}


def circle_doc(thetas, ws):
    return {
        "kind": "circle-atomic",
        "atoms": [{"theta": th, "w": w} for th, w in zip(thetas, ws)],
    }


HAAR_DOC = {"kind": "haar", "atoms": []}
DELTA0_DOC = real_doc([0.0], [1.0])


def atoms_of(doc):
    """(locations, weights) as floats; empty for Haar."""
    key = "x" if doc["kind"] == "real-atomic" else "theta"
    return [a[key] for a in doc["atoms"]], [a["w"] for a in doc["atoms"]]


# -- operations ----------------------------------------------------------------


def cli_op(name, argv):
    """A CLI call; returns (exit code, stdout). ``cli.main`` is looked up at
    call time so that the traced run sees its wrapper."""

    def run():
        from freebrown import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return Op(name, run)


def api_op(name, module, func, *args):
    """A public API call, looked up at call time like ``cli_op``."""

    def run():
        import importlib

        return getattr(importlib.import_module(f"freebrown.{module}"), func)(*args)

    return Op(name, run, kind="api")


def _write_measures(in_dir, docs):
    measures = {}
    for label, doc in docs.items():
        path = in_dir / f"{label}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        measures[label] = (str(path), doc)
    return measures


def _load(path):
    from freebrown.measures import load_measure

    return load_measure(path)


# -- the three workloads ---------------------------------------------------------


def dense_atoms(rng, in_dir: Path, out_dir: Path) -> Workload:
    real_centers = -3.0 + 6.0 * (np.arange(DENSE_REAL_CLUSTERS) + 0.5) / DENSE_REAL_CLUSTERS
    circle_centers = -np.pi + 2.0 * np.pi * (np.arange(DENSE_CIRCLE_CLUSTERS) + 0.5) / DENSE_CIRCLE_CLUSTERS
    docs = {
        "real200": real_doc(
            _clustered(rng, DENSE_ATOMS, real_centers, 0.08),
            _dirichlet_weights(rng, DENSE_ATOMS, 50.0),
        ),
        "circle200": circle_doc(
            _clustered(rng, DENSE_ATOMS, circle_centers, 0.08),
            _dirichlet_weights(rng, DENSE_ATOMS, 50.0),
        ),
    }
    wl = Workload(_write_measures(in_dir, docs))
    real, circle = wl.measures["real200"][0], wl.measures["circle200"][0]
    for label, t in (("add_small", DENSE_T_SMALL), ("add_unit", DENSE_T_UNIT)):
        out = str(out_dir / f"{label}.csv")
        wl.ops.append(cli_op(label, ["additive", "density", "--measure", real, "--t", repr(t), "--out", out]))
        wl.expect[label] = {"check": "additive_density", "measure": "real200", "t": t, "out": out}
    out = str(out_dir / "mult.csv")
    wl.ops.append(cli_op("mult", ["mult", "density", "--measure", circle, "--t", repr(DENSE_T_MULT), "--out", out]))
    wl.expect["mult"] = {"check": "mult_density", "measure": "circle200", "t": DENSE_T_MULT, "out": out}
    return wl


def few_atoms(rng, in_dir: Path, out_dir: Path) -> Workload:
    x2 = [-float(rng.uniform(0.6, 1.0)), float(rng.uniform(0.6, 1.0))]
    w2 = float(rng.uniform(0.25, 0.75))
    x3 = [float(c + rng.uniform(-0.2, 0.2)) for c in (-1.2, 0.0, 1.2)]
    a2 = float(rng.uniform(0.3, 1.2))
    th2 = [a2, a2 - math.pi * float(rng.uniform(0.6, 0.9))]
    wc2 = float(rng.uniform(0.3, 0.7))
    th3 = [float(c + rng.uniform(-0.3, 0.3)) for c in (-2.0, 0.0, 2.0)]
    docs = {
        "delta0": DELTA0_DOC,
        "two": real_doc(x2, [w2, 1.0 - w2]),
        "three": real_doc(x3, [float(0.2 + 0.4 * w) for w in rng.dirichlet(np.ones(3))]),
        "haar": HAAR_DOC,
        "circ2": circle_doc(th2, [wc2, 1.0 - wc2]),
        "circ3": circle_doc(th3, [float(0.2 + 0.4 * w) for w in rng.dirichlet(np.ones(3))]),
    }
    wl = Workload(_write_measures(in_dir, docs))
    calls = [
        ("add_d0", "additive", "density", "delta0", FEW_T_HAAR, "additive_density"),
        ("add_two", "additive", "density", "two", FEW_T_ADD, "additive_density"),
        ("add_three", "additive", "density", "three", FEW_T_ADD, "additive_density"),
        ("law_d0", "additive", "law", "delta0", FEW_T_HAAR, "additive_law"),
        ("law_two", "additive", "law", "two", FEW_T_ADD, "additive_law"),
        ("mult_haar", "mult", "density", "haar", FEW_T_HAAR, "mult_density"),
        ("mult_c2", "mult", "density", "circ2", FEW_T_MULT, "mult_density"),
        ("mult_c3", "mult", "density", "circ3", FEW_T_MULT, "mult_density"),
        ("mlaw_haar", "mult", "law", "haar", FEW_T_HAAR_LAW, "mult_law"),
        ("mlaw_c2", "mult", "law", "circ2", FEW_T_MULT, "mult_law"),
    ]
    for label, top, sub, measure, t, check in calls:
        out = str(out_dir / f"{label}.csv")
        argv = [top, sub, "--measure", wl.measures[measure][0], "--t", repr(t), "--out", out]
        wl.ops.append(cli_op(label, argv))
        wl.expect[label] = {"check": check, "measure": measure, "t": t, "out": out}
    out = str(out_dir / "haar_check.json")
    wl.ops.append(cli_op("check_haar", ["check", "haar", "--t", repr(FEW_T_HAAR), "--out", out]))
    wl.expect["check_haar"] = {"check": "haar_check", "t": FEW_T_HAAR, "out": out}

    # scalar sweeps: points near each atom, well inside the support, each with
    # the stencil the checks take central differences on
    mu_two = _load(wl.measures["two"][0])
    for j, (x, w) in enumerate(zip(*atoms_of(docs["two"]))):
        for k, off in enumerate(SWEEP_OFFSETS):
            a = x + off * math.sqrt(w * FEW_T_ADD)
            tag = f"sw_add_{j}_{k}"
            wl.ops += [
                api_op(f"{tag}_v", "additive", "v_t", mu_two, FEW_T_ADD, a),
                api_op(f"{tag}_psi", "additive", "psi_t", mu_two, FEW_T_ADD, a),
                api_op(f"{tag}_w", "additive", "density_w", mu_two, FEW_T_ADD, a),
            ] + [api_op(f"{tag}_psi{s:+d}", "additive", "psi_t", mu_two, FEW_T_ADD, a + s * FD_STEP)
                 for s in SWEEP_STENCIL]
            wl.expect[tag] = {"check": "additive_sweep", "measure": "two", "t": FEW_T_ADD, "a": a}
    mu_c3 = _load(wl.measures["circ3"][0])
    from freebrown.measures import reflect_circle_measure

    mu_c3_bar = reflect_circle_measure(mu_c3)
    for j, (alpha, w) in enumerate(zip(*atoms_of(docs["circ3"]))):
        for k, off in enumerate(SWEEP_OFFSETS):
            th = alpha + off * math.sqrt(w * FEW_T_MULT)
            tag = f"sw_mult_{j}_{k}"
            wl.ops += [
                api_op(f"{tag}_law", "multiplicative", "mult_law_density", mu_c3, FEW_T_MULT, th),
                api_op(f"{tag}_phi", "multiplicative", "phi_of_theta", mu_c3_bar, FEW_T_MULT, th),
                api_op(f"{tag}_w", "multiplicative", "density_w_theta", mu_c3_bar, FEW_T_MULT, th),
            ] + [api_op(f"{tag}_phi{s:+d}", "multiplicative", "phi_of_theta", mu_c3_bar, FEW_T_MULT,
                        th + s * FD_STEP) for s in SWEEP_STENCIL]
            wl.expect[tag] = {"check": "mult_sweep", "measure": "circ3", "t": FEW_T_MULT, "theta": th}
    return wl


def finite_n(rng, in_dir: Path, out_dir: Path) -> Workload:
    a2 = float(rng.uniform(0.3, 1.2))
    wc2 = float(rng.uniform(0.3, 0.7))
    docs = {
        "haar": HAAR_DOC,
        "circ2": circle_doc([a2, a2 - math.pi * float(rng.uniform(0.6, 0.9))], [wc2, 1.0 - wc2]),
        "delta0": DELTA0_DOC,
    }
    wl = Workload(_write_measures(in_dir, docs))
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, 3)]
    sims = [
        ("sim_haar", "mult", "haar", FLOW_T, ["--n", str(FLOW_N), "--steps", str(FLOW_STEPS)], seeds[0]),
        ("sim_c2", "mult", "circ2", FLOW_T, ["--n", str(FLOW_N), "--steps", str(FLOW_STEPS)], seeds[1]),
        ("sim_add", "additive", "delta0", ADD_T, ["--n", str(ADD_N)], seeds[2]),
    ]
    for label, model, measure, t, size, seed in sims:
        out = str(out_dir / f"{label}.csv")
        argv = ["simulate", model, "--measure", wl.measures[measure][0], "--t", repr(t),
                *size, "--seed", str(seed), "--out", out]
        wl.ops.append(cli_op(label, argv))
        wl.expect[label] = {"check": "spectrum", "measure": measure, "t": t, "out": out,
                            "model": "additive" if model == "additive" else "multiplicative",
                            "n": int(size[1]), "seed": seed}
    compares = [
        ("cmp_haar_radius", "sim_haar", "haar", "radius"),
        ("cmp_haar_argument", "sim_haar", "haar", "argument"),
        ("cmp_c2_argument", "sim_c2", "circ2", "argument"),
        ("cmp_c2_radius", "sim_c2", "circ2", "radius"),
        ("cmp_add_real", "sim_add", "delta0", "real-part"),
    ]
    for label, sim, measure, marginal in compares:
        out = str(out_dir / f"{label}.json")
        argv = ["compare", "--spectrum", wl.expect[sim]["out"], "--measure", wl.measures[measure][0],
                "--marginal", marginal, "--out", out]
        wl.ops.append(cli_op(label, argv))
        wl.expect[label] = {"check": "compare", "marginal": marginal, "out": out}
    return wl


WORKLOADS = {"dense-atoms": dense_atoms, "few-atoms": few_atoms, "finite-n": finite_n}
