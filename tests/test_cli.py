import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from freebrown import cli
from freebrown.cli import main

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

DELTA0 = {"kind": "real-atomic", "atoms": [{"x": 0.0, "w": 1.0}]}
TWO_ATOM = {
    "kind": "real-atomic",
    "atoms": [{"x": -0.8, "w": 0.25}, {"x": 0.8, "w": 0.75}],
}
HAAR = {"kind": "haar", "atoms": []}
CIRCLE = {
    "kind": "circle-atomic",
    "atoms": [
        {"theta": 2 * np.pi / 5, "w": 1 / 3},
        {"theta": 3 * np.pi / 4, "w": 2 / 3},
    ],
}


def write_measure(tmp_path, doc, name):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_additive_density_run(tmp_path, capsys):
    mpath = write_measure(tmp_path, DELTA0, "d0.json")
    out = tmp_path / "prof.csv"
    code = main(
        ["additive", "density", "--measure", mpath, "--t", "1",
         "--grid", "-2:2:801", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,v,w,psi"
    assert len(lines) == 802
    side = json.loads((tmp_path / "prof.csv.intervals.json").read_text())
    assert side["t"] == 1.0
    assert side["intervals"][0] == pytest.approx([-1.0, 1.0], abs=1e-10)
    manifest = json.loads((tmp_path / "prof.csv.manifest.json").read_text())
    assert manifest["config"]["command"] == "additive-density"
    assert "numpy" in manifest["versions"]
    summary = capsys.readouterr().out
    assert "mass=1.000000" in summary
    # interior density approximately 1/pi
    a, v, w, psi = np.loadtxt(str(out), delimiter=",", skiprows=1).T
    inner = np.abs(a) < 0.9
    assert np.allclose(w[inner], 1.0 / np.pi, atol=1e-10)


def test_byte_identical_reruns(tmp_path):
    mpath = write_measure(tmp_path, TWO_ATOM, "two.json")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["additive", "density", "--measure", mpath, "--t", "0.5", "--out"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_additive_law_run(tmp_path):
    mpath = write_measure(tmp_path, DELTA0, "d0.json")
    out = tmp_path / "law.csv"
    assert main(
        ["additive", "law", "--measure", mpath, "--t", "1", "--out", str(out)]
    ) == 0
    a, y, p = np.loadtxt(str(out), delimiter=",", skiprows=1).T
    # the law is the semicircle of variance 1: peak 1/pi at y=0
    k = np.argmin(np.abs(y))
    assert p[k] == pytest.approx(1.0 / np.pi, abs=1e-3)


def test_mult_density_run(tmp_path, capsys):
    mpath = write_measure(tmp_path, CIRCLE, "c.json")
    out = tmp_path / "mprof.csv"
    code = main(
        ["mult", "density", "--measure", mpath, "--t", "0.8",
         "--n-theta", "721", "--out", str(out)]
    )
    assert code == 0
    side = json.loads((tmp_path / "mprof.csv.arcs.json").read_text())
    assert side["t"] == 0.8
    assert len(side["arcs"]) == 2
    assert "mass=1.000000" in capsys.readouterr().out


def test_mult_law_run(tmp_path):
    mpath = write_measure(tmp_path, HAAR, "h.json")
    out = tmp_path / "law.csv"
    assert main(["mult", "law", "--measure", mpath, "--t", "2", "--out", str(out)]) == 0
    assert out.read_text().splitlines()[0] == "theta,phi,p"
    theta, phi, p = np.loadtxt(str(out), delimiter=",", skiprows=1).T
    # the Haar law is uniform on the circle at every t
    assert np.allclose(p, 1.0 / (2.0 * np.pi), rtol=1e-12)


def test_check_haar(tmp_path, capsys):
    out = tmp_path / "check.json"
    assert main(["check", "haar", "--t", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["max_discrepancy"] <= 1e-12
    assert "max_discrepancy" in capsys.readouterr().out


def test_simulate_and_compare(tmp_path, capsys):
    mpath = write_measure(tmp_path, DELTA0, "d0.json")
    eig = tmp_path / "eig.csv"
    assert main(
        ["simulate", "additive", "--measure", mpath, "--t", "1",
         "--n", "300", "--seed", "42", "--out", str(eig)]
    ) == 0
    meta = json.loads((tmp_path / "eig.csv.meta.json").read_text())
    assert meta["model"] == "additive" and meta["n"] == 300
    rep = tmp_path / "report.json"
    assert main(
        ["compare", "--spectrum", str(eig), "--measure", mpath,
         "--marginal", "real-part", "--out", str(rep)]
    ) == 0
    report = json.loads(rep.read_text())
    assert report["marginal"] == "real-part"
    assert 0.0 <= report["distance"] <= 0.2
    assert "distance=" in capsys.readouterr().out


def test_simulate_mult_and_compare_radius(tmp_path, capsys):
    mpath = write_measure(tmp_path, HAAR, "h.json")
    eig = tmp_path / "meig.csv"
    assert main(
        ["simulate", "mult", "--measure", mpath, "--t", "1", "--n", "48",
         "--steps", "100", "--seed", "7", "--out", str(eig)]
    ) == 0
    meta = json.loads((tmp_path / "meig.csv.meta.json").read_text())
    assert meta["steps"] == 100
    assert main(
        ["compare", "--spectrum", str(eig), "--measure", mpath,
         "--marginal", "radius", "--n-theta", "181"]
    ) == 0
    out = capsys.readouterr().out
    # n=48 is only a smoke check of the pipeline, not a statistics fixture
    distance = float(out.rsplit("distance=", 1)[1].split()[0])
    assert 0.0 <= distance <= 0.5


def test_validation_exit_code(tmp_path, capsys):
    mpath = write_measure(
        tmp_path, {"kind": "real-atomic", "atoms": [{"x": 0, "w": 0.5}]}, "bad.json"
    )
    out = tmp_path / "x.csv"
    code = main(
        ["additive", "density", "--measure", mpath, "--t", "1", "--out", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]


@pytest.mark.parametrize(
    "atom", [{"x": True, "w": 1}, {"x": 0, "w": "1"}, {"theta": "0.5", "w": 1}]
)
def test_non_number_atom_exit_code(tmp_path, capsys, atom):
    kind = "real-atomic" if "x" in atom else "circle-atomic"
    mpath = write_measure(tmp_path, {"kind": kind, "atoms": [atom]}, "m.json")
    flow = "additive" if "x" in atom else "mult"
    code = main([flow, "density", "--measure", mpath, "--t", "1", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "must be a number" in json.loads(capsys.readouterr().err.strip())["error"]


@pytest.mark.parametrize("grid", ["-inf:inf:100", "0:inf:100", "-1e308:1e308:100"])
def test_grid_bounds_must_be_finite(tmp_path, capsys, grid):
    """An infinite bound or a span past the largest float is refused before
    linspace, which would warn on stderr (the suite turns RuntimeWarnings
    into errors): the error object stays the only thing written there."""
    mpath = write_measure(tmp_path, DELTA0, "d0.json")
    argv = ["additive", "density", "--measure", mpath, "--t", "1", f"--grid={grid}",
            "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 2
    assert "finite" in json.loads(capsys.readouterr().err.strip())["error"]


@pytest.mark.parametrize("sub", ["density", "law"])
def test_huge_grid_leaves_stderr_empty(tmp_path, capsys, sub):
    """Past |a| ~ 1e154 the squared distances to the atoms overflow to
    +inf, which reads as outside the strip: no RuntimeWarning (the suite
    turns them into errors) and nothing on stderr."""
    mpath = write_measure(tmp_path, DELTA0, "d0.json")
    argv = ["additive", sub, "--measure", mpath, "--t", "1", "--grid=-1e307:1e307:100",
            "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flow,doc,extra", [
    ("additive", DELTA0, []),
    ("mult", HAAR, ["--steps", "100"]),
], ids=["additive", "mult"])
def test_negative_seed_exit_code(tmp_path, capsys, flow, doc, extra):
    """numpy refuses a negative seed with a bare ValueError; the CLI turns it
    away first, as a ValidationError (exit 2) with one JSON error."""
    mpath = write_measure(tmp_path, doc, "m.json")
    argv = ["simulate", flow, "--measure", mpath, "--t", "1", "--n", "4", *extra,
            "--seed", "-1", "--out", str(tmp_path / "neg.csv")]
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().err.strip()) == {"error": "seed must be >= 0, got -1"}
    assert not (tmp_path / "neg.csv").exists()


def test_missing_measure_exit_code(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(
        ["additive", "density", "--measure", str(tmp_path / "nope.json"),
         "--t", "1", "--out", str(out)]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_wrong_kind_exit_code(tmp_path, capsys):
    mpath = write_measure(tmp_path, HAAR, "h.json")
    code = main(
        ["additive", "density", "--measure", mpath, "--t", "1",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_bad_time_exit_code(tmp_path, capsys):
    """A time that is not finite and > 0 is rejected up front (exit 2),
    before any solve or quadrature sees it."""
    for flow, doc in (("additive", DELTA0), ("mult", CIRCLE)):
        mpath = write_measure(tmp_path, doc, f"{flow}.json")
        for t in ("-1", "inf"):
            code = main(
                [flow, "density", "--measure", mpath, "--t", t,
                 "--out", str(tmp_path / "x.csv")]
            )
            assert code == 2
            assert "t must be" in json.loads(capsys.readouterr().err.strip())["error"]


def test_large_time_mult_density(tmp_path, capsys):
    """At t = 300 the r_t root lies near x = -log r = 150 on the whole
    circle, at t = 1400 near 700, just inside the normal floats: the solve
    converges there and the mass gate passes."""
    doc = {"kind": "circle-atomic", "atoms": [{"theta": 0.4, "w": 0.5}, {"theta": 2.0, "w": 0.5}]}
    mpath = write_measure(tmp_path, doc, "c2.json")
    for t in ("300", "1400"):
        argv = ["mult", "density", "--measure", mpath, "--t", t, "--n-theta", "64"]
        assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 0
        assert "arcs=1" in capsys.readouterr().out


@pytest.mark.parametrize("doc", [
    {"kind": "circle-atomic", "atoms": [{"theta": 0.4, "w": 0.5}, {"theta": 2.0, "w": 0.5}]},
    HAAR,
])
def test_mult_time_past_normal_radii_exit_code(tmp_path, capsys, doc):
    """Past T_MAX (about 1412.8) the radius e^{-x} of some root underflows:
    the run is refused up front (exit 2) with the bound named, instead of
    failing in the mass integral or writing r = 0 rows."""
    mpath = write_measure(tmp_path, doc, "m.json")
    argv = ["mult", "density", "--measure", mpath, "--t", "1600", "--n-theta", "64"]
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    assert "t must be <= 1412.8" in json.loads(capsys.readouterr().err.strip())["error"]
    assert not (tmp_path / "x.csv").exists()


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    from freebrown import cli
    from freebrown.errors import NumericalError

    def boom(profile):
        raise NumericalError("forced for the exit-code path")

    monkeypatch.setattr(cli.additive, "total_mass", boom)
    mpath = write_measure(tmp_path, DELTA0, "d0.json")
    code = main(
        ["additive", "density", "--measure", mpath, "--t", "1",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 3
    assert "error" in json.loads(capsys.readouterr().err.strip())


def test_mass_gate_exit_code(tmp_path, capsys):
    """A grid that cuts the support loses mass: exit 3, not a summary."""
    mpath = write_measure(tmp_path, DELTA0, "d0.json")
    argv = ["additive", "density", "--measure", mpath, "--t", "1", "--out"]
    assert main(argv + [str(tmp_path / "cut.csv"), "--grid=-0.5:0.5:101"]) == 3
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert "past the grid" in err
    assert main(argv + [str(tmp_path / "full.csv")]) == 0
    assert "mass=1.000000" in capsys.readouterr().out


def test_haar_mass_gate_at_tiny_time(tmp_path, capsys):
    """At t = 1e-17, e^{-t/2} rounds to 1: every Haar row has r = 1 and
    arg_density 0. The mass integrates those rows, as for any measure, so
    it reads 0 and the gate exits 3 instead of passing rows with no mass."""
    mpath = write_measure(tmp_path, HAAR, "h.json")
    argv = ["mult", "density", "--measure", mpath, "--t", "1e-17",
            "--out", str(tmp_path / "tiny.csv")]
    assert main(argv) == 3
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err.startswith("mass=0.000000000 ")


@pytest.mark.parametrize("t, code", [("1e-17", 3), ("1e-12", 3), ("1e-10", 0)])
def test_check_haar_gate(tmp_path, capsys, t, code):
    """The radial CDF is the mass inside a radius, so ``check haar`` takes the
    mass gate: below t ~ 1e-11 the rounded r_t = e^{-t/2} moves the profile's
    CDF by more than MASS_TOL (0.5 at 1e-17, 8.9e-5 at 1e-12), and the check
    exits 3 with one JSON error and no report. At 1e-10 it misses by 8.3e-8."""
    out = tmp_path / "check.json"
    assert main(["check", "haar", "--t", t, "--out", str(out)]) == code
    captured = capsys.readouterr()
    if code:
        assert len(captured.err.splitlines()) == 1
        assert json.loads(captured.err)["error"].startswith("check-haar: max_discrepancy=")
        assert not out.exists()
    else:
        assert json.loads(out.read_text())["max_discrepancy"] <= cli.MASS_TOL
        assert captured.err == ""


@pytest.mark.parametrize("flow,sub,doc,t,called", [
    ("additive", "density", DELTA0, "1e-300", "additive_profile"),
    ("additive", "density", DELTA0, "1e300", "additive_profile"),
    ("additive", "law", DELTA0, "1e-300", "additive_profile"),
    ("mult", "density", CIRCLE, "1e-300", "total_mass"),
], ids=["additive-density-1e-300", "additive-density-1e300", "additive-law-1e-300",
        "mult-density-1e-300"])
def test_extreme_time_exit_code(tmp_path, capsys, flow, sub, doc, t, called):
    """At a t so small or so large that the row tables leave the floats the
    rows are not finite: exit 3 with one JSON error and no RuntimeWarning
    (an error in this suite). The law, which does not write w, exits 3 too.
    The error names the package function the command called: on the circle
    the profile's rows are finite and the mass integral's are not."""
    mpath = write_measure(tmp_path, doc, "m.json")
    argv = [flow, sub, "--measure", mpath, "--t", t, "--out", str(tmp_path / "x.csv")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == f"{called}: non-finite rows at t={float(t):g}"
    assert not (tmp_path / "x.csv").exists()


def test_wide_gap_exit_code(tmp_path, capsys):
    """Atoms 1e100 apart at t = 1e-120: level * L^2 in the gap skip test
    overflows to +inf, which reads as "solve this gap", without a
    RuntimeWarning (an error in this suite). The gap's solve then fails:
    exit 3 with one JSON error."""
    wide = {"kind": "real-atomic", "atoms": [{"x": 0.0, "w": 0.5}, {"x": 1e100, "w": 0.5}]}
    mpath = write_measure(tmp_path, wide, "wide.json")
    argv = ["additive", "density", "--measure", mpath, "--t", "1e-120", "--grid=-4:4:801",
            "--out", str(tmp_path / "wide.csv")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert list(json.loads(err)) == ["error"]


def test_only_density_runs_compute_components(tmp_path, monkeypatch, capsys):
    """The exact support components come from the atoms and t alone, and a
    profile computes them on first read: a density run once (its mass,
    sidecar and summary read them), every other command never."""
    from freebrown import additive, multiplicative

    calls = {}

    def count(flow, name):
        real = getattr(flow, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(flow, name, counted)

    count(additive, "_components")
    count(multiplicative, "_u_components")
    line = write_measure(tmp_path, TWO_ATOM, "two.json")
    circle = write_measure(tmp_path, CIRCLE, "c.json")
    eig, meig, out = (str(tmp_path / name) for name in ("eig.csv", "meig.csv", "out.csv"))
    assert main(["simulate", "additive", "--measure", line, "--t", "0.5", "--n", "20",
                 "--seed", "1", "--out", eig]) == 0
    assert main(["simulate", "mult", "--measure", circle, "--t", "0.8", "--n", "20",
                 "--steps", "100", "--seed", "1", "--out", meig]) == 0
    compare = ["compare", "--measure", circle, "--n-theta", "181", "--spectrum", meig]
    runs = [
        (["additive", "law", "--measure", line, "--t", "0.5", "--out", out], 0, 0),
        (["mult", "law", "--measure", circle, "--t", "0.8", "--out", out], 0, 0),
        (["compare", "--spectrum", eig, "--measure", line, "--marginal", "real-part"], 0, 0),
        (compare + ["--marginal", "argument"], 0, 0),
        (compare + ["--marginal", "radius"], 0, 0),
        (["check", "haar", "--t", "1"], 0, 0),
        (["additive", "density", "--measure", line, "--t", "0.5", "--out", out], 1, 0),
        (["mult", "density", "--measure", circle, "--t", "0.8", "--out", out], 0, 1),
    ]
    for argv, line_calls, circle_calls in runs:
        calls.update(_components=0, _u_components=0)
        assert main(argv) == 0, argv
        assert calls == {"_components": line_calls, "_u_components": circle_calls}, argv


def test_mass_gate_grid_misses_support(tmp_path, capsys):
    """A grid clear of the whole support keeps no interval: the mass
    integral over none is 0, and the gate exits 3."""
    mpath = write_measure(tmp_path, DELTA0, "d0.json")
    argv = ["additive", "density", "--measure", mpath, "--t", "1", "--grid", "5:6:101"]
    assert main(argv + ["--out", str(tmp_path / "off.csv")]) == 3
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err.startswith("mass=0.000000000 ")


def _haar_spectrum(tmp_path, n=60):
    """A Haar measure file and an n-eigenvalue spectrum simulated from it."""
    mpath = write_measure(tmp_path, HAAR, "h.json")
    eig = tmp_path / "s.csv"
    assert main(
        ["simulate", "mult", "--measure", mpath, "--t", "1", "--n", str(n),
         "--steps", "100", "--seed", "1", "--out", str(eig)]
    ) == 0
    return mpath, eig


def test_compare_rejects_json_spectrum(tmp_path, capsys):
    """The spectrum is read as CSV only: a JSON list of {"re", "im"} rows,
    the form an older ``--format json`` wrote, exits 2."""
    mpath, eig = _haar_spectrum(tmp_path)
    argv = ["compare", "--spectrum", str(eig), "--measure", mpath, "--marginal", "radius"]
    assert main(argv) == 0
    re, im = np.loadtxt(str(eig), delimiter=",", skiprows=1).T
    rows = [{"re": a, "im": b} for a, b in zip(re.tolist(), im.tolist())]
    for text in (json.dumps(rows, indent=2), json.dumps(rows)):
        eig.write_text(text)
        assert main(argv) == 2
        assert str(eig) in json.loads(capsys.readouterr().err.strip())["error"]


def _nan_rows(eig, meta):
    lines = eig.read_text().splitlines()
    eig.write_text("\n".join(lines[:31] + ["nan,nan"] * 30) + "\n")


def _header_only(eig, meta):
    eig.write_text("re,im\n")


def _three_columns(eig, meta):
    lines = eig.read_text().splitlines()
    eig.write_text("\n".join(lines[:1] + [row + ",0" for row in lines[1:]]) + "\n")


def _wrong_n(eig, meta):
    meta["n"] = 7


def _unknown_model(eig, meta):
    meta["model"] = "banana"


@pytest.mark.parametrize(
    "spoil", [_nan_rows, _header_only, _three_columns, _wrong_n, _unknown_model]
)
def test_compare_checks_spectrum_file(tmp_path, capsys, spoil):
    """A non-finite eigenvalue, rows other than the metadata's n pairs re,im
    and a model that is neither additive nor multiplicative each exit 2 with
    the spectrum file named, instead of a distance or a misleading message."""
    mpath, eig = _haar_spectrum(tmp_path)
    meta_path = tmp_path / "s.csv.meta.json"
    meta = json.loads(meta_path.read_text())
    spoil(eig, meta)
    meta_path.write_text(json.dumps(meta))
    for marginal in ("radius", "argument"):
        out = tmp_path / f"{marginal}.json"
        argv = ["compare", "--spectrum", str(eig), "--measure", mpath,
                "--marginal", marginal, "--out", str(out)]
        assert main(argv) == 2
        assert str(eig) in json.loads(capsys.readouterr().err.strip())["error"]
        assert not out.exists()


def test_write_rows_matches_per_value_format(tmp_path):
    """The block %-format gives the bytes of f"{x:.17g}" per value."""
    from freebrown.cli import write_rows

    row = [0.0, -0.0, np.inf, -np.inf, 5e-324, 1 / 3, 1e300, -2.5]
    header = [f"c{i}" for i in range(len(row))]
    path = tmp_path / "row.csv"
    write_rows(path, header, [np.array([x]) for x in row])
    want = ",".join(header) + "\n" + ",".join(f"{x:.17g}" for x in row) + "\n"
    assert path.read_bytes() == want.encode()


def test_malformed_spectrum_metadata_exit_code(tmp_path, capsys):
    mpath = write_measure(tmp_path, HAAR, "h.json")
    eig = tmp_path / "s.csv"
    eig.write_text("re,im\n0.5,0.25\n-0.5,0.5\n")
    argv = ["compare", "--spectrum", str(eig), "--measure", mpath, "--marginal", "radius"]
    meta = tmp_path / "s.csv.meta.json"
    for doc in (
        {"model": "multiplicative", "t": 1},
        {"model": "multiplicative", "n": 2, "t": "soon", "seed": 1},
        {"model": "multiplicative", "n": None, "t": 1, "seed": 1},
        ["multiplicative", 2, 1, 1],
        # counts are integers: none is truncated, and a boolean is no count
        {"model": "multiplicative", "n": 2.9, "t": 1, "seed": 1.7},
        {"model": "multiplicative", "n": 2, "t": 1, "seed": 1.7},
        {"model": "multiplicative", "n": 2, "t": 1, "seed": 1, "steps": 100.5},
        {"model": "multiplicative", "n": 2, "t": 1, "seed": True},
        {"model": "multiplicative", "n": True, "t": 1, "seed": 1},
        {"model": "multiplicative", "n": 2, "t": 1, "seed": 1, "steps": False},
    ):
        meta.write_text(json.dumps(doc))
        assert main(argv) == 2
        assert "metadata" in json.loads(capsys.readouterr().err.strip())["error"]


def test_nonpositive_spectrum_time_exit_code(tmp_path, capsys):
    """A spectrum whose metadata holds t = -1 is refused as bad metadata
    before the profile grid is built from sqrt(t)."""
    mpath = write_measure(tmp_path, DELTA0, "d0.json")
    eig = tmp_path / "s.csv"
    eig.write_text("re,im\n0.5,0.25\n-0.5,0.5\n")
    meta = {"model": "additive", "n": 2, "t": -1, "seed": 1, "steps": None}
    (tmp_path / "s.csv.meta.json").write_text(json.dumps(meta))
    argv = ["compare", "--spectrum", str(eig), "--measure", mpath, "--marginal", "real-part"]
    assert main(argv) == 2
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert "metadata" in error
    assert error.endswith("t must be finite and > 0, got -1.0")
    assert "ValidationError(" not in error


def test_directory_as_input_exit_code(tmp_path, capsys):
    code = main(
        ["additive", "density", "--measure", str(tmp_path), "--t", "1",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().err.strip())


def _every_command(tmp_path, n_theta=("--n-theta", "64")):
    """One argv per command (without ``--out``), keyed by its output name;
    the mult and compare runs pass ``n_theta``."""
    mpath, eig = _haar_spectrum(tmp_path)
    d0 = write_measure(tmp_path, DELTA0, "d0.json")
    return {
        "add_density.csv": ["additive", "density", "--measure", d0, "--t", "1"],
        "add_law.csv": ["additive", "law", "--measure", d0, "--t", "1"],
        "mult_density.csv": ["mult", "density", "--measure", mpath, "--t", "1", *n_theta],
        "mult_law.csv": ["mult", "law", "--measure", mpath, "--t", "1", *n_theta],
        "sim_add.csv": ["simulate", "additive", "--measure", d0, "--t", "1", "--n", "20",
                        "--seed", "1"],
        "sim_mult.csv": ["simulate", "mult", "--measure", mpath, "--t", "1", "--n", "20",
                         "--steps", "100", "--seed", "1"],
        "compare.json": ["compare", "--spectrum", str(eig), "--measure", mpath,
                         "--marginal", "radius", *n_theta],
        "check.json": ["check", "haar", "--t", "1"],
    }


def test_no_command_takes_format(tmp_path, capsys):
    """CSV is the one row format: every subcommand rejects ``--format``
    (exit 2), and no manifest records a format."""
    runs = _every_command(tmp_path)
    for name, argv in runs.items():
        argv = argv + ["--out", str(tmp_path / name)]
        for fmt in ("csv", "json"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--format", fmt])
            assert exc.value.code == 2
        assert main(argv) == 0
    capsys.readouterr()
    for name in [*runs, "s.csv"]:
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert "format" not in manifest["config"]


def test_manifest_records_the_parsed_options(tmp_path, capsys):
    """A manifest's config is ``command`` plus exactly the options of that
    command's parser, with their defaults applied: no key of another
    command, and the angle count of a run without ``--n-theta``."""
    common = {"measure_path", "t", "out"}
    options = {
        "add_density.csv": ("additive-density", common | {"grid"}),
        "add_law.csv": ("additive-law", common | {"grid"}),
        "mult_density.csv": ("mult-density", common | {"n_theta"}),
        "mult_law.csv": ("mult-law", common | {"n_theta"}),
        "sim_add.csv": ("simulate-additive", common | {"n", "seed"}),
        "sim_mult.csv": ("simulate-mult", common | {"n", "seed", "steps"}),
        "compare.json": ("compare",
                         {"spectrum", "measure_path", "marginal", "grid", "n_theta", "out"}),
        "check.json": ("check-haar", {"t", "out"}),
    }
    for name, argv in _every_command(tmp_path, n_theta=()).items():
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        config = json.loads((tmp_path / f"{name}.manifest.json").read_text())["config"]
        command, keys = options[name]
        assert config.pop("command") == command
        assert set(config) == keys, name
        assert config["out"] == str(tmp_path / name)
        if "n_theta" in keys:
            assert config["n_theta"] == cli.DEFAULT_N_THETA == 1441
    capsys.readouterr()


def _fresh_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, check=True, capture_output=True, text=True
    ).stdout


def test_one_parser_per_process(tmp_path, monkeypatch, capsys):
    """In-process calls share one parser, built on the first call, and give
    the same bytes as fresh processes, also after a call argparse rejected.
    Importing the CLI builds no parser."""
    runs = [
        ["additive", "density", "--grid", "-2:2:801", "--out", "d1.csv"],
        ["additive", "density", "--grid", "-2:2:801", "--out", "d2.csv"],
        ["mult", "law", "--out", "law.csv"],
    ]
    measures = {"additive": ("d0.json", DELTA0), "mult": ("circle.json", CIRCLE)}
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    for d in (shared, fresh):
        d.mkdir()
        for name, doc in measures.values():
            write_measure(d, doc, name)
    argv = [run + ["--measure", measures[run[0]][0], "--t", "1"] for run in runs]

    cli._build_parser.cache_clear()
    monkeypatch.chdir(shared)
    with pytest.raises(SystemExit) as rejected:
        main(["additive", "density", "--no-such-flag"])
    assert rejected.value.code == 2
    for args in argv:
        assert main(args) == 0
    assert cli._build_parser.cache_info().misses == 1
    capsys.readouterr()

    for args in argv:
        _fresh_python(["-m", "freebrown.cli", *args], fresh)
    files = sorted(p.name for p in fresh.iterdir())
    assert sorted(p.name for p in shared.iterdir()) == files
    assert len(files) == 2 + 3 + 3 + 2  # measures, d1 and d2 with sidecars, law
    for name in files:
        assert (shared / name).read_bytes() == (fresh / name).read_bytes(), name

    probe = "import freebrown.cli as c; print(c._build_parser.cache_info().currsize)"
    assert _fresh_python(["-c", probe], tmp_path).strip() == "0"


def test_cli_import_loads_no_thread_pool(tmp_path):
    """Importing the CLI loads neither concurrent.futures nor threading: the
    flow's worker pool is imported when the flow runs, so the start-up every
    command pays stays as it was. ``-S`` keeps the interpreter's site hooks
    (.pth files may import threading themselves) out of the count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, sys.path)])
    probe = (
        "import sys, freebrown.cli; "
        "print(sorted({'concurrent.futures', 'threading'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        cwd=tmp_path, env=env, check=True, capture_output=True, text=True,
    ).stdout
    assert out.strip() == "[]"
