import json

import numpy as np
import pytest

from freebrown.cli import main

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
    assert len(side["arcs"]) == 2
    assert "mass=1.000000" in capsys.readouterr().out


def test_mult_law_json_format(tmp_path):
    mpath = write_measure(tmp_path, HAAR, "h.json")
    out = tmp_path / "law.json"
    assert main(
        ["mult", "law", "--measure", mpath, "--t", "2", "--out", str(out),
         "--format", "json"]
    ) == 0
    rows = json.loads(out.read_text())
    assert rows[0].keys() == {"theta", "phi", "p"}
    assert rows[0]["p"] == pytest.approx(1.0 / (2.0 * np.pi))


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
    mpath = write_measure(tmp_path, DELTA0, "d0.json")
    code = main(
        ["additive", "density", "--measure", mpath, "--t", "-1",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    from freebrown import cli
    from freebrown.errors import QuadratureNonconvergence

    def boom(profile):
        raise QuadratureNonconvergence("forced for the exit-code path")

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


def test_compare_reads_json_spectrum(tmp_path, capsys):
    mpath = write_measure(tmp_path, HAAR, "h.json")
    eig = tmp_path / "s.json"
    assert main(
        ["simulate", "mult", "--measure", mpath, "--t", "1", "--n", "50",
         "--steps", "100", "--seed", "1", "--format", "json", "--out", str(eig)]
    ) == 0
    assert main(
        ["compare", "--spectrum", str(eig), "--measure", mpath,
         "--marginal", "radius"]
    ) == 0
    assert "distance=" in capsys.readouterr().out
    eig.write_text("[{\"re\": 1.0}]")
    assert main(
        ["compare", "--spectrum", str(eig), "--measure", mpath,
         "--marginal", "radius"]
    ) == 2
