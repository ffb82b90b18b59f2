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


def test_mass_gate_grid_misses_support(tmp_path, capsys):
    """A grid clear of the whole support keeps no interval: the mass
    integral over none is 0, and the gate exits 3."""
    mpath = write_measure(tmp_path, DELTA0, "d0.json")
    argv = ["additive", "density", "--measure", mpath, "--t", "1", "--grid", "5:6:101"]
    assert main(argv + ["--out", str(tmp_path / "off.csv")]) == 3
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err.startswith("mass=0.000000000 ")


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


def test_write_rows_matches_per_value_format(tmp_path):
    """The block %-format gives the bytes of f"{x:.17g}" per value."""
    from freebrown.cli import write_rows

    row = [0.0, -0.0, np.inf, -np.inf, 5e-324, 1 / 3, 1e300, -2.5]
    header = [f"c{i}" for i in range(len(row))]
    path = tmp_path / "row.csv"
    write_rows(path, "csv", header, [np.array([x]) for x in row])
    want = ",".join(header) + "\n" + ",".join(f"{x:.17g}" for x in row) + "\n"
    assert path.read_bytes() == want.encode()
    write_rows(path, "json", header, [np.array([x]) for x in row])
    assert json.loads(path.read_text()) == [dict(zip(header, row))]


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
    assert "metadata" in json.loads(capsys.readouterr().err.strip())["error"]


def test_directory_as_input_exit_code(tmp_path, capsys):
    code = main(
        ["additive", "density", "--measure", str(tmp_path), "--t", "1",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "error" in json.loads(capsys.readouterr().err.strip())


def test_json_only_commands_reject_format(tmp_path, capsys):
    """compare and check haar always write JSON: no --format, and no format
    in their manifests."""
    mpath = write_measure(tmp_path, HAAR, "h.json")
    eig = tmp_path / "s.csv"
    assert main(
        ["simulate", "mult", "--measure", mpath, "--t", "1", "--n", "20",
         "--steps", "100", "--seed", "1", "--out", str(eig)]
    ) == 0
    compare = ["compare", "--spectrum", str(eig), "--measure", mpath,
               "--marginal", "radius", "--out", str(tmp_path / "c.json")]
    check = ["check", "haar", "--t", "1", "--out", str(tmp_path / "k.json")]
    for argv in (compare, check):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--format", "csv"])
        assert exc.value.code == 2
        assert main(argv) == 0
    for name in ("c.json", "k.json"):
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["config"]["format"] is None
    sim = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert sim["config"]["format"] == "csv"


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
