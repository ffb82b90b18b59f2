"""The figure-data scripts run end to end and write the CSVs they document."""

import os
import pathlib
import subprocess
import sys

import numpy as np

from freebrown.additive import additive_profile
from freebrown.measures import SpectralMeasure
from freebrown.multiplicative import multiplicative_profile

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(script, out_dir, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--out-dir", str(out_dir), *args],
        check=True, env=env, capture_output=True, text=True,
    )


def _rows(path, header):
    lines = path.read_text().splitlines()
    assert lines[0] == header
    return len(lines) - 1


def test_figure_scripts(tmp_path):
    add, mult = tmp_path / "additive", tmp_path / "mult"
    _run("additive_figure_data.py", add, "--n", "200")
    _run("multiplicative_figure_data.py", mult, "--n", "60", "--steps", "100")

    # the scripts' default measures, times and grids
    mu = SpectralMeasure.real_atomic([-0.8, 0.8], [0.25, 0.75])
    half = 0.8 + 2.0 * np.sqrt(1.0)
    grid = np.linspace(-half, half, 801)
    inside = int(np.count_nonzero(additive_profile(mu, 1.0, grid).v > 0))
    assert _rows(add / "eigenvalues.csv", "re,im") == 200
    assert _rows(add / "support_curve.csv", "a,v,minus_v") == 801
    assert _rows(add / "pushforward.csv", "value") == 200
    assert _rows(add / "law.csv", "y,p") == inside

    circle = SpectralMeasure.circle_atomic([2 * np.pi / 5, 3 * np.pi / 4], [1 / 3, 2 / 3])
    arc = int(np.count_nonzero(multiplicative_profile(circle, 0.8, 1441).r < 1.0))
    assert _rows(mult / "eigenvalues.csv", "re,im") == 60
    assert _rows(mult / "boundary_curves.csv", "theta,inner_re,inner_im,outer_re,outer_im") == 1441
    assert _rows(mult / "pushforward_arg.csv", "phi") == 60
    assert _rows(mult / "law.csv", "phi,p") == arc
