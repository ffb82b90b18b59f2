#!/usr/bin/env python3
"""Data for the additive-flow figures: eigenvalue scatter of X + Z(t), the
support curves +-v_t(a), the push-forward of the eigenvalues to the real line
and the law of the semicircular flow superimposed on it.

Writes CSVs only; plot with any external tool, e.g.

    python scripts/additive_figure_data.py --out-dir out/additive
    # scatter:   out/additive/eigenvalues.csv   (re, im)
    # curves:    out/additive/support_curve.csv (a, v, minus_v)
    # histogram: out/additive/pushforward.csv   (value)
    # density:   out/additive/law.csv           (y, p)
"""

import argparse
import pathlib

import numpy as np

from freebrown.additive import additive_profile, psi_t_array
from freebrown.cli import parse_grid, write_rows
from freebrown.measures import SpectralMeasure
from freebrown.rmt import sample_additive


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--atoms", default="-0.8:0.25,0.8:0.75",
                    help="comma list of x:w atoms")
    ap.add_argument("--out-dir", default="out/additive")
    args = ap.parse_args()

    pairs = [tuple(map(float, item.split(":"))) for item in args.atoms.split(",")]
    mu = SpectralMeasure.real_atomic([p[0] for p in pairs], [p[1] for p in pairs])
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    spectrum = sample_additive(mu, args.n, args.t, args.seed)
    eig = spectrum.eigenvalues
    write_rows(out / "eigenvalues.csv", ["re", "im"], [eig.real, eig.imag])

    prof = additive_profile(mu, args.t, parse_grid(None, mu, args.t))
    write_rows(out / "support_curve.csv", ["a", "v", "minus_v"],
               [prof.grid, prof.v, -prof.v])

    # push the eigenvalues to the real line: Psi(a+ib) = psi_t(a)
    pushed = psi_t_array(mu, args.t, eig.real)
    write_rows(out / "pushforward.csv", ["value"], [pushed])

    hit = prof.v > 0
    write_rows(out / "law.csv", ["y", "p"],
               [prof.psi[hit], prof.v[hit] / (np.pi * args.t)])

    print(f"wrote {out}/eigenvalues.csv support_curve.csv pushforward.csv law.csv")


if __name__ == "__main__":
    main()
