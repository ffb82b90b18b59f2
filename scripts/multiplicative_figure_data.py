#!/usr/bin/env python3
"""Data for the multiplicative-flow figures: eigenvalue scatter of U G(t),
the boundary curves r_t(theta) e^{i theta} and (1/r_t) e^{i theta}, the
argument push-forward of the eigenvalues and the law of the unitary flow.

    python scripts/multiplicative_figure_data.py --out-dir out/mult
    # scatter: out/mult/eigenvalues.csv      (re, im)
    # curves:  out/mult/boundary_curves.csv  (theta, inner_re, inner_im, outer_re, outer_im)
    # hist:    out/mult/pushforward_arg.csv  (phi)
    # density: out/mult/law.csv              (phi, p)
"""

import argparse
import pathlib

import numpy as np

from freebrown.cli import DEFAULT_N_THETA, write_rows
from freebrown.measures import SpectralMeasure, reflect_circle_measure
from freebrown.multiplicative import multiplicative_profile, phi_of_theta_array
from freebrown.rmt import sample_multiplicative


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--t", type=float, default=0.8)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--steps", type=int, default=500)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--atoms", default=f"{2*np.pi/5}:{1/3},{3*np.pi/4}:{2/3}",
                    help="comma list of theta:w atoms; 'haar' for Haar")
    ap.add_argument("--n-theta", type=int, default=DEFAULT_N_THETA)
    ap.add_argument("--out-dir", default="out/mult")
    args = ap.parse_args()

    if args.atoms == "haar":
        mu = SpectralMeasure.haar()
    else:
        pairs = [tuple(map(float, it.split(":"))) for it in args.atoms.split(",")]
        mu = SpectralMeasure.circle_atomic([p[0] for p in pairs], [p[1] for p in pairs])
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    spectrum = sample_multiplicative(mu, args.n, args.t, args.steps, args.seed)
    eig = spectrum.eigenvalues
    write_rows(out / "eigenvalues.csv", ["re", "im"], [eig.real, eig.imag])

    prof = multiplicative_profile(mu, args.t, args.n_theta)
    unit = np.exp(1j * prof.thetas)
    inner, outer = prof.r * unit, unit / prof.r
    write_rows(
        out / "boundary_curves.csv",
        ["theta", "inner_re", "inner_im", "outer_re", "outer_im"],
        [prof.thetas, inner.real, inner.imag, outer.real, outer.imag],
    )

    # push the eigenvalue arguments through the boundary angle map
    phis = phi_of_theta_array(reflect_circle_measure(mu), args.t, np.angle(eig))
    write_rows(out / "pushforward_arg.csv", ["phi"], [phis])

    hit = prof.r < 1.0
    write_rows(out / "law.csv", ["phi", "p"],
               [prof.phi[hit], -np.log(prof.r[hit]) / (np.pi * args.t)])

    print(f"wrote {out}/eigenvalues.csv boundary_curves.csv pushforward_arg.csv law.csv")


if __name__ == "__main__":
    main()
