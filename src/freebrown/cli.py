"""Command-line front end.

Subcommands: ``additive density|law``, ``mult density|law``,
``simulate additive|mult``, ``compare``, ``check haar``. The parsed
arguments are the run's config: each command's parser names its driver.
Every run with ``--out`` writes a reproducibility manifest next to its
outputs (the command and its parser's options, defaults applied, plus
versions), CSV floats are fixed at 17 significant digits so identical
configs give byte-identical files, and a one-line summary (mass/bounds
checks) goes to stdout. Validation problems exit 2, numerical failures
(including non-finite rows, a density mass or a ``check haar`` discrepancy
past ``MASS_TOL``) exit 3, with a machine-readable ``{"error": ...}`` on
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
from dataclasses import asdict
from functools import cache

import numpy as np

from . import __version__, additive, multiplicative, rmt
from ._boundary import check_time
from .errors import NumericalError, ValidationError
from .measures import load_measure

DEFAULT_ADDITIVE_POINTS = 801
DEFAULT_N_THETA = 1441
#: a density run whose total mass misses 1 by more than this fails, and so
#: does ``check haar`` whose two radial CDFs differ by more than this
MASS_TOL = 1e-6


def _check_args(args):
    """Checks on the parsed options, ahead of every driver: t among them,
    since ``parse_grid`` reads it before the package checks it."""
    if getattr(args, "t", None) is not None:
        check_time(args.t)
    if getattr(args, "n_theta", DEFAULT_N_THETA) < 16:
        raise ValidationError("n_theta must be >= 16")
    if args.out == "":
        raise ValidationError("output path must be nonempty")


def parse_grid(spec, mu, t):
    """'lo:hi:n' -> linspace; default +-(max|x| + 2 sqrt(t)) with 801 points."""
    if spec is None:
        half = float(np.max(np.abs(mu.locations))) + 2.0 * np.sqrt(t)
        return np.linspace(-half, half, DEFAULT_ADDITIVE_POINTS)
    try:
        lo_s, hi_s, n_s = spec.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise ValidationError(f"bad grid spec {spec!r}, want lo:hi:n") from exc
    if n < 16 or not hi > lo:
        raise ValidationError("grid needs hi > lo and n >= 16")
    if not math.isfinite(hi - lo):  # an infinite bound, or a span past the floats
        raise ValidationError(f"grid {spec!r} needs finite bounds and a finite span hi - lo")
    return np.linspace(lo, hi, n)


def _checked_mass(mass):
    if not abs(mass - 1.0) <= MASS_TOL:
        raise NumericalError(
            f"mass={mass:.9f} misses 1 by more than {MASS_TOL:g}: "
            "the support may extend past the grid"
        )
    return mass


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(args):
    """``command`` and the options of its own parser, defaults applied: the
    namespace less the subparser dests and the driver."""
    config = {k: v for k, v in vars(args).items() if k not in ("topcmd", "subcmd", "run")}
    _write_json(
        f"{args.out}.manifest.json",
        {
            "config": config,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "freebrown": __version__,
            },
        },
    )


def write_rows(path, header, columns):
    """Equal-length float columns as CSV at 17 significant digits (the
    whole block in one %-format)."""
    block = np.column_stack(columns)
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


# -- subcommand drivers --------------------------------------------------------


def _run_additive(args):
    mu = load_measure(args.measure_path)
    mu.require_real(args.command)
    grid = parse_grid(args.grid, mu, args.t)
    profile = additive.additive_profile(mu, args.t, grid)
    if args.command == "additive-density":
        mass = _checked_mass(additive.total_mass(profile))
        write_rows(
            args.out, ["a", "v", "w", "psi"], [profile.grid, profile.v, profile.w, profile.psi]
        )
        intervals = profile.support_intervals  # cached by the mass; JSON writes tuples as lists
        _write_json(f"{args.out}.intervals.json", {"t": args.t, "intervals": intervals})
        max_w = float(np.max(profile.w))
        bound = 2.0 / (np.pi * args.t)
        print(
            f"additive-density: mass={mass:.9f} (target 1+-{MASS_TOL:g}) "
            f"max_w={max_w:.6g} bound={bound:.6g} "
            f"intervals={len(intervals)}"
        )
    else:  # additive-law
        hit = profile.v > 0.0
        ys = profile.psi[hit]
        ps = profile.v[hit] / (np.pi * args.t)
        write_rows(args.out, ["a", "y", "p"], [profile.grid[hit], ys, ps])
        peak = float(np.max(ps)) if len(ps) else 0.0
        print(f"additive-law: points={int(hit.sum())} peak_density={peak:.6g}")


def _run_mult(args):
    mu = load_measure(args.measure_path)
    mu.require_circle(args.command)
    profile = multiplicative.multiplicative_profile(mu, args.t, args.n_theta)
    if args.command == "mult-density":
        mass = _checked_mass(multiplicative.total_mass(profile))
        write_rows(
            args.out, ["theta", "r", "phi", "w", "arg_density"],
            [profile.thetas, profile.r, profile.phi, profile.w, profile.arg_density],
        )
        _write_json(f"{args.out}.arcs.json", {"t": args.t, "arcs": profile.u_components})
        max_w = float(np.max(profile.w))
        bound = 1.0 / (np.pi * args.t)
        print(
            f"mult-density: mass={mass:.9f} (target 1+-{MASS_TOL:g}) "
            f"max_w={max_w:.6g} bound={bound:.6g} arcs={len(profile.u_components)}"
        )
    else:  # mult-law
        hit = profile.r < 1.0
        ps = -np.log(profile.r[hit]) / (np.pi * args.t)
        write_rows(args.out, ["theta", "phi", "p"], [profile.thetas[hit], profile.phi[hit], ps])
        print(f"mult-law: points={int(hit.sum())}")


def _run_simulate(args):
    mu = load_measure(args.measure_path)
    if args.command == "simulate-additive":
        spectrum = rmt.sample_additive(mu, args.n, args.t, args.seed)
    else:
        spectrum = rmt.sample_multiplicative(mu, args.n, args.t, args.steps, args.seed)
    eig = spectrum.eigenvalues
    write_rows(args.out, ["re", "im"], [eig.real, eig.imag])
    _write_json(f"{args.out}.meta.json", rmt.spectrum_metadata(spectrum))
    mean = spectrum.eigenvalues.mean()
    print(f"{args.command}: n={spectrum.n} mean={mean.real:.6g}{mean.imag:+.6g}i")


def _run_compare(args):
    mu = load_measure(args.measure_path)
    with open(f"{args.spectrum}.meta.json", "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    spectrum = rmt.load_spectrum(args.spectrum, meta)
    if spectrum.model == rmt.ADDITIVE:
        mu.require_real("compare")
        grid = parse_grid(args.grid, mu, spectrum.t)
        profile = additive.additive_profile(mu, spectrum.t, grid)
    else:
        profile = multiplicative.multiplicative_profile(mu, spectrum.t, args.n_theta)
    report = rmt.compare_marginal(spectrum, profile, args.marginal)
    if args.out:
        _write_json(args.out, asdict(report))
    print(
        f"compare: model={report.model} marginal={report.marginal} "
        f"distance={report.distance:.6f} bins={report.bins}"
    )


def _run_check_haar(args):
    check = multiplicative.haar_annulus_check(args.t)
    # the radial CDF is the mass inside a radius: it takes the mass gate
    if not check.max_discrepancy <= MASS_TOL:
        raise NumericalError(
            f"check-haar: max_discrepancy={check.max_discrepancy:.3e} exceeds "
            f"{MASS_TOL:g} at t={args.t}"
        )
    if args.out:
        _write_json(args.out, {k: np.asarray(v).tolist() for k, v in asdict(check).items()})
    print(f"check-haar: t={args.t} max_discrepancy={check.max_discrepancy:.3e}")


# -- argument parsing ------------------------------------------------------------


@cache
def _build_parser():
    """The argument parser, built on first use and shared by every later
    ``main`` call in the process (parsing leaves it unchanged). It is the one
    list of options, defaults and drivers: each command's parser sets its
    ``command`` name and ``run`` driver."""
    p = argparse.ArgumentParser(
        prog="freebrown",
        description="Brown measures of free Brownian motions: densities, "
        "push-forward laws, finite-N simulations, comparisons.",
    )
    sub = p.add_subparsers(dest="topcmd", required=True)

    def add_common(sp):
        sp.add_argument("--measure", dest="measure_path", metavar="MEASURE", required=True,
                        help="measure JSON file")
        sp.add_argument("--t", type=float, required=True, help="flow time > 0")
        sp.add_argument("--out", required=True, help="output path")

    padd = sub.add_parser("additive", help="additive-flow Brown measure")
    sadd = padd.add_subparsers(dest="subcmd", required=True)
    for name in ("density", "law"):
        sp = sadd.add_parser(name)
        sp.set_defaults(command=f"additive-{name}", run=_run_additive)
        add_common(sp)
        sp.add_argument("--grid", help="lo:hi:n (default +-(max|x|+2 sqrt(t)):801)")

    pmul = sub.add_parser("mult", help="multiplicative-flow Brown measure")
    smul = pmul.add_subparsers(dest="subcmd", required=True)
    for name in ("density", "law"):
        sp = smul.add_parser(name)
        sp.set_defaults(command=f"mult-{name}", run=_run_mult)
        add_common(sp)
        sp.add_argument("--n-theta", type=int, default=DEFAULT_N_THETA,
                        help=f"angle count (default {DEFAULT_N_THETA})")

    psim = sub.add_parser("simulate", help="finite-N random-matrix sampling")
    ssim = psim.add_subparsers(dest="subcmd", required=True)
    for name in ("additive", "mult"):
        sp = ssim.add_parser(name)
        sp.set_defaults(command=f"simulate-{name}", run=_run_simulate)
        add_common(sp)
        sp.add_argument("--n", type=int, required=True, help="matrix size >= 2")
        sp.add_argument("--seed", type=int, required=True)
        if name == "mult":
            sp.add_argument("--steps", type=int, required=True, help="Euler steps >= 100")

    pcmp = sub.add_parser("compare", help="empirical vs computed marginal CDF")
    pcmp.set_defaults(command="compare", run=_run_compare)
    pcmp.add_argument("--spectrum", required=True, help="eigenvalue CSV from simulate")
    pcmp.add_argument("--measure", dest="measure_path", metavar="MEASURE", required=True)
    pcmp.add_argument("--marginal", required=True, choices=[rmt.REAL_PART, rmt.ARGUMENT, rmt.RADIUS])
    pcmp.add_argument("--grid", help="additive grid lo:hi:n")
    pcmp.add_argument("--n-theta", type=int, default=DEFAULT_N_THETA)
    pcmp.add_argument("--out", help="report JSON path")

    pchk = sub.add_parser("check", help="closed-form cross-checks")
    schk = pchk.add_subparsers(dest="subcmd", required=True)
    sp = schk.add_parser("haar")
    sp.set_defaults(command="check-haar", run=_run_check_haar)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--out", help="report JSON path")

    return p


def _merge_dash_values(argv):
    """Fold ``--grid -2:2:801`` into ``--grid=-2:2:801`` so argparse does not
    mistake the negative lower bound for an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--grid" and arg.startswith("-"):
            out[-1] = f"--grid={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_merge_dash_values(list(argv)))
    try:
        _check_args(args)
        args.run(args)
        if args.out:
            _write_manifest(args)
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
