"""Command-line front end.

Subcommands: ``additive density|law``, ``mult density|law``,
``simulate additive|mult``, ``compare``, ``check haar``. Every run writes a
reproducibility manifest (full config + versions) next to its outputs, CSV
floats are fixed at 17 significant digits so identical configs give
byte-identical files, and a one-line summary (mass/bounds checks) goes to
stdout. Validation problems exit 2, numerical failures exit 3, with a
machine-readable ``{"error": ...}`` on stderr.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__, additive, multiplicative, rmt
from .errors import NumericalError, ValidationError
from .measures import load_measure

DEFAULT_ADDITIVE_POINTS = 801
DEFAULT_N_THETA = 1441
#: a density run whose total mass misses 1 by more than this fails
MASS_TOL = 1e-6


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation; serialized verbatim into the manifest."""

    command: str
    measure_path: str | None = None
    t: float | None = None
    grid: str | None = None
    n_theta: int | None = None
    n: int | None = None
    steps: int | None = None
    seed: int | None = None
    out: str | None = None
    spectrum: str | None = None
    marginal: str | None = None
    format: str = "csv"

    def validate(self):
        if self.t is not None and not self.t > 0:
            raise ValidationError(f"t must be > 0, got {self.t}")
        if self.n_theta is not None and self.n_theta < 16:
            raise ValidationError("n_theta must be >= 16")
        if self.out is not None and not str(self.out):
            raise ValidationError("output path must be nonempty")


def _parse_grid(spec, mu, t):
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


def _write_manifest(out, config: RunConfig):
    _write_json(
        f"{out}.manifest.json",
        {
            "config": asdict(config),
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "freebrown": __version__,
            },
        },
    )


def _write_rows(out, fmt, header, rows):
    """rows: iterable of float tuples; CSV at 17 significant digits, or a
    JSON list of objects keyed by the header names."""
    if fmt == "csv":
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(f"{x:.17g}" for x in row) + "\n")
    else:
        payload = [dict(zip(header, (float(x) for x in row))) for row in rows]
        _write_json(out, payload)


# -- subcommand drivers --------------------------------------------------------


def _run_additive(config: RunConfig):
    mu = load_measure(config.measure_path)
    mu.require_real(config.command)
    grid = _parse_grid(config.grid, mu, config.t)
    profile = additive.additive_profile(mu, config.t, grid)
    if config.command == "additive-density":
        mass = _checked_mass(additive.total_mass(profile))
        _write_rows(config.out, config.format, ["a", "v", "w", "psi"], iter(profile))
        _write_json(f"{config.out}.intervals.json", additive.support_sidecar(profile))
        max_w = float(np.max(profile.w)) if len(profile.w) else 0.0
        bound = 2.0 / (np.pi * config.t)
        print(
            f"additive-density: mass={mass:.9f} (target 1+-{MASS_TOL:g}) "
            f"max_w={max_w:.6g} bound={bound:.6g} "
            f"intervals={len(profile.support_intervals)}"
        )
    else:  # additive-law
        hit = profile.v > 0.0
        ys = profile.psi[hit]
        ps = profile.v[hit] / (np.pi * config.t)
        _write_rows(
            config.out, config.format, ["a", "y", "p"],
            zip(profile.grid[hit], ys, ps),
        )
        peak = float(np.max(ps)) if len(ps) else 0.0
        print(f"additive-law: points={int(hit.sum())} peak_density={peak:.6g}")
    _write_manifest(config.out, config)
    return 0


def _run_mult(config: RunConfig):
    mu = load_measure(config.measure_path)
    mu.require_circle(config.command)
    n_theta = config.n_theta or DEFAULT_N_THETA
    profile = multiplicative.multiplicative_profile(mu, config.t, n_theta)
    if config.command == "mult-density":
        mass = _checked_mass(multiplicative.total_mass(profile))
        _write_rows(
            config.out, config.format,
            ["theta", "r", "phi", "w", "arg_density"], iter(profile),
        )
        _write_json(f"{config.out}.arcs.json", multiplicative.arcs_sidecar(profile))
        max_w = float(np.max(profile.w)) if len(profile.w) else 0.0
        bound = 1.0 / (np.pi * config.t)
        print(
            f"mult-density: mass={mass:.9f} (target 1+-{MASS_TOL:g}) "
            f"max_w={max_w:.6g} bound={bound:.6g} arcs={len(profile.u_components)}"
        )
    else:  # mult-law
        hit = profile.r < 1.0
        ps = -np.log(profile.r[hit]) / (np.pi * config.t)
        _write_rows(
            config.out, config.format, ["theta", "phi", "p"],
            zip(profile.thetas[hit], profile.phi[hit], ps),
        )
        print(f"mult-law: points={int(hit.sum())}")
    _write_manifest(config.out, config)
    return 0


def _run_simulate(config: RunConfig):
    mu = load_measure(config.measure_path)
    if config.command == "simulate-additive":
        spectrum = rmt.sample_additive(mu, config.n, config.t, config.seed)
    else:
        spectrum = rmt.sample_multiplicative(
            mu, config.n, config.t, config.steps, config.seed
        )
    if config.format == "csv":
        rmt.write_spectrum_csv(spectrum, config.out)
    else:
        _write_rows(
            config.out, "json", ["re", "im"],
            ((lam.real, lam.imag) for lam in spectrum.eigenvalues),
        )
    _write_json(f"{config.out}.meta.json", rmt.spectrum_metadata(spectrum))
    _write_manifest(config.out, config)
    mean = spectrum.eigenvalues.mean()
    print(
        f"{config.command}: n={spectrum.n} mean={mean.real:.6g}{mean.imag:+.6g}i"
    )
    return 0


def _run_compare(config: RunConfig):
    mu = load_measure(config.measure_path)
    with open(f"{config.spectrum}.meta.json", "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    spectrum = rmt.load_spectrum(config.spectrum, meta)
    if spectrum.model == rmt.ADDITIVE:
        mu.require_real("compare")
        grid = _parse_grid(config.grid, mu, spectrum.t)
        profile = additive.additive_profile(mu, spectrum.t, grid)
    else:
        profile = multiplicative.multiplicative_profile(
            mu, spectrum.t, config.n_theta or DEFAULT_N_THETA
        )
    report = rmt.compare_marginal(spectrum, profile, config.marginal)
    payload = asdict(report)
    if config.out:
        _write_json(config.out, payload)
        _write_manifest(config.out, config)
    print(
        f"compare: model={report.model} marginal={report.marginal} "
        f"distance={report.distance:.6f} bins={report.bins}"
    )
    return 0


def _run_check_haar(config: RunConfig):
    check = multiplicative.haar_annulus_check(config.t)
    payload = {
        "t": check.t,
        "radii": [float(r) for r in check.radii],
        "cdf_stransform": [float(c) for c in check.cdf_stransform],
        "cdf_radial": [float(c) for c in check.cdf_radial],
        "max_discrepancy": check.max_discrepancy,
    }
    if config.out:
        _write_json(config.out, payload)
        _write_manifest(config.out, config)
    print(f"check-haar: t={config.t} max_discrepancy={check.max_discrepancy:.3e}")
    return 0


# -- argument parsing ------------------------------------------------------------


def _build_parser():
    p = argparse.ArgumentParser(
        prog="freebrown",
        description="Brown measures of free Brownian motions: densities, "
        "push-forward laws, finite-N simulations, comparisons.",
    )
    sub = p.add_subparsers(dest="topcmd", required=True)

    def add_common(sp, *, measure=True, t=True, out_required=True):
        if measure:
            sp.add_argument("--measure", required=True, help="measure JSON file")
        if t:
            sp.add_argument("--t", type=float, required=True, help="flow time > 0")
        sp.add_argument("--out", required=out_required, help="output path")
        sp.add_argument("--format", choices=["csv", "json"], default="csv")

    padd = sub.add_parser("additive", help="additive-flow Brown measure")
    sadd = padd.add_subparsers(dest="subcmd", required=True)
    for name in ("density", "law"):
        sp = sadd.add_parser(name)
        add_common(sp)
        sp.add_argument("--grid", help="lo:hi:n (default +-(max|x|+2 sqrt(t)):801)")

    pmul = sub.add_parser("mult", help="multiplicative-flow Brown measure")
    smul = pmul.add_subparsers(dest="subcmd", required=True)
    for name in ("density", "law"):
        sp = smul.add_parser(name)
        add_common(sp)
        sp.add_argument("--n-theta", type=int, help=f"angle count (default {DEFAULT_N_THETA})")

    psim = sub.add_parser("simulate", help="finite-N random-matrix sampling")
    ssim = psim.add_subparsers(dest="subcmd", required=True)
    for name in ("additive", "mult"):
        sp = ssim.add_parser(name)
        add_common(sp)
        sp.add_argument("--n", type=int, required=True, help="matrix size >= 2")
        sp.add_argument("--seed", type=int, required=True)
        if name == "mult":
            sp.add_argument("--steps", type=int, required=True, help="Euler steps >= 100")

    pcmp = sub.add_parser("compare", help="empirical vs computed marginal CDF")
    pcmp.add_argument("--spectrum", required=True, help="eigenvalue CSV from simulate")
    pcmp.add_argument("--measure", required=True)
    pcmp.add_argument("--marginal", required=True, choices=[rmt.REAL_PART, rmt.ARGUMENT, rmt.RADIUS])
    pcmp.add_argument("--grid", help="additive grid lo:hi:n")
    pcmp.add_argument("--n-theta", type=int)
    pcmp.add_argument("--out", help="report JSON path")
    pcmp.add_argument("--format", choices=["csv", "json"], default="json")

    pchk = sub.add_parser("check", help="closed-form cross-checks")
    schk = pchk.add_subparsers(dest="subcmd", required=True)
    sp = schk.add_parser("haar")
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--out", help="report JSON path")
    sp.add_argument("--format", choices=["csv", "json"], default="json")

    return p


def _config_from_args(args) -> RunConfig:
    sub = getattr(args, "subcmd", None)
    command = f"{args.topcmd}-{sub}" if sub else args.topcmd
    return RunConfig(
        command=command,
        measure_path=getattr(args, "measure", None),
        t=getattr(args, "t", None),
        grid=getattr(args, "grid", None),
        n_theta=getattr(args, "n_theta", None),
        n=getattr(args, "n", None),
        steps=getattr(args, "steps", None),
        seed=getattr(args, "seed", None),
        out=getattr(args, "out", None),
        spectrum=getattr(args, "spectrum", None),
        marginal=getattr(args, "marginal", None),
        format=getattr(args, "format", "csv"),
    )


_DRIVERS = {
    "additive-density": _run_additive,
    "additive-law": _run_additive,
    "mult-density": _run_mult,
    "mult-law": _run_mult,
    "simulate-additive": _run_simulate,
    "simulate-mult": _run_simulate,
    "compare": _run_compare,
    "check-haar": _run_check_haar,
}


def _merge_dash_values(argv):
    """Fold ``--grid -2:2:801`` into ``--grid=-2:2:801`` so argparse does not
    mistake the negative lower bound for an option."""
    out = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg == "--grid" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"--grid={argv[i + 1]}")
            skip = True
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_merge_dash_values(list(argv)))
    config = _config_from_args(args)
    try:
        config.validate()
        return _DRIVERS[config.command](config)
    except (ValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
