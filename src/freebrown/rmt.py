"""Finite-N Monte-Carlo counterparts of the two Brown-measure flows.

Additive model: a deterministic diagonal encoding the atomic measure plus a
Ginibre-type matrix whose entries carry total variance t/n (real and
imaginary parts independent with variance t/2n each).

Multiplicative model: a unitary initial condition times the geometric Euler
discretization G <- G exp(dZ_k) of dG = G dZ, with dZ_k independent complex
Gaussian matrices of entry variance (t/steps)/n. The exponential keeps every
step exactly invertible, so |det| bookkeeping stays multiplicative.

Sampling is bitwise deterministic per seed (numpy default_rng).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .additive import AdditiveProfile
from .errors import (
    EigenSolverFailure,
    MismatchedModel,
    NonpositiveTime,
    NumericalError,
    ValidationError,
)
from .measures import SpectralMeasure
from .multiplicative import MultiplicativeProfile

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Eigenvalues of one finite-N sample plus the sampling metadata."""

    eigenvalues: np.ndarray
    n: int
    t: float
    model: str
    seed: int
    steps: int | None = None


@dataclass(frozen=True)
class ComparisonReport:
    """Sup-discrepancy between an empirical and a computed marginal CDF."""

    model: str
    n: int
    t: float
    marginal: str
    distance: float
    bins: int


def allocate_atom_counts(weights, n: int) -> np.ndarray:
    """Largest-remainder allocation of n slots to the atom weights."""
    weights = np.asarray(weights, dtype=float)
    raw = weights * n
    counts = np.floor(raw).astype(int)
    short = n - counts.sum()
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre with the R diagonal
    phase-normalized (plain QR is not Haar)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[None, :]


def _norm2_estimate(a, iters=12):
    """Power-iteration estimate of the spectral norm (on a^H a)."""
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    ah = a.conj().T
    est = 0.0
    for _ in range(iters):
        w = ah @ (a @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        est = math.sqrt(nw)
        v = w / nw
    return est


#: relative backward-error target of the truncated Taylor series
TAYLOR_TARGET = 1e-15


def expm(a: np.ndarray) -> np.ndarray:
    """Dense matrix exponential by scaling-and-squaring with a truncated
    Taylor kernel; the order m is chosen so the series remainder is below
    ``TAYLOR_TARGET`` relative backward error.

    The norm driving the bound is min(1-norm, 1.2 * spectral-norm estimate):
    the safety-factored power-iteration value is much tighter for the nearly
    iid Gaussian increments this is used on. Scaling makes that norm at most
    0.5, so m stays below ~15.

    The degree-m Taylor polynomial is evaluated by Paterson-Stockmeyer: with
    p = ceil(sqrt(m)) and the powers b^0..b^p in one stack, it is Horner in
    b^p over coefficient blocks sum_j b^j / (ip + j)!, each block one
    contraction of the 1/k! slice against the stack. That takes
    p - 1 + floor(m / p) products (one fewer when p divides m) instead of
    m - 1; at m = 12, 5 instead of 11.

    Raises ``NumericalError`` when ``a`` has a NaN or infinite entry.
    """
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise NumericalError("expm: input matrix has non-finite entries")
    n = a.shape[0]
    nrm = min(np.linalg.norm(a, 1), 1.2 * _norm2_estimate(a))
    s = 0
    while nrm / (2.0**s) > 0.5:
        s += 1
    bn = nrm / (2.0**s)
    # smallest order with remainder bound sum_{k>m} bn^k/k! <= target
    m, term = 1, bn
    while True:
        m += 1
        term *= bn / m
        if term / (1.0 - bn / (m + 2)) <= TAYLOR_TARGET:
            break
    p = math.isqrt(m - 1) + 1
    q, r = divmod(m, p)
    if r == 0:  # fold the scalar top block c_m I into the block below
        q, r = q - 1, p
    coef = 1.0 / np.cumprod(np.maximum(np.arange(m + 1.0), 1.0))  # 1/k!
    powers = np.empty((p + 1, n, n), dtype=complex)
    powers[0] = np.eye(n)
    np.multiply(a, 2.0**-s, out=powers[1])
    for j in range(2, p + 1):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    e = np.tensordot(coef[q * p :], powers[: r + 1], axes=1)
    for i in range(q - 1, -1, -1):
        e = e @ powers[p]
        e += np.tensordot(coef[i * p : (i + 1) * p], powers[:p], axes=1)
    for _ in range(s):
        e = e @ e
    return e


def _eigvals(mat):
    try:
        vals = np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverFailure(f"eigvals failed: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise EigenSolverFailure("eigensolver returned non-finite values")
    return vals


def additive_matrix(mu: SpectralMeasure, n: int, t: float, seed: int) -> np.ndarray:
    """X + Z: the diagonal atomic part plus the Ginibre part."""
    mu.require_real("additive_matrix")
    if n < 2:
        raise ValidationError("n must be >= 2")
    if not t > 0:
        raise NonpositiveTime(f"t must be > 0, got {t}")
    rng = np.random.default_rng(seed)
    counts = allocate_atom_counts(mu.weights, n)
    diag = np.repeat(mu.locations, counts).astype(complex)
    sd = math.sqrt(t / (2.0 * n))
    z = sd * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    z[np.diag_indices(n)] += diag
    return z


def sample_additive(mu: SpectralMeasure, n: int, t: float, seed: int) -> EmpiricalSpectrum:
    """Eigenvalues of X + Z(t)."""
    mat = additive_matrix(mu, n, t, seed)
    return EmpiricalSpectrum(_eigvals(mat), n, t, ADDITIVE, seed, None)


def multiplicative_flow(mu: SpectralMeasure, n: int, t: float, steps: int, seed: int):
    """(U @ G, expected log|det|) after ``steps`` geometric Euler increments.

    The expected log|det| is sum_k Re tr dZ_k, since det exp(dZ) =
    exp(tr dZ) and |det U| = 1; it is what |det(U G)| must reproduce.
    """
    mu.require_circle("multiplicative_flow")
    if n < 2:
        raise ValidationError("n must be >= 2")
    if steps < 100:
        raise ValidationError("steps must be >= 100")
    if not t > 0:
        raise NonpositiveTime(f"t must be > 0, got {t}")
    rng = np.random.default_rng(seed)
    if mu.is_haar:
        u = haar_unitary(n, rng)
    else:
        counts = allocate_atom_counts(mu.weights, n)
        u = np.diag(np.exp(1j * np.repeat(mu.locations, counts)))
    g = np.eye(n, dtype=complex)
    sd = math.sqrt(t / steps / (2.0 * n))
    log_abs_det = 0.0
    for _ in range(steps):
        dz = sd * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        log_abs_det += float(np.trace(dz).real)
        g = g @ expm(dz)
    return u @ g, log_abs_det


def sample_multiplicative(
    mu: SpectralMeasure, n: int, t: float, steps: int, seed: int
) -> EmpiricalSpectrum:
    """Eigenvalues of U G(t)."""
    mat, _ = multiplicative_flow(mu, n, t, steps, seed)
    return EmpiricalSpectrum(_eigvals(mat), n, t, MULTIPLICATIVE, seed, steps)


# -- marginal comparisons ------------------------------------------------------

REAL_PART = "real-part"
ARGUMENT = "argument"
RADIUS = "radius"


def _cumtrapz(y, x):
    inc = 0.5 * (y[1:] + y[:-1]) * np.diff(x)
    return np.concatenate(([0.0], np.cumsum(inc)))


def _ecdf(samples, at):
    samples = np.sort(samples)
    return np.searchsorted(samples, at, side="right") / len(samples)


def compare_marginal(
    spectrum: EmpiricalSpectrum, profile, marginal: str
) -> ComparisonReport:
    """Sup over a grid of |empirical CDF - profile CDF| for one marginal.

    real-part (additive): density 2 v_t w_t on the profile grid.
    argument (multiplicative): density a_t on the angle grid.
    radius (multiplicative): CDF(r) = int w_t(theta) log(min(r, 1/r_t)/r_t)+
    dtheta, on a uniform radius grid spanning the support annulus.
    """
    if marginal == REAL_PART:
        if spectrum.model != ADDITIVE or not isinstance(profile, AdditiveProfile):
            raise MismatchedModel("real-part marginal needs an additive pair")
        if len(profile.grid) == 0:
            raise MismatchedModel("empty profile grid")
        cdf = _cumtrapz(2.0 * profile.v * profile.w, profile.grid)
        emp = _ecdf(spectrum.eigenvalues.real, profile.grid)
        dist = float(np.max(np.abs(emp - cdf)))
        bins = len(profile.grid)
    elif marginal == ARGUMENT:
        if spectrum.model != MULTIPLICATIVE or not isinstance(profile, MultiplicativeProfile):
            raise MismatchedModel("argument marginal needs a multiplicative pair")
        if len(profile.thetas) == 0:
            raise MismatchedModel("empty profile grid")
        cdf = _cumtrapz(profile.arg_density, profile.thetas)
        emp = _ecdf(np.angle(spectrum.eigenvalues), profile.thetas)
        dist = float(np.max(np.abs(emp - cdf)))
        bins = len(profile.thetas)
    elif marginal == RADIUS:
        if spectrum.model != MULTIPLICATIVE or not isinstance(profile, MultiplicativeProfile):
            raise MismatchedModel("radius marginal needs a multiplicative pair")
        if len(profile.thetas) == 0:
            raise MismatchedModel("empty profile grid")
        r_in = float(np.min(profile.r))
        bins = 800
        radii = np.linspace(0.97 * r_in, 1.03 / r_in, bins)
        hit = profile.r < 1.0
        rt = profile.r[hit]
        wt = profile.w[hit]
        # log(min(r, 1/r_t)/r_t) clipped below at 0, per radius grid row
        gain = np.clip(
            np.log(np.minimum(radii[:, None], 1.0 / rt[None, :]))
            - np.log(rt[None, :]),
            0.0,
            None,
        )
        full = np.zeros((bins, len(profile.thetas)))
        full[:, hit] = wt[None, :] * gain
        cdf = np.trapezoid(full, profile.thetas, axis=1)
        emp = _ecdf(np.abs(spectrum.eigenvalues), radii)
        dist = float(np.max(np.abs(emp - cdf)))
    else:
        raise ValidationError(f"unknown marginal {marginal!r}")
    return ComparisonReport(spectrum.model, spectrum.n, spectrum.t, marginal, dist, bins)


def spectrum_metadata(spectrum: EmpiricalSpectrum) -> dict:
    return {
        "model": spectrum.model,
        "n": spectrum.n,
        "t": spectrum.t,
        "seed": spectrum.seed,
        "steps": spectrum.steps,
    }


def load_spectrum(path, meta: dict) -> EmpiricalSpectrum:
    """Eigenvalues written by ``simulate``: CSV rows re,im, or the JSON list
    of {"re", "im"} objects of ``--format json``."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        if text.lstrip().startswith("["):
            data = [(row["re"], row["im"]) for row in json.loads(text)]
        else:
            data = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1)
        data = np.atleast_2d(np.asarray(data, dtype=float))
        eig = data[:, 0] + 1j * data[:, 1]
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        raise ValidationError(f"unreadable spectrum file {path}: {exc}") from exc
    try:
        return EmpiricalSpectrum(
            eig,
            int(meta["n"]),
            float(meta["t"]),
            str(meta["model"]),
            int(meta["seed"]),
            None if meta.get("steps") is None else int(meta["steps"]),
        )
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ValidationError(f"bad spectrum metadata for {path}: {exc!r}") from exc
