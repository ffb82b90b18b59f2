"""Finite-N Monte-Carlo counterparts of the two Brown-measure flows.

Additive model: a deterministic diagonal encoding the atomic measure plus a
Ginibre-type matrix whose entries carry total variance t/n (real and
imaginary parts independent with variance t/2n each).

Multiplicative model: a unitary initial condition times the geometric Euler
discretization G <- G exp(dZ_k) of dG = G dZ, with dZ_k independent complex
Gaussian matrices of entry variance (t/steps)/n. The exponential keeps every
step exactly invertible, so |det| bookkeeping stays multiplicative. One
worker thread computes each step's exponential while the calling thread
multiplies the step before into G; the products keep their step order, so
the sample is the sequential loop's to the bit. One worker, not more, keeps
the exponentials in step order and one step ahead at most.

Sampling is bitwise deterministic per seed (numpy default_rng).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._boundary import check_time
from .additive import AdditiveProfile
from .errors import NumericalError, ValidationError
from .measures import SpectralMeasure
from .multiplicative import MultiplicativeProfile, radius_cdf

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


#: relative backward-error target of the truncated Taylor series
TAYLOR_TARGET = 1e-15
#: sum_{k>12} theta^k / k! equals TAYLOR_TARGET at theta = THETA_12
THETA_12 = 0.3968270828103145

#: b_ij of T_12(A) = B_0 + (B_1 + B_2')B_2', B_2' = B_2 + B_3^2, B_i = sum_j b_ij A^j
#: (Bader, Blanes and Casas, Mathematics 7, 2019); b_00 is set below
_T12 = np.array([
    [0.0, 0.46932117595418237389, -0.20099424927047284052, -0.04623946134063071740],
    [5.31597895759871264183, 1.19926790417132231573, 0.01179296240992997031, 0.01108844528519167989],
    [0.18188869982170434744, 0.05502798439925399070, 0.09351590770535414968, 0.00610700528898058230],
    [-2.0861320e-13, -0.13181061013830184015, -0.02027855540589259079, -0.00675951846863086359],
])
# in expm's evaluation order, so the constant term is exactly 1 and expm(0) == I
_T12[0, 0] = 1.0 - (_T12[1, 0] + (_T12[2, 0] + _T12[3, 0] ** 2)) * (_T12[2, 0] + _T12[3, 0] ** 2)


def expm(a: np.ndarray) -> np.ndarray:
    """Dense matrix exponential: scaling-and-squaring over the degree-12
    Taylor polynomial T_12 of ``_T12``, in four products (A^2, A^3, B_3^2 and
    the last); the B_i are one real contraction against [A, A^2, A^3].

    s is the smallest scaling with alpha_2 / 2^s <= ``THETA_12``, where
    alpha_2 = max(||A^2||_1^(1/2), ||A^3||_1^(1/3)) bounds the Taylor tail
    below ``TAYLOR_TARGET`` (Al-Mohy and Higham, SIAM J. Matrix Anal. Appl.
    31, 2009, Thm 4.2); column j of the coefficients takes the 2^(-js).
    Flow increments at n = 160 and n = 500 have alpha_2 of about 0.36 and
    0.21, so s = 0 there.

    Raises ``NumericalError`` when ``a`` or the result has a NaN or
    infinite entry.
    """
    a = np.asarray(a)
    n = a.shape[0]
    powers = np.empty((3, n, n), dtype=complex)
    powers[0] = a
    big = np.abs(powers[0].view(float)).max()  # NaN or inf iff an entry is
    if not math.isfinite(big):
        raise NumericalError("expm: input matrix has non-finite entries")
    # 2 n big >= ||A||_1; pre-scaling to ||A||_1 < 2^256 keeps A^3 (entries
    # <= ||A||_1^3) from overflowing and 2^(-3s) a normal float
    pre = max(0, math.frexp(2.0 * n * big)[1] - 256)
    if pre:
        powers[0] *= 2.0**-pre
    np.matmul(powers[0], powers[0], out=powers[1])
    np.matmul(powers[1], powers[0], out=powers[2])
    alpha = max(np.linalg.norm(powers[1], 1) ** 0.5, np.linalg.norm(powers[2], 1) ** (1.0 / 3.0))
    s = 0
    while alpha / (2.0**s) > THETA_12:
        s += 1
    coef = _T12[:, 1:] * 2.0 ** (-s * np.arange(1.0, 4.0))
    b = (coef @ powers.view(float).reshape(3, -1)).view(complex).reshape(4, n, n)
    b.reshape(4, -1)[:, :: n + 1] += _T12[:, :1]
    b[2] += b[3] @ b[3]
    b[1] += b[2]
    e = b[1] @ b[2]
    e += b[0]
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        for _ in range(s + pre):
            e = e @ e
    if not np.all(np.isfinite(e)):
        raise NumericalError("expm: result has non-finite entries")
    return e


def _eigvals(mat):
    """Eigenvalues sorted lexicographically on (re, im), so spectra of two
    nearby matrices compare row by row whatever order LAPACK returns."""
    try:
        vals = np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigvals failed: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise NumericalError("eigensolver returned non-finite values")
    return np.sort(vals)


def additive_matrix(mu: SpectralMeasure, n: int, t: float, seed: int) -> np.ndarray:
    """X + Z: the diagonal atomic part plus the Ginibre part."""
    mu.require_real("additive_matrix")
    if n < 2:
        raise ValidationError("n must be >= 2")
    check_time(t)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
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

    The exponentials run on one worker thread while this thread draws the
    increments and multiplies G @ exp(dZ_k) in step order, so expm(dZ_{k+1})
    overlaps the product of step k. The worker is one thread, never more:
    it keeps the expm calls in step order and at most one exponential ahead
    of the product, so the result is the sequential loop's, bit for bit.
    A ``NumericalError`` of expm is raised here, after the worker has
    stopped.
    """
    from concurrent.futures import ThreadPoolExecutor  # kept off the CLI's import

    mu.require_circle("multiplicative_flow")
    if n < 2:
        raise ValidationError("n must be >= 2")
    if steps < 100:
        raise ValidationError("steps must be >= 100")
    check_time(t)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    if mu.is_haar:
        u = haar_unitary(n, rng)
    else:
        counts = allocate_atom_counts(mu.weights, n)
        u = np.diag(np.exp(1j * np.repeat(mu.locations, counts)))
    g = np.eye(n, dtype=complex)
    g_next = np.empty_like(g)
    draw = np.empty((2, n, n))
    # step k's increment stays in dz[k % 2] until the worker is done with it
    dz = np.empty((2, n, n), dtype=complex)
    sd = math.sqrt(t / steps / (2.0 * n))
    log_abs_det = 0.0

    def increments():
        nonlocal log_abs_det
        for k in range(steps):
            rng.standard_normal((2, n, n), out=draw)
            np.multiply(draw[0], sd, out=dz[k % 2].real)
            np.multiply(draw[1], sd, out=dz[k % 2].imag)
            log_abs_det += float(np.trace(dz[k % 2]).real)
            yield dz[k % 2]

    with ThreadPoolExecutor(max_workers=1) as worker:
        todo = increments()
        ahead = worker.submit(expm, next(todo))
        for step in todo:  # drawn while the worker exponentiates the step before
            e = ahead.result()
            ahead = worker.submit(expm, step)
            np.matmul(g, e, out=g_next)
            g, g_next = g_next, g
        np.matmul(g, ahead.result(), out=g_next)
    return u @ g_next, log_abs_det


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


#: marginal -> (spectrum model, profile class, the profile's abscissa field)
_MARGINALS = {
    REAL_PART: (ADDITIVE, AdditiveProfile, "grid"),
    ARGUMENT: (MULTIPLICATIVE, MultiplicativeProfile, "thetas"),
    RADIUS: (MULTIPLICATIVE, MultiplicativeProfile, "thetas"),
}


def compare_marginal(
    spectrum: EmpiricalSpectrum, profile, marginal: str
) -> ComparisonReport:
    """Sup over a grid of |empirical CDF - profile CDF| for one marginal.

    real-part (additive): density 2 v_t w_t on the profile grid.
    argument (multiplicative): density a_t on the angle grid, closed at -pi.
    radius (multiplicative): ``multiplicative.radius_cdf``, on a uniform
    radius grid spanning the support annulus.
    """
    if marginal not in _MARGINALS:
        raise ValidationError(f"unknown marginal {marginal!r}")
    model, kind, field = _MARGINALS[marginal]
    if spectrum.model != model or not isinstance(profile, kind):
        article = "an" if model == ADDITIVE else "a"
        raise ValidationError(f"{marginal} marginal needs {article} {model} pair")
    x = getattr(profile, field)
    if len(x) == 0:
        raise ValidationError("empty profile grid")
    bins = len(x)
    if marginal == REAL_PART:
        cdf = _cumtrapz(2.0 * profile.v * profile.w, x)
        emp = _ecdf(spectrum.eigenvalues.real, x)
    elif marginal == ARGUMENT:
        # the grid is periodic: close it at thetas[-1] - 2 pi = -pi, where a_t is a_t(pi)
        x = np.concatenate(([x[-1] - 2.0 * np.pi], x))
        cdf = _cumtrapz(np.concatenate((profile.arg_density[-1:], profile.arg_density)), x)
        emp = _ecdf(np.angle(spectrum.eigenvalues), x)
    else:
        r_in = float(np.min(profile.r))
        bins = 800
        radii = np.linspace(0.97 * r_in, 1.03 / r_in, bins)
        cdf = radius_cdf(profile, radii)
        emp = _ecdf(np.abs(spectrum.eigenvalues), radii)
    dist = float(np.max(np.abs(emp - cdf)))
    return ComparisonReport(spectrum.model, spectrum.n, spectrum.t, marginal, dist, bins)


def spectrum_metadata(spectrum: EmpiricalSpectrum) -> dict:
    meta = asdict(spectrum)
    del meta["eigenvalues"]
    return meta


def _integer(meta, key):
    """meta[key] as an int: a JSON integer, or a float with no fractional part."""
    value = meta[key]
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def load_spectrum(path, meta: dict) -> EmpiricalSpectrum:
    """Eigenvalues written by ``simulate``: a ``re,im`` header, then one CSV
    row of finite values per eigenvalue, as many rows as the metadata's n."""
    try:
        t, n, model = float(meta["t"]), _integer(meta, "n"), str(meta["model"])
        check_time(t)
        steps = None if meta.get("steps") is None else _integer(meta, "steps")
        seed = _integer(meta, "seed")
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        detail = f"no {exc} entry" if isinstance(exc, KeyError) else exc
        raise ValidationError(f"bad spectrum metadata for {path}: {detail}") from exc
    if model not in (ADDITIVE, MULTIPLICATIVE) or n < 2:
        raise ValidationError(
            f"bad spectrum metadata for {path}: model {model!r}, n={n}; "
            f"want {ADDITIVE} or {MULTIPLICATIVE}, and n >= 2"
        )
    with open(path, "r", encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    if len(rows) != n:  # checked before loadtxt, which warns on a file with no rows
        raise ValidationError(f"spectrum file {path} has {len(rows)} rows, its metadata n={n}")
    try:
        data = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ValidationError(f"unreadable spectrum file {path}: {exc}") from exc
    if data.shape != (n, 2) or not np.all(np.isfinite(data)):
        raise ValidationError(f"spectrum file {path} must hold {n} rows of two finite values")
    return EmpiricalSpectrum(data[:, 0] + 1j * data[:, 1], n, t, model, seed, steps)
