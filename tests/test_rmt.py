import cmath
import math
import threading

import mpmath
import numpy as np
import pytest

from freebrown import rmt

from freebrown.additive import additive_profile, v_t_array
from freebrown.cli import write_rows
from freebrown.errors import NumericalError, ValidationError
from freebrown.measures import SpectralMeasure, reflect_circle_measure
from freebrown.multiplicative import multiplicative_profile, r_t_array, radius_cdf
from freebrown.rmt import (
    THETA_12,
    TAYLOR_TARGET,
    _T12,
    EmpiricalSpectrum,
    _eigvals,
    additive_matrix,
    allocate_atom_counts,
    compare_marginal,
    expm,
    haar_unitary,
    load_spectrum,
    multiplicative_flow,
    sample_additive,
    sample_multiplicative,
    spectrum_metadata,
)

D0 = SpectralMeasure.real_atomic([0.0], [1.0])
TWO = SpectralMeasure.real_atomic([-0.8, 0.8], [0.25, 0.75])


# -- building blocks ------------------------------------------------------------


def test_allocation_largest_remainder():
    assert list(allocate_atom_counts(np.array([0.25, 0.75]), 10)) == [3, 7]
    assert list(allocate_atom_counts(np.array([1 / 3, 2 / 3]), 4)) == [1, 3]
    counts = allocate_atom_counts(np.array([1 / 3, 1 / 3, 1 / 3]), 500)
    assert counts.sum() == 500
    assert counts.max() - counts.min() <= 1


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(3)
    u = haar_unitary(50, rng)
    assert np.abs(u @ u.conj().T - np.eye(50)).max() < 1e-12


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


def _horner_expm(a):
    """Scaling-and-squaring with a plain Horner Taylor kernel, independent of
    ``expm``: the norm bound is min(1-norm, 1.2 * power-iteration estimate)
    and the order m the smallest whose remainder bound is below the target.
    Returns the exponential with the order m and the scaling s it used."""
    n = a.shape[0]
    nrm = min(np.linalg.norm(a, 1), 1.2 * _norm2_estimate(a))
    s = 0
    while nrm / (2.0**s) > 0.5:
        s += 1
    b = a / (2.0**s)
    bn = nrm / (2.0**s)
    m, term = 1, bn
    while True:
        m += 1
        term *= bn / m
        if term / (1.0 - bn / (m + 2)) <= 1e-15:
            break
    eye = np.eye(n, dtype=complex)
    e = eye + b / m
    for k in range(m - 1, 0, -1):
        e = eye + (b / k) @ e
    for _ in range(s):
        e = e @ e
    return e, m, s


def _long_taylor(a):
    ref = np.eye(len(a), dtype=complex)
    term = np.eye(len(a), dtype=complex)
    for k in range(1, 60):
        term = term @ a / k
        ref = ref + term
    return ref


def _alpha2(a):
    a2 = a @ a
    return max(np.linalg.norm(a2, 1) ** 0.5, np.linalg.norm(a2 @ a, 1) ** (1.0 / 3.0))


def test_expm_against_long_taylor():
    rng = np.random.default_rng(0)
    a = 0.2 * (rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))) / 6.0
    assert np.abs(expm(a) - _long_taylor(a)).max() < 1e-13


@pytest.mark.parametrize("side", [1.0 - 1e-3, 1.0 + 1e-3])
def test_expm_either_side_of_theta12(side):
    # alpha_2 just below theta_12 takes no squaring, just above it one
    rng = np.random.default_rng(4)
    g = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    a = g * (side * THETA_12 / _alpha2(g))
    assert (_alpha2(a) <= THETA_12) == (side < 1.0)
    assert np.abs(expm(a) - _long_taylor(a)).max() < 1e-13


def _t12_taylor_coefficients():
    """Coefficients of T_12 = B_0 + (B_1 + B_2')B_2' expanded at 40 digits
    from the module's float b_ij."""
    b = [[mpmath.mpf(float(x)) for x in row] for row in _T12]

    def mul(p, q):
        out = [mpmath.mpf(0)] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    def add(p, q):
        p, q = p + [0] * (len(q) - len(p)), q + [0] * (len(p) - len(q))
        return [x + y for x, y in zip(p, q)]

    b2 = add(b[2], mul(b[3], b[3]))
    return add(b[0], mul(add(b[1], b2), b2))


def test_t12_coefficients_are_taylor():
    with mpmath.workdps(40):
        coef = _t12_taylor_coefficients()
        assert len(coef) == 13
        for k, c in enumerate(coef):
            rel = abs(c * mpmath.factorial(k) - 1)
            # c_12 = b_33^4, so rounding b_33 to the nearest double alone
            # gives 2.2e-16: the bound is four half-ulps (2^-51)
            assert rel <= 2.0**-51, (k, float(rel))


def test_theta12_meets_taylor_target():
    with mpmath.workdps(40):
        th = mpmath.mpf(THETA_12)
        tail = mpmath.exp(th) - sum(th**k / mpmath.factorial(k) for k in range(13))
        assert abs(tail / TAYLOR_TARGET - 1) <= 1e-12


def test_expm_matches_horner_on_every_order():
    rng = np.random.default_rng(2)
    orders, scalings = set(), set()
    for n in (2, 7, 40):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g /= np.linalg.norm(g, 2)
        for scale in np.geomspace(1e-9, 4.0, 60):
            a = scale * g
            ref, m, s = _horner_expm(a)
            orders.add(m)
            scalings.add(s)
            assert np.abs(expm(a) - ref).max() <= 1e-13 * np.abs(ref).max()
    # the sweep spans every reference order from 2 up and several scalings
    assert orders == set(range(2, max(orders) + 1)) and max(orders) >= 13
    assert {0, 1, 3} <= scalings


def test_expm_scalar_and_zero():
    for z in (0.3 + 0.7j, -2.0 + 1.5j, 3.5 - 0.25j):
        got = expm(np.array([[z]]))[0, 0]
        assert abs(got - cmath.exp(z)) <= 1e-14 * abs(cmath.exp(z))
    assert np.array_equal(expm(np.zeros((5, 5))), np.eye(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_expm_rejects_non_finite(bad):
    a = np.zeros((4, 4), dtype=complex)
    a[1, 2] = bad
    with pytest.raises(NumericalError):
        expm(a)


def _unit_hermitian():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    h = (x + x.conj().T) / 2
    return h / np.linalg.norm(h, 2)


def test_expm_raises_on_non_finite_result():
    # the exact result is unitary; the 135 squarings double the roundoff
    # each time, up to inf/NaN
    with pytest.raises(NumericalError):
        expm(1j * 1e40 * _unit_hermitian())


@pytest.mark.parametrize("c", [1e3, 1e6])
def test_expm_large_hermitian_stays_unitary(c):
    e = expm(1j * c * _unit_hermitian())
    assert np.abs(e @ e.conj().T - np.eye(20)).max() <= 1e-9


def test_expm_prescales_huge_norms():
    # A^3 would overflow without the power-of-two pre-scale
    assert np.array_equal(expm(-1e110 * np.eye(3)), np.zeros((3, 3)))
    a = np.array([[0.0, 1e120], [0.0, 0.0]])
    assert np.array_equal(expm(a), np.eye(2) + a)


def test_multiplicative_flow_matches_horner_flow(monkeypatch):
    haar = SpectralMeasure.haar()
    mat, logdet = multiplicative_flow(haar, 160, 1.0, 100, 3)
    monkeypatch.setattr(rmt, "expm", lambda a: _horner_expm(a)[0])
    ref, ref_logdet = multiplicative_flow(haar, 160, 1.0, 100, 3)
    assert logdet == ref_logdet
    assert np.abs(mat - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(_eigvals(mat) - _eigvals(ref)).max() <= 1e-12


def test_multiplicative_flow_increments_bitwise(monkeypatch):
    # one (2, n, n) draw per step gives the increments of two (n, n) draws
    n, t, steps, seed = 24, 1.0, 100, 5
    seen = []

    def record(a):
        seen.append(a.copy())  # the flow draws later increments into the same buffers
        return np.eye(n)

    monkeypatch.setattr(rmt, "expm", record)
    _, logdet = multiplicative_flow(SpectralMeasure.haar(), n, t, steps, seed)
    rng = np.random.default_rng(seed)
    haar_unitary(n, rng)
    sd = math.sqrt(t / steps / (2.0 * n))
    ref_logdet = 0.0
    assert len(seen) == steps
    for dz in seen:
        ref = sd * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        ref_logdet += float(np.trace(ref).real)
        assert np.array_equal(dz.view(np.uint64), ref.view(np.uint64))
    assert logdet == ref_logdet


@pytest.mark.parametrize(
    "mu",
    [SpectralMeasure.haar(), SpectralMeasure.circle_atomic([0.4, -2.1], [0.3, 0.7])],
    ids=["haar", "circle2"],
)
def test_multiplicative_flow_is_the_sequential_product(mu):
    # the worker thread changes neither the draws nor the order of the products
    n, t, steps, seed = 12, 0.9, 120, 8
    mat, logdet = multiplicative_flow(mu, n, t, steps, seed)
    rng = np.random.default_rng(seed)
    if mu.is_haar:
        u = haar_unitary(n, rng)
    else:
        u = np.diag(np.exp(1j * np.repeat(mu.locations, allocate_atom_counts(mu.weights, n))))
    sd = math.sqrt(t / steps / (2.0 * n))
    g = np.eye(n, dtype=complex)
    ref_logdet = 0.0
    for _ in range(steps):
        dz = sd * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        ref_logdet += float(np.trace(dz).real)
        g = g @ expm(dz)
    assert np.array_equal(mat, u @ g)
    assert logdet == ref_logdet


def test_multiplicative_flow_raises_expm_failure(monkeypatch):
    calls = []

    def failing(a):
        calls.append(1)
        if len(calls) == 37:
            raise NumericalError("expm: result has non-finite entries")
        return expm(a)

    monkeypatch.setattr(rmt, "expm", failing)
    threads = threading.active_count()
    with pytest.raises(NumericalError):
        multiplicative_flow(SpectralMeasure.haar(), 16, 1.0, 100, 2)
    assert len(calls) == 37  # nothing ran past the failed step
    assert threading.active_count() == threads


def test_expm_scaling_branch():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    e1 = expm(a)
    e2 = expm(a / 2.0)
    assert np.abs(e2 @ e2 - e1).max() < 1e-9 * np.abs(e1).max()


# -- additive sampling ------------------------------------------------------------


def test_additive_seed_determinism():
    s1 = sample_additive(D0, 64, 1.0, 9)
    s2 = sample_additive(D0, 64, 1.0, 9)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    s3 = sample_additive(D0, 64, 1.0, 10)
    assert not np.array_equal(s1.eigenvalues, s3.eigenvalues)


def test_additive_trace_identity():
    mat = additive_matrix(TWO, 300, 1.0, 5)
    eig = np.linalg.eigvals(mat)
    # solver-level sanity: the eigenvalue sum reproduces the trace to roundoff
    assert abs(eig.sum() - np.trace(mat)) <= 1e-10 * max(1.0, abs(np.trace(mat)))


def test_additive_mean_matches_allocated_atoms():
    n = 500
    mat = additive_matrix(TWO, n, 1.0, 5)
    counts = allocate_atom_counts(TWO.weights, n)
    rounding_adjusted = (counts * TWO.locations).sum() / n
    eig = np.linalg.eigvals(mat)
    # three-sigma band from the Ginibre trace: var = n * (t/n) / n = t/n
    sigma = np.sqrt(1.0 / n)
    assert abs(eig.sum().real / n - rounding_adjusted) <= 3.0 * sigma


def test_additive_circular_containment():
    spec = sample_additive(D0, 500, 1.0, 42)
    assert np.mean(np.abs(spec.eigenvalues) <= 1.05) >= 0.95
    spec4 = sample_additive(D0, 500, 4.0, 42)
    assert np.mean(np.abs(spec4.eigenvalues) <= 2.1) >= 0.95


def test_additive_validation():
    with pytest.raises(ValidationError):
        sample_additive(D0, 1, 1.0, 0)


def test_eigensolver_failure_surfaces():
    with pytest.raises(NumericalError, match="^eigvals failed: "):
        _eigvals(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eigvals_canonical_order():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((50, 50)) + 1j * rng.standard_normal((50, 50))
    perm = np.eye(50)[rng.permutation(50)]
    vals = _eigvals(m)
    assert np.array_equal(vals, np.sort(vals))
    assert np.abs(_eigvals(perm @ m @ perm.T) - vals).max() <= 1e-12


# -- multiplicative sampling --------------------------------------------------------


def test_multiplicative_seed_determinism():
    s1 = sample_multiplicative(SpectralMeasure.haar(), 32, 0.5, 100, 4)
    s2 = sample_multiplicative(SpectralMeasure.haar(), 32, 0.5, 100, 4)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)


def test_multiplicative_determinant_bookkeeping():
    mat, expected = multiplicative_flow(SpectralMeasure.haar(), 150, 1.0, 150, 7)
    _, logdet = np.linalg.slogdet(mat)
    assert abs(logdet - expected) <= 1e-8 * max(1.0, abs(expected))


def test_multiplicative_small_t_near_identity():
    d0c = SpectralMeasure.circle_atomic([0.0], [1.0])
    spec = sample_multiplicative(d0c, 100, 1e-3, 100, 5)
    assert np.abs(spec.eigenvalues - 1.0).max() <= 0.05


def test_multiplicative_steps_validation():
    with pytest.raises(ValidationError):
        sample_multiplicative(SpectralMeasure.haar(), 32, 1.0, 50, 1)


def test_haar_annulus_containment(haar_mult_spectrum_500):
    r = np.abs(haar_mult_spectrum_500.eigenvalues)
    inner, outer = np.exp(-0.5), np.exp(0.5)
    assert np.mean((r >= 0.95 * inner) & (r <= 1.05 * outer)) >= 0.90
    # inversion-symmetry tails (statistical)
    assert np.mean(r < 0.9 * inner) <= 0.02
    assert np.mean(r > outer / 0.9) <= 0.02


# -- comparisons -----------------------------------------------------------------------


def test_compare_additive_real_part(additive_delta0_spectrum_1000):
    prof = additive_profile(D0, 1.0, np.linspace(-3, 3, 801))
    rep = compare_marginal(additive_delta0_spectrum_1000, prof, "real-part")
    assert rep.distance <= 0.05
    assert 0.0 <= rep.distance <= 1.0
    assert rep.bins == 801


def test_compare_haar_argument(haar_mult_spectrum_500):
    prof = multiplicative_profile(SpectralMeasure.haar(), 1.0, 1441)
    rep = compare_marginal(haar_mult_spectrum_500, prof, "argument")
    assert rep.distance <= 0.05  # vs uniform


def _whole_table_radius_cdf(profile, radii):
    """The radius CDF as one (radii x angles) table, the reference for the
    blocked ``radius_cdf``: on the periodic angle grid the closed trapezoid
    is (2 pi/n) times the sum over the angles."""
    hit = profile.r < 1.0
    rt = profile.r[hit]
    gain = np.clip(
        np.log(np.minimum(radii[:, None], 1.0 / rt[None, :])) - np.log(rt[None, :]), 0.0, None
    )
    return (gain * profile.w[hit]).sum(axis=1) * (2.0 * np.pi / len(profile.thetas))


@pytest.mark.parametrize("which", ["haar", "asym"])
def test_radius_cdf_blocks_match_whole_table(which, haar_measure, asym_circle_measure):
    mu, t = (haar_measure, 1.0) if which == "haar" else (asym_circle_measure, 0.8)
    prof = multiplicative_profile(mu, t, 1441)
    r_in = float(np.min(prof.r))
    radii = np.linspace(0.97 * r_in, 1.03 / r_in, 800)
    assert np.array_equal(radius_cdf(prof, radii), _whole_table_radius_cdf(prof, radii))


def test_marginals_integrate_over_the_closed_angle_grid(haar_measure):
    """The angle grid (-pi, pi] is periodic, so neither marginal may drop its
    first step [-pi, -pi + 2 pi/n]: the Haar radius CDF reaches 1 past the
    annulus, and a spectrum spread evenly over 16 equal arcs matches the
    uniform argument law at 16 angles to rounding."""
    t = 1.0
    past = np.exp(0.5 * t) * np.array([1.0, 1.5, 3.0])
    for n_theta in (16, 1441):
        prof = multiplicative_profile(haar_measure, t, n_theta)
        assert np.max(np.abs(radius_cdf(prof, past) - 1.0)) <= 1e-12
    n = 4000
    even = np.exp(1j * (-np.pi + 2.0 * np.pi * (np.arange(n) + 0.5) / n))
    spectrum = EmpiricalSpectrum(even, n, t, "multiplicative", 0, 100)
    prof = multiplicative_profile(haar_measure, t, 16)
    assert compare_marginal(spectrum, prof, "argument").distance <= 1e-12


# -- the two density forms ---------------------------------------------------------


def _ks_uniform(num, den):
    """KS distance of s = num/den against U(-1, 1), with |s| = inf where
    den = 0: there the point lies outside the support."""
    s = np.sort(np.divide(num, den, out=np.copysign(np.inf, num), where=den > 0))
    cdf = np.clip(0.5 * (s + 1.0), 0.0, 1.0)
    n = len(s)
    return max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))


def _dkw_bound(n, alpha=0.01):
    """sqrt(ln(2/alpha)/(2n)): the Dvoretzky-Kiefer-Wolfowitz bound on the KS
    distance of n i.i.d. samples, exceeded with probability at most alpha.
    Eigenvalues are not independent; their rigidity makes the fluctuation
    smaller, so the bound covers it. It does not cover the finite-n bias
    near the support's edge; on the fixtures below the statistic reads
    0.010-0.019, well under the bound."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def test_additive_density_is_flat_in_the_vertical(additive_delta0_spectrum_1000):
    """The density of x0 + c_t is constant in Im z on |Im z| < v_t(Re z), so
    s = Im z / v_t(Re z) is uniform on (-1, 1) without a grid or a model CDF.
    A variance 20% off reads 0.071-0.090 at n = 1000, against the bound
    0.051."""
    eig = additive_delta0_spectrum_1000.eigenvalues
    dist = _ks_uniform(eig.imag, v_t_array(D0, 1.0, eig.real))
    assert dist <= _dkw_bound(len(eig))


@pytest.mark.parametrize(
    "spectrum,measure", [("haar_mult_spectrum_500", "haar_measure"),
                         ("asym_mult_spectrum_500", "asym_circle_measure")],
    ids=["haar", "asym"],
)
def test_multiplicative_density_is_flat_in_log_radius(spectrum, measure, request):
    """The density of u b_t is w_t(theta)/r^2 in polar coordinates, that is
    w_t(theta) d(log r) d(theta) on r_t < r < 1/r_t, so
    s = log|z| / (-log r_t(arg z)) is uniform on (-1, 1). A flow time 20%
    off reads 0.082-0.100 at n = 500, against the bound 0.073."""
    spec, mu = request.getfixturevalue(spectrum), request.getfixturevalue(measure)
    eig = spec.eigenvalues
    r = r_t_array(reflect_circle_measure(mu), spec.t, np.angle(eig))
    dist = _ks_uniform(np.log(np.abs(eig)), -np.log(r))
    assert dist <= _dkw_bound(len(eig))


def test_compare_mismatches(additive_delta0_spectrum_1000):
    prof_mult = multiplicative_profile(SpectralMeasure.haar(), 1.0, 64)
    with pytest.raises(ValidationError, match="^real-part marginal needs an additive pair$"):
        compare_marginal(additive_delta0_spectrum_1000, prof_mult, "real-part")
    with pytest.raises(ValidationError, match="^argument marginal needs a multiplicative pair$"):
        compare_marginal(additive_delta0_spectrum_1000, prof_mult, "argument")
    with pytest.raises(ValidationError):
        prof_add = additive_profile(D0, 1.0, np.linspace(-2, 2, 64))
        compare_marginal(additive_delta0_spectrum_1000, prof_add, "banana")


def test_compare_empty_grid_guard(additive_delta0_spectrum_1000):
    from freebrown.additive import AdditiveProfile

    empty = AdditiveProfile(
        D0, 1.0, np.empty(0), np.empty(0), np.empty(0), np.empty(0), ()
    )
    with pytest.raises(ValidationError, match="^empty profile grid$"):
        compare_marginal(additive_delta0_spectrum_1000, empty, "real-part")


# -- files -------------------------------------------------------------------------------


def test_spectrum_roundtrip(tmp_path):
    spec = sample_additive(TWO, 32, 0.7, 123)
    path = tmp_path / "eig.csv"
    eig = spec.eigenvalues
    write_rows(path, ["re", "im"], [eig.real, eig.imag])
    assert path.read_text().splitlines()[0] == "re,im"
    meta = spectrum_metadata(spec)
    assert meta == {"model": "additive", "n": 32, "t": 0.7, "seed": 123, "steps": None}
    back = load_spectrum(path, meta)
    assert np.allclose(back.eigenvalues, spec.eigenvalues, atol=1e-15)
    assert back.model == "additive" and back.n == 32
