import json

import numpy as np
import pytest
from _transforms import cauchy_transform, eta_transform, moment_generator_psi
from hypothesis import given, settings
from hypothesis import strategies as st

from freebrown.errors import NumericalError, ValidationError
from freebrown.measures import (
    SpectralMeasure,
    load_measure,
    measure_from_dict,
    reflect_circle_measure,
    wrap_angle,
)


def real_measures(max_atoms=5):
    """Random real-atomic measures with normalized weights."""
    return st.integers(1, max_atoms).flatmap(
        lambda k: st.tuples(
            st.lists(
                st.floats(-5, 5, allow_nan=False), min_size=k, max_size=k, unique=True
            ),
            st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k),
        )
    ).map(
        lambda lw: SpectralMeasure.real_atomic(
            lw[0], np.asarray(lw[1]) / np.sum(lw[1])
        )
    )


def circle_measures(max_atoms=5):
    return st.integers(1, max_atoms).flatmap(
        lambda k: st.tuples(
            st.lists(
                st.floats(-3.1, 3.1, allow_nan=False),
                min_size=k,
                max_size=k,
                unique=True,
            ),
            st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k),
        )
    ).map(
        lambda lw: SpectralMeasure.circle_atomic(
            lw[0], np.asarray(lw[1]) / np.sum(lw[1])
        )
    )


# -- construction -------------------------------------------------------------


def test_weights_must_sum_to_one():
    with pytest.raises(ValidationError, match=r"^weights sum to 0\.9, not 1 within 1e-12$"):
        SpectralMeasure.real_atomic([0.0, 1.0], [0.5, 0.4])


def test_negative_weight_rejected():
    with pytest.raises(ValidationError, match="^negative weight$"):
        SpectralMeasure.real_atomic([0.0, 1.0], [1.5, -0.5])


def test_duplicate_atoms_merge():
    mu = SpectralMeasure.real_atomic([1.0, 1.0 + 5e-13, 2.0], [0.25, 0.25, 0.5])
    assert len(mu.locations) == 2
    assert mu.weights[0] == pytest.approx(0.5)


def test_duplicate_angles_merge_across_the_cut():
    """A pair 5e-13 apart through the cut at +-pi merges like any other
    pair, into the atom at +pi."""
    mu = SpectralMeasure.circle_atomic([np.pi, -np.pi + 5e-13, 1.0], [0.25, 0.25, 0.5])
    assert mu.locations.tolist() == [1.0, np.pi]
    assert mu.weights.tolist() == [0.5, 0.5]


def test_angles_normalized():
    mu = SpectralMeasure.circle_atomic([3 * np.pi], [1.0])
    assert mu.locations[0] == pytest.approx(np.pi)
    assert wrap_angle(np.array([-np.pi]))[0] == pytest.approx(np.pi)


def test_haar_carries_no_atoms():
    with pytest.raises(ValidationError, match="^haar kind carries no atoms$"):
        SpectralMeasure("haar", np.array([0.0]), np.array([1.0]))


# -- cauchy transform ----------------------------------------------------------


def test_cauchy_point_mass():
    assert cauchy_transform(SpectralMeasure.real_atomic([0.0], [1.0]), 2j) == pytest.approx(
        -0.5j
    )
    assert cauchy_transform(SpectralMeasure.real_atomic([0.0], [1.0]), 3.0) == pytest.approx(
        1.0 / 3.0
    )


def test_cauchy_bernoulli():
    mu = SpectralMeasure.real_atomic([-1.0, 1.0], [0.5, 0.5])
    # direct rational arithmetic: (1/(2i+1) + 1/(2i-1))/2 = -0.4i
    assert cauchy_transform(mu, 2j) == pytest.approx(-0.4j)


def test_cauchy_pole():
    with pytest.raises(ValidationError, match="sits on an atom of the measure$"):
        cauchy_transform(SpectralMeasure.real_atomic([1.0], [1.0]), 1.0)


def test_cauchy_wrong_support():
    with pytest.raises(
        ValidationError, match="^cauchy_transform needs a real-atomic measure, got haar$"
    ):
        cauchy_transform(SpectralMeasure.haar(), 2j)


@settings(max_examples=100, deadline=None)
@given(real_measures(), st.floats(-10, 10), st.floats(0.05, 10))
def test_cauchy_maps_upper_to_lower(mu, re, im):
    assert cauchy_transform(mu, complex(re, im)).imag < 0


@settings(max_examples=40, deadline=None)
@given(real_measures())
def test_cauchy_asymptotics(mu):
    z = 1e6j
    assert abs(z * cauchy_transform(mu, z) - 1.0) < 1e-5


# -- psi and eta ----------------------------------------------------------------


def test_psi_haar_zero():
    assert moment_generator_psi(SpectralMeasure.haar(), 0.3 + 0.1j) == 0


def test_psi_point_masses():
    d0 = SpectralMeasure.circle_atomic([0.0], [1.0])
    dpi = SpectralMeasure.circle_atomic([np.pi], [1.0])
    assert moment_generator_psi(d0, 0.5) == pytest.approx(1.0)
    assert moment_generator_psi(dpi, 0.5) == pytest.approx(-1.0 / 3.0)


def test_eta_examples():
    d0 = SpectralMeasure.circle_atomic([0.0], [1.0])
    assert eta_transform(d0, 0.5) == pytest.approx(0.5)  # eta of delta_1 is z
    assert eta_transform(d0, 0.0) == 0
    assert eta_transform(SpectralMeasure.haar(), 0.3 + 0.2j) == 0


def test_eta_pole_guard():
    dpi = SpectralMeasure.circle_atomic([np.pi], [1.0])
    with pytest.raises(ValidationError, match="sits on a pole of psi$"):
        eta_transform(dpi, -1.0 + 1e-16)


def test_eta_degenerate_denominator():
    # for (delta_1 + delta_i)/2: 1 + psi = (1/(1-z) + 1/(1-iz))/2 vanishes at
    # the continuation point z = 1 - i, away from both poles
    mu = SpectralMeasure.circle_atomic([0.0, np.pi / 2], [0.5, 0.5])
    with pytest.raises(NumericalError, match=r"^1 \+ psi vanished at z="):
        eta_transform(mu, 1.0 - 1.0j)


@settings(max_examples=80, deadline=None)
@given(circle_measures(), st.floats(0, 0.95), st.floats(-np.pi, np.pi))
def test_eta_contraction_on_disk(mu, r, ang):
    z = r * np.exp(1j * ang)
    assert abs(eta_transform(mu, z)) <= abs(z) + 1e-12


@settings(max_examples=60, deadline=None)
@given(circle_measures())
def test_eta_zero_at_zero(mu):
    assert eta_transform(mu, 0) == 0


# -- reflection ------------------------------------------------------------------


def test_reflect_examples():
    mu = SpectralMeasure.circle_atomic([np.pi / 3], [1.0])
    assert reflect_circle_measure(mu).locations[0] == pytest.approx(-np.pi / 3)
    assert reflect_circle_measure(SpectralMeasure.haar()).is_haar
    two = SpectralMeasure.circle_atomic(
        [2 * np.pi / 5, 3 * np.pi / 4], [1 / 3, 2 / 3]
    )
    ref = reflect_circle_measure(two)
    assert sorted(ref.locations) == pytest.approx(
        sorted([-2 * np.pi / 5, -3 * np.pi / 4])
    )


@settings(max_examples=60, deadline=None)
@given(circle_measures())
def test_reflect_involution(mu):
    back = reflect_circle_measure(reflect_circle_measure(mu))
    assert np.allclose(sorted(back.locations), sorted(mu.locations))
    assert back.weights.sum() == pytest.approx(1.0)


def test_reflect_wrong_support():
    with pytest.raises(
        ValidationError, match="^reflect_circle_measure needs a circle measure, got real-atomic$"
    ):
        reflect_circle_measure(SpectralMeasure.real_atomic([0.0], [1.0]))


# -- file format ------------------------------------------------------------------


def test_load_measure_roundtrip(tmp_path):
    doc = {
        "kind": "real-atomic",
        "atoms": [{"x": -0.8, "w": 0.25}, {"x": 0.8, "w": 0.75}],
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    mu = load_measure(path)
    assert mu.kind == "real-atomic"
    assert np.allclose(mu.weights, [0.25, 0.75])


def test_load_renormalizes_within_window():
    doc = {"kind": "circle-atomic", "atoms": [{"theta": 0.0, "w": 1.0 + 5e-7}]}
    mu = measure_from_dict(doc)
    assert mu.weights.sum() == pytest.approx(1.0)


def test_load_rejects_bad_sum():
    doc = {"kind": "real-atomic", "atoms": [{"x": 0.0, "w": 0.9}]}
    with pytest.raises(
        ValidationError, match=r"^atom weights sum to 0\.9; must be within 1e-06 of 1$"
    ):
        measure_from_dict(doc)


def test_load_rejects_garbage():
    with pytest.raises(ValidationError, match="^unknown measure kind 'banana'$"):
        measure_from_dict({"kind": "banana"})
    with pytest.raises(ValidationError, match="^haar measure must not list atoms$"):
        measure_from_dict({"kind": "haar", "atoms": [{"theta": 0, "w": 1}]})
    # locations and weights are JSON numbers, not booleans or numeric strings
    for kind, atom in (
        ("real-atomic", {"x": True, "w": 1}),
        ("real-atomic", {"x": 0, "w": "1"}),
        ("circle-atomic", {"theta": "0.5", "w": 1}),
    ):
        with pytest.raises(ValidationError, match="^malformed atom entry: .* must be a number"):
            measure_from_dict({"kind": kind, "atoms": [atom]})
