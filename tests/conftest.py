"""Shared fixtures. The two multiplicative n=500/steps=500 samples dominate
the suite's runtime (the Haar one took 33-38 s on a 2-core Xeon with the
default BLAS threads, 32-35 s with one, nearly all of it the 500
exponentials and G @ products), so they are computed once per session and
shared between the rmt tests and the acceptance criteria."""

import numpy as np
import pytest

from freebrown.measures import SpectralMeasure
from freebrown.rmt import sample_additive, sample_multiplicative

ASYM_CIRCLE_ANGLES = (2.0 * np.pi / 5.0, 3.0 * np.pi / 4.0)
ASYM_CIRCLE_WEIGHTS = (1.0 / 3.0, 2.0 / 3.0)


@pytest.fixture(scope="session")
def haar_measure():
    return SpectralMeasure.haar()


@pytest.fixture(scope="session")
def asym_circle_measure():
    return SpectralMeasure.circle_atomic(ASYM_CIRCLE_ANGLES, ASYM_CIRCLE_WEIGHTS)


@pytest.fixture(scope="session")
def two_atom_real_measure():
    return SpectralMeasure.real_atomic([-0.8, 0.8], [0.25, 0.75])


@pytest.fixture(scope="session")
def haar_mult_spectrum_500(haar_measure):
    """Haar unitary initial condition, t=1, n=500, steps=500, seed 7."""
    return sample_multiplicative(haar_measure, 500, 1.0, 500, 7)


@pytest.fixture(scope="session")
def asym_mult_spectrum_500(asym_circle_measure):
    """Two-atom unitary initial condition, t=0.8, n=500, steps=500, seed 11."""
    return sample_multiplicative(asym_circle_measure, 500, 0.8, 500, 11)


@pytest.fixture(scope="session")
def additive_delta0_spectrum_1000():
    """Centered point mass, t=1, n=1000, seed 42."""
    return sample_additive(SpectralMeasure.real_atomic([0.0], [1.0]), 1000, 1.0, 42)
