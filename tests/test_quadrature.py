import numpy as np
import pytest

from freebrown import quadrature
from freebrown.errors import QuadratureNonconvergence
from freebrown.quadrature import integrate_adaptive


def test_smooth_integral():
    val = integrate_adaptive(np.sin, 0.0, np.pi)
    assert val == pytest.approx(2.0, abs=1e-10)


def test_sqrt_endpoint_integral():
    # int_0^1 sqrt(x(1-x)) dx = pi/8; exactly the endpoint behavior of the
    # density integrands
    val = integrate_adaptive(lambda x: np.sqrt(x * (1.0 - x)), 0.0, 1.0)
    assert val == pytest.approx(np.pi / 8.0, abs=1e-10)


def test_vector_valued_integrand():
    val = integrate_adaptive(
        lambda x: np.stack([x, x * x], axis=1), 0.0, 1.0
    )
    assert val[0] == pytest.approx(0.5, abs=1e-10)
    assert val[1] == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_depth_cap_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_DOUBLINGS", 1)
    with pytest.raises(QuadratureNonconvergence):
        integrate_adaptive(np.sin, 0.0, np.pi)


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        integrate_adaptive(np.sin, 1.0, 1.0)
