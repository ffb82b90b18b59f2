import numpy as np
import pytest

from freebrown import quadrature
from freebrown.errors import NumericalError
from freebrown.quadrature import integrate_adaptive


def test_smooth_integral():
    (val,) = integrate_adaptive(np.sin, [0.0], [np.pi])
    assert val == pytest.approx(2.0, abs=1e-10)


def test_sqrt_endpoint_integral():
    # int_0^1 sqrt(x(1-x)) dx = pi/8; exactly the endpoint behavior of the
    # density integrands
    (val,) = integrate_adaptive(lambda x: np.sqrt(x * (1.0 - x)), [0.0], [1.0])
    assert val == pytest.approx(np.pi / 8.0, abs=1e-10)


def test_vector_valued_integrand():
    (val,) = integrate_adaptive(lambda x: np.stack([x, x * x], axis=1), [0.0], [1.0])
    assert val[0] == pytest.approx(0.5, abs=1e-10)
    assert val[1] == pytest.approx(1.0 / 3.0, abs=1e-10)


def test_depth_cap_raises(monkeypatch):
    # a kink inside the interval: one doubling cannot resolve it
    monkeypatch.setattr(quadrature, "MAX_DOUBLINGS", 1)
    with pytest.raises(
        NumericalError, match=r"^no convergence on \[0\.0, 3\.14\d*\] after 1 doublings$"
    ):
        integrate_adaptive(lambda x: np.abs(x - 1.0), [0.0], [np.pi])


@pytest.mark.parametrize(
    "f",
    [np.sin, lambda x: np.stack([np.sin(x), np.sqrt(np.abs(x)), np.exp(x)], axis=1)],
    ids=["(n,)", "(n, m)"],
)
def test_intervals_match_single_calls(f, monkeypatch):
    lo, hi = np.array([0.0, 0.5, -1.0, 2.0]), np.array([np.pi, 1.0, 2.0, 2.5])
    got = integrate_adaptive(f, lo, hi)
    assert got.shape == (4,) + np.shape(f(np.zeros(1)))[1:]
    for i in range(len(lo)):
        assert np.array_equal(got[i], integrate_adaptive(f, lo[i : i + 1], hi[i : i + 1])[0])
    # one kinked interval among smooth ones still raises
    monkeypatch.setattr(quadrature, "MAX_DOUBLINGS", 2)
    with pytest.raises(
        NumericalError, match=r"^no convergence on \[0\.0, 3\.14\d*\] after 2 doublings$"
    ):
        integrate_adaptive(lambda x: np.abs(x - 1.0), [2.0, 0.0, -1.0], [3.0, np.pi, 0.0])


def test_no_intervals_integrate_to_nothing():
    got = integrate_adaptive(lambda x: np.stack([x, x], axis=1), np.empty(0), np.empty(0))
    assert got.shape == (0, 2) and got.sum(axis=0).tolist() == [0.0, 0.0]


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        integrate_adaptive(np.sin, [1.0], [1.0])
