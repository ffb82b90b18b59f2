"""Brown measures of free circular and multiplicative Brownian motions with
self-adjoint / unitary initial conditions, validated against closed forms,
moment oracles and finite-N random-matrix simulations."""

__version__ = "0.1.0"
