"""The package's two failure families, one per CLI exit code.

``ValidationError`` (a ``ValueError``): the input breaks a contract, such as
a bad measure, time, angle or argument, or a measure on the wrong space;
``freebrown`` exits 2. ``NumericalError``: a computation did not converge or
gave unusable output; ``freebrown`` exits 3. The message says which check
fired.
"""


class ValidationError(ValueError):
    """Invalid input: bad measure, bad argument, contract violation."""


class NumericalError(Exception):
    """A numerical routine failed to produce a trustworthy result."""
