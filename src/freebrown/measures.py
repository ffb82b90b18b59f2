"""Atomic spectral measures on the line or the unit circle.

A measure is a finite list of atoms ``(location, weight)`` with weights summing
to one; the Haar measure on the circle is the single closed-form special case.
Continuous inputs are admitted only as user-supplied atomic discretizations,
which keeps every integral in the package an exact finite sum. The one
transform kept here is the reflection ``theta_j -> -theta_j`` (distribution of
the adjoint unitary), which the multiplicative flow integrates against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

REAL_ATOMIC = "real-atomic"
CIRCLE_ATOMIC = "circle-atomic"
HAAR = "haar"

#: merge tolerance for duplicate atom locations
DEDUP_TOL = 1e-12
#: weights must sum to 1 within this at construction time
WEIGHT_SUM_TOL = 1e-12
#: file loader renormalizes weight sums within this window, rejects beyond
FILE_WEIGHT_TOL = 1e-6


def wrap_angle(theta):
    """Normalize an array of angles to (-pi, pi]."""
    out = np.remainder(np.asarray(theta, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(out == -np.pi, np.pi, out)


def _dedup(locations, weights, circle):
    """Sort atoms and merge locations closer than DEDUP_TOL (weights add).

    On the circle the last and first atoms are also compared through the
    wrap, and a pair that straddles the cut merges into the atom at the +pi
    side, where ``wrap_angle`` sends the cut itself."""
    order = np.argsort(locations, kind="stable")
    locs = locations[order]
    ws = weights[order]
    out_l, out_w = [], []
    for x, w in zip(locs, ws):
        if out_l and abs(x - out_l[-1]) <= DEDUP_TOL:
            out_w[-1] += w
        else:
            out_l.append(x)
            out_w.append(w)
    if circle and len(out_l) > 1 and locs[0] + 2.0 * math.pi - locs[-1] <= DEDUP_TOL:
        out_w[-1] += out_w.pop(0)
        out_l.pop(0)
    return np.array(out_l), np.array(out_w)


@dataclass(frozen=True)
class SpectralMeasure:
    """Atomic probability measure on R or on the unit circle, or Haar.

    ``locations`` holds real points (real-atomic) or angles in (-pi, pi]
    (circle-atomic); both arrays are empty for the Haar kind. Instances are
    immutable and safe to share across threads.
    """

    kind: str
    locations: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.kind not in (REAL_ATOMIC, CIRCLE_ATOMIC, HAAR):
            raise ValidationError(f"unknown measure kind {self.kind!r}")
        locs = np.asarray(self.locations, dtype=float)
        ws = np.asarray(self.weights, dtype=float)
        if self.kind == HAAR:
            if locs.size or ws.size:
                raise ValidationError("haar kind carries no atoms")
        else:
            if locs.ndim != 1 or ws.shape != locs.shape or locs.size == 0:
                raise ValidationError("atoms must be parallel nonempty 1-d arrays")
            if not (np.all(np.isfinite(locs)) and np.all(np.isfinite(ws))):
                raise ValidationError("non-finite atom data")
            if np.any(ws < 0):
                raise ValidationError("negative weight")
            total = ws.sum()
            if abs(total - 1.0) > WEIGHT_SUM_TOL:
                raise ValidationError(
                    f"weights sum to {float(total)}, not 1 within {WEIGHT_SUM_TOL}"
                )
            if self.kind == CIRCLE_ATOMIC:
                locs = wrap_angle(locs)
            locs, ws = _dedup(locs, ws, circle=self.kind == CIRCLE_ATOMIC)
            # zero-weight atoms carry no mass but would inject spurious poles
            keep = ws > 0.0
            locs, ws = locs[keep], ws[keep]
            if locs.size == 0:
                raise ValidationError("measure has no mass")
            ws = ws / ws.sum()
        locs.setflags(write=False)
        ws.setflags(write=False)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", ws)

    # -- constructors ------------------------------------------------------

    @classmethod
    def real_atomic(cls, locations, weights):
        return cls(REAL_ATOMIC, np.asarray(locations, float), np.asarray(weights, float))

    @classmethod
    def circle_atomic(cls, angles, weights):
        return cls(CIRCLE_ATOMIC, np.asarray(angles, float), np.asarray(weights, float))

    @classmethod
    def haar(cls):
        return cls(HAAR, np.empty(0), np.empty(0))

    # -- predicates --------------------------------------------------------

    @property
    def is_haar(self):
        return self.kind == HAAR

    def require_real(self, what="operation"):
        if self.kind != REAL_ATOMIC:
            raise ValidationError(f"{what} needs a real-atomic measure, got {self.kind}")

    def require_circle(self, what="operation"):
        if self.kind not in (CIRCLE_ATOMIC, HAAR):
            raise ValidationError(f"{what} needs a circle measure, got {self.kind}")

    @cached_property
    def _reflection(self):
        """The adjoint's measure, built once: the scalar u b_t rows take it per call."""
        if self.is_haar:
            return self
        return SpectralMeasure.circle_atomic(wrap_angle(-self.locations), self.weights)


def reflect_circle_measure(mu: SpectralMeasure) -> SpectralMeasure:
    """Distribution of the adjoint: atom angles negated, Haar fixed."""
    mu.require_circle("reflect_circle_measure")
    return mu._reflection


# -- file format -------------------------------------------------------------
#
# {"kind": "real-atomic" | "circle-atomic" | "haar",
#  "atoms": [{"x" | "theta": number, "w": number}, ...]}


def _number(atom, key):
    """atom[key] as a float: a JSON number, not a boolean or a string."""
    value = atom[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return float(value)


def measure_from_dict(data) -> SpectralMeasure:
    if not isinstance(data, dict) or "kind" not in data:
        raise ValidationError("measure document must be an object with a 'kind'")
    kind = data["kind"]
    if kind == HAAR:
        if data.get("atoms"):
            raise ValidationError("haar measure must not list atoms")
        return SpectralMeasure.haar()
    if kind not in (REAL_ATOMIC, CIRCLE_ATOMIC):
        raise ValidationError(f"unknown measure kind {kind!r}")
    key = "x" if kind == REAL_ATOMIC else "theta"
    atoms = data.get("atoms")
    if not atoms:
        raise ValidationError("atomic measure needs a nonempty 'atoms' list")
    try:
        locs = np.array([_number(a, key) for a in atoms])
        ws = np.array([_number(a, "w") for a in atoms])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValidationError(f"malformed atom entry: {exc}") from exc
    total = ws.sum()
    if not math.isfinite(total) or abs(total - 1.0) > FILE_WEIGHT_TOL:
        raise ValidationError(
            f"atom weights sum to {float(total)}; must be within {FILE_WEIGHT_TOL} of 1"
        )
    ws = ws / total
    return SpectralMeasure(kind, locs, ws)


def load_measure(path) -> SpectralMeasure:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return measure_from_dict(data)
