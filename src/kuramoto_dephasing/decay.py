"""Decay-rate fitting and envelope certification for order-parameter paths.

Two model classes, matching the two regimes the solver certifies:
exponential R(t) ~ C e^{-rate t} (fit: log R against t) and polynomial
R(t) ~ C <t>^{-rate} (fit: log R against log <t>).  Fits are plain least
squares on a window, with residual reported as the sup of |log data -
log model| so an exact-model input is recognizable at rounding level.

Envelope certification turns a fitted model into the global statement
R(t) <= C w(t)^{-1}: C_min is the maximum of R * w over the whole grid,
and the certificate passes when that maximum is set by early times --
concretely, when extending the grid's last quarter moves the constant by
at most 5%.  A wrong decay class makes the product climb toward the end
of the grid and the certificate fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InsufficientDataError",
    "NonPositiveValuesError",
    "DecayModel",
    "EnvelopeCertificate",
    "fit_decay",
    "certify_envelope",
]

_KINDS = ("exponential", "polynomial")
DEFAULT_FLOOR = 1e-12
DEFAULT_BURN_IN = 2.0
MIN_POINTS = 10
EARLY_FRACTION = 0.75
ENVELOPE_SLACK = 1.05


class InsufficientDataError(ValueError):
    """Fewer than the required usable points in the fit window."""


class NonPositiveValuesError(ValueError):
    """Negative data in the fit window; a decay fit is meaningless."""


@dataclass(frozen=True)
class DecayModel:
    kind: str
    rate: float
    amplitude: float
    window: tuple
    residual: float
    n_points: int

    def weight_values(self, t):
        """w(t) with model decay normalized out: e^{rate t} or <t>^rate."""
        t = np.asarray(t, dtype=float)
        if self.kind == "exponential":
            return np.exp(self.rate * t)
        return (1.0 + t * t) ** (0.5 * self.rate)


@dataclass(frozen=True)
class EnvelopeCertificate:
    constant: float
    attained_at: float
    early_constant: float
    stabilization_ratio: float
    passed: bool


def _series(times, values):
    times, values = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1 or times.size == 0:
        raise ValueError("times and values must be matching non-empty 1-d arrays")
    return times, values


def fit_decay(
    times,
    values,
    kind: str,
    window: tuple | None = None,
) -> DecayModel:
    """Least-squares decay fit of a positive path on a time window.

    The default window starts after the burn-in (t = 2), where envelope
    constants rather than rates dominate.  Points at or below
    DEFAULT_FLOOR are dropped; negative points in the window, or fewer
    than MIN_POINTS usable ones, are an error.  A non-finite time, or a
    non-finite value in the window, is refused (ValueError): an inf would
    make the rate NaN, and a NaN would be dropped as if below the floor.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown decay kind {kind!r}")
    times, values = _series(times, values)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if window is None:
        window = (min(DEFAULT_BURN_IN, 0.5 * times[-1]), float(times[-1]))
    lo, hi = float(window[0]), float(window[1])
    if not (times[0] <= lo < hi <= times[-1] + 1e-12):
        raise ValueError(f"window {window} not inside the grid [{times[0]}, {times[-1]}]")
    mask = (times >= lo) & (times <= hi)
    bad = int(np.sum(~np.isfinite(values[mask])))
    if bad:
        raise ValueError(f"{bad} non-finite values in window")
    if np.any(values[mask] < 0.0):
        raise NonPositiveValuesError(
            f"{int(np.sum(values[mask] < 0))} negative values in window"
        )
    usable = mask & (values > DEFAULT_FLOOR)
    n = int(np.sum(usable))
    if n < MIN_POINTS:
        raise InsufficientDataError(
            f"only {n} usable points in window {window} (need {MIN_POINTS})"
        )
    t = times[usable]
    y = np.log(values[usable])
    x = t if kind == "exponential" else 0.5 * np.log1p(t * t)
    slope, intercept = np.polyfit(x, y, 1)
    rate = -float(slope)
    if rate <= 0.0:
        raise ValueError(f"fitted rate {rate:.3g} is not positive; path does not decay")
    residual = float(np.max(np.abs(y - (intercept + slope * x))))
    return DecayModel(
        kind=kind,
        rate=rate,
        amplitude=float(math.exp(intercept)),
        window=(lo, hi),
        residual=residual,
        n_points=n,
    )


def certify_envelope(
    times,
    values,
    model: DecayModel,
) -> EnvelopeCertificate:
    """Certify values(t) <= C / w_model(t) on the full grid.

    C is the grid maximum of |values| * w_model.  The certificate passes
    when C is finite and within ENVELOPE_SLACK of the maximum over the
    early EARLY_FRACTION of the grid: the envelope constant is then set by
    small times and stable under extending the horizon.  Shrinking the
    claimed rate only shifts weight toward early times, so a passing
    certificate cannot fail for any smaller rate.  ``times`` and
    ``values`` must be matching non-empty 1-d arrays, else ValueError.
    """
    times, values = _series(times, values)
    prods = np.abs(values) * model.weight_values(times)
    i_max = int(np.argmax(prods))
    c_full = float(prods[i_max])
    early = times <= EARLY_FRACTION * times[-1]
    c_early = float(np.max(prods[early]))
    if c_full == 0.0:
        ratio = 1.0
    elif c_early == 0.0:
        ratio = math.inf
    else:
        ratio = c_full / c_early
    passed = bool(math.isfinite(c_full) and ratio <= ENVELOPE_SLACK)
    return EnvelopeCertificate(
        constant=c_full,
        attained_at=float(times[i_max]),
        early_constant=c_early,
        stabilization_ratio=ratio,
        passed=passed,
    )
