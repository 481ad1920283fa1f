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

from .norms_grids import envelope

__all__ = [
    "SeriesError",
    "InsufficientDataError",
    "NonPositiveValuesError",
    "DecayModel",
    "EnvelopeCertificate",
    "fit_decay",
    "certify_envelope",
]

_KINDS = ("exponential", "polynomial")
DEFAULT_FLOOR = 1e-12
MIN_POINTS = 10
EARLY_FRACTION = 0.75
ENVELOPE_SLACK = 1.05


class SeriesError(ValueError):
    """Times and values that are not one finite series on increasing
    times, or a fit window outside its times."""


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
        return envelope(self.kind, self.rate, t)


@dataclass(frozen=True)
class EnvelopeCertificate:
    constant: float
    attained_at: float
    early_constant: float
    stabilization_ratio: float
    passed: bool


def _series(times, values):
    # the one rule for a series, refused as SeriesError: matching non-empty
    # 1-d arrays of finite numbers on strictly increasing times
    times, values = np.asarray(times, dtype=float), np.asarray(values, dtype=float)
    if times.shape != values.shape or times.ndim != 1 or times.size == 0:
        raise SeriesError("times and values must be matching non-empty 1-d arrays")
    for name, a in (("times", times), ("values", values)):
        bad = np.flatnonzero(~np.isfinite(a))
        if bad.size:
            raise SeriesError(f"{name} must be finite; entry {bad[0]} is {a[bad[0]]}")
    bad = np.flatnonzero(np.diff(times) <= 0.0)
    if bad.size:
        i = bad[0] + 1
        raise SeriesError(f"times must increase; entry {i} is {times[i]:g} after {times[i - 1]:g}")
    return times, values


def fit_decay(
    times,
    values,
    kind: str,
    window: tuple | None = None,
) -> DecayModel:
    """Least-squares decay fit of a positive path on a time window.

    ``times`` and ``values`` must be one series (``_series``: matching
    non-empty 1-d arrays, finite, on strictly increasing times) and
    ``window`` an increasing pair inside the times, else SeriesError.  The
    default window, from the last time t, is (min(2, t/4), min(15, t))
    for an exponential fit and (min(5, t/4), t) for a polynomial one,
    its start moved up to the first time of a series that starts later.
    Points at or below DEFAULT_FLOOR are dropped; negative points in the
    window, or fewer than MIN_POINTS usable ones, are an error.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown decay kind {kind!r}")
    times, values = _series(times, values)
    if window is None:
        # after the burn-in, where envelope constants rather than rates
        # dominate; an exponential path up to t = 15, before it meets the
        # rounding floor, a polynomial one to the end
        t = float(times[-1])
        window = ((min(2.0, 0.25 * t), min(15.0, t)) if kind == "exponential"
                  else (min(5.0, 0.25 * t), t))
        window = (max(window[0], float(times[0])), window[1])
    lo, hi = float(window[0]), float(window[1])
    if not (times[0] <= lo < hi <= times[-1] + 1e-12):
        # nan and inf fail the comparison too
        raise SeriesError(f"window {window} not inside the grid [{times[0]}, {times[-1]}]")
    mask = (times >= lo) & (times <= hi)
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
    ``values`` must be one series, as for ``fit_decay``, with a time in
    the early fraction, else SeriesError.
    """
    times, values = _series(times, values)
    early = times <= EARLY_FRACTION * times[-1]
    if not early.any():
        raise SeriesError(f"no time lies in the early fraction {EARLY_FRACTION:g} of the series: "
                          f"the first, {times[0]:g}, is after {EARLY_FRACTION:g} * {times[-1]:g}")
    prods = np.abs(values) * model.weight_values(times)
    i_max = int(np.argmax(prods))
    c_full = float(prods[i_max])
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
