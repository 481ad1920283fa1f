"""Space-time grids and time-weighted norms.

Two kinds of objects live here.  ``Grid`` fixes the discretization: a
uniform time grid on [0, t_max], a uniform periodic angle grid, and a
frequency quadrature rule matched to the profile so that integrating
smooth-times-oscillatory observables against g(omega) is accurate
uniformly in the oscillation frequency up to t_max.  ``WeightSpec`` fixes
the functional setting: the time weight w(t) against which order
parameters and deviation fields are measured, together with the closed
form tail integrals and the unit gains that turn a weighted norm of the
order parameter into contraction and deviation bounds.

The frequency rules are deliberately different per family:

* lorentzian: midpoint rule in u after omega = scale * tan(u).  The
  substitution flattens g d omega to du/pi, so each node carries equal
  probability weight 1/n and the rule integrates the constant exactly
  (zero mass defect by construction).
* laplace: per-side composite Gauss-Legendre panels of width ``scale``
  on [0, 20*scale], mirrored.  The truncated mass e^{-20}/2 per side is
  far below the mass tolerance ``_MASS_TOL``.
* gaussian: single Gauss-Legendre rule on [-6 sigma, 6 sigma].
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .spectral_state import FrequencyProfile

__all__ = [
    "GridError",
    "WeightSpec",
    "weighted_norm",
    "Grid",
    "build_grid",
    "DEFAULT_N_OMEGA",
]

DEFAULT_N_OMEGA = {"lorentzian": 129, "gaussian": 193, "laplace": 960}

_LAPLACE_PANELS = 20      # per side, unit width in units of scale
_LAPLACE_RANGE = 20.0     # truncation in units of scale; mass defect ~ e^-20
_GAUSS_RANGE = 6.0        # truncation in units of sigma
_MASS_TOL = 1e-8          # largest |sum(prob_weights) - 1| a Grid accepts


class GridError(ValueError):
    """Raised when a grid fails a structural or accuracy invariant."""


def _poly_tail(p: float, t):
    # Int_t^inf (1+s^2)^(-p/2) ds, exact via the regularized incomplete beta.
    # scipy.special is imported here: only polynomial weights need it
    from scipy import special

    t = np.asarray(t, dtype=float)
    x = t * t / (1.0 + t * t)
    half = 0.5 * special.beta(0.5, 0.5 * (p - 1.0))
    return half * special.betaincc(0.5, 0.5 * (p - 1.0), x)


def _log_poly_tail(p: float, t):
    # log Int_t^inf (1+s^2)^(-p/2) ds for t > 0, from the closed form
    # t (1+t^2)^(-p/2) 2F1(p/2, 1; (p+1)/2; 1/(1+t^2)) / (p-1), whose
    # factors neither overflow nor underflow where the tail itself does;
    # scipy.special is imported here: only polynomial weights need it
    from scipy import special

    t = np.asarray(t, dtype=float)
    x = 1.0 / (1.0 + t * t)
    series = special.hyp2f1(0.5 * p, 1.0, 0.5 * (p + 1.0), x)
    return np.log(t) - 0.5 * p * np.log1p(t * t) + np.log(series) - math.log(p - 1.0)


def _weighted_tail_sup(gamma: float, p: float, t, wdev) -> float:
    # sup over t of <t>^(gamma-1) * Int_t^inf <s>^(-p) ds; where the linear
    # product is not finite (the weight overflows, or inf * 0 once the tail
    # underflows too) the product is taken in log space instead
    with np.errstate(invalid="ignore"):
        prod = wdev * _poly_tail(p, t)
    lost = ~np.isfinite(prod)
    if lost.any():
        tl = t[lost]
        prod[lost] = np.exp(0.5 * (gamma - 1.0) * np.log1p(tl * tl) + _log_poly_tail(p, tl))
    return float(np.max(prod))


@functools.lru_cache(maxsize=None)
def _poly_gains(gamma: float):
    # sup_t <t>^(gamma-1) * Int_t^inf <s>^(-p) ds for p = 2*gamma - 1 (the
    # contraction gain) and p = gamma (the deviation gain).  The supremum is
    # over a dense grid plus the exact t -> inf limit 1/(p-1) when the
    # exponents balance.
    t = np.linspace(0.0, 400.0, 40001)
    with np.errstate(over="ignore"):
        wdev = (1.0 + t * t) ** (0.5 * (gamma - 1.0))
    contr = _weighted_tail_sup(gamma, 2.0 * gamma - 1.0, t, wdev)
    dev = _weighted_tail_sup(gamma, gamma, t, wdev)
    dev = max(dev, 1.0 / (gamma - 1.0))
    return contr, dev


@dataclass(frozen=True)
class WeightSpec:
    """Time weight w(t) defining the norm sup_t w(t) |h(t)|.

    kind ``"exponential"`` gives w(t) = e^{rate * t} with rate > 0; kind
    ``"polynomial"`` gives w(t) = (1 + t^2)^{rate/2} with rate >= 2.
    Deviation fields are measured against the companion weight: the same
    exponential, or one polynomial degree lower, matching how a weighted
    tail integral loses one power of decay.
    """

    kind: str
    rate: float

    def __post_init__(self):
        if self.kind not in ("exponential", "polynomial"):
            raise GridError(f"unknown weight kind {self.kind!r}")
        if not math.isfinite(self.rate):
            raise GridError("weight rate must be finite")
        if self.kind == "exponential" and self.rate <= 0.0:
            raise GridError("exponential weight needs rate > 0")
        if self.kind == "polynomial" and self.rate < 2.0:
            raise GridError("polynomial weight needs rate >= 2")

    def values(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "exponential":
            return np.exp(self.rate * t)
        return (1.0 + t * t) ** (0.5 * self.rate)

    def deviation_values(self, t):
        """Weight for characteristic deviations: e^{rate t} or <t>^{rate-1}."""
        t = np.asarray(t, dtype=float)
        if self.kind == "exponential":
            return np.exp(self.rate * t)
        return (1.0 + t * t) ** (0.5 * (self.rate - 1.0))

    def check_finite(self, t_max: float):
        """Raise GridError unless the weights at t_max and the unit gains are finite.

        Both weights grow with t, so finite values at t_max keep every
        weighted norm of finite data on [0, t_max] finite; an overflow
        would turn the bounds into inf * 0 = NaN.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            top = max(self.values(t_max), self.deviation_values(t_max))
            gains = (self.unit_contraction_gain, self.unit_deviation_gain)
        if not np.isfinite(top):
            raise GridError(f"weight {self.label()} overflows at t_max = {t_max:g}")
        if not all(map(math.isfinite, gains)):
            raise GridError(f"weight {self.label()} has no finite unit gains")

    def tail_integral(self, t_from: float) -> float:
        """Int_{t_from}^inf 1/w(s) ds, in closed form."""
        if self.kind == "exponential":
            return math.exp(-self.rate * t_from) / self.rate
        return float(_poly_tail(self.rate, t_from))

    @property
    def unit_contraction_gain(self) -> float:
        """kappa per unit of mu * ||R||: 1/rate, or the balanced beta-tail sup."""
        if self.kind == "exponential":
            return 1.0 / self.rate
        return _poly_gains(self.rate)[0]

    @property
    def unit_deviation_gain(self) -> float:
        """Deviation-norm bound per unit of mu * ||R||."""
        if self.kind == "exponential":
            return 1.0 / self.rate
        return _poly_gains(self.rate)[1]

    def label(self) -> str:
        if self.kind == "exponential":
            return f"exp({self.rate:g}*t)"
        return f"(1+t^2)^({self.rate:g}/2)"


def weighted_norm(times, values, spec: WeightSpec, deviation: bool = False) -> float:
    """sup over the grid of w(t) |values|, time along the first axis."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values)
    if values.shape[:1] != times.shape:
        raise ValueError(
            f"time axis mismatch: {values.shape} values vs {times.shape} times"
        )
    if times.size == 0:
        raise ValueError("empty time grid")
    w = spec.deviation_values(times) if deviation else spec.values(times)
    rows = values.reshape(times.size, -1)
    if np.iscomplexobj(rows):
        mags = np.abs(rows).max(axis=1)
    else:
        # max and -min give max|x| exactly, NaN included, with no |x| copy
        mags = np.maximum(rows.max(axis=1), -rows.min(axis=1))
    return float(np.max(w * mags))


def _lorentzian_rule(scale: float, n: int):
    h = math.pi / n
    u = -0.5 * math.pi + h * (np.arange(n) + 0.5)
    nodes = scale * np.tan(u)
    # du/pi mass per node mapped back through g: exact unit mass
    weights = h * (scale * scale + nodes * nodes) / scale
    return nodes, weights


def _laplace_order(n: int) -> int:
    # Gauss points per panel for a target of n nodes over both sides
    return max(4, int(round(n / (2 * _LAPLACE_PANELS))))


def rule_size(kind: str, n_omega: int) -> int:
    """Node count of the frequency rule ``build_grid`` makes for a target."""
    if kind == "laplace":
        return 2 * _LAPLACE_PANELS * _laplace_order(n_omega)
    return int(n_omega)


def _laplace_rule(scale: float, n: int):
    q = _laplace_order(n)
    x, w = np.polynomial.legendre.leggauss(q)
    nodes, weights = [], []
    for j in range(_LAPLACE_PANELS):
        lo = scale * j * (_LAPLACE_RANGE / _LAPLACE_PANELS)
        hi = scale * (j + 1) * (_LAPLACE_RANGE / _LAPLACE_PANELS)
        mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
        nodes.append(mid + rad * x)
        weights.append(rad * w)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    nodes = np.concatenate([-nodes[::-1], nodes])
    weights = np.concatenate([weights[::-1], weights])
    return nodes, weights

def _gaussian_rule(scale: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    half = _GAUSS_RANGE * scale
    return half * x, half * w


_RULES = {
    "lorentzian": _lorentzian_rule,
    "laplace": _laplace_rule,
    "gaussian": _gaussian_rule,
}


@dataclass(frozen=True, eq=False)
class Grid:
    """Discretization triple: times on [0, t_max], angles, frequency rule.

    ``omega_weights`` are plain d-omega weights; ``prob_weights`` fold in
    the profile density, so sum(prob_weights * h(nodes)) approximates the
    g-average of h.  Construction validates step compatibility, angular
    resolution, and the quadrature mass defect against ``_MASS_TOL``.
    """

    profile: FrequencyProfile
    t_max: float
    dt: float
    n_theta: int
    omega_nodes: np.ndarray
    omega_weights: np.ndarray
    prob_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.dt < math.inf and 0.0 < self.t_max < math.inf):
            raise GridError("need finite dt > 0 and t_max > 0")
        steps = self.t_max / self.dt
        if abs(steps - round(steps)) > 1e-9 * max(1.0, steps):
            raise GridError(f"t_max = {self.t_max} is not a multiple of dt = {self.dt}")
        if round(steps) < 4:
            raise GridError("need at least 4 time steps")
        if self.n_theta < 8 or self.n_theta % 2:
            raise GridError("n_theta must be even and >= 8")
        nodes = np.asarray(self.omega_nodes, dtype=float)
        weights = np.asarray(self.omega_weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size < 2:
            raise GridError("omega nodes/weights must be matching 1-d arrays")
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise GridError("omega nodes and weights must be finite")
        object.__setattr__(self, "omega_nodes", nodes)
        object.__setattr__(self, "omega_weights", weights)
        # a profile scale near the float64 range can overflow the density of
        # finite nodes; the mass check below refuses what that leaves
        with np.errstate(over="ignore", invalid="ignore"):
            pw = weights * self.profile.density(nodes)
        object.__setattr__(self, "prob_weights", pw)
        defect = abs(float(pw.sum()) - 1.0)
        if not defect <= _MASS_TOL:
            raise GridError(
                f"frequency rule mass defect {defect:.3e} exceeds tol {_MASS_TOL:.1e}"
            )

    @property
    def n_times(self) -> int:
        return int(round(self.t_max / self.dt)) + 1

    @property
    def n_omega(self) -> int:
        return self.omega_nodes.size

    def times(self):
        return self.dt * np.arange(self.n_times)

    def theta(self):
        return 2.0 * math.pi * np.arange(self.n_theta) / self.n_theta

    def shape(self):
        return (self.n_times, self.n_theta, self.n_omega)


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _refuse_oversized_field(t_max: float, dt: float, n_theta: int, n_omega: int):
    # a field that cannot fit in memory cannot be solved: refuse it from the
    # grid numbers alone (Grid itself reports steps that are not positive
    # and finite)
    if not (0.0 < dt < math.inf and 0.0 < t_max < math.inf):
        return
    memory = physical_memory()
    if memory is None:
        return
    steps = t_max / dt
    need = 8 * (round(steps) + 1) * n_theta * n_omega if math.isfinite(steps) else math.inf
    if need > memory:
        raise GridError(
            f"grid field of {need / 1e9:.3g} GB exceeds physical memory "
            f"({memory / 1e9:.3g} GB)"
        )


def build_grid(
    profile: FrequencyProfile,
    t_max: float,
    dt: float,
    n_theta: int = 64,
    n_omega: int | None = None,
) -> Grid:
    """Construct a Grid with the frequency rule matched to the profile.

    ``n_omega`` is a target: the laplace rule rounds it to a whole number
    of Gauss panels.  Omitting it picks a per-family default that resolves
    oscillations e^{i omega t} accurately through t ~ 40.  Raises
    GridError before anything is allocated when one float64 field of the
    grid would exceed physical memory.
    """
    if n_omega is None:
        n_omega = DEFAULT_N_OMEGA[profile.kind]
    if n_omega < 8:
        raise GridError("need at least 8 frequency nodes")
    _refuse_oversized_field(t_max, dt, n_theta, rule_size(profile.kind, int(n_omega)))
    with np.errstate(over="ignore", invalid="ignore"):
        # a profile scale near the float64 range overflows the rule; Grid
        # refuses its non-finite nodes and weights in one line
        nodes, weights = _RULES[profile.kind](profile.scale, int(n_omega))
    return Grid(
        profile=profile,
        t_max=float(t_max),
        dt=float(dt),
        n_theta=int(n_theta),
        omega_nodes=nodes,
        omega_weights=weights,
    )
