"""Space-time grids and time-weighted norms.

Two kinds of objects live here.  ``Grid`` fixes the discretization: a
uniform time grid on [0, t_max], a uniform periodic angle grid, and a
frequency quadrature rule matched to the profile so that integrating
smooth-times-oscillatory observables against g(omega) is accurate
uniformly in the oscillation frequency up to t_max.  ``WeightSpec`` fixes
the functional setting: the time weight w(t) against which order
parameters and deviation fields are measured, together with the closed
form tail integrals and the unit gains that turn a weighted norm of the
order parameter into contraction and deviation bounds.  A polynomial
weight's tails Int_t^inf (1+s^2)^(-p/2) ds are incomplete beta functions,
evaluated here in numpy by their continued fraction for every t in
[0, inf], with no scipy submodule.

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

from .spectral_state import FrequencyProfile, integer, real

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


_CF_TOL = 1e-15           # a continued fraction term within this of 1 ends it
_CF_MAX_TERMS = 10000


def _beta_fraction(a: float, b: float, x):
    # B_x(a, b) * a / (x^a (1-x)^b) by its continued fraction (Numerical
    # Recipes 6.4), modified Lentz, for 1-d x < (a+1)/(a+b+2), where it
    # converges in O(sqrt(max(a, b))) terms or fewer.  Each entry stops at
    # its own first converged term: past it, rounding only makes c and d
    # wander
    out = np.empty_like(x)
    todo = np.arange(x.size)
    d = 1.0 / (1.0 - (a + b) / (a + 1.0) * x)
    c = np.ones_like(x)
    h = d.copy()
    for m in range(1, _CF_MAX_TERMS):
        if not todo.size:
            return out
        # ratios first: a product of two factors of order a overflows
        for coef in (m * ((b - m) / (a + 2 * m - 1.0)) / (a + 2 * m),
                     -((a + m) / (a + 2 * m)) * ((a + b + m) / (a + 2 * m + 1.0))):
            step = coef * x
            d = 1.0 / (1.0 + step * d)
            c = 1.0 + step / c
            step = d * c
            h *= step
        done = ~(np.abs(step - 1.0) > _CF_TOL)  # a NaN ends at once, as NaN
        if done.any():
            out[todo[done]] = h[done]
            left = ~done
            todo, x, d, c, h = todo[left], x[left], d[left], c[left], h[left]
    raise ArithmeticError(f"incomplete beta fraction B(x; {a:g}, {b:g}) did not converge")


def _half_beta(b: float) -> float:
    # B(b, 1/2)/2 = sqrt(pi) Gamma(b) / (2 Gamma(b + 1/2)); from b = 100 on,
    # near math.gamma's overflow, by the series log(Gamma(b + 1/2)/Gamma(b))
    # = log(b)/2 - 1/(8b) + 1/(192b^3) - 1/(640b^5) + 17/(14336b^7) - ...,
    # whose truncation is below 1e-20 there.  exp(lgamma(b) - lgamma(b + 1/2))
    # would cancel, to a relative error of about eps * b * log(b)
    if b < 100.0:
        return 0.5 * math.sqrt(math.pi) * math.gamma(b) / math.gamma(b + 0.5)
    u = 1.0 / b
    series = u * (0.125 - u * u * (1.0 / 192.0 - u * u * (1.0 / 640.0 - u * u * 17.0 / 14336.0)))
    return 0.5 * math.sqrt(math.pi / b) * math.exp(series)


def _poly_tail(p: float, t, log: bool = False, lift: float = 0.0):
    """T_p(t) = Int_t^inf (1+s^2)^(-p/2) ds for p > 1 and t in [0, inf], or its log.

    With x = 1/(1+t^2) and b = (p-1)/2, T_p(t) = B_x(b, 1/2) / 2 =
    t (1+t^2)^(-p/2) F / (p-1), F the incomplete beta continued fraction,
    used where x < (b+1)/(b+5/2); for smaller t, T_p = B(b, 1/2)/2 -
    t (1+t^2)^(-p/2) F', the complement with F' the fraction of
    B_{1-x}(1/2, b).  For t > 1 the lead factor is t^(1-p) (1+t^-2)^(-p/2),
    so t^2 is never formed: T_p(inf) = 0, and the linear value holds its
    relative accuracy down to where it underflows.  ``log=True`` gives
    log T_p, finite wherever T_p is positive, in and past that underflow.

    ``lift`` gives (1+t^2)^(lift/2) T_p(t) instead: the lead factor takes
    the net power p - lift of <t> = (1+t^2)^(1/2) before any log is
    taken, so a weighted tail whose weight and tail are both huge keeps
    its digits where the sum of their two logs would cancel (the
    complement, at t <= 1, takes <t>^lift apart, which stays below e^1.5
    there).  ``lift = 0`` is T_p bit for bit.
    """
    shape = np.shape(t)
    t = np.asarray(t, dtype=float).ravel()
    b = 0.5 * (p - 1.0)
    big = t > 1.0
    s = np.divide(1.0, t, out=t.copy(), where=big)
    s2 = s * s
    x = np.where(big, s2, 1.0) / (1.0 + s2)
    net = p - lift
    shrink = -0.5 * net * np.log1p(s2)
    power = np.where(big, 1.0 - net, 1.0)
    if log:
        with np.errstate(divide="ignore"):
            lead = power * np.log(t) + shrink
    else:
        lead = np.power(t, power) * np.exp(shrink)
    # the complement holds only t <= 1 (x >= 1/2 there), where 1 - x =
    # t^2/(1+t^2) and T_p is of order B(b, 1/2)/2
    comp = x >= (b + 1.0) / (b + 2.5)
    frac = np.empty_like(x)
    frac[~comp] = _beta_fraction(b, 0.5, x[~comp])
    frac[comp] = _beta_fraction(0.5, b, s2[comp] / (1.0 + s2[comp]))
    if log:
        tail = lead + np.log(frac) - math.log(p - 1.0)
        lead = np.exp(lead)  # the complement below takes it linear
    else:
        tail = lead * frac / (p - 1.0)
    near = _half_beta(b) * np.exp(0.5 * lift * np.log1p(s2[comp])) - lead[comp] * frac[comp]
    tail[comp] = np.log(near) if log else near
    return tail.reshape(shape)


@functools.lru_cache(maxsize=64)
def _poly_tail_at(p: float, t: float) -> float:
    # one solve or sweep asks for one tail, always at its grid's t_max
    return float(_poly_tail(p, t))


def _weighted_tail_sup(gamma: float, p: float, t, wdev) -> float:
    # sup over t of <t>^(gamma-1) * Int_t^inf <s>^(-p) ds; where the linear
    # product is not finite (the weight overflows, or inf * 0 once the tail
    # underflows too) the product is taken in log space instead, with the
    # weight's power of <t> combined into the tail's lead factor first
    with np.errstate(invalid="ignore"):
        prod = wdev * _poly_tail(p, t)
    lost = ~np.isfinite(prod)
    if lost.any():
        prod[lost] = np.exp(_poly_tail(p, t[lost], log=True, lift=gamma - 1.0))
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


def envelope(kind: str, rate: float, t):
    """e^{rate t} for kind "exponential", else (1 + t^2)^{rate/2}, at times t."""
    t = np.asarray(t, dtype=float)
    if kind == "exponential":
        return np.exp(rate * t)
    return (1.0 + t * t) ** (0.5 * rate)


@dataclass(frozen=True)
class WeightSpec:
    """Time weight w(t) defining the norm sup_t w(t) |h(t)|.

    kind ``"exponential"`` gives w(t) = e^{rate * t} with rate > 0; kind
    ``"polynomial"`` gives w(t) = (1 + t^2)^{rate/2} with rate >= 2.
    Deviation fields are measured against the companion weight: the same
    exponential, or one polynomial degree lower, matching how a weighted
    tail integral loses one power of decay.  Anything else raises GridError.
    """

    kind: str
    rate: float

    def __post_init__(self):
        if self.kind not in ("exponential", "polynomial"):
            raise GridError(f"unknown weight kind {self.kind!r}")
        exponential = self.kind == "exponential"
        rate = real(f"{self.kind} weight rate", self.rate,
                    lo=0.0 if exponential else 2.0, above=exponential, error=GridError)
        object.__setattr__(self, "rate", rate)

    def values(self, t):
        return envelope(self.kind, self.rate, t)

    def deviation_values(self, t):
        """Weight for characteristic deviations: e^{rate t} or <t>^{rate-1}."""
        return envelope(self.kind, self.rate if self.kind == "exponential" else self.rate - 1.0, t)

    def check_finite(self, t_max: float):
        """Raise GridError unless the weights at t_max and the unit gains are finite.

        Both weights grow with t, so finite values at t_max keep every
        weighted norm of finite data on [0, t_max] finite; an overflow
        would turn the bounds into inf * 0 = NaN.  The weights are checked
        first, so an overflow is refused before the gains, whose sups take
        about 20 ms for a new polynomial rate, are computed.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            top = max(self.values(t_max), self.deviation_values(t_max))
        if not np.isfinite(top):
            raise GridError(f"weight {self.label()} overflows at t_max = {t_max:g}")
        with np.errstate(over="ignore", invalid="ignore"):
            gains = (self.unit_contraction_gain, self.unit_deviation_gain)
        if not all(map(math.isfinite, gains)):
            raise GridError(f"weight {self.label()} has no finite unit gains")

    def tail_integral(self, t_from: float) -> float:
        """Int_{t_from}^inf 1/w(s) ds for t_from in [0, inf], in closed form.

        Polynomial weights take ``_poly_tail``'s incomplete beta form, to a
        few units of 1e-15 (rates 2 to 5) from t_from = 0 to where the tail
        underflows; ``t_from = inf`` gives 0.  A NaN or negative t_from
        raises ValueError.
        """
        if not t_from >= 0.0:
            raise ValueError(f"tail_integral needs t_from >= 0, got {t_from!r}")
        if self.kind == "exponential":
            return math.exp(-self.rate * t_from) / self.rate
        return _poly_tail_at(self.rate, float(t_from))

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


def _rule_bytes(kind: str, n_omega: int) -> int:
    # the peak of building the frequency rule for a target: leggauss(q)
    # builds a (q, q) float64 companion matrix, q the points per panel of
    # the laplace rule and n_omega itself for the gaussian; the lorentzian
    # rule holds three float64 rows of n_omega
    if kind == "lorentzian":
        return 24 * n_omega
    q = _laplace_order(n_omega) if kind == "laplace" else n_omega
    return 8 * q * q


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
    g-average of h.  Construction applies the package's input rules to
    t_max and dt (finite, > 0) and n_theta (an even integer >= 8), refuses
    a grid one float64 field of which exceeds physical memory, then
    validates step compatibility and the quadrature mass defect against
    ``_MASS_TOL``; a failure raises GridError.
    """

    profile: FrequencyProfile
    t_max: float
    dt: float
    n_theta: int
    omega_nodes: np.ndarray
    omega_weights: np.ndarray
    prob_weights: np.ndarray = field(init=False, repr=False)
    n_times: int = field(init=False, repr=False)

    def __post_init__(self):
        t_max = real("grid t_max", self.t_max, lo=0.0, above=True, error=GridError)
        dt = real("grid dt", self.dt, lo=0.0, above=True, error=GridError)
        n_theta = integer("grid n_theta", self.n_theta, lo=8, error=GridError)
        if n_theta % 2:
            raise GridError(f"grid n_theta must be even, got {n_theta}")
        nodes = np.asarray(self.omega_nodes, dtype=float)
        weights = np.asarray(self.omega_weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size < 2:
            raise GridError("omega nodes/weights must be matching 1-d arrays")
        # a field that cannot fit in memory cannot be solved: refuse it first.
        # t_max / dt is rounded in integers, since the float quotient can
        # overflow, and that count is the grid's
        (a, b), (c, d) = t_max.as_integer_ratio(), dt.as_integer_ratio()
        n_times = (2 * a * d + b * c) // (2 * b * c) + 1
        refuse_oversized("grid field", 8 * n_times * n_theta * nodes.size)
        steps = t_max / dt
        if not math.isfinite(steps):
            raise GridError(f"grid t_max / dt = {t_max:g} / {dt:g} is beyond the float range")
        if abs(steps - (n_times - 1)) > 1e-9 * max(1.0, steps):
            raise GridError(f"t_max = {t_max} is not a multiple of dt = {dt}")
        if n_times < 5:
            raise GridError("need at least 4 time steps")
        object.__setattr__(self, "n_times", n_times)
        object.__setattr__(self, "t_max", t_max)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "n_theta", n_theta)
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
    def n_omega(self) -> int:
        return self.omega_nodes.size

    def times(self):
        return self.dt * np.arange(self.n_times)

    def theta(self):
        return 2.0 * math.pi * np.arange(self.n_theta) / self.n_theta

    def shape(self):
        return (self.n_times, self.n_theta, self.n_omega)

    def check_modes(self, modes):
        """Raise GridError for a mode k >= n_theta / 2, which the angles alias.

        The angle sums (mass, order parameter) would read another state.
        """
        top = max(modes, default=0)
        if top >= self.n_theta // 2:
            raise GridError(
                f"mode {top} is not resolved by n_theta = {self.n_theta}: "
                f"modes must be below n_theta/2 = {self.n_theta // 2}"
            )


def physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def refuse_oversized(what: str, need: int, error=GridError):
    """Raise ``error`` when ``need`` bytes exceed physical memory.

    ``need`` is an exact int, compared and printed without a float: a count
    can pass the float range (an n_theta of 10**400 is an integer >= 8).
    """
    memory = physical_memory()
    if memory is not None and need > memory:
        from decimal import Decimal  # only a refusal prints a byte count

        gb = [format(Decimal(n).scaleb(-9), ".3g") for n in (need, memory)]
        raise error(f"{what} of {gb[0]} GB exceeds physical memory ({gb[1]} GB)")


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
    GridError for an n_omega that is not an integer >= 8 (a fraction is
    refused, not truncated) and when building the frequency rule would
    exceed physical memory, both before the rule is built; ``Grid`` then
    applies its own rules to t_max, dt and n_theta and its memory guard to
    the field.
    """
    if n_omega is None:
        n_omega = DEFAULT_N_OMEGA[profile.kind]
    n_omega = integer("grid n_omega", n_omega, lo=8, error=GridError)
    refuse_oversized("frequency rule", _rule_bytes(profile.kind, n_omega))
    with np.errstate(over="ignore", invalid="ignore"):
        # a profile scale near the float64 range overflows the rule; Grid
        # refuses its non-finite nodes and weights in one line
        nodes, weights = _RULES[profile.kind](profile.scale, n_omega)
    return Grid(
        profile=profile,
        t_max=t_max,
        dt=dt,
        n_theta=n_theta,
        omega_nodes=nodes,
        omega_weights=weights,
    )
