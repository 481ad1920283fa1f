"""Backward characteristic flow driven by a prescribed order-parameter path.

Given a complex path z(t) = R(t) e^{i phi(t)} on the time grid, the phase
label theta of an oscillator with natural frequency omega is transported by
the backward flow that settles onto the free rotation theta + omega t as
t -> t_max.  We work with the deviation

    D(t, theta, omega) = Theta(t, theta, omega) - theta - omega t,

which satisfies the fixed-point relation

    D(t) = mu * Int_t^{t_max} R(s) sin(theta + omega s + D(s) - phi(s)) ds
         = mu * Im( e^{i theta} Int_t^{t_max} conj(z(s)) e^{i D(s)} e^{i omega s} ds ).

The s-integral is discretized by interpolating the slowly varying factor
c(s) = conj(z(s)) e^{i D(s)} linearly on each cell and integrating it against
the oscillation e^{i omega s} exactly.  The resulting cell weights alpha and
beta are bounded by 1/2 in modulus for every omega, which keeps the discrete
map (a) second-order accurate uniformly in omega and (b) a contraction with
at most the continuum factor, so the estimates certified at runtime are
meaningful on the grid and not just in the limit.

A classical Runge-Kutta integration of the same characteristic equation,
sub-stepped so the phase advance omega * h stays small on every column,
serves as the independent route for cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .norms_grids import Grid, WeightSpec, weighted_norm

__all__ = [
    "NonContractiveError",
    "MaxSweepsExceededError",
    "StepRejectedError",
    "CharacteristicField",
    "ContractionReport",
    "GammaField",
    "filon_weights",
    "deviation_sweep",
    "picard_sweep",
    "solve_fixed_point",
    "backward_ode_oracle",
    "gamma_field",
]

# keep the widest per-block slab of complex cells near ~64 MB
_BLOCK_ELEMENTS = 4_000_000
# below this deviation amplitude a quartic polynomial evaluates e^{iD}
# with error < 1e-11, at roughly a third of the cost of np.exp
_POLY_THRESHOLD = 0.1


class NonContractiveError(RuntimeError):
    """Predicted sweep gain >= 1; the Picard iteration would not converge."""

    def __init__(self, bound: float):
        super().__init__(f"contraction bound {bound:.6g} >= 1")
        self.bound = bound


class MaxSweepsExceededError(RuntimeError):
    """Residual failed to reach tolerance within the sweep budget."""


class StepRejectedError(RuntimeError):
    """A frequency column demanded more sub-steps than the refinement cap."""


@dataclass(frozen=True, eq=False)
class CharacteristicField:
    """Deviation field D on the (time, angle, frequency) grid, plus context."""

    grid: Grid
    deviation: np.ndarray
    mu: float
    iterate: int = 0

    def __post_init__(self):
        if self.deviation.shape != self.grid.shape():
            raise ValueError(
                f"deviation shape {self.deviation.shape} != grid shape {self.grid.shape()}"
            )

    def theta_at(self, time_index: int) -> np.ndarray:
        """Full transported angle Theta(t_i) = theta + omega t_i + D(t_i)."""
        g = self.grid
        t = g.dt * time_index
        return g.theta()[:, None] + t * g.omega_nodes[None, :] + self.deviation[time_index]

    def deviation_norm(self, weight: WeightSpec) -> float:
        return weighted_norm(self.grid.times(), self.deviation, weight, deviation=True)

    def sup(self) -> float:
        # max and -min instead of max|D|: no field-sized temporary
        return float(np.maximum(self.deviation.max(), -self.deviation.min()))


@dataclass
class ContractionReport:
    """Record of one fixed-point solve: residual trail and certified gain.

    ``ratios`` are successive residual quotients, recorded only while the
    previous residual sits above ``floor`` (quotients of rounding noise say
    nothing about the map).  ``bound`` is the a priori gain
    mu * ||R|| * unit_contraction_gain that every recorded ratio is checked
    against downstream.  ``tail_remainder`` certifies the truncated
    s-integral beyond t_max.
    """

    bound: float
    sweeps: int = 0
    residuals: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    converged: bool = False
    tol: float = 0.0
    floor: float = 0.0
    tail_remainder: float = 0.0

    def as_dict(self) -> dict:
        return {
            "bound": self.bound,
            "sweeps": self.sweeps,
            "residuals": list(map(float, self.residuals)),
            "ratios": list(map(float, self.ratios)),
            "converged": self.converged,
            "tol": self.tol,
            "floor": self.floor,
            "tail_remainder": self.tail_remainder,
        }


@dataclass(frozen=True, eq=False)
class GammaField:
    """Coupling integrals along characteristics and their running bound.

    ``sin_part`` is Gamma with D = mu * Gamma at the fixed point;
    ``cos_part`` is the companion cosine integral whose exponential is the
    exact angular Jacobian of the transported label map.  ``beta`` bounds
    |Gamma(t)| pointwise by Int_t^inf R, discretized with the same cell
    weights (|alpha| + |beta| <= 1 per cell makes the bound provable on the
    grid, not merely asymptotic); ``margin`` is max(|Gamma| - beta), which
    should never exceed rounding.
    """

    grid: Grid
    sin_part: np.ndarray
    cos_part: np.ndarray
    beta: np.ndarray
    margin: float

    def bound_holds(self, slack: float = 1e-12) -> bool:
        return self.margin <= slack


def filon_weights(w):
    """Cell weights for Int_0^1 (1-tau) e^{i w tau} dtau and its tau twin.

    Closed form via the first two oscillatory moments; a 12-term series
    takes over below |w| = 0.8 where the closed form loses digits.  Both
    weights have modulus <= 1/2 for all real w (they are averages of
    unimodular phases against the hat masses 1/2).
    """
    w = np.asarray(w, dtype=float)
    alpha = np.empty(w.shape, dtype=complex)
    beta = np.empty(w.shape, dtype=complex)
    small = np.abs(w) < 0.8
    wl = w[~small]
    iw = 1j * wl
    eiw = np.exp(iw)
    m0 = (eiw - 1.0) / iw
    m1 = eiw / iw - (eiw - 1.0) / (iw * iw)
    alpha[~small] = m0 - m1
    beta[~small] = m1
    ws = w[small]
    m0s = np.zeros(ws.shape, dtype=complex)
    m1s = np.zeros(ws.shape, dtype=complex)
    pw = np.ones(ws.shape, dtype=complex)
    for k in range(12):
        m0s += pw / math.factorial(k + 1)
        m1s += pw * (k + 1) / math.factorial(k + 2)
        pw = pw * (1j * ws)
    alpha[small] = m0s - m1s
    beta[small] = m1s
    return alpha, beta


def _phase_factor(dev_block, use_poly: bool):
    # e^{iD}; quartic fast path is valid only when callers have certified
    # sup|D| <= _POLY_THRESHOLD for the whole solve
    if use_poly:
        d2 = dev_block * dev_block
        return (1.0 - 0.5 * d2) + 1j * (dev_block * (1.0 - d2 / 6.0))
    return np.exp(1j * dev_block)


def _block_integral(times, omega_block, z, dev_block, use_poly):
    # I(t_i) = Int_{t_i}^{t_max} c(s) e^{i omega s} ds for one omega block,
    # cellwise alpha/beta weights, accumulated from the far end backward
    dt = float(times[1] - times[0])
    w = omega_block * dt
    alpha, beta = filon_weights(w)
    # the right node of each cell carries phase e^{i omega s_{j+1}}: fold the
    # extra e^{i w} into the beta weight so both terms use node phases
    beta_eff = beta * np.exp(-1j * w)
    chat = _phase_factor(dev_block, use_poly)
    chat *= np.conj(z)[:, None, None]
    chat *= np.exp(1j * np.outer(times, omega_block))[:, None, :]
    cells = (dt * alpha)[None, None, :] * chat[:-1]
    cells += (dt * beta_eff)[None, None, :] * chat[1:]
    out = np.empty_like(chat)
    out[-1] = 0.0
    np.cumsum(cells[::-1], axis=0, out=cells[::-1])
    out[:-1] = cells
    return out


def deviation_sweep(times, theta, omega, z, deviation, mu, use_poly=False):
    """One application of the backward-integral map to a deviation field.

    Operates on raw arrays so alternative node sets can be pushed through.
    Returns the new deviation, mu * Im(e^{i theta} I), blocked over
    frequency columns to bound the complex working set.
    """
    times = np.asarray(times, dtype=float)
    z = np.asarray(z, dtype=complex)
    if z.shape != times.shape:
        raise ValueError("z must be sampled on the time grid")
    n_t, n_th = len(times), len(theta)
    out = np.empty_like(deviation)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    block = max(1, _BLOCK_ELEMENTS // (n_t * n_th))
    for lo in range(0, len(omega), block):
        sl = slice(lo, min(lo + block, len(omega)))
        ib = _block_integral(times, omega[sl], z, deviation[:, :, sl], use_poly)
        # Im(e^{i theta} I) without forming the complex product
        out[:, :, sl] = ib.imag
        out[:, :, sl] *= cos_t[None, :, None]
        out[:, :, sl] += sin_t[None, :, None] * ib.real
    out *= mu
    return out


def _open_report(grid: Grid, z, mu: float, weight: WeightSpec, tol: float):
    # certified gain and deviation scale of the map F_z; refuses kappa >= 1
    r_norm = weighted_norm(grid.times(), z, weight)
    bound = mu * r_norm * weight.unit_contraction_gain
    if not bound < 1.0:
        raise NonContractiveError(bound)
    dev_scale = mu * r_norm * weight.unit_deviation_gain
    report = ContractionReport(
        bound=bound,
        tol=tol,
        floor=max(tol, 1e-14 * max(1.0, dev_scale)),
        tail_remainder=mu * r_norm * weight.tail_integral(grid.t_max),
    )
    return report, dev_scale


def picard_sweep(
    grid: Grid,
    z,
    mu: float,
    weight: WeightSpec,
    field: CharacteristicField | None = None,
):
    """One sweep D |-> F_z(D) of the backward map from an arbitrary field.

    ``field`` defaults to D = 0.  Refuses a gain >= 1 like
    ``solve_fixed_point``.  The report carries the single residual
    ||F_z(D) - D||_w and no ratios, and is never ``converged``: one sweep
    does not solve the fixed point.  A zero gain (mu = 0 or z = 0) makes
    F_z identically zero, so the zero field is returned without a sweep;
    that report is ``converged``, since the zero field is then exact.

    Returns (CharacteristicField, ContractionReport).
    """
    times = grid.times()
    z = np.asarray(z, dtype=complex)
    report, dev_scale = _open_report(grid, z, mu, weight, 0.0)
    if report.bound == 0.0:
        report.converged = True
        report.residuals.append(field.deviation_norm(weight) if field is not None else 0.0)
        return CharacteristicField(grid, np.zeros(grid.shape()), mu, 0), report
    if field is None:
        dev, iterate, sup_in = np.zeros(grid.shape()), 0, 0.0
    else:
        dev, iterate, sup_in = field.deviation, field.iterate, field.sup()
    # the quartic phase factor is evaluated on the input field, so both
    # the input and the output scale must be certified small
    use_poly = max(dev_scale, sup_in) <= _POLY_THRESHOLD
    new = deviation_sweep(times, grid.theta(), grid.omega_nodes, z, dev, mu, use_poly)
    report.residuals.append(weighted_norm(times, new - dev, weight, deviation=True))
    report.sweeps = 1
    return CharacteristicField(grid, new, mu, iterate + 1), report


def solve_fixed_point(
    grid: Grid,
    z,
    mu: float,
    weight: WeightSpec,
    tol: float = 1e-12,
    max_sweeps: int = 60,
):
    """Iterate the backward map to its fixed point for a frozen path z.

    Starts from D = 0, so every iterate obeys the deviation bound and the
    residual trail certifies the per-sweep contraction.  Refuses to start
    when the certified gain mu * ||R||_w * unit_gain is >= 1
    (NonContractiveError); raises MaxSweepsExceededError if the residual
    stalls above ``tol``.

    Returns (CharacteristicField, ContractionReport).
    """
    times = grid.times()
    z = np.asarray(z, dtype=complex)
    report, dev_scale = _open_report(grid, z, mu, weight, tol)
    if mu == 0.0:
        # the backward map is identically zero: the fixed point is exact
        report = ContractionReport(bound=0.0, sweeps=0, converged=True, tol=tol)
        return CharacteristicField(grid, np.zeros(grid.shape()), 0.0, 0), report
    use_poly = dev_scale <= _POLY_THRESHOLD
    dev = np.zeros(grid.shape())
    theta, omega = grid.theta(), grid.omega_nodes
    for sweep in range(1, max_sweeps + 1):
        new = deviation_sweep(times, theta, omega, z, dev, mu, use_poly)
        res = weighted_norm(times, new - dev, weight, deviation=True)
        if report.residuals and report.residuals[-1] > report.floor:
            report.ratios.append(res / report.residuals[-1])
        report.residuals.append(res)
        report.sweeps = sweep
        dev = new
        if res <= tol:
            report.converged = True
            break
    else:
        raise MaxSweepsExceededError(
            f"residual {report.residuals[-1]:.3e} > tol {tol:.1e} "
            f"after {max_sweeps} sweeps (bound {report.bound:.3g})"
        )
    return CharacteristicField(grid, dev, mu, report.sweeps), report


def backward_ode_oracle(
    grid: Grid,
    z,
    mu: float,
    phase_step_cap: float = 0.125,
    max_substeps: int = 4096,
) -> CharacteristicField:
    """Independent deviation solve: classical Runge-Kutta along each column.

    Integrates psi' (s) = -mu Im(conj(z(s)) e^{i(theta + omega s + psi)})
    backward from psi(t_max) = 0, with z interpolated by a cubic spline.
    Each frequency column is sub-stepped so |omega| h <= phase_step_cap,
    keeping the local error uniformly small; columns whose requirement
    exceeds ``max_substeps`` are rejected rather than silently degraded.

    Shares nothing with the cell-weight quadrature route: different
    integrator, different interpolation, different error mechanism.
    """
    times = grid.times()
    z = np.asarray(z, dtype=complex)
    if z.shape != times.shape:
        raise ValueError("z must be sampled on the time grid")
    dt = grid.dt
    theta = grid.theta()[:, None]
    omega = grid.omega_nodes
    need = np.ceil(np.abs(omega) * dt / phase_step_cap).astype(int)
    need = np.maximum(need, 1)
    if int(need.max()) > max_substeps:
        raise StepRejectedError(
            f"column |omega| = {np.abs(omega).max():.3g} needs {int(need.max())} "
            f"sub-steps > cap {max_substeps}"
        )
    spline = CubicSpline(times, z)
    n_t = grid.n_times
    dev = np.empty(grid.shape())
    dev[-1] = 0.0
    for m in np.unique(need):
        cols = np.flatnonzero(need == m)
        om = omega[cols][None, :]
        h = dt / m
        # z at half-substep resolution across each cell, shared by all cells
        offs = 0.5 * h * np.arange(2 * m + 1)
        zc = spline(times[:-1, None] + offs[None, :])  # (n_t-1, 2m+1)
        psi = np.zeros((grid.n_theta, cols.size))
        buf = np.empty((n_t - 1, grid.n_theta, cols.size))

        def rhs(s_val, zval, psi_val):
            x = theta + om * s_val + psi_val
            return -mu * (zval.real * np.sin(x) - zval.imag * np.cos(x))

        for j in range(n_t - 2, -1, -1):
            for i in range(m, 0, -1):
                s2, s1, s0 = (
                    times[j] + h * i,
                    times[j] + h * (i - 0.5),
                    times[j] + h * (i - 1),
                )
                z2, z1, z0 = zc[j, 2 * i], zc[j, 2 * i - 1], zc[j, 2 * i - 2]
                k1 = rhs(s2, z2, psi)
                k2 = rhs(s1, z1, psi - 0.5 * h * k1)
                k3 = rhs(s1, z1, psi - 0.5 * h * k2)
                k4 = rhs(s0, z0, psi - h * k3)
                psi -= (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            buf[j] = psi
        dev[:-1, :, cols] = buf
    return CharacteristicField(grid, dev, mu)


def gamma_field(field: CharacteristicField, z) -> GammaField:
    """Coupling integrals of a (converged) field under its driving path.

    Recomputes the backward integral once, keeping both projections:
    sin_part recovers deviation / mu at a fixed point, cos_part feeds the
    density reconstruction.  beta is the certified running bound
    Int_t^{t_max} R via the same cell masses plus the weight-free tail
    (zero here; callers add their own certified tail when they have a
    weight in hand).
    """
    g = field.grid
    times, theta, omega = g.times(), g.theta(), g.omega_nodes
    z = np.asarray(z, dtype=complex)
    n_t, n_th = len(times), len(theta)
    sin_part = np.empty(g.shape())
    cos_part = np.empty(g.shape())
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    block = max(1, _BLOCK_ELEMENTS // (n_t * n_th))
    for lo in range(0, len(omega), block):
        sl = slice(lo, min(lo + block, len(omega)))
        ib = _block_integral(times, omega[sl], z, field.deviation[:, :, sl], False)
        sin_part[:, :, sl] = cos_t[None, :, None] * ib.imag + sin_t[None, :, None] * ib.real
        cos_part[:, :, sl] = cos_t[None, :, None] * ib.real - sin_t[None, :, None] * ib.imag
    r = np.abs(z)
    dt = g.dt
    beta = np.zeros(n_t)
    beta[:-1] = np.cumsum((0.5 * dt * (r[:-1] + r[1:]))[::-1])[::-1]
    margin = float(np.max(np.abs(sin_part).reshape(n_t, -1).max(axis=1) - beta))
    return GammaField(g, sin_part, cos_part, beta, margin)
