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

# cells per omega block: each complex block buffer stays near 16 MB
_BLOCK_CELLS = 1 << 20
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

    def distance(self, other: "CharacteristicField", weight: WeightSpec) -> float:
        """||D - D_other|| in the deviation weight, one omega block at a time."""
        rows = np.zeros(self.grid.n_times)
        for sl in omega_blocks(self.deviation.shape):
            _fold_row_sup(rows, self.deviation[:, :, sl] - other.deviation[:, :, sl])
        return weighted_norm(self.grid.times(), rows, weight, deviation=True)


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


def omega_blocks(shape):
    """Slices of the frequency axis of a (time, angle, frequency) field.

    Each block covers about _BLOCK_CELLS cells; the last may be narrower.
    Every blocked loop over a field walks these slices, so one constant
    bounds all per-block working sets.
    """
    width = _block_width(shape)
    n_omega = shape[2]
    for lo in range(0, n_omega, width):
        yield slice(lo, min(lo + width, n_omega))


def _block_width(shape):
    n_t, n_th, n_omega = shape
    return min(n_omega, max(1, _BLOCK_CELLS // (n_t * n_th)))


def block_buffer(shape):
    """One complex buffer sized for the widest block of ``omega_blocks(shape)``.

    Returns ``view(sl)``: a C-contiguous (n_t, n_theta, width) array over
    that buffer, so a loop over blocks allocates its scratch once.
    """
    n_t, n_th, _ = shape
    flat = np.empty(n_t * n_th * _block_width(shape), dtype=complex)

    def view(sl):
        width = sl.stop - sl.start
        return flat[: n_t * n_th * width].reshape(n_t, n_th, width)

    return view


def _fold_row_sup(acc, block):
    # acc[i] <- max(acc[i], sup_i |block[i]|) through max and -min: exact,
    # NaN-propagating, and free of a block-sized |block| temporary
    np.maximum(acc, block.max(axis=(1, 2)), out=acc)
    np.maximum(acc, -block.min(axis=(1, 2)), out=acc)


def _phase_factor(dev_block, use_poly: bool, out):
    # e^{iD} written into ``out``; the quartic fast path is valid only when
    # callers have certified sup|D| <= _POLY_THRESHOLD for the whole solve
    re, im = out.real, out.imag
    if use_poly:
        d2 = np.multiply(dev_block, dev_block, out=re)
        np.divide(d2, 6.0, out=im)
        np.subtract(1.0, im, out=im)
        im *= dev_block
        d2 *= 0.5
        np.subtract(1.0, d2, out=re)
    else:
        np.cos(dev_block, out=re)
        np.sin(dev_block, out=im)


def _integral_blocks(times, omega, z, deviation, use_poly):
    """Backward integrals of one field, one omega block at a time.

    Yields (sl, integral, spare) per block of ``omega_blocks``, where
    integral(t_i) = Int_{t_i}^{t_max} c(s) e^{i omega s} ds with cellwise
    alpha/beta weights, accumulated from the far end backward.  Both
    arrays are views into two complex buffers that every block reuses:
    they hold only until the next block is drawn, and ``spare`` is free
    scratch of the block's shape.
    """
    dt = float(times[1] - times[0])
    conj_z = np.conj(z)[:, None]
    phases = block_buffer(deviation.shape)
    cells = block_buffer(deviation.shape)
    for sl in omega_blocks(deviation.shape):
        w = omega[sl] * dt
        alpha, beta = filon_weights(w)
        # node factor conj(z(s_j)) e^{i omega s_j} times the cell weight the
        # node carries as a left (alpha) or right (beta) end; the right node
        # already has phase e^{i omega s_{j+1}}, so beta loses its e^{i w}
        right = np.exp(1j * np.outer(times, omega[sl]))
        right *= conj_z
        left = right * (dt * alpha)
        right *= dt * (beta * np.exp(-1j * w))
        e, c = phases(sl), cells(sl)
        _phase_factor(deviation[:, :, sl], use_poly, e)
        np.multiply(e[:-1], left[:-1, None, :], out=c[:-1])
        e[1:] *= right[1:, None, :]
        c[:-1] += e[1:]
        c[-1] = 0.0
        np.cumsum(c[::-1], axis=0, out=c[::-1])
        yield sl, c, e


def deviation_sweep(times, theta, omega, z, deviation, mu, use_poly=False, row_residual=None):
    """One application of the backward-integral map to a deviation field.

    Operates on raw arrays so alternative node sets can be pushed through.
    Returns the new deviation, mu * Im(e^{i theta} I), blocked over
    frequency columns to bound the complex working set.  A given
    ``row_residual`` (shape (n_times,)) receives the sup over each time
    row of |new - deviation| from the same pass.
    """
    times = np.asarray(times, dtype=float)
    z = np.asarray(z, dtype=complex)
    if z.shape != times.shape:
        raise ValueError("z must be sampled on the time grid")
    out = np.empty_like(deviation)
    # mu * Im(e^{i theta} I) = (mu cos theta) Im I + (mu sin theta) Re I
    mu_cos = (mu * np.cos(theta))[None, :, None]
    mu_sin = (mu * np.sin(theta))[None, :, None]
    if row_residual is not None:
        row_residual[:] = 0.0
    for sl, ib, spare in _integral_blocks(times, omega, z, deviation, use_poly):
        new, scratch = out[:, :, sl], spare.real
        np.multiply(ib.imag, mu_cos, out=new)
        np.multiply(ib.real, mu_sin, out=scratch)
        new += scratch
        if row_residual is not None:
            np.subtract(new, deviation[:, :, sl], out=scratch)
            _fold_row_sup(row_residual, scratch)
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
    rows = np.empty(grid.n_times)
    new = deviation_sweep(
        times, grid.theta(), grid.omega_nodes, z, dev, mu, use_poly, row_residual=rows
    )
    report.residuals.append(weighted_norm(times, rows, weight, deviation=True))
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
    rows = np.empty(grid.n_times)
    for sweep in range(1, max_sweeps + 1):
        # the residual ||F(D) - D||_w comes from the sweep's own row sups
        dev = deviation_sweep(times, theta, omega, z, dev, mu, use_poly, row_residual=rows)
        res = weighted_norm(times, rows, weight, deviation=True)
        if report.residuals and report.residuals[-1] > report.floor:
            report.ratios.append(res / report.residuals[-1])
        report.residuals.append(res)
        report.sweeps = sweep
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
    Each frequency column takes m = ceil(|omega| dt / phase_step_cap)
    sub-steps of h = dt / m per cell, keeping the local error uniformly
    small; columns whose requirement exceeds ``max_substeps`` are rejected
    rather than silently degraded.

    All columns march backward through the cells in lockstep.  Inside a
    cell, inner step k advances every column with m > k by its sub-step
    i = m - k; with the columns sorted by m, largest first, those form a
    prefix of the (column, angle) state, so one pass over the cells
    serves every sub-step count.  Each column sees the same arithmetic,
    in the same order, as a loop over its own m alone would do, so the
    result does not depend on which other columns share the grid.  The
    working set is the output field, the spline samples of z and per-cell
    scratch the size of the (sub-step, angle) state.

    Shares nothing with the cell-weight quadrature route: different
    integrator, different interpolation, different error mechanism.
    """
    times = grid.times()
    z = np.asarray(z, dtype=complex)
    if z.shape != times.shape:
        raise ValueError("z must be sampled on the time grid")
    dt = grid.dt
    theta = grid.theta()
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
    order = np.argsort(-need, kind="stable")
    m = need[order]
    h = dt / m
    active = [int(np.count_nonzero(m > k)) for k in range(int(m[0]))]
    starts = np.cumsum([0] + active)
    # one slot per (inner step k, active column c), k-major; the slot's
    # sub-step is i = m_c - k and its stage times are t_j + h i,
    # t_j + h (i - 1/2) and t_j + h (i - 1)
    col = np.concatenate([np.arange(n) for n in active])
    i = m[col] - np.repeat(np.arange(len(active)), active)
    hc = h[col]
    offsets = np.stack([hc * i, hc * (i - 0.5), hc * (i - 1)])
    om = omega[order][col]
    # z at half-substep resolution across each cell, one block of 2m + 1
    # samples per sub-step count; stage r of a slot reads sample 2i - r
    counts = np.unique(m)
    widths = 2 * counts + 1
    first = dict(zip(counts.tolist(), (np.cumsum(widths) - widths).tolist()))
    zc = np.empty((n_t - 1, int(widths.sum())), dtype=complex)
    for mv, lo in first.items():
        offs = 0.5 * (dt / mv) * np.arange(2 * mv + 1)
        zc[:, lo:lo + offs.size] = spline(times[:-1, None] + offs[None, :])
    sample = np.array([first[v] for v in m[col].tolist()], dtype=np.intp) + 2 * i
    sample = np.stack([sample, sample - 1, sample - 2])

    # per-cell scratch: omega s, theta + omega s and z for every slot; the
    # views each inner step uses are cut once, here
    omega_s = np.empty(offsets.shape)
    base = np.empty(offsets.shape + (theta.size,))
    zs = np.empty(offsets.shape, dtype=complex)
    psi, arg, phase, k1, k2, k3, k4 = np.zeros((7, m.size, theta.size))
    steps = [
        (
            base[:, lo:hi], zs.real[:, lo:hi, None], zs.imag[:, lo:hi, None],
            (0.5 * h[:n])[:, None], h[:n, None], (h[:n] / 6.0)[:, None],
            psi[:n], arg[:n], phase[:n], k1[:n], k2[:n], k3[:n], k4[:n],
        )
        for n, lo, hi in zip(active, starts[:-1], starts[1:])
    ]

    def rate(base_r, zr, zi, at, x, out):
        # out = -mu (Re z sin x - Im z cos x) with x = theta + omega s + at
        np.add(base_r, at, out=x)
        np.sin(x, out=out)
        out *= zr
        np.cos(x, out=x)
        x *= zi
        out -= x
        out *= -mu

    dev = np.empty(grid.shape())
    dev[-1] = 0.0
    for j in range(n_t - 2, -1, -1):
        np.add(times[j], offsets, out=omega_s)
        omega_s *= om
        np.add(omega_s[:, :, None], theta, out=base)
        np.take(zc[j], sample, out=zs)
        for b, zr, zi, half, hk, sixth, p, a, x, r1, r2, r3, r4 in steps:
            rate(b[0], zr[0], zi[0], p, x, r1)
            np.multiply(half, r1, out=a)
            np.subtract(p, a, out=a)
            rate(b[1], zr[1], zi[1], a, x, r2)
            np.multiply(half, r2, out=a)
            np.subtract(p, a, out=a)
            rate(b[1], zr[1], zi[1], a, x, r3)
            np.multiply(hk, r3, out=a)
            np.subtract(p, a, out=a)
            rate(b[2], zr[2], zi[2], a, x, r4)
            # (h/6) (k1 + 2 k2 + 2 k3 + k4), summed left to right
            r2 *= 2.0
            r3 *= 2.0
            r1 += r2
            r1 += r3
            r1 += r4
            r1 *= sixth
            p -= r1
        dev[j][:, order] = psi.T
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
    n_t = len(times)
    sin_part = np.empty(g.shape())
    cos_part = np.empty(g.shape())
    cos_t, sin_t = np.cos(theta)[None, :, None], np.sin(theta)[None, :, None]
    rows = np.zeros(n_t)
    for sl, ib, spare in _integral_blocks(times, omega, z, field.deviation, False):
        sp, cp, scratch = sin_part[:, :, sl], cos_part[:, :, sl], spare.real
        np.multiply(ib.imag, cos_t, out=sp)
        np.multiply(ib.real, sin_t, out=scratch)
        sp += scratch
        np.multiply(ib.real, cos_t, out=cp)
        np.multiply(ib.imag, sin_t, out=scratch)
        cp -= scratch
        _fold_row_sup(rows, sp)
    r = np.abs(z)
    dt = g.dt
    beta = np.zeros(n_t)
    beta[:-1] = np.cumsum((0.5 * dt * (r[:-1] + r[1:]))[::-1])[::-1]
    margin = float(np.max(rows - beta))
    return GammaField(g, sin_part, cos_part, beta, margin)
