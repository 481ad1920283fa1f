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

import functools
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

# cells per time-row tile: each complex tile slab stays near 2 MB
_TILE_CELLS = 1 << 17
# largest sup|D| at which phase_kernel takes Taylor polynomials; there it
# needs 9 terms, still cheaper per cell than np.sin, and above it the trig
# form (-2 sin^2(D/2), sin D) serves
_POLY_CAP = 1.0
# Taylor coefficients of (cos D - 1) / D^2 and sin D / D in powers of D^2;
# entry k is the first term omitted when k terms are kept, and 9 terms
# reach the cap
_COS_M1_OVER_D2 = tuple((-1) ** (k + 1) / math.factorial(2 * k + 2) for k in range(10))
_SIN_OVER_D = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(10))
# the RK4 oracle's cap on sub-steps per cell, also the finest particle time
# step the command line accepts relative to the grid's
MAX_SUBSTEPS = 4096
# sweeps solve_fixed_point runs before it refuses a stalled residual
MAX_SWEEPS = 60


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

    def __post_init__(self):
        if self.deviation.shape != self.grid.shape():
            raise ValueError(
                f"deviation shape {self.deviation.shape} != grid shape {self.grid.shape()}"
            )

    def deviation_norm(self, weight: WeightSpec) -> float:
        return weighted_norm(self.grid.times(), self.deviation, weight, deviation=True)

    def sup(self) -> float:
        return _sup(self.deviation)

    def distance(self, other: "CharacteristicField", weight: WeightSpec) -> float:
        """||D - D_other|| in the deviation weight, one time tile at a time."""
        return weighted_norm(self.grid.times(), self._row_gaps(other), weight, deviation=True)

    def sup_distance(self, other: "CharacteristicField") -> float:
        """sup |D - D_other|, one time tile at a time; NaN propagates."""
        return float(self._row_gaps(other).max())

    def _row_gaps(self, other):
        # sup over each time row of |D - D_other|, in one tile slab
        shape = self.deviation.shape
        rows = np.empty(shape[0])
        slab = tile_slab(shape, float)
        for sl in time_tiles(shape):
            gap = slab[: sl.stop - sl.start]
            np.subtract(self.deviation[sl], other.deviation[sl], out=gap)
            _row_sup(gap, rows[sl])
        return rows


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

    sin_part: np.ndarray
    cos_part: np.ndarray
    beta: np.ndarray
    margin: float


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


def time_tiles(shape):
    """Row slices of a (time, angle, frequency) field, from t_max backward.

    Each tile is a run of whole time rows, so it is one contiguous piece of
    a C-ordered field, of at most _TILE_CELLS cells (one row if a row is
    larger); the tiles start at the last row, and the tile at t = 0 may be
    shorter.  Every tiled loop over a field walks these slices, so one
    constant bounds all per-tile working sets, and the backward integral
    carries its running sum from one tile to the next.
    """
    n_t = shape[0]
    rows = _tile_rows(shape)
    for hi in range(n_t, 0, -rows):
        yield slice(max(0, hi - rows), hi)


def _tile_rows(shape):
    n_t, n_th, n_omega = shape
    return min(n_t, max(1, _TILE_CELLS // (n_th * n_omega)))


def tile_slab(shape, dtype=complex):
    """One (rows, n_theta, n_omega) buffer for the largest tile of ``shape``.

    A loop over ``time_tiles(shape)`` takes ``slab[:sl.stop - sl.start]``
    as its scratch, a C-contiguous leading part, so it allocates once.
    """
    return np.empty((_tile_rows(shape),) + tuple(shape[1:]), dtype=dtype)


def _row_sup(tile, out):
    # out[i] <- sup_i |tile[i]| through max and -min: exact, NaN-propagating,
    # and free of a tile-sized |tile| temporary
    np.maximum(tile.max(axis=(1, 2)), -tile.min(axis=(1, 2)), out=out)


def _sup(a) -> float:
    # sup|a| as max and -min: exact, NaN-propagating, no |a| temporary
    return float(np.maximum(a.max(), -a.min()))


def _taylor_terms(sup):
    """Terms k of each Taylor series phase_kernel keeps at sup|D| = sup.

    The smallest k for which both first omitted terms, D^{2k+2} / (2k+2)!
    of cos D - 1 and D^{2k+1} / (2k+1)! of sin D, are at most 2^-53
    relative to the leading terms D^2 / 2 and D at |D| = sup.  None above
    _POLY_CAP (NaN and inf included): the trig form serves there.
    """
    if not sup <= _POLY_CAP:
        return None
    s2 = sup * sup
    for k in range(1, len(_SIN_OVER_D)):
        omitted = max(2.0 * abs(_COS_M1_OVER_D2[k]), abs(_SIN_OVER_D[k])) * s2**k
        if omitted <= 2.0**-53:
            return k
    return None


def _horner(x, coeffs, out):
    # out <- coeffs[0] + coeffs[1] x + ... + coeffs[-1] x^(n-1), in place
    if len(coeffs) == 1:
        out[...] = coeffs[0]
        return
    np.multiply(x, coeffs[-1], out=out)
    for c in coeffs[-2:0:-1]:
        out += c
        out *= x
    out += coeffs[0]


def phase_kernel(sup):
    """The map D -> (cos D - 1, sin D) for arrays with |D| <= ``sup``.

    Returns ``kernel(dev, cos_m1, sin_d, d2)``, which writes the pair of
    ``dev`` into ``cos_m1`` and ``sin_d``.  Up to _POLY_CAP the pair is
    D^2 Q_k(D^2) and D P_k(D^2) by Horner's rule, with k from
    ``_taylor_terms(sup)``, so the truncation stays below the rounding
    unit; ``d2`` is scratch for D^2.  Above the cap it is
    (-2 sin^2(D/2), sin D).  Both forms keep full relative precision as
    D -> 0 and map 0 to 0.  The terms are picked once, here, so a caller
    that applies one bound to many small arrays (the RK4 oracle's stages)
    pays for the choice once.  Every e^{iD} of the package comes from this
    kernel: the sweep, gamma_field, the order-parameter quadrature and
    the RK4 oracle.
    """
    k = _taylor_terms(sup)
    if k is None:
        return _trig_phase
    cos_coeffs, sin_coeffs = _COS_M1_OVER_D2[:k], _SIN_OVER_D[:k]

    def taylor_phase(dev, cos_m1, sin_d, d2):
        np.multiply(dev, dev, out=d2)
        _horner(d2, cos_coeffs, cos_m1)
        cos_m1 *= d2
        _horner(d2, sin_coeffs, sin_d)
        sin_d *= dev

    return taylor_phase


def _trig_phase(dev, cos_m1, sin_d, d2):
    np.multiply(dev, 0.5, out=cos_m1)
    np.sin(cos_m1, out=cos_m1)
    np.multiply(cos_m1, cos_m1, out=cos_m1)
    cos_m1 *= -2.0
    np.sin(dev, out=sin_d)


def oscillation_table(times, omega):
    """e^{i omega t} on the (time, frequency) grid, as a read-only array.

    Every time tile of every sweep, quadrature and gamma_field slices
    rows of this one table instead of rebuilding them.  One table is kept,
    keyed on the exact bytes of (times, omega), so a solve reuses it and
    any other node set replaces it; it is 2 / n_theta of a float64 field.
    """
    times = np.ascontiguousarray(times, dtype=float)
    omega = np.ascontiguousarray(omega, dtype=float)
    return _oscillation_table(times.tobytes(), omega.tobytes())


@functools.lru_cache(maxsize=1)
def _oscillation_table(times_bytes, omega_bytes):
    table = np.exp(1j * np.outer(np.frombuffer(times_bytes), np.frombuffer(omega_bytes)))
    table.flags.writeable = False
    return table


def _real_halves(a):
    # the memory of a C-contiguous complex array as two real arrays of its shape
    return a.reshape(-1).view(float).reshape((2,) + a.shape)


def _backward_sum(c):
    # c[j] <- c[j] + c[j + 1] + ... + c[-1] in place, one time row at a
    # time: the same additions in the same order as np.cumsum over the
    # reversed axis 0, without its slow strided accumulate
    for j in range(len(c) - 2, -1, -1):
        np.add(c[j], c[j + 1], out=c[j])


def _integral_blocks(times, omega, z, deviation):
    """Backward integrals of one field, one time tile at a time.

    Yields (sl, integral, spare) per tile of ``time_tiles``, from t_max
    backward, where integral(t_i) = Int_{t_i}^{t_max} c(s) e^{i omega s} ds
    with cellwise alpha/beta weights, summed from the far end one time row
    at a time.  A cell's right node is the first row of the tile above
    when the cell straddles a tile boundary, so two (n_theta, n_omega)
    rows carry across it: that row's right-node term e^{iD} times its
    weight, and the running integral there.  Every cell thus sees the same
    products and the same additions, in the same order, as one pass over
    the whole field.  The Filon weights are computed once for all omega;
    each tile slices rows of the e^{i omega t} table.  Both yielded arrays
    are views into two complex slabs that every tile reuses: they hold only
    until the next tile is drawn, and ``spare`` is free scratch of the
    tile's shape.
    """
    dt = float(times[1] - times[0])
    conj_z = np.conj(z)[:, None]
    table = oscillation_table(times, omega)
    kernel = phase_kernel(_sup(deviation))
    w = omega * dt
    alpha, beta = filon_weights(w)
    # each node carries its cell weight as a left (alpha) or right (beta)
    # end; the right node already has phase e^{i omega s_{j+1}}, so beta
    # loses its e^{i w}
    left_weight = dt * alpha
    right_weight = dt * (beta * np.exp(-1j * w))
    shape = deviation.shape
    phases, cells = tile_slab(shape), tile_slab(shape)
    # the right-node term and the running integral at the first row of the
    # tile above, carried to the last row of the next one
    edge, above = np.empty((2,) + shape[1:], dtype=complex)
    for sl in time_tiles(shape):
        n = sl.stop - sl.start
        # node factor conj(z(s_j)) e^{i omega s_j} times its cell weight
        right = table[sl] * conj_z[sl]
        left = right * left_weight
        right *= right_weight
        e, c = phases[:n], cells[:n]
        # e^{iD} = 1 + (cos D - 1) + i sin D; until the cells form, the
        # memory of c holds the pair and that of e holds D^2, as contiguous
        # real arrays (twice as fast for the kernel as strided .real/.imag)
        cos_m1, sin_d = _real_halves(c)
        kernel(deviation[sl], cos_m1, sin_d, _real_halves(e)[0])
        np.add(cos_m1, 1.0, out=e.real)
        np.copyto(e.imag, sin_d)
        np.multiply(e, left[:, None, :], out=c)
        e *= right[:, None, :]
        c[:-1] += e[1:]
        if sl.stop == shape[0]:
            # the last row integrates over no cell
            c[-1] = 0.0
        else:
            c[-1] += edge
            c[-1] += above
        _backward_sum(c)
        np.copyto(edge, e[0])
        np.copyto(above, c[0])
        yield sl, c, e


def deviation_sweep(times, theta, omega, z, deviation, mu, row_residual):
    """One application of the backward-integral map to a deviation field.

    Operates on raw arrays so alternative node sets can be pushed through.
    Returns the new deviation, mu * Im(e^{i theta} I), one time tile at a
    time to bound the complex working set; e^{iD} comes from phase_kernel
    at the exact sup of ``deviation``.  ``row_residual`` (shape (n_times,))
    receives the sup over each time row of |new - deviation| from the same
    pass.
    """
    times = np.asarray(times, dtype=float)
    z = np.asarray(z, dtype=complex)
    if z.shape != times.shape:
        raise ValueError("z must be sampled on the time grid")
    out = np.empty_like(deviation)
    # mu * Im(e^{i theta} I) = (mu cos theta) Im I + (mu sin theta) Re I
    mu_cos = (mu * np.cos(theta))[None, :, None]
    mu_sin = (mu * np.sin(theta))[None, :, None]
    for sl, ib, spare in _integral_blocks(times, omega, z, deviation):
        new, scratch = out[sl], _real_halves(spare)[0]
        np.multiply(ib.imag, mu_cos, out=new)
        np.multiply(ib.real, mu_sin, out=scratch)
        new += scratch
        np.subtract(new, deviation[sl], out=scratch)
        _row_sup(scratch, row_residual[sl])
    return out


def _refuse_nonfinite(z, mu):
    # NaN or inf in the path or the coupling is bad input, to be named as
    # such rather than reported as a gain >= 1 or a NaN field
    if not math.isfinite(mu):
        raise ValueError(f"mu must be finite, got {mu!r}")
    if not np.all(np.isfinite(z)):
        raise ValueError("z must be finite at every grid time")


def _open_report(grid: Grid, z, mu: float, weight: WeightSpec, tol: float):
    # an empty report for the map F_z with its certified gain; refuses
    # non-finite input and kappa >= 1
    _refuse_nonfinite(z, mu)
    r_norm = weighted_norm(grid.times(), z, weight)
    bound = mu * r_norm * weight.unit_contraction_gain
    if not bound < 1.0:
        raise NonContractiveError(bound)
    dev_scale = mu * r_norm * weight.unit_deviation_gain
    return ContractionReport(
        bound=bound,
        tol=tol,
        floor=max(tol, 1e-14 * max(1.0, dev_scale)),
        tail_remainder=mu * r_norm * weight.tail_integral(grid.t_max),
    )


def _zero_gain_field(grid: Grid, mu: float, report, residual: float):
    # a zero gain (mu = 0 or z = 0) makes F_z identically zero: no sweep
    report.converged = True
    report.residuals.append(residual)
    return CharacteristicField(grid, np.zeros(grid.shape()), mu), report


def picard_sweep(
    grid: Grid,
    z,
    mu: float,
    weight: WeightSpec,
    field: CharacteristicField | None = None,
):
    """One sweep D |-> F_z(D) of the backward map from an arbitrary field.

    ``field`` defaults to D = 0.  Refuses non-finite ``z`` or ``mu``
    (ValueError) and a gain >= 1 like ``solve_fixed_point``.  The report
    carries the single residual ||F_z(D) - D||_w and no ratios, and is
    never ``converged``: one sweep does not solve the fixed point.  A zero
    gain (mu = 0 or z = 0) makes F_z identically zero, so the zero field is
    returned without a sweep; that report is ``converged``, since the zero
    field is then exact.

    Returns (CharacteristicField, ContractionReport).
    """
    times = grid.times()
    z = np.asarray(z, dtype=complex)
    report = _open_report(grid, z, mu, weight, 0.0)
    if report.bound == 0.0:
        residual = field.deviation_norm(weight) if field is not None else 0.0
        return _zero_gain_field(grid, mu, report, residual)
    dev = np.zeros(grid.shape()) if field is None else field.deviation
    rows = np.empty(grid.n_times)
    new = deviation_sweep(times, grid.theta(), grid.omega_nodes, z, dev, mu, row_residual=rows)
    report.residuals.append(weighted_norm(times, rows, weight, deviation=True))
    report.sweeps = 1
    return CharacteristicField(grid, new, mu), report


def solve_fixed_point(
    grid: Grid,
    z,
    mu: float,
    weight: WeightSpec,
    tol: float = 1e-12,
):
    """Iterate the backward map to its fixed point for a frozen path z.

    Starts from D = 0, so every iterate obeys the deviation bound and the
    residual trail certifies the per-sweep contraction.  Refuses non-finite
    ``z`` or ``mu`` (ValueError), and refuses to start when the certified
    gain mu * ||R||_w * unit_gain is >= 1 (NonContractiveError); raises
    MaxSweepsExceededError if the residual is above ``tol`` after
    MAX_SWEEPS sweeps.  A zero gain returns the zero field as picard_sweep.

    Returns (CharacteristicField, ContractionReport).
    """
    times = grid.times()
    z = np.asarray(z, dtype=complex)
    report = _open_report(grid, z, mu, weight, tol)
    if report.bound == 0.0:
        return _zero_gain_field(grid, mu, report, 0.0)
    dev = np.zeros(grid.shape())
    theta, omega = grid.theta(), grid.omega_nodes
    rows = np.empty(grid.n_times)
    for sweep in range(1, MAX_SWEEPS + 1):
        # the residual ||F(D) - D||_w comes from the sweep's own row sups
        dev = deviation_sweep(times, theta, omega, z, dev, mu, row_residual=rows)
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
            f"after {MAX_SWEEPS} sweeps (bound {report.bound:.3g})"
        )
    return CharacteristicField(grid, dev, mu), report


def backward_ode_oracle(
    grid: Grid,
    z,
    mu: float,
    phase_step_cap: float = 0.125,
) -> CharacteristicField:
    """Independent deviation solve: classical Runge-Kutta along each column.

    Integrates psi' (s) = -mu Im(conj(z(s)) e^{i(theta + omega s + psi)})
    backward from psi(t_max) = 0, with z interpolated by a cubic spline.
    Each frequency column takes m = ceil(|omega| dt / phase_step_cap)
    sub-steps of h = dt / m per cell, keeping the local error uniformly
    small; columns whose requirement exceeds MAX_SUBSTEPS are rejected
    rather than silently degraded.  Non-finite ``z`` or ``mu`` and a
    ``phase_step_cap`` that is not positive are refused (ValueError).

    The rate is evaluated as Im(P e^{i psi}) = P_i + P_i (cos psi - 1) +
    P_r sin psi, with P = -mu conj(z(s)) e^{i(theta + omega s)} formed once
    per cell for each (column, half-sub-step), sum(2m + 1) of them.  The pair
    (cos psi - 1, sin psi) comes from ``phase_kernel``, with its terms
    chosen once from an a priori bound on every stage argument: each stage
    rate is at most |mu| |z(sample)|, so |psi| stays below
    |mu| dt sum over cells of the largest |z| among the samples the cell
    reads.  The trigonometric work is then per cell, not per sub-step.

    All columns march backward through the cells in lockstep.  Inside a
    cell, inner step k advances every column with m > k by its sub-step
    i = m - k; with the columns sorted by m, largest first, those form a
    prefix of the (column, angle) state, so one pass over the cells
    serves every sub-step count.  Each column sees the same arithmetic,
    in the same order, as a loop over its own m alone would do, so the
    result does not depend on which other columns share the grid.  The
    working set is the output field, the spline samples of z, P as
    (2, sum(2m + 1), angles) real parts plus a temporary of one part, and
    per-cell scratch the size of the (column, angle) state.

    Shares with the cell-weight quadrature route only the phase kernel,
    which is exact to rounding (ulp-tested against the trig form).  The
    integrator (RK4 against Filon cells), the interpolation of z (a cubic
    spline against the grid values) and the resolution of the oscillation
    (sub-stepping against exact cell weights) stay independent.
    """
    times = grid.times()
    z = np.asarray(z, dtype=complex)
    if z.shape != times.shape:
        raise ValueError("z must be sampled on the time grid")
    _refuse_nonfinite(z, mu)
    if not phase_step_cap > 0.0:
        # 0, a negative cap or NaN would make every column one sub-step
        raise ValueError(f"phase_step_cap must be positive, got {phase_step_cap!r}")
    dt, theta, omega = grid.dt, grid.theta(), grid.omega_nodes
    need = np.maximum(np.ceil(np.abs(omega) * dt / phase_step_cap).astype(int), 1)
    if int(need.max()) > MAX_SUBSTEPS:
        raise StepRejectedError(
            f"column |omega| = {np.abs(omega).max():.3g} needs {int(need.max())} "
            f"sub-steps > cap {MAX_SUBSTEPS}"
        )
    spline = CubicSpline(times, z)
    n_t = grid.n_times
    order = np.argsort(-need, kind="stable")
    m = need[order]
    h = dt / m
    # P's rows are the half-sub-steps l = 0 .. 2 m_max: row l holds the
    # columns with 2m >= l (a prefix) at time t_j + h q / 2, q = 2m - l.
    # Inner step k advances the columns with m > k by sub-step i = m - k;
    # its stages read rows 2k, 2k + 1 and 2k + 2 (q = 2i, 2i - 1, 2i - 2),
    # and row 2k + 2 is stage 0 of step k + 1 too, so P is formed once
    widths = [int(np.count_nonzero(2 * m >= row)) for row in range(2 * int(m[0]) + 1)]
    starts = np.cumsum([0] + widths)
    col = np.concatenate([np.arange(n) for n in widths])
    q = 2 * m[col] - np.repeat(np.arange(len(widths)), widths)
    offsets = h[col] * (q / 2)
    om = omega[order][col]
    # z at half-substep resolution across each cell, one block of 2m + 1
    # samples per sub-step count; a row entry reads sample q of its block
    counts = np.unique(m)
    blocks = 2 * counts + 1
    first = dict(zip(counts.tolist(), (np.cumsum(blocks) - blocks).tolist()))
    zc = np.empty((n_t - 1, int(blocks.sum())), dtype=complex)
    for mv, lo in first.items():
        offs = 0.5 * (dt / mv) * np.arange(2 * mv + 1)
        zc[:, lo:lo + offs.size] = spline(times[:-1, None] + offs[None, :])
    sample = np.array([first[v] for v in m[col].tolist()], dtype=np.intp) + q
    # every stage argument is below this bound, so one term count serves
    kernel = phase_kernel(abs(mu) * dt * float(np.abs(zc).max(axis=1).sum()))

    # per-cell scratch: omega s, e^{i omega s} and z for every row entry,
    # and P = (-mu e^{i theta}) conj(z) e^{i omega s} as two real arrays;
    # the views each inner step uses are cut once, here
    mu_cos, mu_sin = -mu * np.cos(theta), -mu * np.sin(theta)
    omega_s, cos_s, sin_s, w_re, w_im = np.empty((5, offsets.size))
    zs = np.empty(offsets.size, dtype=complex)
    p_re, p_im, p_tmp = np.empty((3, offsets.size, theta.size))
    psi, arg, sin_x, x2, k1, k2, k3, k4 = np.zeros((8, m.size, theta.size))
    steps = [
        (
            *(p[lo:lo + n] for lo in starts[2 * k:2 * k + 3] for p in (p_re, p_im)),
            (0.5 * h[:n])[:, None], h[:n, None], (h[:n] / 6.0)[:, None],
            psi[:n], arg[:n], sin_x[:n], x2[:n], k1[:n], k2[:n], k3[:n], k4[:n],
        )
        for k, n in enumerate(widths[1::2])
    ]

    def rate(pr, pi, x, s, x2, out):
        # out = Im(P e^{ix}) = P_i + P_i (cos x - 1) + P_r sin x
        kernel(x, out, s, x2)
        out *= pi
        s *= pr
        out += s
        out += pi

    dev = np.empty(grid.shape())
    dev[-1] = 0.0
    for j in range(n_t - 2, -1, -1):
        np.add(times[j], offsets, out=omega_s)
        omega_s *= om
        np.cos(omega_s, out=cos_s)
        np.sin(omega_s, out=sin_s)
        np.take(zc[j], sample, out=zs)
        # conj(z) e^{i omega s} = (Re z cos + Im z sin) + i (Re z sin - Im z cos)
        np.multiply(zs.real, cos_s, out=w_re)
        np.multiply(zs.imag, sin_s, out=omega_s)
        w_re += omega_s
        np.multiply(zs.real, sin_s, out=w_im)
        np.multiply(zs.imag, cos_s, out=omega_s)
        w_im -= omega_s
        # P_r = W_r (-mu cos theta) - W_i (-mu sin theta), and
        # P_i = W_r (-mu sin theta) + W_i (-mu cos theta), for every row
        np.multiply(w_re[:, None], mu_cos, out=p_re)
        np.multiply(w_im[:, None], mu_sin, out=p_tmp)
        p_re -= p_tmp
        np.multiply(w_re[:, None], mu_sin, out=p_im)
        np.multiply(w_im[:, None], mu_cos, out=p_tmp)
        p_im += p_tmp
        for pr0, pi0, pr1, pi1, pr2, pi2, half, hk, sixth, p, a, s, x2, r1, r2, r3, r4 in steps:
            rate(pr0, pi0, p, s, x2, r1)
            np.multiply(half, r1, out=a)
            np.subtract(p, a, out=a)
            rate(pr1, pi1, a, s, x2, r2)
            np.multiply(half, r2, out=a)
            np.subtract(p, a, out=a)
            rate(pr1, pi1, a, s, x2, r3)
            np.multiply(hk, r3, out=a)
            np.subtract(p, a, out=a)
            rate(pr2, pi2, a, s, x2, r4)
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
    # both parts in one allocation: it is freed as one, and from 32 MB up
    # (two fields of either reference grid) the C allocator maps it on its
    # own, so dropping it returns the memory instead of leaving a hole in
    # the heap that later allocations may or may not fill
    sin_part, cos_part = np.empty((2,) + g.shape())
    cos_t, sin_t = np.cos(theta)[None, :, None], np.sin(theta)[None, :, None]
    rows = np.empty(n_t)
    for sl, ib, spare in _integral_blocks(times, omega, z, field.deviation):
        sp, cp, scratch = sin_part[sl], cos_part[sl], _real_halves(spare)[0]
        np.multiply(ib.imag, cos_t, out=sp)
        np.multiply(ib.real, sin_t, out=scratch)
        sp += scratch
        np.multiply(ib.real, cos_t, out=cp)
        np.multiply(ib.imag, sin_t, out=scratch)
        cp -= scratch
        _row_sup(sp, rows[sl])
    r = np.abs(z)
    dt = g.dt
    beta = np.zeros(n_t)
    beta[:-1] = np.cumsum((0.5 * dt * (r[:-1] + r[1:]))[::-1])[::-1]
    margin = float(np.max(rows - beta))
    return GammaField(sin_part, cos_part, beta, margin)
