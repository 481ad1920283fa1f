"""Joint iteration: advance the characteristic field and the order
parameter together, starting from the zero path and the zero field.

The solution is a fixed point of the coupled map (D, z) -> (F_z(D), Q(D)).
Joint iterate n sweeps once, D_n = F_{z_{n-1}}(D_{n-1}), then recovers

    z_n(t) = Int e^{i Theta_n(t, theta, omega)} f_inf(theta, omega) dtheta domega

from it, so no inner work is spent against a path that is still moving.
Once successive paths differ by at most tol_outer, one certification
iterate solves the inner fixed point D = F_{z_n}(D) from zero to
tol_picard and integrates the order parameter once more; that field and
path are the result, and the residual trail of the cold solve is the
per-sweep contraction certificate.

The order parameter is computed by splitting off the free part: with D the
deviation field,

    z_n(t) = fhat_inf(-1, -t) + Int (e^{i D} - 1) e^{i(theta + omega t)} f_inf.

The first term is the closed-form transform (no quadrature error at all);
the second carries the factor e^{iD} - 1, which decays in time like the
coupling integral itself, so the oscillatory frequency quadrature only ever
sees amplitudes that vanish where the oscillation gets fast.  That
quadrature is characteristics.phase_quadrature, which forms e^{iD} - 1 with
the sweeps' per-tile phase kernels; this module supplies the free part and
the angular weights.

The joint iterates run on the coarsest angle grid that loses nothing to
rounding, n_c of the user's n_theta angles (``_coarse_angles``), and the
certification runs cold on the user's grid.  Each characteristic is its own
ODE once z is given, so the angle grid enters a joint iterate only through
the trapezoid sum for z; and each is a Moebius image of e^{i theta}
(Watanabe & Strogatz, Physica D 74, 1994), so D's angular modes fall by at
least s/2 each, s = mu g_dev r_prev the a priori bound on sup|D|.  With m*
the last mode above 2^-53 s and K the state's largest mode, n_c is the
smallest even divisor of n_theta, at least 8, with n_c >= 2 m* + 2,
n_c >= K + m* + 2 and n_c >= 2 K + 2: on exp_ref (a1 = 0.05, mu = 0.05)
16 of 64 angles, and n_theta itself where the modes fall slowly or the
grid is small.  The ledger's theta-sups (``dev_norm``, the sweep residual
and the certification's ``theta_diff_norm``) stay sups over the user's
angles: a coarse iterate's come from its trigonometric interpolant onto
them, row by row (``row_gaps``), since a coarse grid's sup of |D| can
read 0.998 of the fine one.  The certification's distance to the interpolant of
the last joint field measures any aliasing of the coarse loop directly.

Every iterate, the certification iterate included, appends one record to
a diagnostics ledger: weighted norms, Cauchy increments and ratios, the
contraction report of its sweep or solve, the measured deviation-bound
quotient, the step between successive fields, a boundedness ratio for the
norm-propagation estimate, and the certified truncation tails.  The ledger
is what the lemma verifier and the command line consume; it must stay
finite (no NaN/Inf) even on refused or diverging runs.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import time
from dataclasses import dataclass, field as dc_field

import numpy as np

from .characteristics import (
    CharacteristicField,
    MaxSweepsExceededError,
    NonContractiveError,
    gamma_field,
    phase_kernel,
    phase_quadrature,
    picard_sweep,
    resample_angles,
    row_gaps,
    solve_fixed_point,
)
from .norms_grids import Grid, WeightSpec, weighted_norm
from .spectral_state import AsymptoticState, free_order_parameter, real

__all__ = [
    "NotConvergingError",
    "TailBudgetError",
    "OrderParameterPath",
    "DiagnosticsLedger",
    "SolveResult",
    "ReconstructedDensity",
    "order_parameter_of",
    "solve_inputs",
    "outer_solve",
    "reconstruct",
    "verify_lemmas",
    "DEFAULT_TAIL_BUDGET",
    "LEMMA_SLACK",
]

log = logging.getLogger(__name__)

# admissible phase error (radians) from truncating the coupling integral at
# t_max; polynomial tails cannot reach the exponential budget at any
# feasible horizon, so the default is per class
DEFAULT_TAIL_BUDGET = {"exponential": 1e-8, "polynomial": 1e-3}
# joint iterates before outer_solve gives up
MAX_OUTER = 25
# relative slack on the estimates with fully explicit constants
LEMMA_SLACK = 1.05


class TailBudgetError(RuntimeError):
    """t_max is too small to certify the truncated tail at this weight."""


class NotConvergingError(RuntimeError):
    """Outer iteration stopped without reaching tol_outer.

    Carries the partial ledger so callers (and the exit-3 path of the
    command line) can still serialize the diagnostics.
    """

    def __init__(self, reason: str, ledger: "DiagnosticsLedger"):
        super().__init__(reason)
        self.reason = reason
        self.ledger = ledger


@dataclass(frozen=True, eq=False)
class OrderParameterPath:
    """Complex order-parameter samples on the time grid, with their norm."""

    grid: Grid
    values: np.ndarray
    weight: WeightSpec
    norm: float = dc_field(init=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n_times,):
            raise ValueError("path values must be sampled on the time grid")
        object.__setattr__(self, "values", v)
        object.__setattr__(
            self, "norm", weighted_norm(self.grid.times(), v, self.weight)
        )

    def r(self) -> np.ndarray:
        return np.abs(self.values)


@dataclass
class DiagnosticsLedger:
    """Append-only record of the outer iteration, JSON-serializable."""

    mu: float
    weight_label: str
    grid_meta: dict
    tail_budget: float
    free_norm: float
    records: list = dc_field(default_factory=list)
    status: str = "running"

    def to_dict(self) -> dict:
        return {
            "mu": self.mu,
            "weight": self.weight_label,
            "grid": dict(self.grid_meta),
            "tail_budget": self.tail_budget,
            "free_norm": self.free_norm,
            "status": self.status,
            "records": [dict(r) for r in self.records],
        }

    def all_finite(self) -> bool:
        def ok(x):
            if x is None or isinstance(x, str):
                return True
            if isinstance(x, dict):
                return all(ok(v) for v in x.values())
            if isinstance(x, (list, tuple)):
                return all(ok(v) for v in x)
            return math.isfinite(x)

        return ok(self.to_dict())


@dataclass(frozen=True, eq=False)
class SolveResult:
    state: AsymptoticState
    grid: Grid
    mu: float
    weight: WeightSpec
    path: OrderParameterPath
    field: CharacteristicField
    ledger: DiagnosticsLedger
    n_outer: int
    converged: bool


def order_parameter_of(
    field: CharacteristicField, state: AsymptoticState, weight: WeightSpec
) -> OrderParameterPath:
    """Order parameter of the transported state, free part in closed form.

    z(t) on the grid is the free part plus the quadrature of e^{iD} - 1
    (``phase_quadrature``), which runs on the field's tiles, each with the
    phase kernel of its own row sups of |D|, read once (a swept field
    carries them; a field built from an array takes them in one pass).  A
    zero field (every row sup 0: every solve's first iterate, and all of a
    mu = 0 solve) has e^{iD} - 1 = 0 on every cell, so z is the free part
    exactly, with no kernel built and no cell read.  Raises GridError
    when the field's grid aliases a mode of the state (``Grid.check_modes``).
    """
    g = field.grid
    g.check_modes(state.modes)
    z = free_order_parameter(state, g.times()).astype(complex)
    rows = field.row_sups()
    if rows.max() != 0.0:
        # angular weights: trapezoid on the periodic grid is exact for the
        # finite-mode factor, so the only quadrature left is over frequency
        theta = g.theta()
        u = state.angular_factor(theta) * np.exp(1j * theta) / g.n_theta
        phase_quadrature(field, rows, u, z)
    return OrderParameterPath(g, z, weight)


def _terms_histogram(counts) -> str:
    # "k:tiles" per Taylor term count, ascending, with "trig" the trig
    # form; "-" when no tile took a kernel
    keys = sorted(counts, key=lambda k: math.inf if k is None else k)
    return ",".join(f"{'trig' if k is None else k}:{counts[k]}" for k in keys) or "-"


def _coarse_angles(grid: Grid, state: AsymptoticState, bound: float) -> int:
    """Angles of a joint iterate: the fewest on which it loses nothing.

    ``bound`` bounds sup|D| of the field the iterate makes: it is
    mu g_dev r_prev, the ledger's ``estimrn_bound``, since the deviation
    weight is at least 1.  Each characteristic is a Moebius image of
    e^{i theta} (Watanabe & Strogatz, Physica D 74, 1994), so D's angular
    modes fall by a factor of at least bound / 2 each,
    |D_m| <= bound (bound / 2)^(m - 1), and m* is the last mode above
    2^-53 bound.  Two angle sums are then exact to rounding on n angles:
    the trapezoid of A(theta) e^{i theta} (e^{iD} - 1) for z, exact for
    modes below n, needs n >= K + m* + 2, K the state's largest mode; the
    interpolation of the field onto the user's angles for the ledger's
    sups needs every mode up to m* below n / 2, n >= 2 m* + 2; and
    ``order_parameter_of`` needs n >= 2 K + 2 (binding only when K > m*).
    Returns the smallest even divisor of n_theta, at least 8 (a Grid's
    least), that meets all three.  It is n_theta when none smaller does,
    when the bound is not below 2 (NaN included), where the modes need not
    fall, and when it is 0 (mu = 0 or a uniform state), where no field
    work is left to save and the loop's exact exit returns its field.
    """
    n_theta = grid.n_theta
    if not 0.0 < bound < 2.0:
        return n_theta
    # (bound / 2)^(m - 1) > 2^-53 for m <= m*
    m_star = math.ceil(53.0 * math.log(2.0) / math.log(2.0 / bound))
    top = max(state.modes, default=0)
    need = max(8, 2 * m_star + 2, top + m_star + 2, 2 * top + 2)
    return next((n for n in range(need, n_theta) if n % 2 == 0 and n_theta % n == 0), n_theta)


def _angle_grid(grid: Grid, n_theta: int) -> Grid:
    # the grid on n_theta angles, the same object when nothing changes
    return grid if n_theta == grid.n_theta else dataclasses.replace(grid, n_theta=n_theta)


def _user_grid_norms(grid: Grid, weight: WeightSpec, fld, prev, rep, certifying):
    """(dev_norm, theta_diff_norm) of an iterate, as sups over the user's angles.

    A field on the user's grid gives them as its own sups: the sweep's
    residual, or at the certification its distance to the field before.
    A joint iterate on the coarse grid takes them from its trigonometric
    interpolant onto the user's angles (``row_gaps``), and the residual in
    ``rep`` is replaced by that of the interpolants: a coarse grid's sup of
    |D| can read 0.998 of the fine one, so no coarse sup reaches the
    ledger.  The certification is compared with the interpolant of the
    last joint field (the field itself when that is on the user's grid),
    which after a coarse loop measures any aliasing of it directly.  A
    zero field's interpolant is zero, so its own row sups serve.
    """
    times, n_theta = grid.times(), grid.n_theta
    if fld.grid is not grid:
        sups = fld.row_sups() if fld.sup() == 0.0 else row_gaps(fld.deviation, n_theta=n_theta)
        if prev is not None:
            gaps = sups if prev.sup() == 0.0 else row_gaps(fld.deviation, prev.deviation, n_theta)
            rep.residuals[-1] = weighted_norm(times, gaps, weight, deviation=True)
        return float(np.max(weight.deviation_values(times) * sups)), rep.residuals[-1]
    dev_norm = fld.deviation_norm(weight)
    if not certifying:
        return dev_norm, rep.residuals[-1]
    gaps = row_gaps(prev.deviation, n_theta=n_theta, fine=fld.deviation)
    return dev_norm, weighted_norm(times, gaps, weight, deviation=True)


def solve_inputs(state: AsymptoticState, grid: Grid, mu: float, weight: WeightSpec | None = None,
                 tol_outer: float = 1e-10, tol_picard: float = 1e-12,
                 tail_budget: float | None = None):
    """``outer_solve``'s arguments, checked, as (mu, weight, tol_outer,
    tol_picard, tail_budget) with the defaults filled in (the state's decay
    class, DEFAULT_TAIL_BUDGET).  Raises ValueError naming a ``mu`` that is
    not finite and >= 0 or a tolerance that is not finite and > 0, and
    GridError when the grid aliases a mode of the state or the weight is
    not finite on it (``Grid.check_modes``, ``WeightSpec.check_finite``).
    """
    mu = real("mu", mu, lo=0.0)
    tol_outer = real("tol_outer", tol_outer, lo=0.0, above=True)
    tol_picard = real("tol_picard", tol_picard, lo=0.0, above=True)
    if weight is None:
        weight = WeightSpec(state.decay_kind, state.decay_rate)
    if tail_budget is None:
        tail_budget = DEFAULT_TAIL_BUDGET[weight.kind]
    tail_budget = real("tail_budget", tail_budget, lo=0.0, above=True)
    grid.check_modes(state.modes)
    weight.check_finite(grid.t_max)
    return mu, weight, tol_outer, tol_picard, tail_budget


def outer_solve(
    state: AsymptoticState,
    grid: Grid,
    mu: float,
    weight: WeightSpec | None = None,
    tol_outer: float = 1e-10,
    tol_picard: float = 1e-12,
    tail_budget: float | None = None,
) -> SolveResult:
    """Run the joint iteration from the zero path until Cauchy increments
    fall below tol_outer, then certify the final path.

    Each of at most MAX_OUTER joint iterates advances the field by one
    sweep under the previous path and re-integrates the order parameter,
    on the coarse angle grid of ``_coarse_angles`` (the user's grid where
    that is n_theta), which grows if a later iterate's bound needs more
    angles.  The certification iterate then solves the inner fixed point
    at the final path from zero to ``tol_picard`` on the user's grid
    (within solve_fixed_point's sweep budget); its field and path are
    returned, and the ledger's theta-sups are sups over the user's
    angles.  The weight defaults to the decay class the state declares.
    Raises, before any sweep, the ValueError or GridError of
    ``solve_inputs`` for a malformed argument; TailBudgetError when the
    certified truncation tail at t_max exceeds the budget, and
    NotConvergingError (with the partial ledger attached) when an iterate
    refuses, stalls, or the budget runs out.
    """
    mu, weight, tol_outer, tol_picard, tail_budget = solve_inputs(
        state, grid, mu, weight, tol_outer, tol_picard, tail_budget
    )
    times = grid.times()
    free_norm = weighted_norm(times, free_order_parameter(state, times), weight)
    ledger = DiagnosticsLedger(
        mu=mu,
        weight_label=weight.label(),
        grid_meta={
            "t_max": grid.t_max,
            "dt": grid.dt,
            "n_theta": grid.n_theta,
            "n_omega": grid.n_omega,
            "profile": grid.profile.kind,
            "scale": grid.profile.scale,
        },
        tail_budget=tail_budget,
        free_norm=free_norm,
    )
    tail_unit = weight.tail_integral(grid.t_max)
    dev_gain = abs(mu) * weight.unit_deviation_gain
    # the joint iterates' grid, from the bound of the loop's first nonzero
    # field (iterate 2's, at r_prev = ||z_free||); it grows, never shrinks,
    # when a later iterate's bound needs more angles
    joint = _angle_grid(grid, _coarse_angles(grid, state, dev_gain * free_norm))
    # after a coarse loop the certification writes a user-grid array taken
    # here, before the loop's two coarse ones: it lies below them, so once
    # they are freed the caller's next field can take their place, and it
    # is not resident until the certification writes it
    cert_out = None if joint is grid else np.empty(grid.shape())
    z_prev = np.zeros(grid.n_times, dtype=complex)
    r_prev = 0.0
    fld = prev_fld = None  # D_0 = 0
    prev_dz = None
    prev_ratio = None
    certifying = False
    n = 0
    while certifying or n < MAX_OUTER:
        n += 1
        t0 = time.perf_counter()
        # refusal to contract dominates: no horizon fixes kappa >= 1
        kappa_pred = mu * r_prev * weight.unit_contraction_gain
        if kappa_pred >= 1.0:
            ledger.status = f"non-contractive at n={n}: bound {kappa_pred:.6g} >= 1"
            raise NotConvergingError(ledger.status, ledger)
        # a zero bound makes the zero field, which any grid holds
        if not certifying and r_prev > 0.0:
            wanted = _coarse_angles(grid, state, dev_gain * r_prev)
            if wanted > joint.n_theta:
                # D_{n-1} is band-limited on its grid, so its interpolant
                # on the finer one is exact to rounding
                joint = _angle_grid(grid, wanted)
                fld = CharacteristicField(joint, resample_angles(fld.deviation, wanted), mu)
                prev_fld = None
        on = grid if certifying else joint
        # D_{n-2} is no longer read: its array takes D_n, so the loop holds
        # two fields from its second iterate on and frees none, and the
        # allocator has no field-sized hole to place the next one in
        spare = prev_fld.deviation if prev_fld is not None and prev_fld.grid is on else None
        prev_fld = fld
        try:
            if certifying:
                # frozen-path pass at the final path, cold so that its
                # residual trail measures the per-sweep contraction
                out = cert_out if spare is None else spare
                fld, rep = solve_fixed_point(grid, z_prev, mu, weight, tol_picard, out=out)
            else:
                fld, rep = picard_sweep(joint, z_prev, mu, weight, fld, out=spare)
        except (NonContractiveError, MaxSweepsExceededError) as exc:
            ledger.status = f"inner solve failed at n={n}: {exc}"
            raise NotConvergingError(str(exc), ledger) from exc
        path = order_parameter_of(fld, state, weight)
        if not np.all(np.isfinite(path.values.view(float))):
            ledger.status = f"nonfinite order parameter at n={n}"
            raise NotConvergingError("nonfinite order parameter", ledger)
        dz = weighted_norm(times, path.values - z_prev, weight)
        dev_norm, theta_diff = _user_grid_norms(grid, weight, fld, prev_fld, rep, certifying)
        kappa = rep.bound
        floor = 1e-14 * max(1.0, path.norm)
        denom = mu * weight.unit_deviation_gain * r_prev
        record = {
            "n": n,
            "r_norm": path.norm,
            "r_norm_prev": r_prev,
            "dz_norm": dz,
            "cauchy_ratio": (dz / prev_dz) if prev_dz and prev_dz > floor else None,
            "dev_norm": dev_norm,
            "estimrn_bound": denom,
            "estimrn_ratio": (dev_norm / denom) if denom > floor else 0.0,
            "lemma23_ratio": (
                path.norm / (r_prev + free_norm) if r_prev + free_norm > 0.0 else 0.0
            ),
            "theta_diff_norm": theta_diff,
            "kappa": kappa,
            "tail_bound": mu * r_prev * tail_unit,
            "contraction": rep.ledger_entry(),
        }
        ledger.records.append(record)
        log.debug(
            "outer n=%d%s n_c=%d dz=%.3e kappa=%.3e sweeps=%d terms=%s skipped=%d %.3fs",
            n, " (certification)" if certifying else "", fld.grid.n_theta, dz, kappa, rep.sweeps,
            _terms_histogram(rep.tile_terms), rep.tiles_skipped, time.perf_counter() - t0,
        )
        if certifying:
            ledger.status = "converged"
            return SolveResult(state, grid, mu, weight, path, fld, ledger, n, True)
        # a zero gain now and next makes both maps identically zero, so
        # (D_n, z_n) = (0, free path) is the fixed point exactly; this is
        # the mu = 0 and uniform-state exit, and it needs no certification
        next_kappa = mu * path.norm * weight.unit_contraction_gain
        exact = kappa == 0.0 and next_kappa == 0.0
        ratio = record["cauchy_ratio"]
        if exact or dz <= tol_outer:
            # the returned field is the fixed point for z_n, so its
            # truncation tail must fit the budget
            tail_next = mu * path.norm * tail_unit
            if tail_next > tail_budget:
                ledger.status = "tail budget exceeded"
                raise TailBudgetError(
                    f"certified tail {tail_next:.3e} rad > budget "
                    f"{tail_budget:.1e}; increase t_max"
                )
            if exact:
                ledger.status = "converged"
                return SolveResult(state, grid, mu, weight, path, fld, ledger, n, True)
            certifying = True
        elif (
            ratio is not None
            and prev_ratio is not None
            and ratio >= 1.0
            and prev_ratio >= 1.0
        ):
            ledger.status = (
                f"Cauchy ratios >= 1 at n={n - 1},{n}: mu too large for this state"
            )
            raise NotConvergingError(ledger.status, ledger)
        prev_ratio = ratio
        z_prev, r_prev, prev_dz = path.values, path.norm, dz
    ledger.status = f"no convergence in {MAX_OUTER} outer iterations"
    raise NotConvergingError(ledger.status, ledger)


@dataclass(frozen=True, eq=False)
class ReconstructedDensity:
    """Density along characteristics at selected times, plus global checks.

    ``values[i, j, k]`` is f(t_i, Theta(t_i, theta_j, omega_k), omega_k),
    the exponential-factor representation f_inf * e^{-mu * Gamma_cos}
    evaluated on the label grid.  ``mass`` integrates it against the exact
    angular Jacobian 1 + d(theta) D (spectral derivative), an identity that
    only holds if the two integrals the solver never compares directly are
    mutually consistent.  ``dephasing`` is the sup distance to the freely
    transported profile along characteristics, on the full time grid:
    sup |A(theta + D) - A(theta) e^{-mu Gamma_cos}| g / 2 pi per time row,
    A the angular factor.  The difference times g is formed as
    sum_k 2 Re[a_k e^{ik theta} E_k] g - A(theta) g expm1(-mu Gamma_cos),
    with E_k = e^{ikD} - 1 as the phase kernel's (cos kD - 1, sin kD), so
    no two numbers near 1 are subtracted and the rows keep their relative
    precision as they decay.  The direct form, with float64 cos and sin of
    theta + D, carries an absolute error of a few eps * max f_inf; the two
    agree within 4 eps * max f_inf, eps = 2^-52, and the tests hold them
    to that.
    ``gamma_margin`` is max(|Gamma| / beta) over the rows with beta > 0 of
    the coupling integrals the density is built from: the running bound
    |Gamma(t)| <= beta(t) = Int_t R holds when it is at most 1 + 1e-12.
    """

    times: np.ndarray
    values: np.ndarray
    mass: np.ndarray
    jacobian_min: np.ndarray
    min_value: float
    dephasing: np.ndarray
    gamma_margin: float

    def mass_ok(self, tol: float = 1e-6) -> bool:
        return bool(np.all(np.abs(self.mass - 1.0) <= tol))

    def gamma_ok(self) -> bool:
        """|Gamma| <= beta held on every row: a margin of at most 1 + 1e-12, not NaN."""
        return bool(self.gamma_margin <= 1.0 + 1e-12)


def _spectral_jacobian(dev_slice):
    # 1 + d/dtheta D on the periodic angle grid, Nyquist mode dropped
    m = dev_slice.shape[0]
    dh = np.fft.rfft(dev_slice, axis=0)
    k = 1j * np.arange(dh.shape[0])
    k[-1] = 0.0
    return 1.0 + np.fft.irfft(dh * k[:, None], n=m, axis=0)


def _mode_rows(state: AsymptoticState, theta, gdens):
    # {k: (p_k, q_k)} with p_k + i q_k = 2 a_k e^{ik theta} g(omega) on the
    # (theta, omega) labels: 2 Re[a_k e^{ik theta} E] g = p_k Re E - q_k Im E
    rows = {}
    for k in sorted(state.modes):
        b = 2.0 * state.modes[k] * np.exp(1j * k * theta)[:, None]
        rows[k] = (b.real * gdens, b.imag * gdens)
    return rows


def _add_mode_terms(acc, modes, angles, phase, block, sup, tmp):
    """acc += sum_k 2 Re[a_k e^{ik theta} E_k] g(omega) on one block, in place.

    ``modes`` is ``_mode_rows`` of the state and ``angles`` the block's
    angle columns; a state with no modes adds nothing.  E_1 = e^{iD} - 1
    is ``phase``, the block's (cos D - 1, sin D).  Each higher E_k is the
    pair the phase kernel of kD writes, kD formed from ``block``, D on
    the block, and the kernel picked by ``phase_kernel(k sup)``, ``sup``
    the largest row sup of the block's time rows (None when no mode is
    above 1): the per-tile rule of the walkers.  The terms are added by
    ascending k.  ``tmp`` is scratch of the block's shape; the higher
    modes share one pair and its D^2 scratch, allocated for the block.
    """
    pair = None if sup is None else np.empty((3,) + acc.shape)
    for k in sorted(modes):
        ek = phase
        if k > 1:
            np.multiply(block, k, out=tmp)
            phase_kernel(k * sup)(tmp, *pair)
            ek = pair[:2]
        p, q = modes[k]
        np.multiply(ek[0], p[angles], out=tmp)
        acc += tmp
        np.multiply(ek[1], q[angles], out=tmp)
        acc -= tmp


def reconstruct(result: SolveResult, times=None) -> ReconstructedDensity:
    """Evaluate the constructed density at grid times and certify it.

    Each requested time must lie on the grid (the representation is exact
    there; no interpolation is offered); ``times`` must be a non-empty
    1-D sequence (or one number), else ValueError before any work.  The
    default is t = 0, 5 and 10, or on a grid shorter than 10 its first,
    middle and last time, so it holds on every grid.  Also
    evaluates the dephasing distance on the whole grid from the same
    coupling integrals, taken block by block as gamma_field's parts hand
    them out, with each block's phase pair (cos D - 1, sin D), and each
    higher mode's E_k from the phase kernel of kD (``_add_mode_terms``),
    picked from the field's row sups, read once and only for a state with
    a mode above 1.  Only the cosine rows at the requested times and the
    per-angle row maxima of the distance (n_theta, n_times) are kept, so
    beside its input field the working set is gamma_field's tile scratch,
    those rows and, for a mode above 1, each block's E_k pair.
    """
    g = result.grid
    tgrid = g.times()
    if times is None:
        times = ((0.0, 5.0, 10.0) if g.t_max + 1e-12 >= 10.0
                 else (0.0, round(0.5 * g.t_max / g.dt) * g.dt, g.t_max))
    req = np.atleast_1d(np.asarray(times, dtype=float))
    if req.ndim != 1 or req.size == 0:
        raise ValueError(
            f"times must be a non-empty 1-D sequence of grid times, not shape {req.shape}"
        )
    idx = []
    for t in req:
        j = int(round(t / g.dt)) if math.isfinite(t) else -1
        if j < 0 or j >= g.n_times or abs(tgrid[j] - t) > 1e-9 * max(1.0, t):
            raise ValueError(f"t = {t} is not a grid time")
        idx.append(j)
    state, mu = result.state, result.mu
    theta = g.theta()
    ang = state.angular_factor(theta)[:, None]
    gdens = state.profile.density(g.omega_nodes)[None, :]
    f_inf = ang * gdens / (2.0 * math.pi)
    # the weights carry g, so each block product broadcasts over whole
    # (angle, frequency) planes, and no pass multiplies by g alone
    neg_f = -(ang * gdens)
    modes = _mode_rows(state, theta, gdens)
    sups = result.field.row_sups() if max(modes, default=0) > 1 else None
    sel = np.array(idx, dtype=int)
    cos_rows = np.empty((sel.size, g.n_theta, g.n_omega))
    # sup_t |f_inf e^{-mu Gamma_cos} - f_inf(theta + D)| along
    # characteristics, kept per angle as each block comes and maximized
    # over the angles at the end: dividing by 2 pi is monotone, so that is
    # the sup over each whole row
    dist = np.empty((g.n_theta, g.n_times))

    def on_tile(sl, angles, sin_tile, cos_tile, cos_m1, sin_d):
        # called from gamma_field's parts, each on its own block; the
        # difference goes into the memory of cos_tile, and sin_tile, which
        # nothing reads after gamma_field's row sup, is the mode terms'
        # scratch
        held = np.flatnonzero((sel >= sl.start) & (sel < sl.stop))
        cos_rows[held, angles] = cos_tile[sel[held] - sl.start]
        diff = cos_tile
        diff *= -mu
        np.expm1(diff, out=diff)
        diff *= neg_f[angles]
        sup = None if sups is None else float(sups[sl].max())
        _add_mode_terms(diff, modes, angles, (cos_m1, sin_d), result.field.deviation[sl, angles],
                        sup, sin_tile)
        np.abs(diff, out=diff)
        dist[angles, sl] = diff.max(axis=2).T / (2.0 * math.pi)

    margin = gamma_field(result.field, result.path.values, on_tile)

    values = np.empty((sel.size, g.n_theta, g.n_omega))
    mass = np.empty(sel.size)
    jac_min = np.empty(sel.size)
    for i, j in enumerate(sel):
        factor = np.exp(-mu * cos_rows[i])
        values[i] = f_inf * factor
        jac = _spectral_jacobian(result.field.deviation[j])
        jac_min[i] = float(jac.min())
        mass[i] = float(
            np.sum(g.prob_weights[None, :] * ang * factor * jac) / g.n_theta
        )

    return ReconstructedDensity(
        times=tgrid[sel],
        values=values,
        mass=mass,
        jacobian_min=jac_min,
        min_value=float(values.min()),
        dephasing=dist.max(axis=0),
        gamma_margin=margin,
    )


def _trend_slope(values):
    # least-squares slope of a ratio sequence against its index; the
    # boundedness flag for generic-constant estimates
    vals = np.asarray(values, dtype=float)
    keep = np.isfinite(vals)
    vals = vals[keep]
    if vals.size < 3:
        return 0.0
    n = np.arange(vals.size, dtype=float)
    return float(np.polyfit(n, vals, 1)[0])


def verify_lemmas(ledger: DiagnosticsLedger, weight: WeightSpec, mu: float) -> dict:
    """Check the runtime inequalities recorded in a completed ledger.

    Estimates with fully explicit constants are asserted with the relative
    slack ``LEMMA_SLACK``: the per-sweep contraction ratios against
    mu ||R|| times the weight's unit gain, the deviation-norm bound, and
    the Lipschitz bound on the step between successive characteristic
    fields.  Estimates whose constants the analysis leaves generic are
    reported as measured ratio sequences and flagged only when they trend
    upward: least-squares slope above 0.01, scaled by the sequence level
    when that level exceeds one so the flag is insensitive to the units of
    the generic constant.  A NaN ratio fails its explicit check, makes the
    contraction's ``worst_quotient`` NaN and flags a generic sequence.  An
    empty ledger, which no check could fail, raises ValueError.
    """
    recs = ledger.records
    if not recs:
        raise ValueError("verify_lemmas needs a ledger with at least one record")
    report = {"explicit": {}, "generic": {}, "n_records": len(recs)}

    contraction_ok = True
    quotients = []
    for r in recs:
        bound = r["contraction"]["bound"]
        for ratio in r["contraction"]["ratios"]:
            if bound > 0:
                quotients.append(ratio / bound)
            contraction_ok &= ratio <= bound * LEMMA_SLACK + 1e-15
    report["explicit"]["contraction"] = {
        "pass": bool(contraction_ok),
        "worst_quotient": float(np.max(quotients, initial=0.0)),
    }

    est = [r["estimrn_ratio"] for r in recs]
    report["explicit"]["deviation_bound"] = {
        "pass": bool(all(e <= LEMMA_SLACK for e in est)),
        "ratios": est,
    }

    # successive fields: one sweep gives ||D_k - D_{k-1}|| <=
    # mu g_dev dz_{k-1} + kappa_k ||D_{k-1} - D_{k-2}||; a solved field
    # (the certification iterate) adds kappa_k times its last residual and
    # the factor 1 / (1 - kappa_k)
    lip = []
    lip_ok = True
    gain = mu * weight.unit_deviation_gain
    for prev, cur in zip(recs, recs[1:]):
        kappa = cur["kappa"]
        denom = gain * prev["dz_norm"] + kappa * prev["theta_diff_norm"]
        rep = cur["contraction"]
        if rep["converged"]:
            last = rep["residuals"][-1] if rep["residuals"] else 0.0
            denom = (denom + kappa * last) / (1.0 - kappa)
        if denom > 1e-14:
            q = cur["theta_diff_norm"] / denom
            lip.append(q)
            lip_ok &= q <= LEMMA_SLACK
    report["explicit"]["path_lipschitz"] = {"pass": bool(lip_ok), "ratios": lip}

    def trend_block(ratios):
        slope = _trend_slope(ratios)
        level = float(np.mean(np.abs(ratios))) if len(ratios) else 0.0
        return {
            "ratios": ratios,
            "slope": slope,
            "bounded": bool(slope <= 0.01 * np.maximum(1.0, level)),
        }

    l23 = [r["lemma23_ratio"] for r in recs]
    report["generic"]["norm_propagation"] = trend_block(l23)
    cauchy = [r["cauchy_ratio"] for r in recs if r["cauchy_ratio"] is not None]
    report["generic"]["cauchy"] = trend_block(cauchy)
    # Cauchy gain measured per unit of predicted contraction: the generic
    # constant in the increment-propagation estimate
    per_bound = [
        r["cauchy_ratio"] / r["kappa"]
        for r in recs
        if r["cauchy_ratio"] is not None and r["kappa"] > 1e-14
    ]
    report["generic"]["increment_per_bound"] = trend_block(per_bound)
    report["all_explicit_pass"] = bool(
        report["explicit"]["contraction"]["pass"]
        and report["explicit"]["deviation_bound"]["pass"]
        and report["explicit"]["path_lipschitz"]["pass"]
    )
    return report
