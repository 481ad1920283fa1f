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
sees amplitudes that vanish where the oscillation gets fast.  The
subtraction is evaluated as (-2 sin^2(D/2), sin D) to keep full relative
precision long after |D| has dropped below the rounding unit, which is what
lets weighted Cauchy increments be resolved down to 1e-10 and beyond.

Every iterate, the certification iterate included, appends one record to
a diagnostics ledger: weighted norms, Cauchy increments and ratios, the
contraction report of its sweep or solve, the measured deviation-bound
quotient, the step between successive fields, a boundedness ratio for the
norm-propagation estimate, and the certified truncation tails.  The ledger
is what the lemma verifier and the command line consume; it must stay
finite (no NaN/Inf) even on refused or diverging runs.
"""

from __future__ import annotations

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
    picard_sweep,
    solve_fixed_point,
)
from .norms_grids import Grid, WeightSpec, weighted_norm
from .spectral_state import AsymptoticState, free_order_parameter

__all__ = [
    "NotConvergingError",
    "TailBudgetError",
    "OrderParameterPath",
    "DiagnosticsLedger",
    "SolveResult",
    "ReconstructedDensity",
    "order_parameter_of",
    "outer_solve",
    "reconstruct",
    "verify_lemmas",
    "DEFAULT_TAIL_BUDGET",
]

_BLOCK_ELEMENTS = 4_000_000

log = logging.getLogger(__name__)

# admissible phase error (radians) from truncating the coupling integral at
# t_max; polynomial tails cannot reach the exponential budget at any
# feasible horizon, so the default is per class
DEFAULT_TAIL_BUDGET = {"exponential": 1e-8, "polynomial": 1e-3}


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

    def add(self, record: dict):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

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
            if x is None or isinstance(x, (str, bool)):
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


def _order_parameter_values(field: CharacteristicField, state: AsymptoticState):
    g = field.grid
    times, theta, omega = g.times(), g.theta(), g.omega_nodes
    # angular weights: trapezoid on the periodic grid is exact for the
    # finite-mode factor, so the only quadrature left is over frequency
    u = state.angular_factor(theta) * np.exp(1j * theta) / g.n_theta
    z = free_order_parameter(state, times).astype(complex)
    block = max(1, _BLOCK_ELEMENTS // (g.n_times * g.n_theta))
    for lo in range(0, g.n_omega, block):
        sl = slice(lo, min(lo + block, g.n_omega))
        dev = field.deviation[:, :, sl]
        # e^{iD} - 1 without cancellation: (-2 sin^2(D/2), sin D)
        em1 = np.empty(dev.shape, dtype=complex)
        em1.real = np.sin(0.5 * dev)
        em1.real *= -2.0 * em1.real
        em1.imag = np.sin(dev)
        s = np.einsum("j,tjk->tk", u, em1)
        e = np.exp(1j * np.outer(times, omega[sl]))
        z += np.einsum("tk,tk,k->t", e, s, g.prob_weights[sl])
    return z


def order_parameter_of(
    field: CharacteristicField, state: AsymptoticState, weight: WeightSpec
) -> OrderParameterPath:
    """Order parameter of the transported state, free part in closed form."""
    return OrderParameterPath(field.grid, _order_parameter_values(field, state), weight)


def outer_solve(
    state: AsymptoticState,
    grid: Grid,
    mu: float,
    weight: WeightSpec | None = None,
    tol_outer: float = 1e-10,
    n_max: int = 25,
    tol_picard: float = 1e-12,
    max_sweeps: int = 60,
    tail_budget: float | None = None,
) -> SolveResult:
    """Run the joint iteration from the zero path until Cauchy increments
    fall below tol_outer, then certify the final path.

    Each of at most ``n_max`` joint iterates advances the field by one
    sweep under the previous path and re-integrates the order parameter.
    The certification iterate then solves the inner fixed point at the
    final path from zero to ``tol_picard`` (within ``max_sweeps``); its
    field and path are returned.  The weight defaults to the decay class
    the state declares.  Raises TailBudgetError when the certified
    truncation tail at t_max exceeds the budget, and NotConvergingError
    (with the partial ledger attached) when an iterate refuses, stalls,
    or the budget runs out.
    """
    if weight is None:
        weight = WeightSpec(state.decay_kind, state.decay_rate)
    if tail_budget is None:
        tail_budget = DEFAULT_TAIL_BUDGET[weight.kind]
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
    z_prev = np.zeros(grid.n_times, dtype=complex)
    r_prev = 0.0
    fld = None  # D_0 = 0
    prev_dz = None
    prev_ratio = None
    certifying = False
    n = 0
    while certifying or n < n_max:
        n += 1
        t0 = time.perf_counter()
        # refusal to contract dominates: no horizon fixes kappa >= 1
        kappa_pred = mu * r_prev * weight.unit_contraction_gain
        if kappa_pred >= 1.0:
            ledger.status = f"non-contractive at n={n}: bound {kappa_pred:.6g} >= 1"
            raise NotConvergingError(ledger.status, ledger)
        prev_fld = fld
        try:
            if certifying:
                # frozen-path pass at the final path, cold so that its
                # residual trail measures the per-sweep contraction
                fld, rep = solve_fixed_point(grid, z_prev, mu, weight, tol_picard, max_sweeps)
            else:
                fld, rep = picard_sweep(grid, z_prev, mu, weight, fld)
        except (NonContractiveError, MaxSweepsExceededError) as exc:
            ledger.status = f"inner solve failed at n={n}: {exc}"
            raise NotConvergingError(str(exc), ledger) from exc
        path = order_parameter_of(fld, state, weight)
        if not np.all(np.isfinite(path.values.view(float))):
            ledger.status = f"nonfinite order parameter at n={n}"
            raise NotConvergingError("nonfinite order parameter", ledger)
        dz = weighted_norm(times, path.values - z_prev, weight)
        dev_norm = fld.deviation_norm(weight)
        if certifying:
            theta_diff = weighted_norm(
                times, fld.deviation - prev_fld.deviation, weight, deviation=True
            )
        else:
            theta_diff = rep.residuals[-1]
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
            "contraction": rep.as_dict(),
        }
        ledger.add(record)
        log.debug(
            "outer n=%d%s dz=%.3e kappa=%.3e sweeps=%d %.3fs",
            n, " (certification)" if certifying else "", dz, kappa, rep.sweeps,
            time.perf_counter() - t0,
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
    ledger.status = f"no convergence in {n_max} outer iterations"
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
    transported profile along characteristics, on the full time grid.
    """

    times: np.ndarray
    values: np.ndarray
    free_values: np.ndarray
    mass: np.ndarray
    jacobian_min: np.ndarray
    min_value: float
    dephasing: np.ndarray

    def mass_ok(self, tol: float = 1e-6) -> bool:
        return bool(np.all(np.abs(self.mass - 1.0) <= tol))


def _spectral_jacobian(dev_slice):
    # 1 + d/dtheta D on the periodic angle grid, Nyquist mode dropped
    m = dev_slice.shape[0]
    dh = np.fft.rfft(dev_slice, axis=0)
    k = 1j * np.arange(dh.shape[0])
    k[-1] = 0.0
    return 1.0 + np.fft.irfft(dh * k[:, None], n=m, axis=0)


def reconstruct(result: SolveResult, times=(0.0, 5.0, 10.0)) -> ReconstructedDensity:
    """Evaluate the constructed density at grid times and certify it.

    Each requested time must lie on the grid (the representation is exact
    there; no interpolation is offered).  Also evaluates the dephasing
    distance on the whole grid, reusing the same coupling integrals.
    """
    g = result.grid
    tgrid = g.times()
    idx = []
    for t in np.atleast_1d(np.asarray(times, dtype=float)):
        j = int(round(t / g.dt))
        if j < 0 or j >= g.n_times or abs(tgrid[j] - t) > 1e-9 * max(1.0, t):
            raise ValueError(f"t = {t} is not a grid time")
        idx.append(j)
    state, mu = result.state, result.mu
    gam = gamma_field(result.field, result.path.values)
    theta = g.theta()
    ang = state.angular_factor(theta)[:, None]
    gdens = state.profile.density(g.omega_nodes)[None, :]
    f_inf = ang * gdens / (2.0 * math.pi)

    sel = np.array(idx, dtype=int)
    values = np.empty((sel.size, g.n_theta, g.n_omega))
    mass = np.empty(sel.size)
    jac_min = np.empty(sel.size)
    for i, j in enumerate(sel):
        factor = np.exp(-mu * gam.cos_part[j])
        values[i] = f_inf * factor
        jac = _spectral_jacobian(result.field.deviation[j])
        jac_min[i] = float(jac.min())
        mass[i] = float(
            np.sum(g.prob_weights[None, :] * ang * factor * jac) / g.n_theta
        )

    # sup_t |f_inf e^{-mu Gamma_cos} - f_inf(theta + D)| along characteristics
    dist = np.zeros(g.n_times)
    block = max(1, _BLOCK_ELEMENTS // (g.n_times * g.n_theta))
    for lo in range(0, g.n_omega, block):
        sl = slice(lo, min(lo + block, g.n_omega))
        diff = state.angular_factor(
            theta[None, :, None] + result.field.deviation[:, :, sl]
        )
        diff -= ang[None, :, :] * np.exp(-mu * gam.cos_part[:, :, sl])
        np.abs(diff, out=diff)
        diff *= gdens[None, :, sl]
        np.maximum(dist, diff.reshape(g.n_times, -1).max(axis=1) / (2.0 * math.pi), out=dist)

    return ReconstructedDensity(
        times=tgrid[sel],
        values=values,
        free_values=f_inf,
        mass=mass,
        jacobian_min=jac_min,
        min_value=float(values.min()),
        dephasing=dist,
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

    Estimates with fully explicit constants are asserted with 5% slack:
    the per-sweep contraction ratios against mu ||R|| times the weight's
    unit gain, the deviation-norm bound, and the Lipschitz bound on the
    step between successive characteristic fields.  Estimates whose
    constants the analysis leaves generic are reported as measured ratio
    sequences and flagged only when they trend upward: least-squares slope
    above 0.01, scaled by the sequence level when that level exceeds one
    so the flag is insensitive to the units of the generic constant.
    """
    recs = ledger.records
    slack = 1.05
    report = {"explicit": {}, "generic": {}, "n_records": len(recs)}

    contraction_ok = True
    worst = 0.0
    for r in recs:
        bound = r["contraction"]["bound"]
        for ratio in r["contraction"]["ratios"]:
            if bound > 0:
                worst = max(worst, ratio / bound)
            contraction_ok &= ratio <= bound * slack + 1e-15
    report["explicit"]["contraction"] = {
        "pass": bool(contraction_ok),
        "worst_quotient": worst,
    }

    est = [r["estimrn_ratio"] for r in recs]
    report["explicit"]["deviation_bound"] = {
        "pass": bool(all(e <= slack for e in est)),
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
            lip_ok &= q <= slack
    report["explicit"]["path_lipschitz"] = {"pass": bool(lip_ok), "ratios": lip}

    def trend_block(ratios):
        slope = _trend_slope(ratios)
        level = float(np.mean(np.abs(ratios))) if len(ratios) else 0.0
        return {
            "ratios": ratios,
            "slope": slope,
            "bounded": bool(slope <= 0.01 * max(1.0, level)),
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
