"""End-to-end tests for the outer iteration and density reconstruction.

One moderately sized coupled solve (single Fourier mode on a unit
Lorentzian profile, mu = 0.05) is shared module-wide; the remaining
cases exercise degenerate inputs and the documented failure modes.
"""

import numpy as np
import pytest

from kuramoto_dephasing import (
    AsymptoticState,
    FrequencyProfile,
    NotConvergingError,
    TailBudgetError,
    WeightSpec,
    build_grid,
    fit_decay,
    free_order_parameter,
    outer_solve,
    reconstruct,
    solve_fixed_point,
    verify_lemmas,
    weighted_norm,
)
from kuramoto_dephasing.scheme import order_parameter_of

MU = 0.05
PROFILE = FrequencyProfile("lorentzian", 1.0)
WEIGHT = WeightSpec("exponential", 0.9)

RECORD_KEYS = {
    "n",
    "r_norm",
    "r_norm_prev",
    "dz_norm",
    "cauchy_ratio",
    "dev_norm",
    "estimrn_bound",
    "estimrn_ratio",
    "lemma23_ratio",
    "theta_diff_norm",
    "kappa",
    "tail_bound",
    "contraction",
}


def _state():
    return AsymptoticState(PROFILE, {1: 0.05}, "exponential", 0.9)


@pytest.fixture(scope="module")
def state():
    return _state()


@pytest.fixture(scope="module")
def grid():
    return build_grid(PROFILE, t_max=16.0, dt=0.05, n_theta=32)


@pytest.fixture(scope="module")
def result(state, grid):
    return outer_solve(state, grid, MU, WEIGHT)


@pytest.fixture(scope="module")
def recon(result):
    return reconstruct(result, times=(0.0, 5.0, 10.0))


def test_outer_converges(result):
    assert result.converged
    assert 2 <= result.n_outer <= 10
    assert result.ledger.status == "converged"


def test_ledger_record_schema(result):
    recs = result.ledger.records
    assert len(recs) == result.n_outer
    for rec in recs:
        assert set(rec) == RECORD_KEYS
    assert result.ledger.all_finite()


def _nested_reference(state, grid, tol_outer=1e-10, tol_picard=1e-12, n_max=25):
    # the nested iteration: every outer iterate solves the inner fixed
    # point at the previous path to tol_picard
    z = np.zeros(grid.n_times, dtype=complex)
    for _ in range(n_max):
        field, _ = solve_fixed_point(grid, z, MU, WEIGHT, tol_picard)
        path = order_parameter_of(field, state, WEIGHT)
        dz = weighted_norm(grid.times(), path.values - z, WEIGHT)
        z = path.values
        if dz <= tol_outer:
            return field, path
    raise AssertionError("nested reference did not converge")


def test_joint_loop_matches_nested_reference(state, grid, result):
    field, path = _nested_reference(state, grid)
    assert np.max(np.abs(result.path.values - path.values)) <= 1e-10
    assert np.max(np.abs(result.field.deviation - field.deviation)) <= 1e-10


def test_certification_iterate_closes_the_ledger(result):
    *joint, cert = result.ledger.records
    # a cold frozen-path pass: enough sweeps for c02 to check contraction
    assert cert["contraction"]["converged"]
    assert len(cert["contraction"]["ratios"]) >= 2
    # joint iterates advance the field by at most one sweep each
    assert all(rec["contraction"]["sweeps"] <= 1 for rec in joint)
    assert all(rec["contraction"]["ratios"] == [] for rec in joint)
    assert joint[-1]["dz_norm"] <= 1e-10
    assert cert["r_norm_prev"] == joint[-1]["r_norm"]


def test_first_iterate_is_free_path(state, grid):
    # solving against the zero path transports freely, so iterate 1
    # reproduces the free order parameter; z(0) is the mode amplitude
    field, _ = solve_fixed_point(grid, np.zeros(grid.n_times, complex), MU, WEIGHT)
    path = order_parameter_of(field, state, WEIGHT)
    free = free_order_parameter(state, grid.times())
    assert np.max(np.abs(path.values - free)) < 1e-12
    assert path.values[0] == pytest.approx(0.05, abs=1e-10)


def test_order_parameter_modulus_bounded(result):
    assert np.max(result.path.r()) <= 1.0 + 1e-12


def test_norms_stay_near_free_iterate(result):
    first = result.ledger.records[0]["r_norm"]
    assert first == pytest.approx(result.ledger.free_norm, abs=1e-12)
    for rec in result.ledger.records:
        assert rec["r_norm"] <= 2.0 * first


def test_cauchy_ratios_contract(result):
    ratios = [r["cauchy_ratio"] for r in result.ledger.records[2:]]
    assert ratios and all(q is not None and q < 0.55 for q in ratios)


def test_deviation_bound_ratio(result):
    worst = max(r["estimrn_ratio"] for r in result.ledger.records)
    assert worst <= 1.05


def test_path_growth_ratio(result):
    worst = max(r["lemma23_ratio"] for r in result.ledger.records)
    assert worst <= 1.05


def test_verify_lemmas_reports_pass(result):
    out = verify_lemmas(result.ledger, result.weight, result.mu)
    assert set(out) == {"explicit", "generic", "n_records", "all_explicit_pass"}
    assert set(out["explicit"]) == {"contraction", "deviation_bound", "path_lipschitz"}
    assert out["all_explicit_pass"]
    assert out["explicit"]["contraction"]["worst_quotient"] < 1.0
    for block in out["generic"].values():
        assert block["bounded"]


def test_mass_jacobian_positivity(recon):
    assert recon.mass_ok(1e-6)
    assert np.all(recon.jacobian_min > 0.0)
    assert recon.min_value > 0.0
    assert np.array_equal(recon.times, [0.0, 5.0, 10.0])


def test_dephasing_decays_by_fitted_factor(result, recon, grid):
    times = grid.times()
    model = fit_decay(times, recon.dephasing, "exponential", window=(2.0, 12.0))
    mid = grid.n_times // 2
    expected = recon.dephasing[0] * float(np.exp(-model.rate * times[mid]))
    assert recon.dephasing[mid] <= 1.05 * expected


def test_reconstruct_rejects_offgrid_time(result):
    with pytest.raises(ValueError, match="grid time"):
        reconstruct(result, times=(0.025,))


def test_mu_zero_is_free_transport(state, grid):
    res = outer_solve(state, grid, 0.0, WEIGHT)
    assert res.converged and res.n_outer == 1
    assert res.ledger.records[0]["contraction"]["sweeps"] == 0
    free = free_order_parameter(state, grid.times())
    assert np.max(np.abs(res.path.values - free)) == 0.0
    rec = reconstruct(res, times=(0.0,))
    assert np.max(rec.dephasing) == 0.0


def test_uniform_state_stays_uniform(grid):
    state = AsymptoticState(PROFILE, {}, "exponential", 0.9)
    res = outer_solve(state, grid, MU, WEIGHT)
    assert res.n_outer == 1
    assert res.ledger.records[0]["contraction"]["sweeps"] == 0
    assert np.max(res.path.r()) == 0.0


def test_large_mu_refused_with_ledger(state, grid):
    with pytest.raises(NotConvergingError) as info:
        outer_solve(state, grid, 10.0, WEIGHT)
    ledger = info.value.ledger
    assert len(ledger.records) >= 1
    assert ledger.all_finite()
    assert ledger.status != "converged"


def test_tail_budget_guards_small_horizon(state):
    short = build_grid(PROFILE, t_max=12.0, dt=0.05, n_theta=16)
    with pytest.raises(TailBudgetError, match="increase t_max"):
        outer_solve(state, short, MU, WEIGHT)


def test_inner_refusal_wrapped(state, grid):
    # mu * ||free z|| * gain >= 1 already on the second outer step
    with pytest.raises(NotConvergingError):
        outer_solve(state, grid, 60.0, WEIGHT)
