"""Oracle and property tests for the backward-characteristic solver.

The one-sweep map has a closed form when the driving path is a plain
exponential, so the discretized sweep is checked against exact calculus;
the full fixed point is cross-checked against an independent backward
RK4 integration.  Structural properties (phase-shift equivariance, the
running bound on the coupling integral, the fixed-point identity
D = mu * Gamma) are asserted at their provable tolerances.
"""

import math

import numpy as np
import pytest

from kuramoto_dephasing import (
    AsymptoticState,
    FrequencyProfile,
    Grid,
    MaxSweepsExceededError,
    NonContractiveError,
    StepRejectedError,
    WeightSpec,
    backward_ode_oracle,
    build_grid,
    gamma_field,
    solve_fixed_point,
)
from kuramoto_dephasing.characteristics import deviation_sweep, filon_weights, picard_sweep

MU = 0.05
PROFILE = FrequencyProfile("lorentzian", 1.0)
WEIGHT = WeightSpec("exponential", 0.9)


@pytest.fixture(scope="module")
def grid():
    return build_grid(PROFILE, t_max=8.0, dt=0.05, n_theta=16, n_omega=65)


@pytest.fixture(scope="module")
def zpath(grid):
    return 0.05 * np.exp(-grid.times()) + 0.0j


@pytest.fixture(scope="module")
def solved(grid, zpath):
    return solve_fixed_point(grid, zpath, MU, WEIGHT)


def test_filon_weights_bounded_by_half():
    w = np.concatenate(
        [
            np.array([0.0]),
            np.logspace(-6, 3, 400),
            -np.logspace(-6, 3, 400),
            np.linspace(0.75, 0.85, 101),
        ]
    )
    alpha, beta = filon_weights(w)
    assert np.all(np.abs(alpha) <= 0.5 + 1e-12)
    assert np.all(np.abs(beta) <= 0.5 + 1e-12)


def test_filon_weights_zero_frequency_is_trapezoid():
    alpha, beta = filon_weights(np.array([0.0]))
    assert alpha[0] == pytest.approx(0.5, abs=1e-15)
    assert beta[0] == pytest.approx(0.5, abs=1e-15)


def test_filon_weights_continuous_across_series_switch():
    # seam equals the series truncation error at the threshold, ~3e-10
    eps = 1e-9
    lo = filon_weights(np.array([0.8 - eps]))
    hi = filon_weights(np.array([0.8 + eps]))
    assert abs(lo[0][0] - hi[0][0]) < 5e-9
    assert abs(lo[1][0] - hi[1][0]) < 5e-9


def test_filon_weights_moment_identity():
    # alpha + beta must integrate the constant 1 exactly: their sum is
    # (e^{iw} - 1) / (iw) for every frequency
    w = np.concatenate([np.logspace(-4, 2, 200), -np.logspace(-4, 2, 200)])
    alpha, beta = filon_weights(w)
    m0 = (np.exp(1j * w) - 1.0) / (1j * w)
    assert np.max(np.abs(alpha + beta - m0)) < 1e-11


def test_one_sweep_matches_continuum_closed_form(grid, zpath):
    # with D = 0 the sweep integral is elementary:
    #   D_new = mu * Im(e^{i theta} int_t^T 0.05 e^{-s} e^{i omega s} ds)
    times, theta, omega = grid.times(), grid.theta(), grid.omega_nodes
    dev0 = np.zeros(grid.shape())
    swept = deviation_sweep(times, theta, omega, zpath, dev0, MU)

    a = -1.0 + 1j * omega[None, None, :]
    ends = np.exp(a * times[-1])
    starts = np.exp(a * times[:, None, None])
    integral = 0.05 * (ends - starts) / a
    exact = MU * np.imag(np.exp(1j * theta[None, :, None]) * integral)
    # Filon-trapezoid error mu * dt^2/12 * int |c''| with c = 0.05 e^{-s}
    assert np.max(np.abs(swept - exact)) < 1e-6


def test_zero_path_converges_in_one_sweep(grid):
    field, report = solve_fixed_point(grid, np.zeros(grid.n_times), 0.7, WEIGHT)
    assert report.converged and report.sweeps == 1
    assert field.sup() == 0.0


def test_mu_zero_fixed_point_is_exact(grid, zpath):
    field, report = solve_fixed_point(grid, zpath, 0.0, WEIGHT)
    assert report.converged and report.bound == 0.0
    assert field.sup() == 0.0


def test_picard_sweep_steps_the_frozen_path_solve(grid, zpath, solved):
    field, report = solved
    _, rep = picard_sweep(grid, zpath, MU, WEIGHT)
    assert rep.sweeps == 1 and not rep.converged and rep.ratios == []
    assert rep.bound == report.bound
    assert rep.residuals == [pytest.approx(report.residuals[0], rel=1e-12)]
    # from the solved field one more sweep moves by kappa * last residual
    again, rep = picard_sweep(grid, zpath, MU, WEIGHT, field)
    assert rep.residuals[0] <= report.bound * report.residuals[-1] * 1.05 + 1e-15
    assert np.max(np.abs(again.deviation - field.deviation)) <= 1e-12


def test_picard_sweep_zero_gain_is_exact_without_a_sweep(grid, zpath, solved):
    field, _ = solved
    zero, rep = picard_sweep(grid, zpath, 0.0, WEIGHT, field)
    assert rep.converged and rep.sweeps == 0
    assert zero.sup() == 0.0
    assert rep.residuals == [pytest.approx(field.deviation_norm(WEIGHT), rel=1e-15)]


def test_fixed_point_matches_rk4_oracle(grid, zpath, solved):
    field, report = solved
    assert report.converged
    oracle = backward_ode_oracle(grid, zpath, MU)
    assert np.max(np.abs(field.deviation - oracle.deviation)) < 1e-6


def test_oracle_free_flow_is_exact(grid):
    oracle = backward_ode_oracle(grid, np.zeros(grid.n_times), MU)
    assert np.max(np.abs(oracle.deviation)) == 0.0


def _three_label_grid(nodes):
    return Grid(
        profile=PROFILE,
        t_max=8.0,
        dt=0.05,
        n_theta=8,
        omega_nodes=np.asarray(nodes, dtype=float),
        omega_weights=np.full(3, 1.0 / 3.0),
        mass_tol=math.inf,
    )


def test_oracle_phase_shift_equivariance(zpath):
    # shifting every omega by delta while spinning the path by e^{i delta s}
    # leaves the deviation invariant; discretizations differ only through
    # per-column substep counts and path resampling
    delta = 0.7
    nodes = np.array([-0.5, 0.3, 1.1])
    g1 = _three_label_grid(nodes)
    g2 = _three_label_grid(nodes + delta)
    spun = zpath * np.exp(1j * delta * g1.times())
    dev1 = backward_ode_oracle(g1, zpath, MU).deviation
    dev2 = backward_ode_oracle(g2, spun, MU).deviation
    assert np.max(np.abs(dev1 - dev2)) < 5e-6


def test_sweep_phase_shift_equivariance(zpath):
    delta = 0.7
    nodes = np.array([-0.5, 0.3, 1.1])
    g1 = _three_label_grid(nodes)
    g2 = _three_label_grid(nodes + delta)
    spun = zpath * np.exp(1j * delta * g1.times())
    times, theta = g1.times(), g1.theta()
    d1 = np.zeros(g1.shape())
    d2 = np.zeros(g2.shape())
    for _ in range(8):
        d1 = deviation_sweep(times, theta, g1.omega_nodes, zpath, d1, MU)
        d2 = deviation_sweep(times, theta, g2.omega_nodes, spun, d2, MU)
    assert np.max(np.abs(d1 - d2)) < 5e-6


def test_refuses_noncontractive_input(grid):
    z = np.exp(-0.9 * grid.times()) + 0.0j  # weighted norm exactly 1
    with pytest.raises(NonContractiveError, match="contraction bound"):
        solve_fixed_point(grid, z, 2.0, WEIGHT)


def test_max_sweeps_exceeded(grid, zpath):
    with pytest.raises(MaxSweepsExceededError):
        solve_fixed_point(grid, zpath, 0.5, WEIGHT, tol=1e-30, max_sweeps=3)


def test_oracle_step_rejection(grid, zpath):
    # extreme frequency columns need ~30 substeps at the default cap
    with pytest.raises(StepRejectedError):
        backward_ode_oracle(grid, zpath, MU, max_substeps=2)


def test_gamma_running_bound_and_fixed_point_identity(grid, zpath, solved):
    field, _ = solved
    gam = gamma_field(field, zpath)
    assert gam.bound_holds()
    assert gam.margin <= 1e-12
    # at the fixed point the deviation IS mu times the sine projection
    assert np.max(np.abs(MU * gam.sin_part - field.deviation)) < 1e-9


def test_polynomial_phase_fast_path_consistent(grid, zpath):
    times, theta, omega = grid.times(), grid.theta(), grid.omega_nodes
    dev0 = np.zeros(grid.shape())
    exact = deviation_sweep(times, theta, omega, zpath, dev0, MU, use_poly=False)
    fast = deviation_sweep(times, theta, omega, zpath, exact, MU, use_poly=True)
    slow = deviation_sweep(times, theta, omega, zpath, exact, MU, use_poly=False)
    assert np.max(np.abs(fast - slow)) < 1e-10


def test_theta_at_assembles_full_angle(grid, zpath, solved):
    field, _ = solved
    i = 40
    expected = (
        grid.theta()[:, None]
        + grid.times()[i] * grid.omega_nodes[None, :]
        + field.deviation[i]
    )
    assert np.array_equal(field.theta_at(i), expected)


def test_deviation_scales_linearly_in_small_mu(grid, zpath):
    # first-order response: D(mu) ~ mu * Gamma_free for mu -> 0
    f1, _ = solve_fixed_point(grid, zpath, 1e-4, WEIGHT)
    f2, _ = solve_fixed_point(grid, zpath, 2e-4, WEIGHT)
    ratio = f2.deviation / np.where(np.abs(f1.deviation) > 1e-18, f1.deviation, 1.0)
    mask = np.abs(f1.deviation) > 1e-9
    assert np.allclose(ratio[mask], 2.0, rtol=1e-3)
