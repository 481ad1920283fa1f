"""Oracle and property tests for the backward-characteristic solver.

The one-sweep map has a closed form when the driving path is a plain
exponential, so the discretized sweep is checked against exact calculus;
the full fixed point is cross-checked against an independent backward
RK4 integration.  Structural properties (phase-shift equivariance, the
running bound on the coupling integral, the fixed-point identity
D = mu * Gamma) are asserted at their provable tolerances.
"""

import math
import tracemalloc

import numpy as np
import pytest

from kuramoto_dephasing import (
    AsymptoticState,
    CharacteristicField,
    FrequencyProfile,
    Grid,
    MaxSweepsExceededError,
    NonContractiveError,
    StepRejectedError,
    WeightSpec,
    backward_ode_oracle,
    build_grid,
    gamma_field,
    outer_solve,
    solve_fixed_point,
    weighted_norm,
)
from kuramoto_dephasing import characteristics, scheme
from kuramoto_dephasing.characteristics import deviation_sweep, filon_weights, picard_sweep
from kuramoto_dephasing.spectral_state import free_order_parameter

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


# -- reference: the single-slab kernel the blocked in-place sweep replaced ----

_SEED_BLOCK_ELEMENTS = 4_000_000


def _seed_phase_factor(dev_block, use_poly):
    if use_poly:
        d2 = dev_block * dev_block
        return (1.0 - 0.5 * d2) + 1j * (dev_block * (1.0 - d2 / 6.0))
    return np.exp(1j * dev_block)


def _seed_block_integral(times, omega_block, z, dev_block, use_poly):
    dt = float(times[1] - times[0])
    w = omega_block * dt
    alpha, beta = filon_weights(w)
    beta_eff = beta * np.exp(-1j * w)
    chat = _seed_phase_factor(dev_block, use_poly)
    chat *= np.conj(z)[:, None, None]
    chat *= np.exp(1j * np.outer(times, omega_block))[:, None, :]
    cells = (dt * alpha)[None, None, :] * chat[:-1]
    cells += (dt * beta_eff)[None, None, :] * chat[1:]
    out = np.empty_like(chat)
    out[-1] = 0.0
    np.cumsum(cells[::-1], axis=0, out=cells[::-1])
    out[:-1] = cells
    return out


def _seed_deviation_sweep(times, theta, omega, z, deviation, mu, use_poly=False):
    times = np.asarray(times, dtype=float)
    z = np.asarray(z, dtype=complex)
    n_t, n_th = len(times), len(theta)
    out = np.empty_like(deviation)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    block = max(1, _SEED_BLOCK_ELEMENTS // (n_t * n_th))
    for lo in range(0, len(omega), block):
        sl = slice(lo, min(lo + block, len(omega)))
        ib = _seed_block_integral(times, omega[sl], z, deviation[:, :, sl], use_poly)
        out[:, :, sl] = ib.imag
        out[:, :, sl] *= cos_t[None, :, None]
        out[:, :, sl] += sin_t[None, :, None] * ib.real
    out *= mu
    return out


def _seed_sweep_with_residual(times, theta, omega, z, deviation, mu, use_poly=False,
                              row_residual=None):
    # the seed sweep under the new signature, its residual from new - dev
    new = _seed_deviation_sweep(times, theta, omega, z, deviation, mu, use_poly)
    if row_residual is not None:
        row_residual[:] = np.abs(new - deviation).reshape(len(times), -1).max(axis=1)
    return new


def _seed_order_parameter_values(field, state):
    g = field.grid
    times, theta, omega = g.times(), g.theta(), g.omega_nodes
    u = state.angular_factor(theta) * np.exp(1j * theta) / g.n_theta
    z = free_order_parameter(state, times).astype(complex)
    dev = field.deviation
    em1 = np.empty(dev.shape, dtype=complex)
    em1.real = np.sin(0.5 * dev)
    em1.real *= -2.0 * em1.real
    em1.imag = np.sin(dev)
    s = np.einsum("j,tjk->tk", u, em1)
    e = np.exp(1j * np.outer(times, omega))
    z += np.einsum("tk,tk,k->t", e, s, g.prob_weights)
    return z


# sup distance allowed between the blocked in-place kernel and the seed's:
# the products are regrouped, so they differ by rounding only
SEED_TOL = 1e-14
# columns per forced block: 65 columns split 20, 20, 20, 5
FORCED_WIDTH = 20


@pytest.fixture
def forced_blocks(grid, monkeypatch):
    n_t, n_th, _ = grid.shape()
    monkeypatch.setattr(characteristics, "_BLOCK_CELLS", n_t * n_th * FORCED_WIDTH)
    widths = [sl.stop - sl.start for sl in characteristics.omega_blocks(grid.shape())]
    assert len(widths) >= 3 and widths[-1] < widths[0]
    return widths


@pytest.mark.parametrize("use_poly,amplitude", [(True, 0.1), (False, 1.5)],
                         ids=["quartic", "exact"])
def test_blocked_sweep_matches_seed_kernel(grid, forced_blocks, use_poly, amplitude):
    rng = np.random.default_rng(11)
    times, theta, omega = grid.times(), grid.theta(), grid.omega_nodes
    z = 0.3 * np.exp(-0.5 * times + 0.4j * times)
    dev = rng.uniform(-amplitude, amplitude, grid.shape())
    new = deviation_sweep(times, theta, omega, z, dev, 0.5, use_poly)
    ref = _seed_deviation_sweep(times, theta, omega, z, dev, 0.5, use_poly)
    assert np.max(np.abs(ref)) > 1e-3
    assert np.max(np.abs(new - ref)) <= SEED_TOL


def test_fused_residual_equals_the_difference_norm(grid, zpath, solved, forced_blocks):
    times, theta, omega = grid.times(), grid.theta(), grid.omega_nodes
    dev = solved[0].deviation * 3.0
    rows = np.empty(grid.n_times)
    new = deviation_sweep(times, theta, omega, zpath, dev, MU, row_residual=rows)
    assert np.array_equal(rows, np.abs(new - dev).reshape(grid.n_times, -1).max(axis=1))
    fused = weighted_norm(times, rows, WEIGHT, deviation=True)
    assert fused == weighted_norm(times, new - dev, WEIGHT, deviation=True)
    # the reports of both solvers carry that exact value
    field = CharacteristicField(grid, dev, MU)
    swept, rep = picard_sweep(grid, zpath, MU, WEIGHT, field)
    assert rep.residuals == [weighted_norm(times, swept.deviation - dev, WEIGHT, deviation=True)]
    assert swept.distance(field, WEIGHT) == rep.residuals[0]


def test_gamma_field_blocked_margin_is_exact(grid, zpath, solved, forced_blocks):
    gam = gamma_field(solved[0], zpath)
    rows = np.abs(gam.sin_part).reshape(grid.n_times, -1).max(axis=1)
    assert gam.margin == float(np.max(rows - gam.beta))


def test_kinetic_answer_matches_seed_kernel(grid, forced_blocks, monkeypatch):
    state = AsymptoticState(PROFILE, {1: 0.05}, "exponential", 0.9)
    # t_max = 8 cannot certify the default 1e-8 rad tail; the comparison
    # needs only the iteration
    new = outer_solve(state, grid, MU, tail_budget=1e-3)
    monkeypatch.setattr(characteristics, "deviation_sweep", _seed_sweep_with_residual)
    monkeypatch.setattr(scheme, "_order_parameter_values", _seed_order_parameter_values)
    ref = outer_solve(state, grid, MU, tail_budget=1e-3)
    assert [r["contraction"]["sweeps"] for r in new.ledger.records] == [
        r["contraction"]["sweeps"] for r in ref.ledger.records
    ]
    assert np.max(np.abs(new.path.values - ref.path.values)) <= SEED_TOL
    assert np.max(np.abs(new.field.deviation - ref.field.deviation)) <= SEED_TOL


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_working_set_is_three_fields_and_block_slabs(grid, zpath, solved, monkeypatch):
    # numpy reports its buffers to tracemalloc; four or more blocks make a
    # complex block slab much smaller than a field, so field-sized
    # temporaries cannot hide inside the slab allowance
    n_t, n_th, _ = grid.shape()
    width = 8
    monkeypatch.setattr(characteristics, "_BLOCK_CELLS", n_t * n_th * width)
    assert len(list(characteristics.omega_blocks(grid.shape()))) >= 4
    budget = 3 * solved[0].deviation.nbytes + 3 * 16 * n_t * n_th * width

    def certification_solve():
        # the joint loop's last field stays alive through this solve
        previous = solved[0].deviation.copy()
        fld, _ = solve_fixed_point(grid, zpath, MU, WEIGHT)
        return previous, fld

    def coupling_integrals():
        field = CharacteristicField(grid, solved[0].deviation.copy(), MU)
        return gamma_field(field, zpath)

    assert _traced_peak(certification_solve) <= budget
    assert _traced_peak(coupling_integrals) <= budget


# -- reference: the per-group RK4 oracle the lockstep pass replaced -----------

def _seed_backward_ode_oracle(grid, z, mu, phase_step_cap=0.125):
    # one backward loop of (n_t - 1) * m sub-steps per sub-step count m
    from scipy.interpolate import CubicSpline

    times = grid.times()
    z = np.asarray(z, dtype=complex)
    dt = grid.dt
    theta = grid.theta()[:, None]
    omega = grid.omega_nodes
    need = np.maximum(np.ceil(np.abs(omega) * dt / phase_step_cap).astype(int), 1)
    spline = CubicSpline(times, z)
    n_t = grid.n_times
    dev = np.empty(grid.shape())
    dev[-1] = 0.0
    for m in np.unique(need):
        cols = np.flatnonzero(need == m)
        om = omega[cols][None, :]
        h = dt / m
        offs = 0.5 * h * np.arange(2 * m + 1)
        zc = spline(times[:-1, None] + offs[None, :])
        psi = np.zeros((grid.n_theta, cols.size))
        buf = np.empty((n_t - 1, grid.n_theta, cols.size))

        def rhs(s_val, zval, psi_val):
            x = theta + om * s_val + psi_val
            return -mu * (zval.real * np.sin(x) - zval.imag * np.cos(x))

        for j in range(n_t - 2, -1, -1):
            for i in range(m, 0, -1):
                s2, s1, s0 = times[j] + h * i, times[j] + h * (i - 0.5), times[j] + h * (i - 1)
                z2, z1, z0 = zc[j, 2 * i], zc[j, 2 * i - 1], zc[j, 2 * i - 2]
                k1 = rhs(s2, z2, psi)
                k2 = rhs(s1, z1, psi - 0.5 * h * k1)
                k3 = rhs(s1, z1, psi - 0.5 * h * k2)
                k4 = rhs(s0, z0, psi - h * k3)
                psi -= (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            buf[j] = psi
        dev[:-1, :, cols] = buf
    return dev


def _grid_with_nodes(nodes):
    # equal probability weight on arbitrary, unsorted frequency nodes
    nodes = np.asarray(nodes, dtype=float)
    weights = 1.0 / (nodes.size * PROFILE.density(nodes))
    return Grid(PROFILE, 4.0, 0.05, 16, nodes, weights)


def _substeps(grid, phase_step_cap=0.125):
    omega = grid.omega_nodes
    return np.maximum(np.ceil(np.abs(omega) * grid.dt / phase_step_cap).astype(int), 1)


# sub-step counts 1, 3, 9, 1, 2, 5, 1, 1, 2: groups of four, two and three
# single columns, interleaved so the lockstep order differs from the input
MIXED_NODES = [0.3, -6.0, 21.0, -1.7, 3.3, -11.0, 0.0, 2.4, -4.2]
# every column within one sub-step of the cell
SINGLE_NODES = [-2.0, -0.5, 0.0, 0.7, 1.9, 2.4]


def test_oracle_comparison_grids_cover_the_group_layouts():
    _, sizes = np.unique(_substeps(_grid_with_nodes(MIXED_NODES)), return_counts=True)
    assert sizes.size >= 3 and np.any(sizes == 1)
    assert np.all(_substeps(_grid_with_nodes(SINGLE_NODES)) == 1)


@pytest.mark.parametrize(
    "nodes, cap",
    [(MIXED_NODES, 0.125), (MIXED_NODES, 0.04), (SINGLE_NODES, 0.125), (None, 0.125)],
    ids=["mixed_groups", "mixed_groups_fine_cap", "one_group", "lorentzian_rule"],
)
def test_lockstep_oracle_is_bit_identical_to_per_group_loop(grid, nodes, cap):
    g = grid if nodes is None else _grid_with_nodes(nodes)
    times = g.times()
    z = 0.3 * np.exp(-0.5 * times + 0.4j * times)
    new = backward_ode_oracle(g, z, 0.5, phase_step_cap=cap).deviation
    ref = _seed_backward_ode_oracle(g, z, 0.5, phase_step_cap=cap)
    assert np.max(np.abs(ref)) > 1e-3
    assert np.array_equal(new, ref)


def test_oracle_working_set_is_one_field_and_small_tables(grid, zpath):
    # the per-group loop held a (n_t - 1, n_theta, columns) buffer for the
    # largest sub-step group next to the field: 1.9 fields on this grid
    need = _substeps(grid)
    n_t, n_th, n_om = grid.shape()
    field = 8 * n_t * n_th * n_om
    z_samples = 16 * (n_t - 1) * int(np.sum(2 * np.unique(need) + 1))
    cell_scratch = 8 * n_th * (3 * int(need.sum()) + 7 * n_om)
    assert z_samples + cell_scratch < 0.25 * field
    peak = _traced_peak(lambda: backward_ode_oracle(grid, zpath, MU))
    assert peak <= 1.25 * field + z_samples + cell_scratch
