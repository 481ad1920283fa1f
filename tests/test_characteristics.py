"""Oracle and property tests for the backward-characteristic solver.

The one-sweep map has a closed form when the driving path is a plain
exponential, so the discretized sweep is checked against exact calculus;
the full fixed point is cross-checked against an independent backward
RK4 integration.  Structural properties (phase-shift equivariance, the
running bound on the coupling integral, the fixed-point identity
D = mu * Gamma) are asserted at their provable tolerances.
"""

import functools
import math
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kuramoto_dephasing import (
    AsymptoticState,
    CharacteristicField,
    FrequencyProfile,
    Grid,
    MaxSweepsExceededError,
    NonContractiveError,
    OrderParameterPath,
    SolveResult,
    StepRejectedError,
    WeightSpec,
    backward_ode_oracle,
    build_grid,
    gamma_field,
    outer_solve,
    reconstruct,
    solve_fixed_point,
    weighted_norm,
)
from kuramoto_dephasing import characteristics, scheme
from kuramoto_dephasing.characteristics import (
    ContractionReport,
    deviation_sweep,
    filon_weights,
    oscillation_table,
    phase_kernel,
    picard_sweep,
)
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


def _abs_max(a):
    # sup |a| over the whole array, by a field-sized |a|
    return float(np.abs(a).max())


def _sweep(grid, z, deviation, mu, rows=None, out=None):
    # one sweep into ``out`` (a new field when None) from the row sups of
    # ``deviation``, with the row residuals in ``rows`` (not looked at when
    # None), and the new field's row sups and the report entry where no
    # test reads them
    n = grid.n_times
    out = np.empty(deviation.shape) if out is None else out
    deviation_sweep(ContractionReport(0.0), grid, z, mu, WEIGHT, deviation,
                    characteristics.row_gaps(deviation), out,
                    (np.empty(n) if rows is None else rows, np.empty(n)))
    return out


def _gamma_parts(field, z):
    # gamma_field with its streamed tiles gathered into two fields
    sin_part, cos_part = np.empty((2,) + field.deviation.shape)

    def keep(sl, angles, sin_tile, cos_tile, cos_m1, sin_d):
        sin_part[sl, angles], cos_part[sl, angles] = sin_tile, cos_tile

    return gamma_field(field, z, keep), sin_part, cos_part


# finite w up to 1e150, where iw * iw is still finite, with the 0.8 seam of
# the series and the closed form drawn often
_SEAM = 0.8
_filon_w = (
    st.floats(-1e150, 1e150, allow_nan=False)
    | st.floats(_SEAM - 0.05, _SEAM + 0.05)
    | st.floats(-_SEAM - 0.05, -_SEAM + 0.05)
    | st.sampled_from([0.0, _SEAM, -_SEAM, math.nextafter(_SEAM, 0.0), math.nextafter(-_SEAM, 0.0)])
)
_FILON_SWEEP = np.concatenate(
    [[0.0], np.logspace(-6, 3, 400), -np.logspace(-6, 3, 400), np.linspace(0.75, 0.85, 101)]
)


@settings(max_examples=300, deadline=None)
@example(w=_FILON_SWEEP.tolist())
@given(w=st.lists(_filon_w, min_size=1, max_size=64))
def test_filon_weights_bounded_by_half(w):
    # each weight averages unit phases against a hat mass 1/2, and
    # |alpha| + |beta| <= 1 is the per-cell bound gamma_field's running
    # bound and the deviation bound rest on; no slack beyond rounding
    alpha, beta = filon_weights(np.array(w))
    assert np.all(np.abs(alpha) <= 0.5 + 1e-15)
    assert np.all(np.abs(beta) <= 0.5 + 1e-15)
    assert np.all(np.abs(alpha) + np.abs(beta) <= 1.0 + 1e-15)


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
    swept = _sweep(grid, zpath, dev0, MU)

    a = -1.0 + 1j * omega[None, None, :]
    ends = np.exp(a * times[-1])
    starts = np.exp(a * times[:, None, None])
    integral = 0.05 * (ends - starts) / a
    exact = MU * np.imag(np.exp(1j * theta[None, :, None]) * integral)
    # Filon-trapezoid error mu * dt^2/12 * int |c''| with c = 0.05 e^{-s}
    assert np.max(np.abs(swept - exact)) < 1e-6


def test_zero_path_converges_in_one_sweep(grid):
    # z = 0 is a zero gain: the zero field is exact, reached without a sweep
    field, report = solve_fixed_point(grid, np.zeros(grid.n_times), 0.7, WEIGHT)
    assert report.converged and report.sweeps == 0 and report.bound == 0.0
    assert report.residuals == [0.0]
    assert field.sup() == 0.0


def test_mu_zero_fixed_point_is_exact(grid, zpath):
    field, report = solve_fixed_point(grid, zpath, 0.0, WEIGHT)
    assert report.converged and report.bound == 0.0
    assert report.sweeps == 0 and report.residuals == [0.0]
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


def test_sweeps_write_into_a_given_field_bit_for_bit(grid, zpath, solved):
    # a NaN-filled ``out`` gives the bits of a new array, is the returned
    # field, and leaves the swept-from field as it is
    field, _ = solved
    before = field.deviation.copy()
    runs = (
        lambda out: picard_sweep(grid, zpath, MU, WEIGHT, out=out),
        lambda out: picard_sweep(grid, zpath, MU, WEIGHT, field, out=out),
        lambda out: picard_sweep(grid, zpath, 0.0, WEIGHT, field, out=out),
        lambda out: solve_fixed_point(grid, zpath, MU, WEIGHT, out=out),
        lambda out: solve_fixed_point(grid, zpath, 0.0, WEIGHT, out=out),
    )
    for run in runs:
        fresh, fresh_rep = run(None)
        out = np.full(grid.shape(), np.nan)
        into, rep = run(out)
        assert into.deviation is out
        assert into.deviation.tobytes() == fresh.deviation.tobytes()
        assert rep.residuals == fresh_rep.residuals
    assert field.deviation.tobytes() == before.tobytes()
    with pytest.raises(ValueError, match="out must be"):
        picard_sweep(grid, zpath, MU, WEIGHT, out=np.empty(grid.shape(), np.float32))


def test_fixed_point_matches_rk4_oracle(grid, zpath, solved):
    field, report = solved
    assert report.converged
    oracle = backward_ode_oracle(grid, zpath, MU)
    assert np.max(np.abs(field.deviation - oracle.deviation)) < 1e-6


def test_oracle_free_flow_is_exact(grid):
    oracle = backward_ode_oracle(grid, np.zeros(grid.n_times), MU)
    assert np.max(np.abs(oracle.deviation)) == 0.0


def _three_label_grid(nodes):
    # equal probability weight 1 / (n g(omega)) on three arbitrary nodes
    nodes = np.asarray(nodes, dtype=float)
    return Grid(PROFILE, 8.0, 0.05, 8, nodes, 1.0 / (nodes.size * PROFILE.density(nodes)))


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
    d1 = np.zeros(g1.shape())
    d2 = np.zeros(g2.shape())
    for _ in range(8):
        d1 = _sweep(g1, zpath, d1, MU)
        d2 = _sweep(g2, spun, d2, MU)
    assert np.max(np.abs(d1 - d2)) < 5e-6


def test_refuses_noncontractive_input(grid):
    z = np.exp(-0.9 * grid.times()) + 0.0j  # weighted norm exactly 1
    with pytest.raises(NonContractiveError, match="contraction bound"):
        solve_fixed_point(grid, z, 2.0, WEIGHT)


def test_max_sweeps_exceeded(grid, zpath, monkeypatch):
    monkeypatch.setattr(characteristics, "MAX_SWEEPS", 3)
    with pytest.raises(MaxSweepsExceededError, match="after 3 sweeps"):
        solve_fixed_point(grid, zpath, 0.5, WEIGHT, tol=1e-30)


def test_oracle_step_rejection(grid, zpath):
    # a cap at which the fastest column needs twice MAX_SUBSTEPS sub-steps
    cap = np.abs(grid.omega_nodes).max() * grid.dt / (2 * characteristics.MAX_SUBSTEPS)
    with pytest.raises(StepRejectedError, match="sub-steps > cap 4096"):
        backward_ode_oracle(grid, zpath, MU, phase_step_cap=cap)


def test_gamma_running_bound_and_fixed_point_identity(grid, zpath, solved):
    field, _ = solved
    gaps, covered = [], []

    def identity_gap(sl, angles, sin_tile, cos_tile, cos_m1, sin_d):
        # at the fixed point the deviation IS mu times the sine projection
        gaps.append(np.max(np.abs(MU * sin_tile - field.deviation[sl, angles])))
        if angles.start == 0:
            covered.append(sl)

    margin = gamma_field(field, zpath, identity_gap)
    # max |Gamma| / beta over the rows with beta > 0: at most 1 while the
    # bound holds, and far from 0, so its headroom shows
    assert 0.5 < margin <= 1.0 + 1e-12
    assert covered == list(characteristics.time_tiles(grid.shape()))
    assert max(gaps) < 1e-9


def test_polynomial_phase_fast_path_consistent(grid, zpath, monkeypatch):
    dev0 = np.zeros(grid.shape())
    exact = _sweep(grid, zpath, dev0, MU)
    assert characteristics._taylor_terms(_abs_max(exact)) is not None
    fast = _sweep(grid, zpath, exact, MU)
    # no sup lies below -1: the trig form serves every tile
    monkeypatch.setattr(characteristics, "_POLY_CAP", -1.0)
    slow = _sweep(grid, zpath, exact, MU)
    assert np.max(np.abs(fast - slow)) < 1e-14


def test_deviation_scales_linearly_in_small_mu(grid, zpath):
    # first-order response: D(mu) ~ mu * Gamma_free for mu -> 0
    f1, _ = solve_fixed_point(grid, zpath, 1e-4, WEIGHT)
    f2, _ = solve_fixed_point(grid, zpath, 2e-4, WEIGHT)
    ratio = f2.deviation / np.where(np.abs(f1.deviation) > 1e-18, f1.deviation, 1.0)
    mask = np.abs(f1.deviation) > 1e-9
    assert np.allclose(ratio[mask], 2.0, rtol=1e-3)


# -- reference: the single-slab kernel the in-place tiled sweep replaced -----

_SEED_BLOCK_ELEMENTS = 4_000_000


def _seed_block_integral(times, omega_block, z, dev_block):
    # the seed's exact branch: e^{iD} by np.exp
    dt = float(times[1] - times[0])
    w = omega_block * dt
    alpha, beta = filon_weights(w)
    beta_eff = beta * np.exp(-1j * w)
    chat = np.exp(1j * dev_block)
    chat *= np.conj(z)[:, None, None]
    chat *= np.exp(1j * np.outer(times, omega_block))[:, None, :]
    cells = (dt * alpha)[None, None, :] * chat[:-1]
    cells += (dt * beta_eff)[None, None, :] * chat[1:]
    out = np.empty_like(chat)
    out[-1] = 0.0
    np.cumsum(cells[::-1], axis=0, out=cells[::-1])
    out[:-1] = cells
    return out


def _seed_deviation_sweep(times, theta, omega, z, deviation, mu):
    times = np.asarray(times, dtype=float)
    z = np.asarray(z, dtype=complex)
    n_t, n_th = len(times), len(theta)
    out = np.empty_like(deviation)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    block = max(1, _SEED_BLOCK_ELEMENTS // (n_t * n_th))
    for lo in range(0, len(omega), block):
        sl = slice(lo, min(lo + block, len(omega)))
        ib = _seed_block_integral(times, omega[sl], z, deviation[:, :, sl])
        out[:, :, sl] = ib.imag
        out[:, :, sl] *= cos_t[None, :, None]
        out[:, :, sl] += sin_t[None, :, None] * ib.real
    out *= mu
    return out


def _seed_sweep_with_residual(report, grid, z, mu, weight, deviation, sup, out, rows,
                              tails=None):
    # the seed sweep under the new signature, its residual from new - dev,
    # its row sups from new and its report entry; the seed kernel needs no
    # row sups to pick tile kernels from, and it sweeps every tile, so it
    # keeps no tails and reports no kernels
    times = grid.times()
    new = _seed_deviation_sweep(times, grid.theta(), grid.omega_nodes, z, deviation, mu)
    rows[0] = np.abs(new - deviation).reshape(len(times), -1).max(axis=1)
    rows[1] = np.abs(new).reshape(len(times), -1).max(axis=1)
    out[...] = new
    res = weighted_norm(times, rows[0], weight, deviation=True)
    if report.residuals and report.residuals[-1] > report.floor:
        report.ratios.append(res / report.residuals[-1])
    report.residuals.append(res)
    report.sweeps += 1
    return rows[1]


def _seed_order_parameter_of(field, state, weight):
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
    return OrderParameterPath(g, z, weight)


# sup distance allowed between the tiled in-place kernel and the seed's:
# the products are regrouped, so they differ by rounding only
SEED_TOL = 1e-14
# time rows per forced tile: 161 rows split 50, 50, 50, 11 from t_max back
FORCED_ROWS = 50


def _force_tile_rows(monkeypatch, shape, rows):
    # _TILE_CELLS for tiles of ``rows`` whole time rows; returns the rows of
    # every tile, from t_max backward
    monkeypatch.setattr(characteristics, "_TILE_CELLS", rows * shape[1] * shape[2])
    return [sl.stop - sl.start for sl in characteristics.time_tiles(shape)]


@pytest.fixture
def forced_tiles(grid, monkeypatch):
    rows = _force_tile_rows(monkeypatch, grid.shape(), FORCED_ROWS)
    assert len(rows) >= 3 and rows[-1] < rows[0]
    return rows


# deviation amplitudes of the kernel tests: Taylor polynomials (5 and 9
# terms) at 0.1 and at the cap, the trig form above it
AMPLITUDES = pytest.mark.parametrize("amplitude", [0.1, 1.5, 1.0],
                                     ids=["quartic", "exact", "at_cap"])


@AMPLITUDES
def test_blocked_sweep_matches_seed_kernel(grid, forced_tiles, amplitude):
    # against the seed's np.exp(1j * D) at every amplitude, polynomial or not
    rng = np.random.default_rng(11)
    times, theta, omega = grid.times(), grid.theta(), grid.omega_nodes
    z = 0.3 * np.exp(-0.5 * times + 0.4j * times)
    dev = rng.uniform(-amplitude, amplitude, grid.shape())
    new = _sweep(grid, z, dev, 0.5)
    ref = _seed_deviation_sweep(times, theta, omega, z, dev, 0.5)
    assert np.max(np.abs(ref)) > 1e-3
    assert np.max(np.abs(new - ref)) <= SEED_TOL


def test_fused_residual_equals_the_difference_norm(grid, zpath, solved, forced_tiles):
    times = grid.times()
    dev = solved[0].deviation * 3.0
    rows = np.empty(grid.n_times)
    new = _sweep(grid, zpath, dev, MU, rows)
    assert np.array_equal(rows, np.abs(new - dev).reshape(grid.n_times, -1).max(axis=1))
    fused = weighted_norm(times, rows, WEIGHT, deviation=True)
    assert fused == weighted_norm(times, new - dev, WEIGHT, deviation=True)
    # the reports of both solvers carry that exact value
    field = CharacteristicField(grid, dev, MU)
    swept, rep = picard_sweep(grid, zpath, MU, WEIGHT, field)
    assert rep.residuals == [weighted_norm(times, swept.deviation - dev, WEIGHT, deviation=True)]
    gaps = characteristics.row_gaps(swept.deviation, field.deviation)
    assert weighted_norm(times, gaps, WEIGHT, deviation=True) == rep.residuals[0]


def test_gamma_field_blocked_margin_is_exact(grid, zpath, solved, forced_tiles):
    margin, sin_part, _ = _gamma_parts(solved[0], zpath)
    rows = np.abs(sin_part).reshape(grid.n_times, -1).max(axis=1)
    # beta = Int_t^{t_max} |z| by the trapezoid rule: 0 only at t_max
    r = np.abs(zpath)
    beta = np.cumsum((0.5 * grid.dt * (r[:-1] + r[1:]))[::-1])[::-1]
    assert np.all(beta > 0.0)
    assert margin == float(np.max(rows[:-1] / beta))


def test_kinetic_answer_matches_seed_kernel(grid, forced_tiles, monkeypatch):
    state = AsymptoticState(PROFILE, {1: 0.05}, "exponential", 0.9)
    # t_max = 8 cannot certify the default 1e-8 rad tail; the comparison
    # needs only the iteration
    new = outer_solve(state, grid, MU, tail_budget=1e-3)
    monkeypatch.setattr(characteristics, "deviation_sweep", _seed_sweep_with_residual)
    monkeypatch.setattr(scheme, "order_parameter_of", _seed_order_parameter_of)
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


def test_working_set_is_two_fields_and_block_slabs(grid, zpath, solved, monkeypatch):
    # numpy reports its buffers to tracemalloc; tiles of 20 of the 161 time
    # rows make four complex tile slabs smaller than one field, so
    # field-sized temporaries cannot hide inside the slab allowance (two
    # slabs are the sweep's, the third covers the two carried rows and the
    # per-tile weight rows; gamma_field adds the slab of phase pairs it
    # hands to its consumer, whose share the fourth holds)
    _, n_th, n_om = grid.shape()
    tile_rows = 20
    tiles = _force_tile_rows(monkeypatch, grid.shape(), tile_rows)
    assert len(tiles) >= 4 and tiles[-1] < tiles[0]
    field = solved[0].deviation.nbytes
    slab = 16 * tile_rows * n_th * n_om
    assert 4 * slab < field
    # reconstruct keeps a cosine row and a density row per requested time
    times = (0.0, 5.0, 7.0)
    requested_rows = 2 * len(times) * 8 * n_th * n_om
    state = AsymptoticState(PROFILE, {1: 0.05}, "exponential", 0.9)
    path = OrderParameterPath(grid, zpath, WEIGHT)
    # the e^{i omega t} table is a grid constant, built once per grid
    oscillation_table(grid.times(), grid.omega_nodes)

    def certification_solve():
        # the joint loop's last field stays alive through this solve
        previous = solved[0].deviation.copy()
        fld, _ = solve_fixed_point(grid, zpath, MU, WEIGHT)
        return previous, fld

    def coupling_integrals():
        field = CharacteristicField(grid, solved[0].deviation.copy(), MU)
        return gamma_field(field, zpath, lambda sl, angles, *blocks: None)

    def density():
        field = CharacteristicField(grid, solved[0].deviation.copy(), MU)
        result = SolveResult(state, grid, MU, WEIGHT, path, field, None, 0, True)
        return reconstruct(result, times=times)

    assert _traced_peak(certification_solve) <= 2 * field + 3 * slab
    assert _traced_peak(coupling_integrals) <= field + 4 * slab
    assert _traced_peak(density) <= field + 4 * slab + requested_rows


@pytest.mark.parametrize("amplitude", [0.0, 0.1, 1.5, 1.0],
                         ids=["zero_start", "quartic", "exact", "at_cap"])
def test_in_place_sweep_equals_the_out_of_place_sweep(grid, forced_tiles, amplitude):
    # every tile is formed in scratch and copied out once, so the field,
    # the row residuals and the new row sups have the same bits, signed
    # zeros included, whether the sweep rewrites its input or fills a new
    # field, from zero (the one-column walk) or not
    rng = np.random.default_rng(13)
    times = grid.times()
    z = 0.3 * np.exp(-0.5 * times + 0.4j * times)
    dev = rng.uniform(-amplitude, amplitude, grid.shape())

    def sweep(deviation, out):
        rows = np.empty((2, grid.n_times))
        deviation_sweep(ContractionReport(0.0), grid, z, 0.5, WEIGHT, deviation,
                        characteristics.row_gaps(deviation), out, rows)
        return out.tobytes(), rows[0].tobytes(), rows[1].tobytes()

    swept = dev.copy()
    assert sweep(swept, swept) == sweep(dev, np.empty(grid.shape()))


def test_in_place_solve_equals_an_out_of_place_loop(grid, zpath, forced_tiles):
    field, report = solve_fixed_point(grid, zpath, MU, WEIGHT)
    # solve_fixed_point's loop with a new field every sweep
    times = grid.times()
    dev, rows = np.zeros(grid.shape()), np.empty(grid.n_times)
    residuals, ratios = [], []
    for _ in range(characteristics.MAX_SWEEPS):
        dev = _sweep(grid, zpath, dev, MU, rows)
        res = weighted_norm(times, rows, WEIGHT, deviation=True)
        if residuals and residuals[-1] > report.floor:
            ratios.append(res / residuals[-1])
        residuals.append(res)
        if res <= report.tol:
            break
    assert report.converged and len(ratios) >= 3
    assert report.residuals == residuals
    assert report.ratios == ratios
    assert report.sweeps == len(residuals)
    assert np.array_equal(field.deviation, dev)


def test_zero_start_sweep_is_the_full_sweep_of_a_zero_field(monkeypatch):
    # from D = 0 each part integrates one zero column of its own and
    # projects it into its angles; the bits are those of the omega-blocked
    # sweep, whose kernel runs on every cell of the zero field
    g, z, _, mu, state, weight = _benchmark_case("strong_coupling")
    rows = _force_tile_rows(monkeypatch, g.shape(), 37)
    assert len(rows) >= 3 and rows[-1] < rows[0]
    times = g.times()
    zero = np.zeros(g.shape())
    ref = _omega_block_outputs(g, z, zero, mu, state, weight)
    rows, sups, in_place_rows = np.empty((3, g.n_times))
    fresh = np.empty(g.shape())
    deviation_sweep(ContractionReport(0.0), g, z, mu, weight, zero,
                    characteristics.row_gaps(zero), fresh, (rows, sups))
    in_place = np.zeros(g.shape())
    deviation_sweep(ContractionReport(0.0), g, z, mu, weight, in_place, 0.0, in_place,
                    (in_place_rows, np.empty(g.n_times)))
    for got in (fresh, in_place):
        assert got.view(np.uint64).tobytes() == ref["sweep"].view(np.uint64).tobytes()
    assert np.array_equal(rows, ref["row_residual"]) and np.array_equal(in_place_rows, rows)
    # from zero the residual is the new field's own row sups
    assert sups.tobytes() == rows.tobytes()
    # a zero field's order parameter is the free part, signed zeros included
    quad = scheme.order_parameter_of(CharacteristicField(g, zero, mu), state, WEIGHT).values
    free = free_order_parameter(state, times).astype(complex)
    assert quad.view(np.uint64).tobytes() == free.view(np.uint64).tobytes()
    assert np.array_equal(quad, ref["quadrature"])


def _carries_its_own_row_sups(field):
    rows = characteristics.row_gaps(field.deviation)
    return field._rows is not None and field._rows.tobytes() == rows.tobytes()


def test_swept_fields_carry_their_own_row_sups(grid, zpath, solved, forced_tiles):
    field = solved[0]
    assert _carries_its_own_row_sups(field)
    runs = (
        lambda out: picard_sweep(grid, zpath, MU, WEIGHT, out=out),
        lambda out: picard_sweep(grid, zpath, MU, WEIGHT, field, out=out),
        lambda out: picard_sweep(grid, zpath, 0.0, WEIGHT, field, out=out),
        lambda out: solve_fixed_point(grid, zpath, MU, WEIGHT, out=out),
        lambda out: solve_fixed_point(grid, zpath, 0.0, WEIGHT, out=out),
    )
    for run in runs:
        for out in (None, np.full(grid.shape(), np.nan)):
            swept, _ = run(out)
            assert _carries_its_own_row_sups(swept)
            assert swept.sup() == _abs_max(swept.deviation)
            norm = weighted_norm(grid.times(), swept.deviation, WEIGHT, deviation=True)
            assert swept.deviation_norm(WEIGHT) == norm
            assert math.copysign(1.0, swept.deviation_norm(WEIGHT)) == math.copysign(1.0, norm)
    # a field built from an array takes its sups from the array on each call
    built = CharacteristicField(grid, field.deviation.copy(), MU)
    assert built._rows is None
    sup = built.sup()
    built.deviation[...] *= 2.0
    assert built.sup() == 2.0 * sup


def test_fields_on_grids_of_another_shape_are_refused():
    # rows at different times are not comparable: either order is refused
    # by name, before any part runs
    short = build_grid(PROFILE, t_max=10.0, dt=0.05, n_theta=8, n_omega=129)
    long = build_grid(PROFILE, t_max=20.0, dt=0.05, n_theta=8, n_omega=129)
    a = CharacteristicField(short, np.zeros(short.shape()), MU)
    b = CharacteristicField(long, np.ones(long.shape()), MU)
    assert a.deviation.shape == (201, 8, 129) and b.deviation.shape == (401, 8, 129)
    for x, y in ((a, b), (b, a)):
        for compare in (
            lambda: x.sup_distance(y),
            lambda: weighted_norm(x.grid.times(), characteristics.row_gaps(x.deviation, y.deviation),
                                  WEIGHT, deviation=True),
        ):
            with pytest.raises(ValueError) as info:
                compare()
            message = str(info.value)
            assert "\n" not in message
            assert str(x.deviation.shape) in message and str(y.deviation.shape) in message


def test_quadrature_scratch_fits_in_the_sweep_slabs(grid, solved, monkeypatch):
    # the order-parameter quadrature keeps (cos D - 1, sin D) and D^2 in
    # three real tile slabs, inside the two complex slabs of a sweep; the
    # rest is a few complex (tile rows, n_omega) arrays and the path itself
    n_t, n_th, n_om = grid.shape()
    tile_rows = 20
    tiles = _force_tile_rows(monkeypatch, grid.shape(), tile_rows)
    assert len(tiles) >= 4 and tiles[-1] < tiles[0]
    state = AsymptoticState(PROFILE, {1: 0.05}, "exponential", 0.9)
    field = solved[0]
    assert characteristics._taylor_terms(field.sup()) is not None
    slabs = 2 * 16 * tile_rows * n_th * n_om
    rows = 16 * (8 * tile_rows * n_om + 4 * n_t)
    # the e^{i omega t} table is a grid constant, built once per grid
    oscillation_table(grid.times(), grid.omega_nodes)
    peak = _traced_peak(lambda: scheme.order_parameter_of(field, state, WEIGHT).values)
    assert peak <= slabs + rows


# -- the row-wise backward sum against the np.cumsum it replaced ---------------

def _cumsum_backward_sum(c):
    np.cumsum(c[::-1], axis=0, out=c[::-1])


def _kernel_outputs(grid, z, dev):
    blocks = {}

    def keep(p, angles, sl, ib, spare, phase):
        blocks.setdefault(sl.start, {})[p] = ib.copy()

    characteristics._integral_parts(grid, z, dev, _abs_max(dev), keep)
    # each tile's parts side by side, tiles from t_max backward
    tiles = [np.concatenate([parts[p] for p in sorted(parts)], axis=1)
             for _, parts in sorted(blocks.items(), reverse=True)]
    rows = np.empty(grid.n_times)
    new = _sweep(grid, z, dev, 0.5, rows)
    margin, sin_part, cos_part = _gamma_parts(CharacteristicField(grid, dev, 0.5), z)
    return tiles, [new, rows, sin_part, cos_part, np.array(margin)]


@AMPLITUDES
def test_row_backward_sum_is_bit_identical_to_cumsum(grid, forced_tiles, monkeypatch,
                                                     amplitude):
    rng = np.random.default_rng(5)
    times = grid.times()
    z = 0.3 * np.exp(-0.5 * times + 0.4j * times)
    dev = rng.uniform(-amplitude, amplitude, grid.shape())
    tiles, outputs = _kernel_outputs(grid, z, dev)
    monkeypatch.setattr(characteristics, "_backward_sum", _cumsum_backward_sum)
    ref_tiles, ref_outputs = _kernel_outputs(grid, z, dev)
    # the last forced tile is ragged
    assert [b.shape[0] for b in tiles] == forced_tiles
    assert all(np.array_equal(b, r) for b, r in zip(tiles, ref_tiles))
    assert all(np.array_equal(o, r) for o, r in zip(outputs, ref_outputs))


# -- references: RK4 on the angle state, one loop per sub-step count ---------

def _trig_per_group_oracle(grid, z, mu, phase_step_cap=0.125):
    # one backward loop of (n_t - 1) * m sub-steps per sub-step count m,
    # with the rate -mu Im(conj(z) e^{i(theta + omega s + psi)}) from np.sin
    # and np.cos at every stage
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


def _spline_samples(grid, z, phase_step_cap=0.125):
    # z at half-substep resolution across each cell, per sub-step count m
    from scipy.interpolate import CubicSpline

    times, dt = grid.times(), grid.dt
    spline = CubicSpline(times, np.asarray(z, dtype=complex))
    return {
        int(m): spline(times[:-1, None] + 0.5 * (dt / m) * np.arange(2 * m + 1)[None, :])
        for m in np.unique(_substeps(grid, phase_step_cap))
    }


def _cell_samples(grid, z, phase_step_cap=0.125):
    # the same samples from the oracle's own numpy spline, one sub-step
    # count at a time
    times, dt = grid.times(), grid.dt
    z = np.asarray(z, dtype=complex)
    return {
        int(m): characteristics._half_step_samples(times, dt, z, np.array([m]))[0]
        for m in np.unique(_substeps(grid, phase_step_cap))
    }


def _stage_bound(grid, z, mu, phase_step_cap=0.125):
    # |mu| dt sum over cells of the largest |z| among every sample the cell reads
    samples = _spline_samples(grid, z, phase_step_cap).values()
    row_max = np.max([np.abs(zc).max(axis=1) for zc in samples], axis=0)
    return abs(mu) * grid.dt * float(row_max.sum())


def _per_group_oracle(grid, z, mu, phase_step_cap=0.125):
    # the trig loop above with the rate written P_i + P_i (cos psi - 1) +
    # P_r sin psi, P = -mu conj(z) e^{i(theta + omega s)}, and the pair from
    # the phase kernel at _stage_bound
    times, dt = grid.times(), grid.dt
    theta = grid.theta()[:, None]
    mu_cos, mu_sin = -mu * np.cos(theta), -mu * np.sin(theta)
    omega = grid.omega_nodes
    need = _substeps(grid, phase_step_cap)
    kernel = characteristics.phase_kernel(_stage_bound(grid, z, mu, phase_step_cap))
    dev = np.empty(grid.shape())
    dev[-1] = 0.0
    for m, zc in _spline_samples(grid, z, phase_step_cap).items():
        cols = np.flatnonzero(need == m)
        om = omega[cols][None, :]
        h = dt / m
        psi = np.zeros((grid.n_theta, cols.size))

        def rhs(s_val, zval, psi_val):
            ws = om * s_val
            w_re = zval.real * np.cos(ws) + zval.imag * np.sin(ws)
            w_im = zval.real * np.sin(ws) - zval.imag * np.cos(ws)
            p_re = w_re * mu_cos - w_im * mu_sin
            p_im = w_re * mu_sin + w_im * mu_cos
            cos_m1, sin_psi, scratch = np.empty((3,) + psi_val.shape)
            kernel(psi_val, cos_m1, sin_psi, scratch)
            return p_im * cos_m1 + p_re * sin_psi + p_im

        for j in range(grid.n_times - 2, -1, -1):
            for i in range(m, 0, -1):
                s2, s1, s0 = times[j] + h * i, times[j] + h * (i - 0.5), times[j] + h * (i - 1)
                z2, z1, z0 = zc[j, 2 * i], zc[j, 2 * i - 1], zc[j, 2 * i - 2]
                k1 = rhs(s2, z2, psi)
                k2 = rhs(s1, z1, psi - 0.5 * h * k1)
                k3 = rhs(s1, z1, psi - 0.5 * h * k2)
                k4 = rhs(s0, z0, psi - h * k3)
                psi -= (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            dev[j, :, cols] = psi.T
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
# single columns, interleaved so the oracle's sorted order differs from the
# input
MIXED_NODES = [0.3, -6.0, 21.0, -1.7, 3.3, -11.0, 0.0, 2.4, -4.2]
# every column within one sub-step of the cell
SINGLE_NODES = [-2.0, -0.5, 0.0, 0.7, 1.9, 2.4]


def test_oracle_comparison_grids_cover_the_group_layouts():
    _, sizes = np.unique(_substeps(_grid_with_nodes(MIXED_NODES)), return_counts=True)
    assert sizes.size >= 3 and np.any(sizes == 1)
    assert np.all(_substeps(_grid_with_nodes(SINGLE_NODES)) == 1)


ORACLE_GRIDS = pytest.mark.parametrize(
    "nodes, cap",
    [(MIXED_NODES, 0.125), (MIXED_NODES, 0.04), (SINGLE_NODES, 0.125), (None, 0.125)],
    ids=["mixed_groups", "mixed_groups_fine_cap", "one_group", "lorentzian_rule"],
)


def _oracle_case(grid, nodes):
    g = grid if nodes is None else _grid_with_nodes(nodes)
    times = g.times()
    return g, 0.3 * np.exp(-0.5 * times + 0.4j * times)


# the Moebius form and the angle-state loops are two RK4 discretizations of
# one flow, so they differ by their truncation errors, not by rounding:
# measured at most 4.2e-13 at mu = 0.05 and 1.8e-10 at mu = 0.5
ORACLE_MUS = pytest.mark.parametrize("mu, tol", [(MU, 1e-12), (0.5, 1e-9)],
                                     ids=["weak", "strong"])


@ORACLE_MUS
@ORACLE_GRIDS
def test_oracle_matches_angle_state_rk4(grid, nodes, cap, mu, tol):
    g, z = _oracle_case(grid, nodes)
    new = backward_ode_oracle(g, z, mu, phase_step_cap=cap).deviation
    for ref in (_per_group_oracle(g, z, mu, cap), _trig_per_group_oracle(g, z, mu, cap)):
        assert np.max(np.abs(ref)) > 0.4 * mu
        assert np.max(np.abs(new - ref)) <= tol


# -- references: the Moebius form, one loop per sub-step count ---------------

def _moebius_per_group_maps(grid, z, phase_step_cap, rate, samples=_spline_samples):
    # the pairs of M_j from one loop over a cell's sub-steps per sub-step
    # count m, in the input's column order and untiled; rate(zc, om, h, q)
    # is h b at sample q of every cell for the group's columns om, whose
    # samples of z come from ``samples``
    need = _substeps(grid, phase_step_cap)
    alpha, beta = np.empty((2, grid.n_times, need.size), dtype=complex)
    for m, zc in samples(grid, z, phase_step_cap).items():
        cols = np.flatnonzero(need == m)
        g = functools.partial(rate, zc, grid.omega_nodes[cols], grid.dt / m)
        for i in range(1, m + 1):
            step = characteristics._rk4_step(g(2 * i - 2), g(2 * i - 1), g(2 * i))
            ca, cb = step if i == 1 else characteristics._compose(ca, cb, *step)
        alpha[:-1, cols], beta[:-1, cols] = ca, cb
    alpha[-1], beta[-1] = 1.0, 0.0
    for j in range(grid.n_times - 2, -1, -1):
        alpha[j], beta[j] = characteristics._compose(alpha[j], beta[j], alpha[j + 1], beta[j + 1])
    return alpha, beta


def _moebius_per_group_oracle(grid, z, mu, phase_step_cap=0.125):
    # the oracle's arithmetic entry by entry, from its own spline samples:
    # h b as the sample times (mu / 2) h e^{-i omega t_j} times
    # e^{-i omega q h / 2}, and psi from the real (n_theta, 4) products for
    # (Re N, Im N)
    times = grid.times()

    def rate(zc, om, h, q):
        osc = np.exp(-1j * np.outer(times[:-1], om))
        osc *= 0.5 * mu * h
        return zc[:, q, None] * osc * np.exp(-0.5j * q * (om * h))

    alpha, beta = _moebius_per_group_maps(grid, z, phase_step_cap, rate, _cell_samples)
    theta = grid.theta()
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    zero, one = np.zeros_like(theta), np.ones_like(theta)
    pairs = np.stack([alpha.real, alpha.imag, beta.real, beta.imag], axis=1)
    re_n = np.stack([one, zero, cos_t, sin_t], axis=1) @ pairs
    im_n = np.stack([zero, one, -sin_t, cos_t], axis=1) @ pairs
    return 2.0 * np.arctan2(im_n, re_n)


def _trig_moebius_oracle(grid, z, mu, phase_step_cap=0.125):
    # the loop above with h b from np.cos and np.sin of omega s at every
    # stage, and psi = 2 arg N from np.angle of N = alpha + beta e^{-i theta}
    times = grid.times()

    def rate(zc, om, h, q):
        ws = np.outer(times[:-1] + 0.5 * h * q, om)
        return 0.5 * mu * h * zc[:, q, None] * (np.cos(ws) - 1j * np.sin(ws))

    alpha, beta = _moebius_per_group_maps(grid, z, phase_step_cap, rate)
    turn = np.exp(-1j * grid.theta())[None, :, None]
    return 2.0 * np.angle(alpha[:, None, :] + beta[:, None, :] * turn)


def _vector_rk4_oracle(grid, z, mu, phase_step_cap=0.125):
    # RK4 on the vector [p, q] of every (angle, column), stepped backward
    # from [e^{i theta}, 1]: no step pair and no product of maps
    times, theta = grid.times(), grid.theta()[:, None]
    need = _substeps(grid, phase_step_cap)
    dev = np.empty(grid.shape())
    dev[-1] = 0.0
    for m, zc in _spline_samples(grid, z, phase_step_cap).items():
        cols = np.flatnonzero(need == m)
        om = grid.omega_nodes[cols][None, :]
        h = grid.dt / m
        p, q = np.exp(1j * theta) * np.ones(cols.size), np.ones((grid.n_theta, cols.size), complex)

        def rhs(s_val, zval, pv, qv):
            b = 0.5 * mu * zval * np.exp(-1j * om * s_val)
            return b * qv, np.conj(b) * pv

        for j in range(grid.n_times - 2, -1, -1):
            for i in range(m, 0, -1):
                s2, s1, s0 = times[j] + h * i, times[j] + h * (i - 0.5), times[j] + h * (i - 1)
                z2, z1, z0 = zc[j, 2 * i], zc[j, 2 * i - 1], zc[j, 2 * i - 2]
                k1 = rhs(s2, z2, p, q)
                k2 = rhs(s1, z1, p - 0.5 * h * k1[0], q - 0.5 * h * k1[1])
                k3 = rhs(s1, z1, p - 0.5 * h * k2[0], q - 0.5 * h * k2[1])
                k4 = rhs(s0, z0, p - h * k3[0], q - h * k3[1])
                p = p - (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
                q = q - (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
            # e^{i psi} = e^{-i theta} p / q, and |psi| < pi on these cases
            dev[j, :, cols] = np.angle(np.exp(-1j * theta) * p * np.conj(q)).T
    return dev


@ORACLE_GRIDS
def test_lockstep_oracle_is_bit_identical_to_per_group_loop(grid, nodes, cap):
    # sorting the columns, one pass per sub-step index over a prefix, row
    # blocks and time tiles move no bit; the interpolant is not under test
    # here, so both sides take the oracle's spline samples
    g, z = _oracle_case(grid, nodes)
    new = backward_ode_oracle(g, z, 0.5, phase_step_cap=cap).deviation
    ref = _moebius_per_group_oracle(g, z, 0.5, phase_step_cap=cap)
    assert np.max(np.abs(ref)) > 0.2
    assert np.array_equal(new, ref)


@ORACLE_GRIDS
def test_oracle_stays_within_rounding_of_the_trig_loop(grid, nodes, cap):
    # factoring e^{-i omega s} into a per-cell and a per-sample phase, and
    # writing arg N through real products, move only rounding
    g, z = _oracle_case(grid, nodes)
    new = backward_ode_oracle(g, z, 0.5, phase_step_cap=cap).deviation
    ref = _trig_moebius_oracle(g, z, 0.5, phase_step_cap=cap)
    assert np.max(np.abs(ref)) > 0.2
    assert np.max(np.abs(new - ref)) <= 1e-15


@ORACLE_GRIDS
def test_oracle_step_pairs_are_rk4_on_the_vector(grid, nodes, cap):
    # each pair is the matrix of one RK4 step of the linear system, so
    # stepping [p, q] itself differs only by rounding, gathered over up to
    # 17 * 160 sub-steps (measured 3.8e-15)
    g, z = _oracle_case(grid, nodes)
    new = backward_ode_oracle(g, z, 0.5, phase_step_cap=cap).deviation
    ref = _vector_rk4_oracle(g, z, 0.5, phase_step_cap=cap)
    assert np.max(np.abs(ref)) > 0.2
    assert np.max(np.abs(new - ref)) <= 1e-14


def test_oracle_matches_the_trig_loop_on_the_exponential_reference_grid():
    # the 401 x 64 x 129 grid of the exponential acceptance reference under
    # its free path at mu = 0.05, with sub-step counts 1 to 33: measured 7.5e-15
    state = AsymptoticState(PROFILE, {1: 0.05}, "exponential", 0.9)
    g = build_grid(PROFILE, t_max=20.0, dt=0.05, n_theta=64)
    z = free_order_parameter(state, g.times())
    assert _substeps(g).max() == 33
    new = backward_ode_oracle(g, z, MU).deviation
    assert np.max(np.abs(new - _trig_per_group_oracle(g, z, MU))) <= 1e-13


# 2 arg N is psi while |psi| < 2 pi, so bounds B between pi and 2 pi are
# taken: (path, mu, gap to the trig loop, floor on sup|psi|).  Measured:
# B = 3.15, sup|psi| = 2.8, gap 6.8e-7; and for a path of constant modulus
# turning against the columns, B = 6.0, sup|psi| = 5.9 (Re N < 0 on part
# of the field), gap 1.5e-6
BRANCH_CASES = {
    "bound_above_pi": (lambda t: 0.3 * np.exp(-0.5 * t + 0.4j * t), 6.0, 1e-6, 2.5),
    "phase_above_pi": (lambda t: 0.3 * np.exp(-1j * t), 5.0, 5e-6, 1.5 * math.pi),
}


@pytest.mark.parametrize("case", BRANCH_CASES)
def test_oracle_branch_holds_below_two_pi(case):
    path, mu, tol, floor = BRANCH_CASES[case]
    g = _grid_with_nodes(MIXED_NODES)
    z = path(g.times())
    bound = _stage_bound(g, z, mu)
    assert math.pi < bound < 2.0 * math.pi
    new = backward_ode_oracle(g, z, mu).deviation
    assert floor < _abs_max(new) <= bound
    assert np.max(np.abs(new - _trig_per_group_oracle(g, z, mu))) <= tol


def test_oracle_refuses_a_phase_bound_of_two_pi(grid):
    g, z = _oracle_case(grid, None)
    bound = _stage_bound(g, z, 12.0)
    assert bound >= 2.0 * math.pi
    with pytest.raises(StepRejectedError, match=re.escape(f"phase bound B = {bound:.4g} >= 2 pi")):
        backward_ode_oracle(g, z, 12.0)


@settings(max_examples=25, deadline=None)
@given(k=st.integers(0, 15), phase=st.floats(0.0, 2.0 * math.pi),
       amplitude=st.floats(0.05, 0.3))
def test_oracle_rolls_with_a_turned_path(k, phase, amplitude):
    # turning z by e^{2 pi i k / n_theta} turns every label by k angles, so
    # the field rolls by k along theta, to rounding (measured 3e-16)
    g = _grid_with_nodes(MIXED_NODES)
    t = g.times()
    z = amplitude * np.exp(-0.5 * t + 1j * (0.4 * t + phase))
    dev = backward_ode_oracle(g, z, 0.5).deviation
    turned = backward_ode_oracle(g, z * np.exp(2j * math.pi * k / g.n_theta), 0.5).deviation
    assert np.max(np.abs(turned - np.roll(dev, k, axis=1))) <= 1e-15


def test_oracle_is_fourth_order_in_the_sub_step(grid):
    # self-convergence at mu = 0.5: the differences between caps 0.1, 0.05
    # and 0.025 shrink by 2^4 (measured 16.0)
    g, z = _oracle_case(grid, MIXED_NODES)
    devs = [backward_ode_oracle(g, z, 0.5, phase_step_cap=cap).deviation
            for cap in (0.1, 0.05, 0.025)]
    coarse, fine = (np.max(np.abs(a - b)) for a, b in zip(devs, devs[1:]))
    assert 3.8 <= math.log2(coarse / fine) <= 4.2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_inputs_are_refused_by_name(grid, zpath, bad):
    broken = zpath.copy()
    broken[7] = complex(0.0, bad)
    calls = [
        lambda z, mu: backward_ode_oracle(grid, z, mu),
        lambda z, mu: picard_sweep(grid, z, mu, WEIGHT),
        lambda z, mu: solve_fixed_point(grid, z, mu, WEIGHT),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="mu must be finite"):
            call(zpath, bad)
        with pytest.raises(ValueError, match="z must be finite"):
            call(broken, MU)


@pytest.mark.parametrize("mu", [-0.05, -40.0])
def test_a_negative_coupling_is_refused_by_name(grid, zpath, mu):
    # a negative mu used to certify a negative gain: solve_fixed_point at
    # mu = -40 returned converged with bound -2.2, where +40 is refused
    calls = [
        lambda: backward_ode_oracle(grid, zpath, mu),
        lambda: picard_sweep(grid, zpath, mu, WEIGHT),
        lambda: solve_fixed_point(grid, zpath, mu, WEIGHT),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^mu must be finite and >= 0, got -"):
            call()


@pytest.mark.parametrize("cap", [0.0, -0.125, math.nan])
def test_oracle_refuses_a_step_cap_that_is_not_positive(grid, zpath, cap):
    # each of these once ran every column at one sub-step per cell
    with pytest.raises(ValueError, match="phase_step_cap must be finite and > 0"):
        backward_ode_oracle(grid, zpath, MU, phase_step_cap=cap)


def test_oracle_working_set_is_one_field_and_small_tables(grid, zpath, monkeypatch):
    # the output field, the spline samples of z, the complex (alpha, beta)
    # pairs on (n_t, n_omega), and one complex tile slab for the rest: the
    # real tile and its rows of pairs when psi is written, or the scratch of
    # a sub-step pass.  Tiles of 20 of the 161 rows keep that slab well
    # below a field, so a field-sized temporary cannot hide in it
    n_t, n_th, n_om = grid.shape()
    tile_rows = 20
    _force_tile_rows(monkeypatch, grid.shape(), tile_rows)
    field = 8 * n_t * n_th * n_om
    pairs = 2 * 16 * n_t * n_om
    z_samples = 16 * (n_t - 1) * int(np.sum(2 * np.unique(_substeps(grid)) + 1))
    slab = 16 * tile_rows * n_th * n_om
    assert pairs + z_samples + slab < 0.7 * field
    peak = _traced_peak(lambda: backward_ode_oracle(grid, zpath, MU))
    assert peak <= field + pairs + z_samples + slab


# -- the oracle's numpy spline of z against scipy's CubicSpline ---------------

# on 4 .. 80 knots with cells of width h or h * [0.1, 1], and standard
# normal complex values: measured at most 1.3e-13 of max|y| over 3 000
# random cases, most of it scipy's own rounding of x_j + offset (the cell
# coefficients alone agree to 2.1e-14)
SPLINE_TOL = 1e-12


@settings(max_examples=200, deadline=None)
@given(n=st.integers(4, 80), h=st.floats(0.01, 0.5), m=st.integers(1, 33),
       uniform=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_oracle_spline_matches_scipys_cubic_spline(n, h, m, uniform, seed):
    # samples at the oracle's offsets q h_j / 2m, q = 0 .. 2m, of every cell;
    # on a uniform grid through the oracle's own sampling
    from scipy.interpolate import CubicSpline

    rng = np.random.default_rng(seed)
    widths = np.full(n - 1, h) if uniform else h * rng.uniform(0.1, 1.0, n - 1)
    x = h * np.arange(n) if uniform else np.concatenate([[0.0], np.cumsum(widths)])
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    offs = 0.5 * (widths / m)[:, None] * np.arange(2 * m + 1)
    if uniform:
        ours = characteristics._half_step_samples(x, h, y, np.array([m]))[0]
    else:
        y0, s0, c2, c3 = (c[:, None] for c in characteristics._spline_cells(x, y))
        ours = ((c3 * offs + c2) * offs + s0) * offs + y0
    ref = CubicSpline(x, y)(x[:-1, None] + offs)
    assert np.max(np.abs(ours - ref)) <= SPLINE_TOL * np.max(np.abs(y))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_oracle_spline_refuses_fewer_than_four_knots(n):
    # the two not-a-knot rows would fall on one cell; a Grid has at least 5
    # times, so the oracle never asks
    x = np.arange(float(n))
    with pytest.raises(ValueError, match=f"at least 4 knots, got {n}"):
        characteristics._spline_cells(x, x + 0j)


# -- the one phase kernel: Taylor terms picked from the exact sup -------------

def _largest_sup_for(k):
    # the largest sup at which _taylor_terms keeps k terms
    c = max(2.0 * abs(characteristics._COS_M1_OVER_D2[k]), abs(characteristics._SIN_OVER_D[k]))
    s = min(characteristics._POLY_CAP, (2.0**-53 / c) ** (0.5 / k))
    # the closed form lands within a few units in the last place
    while characteristics._taylor_terms(s) != k:
        s = math.nextafter(s, 0.0)
    while characteristics._taylor_terms(math.nextafter(s, math.inf)) == k:
        s = math.nextafter(s, math.inf)
    return s


MAX_TERMS = characteristics._taylor_terms(characteristics._POLY_CAP)


def test_taylor_terms_are_the_smallest_below_the_rounding_unit():
    assert MAX_TERMS == 9
    assert characteristics._taylor_terms(0.0) == 1
    for k in range(1, MAX_TERMS):
        s = _largest_sup_for(k)
        assert characteristics._taylor_terms(math.nextafter(s, math.inf)) == k + 1
    above = math.nextafter(characteristics._POLY_CAP, math.inf)
    for sup in (above, math.inf, math.nan):
        assert characteristics._taylor_terms(sup) is None


@pytest.mark.parametrize("k", range(1, 10))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_phase_kernel_matches_the_trig_form_at_every_degree(k, data):
    sup = _largest_sup_for(k)
    values = data.draw(st.lists(st.floats(-sup, sup), min_size=1, max_size=32))
    # the sup itself, where the truncated terms weigh most, and zero
    dev = np.array(values + [sup, -sup, 0.0])
    poly, trig = np.empty((2, dev.size)), np.empty((2, dev.size))
    scratch = np.empty(dev.size)
    phase_kernel(sup)(dev, poly[0], poly[1], scratch)
    phase_kernel(math.inf)(dev, trig[0], trig[1], scratch)
    # four units in the last place of the trig value (np.spacing is the
    # subnormal step near zero)
    assert np.all(np.abs(poly - trig) <= 4.0 * np.abs(np.spacing(trig)))
    assert np.all(poly[0] <= 0.0)
    assert np.array_equal(np.sign(poly[1]), np.sign(dev))
    assert np.all(poly[:, dev == 0.0] == 0.0)


def test_quartic_route_fixed_point_matches_trig(monkeypatch):
    # a1 = 0.3, mu = 0.3 on the 16-angle exponential grid: sup|D| near 0.1,
    # where the sweep's old quadratic e^{iD} moved the fixed point by 3.4e-8
    state = AsymptoticState(PROFILE, {1: 0.3}, "exponential", 0.9)
    grid16 = build_grid(PROFILE, t_max=20.0, dt=0.05, n_theta=16)
    poly = outer_solve(state, grid16, 0.3)
    assert 0.05 < poly.field.sup() <= characteristics._POLY_CAP
    monkeypatch.setattr(characteristics, "_POLY_CAP", -1.0)
    trig = outer_solve(state, grid16, 0.3)
    assert [r["contraction"]["sweeps"] for r in poly.ledger.records] == [
        r["contraction"]["sweeps"] for r in trig.ledger.records
    ]
    assert np.max(np.abs(poly.field.deviation - trig.field.deviation)) <= 1e-14
    assert np.max(np.abs(poly.path.values - trig.path.values)) <= 1e-14


# -- the e^{i omega t} table against a per-tile recomputation -----------------

class _PerTileTable:
    """Stands in for the cached table: every row slice is computed afresh."""

    def __init__(self, times, omega):
        self.times, self.omega = np.asarray(times, float), np.asarray(omega, float)

    def __getitem__(self, rows):
        assert isinstance(rows, slice)
        return np.exp(1j * np.outer(self.times[rows], self.omega))


def _table_outputs(grid, z, dev, state):
    rows = np.empty(grid.n_times)
    new = _sweep(grid, z, dev, 0.5, rows)
    field = CharacteristicField(grid, dev, 0.5)
    margin, sin_part, cos_part = _gamma_parts(field, z)
    quad = scheme.order_parameter_of(field, state, WEIGHT).values
    return [new, rows, sin_part, cos_part, np.array(margin), quad]


def _per_tile_outputs(grid, z, dev, state, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(characteristics, "oscillation_table", _PerTileTable)
        return _table_outputs(grid, z, dev, state)


# the benchmark grids: exp_ref, poly_ref and strong_coupling, with the
# deviation amplitude of their solved fields
TABLE_GRIDS = {
    "exp_ref": (PROFILE, dict(t_max=20.0, dt=0.05, n_theta=64), 0.0025),
    "poly_ref": (FrequencyProfile("laplace", 1.0),
                 dict(t_max=40.0, dt=0.05, n_theta=8, n_omega=480), 0.004),
    "strong_coupling": (PROFILE, dict(t_max=20.0, dt=0.05, n_theta=16), 0.14),
}


@pytest.mark.parametrize("name", list(TABLE_GRIDS))
def test_table_slices_equal_per_block_recomputation(name, monkeypatch):
    profile, spec, amplitude = TABLE_GRIDS[name]
    g = build_grid(profile, **spec)
    # 7 rows more than a third of the times: three tiles, the last ragged
    rows = _force_tile_rows(monkeypatch, g.shape(), g.n_times // 3 + 7)
    assert len(rows) == 3 and rows[-1] < rows[0]
    times = g.times()
    z = 0.3 * np.exp(-0.5 * times + 0.4j * times)
    dev = np.random.default_rng(3).uniform(-amplitude, amplitude, g.shape())
    decay = ("polynomial", 2.0) if profile.kind == "laplace" else ("exponential", 0.9)
    state = AsymptoticState(profile, {1: 0.05}, *decay)
    cached = _table_outputs(g, z, dev, state)
    fresh = _per_tile_outputs(g, z, dev, state, monkeypatch)
    assert all(np.array_equal(c, f) for c, f in zip(cached, fresh))


def test_table_never_serves_another_node_set(forced_tiles, monkeypatch):
    # two grids of one shape, different frequency nodes, swept in turn
    g1 = _grid_with_nodes(MIXED_NODES)
    g2 = _grid_with_nodes(np.array(MIXED_NODES) + 0.5)
    assert g1.shape() == g2.shape()
    state = AsymptoticState(PROFILE, {1: 0.05}, "exponential", 0.9)
    rng = np.random.default_rng(8)
    z = 0.3 * np.exp(-0.5 * g1.times() + 0.4j * g1.times())
    dev = rng.uniform(-0.1, 0.1, g1.shape())
    for g in (g1, g2, g1, g2):
        cached = _table_outputs(g, z, dev, state)
        fresh = _per_tile_outputs(g, z, dev, state, monkeypatch)
        assert all(np.array_equal(c, f) for c, f in zip(cached, fresh))
    # an array changed in place keys a new table
    omega = g1.omega_nodes.copy()
    before = oscillation_table(g1.times(), omega)
    assert oscillation_table(g1.times(), omega) is before
    omega[0] += 1.0
    after = oscillation_table(g1.times(), omega)
    # bit for bit the direct formula, signed zeros of the t = 0 row included
    direct = np.exp(1j * np.outer(g1.times(), omega))
    assert after.view(np.uint64).tobytes() == direct.view(np.uint64).tobytes()
    assert not after.flags.writeable


# -- the c07 gap, one tile at a time -----------------------------------------

def test_sup_distance_equals_the_field_sized_max(grid, zpath, solved, forced_tiles):
    field = solved[0]
    oracle = backward_ode_oracle(grid, zpath, MU)
    gap = oracle.sup_distance(field)
    assert gap > 0.0
    assert gap == float(np.max(np.abs(oracle.deviation - field.deviation)))
    broken = oracle.deviation.copy()
    broken[3, 2, -1] = np.nan
    assert math.isnan(CharacteristicField(grid, broken, MU).sup_distance(field))


def test_deviation_norm_equals_the_whole_field_norm(grid, solved, forced_tiles):
    # the row parts' sups give weighted_norm's number of the whole field,
    # the sign of a zero norm and a NaN included
    times = grid.times()
    for dev in (solved[0].deviation, np.zeros(grid.shape()), -solved[0].deviation):
        norm = CharacteristicField(grid, dev, MU).deviation_norm(WEIGHT)
        whole = weighted_norm(times, dev, WEIGHT, deviation=True)
        assert norm == whole and math.copysign(1.0, norm) == math.copysign(1.0, whole)
    broken = solved[0].deviation.copy()
    broken[-2, 1, 0] = np.nan
    assert math.isnan(CharacteristicField(grid, broken, MU).deviation_norm(WEIGHT))


# -- trigonometric interpolation onto a finer angle grid ---------------------

def _fft_interpolant(coarse, n_theta):
    # zero-padding the angular spectrum, the Nyquist term split between
    # +-n_c / 2: an independent route to the trigonometric interpolant
    n_c = coarse.shape[1]
    spec = np.fft.rfft(coarse, axis=1)
    spec[:, -1] *= 0.5
    padded = np.zeros((coarse.shape[0], n_theta // 2 + 1, coarse.shape[2]), dtype=complex)
    padded[:, : n_c // 2 + 1] = spec
    return np.fft.irfft(padded, n=n_theta, axis=1) * (n_theta / n_c)


@pytest.mark.parametrize("n_c, n_theta", [(8, 32), (16, 64), (12, 16)])
def test_interpolated_row_gaps_are_the_sups_of_the_trig_interpolant(n_c, n_theta, monkeypatch):
    # a coarse field with every mode, the Nyquist one included, in tiles of
    # 5 rows and parts of each: the row sups of P(a), P(a - b), P(a) - fine
    # and P(a - b) - fine against the FFT interpolant's
    rng = np.random.default_rng(n_c * n_theta)
    a, b, same = rng.standard_normal((3, 23, n_c, 7))
    fine = rng.standard_normal((23, n_theta, 7))
    assert len(_force_tile_rows(monkeypatch, fine.shape, 5)) == 5
    row_gaps = characteristics.row_gaps
    cases = ((None, None, _fft_interpolant(a, n_theta)),
             (b, None, _fft_interpolant(a - b, n_theta)),
             (None, fine, _fft_interpolant(a, n_theta) - fine),
             (b, fine, _fft_interpolant(a - b, n_theta) - fine))
    for other, on_fine, want in cases:
        got = row_gaps(a, other, n_theta, on_fine)
        ref = np.abs(want).max(axis=(1, 2))
        assert np.max(np.abs(got - ref) / ref) <= 1e-14
    # with P the identity (no n_theta, or a's own count) no product is
    # taken: each row's max and -min of a, a - b, a - fine or a - b - fine
    identity = ((None, None, a), (b, None, a - b), (None, same, a - same), (b, same, a - b - same))
    for other, on_fine, want in identity:
        ref = np.maximum(want.max(axis=(1, 2)), -want.min(axis=(1, 2)))
        for n in (None, n_c):
            assert row_gaps(a, other, n, on_fine).tobytes() == ref.tobytes()
    # every form bit for bit alike for any part count and tile height
    forms = [(other, n_theta, on_fine) for other, on_fine, _ in cases]
    forms += [(other, None, on_fine) for other, on_fine, _ in identity]
    monkeypatch.setattr(characteristics, "_PARTS", 1)
    monkeypatch.setattr(characteristics, "_TILE_CELLS", fine.size)
    refs = [row_gaps(a, *form).tobytes() for form in forms]
    for parts in (1, 2, 3, 4):
        monkeypatch.setattr(characteristics, "_PARTS", parts)
        for rows in (1, 3, 5):
            monkeypatch.setattr(characteristics, "_TILE_CELLS", rows * n_theta * 7)
            assert [row_gaps(a, *form).tobytes() for form in forms] == refs, (parts, rows)
    full = characteristics.resample_angles(a, n_theta)
    assert np.max(np.abs(full - cases[0][2])) <= 1e-14 * np.max(np.abs(a))
    # the interpolant keeps the samples bit for bit where the angles meet
    on = [i for i in range(n_theta) if i * n_c % n_theta == 0]
    assert full[:, on].tobytes() == a[:, [i * n_c // n_theta for i in on]].tobytes()
    # a NaN in any input reaches its row's sup, and only that row's
    broken = [array.copy() for array in (a, b, same, fine)]
    for row, array in zip((4, 9, 14, 19), broken):
        array[row, 1, 2] = np.nan
    nan_a, nan_b, nan_same, nan_fine = broken
    for got, row in ((row_gaps(nan_a, n_theta=n_theta), 4), (row_gaps(nan_a), 4),
                     (row_gaps(a, nan_b, n_theta), 9), (row_gaps(a, nan_b), 9),
                     (row_gaps(a, fine=nan_same), 14), (row_gaps(a, b, n_theta, nan_fine), 19)):
        assert np.flatnonzero(np.isnan(got)).tolist() == [row]
    for bad in (dict(n_theta=n_theta, fine=a), dict(fine=fine), dict(b=fine),
                dict(b=fine, n_theta=n_theta)):
        with pytest.raises(ValueError):
            row_gaps(a, **bad)


def test_a_band_limited_field_is_interpolated_exactly():
    # modes below n_c / 2 come back at the fine angles to rounding
    n_c, n_theta = 16, 64
    rng = np.random.default_rng(3)
    coef = rng.standard_normal((n_c // 2, 2)) / 2.0 ** np.arange(n_c // 2)[:, None]

    def field(n):
        th = 2.0 * math.pi * np.arange(n) / n
        m = np.arange(n_c // 2)[:, None]
        return (coef[:, :1] * np.cos(m * th) + coef[:, 1:] * np.sin(m * th)).sum(axis=0)

    coarse = np.broadcast_to(field(n_c)[None, :, None], (3, n_c, 2))
    full = characteristics.resample_angles(np.ascontiguousarray(coarse), n_theta)
    assert np.max(np.abs(full - field(n_theta)[None, :, None])) <= 4e-15


# -- the time tiles against the omega-blocked loops they replaced -------------

# cells per omega block of the replaced loops
_OMEGA_BLOCK_CELLS = 1 << 19
# distance allowed between the tiled and the omega-blocked quadrature: each
# time row now sums over all frequencies at once, so only the grouping of
# the frequency sum changes
QUADRATURE_TOL = 1e-15


def _omega_blocks(shape):
    n_t, n_th, n_om = shape
    width = min(n_om, max(1, _OMEGA_BLOCK_CELLS // (n_t * n_th)))
    for lo in range(0, n_om, width):
        yield slice(lo, min(lo + width, n_om))


def _fold_row_sup(acc, block):
    np.maximum(acc, block.max(axis=(1, 2)), out=acc)
    np.maximum(acc, -block.min(axis=(1, 2)), out=acc)


def _omega_block_integrals(times, omega, z, deviation):
    # the backward integral over whole frequency columns, each block summed
    # from t_max in one pass
    dt = float(times[1] - times[0])
    conj_z = np.conj(z)[:, None]
    table = oscillation_table(times, omega)
    kernel = characteristics.phase_kernel(_abs_max(deviation))
    for sl in _omega_blocks(deviation.shape):
        w = omega[sl] * dt
        alpha, beta = filon_weights(w)
        right = table[:, sl] * conj_z
        left = right * (dt * alpha)
        right *= dt * (beta * np.exp(-1j * w))
        e, c = np.empty((2,) + deviation[:, :, sl].shape, dtype=complex)
        cos_m1, sin_d = characteristics._real_halves(c)
        kernel(deviation[:, :, sl], cos_m1, sin_d, characteristics._real_halves(e)[0])
        np.add(cos_m1, 1.0, out=e.real)
        np.copyto(e.imag, sin_d)
        np.multiply(e[:-1], left[:-1, None, :], out=c[:-1])
        e[1:] *= right[1:, None, :]
        c[:-1] += e[1:]
        c[-1] = 0.0
        characteristics._backward_sum(c)
        yield sl, c


# reconstruct's density times: the first time row, the last of the
# exponential grids, and rows between, in different tiles
DENSITY_TIMES = (0.0, 5.0, 10.0, 1.85, 20.0)


def _rows_at(g, times):
    return [int(round(t / g.dt)) for t in times]


def _omega_block_outputs(g, z, dev, mu, state, weight):
    times, theta, omega = g.times(), g.theta(), g.omega_nodes
    new = np.empty_like(dev)
    residual = np.zeros(g.n_times)
    sin_part, cos_part = np.empty((2,) + g.shape())
    gamma_rows = np.zeros(g.n_times)
    cos_t, sin_t = np.cos(theta)[None, :, None], np.sin(theta)[None, :, None]
    for sl, ib in _omega_block_integrals(times, omega, z, dev):
        out = new[:, :, sl]
        np.multiply(ib.imag, mu * cos_t, out=out)
        out += ib.real * (mu * sin_t)
        _fold_row_sup(residual, out - dev[:, :, sl])
        sp, cp = sin_part[:, :, sl], cos_part[:, :, sl]
        np.multiply(ib.imag, cos_t, out=sp)
        sp += ib.real * sin_t
        np.multiply(ib.real, cos_t, out=cp)
        cp -= ib.imag * sin_t
        _fold_row_sup(gamma_rows, sp)
    r = np.abs(z)
    beta = np.zeros(g.n_times)
    beta[:-1] = np.cumsum((0.5 * g.dt * (r[:-1] + r[1:]))[::-1])[::-1]
    gaps = np.zeros(g.n_times)
    for sl in _omega_blocks(g.shape()):
        _fold_row_sup(gaps, new[:, :, sl] - dev[:, :, sl])
    # the order-parameter quadrature, accumulated block by block
    u = state.angular_factor(theta) * np.exp(1j * theta) / g.n_theta
    proj = np.stack([u.real, u.imag])
    quad = free_order_parameter(state, times).astype(complex)
    table = oscillation_table(times, omega)
    for sl in _omega_blocks(g.shape()):
        cos_m1, sin_d, d2 = np.empty((3,) + dev[:, :, sl].shape)
        phase_kernel(_abs_max(dev))(dev[:, :, sl], cos_m1, sin_d, d2)
        pc, ps = np.matmul(proj, cos_m1), np.matmul(proj, sin_d)
        s = pc[:, 0] - ps[:, 1] + 1j * (pc[:, 1] + ps[:, 0])
        quad += np.einsum("tk,tk,k->t", table[:, sl], s, g.prob_weights[sl])
    # reconstruct's dephasing distance and density rows, from the
    # omega-blocked cos_part and phase pairs E_1 = (cos D - 1, sin D):
    # sum_k 2 Re[a_k e^{ik theta} E_k] g - A(theta) g expm1(-mu Gamma_cos)
    ang = state.angular_factor(theta)[:, None]
    gdens = state.profile.density(omega)[None, :]
    f_inf = ang * gdens / (2.0 * math.pi)
    values = np.stack([f_inf * np.exp(-mu * cos_part[j]) for j in _rows_at(g, DENSITY_TIMES)])
    kernel = phase_kernel(_abs_max(dev))
    dist = np.zeros(g.n_times)
    for sl in _omega_blocks(g.shape()):
        c1, s1, d2 = np.empty((3,) + dev[:, :, sl].shape)
        kernel(dev[:, :, sl], c1, s1, d2)
        g_sl = gdens[:, sl]
        diff = np.expm1(cos_part[:, :, sl] * -mu) * -(ang * g_sl)
        ck, sk = c1, s1
        for k in range(1, max(state.modes) + 1):
            if k > 1:
                ck, sk = ck * c1 - sk * s1 + ck + c1, ck * s1 + sk * c1 + sk + s1
            if k in state.modes:
                b = 2.0 * state.modes[k] * np.exp(1j * k * theta)[:, None]
                diff += ck * (b.real * g_sl)
                diff -= sk * (b.imag * g_sl)
        np.abs(diff, out=diff)
        np.maximum(dist, diff.reshape(g.n_times, -1).max(axis=1) / (2.0 * math.pi), out=dist)
    return {
        "sweep": new, "row_residual": residual,
        "sin_part": sin_part, "cos_part": cos_part,
        "margin": np.array(float(np.max(gamma_rows[beta > 0] / beta[beta > 0]))),
        "distance": np.array(weighted_norm(times, gaps, weight, deviation=True)),
        "sup_distance": np.array(float(gaps.max())),
        "dephasing": dist, "values": values, "quadrature": quad,
    }


def _tiled_outputs(g, z, dev, mu, state, weight):
    times = g.times()
    rows = np.empty(g.n_times)
    new = _sweep(g, z, dev, mu, rows)
    field = CharacteristicField(g, dev, mu)
    margin, sin_part, cos_part = _gamma_parts(field, z)
    swept = CharacteristicField(g, new, mu)
    path = OrderParameterPath(g, z, weight)
    result = SolveResult(state, g, mu, weight, path, field, None, 0, True)
    recon = reconstruct(result, times=DENSITY_TIMES)
    return {
        "sweep": new, "row_residual": rows,
        "sin_part": sin_part, "cos_part": cos_part,
        "margin": np.array(margin),
        "distance": np.array(weighted_norm(times, characteristics.row_gaps(new, dev), weight,
                                           deviation=True)),
        "sup_distance": np.array(swept.sup_distance(field)),
        "dephasing": recon.dephasing, "values": recon.values,
        "quadrature": scheme.order_parameter_of(field, state, WEIGHT).values,
    }


def _benchmark_case(name):
    profile, spec, amplitude = TABLE_GRIDS[name]
    g = build_grid(profile, **spec)
    z = 0.3 * np.exp(-0.5 * g.times() + 0.4j * g.times())
    dev = np.random.default_rng(4).uniform(-amplitude, amplitude, g.shape())
    decay = ("polynomial", 2.0) if profile.kind == "laplace" else ("exponential", 0.9)
    return g, z, dev, 0.5, AsymptoticState(profile, {1: 0.05}, *decay), WeightSpec(*decay)


@functools.cache
def _omega_block_reference(name):
    return _omega_block_outputs(*_benchmark_case(name))


# tile heights: one time row, a ragged 37 rows (401 and 801 rows are not
# multiples of 37), and the whole field in one tile
TILE_HEIGHTS = {"one_row": lambda n_t: 1, "ragged": lambda n_t: 37, "whole": lambda n_t: n_t}


@pytest.mark.parametrize("height", list(TILE_HEIGHTS))
@pytest.mark.parametrize("name", list(TABLE_GRIDS))
def test_tiled_loops_equal_the_omega_blocked_loops(name, height, monkeypatch):
    case = _benchmark_case(name)
    g = case[0]
    rows = _force_tile_rows(monkeypatch, g.shape(), TILE_HEIGHTS[height](g.n_times))
    if height == "ragged":
        assert len(rows) >= 3 and rows[-1] < rows[0]
    tiled = _tiled_outputs(*case)
    ref = _omega_block_reference(name)
    assert np.max(np.abs(ref["sweep"])) > 1e-3
    for key in ref.keys() - {"quadrature"}:
        assert np.array_equal(tiled[key], ref[key]), key
    assert np.max(np.abs(tiled["quadrature"] - ref["quadrature"])) <= QUADRATURE_TOL
    # a time row's frequency sum does not depend on the tile it falls in
    monkeypatch.setattr(characteristics, "_TILE_CELLS", g.n_times * g.n_theta * g.n_omega)
    whole = scheme.order_parameter_of(CharacteristicField(g, case[2], case[3]), case[4],
                                      WEIGHT).values
    assert np.array_equal(tiled["quadrature"], whole)


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 500), st.integers(1, 64), st.integers(1, 600)),
    cells=st.integers(1, 1 << 20),
)
def test_time_tiles_cover_every_row_once_from_t_max_backward(shape, cells):
    n_t, n_th, n_om = shape
    row = n_th * n_om
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characteristics, "_TILE_CELLS", cells)
        tiles = list(characteristics.time_tiles(shape))
        slab_rows = characteristics._tile_rows(shape)
    # contiguous, non-empty, from t_max down to t = 0: each row exactly once
    assert tiles[0].stop == n_t and tiles[-1].start == 0
    assert all(a.start == b.stop for a, b in zip(tiles, tiles[1:]))
    heights = [sl.stop - sl.start for sl in tiles]
    assert all(h >= 1 for h in heights) and all(sl.step is None for sl in tiles)
    # no tile above the budget, unless one row alone exceeds it
    assert all(h * row <= max(row, cells) for h in heights)
    # the slab fits every tile; only the tile at t = 0 is short of it, and
    # a longer tile would break the budget or run past the field
    assert all(h == slab_rows for h in heights[:-1]) and heights[-1] <= slab_rows
    assert slab_rows == n_t or (slab_rows + 1) * row > max(row, cells)


# -- the split loops against one part: bit-identical for any part count ------

# (grid, part counts): the module grid in ragged forced tiles, and ten
# angles, which split into 5 + 5, 3 + 3 + 4, 2 + 3 + 2 + 3 and, at
# P = n_theta, the narrowest angle parts, five of two
PART_GRIDS = {
    "theta16": (dict(t_max=8.0, dt=0.05, n_theta=16, n_omega=65), (1, 2, 3, 4, 16)),
    "theta10": (dict(t_max=8.0, dt=0.05, n_theta=10, n_omega=33), (1, 2, 3, 4, 10)),
}
PART_CASES = [(name, parts) for name, (_, counts) in PART_GRIDS.items() for parts in counts]


def _split_outputs(g, amplitude):
    times = g.times()
    z = 0.3 * np.exp(-0.5 * times + 0.4j * times)
    dev = np.random.default_rng(17).uniform(-amplitude, amplitude, g.shape())
    rows, in_place_rows = np.empty((2, g.n_times))
    swept = _sweep(g, z, dev, 0.5, rows)
    in_place = dev.copy()
    _sweep(g, z, in_place, 0.5, in_place_rows, out=in_place)
    # the sweep from D = 0, into a new array and in place, as raw bits
    zero_rows = np.empty(g.n_times)
    from_zero = _sweep(g, z, np.zeros(g.shape()), 0.5, zero_rows)
    zero_in_place = np.zeros(g.shape())
    _sweep(g, z, zero_in_place, 0.5, out=zero_in_place)
    field = CharacteristicField(g, dev, 0.5)
    margin, sin_part, cos_part = _gamma_parts(field, z)
    state = AsymptoticState(PROFILE, {1: 0.05}, "exponential", 0.9)
    decaying = 0.05 * np.exp(-times) + 0.0j
    solved, report = solve_fixed_point(g, decaying, MU, WEIGHT)
    path = OrderParameterPath(g, decaying, WEIGHT)
    recon = reconstruct(SolveResult(state, g, MU, WEIGHT, path, solved, None, 0, True),
                        times=(0.0, 2.5, 8.0))
    # the higher modes' E_k = E_{k-1} + E_1 + E_{k-1} E_1 in block scratch
    modes = AsymptoticState(PROFILE, {1: 0.1, 2: 0.15j, 3: -0.05 + 0.02j}, "exponential", 0.9)
    recon_modes = reconstruct(SolveResult(modes, g, MU, WEIGHT, path, solved, None, 0, True),
                              times=(0.0,))
    return {
        "swept": swept, "rows": rows, "in_place": in_place, "in_place_rows": in_place_rows,
        "from_zero": from_zero.view(np.uint64), "zero_rows": zero_rows,
        "zero_in_place": zero_in_place.view(np.uint64),
        "sin_part": sin_part, "cos_part": cos_part, "margin": np.array(margin),
        "quadrature": scheme.order_parameter_of(field, state, WEIGHT).values,
        "solved": solved.deviation, "report": report,
        "deviation_norm": np.array(field.deviation_norm(WEIGHT)),
        "values": recon.values, "mass": recon.mass, "dephasing": recon.dephasing,
        "gamma_margin": np.array(recon.gamma_margin), "dephasing_modes": recon_modes.dephasing,
        "oracle": backward_ode_oracle(g, z, 0.5).deviation,
        "distance": np.array(weighted_norm(g.times(), characteristics.row_gaps(swept, field.deviation),
                                           WEIGHT, deviation=True)),
        "sup_distance": np.array(CharacteristicField(g, swept, 0.5).sup_distance(field)),
    }


@AMPLITUDES
@pytest.mark.parametrize("name,parts", PART_CASES, ids=[f"{n}-P{p}" for n, p in PART_CASES])
def test_split_loops_are_bit_identical_for_any_part_count(name, parts, amplitude, monkeypatch):
    spec, _ = PART_GRIDS[name]
    g = build_grid(PROFILE, **spec)
    # 50-row tiles: 161 rows split 50, 50, 50, 11 from t_max back
    tiles = _force_tile_rows(monkeypatch, g.shape(), 50)
    assert len(tiles) == 4 and tiles[-1] < tiles[0]
    monkeypatch.setattr(characteristics, "_PARTS", 1)
    ref = _split_outputs(g, amplitude)
    monkeypatch.setattr(characteristics, "_PARTS", parts)
    times = g.times()
    angle_parts = {}
    characteristics._integral_parts(g, times + 0j, np.zeros(g.shape()), 0.0,
                                    lambda p, angles, *tile: angle_parts.setdefault(p, angles))
    widths = [a.stop - a.start for _, a in sorted(angle_parts.items())]
    assert len(widths) == min(parts, g.n_theta // 2) and sum(widths) == g.n_theta
    assert max(widths) - min(widths) <= 1
    got = _split_outputs(g, amplitude)
    assert got.pop("report") == ref.pop("report")
    assert np.max(np.abs(ref["swept"])) > 1e-3
    for key, value in ref.items():
        assert np.array_equal(got[key], value), key


def test_split_loops_hold_under_fast_thread_switching(monkeypatch):
    # more parts than cores, with the interpreter switching threads every
    # microsecond: a part writing outside its own block would show here
    spec, _ = PART_GRIDS["theta16"]
    g = build_grid(PROFILE, **spec)
    _force_tile_rows(monkeypatch, g.shape(), 50)
    monkeypatch.setattr(characteristics, "_PARTS", 1)
    ref = _split_outputs(g, 0.1)
    monkeypatch.setattr(characteristics, "_PARTS", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        got = _split_outputs(g, 0.1)
        elapsed = time.monotonic() - start
    finally:
        sys.setswitchinterval(interval)
    assert elapsed < 60.0
    assert got.pop("report") == ref.pop("report")
    for key, value in ref.items():
        assert np.array_equal(got[key], value), key


# -- per-tile kernels: each time tile pays for its own rows -------------------

def _first_terms_by_horner(dev):
    # Horner's rule at one term: (-1/2) D^2 and 1 * D
    d2 = dev * dev
    cos_m1, sin_d = np.full(dev.shape, characteristics._COS_M1_OVER_D2[0]), np.ones(dev.shape)
    cos_m1 *= d2
    sin_d *= dev
    return cos_m1, sin_d


def test_one_term_kernel_is_horners_rule_bit_for_bit():
    sup = _largest_sup_for(1)
    rng = np.random.default_rng(23)
    # subnormal, signed zero and the sup itself among ordinary values
    dev = np.concatenate([rng.uniform(-sup, sup, 200), [sup, -sup, 0.0, -0.0, 5e-324, -1e-300]])
    kernel = phase_kernel(sup)
    assert kernel is phase_kernel(0.5 * sup) and kernel is not phase_kernel(2.0 * sup)
    got = np.empty((3, dev.size))
    kernel(dev, got[0], got[1], got[2])
    for g, ref in zip(got[:2], _first_terms_by_horner(dev)):
        assert g.view(np.uint64).tobytes() == ref.view(np.uint64).tobytes()


def _kernel_log(monkeypatch, field):
    # (terms, first row, rows) of every kernel application to field's rows:
    # None for the trig form
    log = []
    base = field.__array_interface__["data"][0]
    phase_kernel_ = characteristics.phase_kernel

    def recording(terms, kernel):
        def apply(dev, cos_m1, sin_d, d2):
            first = (dev.__array_interface__["data"][0] - base) // field.strides[0]
            log.append((terms, first, len(dev)))
            kernel(dev, cos_m1, sin_d, d2)

        apply.terms = kernel.terms
        return apply

    monkeypatch.setattr(characteristics, "phase_kernel",
                        lambda sup: recording(characteristics._taylor_terms(sup),
                                              phase_kernel_(sup)))
    return log


def test_every_tile_takes_the_kernel_of_its_own_rows(grid, monkeypatch):
    # 20-row tiles over a field decaying from 0.9 to 1e-8: Taylor term
    # counts up to 9, one tile holding a NaN and one only zeros
    _force_tile_rows(monkeypatch, grid.shape(), 20)
    tiles = list(characteristics.time_tiles(grid.shape()))
    assert len(tiles) == 9
    times = grid.times()
    rng = np.random.default_rng(29)
    dev = rng.uniform(-1.0, 1.0, grid.shape()) * (0.9 * 10.0 ** -times)[:, None, None]
    dev[tiles[3].start + 4, 5, 7] = np.nan
    dev[tiles[5]] = 0.0
    rows = np.abs(dev).reshape(grid.n_times, -1).max(axis=1)
    expected = [characteristics._taylor_terms(rows[sl].max()) for sl in tiles]
    # the zero tile takes the one-term kernel like any other tile
    assert expected[5] == 1
    assert expected[3] is None and {2, 3, 5, 8, 9} <= set(expected)
    assert [k.terms for k in characteristics.tile_kernels(grid.shape(), rows)] == expected
    z = 0.3 * np.exp(-times + 0.4j * times)
    state = AsymptoticState(PROFILE, {1: 0.05}, "exponential", 0.9)
    field = CharacteristicField(grid, dev, 0.5)
    loops = {
        "sweep": lambda: _sweep(grid, z, dev, 0.5),
        "gamma_field": lambda: gamma_field(field, z, lambda *block: None),
        "quadrature": lambda: scheme.order_parameter_of(field, state, WEIGHT).values,
    }
    for name, loop in loops.items():
        with monkeypatch.context() as mp:
            log = _kernel_log(mp, dev)
            loop()
        covered = np.zeros(grid.n_times, dtype=int)
        for terms, first, n in log:
            # each application lies in one tile and takes that tile's terms
            tile = next(i for i, sl in enumerate(tiles) if sl.start <= first < sl.stop)
            assert first + n <= tiles[tile].stop, name
            assert terms == expected[tile], (name, tile)
            covered[first:first + n] += 1
        # every row once per part of the loop
        assert len(set(covered)) == 1 and covered[0] >= 1, name


def _solve_with_and_without_skips(g, z, mu, monkeypatch):
    skipping = solve_fixed_point(g, z, mu, WEIGHT)
    sweep = characteristics.deviation_sweep

    def every_tile(*args, tails=None, **kwargs):
        return sweep(*args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(characteristics, "deviation_sweep", every_tile)
        full = solve_fixed_point(g, z, mu, WEIGHT)
    return skipping, full


def _assert_same_solve(skipping, full):
    (field, report), (ref_field, ref_report) = skipping, full
    assert report.tiles_skipped > 0 and ref_report.tiles_skipped == 0
    # each skipped part-tile is one the full solve swept with a kernel
    assert (sum(report.tile_terms.values()) + report.tiles_skipped
            == sum(ref_report.tile_terms.values()))
    assert field.deviation.view(np.uint64).tobytes() == ref_field.deviation.view(np.uint64).tobytes()
    assert field._rows.tobytes() == ref_field._rows.tobytes()
    assert report == ref_report
    for key in ("residuals", "ratios"):
        assert np.array(getattr(report, key)).tobytes() == np.array(getattr(ref_report, key)).tobytes()


# a strongly coupled frozen path on the module grid in 20-row tiles: the
# solve takes about a dozen sweeps, and its late tiles settle first
SKIP_MU = 0.5


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
def test_tile_skip_is_bit_identical_to_sweeping_every_tile(grid, parts, monkeypatch):
    _force_tile_rows(monkeypatch, grid.shape(), 20)
    monkeypatch.setattr(characteristics, "_PARTS", parts)
    times = grid.times()
    z = 0.3 * np.exp(-times + 0.4j * times)
    _assert_same_solve(*_solve_with_and_without_skips(grid, z, SKIP_MU, monkeypatch))


def test_tile_skip_holds_under_fast_thread_switching(grid, monkeypatch):
    _force_tile_rows(monkeypatch, grid.shape(), 20)
    monkeypatch.setattr(characteristics, "_PARTS", 8)
    times = grid.times()
    z = 0.3 * np.exp(-times + 0.4j * times)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        solves = _solve_with_and_without_skips(grid, z, SKIP_MU, monkeypatch)
    finally:
        sys.setswitchinterval(interval)
    _assert_same_solve(*solves)


@pytest.mark.parametrize("parts", [1, 3])
def test_the_terms_count_the_part_tiles_swept(grid, parts, monkeypatch):
    # every sweep after the zero start sweeps or skips each tile of each
    # angle part once, and the terms count only the part-tiles it swept
    tiles = _force_tile_rows(monkeypatch, grid.shape(), 20)
    monkeypatch.setattr(characteristics, "_PARTS", parts)
    times = grid.times()
    z = 0.3 * np.exp(-times + 0.4j * times)
    _, report = solve_fixed_point(grid, z, SKIP_MU, WEIGHT)
    n_parts = len(characteristics._angle_parts(grid.shape()))
    assert n_parts == parts and report.tiles_skipped > 0
    assert (sum(report.tile_terms.values()) + report.tiles_skipped
            == (report.sweeps - 1) * len(tiles) * n_parts)


def _global_kernels(shape, rows):
    # the kernel of the whole field's sup on every tile
    rows = np.broadcast_to(np.asarray(rows, dtype=float), shape[:1])
    kernel = characteristics.phase_kernel(float(rows.max()))
    return [kernel] * len(list(characteristics.time_tiles(shape)))


# (a1, mu, n_theta): the exponential reference and strong coupling on the
# 20-time-unit exponential grid
GLOBAL_KERNEL_CASES = {"exp_ref": (0.05, 0.05, 64), "strong_coupling": (0.3, 0.5, 16)}
# per-tile kernels against one kernel at the field's sup: within this many
# eps of sup|D| for the field and of max|z| for the path (measured 0.47 and
# 0.01 on strong_coupling, 0 on exp_ref)
GLOBAL_KERNEL_TOL_EPS = 2.0


@pytest.mark.parametrize("name", list(GLOBAL_KERNEL_CASES))
def test_per_tile_kernels_stay_within_rounding_of_one_global_kernel(name, monkeypatch):
    a1, mu, n_theta = GLOBAL_KERNEL_CASES[name]
    state = AsymptoticState(PROFILE, {1: a1}, "exponential", 0.9)
    g = build_grid(PROFILE, t_max=20.0, dt=0.05, n_theta=n_theta)
    per_tile = outer_solve(state, g, mu)
    terms = [k.terms for k in characteristics.tile_kernels(g.shape(), per_tile.field.row_sups())]
    assert len(set(terms)) > 1
    with monkeypatch.context() as mp:
        mp.setattr(characteristics, "tile_kernels", _global_kernels)
        single = outer_solve(state, g, mu)
    assert [r["contraction"]["sweeps"] for r in per_tile.ledger.records] == [
        r["contraction"]["sweeps"] for r in single.ledger.records
    ]
    eps = np.finfo(float).eps
    dev_gap = np.max(np.abs(per_tile.field.deviation - single.field.deviation))
    assert dev_gap <= GLOBAL_KERNEL_TOL_EPS * eps * single.field.sup()
    z_gap = np.max(np.abs(per_tile.path.values - single.path.values))
    assert z_gap <= GLOBAL_KERNEL_TOL_EPS * eps * np.max(np.abs(single.path.values))


def _rescaled_phase(dev, cos_m1, sin_d, d2):
    # the trig form with sin D off by a part in 2^40: another kernel, whose
    # rows differ in their last bits from every Taylor kernel's
    characteristics._trig_phase(dev, cos_m1, sin_d, d2)
    sin_d *= 1.0 + 2.0**-40


_rescaled_phase.terms = None


def test_a_tail_whose_kernel_changed_is_swept_again(grid, monkeypatch):
    # from the sixth sweep on the top tile takes another kernel: its rows,
    # left as they were by the old one, are no longer what a sweep writes,
    # so every part must sweep from t_max again
    _force_tile_rows(monkeypatch, grid.shape(), 20)
    times = grid.times()
    z = 0.3 * np.exp(-times + 0.4j * times)
    tile_kernels = characteristics.tile_kernels

    def switching(shape, rows):
        # each sweep reads the kernels once, in its walk, so the sixth
        # call is the sixth sweep's
        calls.append(1)
        kernels = tile_kernels(shape, rows)
        if len(calls) >= 6:
            kernels[0] = _rescaled_phase
        return kernels

    monkeypatch.setattr(characteristics, "tile_kernels", switching)
    calls = []
    field, report = solve_fixed_point(grid, z, SKIP_MU, WEIGHT)
    calls = []
    sweep = characteristics.deviation_sweep
    with monkeypatch.context() as mp:
        mp.setattr(characteristics, "deviation_sweep",
                   lambda *args, tails=None, **kwargs: sweep(*args, **kwargs))
        ref_field, ref_report = solve_fixed_point(grid, z, SKIP_MU, WEIGHT)
    assert report.sweeps > 6 and report.tiles_skipped > 0
    assert field.deviation.tobytes() == ref_field.deviation.tobytes()
    assert np.array(report.residuals).tobytes() == np.array(ref_report.residuals).tobytes()


def test_a_tail_is_kept_only_while_its_kernels_stay():
    shape = (7, 4, 3)
    a, b, c = (characteristics.phase_kernel(s) for s in (1e-9, 1e-3, 0.5))
    tail = characteristics._Tail(shape, slice(0, 2))
    tail.tiles, tail.kernels = 2, [a, b]
    assert tail.skip([a, b, c, c]) == 2
    assert (tail.tiles, tail.kernels) == (2, [a, b])
    assert tail.skip([a, c, c, c]) == 0
    assert (tail.tiles, tail.kernels) == (0, [])
