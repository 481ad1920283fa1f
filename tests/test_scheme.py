"""End-to-end tests for the outer iteration and density reconstruction.

One moderately sized coupled solve (single Fourier mode on a unit
Lorentzian profile, mu = 0.05) is shared module-wide; the remaining
cases exercise degenerate inputs and the documented failure modes.
"""

import ast
import copy
import dataclasses
import inspect
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuramoto_dephasing import (
    AsymptoticState,
    FrequencyProfile,
    NotConvergingError,
    TailBudgetError,
    WeightSpec,
    build_grid,
    fit_decay,
    free_order_parameter,
    gamma_field,
    outer_solve,
    reconstruct,
    solve_fixed_point,
    verify_lemmas,
    weighted_norm,
)
from kuramoto_dephasing import CharacteristicField, acceptance, characteristics, scheme
from kuramoto_dephasing.characteristics import _POLY_CAP, _taylor_terms
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


def test_joint_loop_holds_two_field_arrays(state, grid, result, monkeypatch):
    # D_n is written into D_{n-2}'s array, so every joint iterate returns
    # one of two arrays of the coarse grid and the loop frees none; the
    # certification, on the user's grid, takes one array of its own
    fields = []

    def spy(solver):
        def run(*args, **kwargs):
            fld, rep = solver(*args, **kwargs)
            fields.append(fld.deviation)
            return fld, rep
        return run

    monkeypatch.setattr(scheme, "picard_sweep", spy(scheme.picard_sweep))
    monkeypatch.setattr(scheme, "solve_fixed_point", spy(scheme.solve_fixed_point))
    again = outer_solve(state, grid, MU, WEIGHT)
    joint = fields[:-1]
    distinct = [a for i, a in enumerate(joint) if not any(a is b for b in joint[:i])]
    assert len(fields) == len(result.ledger.records) >= 4 and len(distinct) == 2
    assert {a.shape for a in distinct} == {(grid.n_times, COARSE_ANGLES, grid.n_omega)}
    assert again.field.deviation is fields[-1] and fields[-1].shape == grid.shape()
    assert not any(fields[-1] is a for a in joint)
    assert again.field.deviation.tobytes() == result.field.deviation.tobytes()


def test_joint_loop_fields_carry_their_own_row_sups(state, grid, result, monkeypatch):
    # every field the loop makes carries the row sups of its own array when
    # it is made, and the last joint one, written into a reused array, and
    # the returned one still do when the loop ends
    fields = []

    def spy(solver):
        def run(*args, **kwargs):
            fld, rep = solver(*args, **kwargs)
            assert fld._rows.tobytes() == characteristics.row_gaps(fld.deviation).tobytes()
            fields.append(fld)
            return fld, rep
        return run

    monkeypatch.setattr(scheme, "picard_sweep", spy(scheme.picard_sweep))
    monkeypatch.setattr(scheme, "solve_fixed_point", spy(scheme.solve_fixed_point))
    again = outer_solve(state, grid, MU, WEIGHT)
    last = fields[-2]
    assert again.field is fields[-1] and any(last.deviation is f.deviation for f in fields[:-3])
    for fld in (last, again.field):
        assert fld._rows.tobytes() == characteristics.row_gaps(fld.deviation).tobytes()


# -- the coarse joint loop ----------------------------------------------------

# angles the joint iterates of the module's solve run on: D's modes fall
# by about sup|D| / 2 ~ 1.4e-3 each, so m* = 6 and 2 m* + 2 = 14 -> 16
COARSE_ANGLES = 16
EPS = np.finfo(float).eps
# the coarse loop against the full-grid loop: z within 2 eps max|z|, D within
# 4 eps sup|D| (measured 0.0015 and 0.79), every ledger float within 1e-12
# relative, and the theta-sups (dev_norm, theta_diff_norm, the residuals)
# also within 4 eps times the ledger's largest dev_norm in absolute terms
# (measured 2.4): the fine grid's rounding noise off the coarse angles is
# not band-limited, so an interpolant does not reproduce it
Z_TOL_EPS, D_TOL_EPS, LEDGER_REL, SUP_TOL_EPS = 2.0, 4.0, 1e-12, 4.0
THETA_SUP_KEYS = {"dev_norm", "theta_diff_norm", "residuals"}


def _full_grid_solve(state, grid, mu, monkeypatch, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(scheme, "_coarse_angles", lambda g, s, bound: g.n_theta)
        return outer_solve(state, grid, mu, **kwargs)


def _ledger_floats(entry, key=""):
    # (key, value) of every number in a ledger dict, lists flattened
    if isinstance(entry, dict):
        for k, v in entry.items():
            yield from _ledger_floats(v, k)
    elif isinstance(entry, list):
        for v in entry:
            yield from _ledger_floats(v, key)
    elif isinstance(entry, float):
        yield key, entry


def test_joint_loop_angles_follow_the_mode_bound(state, grid):
    # exp_ref's bound mu g_dev ||z_free|| = 2.78e-3: m* = 6 -> 16 of 64 angles
    g64 = build_grid(PROFILE, t_max=16.0, dt=0.05, n_theta=64)
    assert scheme._coarse_angles(g64, state, 2.78e-3) == 16
    assert scheme._coarse_angles(grid, state, 2.78e-3) == COARSE_ANGLES
    # m* by brute force: the last m with bound (bound / 2)^(m - 1) above
    # 2^-53 bound
    for bound in (1e-9, 1e-4, 2.78e-3, 0.05, 0.1667, 0.5, 1.0, 1.9):
        m = 1
        while (bound / 2.0) ** m > 2.0**-53:
            m += 1
        need = max(8, 2 * m + 2, 1 + m + 2)
        want = next((n for n in (8, 16, 32) if n >= need), 64)
        assert scheme._coarse_angles(g64, state, bound) == want
    # a high mode needs more angles for the z trapezoid: K + m* + 2
    high = AsymptoticState(PROFILE, {1: 0.05, 12: 0.01}, "exponential", 0.9)
    assert scheme._coarse_angles(g64, high, 2.78e-3) == 32
    # and the state's own modes, 2 K + 2 (order_parameter_of's rule): K =
    # 20 needs 42, where K + m* + 2 = 28 would take 32 angles, which alias it
    higher = AsymptoticState(PROFILE, {1: 0.05, 20: 0.01}, "exponential", 0.9)
    assert scheme._coarse_angles(g64, higher, 2.78e-3) == 64
    result = outer_solve(higher, build_grid(PROFILE, t_max=4.0, dt=0.1, n_theta=64, n_omega=17),
                         MU, WEIGHT, tail_budget=1e-2)
    assert result.converged
    # a zero bound (mu = 0), one not below 2 and NaN keep the user's grid
    for bound in (0.0, 2.0, math.inf, math.nan):
        assert scheme._coarse_angles(g64, state, bound) == 64
    # a divisor of n_theta: 48 angles have none between 14 and 24
    g48 = build_grid(PROFILE, t_max=16.0, dt=0.05, n_theta=48)
    assert scheme._coarse_angles(g48, state, 2.78e-3) == 16
    g40 = build_grid(PROFILE, t_max=16.0, dt=0.05, n_theta=40)
    assert scheme._coarse_angles(g40, state, 2.78e-3) == 20


@pytest.mark.parametrize("config", ["test32", "exp_ref64"])
def test_coarse_loop_matches_the_full_grid_loop(state, grid, result, config, monkeypatch):
    # on exp_ref's grid, at a1's phase 0.7 rad, the weighted sup|D| of the
    # joint fields on 16 angles reads 0.998 of that on 64
    if config == "exp_ref64":
        state = AsymptoticState(PROFILE, {1: 0.05 * np.exp(0.7j)}, "exponential", 0.9)
        grid = build_grid(PROFILE, t_max=20.0, dt=0.05, n_theta=64)
        result = outer_solve(state, grid, MU, WEIGHT)
    full = _full_grid_solve(state, grid, MU, monkeypatch, weight=WEIGHT)
    assert result.n_outer == full.n_outer
    sweeps = [[r["contraction"]["sweeps"] for r in res.ledger.records] for res in (result, full)]
    assert sweeps[0] == sweeps[1]
    assert result.field.grid is grid and result.path.grid is grid
    z, zf = result.path.values, full.path.values
    assert np.max(np.abs(z - zf)) <= Z_TOL_EPS * EPS * np.max(np.abs(zf))
    dev, devf = result.field.deviation, full.field.deviation
    assert np.max(np.abs(dev - devf)) <= D_TOL_EPS * EPS * np.max(np.abs(devf))
    coarse, fine = (list(_ledger_floats(r.ledger.to_dict())) for r in (result, full))
    assert [k for k, _ in coarse] == [k for k, _ in fine]
    sup_scale = max(r["dev_norm"] for r in full.ledger.records)
    for (key, a), (_, b) in zip(coarse, fine):
        tol = LEDGER_REL * abs(b)
        if key in THETA_SUP_KEYS:
            tol = max(tol, SUP_TOL_EPS * EPS * sup_scale)
        assert abs(a - b) <= tol, key


@pytest.mark.parametrize("config", ["kernel_grid", "strong16"])
def test_loops_already_on_their_coarsest_grid_are_byte_identical(state, config, monkeypatch):
    # n_c = n_theta: 8 angles are a Grid's least, and the strong state's
    # modes fall by only ~1/12 each, so its 16 angles are all needed
    if config == "kernel_grid":
        g, st, mu, kwargs = build_grid(PROFILE, **KERNEL_GRID), state, MU, {"tail_budget": 1e-3}
    else:
        g = build_grid(PROFILE, t_max=20.0, dt=0.05, n_theta=16)
        st, mu, kwargs = AsymptoticState(PROFILE, {1: 0.3}, "exponential", 0.9), 0.5, {}
    calls = []
    rule = scheme._coarse_angles
    monkeypatch.setattr(scheme, "_coarse_angles", lambda *a: calls.append(rule(*a)) or calls[-1])
    res = outer_solve(st, g, mu, **kwargs)
    assert calls and set(calls) == {g.n_theta}
    full = _full_grid_solve(st, g, mu, monkeypatch, **kwargs)
    assert json.dumps(res.ledger.to_dict()) == json.dumps(full.ledger.to_dict())
    assert res.path.values.tobytes() == full.path.values.tobytes()
    assert res.field.deviation.tobytes() == full.field.deviation.tobytes()


def _weighted_sup(times, a):
    return float(np.max(WEIGHT.deviation_values(times) * np.abs(a).max(axis=(1, 2))))


def test_too_few_joint_angles_show_in_the_certification_distance(monkeypatch):
    # the tripwire: at a1 = 0.3, mu = 0.5 D's modes fall by ~1/12 each, and
    # 8 of 32 angles alias them; the certification, cold on the user's
    # grid, lands away from the interpolant of the last joint field
    st = AsymptoticState(PROFILE, {1: 0.3}, "exponential", 0.9)
    g = build_grid(PROFILE, t_max=20.0, dt=0.05, n_theta=32)
    times = g.times()
    full = outer_solve(st, g, 0.5)
    joint = []

    def spy(*args, **kwargs):
        fld, rep = characteristics.picard_sweep(*args, **kwargs)
        joint.append(fld.deviation.copy())
        return fld, rep

    monkeypatch.setattr(scheme, "_coarse_angles", lambda grid, s, bound: 8)
    monkeypatch.setattr(scheme, "picard_sweep", spy)
    res = outer_solve(st, g, 0.5)
    recs = res.ledger.records
    assert res.converged and res.ledger.all_finite()
    assert {a.shape[1] for a in joint} == {8} and res.field.grid is g
    moved = np.max(np.abs(res.path.values - full.path.values))
    assert 1e-13 < moved < 1e-9
    assert recs[-1]["theta_diff_norm"] > 1e3 * full.ledger.records[-1]["theta_diff_norm"]
    # every theta-sup in the ledger is a sup over the 32 angles of the
    # interpolant (held to an FFT route in test_characteristics); the
    # coarse sups differ from them
    fine = [characteristics.resample_angles(a, 32) for a in joint]
    differs = 0
    for k, rec in enumerate(recs[:-1]):
        want = _weighted_sup(times, fine[k])
        step = _weighted_sup(times, fine[k] - (fine[k - 1] if k else 0.0))
        for got, ref, own in ((rec["dev_norm"], want, _weighted_sup(times, joint[k])),
                              (rec["theta_diff_norm"], step, None)):
            assert abs(got - ref) <= 8 * EPS * max(want, 1e-300)
            differs += own is not None and abs(own - ref) > 1e-6 * ref
        assert rec["contraction"]["residuals"] == [rec["theta_diff_norm"]]
    assert differs >= 1
    gap = _weighted_sup(times, res.field.deviation - fine[-1])
    assert abs(recs[-1]["theta_diff_norm"] - gap) <= 8 * EPS * recs[-2]["dev_norm"]


def test_a_grown_joint_grid_resamples_the_field_before_it(state, grid, monkeypatch):
    # the loop's grid grows when a later bound asks for more angles: D_2,
    # swept on 16 angles, is interpolated onto 32 before iterate 3
    asked = []

    def rule(g, s, bound):
        asked.append(bound)
        return 16 if len(asked) <= 2 else 32

    full = _full_grid_solve(state, grid, MU, monkeypatch, weight=WEIGHT)
    monkeypatch.setattr(scheme, "_coarse_angles", rule)
    shapes = []
    sweep = scheme.picard_sweep

    def spy(*args, **kwargs):
        fld, rep = sweep(*args, **kwargs)
        shapes.append(fld.deviation.shape[1])
        return fld, rep

    monkeypatch.setattr(scheme, "picard_sweep", spy)
    res = outer_solve(state, grid, MU, WEIGHT)
    assert shapes[:3] == [16, 16, 32] and set(shapes[3:]) == {32}
    assert res.n_outer == full.n_outer
    assert np.max(np.abs(res.path.values - full.path.values)) <= (
        Z_TOL_EPS * EPS * np.max(np.abs(full.path.values)))
    assert np.max(np.abs(res.field.deviation - full.field.deviation)) <= (
        D_TOL_EPS * EPS * np.max(np.abs(full.field.deviation)))


# kernels one mu = 0.05 solve on KERNEL_GRID builds: one per sweep (its
# walk, which also reports them) and one per quadrature, less iterate 1's
# quadrature (of the zero field); iterate 2's sweep and the
# certification's first, both from D = 0, take the kernel of sup 0
KERNEL_GRID = dict(t_max=8.0, dt=0.05, n_theta=8, n_omega=33)
KERNELS_PER_SOLVE = 15


def test_solves_build_kernels_only_for_nonzero_fields(state, monkeypatch):
    g = build_grid(PROFILE, **KERNEL_GRID)
    kernels, sup_passes = [], []
    phase_kernel, row_gaps = characteristics.phase_kernel, characteristics.row_gaps

    def counted_kernel(bound):
        kernels.append(bound)
        return phase_kernel(bound)

    def counted_gaps(a, b=None, n_theta=None, fine=None):
        # a pass for the row sups of |D| alone, which a swept field carries
        if b is None and fine is None and n_theta in (None, a.shape[1]):
            sup_passes.append(a.shape)
        return row_gaps(a, b, n_theta, fine)

    # the sweeps, gamma_field and the quadrature all pick their tile
    # kernels through characteristics.tile_kernels, and every row sup of a
    # field comes from row_gaps
    monkeypatch.setattr(characteristics, "phase_kernel", counted_kernel)
    monkeypatch.setattr(characteristics, "row_gaps", counted_gaps)
    monkeypatch.setattr(scheme, "row_gaps", counted_gaps)
    free = outer_solve(state, g, 0.0, WEIGHT, tail_budget=1e-3)
    assert free.n_outer == 1 and kernels == [] and sup_passes == []
    res = outer_solve(state, g, MU, WEIGHT, tail_budget=1e-3)
    sweeps = [r["contraction"]["sweeps"] for r in res.ledger.records]
    assert sweeps[0] == 0 and len(sweeps) >= 3
    assert len(kernels) == sum(sweeps) + len(sweeps) - 1 == KERNELS_PER_SOLVE
    assert kernels.count(0.0) == 2 and all(bound >= 0.0 for bound in kernels)
    assert sup_passes == []


def test_order_parameter_of_a_built_field_reads_its_row_sups_once(state, result, monkeypatch):
    # a field built from an array carries no row sups: one pass serves the
    # zero-field exit and the quadrature's kernels, and z is that of the
    # swept field, which carries them
    passes = []
    row_gaps = characteristics.row_gaps

    def counted_gaps(a, b=None, n_theta=None, fine=None):
        passes.append(a.shape)
        return row_gaps(a, b, n_theta, fine)

    monkeypatch.setattr(characteristics, "row_gaps", counted_gaps)
    built = CharacteristicField(result.grid, result.field.deviation.copy(), result.mu)
    z = order_parameter_of(built, state, WEIGHT).values
    assert passes == [result.grid.shape()]
    carried = order_parameter_of(result.field, state, WEIGHT).values
    assert passes == [result.grid.shape()]
    assert z.view(np.uint64).tobytes() == carried.view(np.uint64).tobytes()


def test_order_parameter_is_second_order_in_dt(state):
    # z self-converges in dt: halving dt from 0.1 twice quarters the gap
    # between successive solves on the coarse times (measured 1.9991)
    paths = [
        outer_solve(state, build_grid(PROFILE, t_max=8.0, dt=dt, n_theta=8, n_omega=33),
                    MU, WEIGHT, tail_budget=1e-3).path.values
        for dt in (0.1, 0.05, 0.025)
    ]
    coarse, mid, fine = paths[0], paths[1][::2], paths[2][::4]
    order = math.log2(np.max(np.abs(coarse - mid)) / np.max(np.abs(mid - fine)))
    assert 1.9 <= order <= 2.1


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


# -- each certificate fails on the defect it exists to catch ------------------
# doctored copies of the shared solve's ledger and reconstruction, fed to the
# checking code and to the acceptance criteria that read it, so no solve runs


def _criterion(check, result=None, recon=None):
    ctx = SimpleNamespace(exp_result=lambda: result, exp_recon=lambda: recon,
                          seconds=lambda key: 0.0)
    return check(ctx).passed


def _doctored(result, edit, index=-1):
    ledger = copy.deepcopy(result.ledger)
    edit(ledger.records[index])
    return SimpleNamespace(ledger=ledger, weight=result.weight, mu=result.mu,
                           converged=result.converged, n_outer=result.n_outer)


def _set_contraction_ratio(quotient):
    def edit(record):
        record["contraction"]["ratios"][0] = quotient * record["contraction"]["bound"]
    return edit


def _set_estimrn_ratio(ratio):
    def edit(record):
        record["estimrn_ratio"] = ratio
    return edit


@pytest.mark.parametrize("edit, block, check", [
    (_set_contraction_ratio(1.1), "contraction", acceptance.c02_contraction),
    (_set_estimrn_ratio(1.06), "deviation_bound", acceptance.c03_deviation_bound),
], ids=["c02-ratio-1.1x-bound", "c03-estimrn-1.06"])
def test_an_explicit_bound_broken_past_its_slack_fails(result, edit, block, check):
    assert _criterion(check, result)
    bad = _doctored(result, edit)
    out = verify_lemmas(bad.ledger, bad.weight, bad.mu)
    assert not out["explicit"][block]["pass"] and not out["all_explicit_pass"]
    assert not _criterion(check, bad)


@pytest.mark.parametrize("edit", [_set_contraction_ratio(1.04), _set_estimrn_ratio(1.04)],
                         ids=["contraction", "estimrn"])
def test_an_explicit_bound_within_its_slack_passes(result, edit):
    bad = _doctored(result, edit)
    assert verify_lemmas(bad.ledger, bad.weight, bad.mu)["all_explicit_pass"]


def test_a_path_lipschitz_quotient_above_its_slack_fails(result):
    # the last field's step scaled so that its quotient reads 1.06
    quotients = verify_lemmas(result.ledger, result.weight, result.mu)[
        "explicit"]["path_lipschitz"]["ratios"]
    assert len(quotients) == len(result.ledger.records) - 1 and quotients[-1] < 1.0

    def edit(record):
        record["theta_diff_norm"] *= 1.06 / quotients[-1]

    bad = _doctored(result, edit)
    out = verify_lemmas(bad.ledger, bad.weight, bad.mu)["explicit"]["path_lipschitz"]
    assert out["ratios"][-1] == pytest.approx(1.06) and not out["pass"]


def test_a_mass_off_by_2e_6_fails(recon):
    assert _criterion(acceptance.c08_mass, recon=recon)
    mass = recon.mass.copy()
    mass[1] = 1.0 + 2e-6
    bad = dataclasses.replace(recon, mass=mass)
    assert not bad.mass_ok() and not _criterion(acceptance.c08_mass, recon=bad)
    mass[1] = 1.0 + 0.5e-6
    assert dataclasses.replace(recon, mass=mass).mass_ok()


def test_a_nan_deviation_bound_ratio_before_the_last_record_fails_c03(result):
    # in record 2, where Python's max, which skips a NaN unless it comes
    # first, would pass it
    bad = _doctored(result, _set_estimrn_ratio(math.nan), index=1)
    out = verify_lemmas(bad.ledger, bad.weight, bad.mu)
    assert not out["explicit"]["deviation_bound"]["pass"]
    assert not _criterion(acceptance.c03_deviation_bound, bad)


def test_a_nan_contraction_ratio_makes_the_worst_quotient_nan(result):
    good = verify_lemmas(result.ledger, result.weight, result.mu)["explicit"]["contraction"]
    # for finite ratios the quotient is the one Python's max gave
    quotients = [q / r["contraction"]["bound"] for r in result.ledger.records
                 for q in r["contraction"]["ratios"]]
    assert len(quotients) >= 3 and good["worst_quotient"] == max([0.0] + quotients)

    def edit(record):
        record["contraction"]["ratios"][1] = math.nan

    bad = _doctored(result, edit)
    out = verify_lemmas(bad.ledger, bad.weight, bad.mu)["explicit"]["contraction"]
    assert math.isnan(out["worst_quotient"]) and not out["pass"]
    assert not _criterion(acceptance.c02_contraction, bad)


@pytest.mark.parametrize("ratio", [0.6, math.nan], ids=["0.6", "nan"])
def test_an_outer_cauchy_ratio_above_its_bound_or_nan_fails_c04(result, ratio):
    # in the last record, after the first ratio at n >= 3, where Python's
    # max would skip a NaN
    late = [r["cauchy_ratio"] for r in result.ledger.records if r["n"] >= 3]
    assert len(late) >= 2 and result.ledger.records[-1]["n"] >= 3
    assert _criterion(acceptance.c04_outer_cauchy, result)
    bad = _doctored(result, lambda record: record.update(cauchy_ratio=ratio))
    assert not _criterion(acceptance.c04_outer_cauchy, bad)


def _decay_context(kind, t_max, bump_after=None):
    # an exact decay path, 0.05 e^{-t} or 0.05 <t>^-2 on a dt = 0.05 grid,
    # as both reference solves' r(t) and the exponential dephasing, with a
    # 1.2x bump after ``bump_after``
    t = 0.05 * np.arange(round(t_max / 0.05) + 1)
    r = 0.05 * (np.exp(-t) if kind == "exponential" else 1.0 / (1.0 + t * t))
    if bump_after is not None:
        r = np.where(t > bump_after, 1.2 * r, r)
    res = SimpleNamespace(grid=SimpleNamespace(times=lambda: t), path=SimpleNamespace(r=lambda: r))
    return SimpleNamespace(exp_result=lambda: res, poly_result=lambda: res,
                           exp_recon=lambda: SimpleNamespace(dephasing=r),
                           seconds=lambda key: 0.0)


@pytest.mark.parametrize("check, kind, t_max, bump_after", [
    (acceptance.c05_exponential_decay, "exponential", 20.0, 15.0),
    (acceptance.c06_polynomial_decay, "polynomial", 40.0, 30.0),
], ids=["c05", "c06"])
def test_a_bump_after_the_fit_window_fails_the_decay_criteria(check, kind, t_max, bump_after):
    # c05 fits on (2, 15); c06 fits on (5, 40), the whole grid, so its bump
    # comes after t = 30, the early three quarters that set the envelope
    assert check(_decay_context(kind, t_max)).passed
    assert not check(_decay_context(kind, t_max, bump_after=bump_after)).passed


def test_a_field_row_moved_by_1e_5_against_the_oracle_fails_c07(result):
    oracle = characteristics.backward_ode_oracle(result.grid, result.path.values, result.mu)
    moved = result.field.deviation.copy()
    moved[result.grid.n_times // 2] += 1e-5
    good = oracle.sup_distance(result.field)
    bad = oracle.sup_distance(CharacteristicField(result.grid, moved, result.mu))
    assert bad >= 9e-6

    def c07(gaps):
        ctx = SimpleNamespace(oracle_gaps=lambda: gaps, exp_result=lambda: result,
                              poly_result=lambda: result, seconds=lambda key: 0.0)
        return acceptance.c07_dual_method(ctx).passed

    assert c07([good, good])
    assert not c07([good, bad]) and not c07([bad, good])


def _particle_sups(canonical, shrink):
    # sup gaps of eight seeds at N = 1e4 and 4e4, medians 0.015 and
    # 0.015 / shrink, with the canonical seed's replaced
    sups = {10_000: [0.015] * 8, 40_000: [0.015 / shrink] * 8}
    sups[10_000][acceptance.CANONICAL_PARTICLE_SEED] = canonical
    return SimpleNamespace(particle_runs=lambda: sups, seconds=lambda key: 0.0)


@pytest.mark.parametrize("canonical, shrink, passed", [
    (0.015, 1.875, True), (0.03, 1.875, False), (0.015, 1.35, False),
], ids=["good", "canonical-0.03", "shrink-1.35"])
def test_c09_fails_a_canonical_path_0_03_off_or_a_small_shrink(canonical, shrink, passed):
    assert acceptance.c09_particles(_particle_sups(canonical, shrink)).passed is passed


@pytest.mark.parametrize("edit", [
    lambda ledger: setattr(ledger, "free_norm", math.nan),
    lambda ledger: ledger.records[-1].update(kappa=math.nan),
    lambda ledger: ledger.records[-1]["contraction"]["ratios"].__setitem__(1, math.nan),
    lambda ledger: ledger.records[-1].update(kappa=math.inf),
    lambda ledger: ledger.records[-1]["contraction"]["ratios"].__setitem__(1, -math.inf),
    lambda ledger: ledger.records[-1]["contraction"]["ratios"].__setitem__(1, np.float64("nan")),
], ids=["top-level", "record", "nested-list", "record-inf", "nested-list-minus-inf",
        "nested-list-numpy-nan"])
def test_one_nan_anywhere_in_a_ledger_makes_it_not_finite(result, edit):
    ledger = copy.deepcopy(result.ledger)
    assert ledger.all_finite()
    edit(ledger)
    assert not ledger.all_finite()


def test_mass_jacobian_positivity(recon):
    assert recon.mass_ok(1e-6)
    assert np.all(recon.jacobian_min > 0.0)
    assert recon.min_value > 0.0
    assert np.array_equal(recon.times, [0.0, 5.0, 10.0])


def test_reconstruct_reports_the_gamma_margin(result, recon):
    # the running bound |Gamma| <= beta of the integrals the density is
    # built from, as gamma_field computes it: max |Gamma| / beta over the
    # rows with beta > 0, at most 1 to rounding and above 0 on a real path
    assert 0.0 < recon.gamma_margin <= 1.0 + 1e-12
    margin = gamma_field(result.field, result.path.values,
                         lambda sl, angles, *blocks: None)
    assert recon.gamma_margin == margin


@pytest.mark.parametrize("margin, ok", [(1.0 + 1e-12, True), (1.0000000000000002, True),
                                        (1.0 + 2e-12, False), (math.nan, False)])
def test_gamma_ok_holds_up_to_its_rounding_slack(recon, margin, ok):
    # one ulp above 1 is what the acceptance exponential solve reads
    assert recon.gamma_ok()
    assert dataclasses.replace(recon, gamma_margin=margin).gamma_ok() is ok


def test_dephasing_decays_by_fitted_factor(result, recon, grid):
    times = grid.times()
    model = fit_decay(times, recon.dephasing, "exponential", window=(2.0, 12.0))
    mid = grid.n_times // 2
    expected = recon.dephasing[0] * float(np.exp(-model.rate * times[mid]))
    assert recon.dephasing[mid] <= 1.05 * expected


def test_reconstruct_rejects_offgrid_time(result):
    # non-finite times are refused by name, not by a failed int conversion
    for t in (0.025, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="is not a grid time"):
            reconstruct(result, times=(t,))


@pytest.mark.parametrize("t_max, dt, expected", [(4.0, 0.1, [0.0, 2.0, 4.0]),
                                                  (2.0, 0.25, [0.0, 1.0, 2.0]),
                                                  (16.0, 0.05, [0.0, 5.0, 10.0])])
def test_reconstruct_defaults_to_three_times_on_every_grid(state, result, t_max, dt, expected):
    # 0, 5 and 10, or the first, middle and last time of a shorter grid:
    # t = 5 on a t_max = 4 grid used to be refused as not a grid time
    if t_max != 16.0:
        grid = build_grid(PROFILE, t_max=t_max, dt=dt, n_theta=8, n_omega=17)
        result = outer_solve(state, grid, MU, WEIGHT, tail_budget=1.0)
    recon = reconstruct(result)
    assert recon.times.tolist() == pytest.approx(expected, abs=1e-12) and recon.mass_ok()


def test_reconstruct_refuses_empty_or_nested_times_before_any_work(result, monkeypatch):
    # refused by name before the coupling integrals are computed, not by a
    # reduction over an empty selection or a failed float conversion
    def no_gamma(*args):
        raise AssertionError("gamma_field ran")

    monkeypatch.setattr(scheme, "gamma_field", no_gamma)
    for times in ((), [], [[0.0, 5.0]], np.zeros((2, 1))):
        with pytest.raises(ValueError, match="^times must be a non-empty 1-D sequence"):
            reconstruct(result, times=times)


# -- the dephasing distance, formed without cancellation ---------------------

# |new - direct| allowed, in units of eps * max f_inf on the label grid: the
# direct form A(theta + D) - A(theta) e^{-mu Gamma_cos} carries a few eps of
# rounding from its float64 cos, sin and exp (measured 1.1-1.4 on single-mode
# states and 2.8 with modes {1, 2, 3}); the difference form loses no digits
DEPHASING_TOL_EPS = 4.0

DEPHASING_STATES = {
    "weak": (PROFILE, {1: 0.05 * np.exp(0.7j)}, MU),
    "strong": (PROFILE, {1: 0.3 * np.exp(-2.1j)}, 0.5),
    "laplace": (FrequencyProfile("laplace", 1.0), {1: 0.05j}, MU),
    "modes123": (PROFILE, {1: 0.1, 2: 0.15j, 3: -0.05 + 0.02j}, 0.3),
}


@pytest.fixture(scope="module", params=list(DEPHASING_STATES))
def frozen_path_result(request):
    # the fixed point of the free path's map, on 16 angles: a solved field
    # with the decay of a real solve, without the joint loop
    profile, modes, mu = DEPHASING_STATES[request.param]
    state = AsymptoticState(profile, modes, "polynomial", 2.0)
    grid = build_grid(profile, t_max=16.0, dt=0.05, n_theta=16, n_omega=65)
    weight = WeightSpec("polynomial", 2.0)
    z = free_order_parameter(state, grid.times())
    field, _ = solve_fixed_point(grid, z, mu, weight)
    path = scheme.OrderParameterPath(grid, z, weight)
    return scheme.SolveResult(state, grid, mu, weight, path, field, None, 0, True)


def _angular(state, x):
    # A(x) = 1 + sum_k 2 (Re a_k cos kx - Im a_k sin kx) in the dtype of x,
    # with the operations of AsymptoticState.angular_factor
    out = np.ones_like(x)
    for k, a in state.modes.items():
        out = out + 2.0 * (a.real * np.cos(k * x) - a.imag * np.sin(k * x))
    return out


def _direct_dephasing(res, dtype):
    # the dephasing rows by the direct form, in ``dtype``, from the cosine
    # integrals gamma_field hands out
    g, state = res.grid, res.state
    cos_part = np.empty(g.shape())

    def keep(sl, angles, sin_tile, cos_tile, cos_m1, sin_d):
        cos_part[sl, angles] = cos_tile

    gamma_field(res.field, res.path.values, keep)
    theta = g.theta().astype(dtype)
    gdens = state.profile.density(g.omega_nodes).astype(dtype)
    diff = _angular(state, theta[None, :, None] + res.field.deviation.astype(dtype))
    diff -= _angular(state, theta)[:, None] * np.exp(-dtype(res.mu) * cos_part.astype(dtype))
    rows = (np.abs(diff) * gdens).reshape(g.n_times, -1).max(axis=1)
    return rows / (2.0 * dtype(math.pi))


def _max_f_inf(res):
    g = res.grid
    # f_inf = A(theta) g(omega) / 2 pi on the labels
    ang = res.state.angular_factor(g.theta())[:, None]
    return float(np.max(ang * g.profile.density(g.omega_nodes)[None, :] / (2.0 * math.pi)))


def test_dephasing_matches_the_direct_form(frozen_path_result):
    res = frozen_path_result
    new = reconstruct(res, times=(0.0,)).dephasing
    old = _direct_dephasing(res, np.float64)
    # the rows decay over the horizon, so the bound is not met by zeros
    assert new[0] > 1e-4 and new[-2] < 1e-2 * new[0]
    gap = float(np.max(np.abs(new - old)))
    assert gap <= DEPHASING_TOL_EPS * np.finfo(float).eps * _max_f_inf(res)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than float64 here")
def test_dephasing_is_closer_than_the_direct_form_to_long_double(frozen_path_result):
    # both against the direct form evaluated in long double from the same
    # float64 D and Gamma_cos
    res = frozen_path_result
    new = reconstruct(res, times=(0.0,)).dephasing
    old = _direct_dephasing(res, np.float64)
    exact = _direct_dephasing(res, np.longdouble)
    err_new = float(np.max(np.abs(new - exact)))
    err_old = float(np.max(np.abs(old - exact)))
    assert 0.0 < err_new <= 0.25 * err_old


def test_reconstruct_takes_no_angular_factor_of_field_sized_input(result, monkeypatch):
    # per-cell trig in the dephasing loop would show as an angular factor
    # of a block or a field; only the angle grid may be seen
    sizes = []
    factor = AsymptoticState.angular_factor

    def recording(self, theta):
        sizes.append(np.size(theta))
        return factor(self, theta)

    monkeypatch.setattr(AsymptoticState, "angular_factor", recording)
    reconstruct(result, times=(0.0, 5.0))
    assert sizes and max(sizes) <= result.grid.n_theta


def test_a_high_mode_takes_one_kernel_per_block(monkeypatch):
    # modes {1, 10^6}: E_{10^6} from one phase kernel of 10^6 D on every
    # block, picked from the block's rows; E_1 is gamma_field's pair and
    # needs none
    state = AsymptoticState(PROFILE, {1: 0.05, 10**6: 0.01}, "exponential", 0.9)
    g = build_grid(PROFILE, t_max=4.0, dt=0.05, n_theta=8, n_omega=17)
    weight = WeightSpec("exponential", 0.9)
    z = 0.05 * np.exp(-g.times()) + 0.0j
    field, _ = solve_fixed_point(g, z, MU, weight)
    result = scheme.SolveResult(state, g, MU, weight, scheme.OrderParameterPath(g, z, weight),
                                field, None, 0, True)
    sups, blocks = [], []
    phase_kernel, add_terms = scheme.phase_kernel, scheme._add_mode_terms

    def counted_kernel(sup):
        sups.append(sup)
        return phase_kernel(sup)

    def counted_terms(acc, modes, angles, phase, block, sup, tmp):
        # the block's sup comes only with a mode above 1
        if sup is not None:
            blocks.append(10**6 * sup)
        add_terms(acc, modes, angles, phase, block, sup, tmp)

    monkeypatch.setattr(scheme, "phase_kernel", counted_kernel)
    monkeypatch.setattr(scheme, "_add_mode_terms", counted_terms)
    recon = reconstruct(result, times=(0.0,))
    assert blocks and sorted(sups) == sorted(blocks)
    assert np.all(np.isfinite(recon.dephasing))
    # a state with mode 1 alone takes no kernel in reconstruct
    single = dataclasses.replace(result, state=AsymptoticState(PROFILE, {1: 0.05}, "exponential", 0.9))
    sups.clear()
    blocks.clear()
    reconstruct(single, times=(0.0,))
    assert sups == [] and blocks == []


def test_higher_modes_stay_within_the_direct_form_bound():
    # modes 5 and 7 take the kernels of 5D and 7D, whose roundings differ
    # from those of the pair of D: the same bound holds
    state = AsymptoticState(PROFILE, {1: 0.1, 5: 0.04j, 7: -0.03 + 0.01j}, "polynomial", 2.0)
    grid = build_grid(PROFILE, t_max=16.0, dt=0.05, n_theta=16, n_omega=65)
    weight = WeightSpec("polynomial", 2.0)
    z = free_order_parameter(state, grid.times())
    field, _ = solve_fixed_point(grid, z, 0.3, weight)
    res = scheme.SolveResult(state, grid, 0.3, weight, scheme.OrderParameterPath(grid, z, weight),
                             field, None, 0, True)
    new = reconstruct(res, times=(0.0,)).dephasing
    gap = float(np.max(np.abs(new - _direct_dephasing(res, np.float64))))
    assert new[0] > 1e-4
    assert gap <= DEPHASING_TOL_EPS * np.finfo(float).eps * _max_f_inf(res)


def test_mu_zero_is_free_transport(state, grid):
    res = outer_solve(state, grid, 0.0, WEIGHT)
    assert res.converged and res.n_outer == 1
    assert res.ledger.records[0]["contraction"]["sweeps"] == 0
    free = free_order_parameter(state, grid.times()).astype(complex)
    assert res.path.values.view(np.uint64).tobytes() == free.view(np.uint64).tobytes()
    rec = reconstruct(res, times=(0.0,))
    assert np.max(rec.dephasing) == 0.0


def test_uniform_state_stays_uniform(grid):
    state = AsymptoticState(PROFILE, {}, "exponential", 0.9)
    res = outer_solve(state, grid, MU, WEIGHT)
    assert res.n_outer == 1
    assert res.ledger.records[0]["contraction"]["sweeps"] == 0
    assert np.max(res.path.r()) == 0.0
    # a state with no modes builds no E_k and adds no mode term
    recon = reconstruct(res)
    assert np.max(recon.dephasing) == 0.0


def test_large_mu_refused_with_ledger(state, grid):
    with pytest.raises(NotConvergingError) as info:
        outer_solve(state, grid, 10.0, WEIGHT)
    ledger = info.value.ledger
    assert len(ledger.records) >= 1
    assert ledger.all_finite()
    assert ledger.status != "converged"


def test_a_negative_coupling_is_refused_before_any_sweep(state, grid, monkeypatch):
    # mu = -0.05 used to return converged with a negative contraction bound,
    # which verify_lemmas then reported as a failed contraction check
    sweep = scheme.picard_sweep
    swept = []

    def counted(*args, **kwargs):
        swept.append(1)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(scheme, "picard_sweep", counted)
    with pytest.raises(ValueError, match=r"^mu must be finite and >= 0, got -0.05$"):
        outer_solve(state, grid, -0.05, WEIGHT)
    # the refusal comes before the first iterate's sweep is called
    assert swept == []


def test_tail_budget_guards_small_horizon(state):
    short = build_grid(PROFILE, t_max=12.0, dt=0.05, n_theta=16)
    with pytest.raises(TailBudgetError, match="increase t_max"):
        outer_solve(state, short, MU, WEIGHT)


def test_inner_refusal_wrapped(state, grid):
    # mu * ||free z|| * gain >= 1 already on the second outer step
    with pytest.raises(NotConvergingError):
        outer_solve(state, grid, 60.0, WEIGHT)


def _nan_quadrature(field, rows, u, z, quadrature=scheme.phase_quadrature):
    # the quadrature, then one NaN in the path it wrote
    quadrature(field, rows, u, z)
    z[-1] = math.nan


# refusal -> (mu, t_max, dt, n_omega, (module, name, stand-in) or None,
# error, status pattern, records); every grid has 16 angles
REFUSALS = {
    "non_contractive": (60.0, 16.0, 0.1, 33, None, NotConvergingError,
                        r"non-contractive at n=2: bound \S+ >= 1", 1),
    "cauchy": (10.0, 16.0, 0.1, 33, None, NotConvergingError,
               r"Cauchy ratios >= 1 at n=2,3: mu too large for this state", 3),
    "tail_budget": (MU, 12.0, 0.05, 129, None, TailBudgetError,
                    r"tail budget exceeded: certified tail \S+ rad > budget 1\.0e-08; "
                    r"increase t_max", 6),
    "inner_solve": (MU, 16.0, 0.1, 33, (characteristics, "MAX_SWEEPS", 1), NotConvergingError,
                    r"inner solve failed at n=7: .*1 sweeps.*", 6),
    "outer_budget": (MU, 16.0, 0.1, 33, (scheme, "MAX_OUTER", 2), NotConvergingError,
                     r"no convergence in 2 outer iterations", 2),
    "nonfinite": (MU, 16.0, 0.1, 33, (scheme, "phase_quadrature", _nan_quadrature),
                  NotConvergingError, r"nonfinite order parameter at n=2", 1),
}


@pytest.mark.parametrize("name", list(REFUSALS))
def test_every_refusal_is_its_ledger_status_and_carries_its_ledger(state, name, monkeypatch):
    # each refusal leaves through scheme._refuse: the message is the status,
    # and the ledger holds every iterate that finished, all finite
    mu, t_max, dt, n_omega, patch, error, status, n_records = REFUSALS[name]
    if patch is not None:
        monkeypatch.setattr(*patch)
    small = build_grid(PROFILE, t_max=t_max, dt=dt, n_theta=16, n_omega=n_omega)
    with pytest.raises(NotConvergingError) as info:
        outer_solve(state, small, mu, WEIGHT)
    assert type(info.value) is error
    ledger = info.value.ledger
    assert str(info.value) == ledger.status
    assert re.fullmatch(status, ledger.status)
    assert [r["n"] for r in ledger.records] == list(range(1, n_records + 1))
    assert ledger.all_finite()


def test_every_raise_in_outer_solve_goes_through_refuse():
    tree = ast.parse(inspect.getsource(scheme.outer_solve))
    raises = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    assert len(raises) == 6
    for node in raises:
        call = node.exc
        assert isinstance(call, ast.Call) and isinstance(call.func, ast.Name), node.lineno
        assert call.func.id == "_refuse", node.lineno


def test_weight_overflowing_at_t_max_is_a_grid_error():
    # e^{0.9 * 800} is inf, so every weighted norm of the zero path would
    # be inf * 0 = NaN and the refusal would blame the physics
    from kuramoto_dephasing import GridError

    state = AsymptoticState(PROFILE, {1: 0.05}, "exponential", 0.9)
    grid = build_grid(PROFILE, t_max=800.0, dt=1.0, n_theta=8, n_omega=8)
    with pytest.raises(GridError, match="overflows"):
        outer_solve(state, grid, MU)


@pytest.mark.parametrize("k", [4, 8], ids=["half_n_theta", "n_theta"])
def test_a_mode_the_angle_grid_aliases_is_refused_before_any_sweep(k, monkeypatch):
    # on 8 angles mode 8 reads as mode 0: the solve used to return
    # converged with r = 0, and reconstruct then read mass 1.1
    from kuramoto_dephasing import GridError

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep ran")

    monkeypatch.setattr(scheme, "picard_sweep", no_sweep)
    monkeypatch.setattr(scheme, "solve_fixed_point", no_sweep)
    grid = build_grid(PROFILE, t_max=16.0, dt=0.05, n_theta=8)
    state = AsymptoticState(PROFILE, {1: 0.05, k: 0.05}, "exponential", 0.9)
    message = f"mode {k} is not resolved by n_theta = 8: modes must be below n_theta/2 = 4"
    with pytest.raises(GridError) as info:
        outer_solve(state, grid, MU, WEIGHT)
    assert str(info.value) == message
    # the highest resolved mode passes the same rule
    grid.check_modes({3: 0.05})


# -- the two routes of the phase kernel to e^{iD} - 1 ------------------------

# sup distance allowed between the polynomial and the trig route of a solve:
# both are within a few units in the last place of e^{iD} - 1
ROUTE_TOL = 1e-14


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-_POLY_CAP, _POLY_CAP), min_size=1, max_size=32))
def test_polynomial_phase_minus_one_matches_the_trig_form(values):
    # the number of Taylor terms follows from the data's own sup
    dev = np.array(values)
    sup = float(np.abs(dev).max())
    assert _taylor_terms(sup) is not None
    poly, trig = np.empty((2, dev.size)), np.empty((2, dev.size))
    scratch = np.empty(dev.size)
    characteristics.phase_kernel(sup)(dev, poly[0], poly[1], scratch)
    characteristics.phase_kernel(np.inf)(dev, trig[0], trig[1], scratch)
    # four units in the last place of the trig value (np.spacing is the
    # subnormal step near zero)
    assert np.all(np.abs(poly - trig) <= 4.0 * np.abs(np.spacing(trig)))
    assert np.all(poly[0] <= 0.0)
    assert np.array_equal(np.sign(poly[1]), np.sign(dev))
    assert np.all(poly[:, dev == 0.0] == 0.0)


def _quadrature_routes(field, state, monkeypatch):
    # the Taylor terms of every kernel built (None: the trig form), in tile
    # order, and the path; one quadrature builds one kernel per tile, at
    # the largest |D| of that tile's rows, taken here from the whole field
    routes = []
    phase_kernel = characteristics.phase_kernel
    rows = np.abs(field.deviation).reshape(field.grid.n_times, -1).max(axis=1)
    tiles = list(characteristics.time_tiles(field.grid.shape()))
    assert len(tiles) > 1
    tile_sups = iter([rows[sl].max() for sl in tiles])

    def spy(sup):
        assert sup == next(tile_sups)
        routes.append(characteristics._taylor_terms(sup))
        return phase_kernel(sup)

    with monkeypatch.context() as mp:
        mp.setattr(characteristics, "phase_kernel", spy)
        z = scheme.order_parameter_of(field, state, WEIGHT).values
    assert next(tile_sups, None) is None
    return routes, z


def test_polynomial_route_solve_matches_the_trig_route(state, grid, result, monkeypatch):
    assert _taylor_terms(result.field.sup()) is not None
    # no field's sup lies below -1: every sweep, quadrature and coupling
    # integral takes the trig route
    monkeypatch.setattr(characteristics, "_POLY_CAP", -1.0)
    trig = outer_solve(state, grid, MU, WEIGHT)
    assert [r["contraction"]["sweeps"] for r in trig.ledger.records] == [
        r["contraction"]["sweeps"] for r in result.ledger.records
    ]
    assert np.max(np.abs(result.path.values - trig.path.values)) <= ROUTE_TOL
    assert np.max(np.abs(result.field.deviation - trig.field.deviation)) <= ROUTE_TOL


def test_quadrature_route_follows_the_exact_sup(state, grid, result, monkeypatch):
    # each tile's terms follow the exact sup of its own rows: fewer on the
    # decayed late tiles than where the field peaks, all 9 on the tile at
    # the cap, and the trig form on the tiles above it
    dev = result.field.deviation
    at = CharacteristicField(grid, dev * (_POLY_CAP / result.field.sup()), MU)
    above = CharacteristicField(grid, dev * (1.5 / result.field.sup()), MU)
    assert at.sup() <= _POLY_CAP < above.sup()
    routes, _ = _quadrature_routes(result.field, state, monkeypatch)
    assert max(routes) == _taylor_terms(result.field.sup()) and min(routes) < max(routes)
    routes, z_poly = _quadrature_routes(at, state, monkeypatch)
    assert None not in routes and max(routes) == 9 and min(routes) < 9
    routes = _quadrature_routes(above, state, monkeypatch)[0]
    assert None in routes and set(routes) != {None}
    # at the cap, where the polynomials are longest, they still agree with
    # the trig route
    monkeypatch.setattr(characteristics, "_POLY_CAP", -1.0)
    routes, z_trig = _quadrature_routes(at, state, monkeypatch)
    assert set(routes) == {None}
    assert np.max(np.abs(z_poly - z_trig)) <= ROUTE_TOL
