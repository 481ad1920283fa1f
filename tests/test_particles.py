"""Finite-ensemble dynamics: exact identities, conservation, and the
Monte Carlo agreement with the kinetic solver at CLT accuracy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuramoto_dephasing import (
    AsymptoticState,
    FrequencyProfile,
    ParticleEnsemble,
    build_grid,
    empirical_order_parameter,
    free_order_parameter,
    init_from_solution,
    outer_solve,
    simulate,
    step,
)
from kuramoto_dephasing import particles

TWO_PI = 2.0 * np.pi
PROFILE = FrequencyProfile("lorentzian", 1.0)


@pytest.fixture(scope="module")
def state():
    return AsymptoticState(PROFILE, {1: 0.05}, "exponential", 0.9)


@pytest.fixture(scope="module")
def grid():
    return build_grid(PROFILE, t_max=16.0, dt=0.05, n_theta=32)


@pytest.fixture(scope="module")
def free_result(state, grid):
    return outer_solve(state, grid, 0.0)


@pytest.fixture(scope="module")
def coupled_result(state, grid):
    return outer_solve(state, grid, 0.05)


def test_single_particle_has_unit_modulus():
    ens = ParticleEnsemble(np.array([0.37]), np.array([1.1]), mu=0.5)
    assert abs(empirical_order_parameter(ens)) == pytest.approx(1.0, abs=1e-15)


def test_antipodal_pair_cancels():
    ens = ParticleEnsemble(np.array([0.2, 0.2 + np.pi]), np.zeros(2), mu=0.0)
    assert abs(empirical_order_parameter(ens)) < 1e-15


def test_four_point_lattice_cancels():
    ens = ParticleEnsemble(np.arange(4) * (np.pi / 2), np.zeros(4), mu=0.0)
    assert abs(empirical_order_parameter(ens)) < 1e-15


def test_mu_zero_flow_is_linear():
    rng = np.random.default_rng(5)
    th = rng.uniform(0.0, TWO_PI, 256)
    om = rng.normal(0.0, 1.0, 256)
    ens = ParticleEnsemble(th, om, mu=0.0)
    _, _, fin = simulate(ens, dt=0.01, n_steps=700)
    assert np.max(np.abs(fin.phases - (th + 7.0 * om) % TWO_PI)) < 1e-10


def test_single_particle_free_rotation_any_mu():
    # the self-field torque sin(t - t) cancels exactly even in the
    # reduced-precision stage kernel, so the orbit is pure rotation
    ens = ParticleEnsemble(np.array([1.234]), np.array([0.7]), mu=1.0)
    _, z, fin = simulate(ens, dt=0.01, n_steps=1000)
    assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-14
    assert fin.phases[0] == pytest.approx((1.234 + 7.0) % TWO_PI, abs=1e-12)


def test_frequencies_are_constants_of_motion():
    rng = np.random.default_rng(11)
    ens = ParticleEnsemble(
        rng.uniform(0.0, TWO_PI, 128), rng.normal(0.0, 1.0, 128), mu=0.9
    )
    _, _, fin = simulate(ens, dt=0.02, n_steps=300)
    assert np.array_equal(ens.freqs, fin.freqs)


def test_identical_frequencies_synchronize():
    rng = np.random.default_rng(3)
    ens = ParticleEnsemble(rng.uniform(0.0, TWO_PI, 500), np.full(500, 0.3), mu=1.0)
    _, z, _ = simulate(ens, dt=0.01, n_steps=2000, record_every=10)
    r = np.abs(z)
    assert r[-1] > 0.99
    late = r[r.size // 2 :]
    assert np.all(np.diff(late) > -1e-9)


def test_free_ensemble_tracks_kinetic_order_parameter(state, free_result):
    ens, _ = init_from_solution(free_result.field, state, 10_000, seed=1)
    times, z, _ = simulate(ens, dt=0.01, n_steps=1600, record_every=5)
    free = free_order_parameter(state, times)
    assert np.max(np.abs(z - free)) < 3.0 / np.sqrt(10_000)


def test_sampling_matches_coupled_solution_at_t0(state, coupled_result):
    ens, _ = init_from_solution(coupled_result.field, state, 10_000, seed=1)
    gap = abs(empirical_order_parameter(ens) - coupled_result.path.values[0])
    assert gap < 3.0 / np.sqrt(10_000)


def test_heavy_tail_resampling_is_reported(state, coupled_result):
    # the Lorentzian puts ~0.8% of its mass beyond the quadrature span
    _, n_resampled = init_from_solution(coupled_result.field, state, 10_000, seed=1)
    assert n_resampled > 0


def test_zero_deviation_field_initializes_identically(state, grid, free_result):
    from kuramoto_dephasing import CharacteristicField

    blank = CharacteristicField(grid, np.zeros(grid.shape()), 0.0, 0)
    a, ra = init_from_solution(free_result.field, state, 512, seed=7)
    b, rb = init_from_solution(blank, state, 512, seed=7)
    assert np.array_equal(a.phases, b.phases)
    assert np.array_equal(a.freqs, b.freqs)
    assert ra == rb


def test_seed_determinism(state, coupled_result):
    ens1, r1 = init_from_solution(coupled_result.field, state, 1024, seed=42)
    ens2, r2 = init_from_solution(coupled_result.field, state, 1024, seed=42)
    ens3, _ = init_from_solution(coupled_result.field, state, 1024, seed=43)
    _, z1, f1 = simulate(ens1, dt=0.02, n_steps=100)
    _, z2, f2 = simulate(ens2, dt=0.02, n_steps=100)
    assert np.array_equal(ens1.phases, ens2.phases)
    assert np.array_equal(ens1.freqs, ens2.freqs)
    # the redraws of labels outside the frequency rule repeat too
    assert r1 == r2 > 0
    assert np.array_equal(z1, z2)
    assert np.array_equal(f1.phases, f2.phases)
    assert not np.array_equal(ens1.phases, ens3.phases)
    assert not np.array_equal(ens1.freqs, ens3.freqs)


def test_step_matches_single_simulate_step():
    rng = np.random.default_rng(9)
    ens = ParticleEnsemble(
        rng.uniform(0.0, TWO_PI, 64), rng.normal(0.0, 1.0, 64), mu=0.4
    )
    one = step(ens, 0.02)
    _, _, fin = simulate(ens, 0.02, 1)
    assert np.array_equal(one.phases, fin.phases)


def test_phases_wrapped_on_construction():
    ens = ParticleEnsemble(np.array([7.0, -1.0]), np.zeros(2), mu=0.0)
    assert np.all(ens.phases >= 0.0) and np.all(ens.phases < TWO_PI)
    assert ens.phases[0] == pytest.approx(7.0 - TWO_PI)


def test_validation_rejects_bad_ensembles():
    with pytest.raises(ValueError):
        ParticleEnsemble(np.zeros(3), np.zeros(4), mu=0.1)
    with pytest.raises(ValueError):
        ParticleEnsemble(np.zeros((2, 2)), np.zeros((2, 2)), mu=0.1)
    with pytest.raises(ValueError):
        ParticleEnsemble(np.array([]), np.array([]), mu=0.1)
    with pytest.raises(ValueError):
        ParticleEnsemble(np.array([np.nan]), np.array([0.0]), mu=0.1)


def test_record_cadence_and_endpoint():
    ens = ParticleEnsemble(np.array([0.1, 2.0]), np.array([0.5, -0.5]), mu=0.0)
    times, z, _ = simulate(ens, dt=0.1, n_steps=7, record_every=3)
    assert np.allclose(times, [0.0, 0.3, 0.6, 0.7])
    assert z.shape == times.shape


# -- in-place phase wrap -------------------------------------------------------

_WRAP_EDGES = (-TWO_PI, 0.0, TWO_PI, 2.0 * TWO_PI)
_in_range = st.floats(-TWO_PI, 2.0 * TWO_PI, exclude_max=True)
_near_edge = st.one_of(
    st.sampled_from(_WRAP_EDGES),
    st.sampled_from(_WRAP_EDGES).flatmap(lambda c: st.floats(c - 1e-12, c + 1e-12)),
    st.floats(-1e-300, 1e-300),
)
_anything = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.lists(_in_range | _near_edge.filter(lambda v: -TWO_PI <= v < 2.0 * TWO_PI),
                 min_size=1, max_size=64),
        st.lists(_in_range | _near_edge | _anything, min_size=1, max_size=64),
    )
)
def test_wrap_equals_np_mod(values):
    arr = np.array(values, dtype=float)
    got = arr.copy()
    with np.errstate(invalid="ignore"):
        particles._wrap_phases(got)
        want = np.mod(arr, TWO_PI)
    assert np.array_equal(got, want, equal_nan=True)
    # bit for bit, except that -0.0 stays -0.0 where np.mod gives +0.0
    if not np.any((arr == 0.0) & np.signbit(arr)):
        assert got.tobytes() == want.tobytes()


def test_simulate_path_is_unchanged_by_the_wrap(monkeypatch):
    rng = np.random.default_rng(17)
    # fast columns of both signs cross 0 and 2 pi many times
    ens = ParticleEnsemble(rng.uniform(0.0, TWO_PI, 512), rng.normal(0.0, 8.0, 512), mu=0.4)
    times, z, fin = simulate(ens, dt=0.05, n_steps=200, record_every=3)

    def wrap_by_mod(th):
        np.mod(th, TWO_PI, out=th)

    monkeypatch.setattr(particles, "_wrap_phases", wrap_by_mod)
    times_ref, z_ref, fin_ref = simulate(ens, dt=0.05, n_steps=200, record_every=3)
    assert np.array_equal(times, times_ref)
    assert z.tobytes() == z_ref.tobytes()
    assert fin.phases.tobytes() == fin_ref.phases.tobytes()
