"""Finite-ensemble dynamics: exact identities, conservation, and the
Monte Carlo agreement with the kinetic solver at CLT accuracy."""

import sys
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuramoto_dephasing import (
    AsymptoticState,
    FrequencyProfile,
    ParticleEnsemble,
    WeightSpec,
    build_grid,
    free_order_parameter,
    init_from_solution,
    outer_solve,
    simulate,
)
from kuramoto_dephasing import characteristics, norms_grids, particles

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
    assert abs(particles._mean_field(ens.phases)) == pytest.approx(1.0, abs=1e-15)


def test_antipodal_pair_cancels():
    ens = ParticleEnsemble(np.array([0.2, 0.2 + np.pi]), np.zeros(2), mu=0.0)
    assert abs(particles._mean_field(ens.phases)) < 1e-15


def test_four_point_lattice_cancels():
    ens = ParticleEnsemble(np.arange(4) * (np.pi / 2), np.zeros(4), mu=0.0)
    assert abs(particles._mean_field(ens.phases)) < 1e-15


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
    gap = abs(particles._mean_field(ens.phases) - coupled_result.path.values[0])
    assert gap < 3.0 / np.sqrt(10_000)


@pytest.mark.parametrize("dt, n_steps, stride", [(0.01, 1600, 5), (0.03, 533, 2), (12.0, 1, 1)],
                         ids=["divides", "stops-short", "one-step"])
def test_kinetic_comparison_runs_the_whole_steps_of_the_horizon(state, coupled_result, dt,
                                                                 n_steps, stride):
    # the steps of dt that fit in t_max = 16, recorded every round(0.05 /
    # dt) of them, and the gap to the interpolated kinetic r, bit for bit
    run = particles.compare_to_kinetic(coupled_result, 400, dt, 3)
    ens, n_resampled = init_from_solution(coupled_result.field, state, 400, seed=3)
    times, z, _ = simulate(ens, dt, n_steps, record_every=stride)
    r_kin = np.interp(times, coupled_result.grid.times(), coupled_result.path.r())
    assert run.n_resampled == n_resampled and times[-1] <= 16.0
    assert np.array_equal(run.times, times) and np.array_equal(run.z, z)
    assert np.array_equal(run.r_kinetic, r_kin)
    assert np.array_equal(run.gap, np.abs(np.abs(z) - r_kin))


@pytest.fixture(scope="module")
def short_result(state):
    grid = build_grid(PROFILE, t_max=4.0, dt=0.1, n_theta=8, n_omega=17)
    return outer_solve(state, grid, 0.05, WeightSpec("exponential", 0.9), tail_budget=1e-2)


def _no_sampling(*args, **kwargs):
    raise AssertionError("particles were sampled")


@pytest.mark.parametrize(
    "dt, message",
    [(5.0, "^particles dt 5 is above grid t_max 4$"),
     # dt = 1e-9 would ask for 4e9 RK4 steps
     (1e-9, r"^particles dt 1e-09 is below grid dt / 4096 = 2\.44e-05$"),
     (np.nextafter(0.1 / 4096, 0.0), "is below grid dt / 4096")],
    ids=["above_t_max", "tiny", "just_below_the_oracle_cap"],
)
def test_a_kinetic_comparison_refuses_a_step_outside_its_grid_before_sampling(
        short_result, monkeypatch, dt, message):
    # dt = 5 used to take 0 steps and be refused by simulate, naming n_steps
    monkeypatch.setattr(particles, "init_from_solution", _no_sampling)
    with pytest.raises(ValueError, match=message):
        particles.compare_to_kinetic(short_result, 100, dt, 1)


def test_a_kinetic_comparison_takes_the_steps_at_both_ends_of_its_range(short_result):
    for dt in (4.0, 0.1 / 4096):
        assert particles.comparison_inputs(short_result.grid, 10, dt, None) == (10, dt, None)
    run = particles.compare_to_kinetic(short_result, 10, 4.0, 1)
    assert list(run.times) == [0.0, 4.0]


def test_a_kinetic_comparison_refuses_an_ensemble_larger_than_memory(short_result, monkeypatch):
    monkeypatch.setattr(norms_grids, "physical_memory", lambda: particles.peak_bytes(1000) - 1)
    monkeypatch.setattr(particles, "init_from_solution", _no_sampling)
    assert particles.comparison_inputs(short_result.grid, 999, 0.1, 1) == (999, 0.1, 1)
    with pytest.raises(ValueError, match="^particle ensemble of .* GB exceeds physical memory"):
        particles.compare_to_kinetic(short_result, 1000, 0.1, 1)


def test_heavy_tail_resampling_is_reported(state, coupled_result):
    # the Lorentzian puts ~0.8% of its mass beyond the quadrature span
    _, n_resampled = init_from_solution(coupled_result.field, state, 10_000, seed=1)
    assert n_resampled > 0


def test_zero_deviation_field_initializes_identically(state, grid, free_result):
    from kuramoto_dephasing import CharacteristicField

    blank = CharacteristicField(grid, np.zeros(grid.shape()), 0.0)
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
    # one RK4 step of the phase vector, then the wrap into [0, 2 pi)
    th = ens.phases.copy()
    particles._step(th, 0.02 * ens.freqs, 0.01 * ens.freqs, ens.mu, 0.02,
                    *np.empty((5, th.size), dtype=np.float32))
    _, _, fin = simulate(ens, 0.02, 1)
    assert np.array_equal(np.mod(th, TWO_PI), fin.phases)
    assert fin.t == ens.t + 0.02


def test_mu_zero_step_is_the_free_rotation_bit_for_bit():
    rng = np.random.default_rng(13)
    ens = ParticleEnsemble(rng.uniform(0.0, TWO_PI, 300), rng.normal(0.0, 5.0, 300), mu=0.0)
    _, _, fin = simulate(ens, 0.03, 40)
    th = ens.phases
    for _ in range(40):
        th = np.mod(th + 0.03 * ens.freqs, TWO_PI)
    assert fin.phases.tobytes() == th.tobytes()


def _circular_gap(a, b):
    return np.abs(np.mod(a - b + np.pi, TWO_PI) - np.pi)


def test_step_is_fourth_order_in_dt():
    # above dt = 0.05 the float32 torque's floor does not show
    rng = np.random.default_rng(7)
    ens = ParticleEnsemble(rng.uniform(0.0, TWO_PI, 64), rng.normal(0.0, 1.0, 64), mu=1.0)
    ref = simulate(ens, 0.0025, 1600)[2].phases
    errors = [_circular_gap(simulate(ens, dt, round(4.0 / dt))[2].phases, ref).max()
              for dt in (0.4, 0.2, 0.1)]
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert np.all((3.6 <= orders) & (orders <= 4.3)), orders


def _rk4_float64(th, freqs, mu, dt, n_steps):
    # the reference: classical RK4 with complex float64 mean fields
    def rate(x):
        e = np.exp(1j * x)
        return freqs - mu * np.imag(e * np.conj(e.mean()))

    path = [np.exp(1j * th).mean()]
    for _ in range(n_steps):
        k1 = rate(th)
        k2 = rate(th + 0.5 * dt * k1)
        k3 = rate(th + 0.5 * dt * k2)
        k4 = rate(th + dt * k3)
        th = th + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        path.append(np.exp(1j * th).mean())
    return np.array(path), th


@pytest.mark.parametrize("mu", [0.05, 0.5])
def test_float32_torque_stays_within_the_stated_tolerance_of_float64_rk4(mu):
    rng = np.random.default_rng(19)
    th = rng.uniform(0.0, TWO_PI, 4000)
    freqs = np.clip(rng.standard_cauchy(4000), -80.0, 80.0)
    _, z, fin = simulate(ParticleEnsemble(th, freqs, mu=mu), 0.01, 500)
    z_ref, th_ref = _rk4_float64(th, freqs, mu, 0.01, 500)
    assert np.max(np.abs(z - z_ref)) <= 2e-9
    assert np.max(_circular_gap(fin.phases, th_ref)) <= 2e-8


def test_a_particle_run_peaks_within_the_cli_memory_estimate(state, coupled_result):
    # load_config refuses an n whose peak_bytes(n) exceed physical memory;
    # the sampling and the steps, with the ensemble held, must both peak
    # below that
    n = 200_000
    init_from_solution(coupled_result.field, state, 16, seed=1)
    bound = particles.peak_bytes(n) + (1 << 20)
    tracemalloc.start()
    try:
        ens, _ = init_from_solution(coupled_result.field, state, n, seed=1)
        init_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        simulate(ens, 0.01, 3)
        step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert init_peak <= bound
    assert step_peak <= bound


@pytest.mark.parametrize("n", [0, -1, 2.5, True, np.nan, "5", None])
def test_init_from_solution_refuses_a_count_that_is_not_an_integer_of_at_least_one(
        n, state, coupled_result):
    with pytest.raises(ValueError, match="^n must be an integer >= 1"):
        init_from_solution(coupled_result.field, state, n, seed=1)


def test_init_from_solution_takes_a_numpy_integer_count(state, coupled_result):
    a, _ = init_from_solution(coupled_result.field, state, np.int64(300), seed=4)
    b, _ = init_from_solution(coupled_result.field, state, 300, seed=4)
    assert a.phases.tobytes() == b.phases.tobytes()


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


@pytest.mark.parametrize("scale, near", [(8.0, True), (25.0, False), (80.0, False)],
                         ids=["bounded_step", "checked_step", "mod"])
def test_simulate_path_is_unchanged_by_the_wrap(monkeypatch, scale, near):
    # fast columns of both signs cross 0 and 2 pi many times.  A step moves
    # a phase by at most max|dt omega| + |mu| dt: ~1.3 at scale 8, below pi,
    # so the range check is skipped; ~4.0 at 25, so it is made every step
    # and passes; ~12.7 at 80, where it fails and np.mod wraps
    rng = np.random.default_rng(17)
    ens = ParticleEnsemble(rng.uniform(0.0, TWO_PI, 512), rng.normal(0.0, scale, 512), mu=-0.4)
    wrap, flags = particles._wrap_phases, set()

    def recorded_wrap(th, near=False):
        flags.add(near)
        wrap(th, near)

    with monkeypatch.context() as mp:
        mp.setattr(particles, "_wrap_phases", recorded_wrap)
        times, z, fin = simulate(ens, dt=0.05, n_steps=200, record_every=3)
    assert flags == {near}

    def wrap_by_mod(th, near=False):
        np.mod(th, TWO_PI, out=th)

    monkeypatch.setattr(particles, "_wrap_phases", wrap_by_mod)
    times_ref, z_ref, fin_ref = simulate(ens, dt=0.05, n_steps=200, record_every=3)
    assert np.array_equal(times, times_ref)
    assert z.tobytes() == z_ref.tobytes()
    assert fin.phases.tobytes() == fin_ref.phases.tobytes()


# -- argument checks -----------------------------------------------------------

def _small_ensemble():
    rng = np.random.default_rng(23)
    return ParticleEnsemble(rng.uniform(0.0, TWO_PI, 64), rng.normal(0.0, 1.0, 64), mu=0.4)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, 0.0, -0.01])
def test_simulate_refuses_a_bad_dt_before_it_steps(dt, monkeypatch):
    def no_step(*args):
        raise AssertionError("stepped")

    monkeypatch.setattr(particles, "_step", no_step)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="dt"):
            simulate(_small_ensemble(), dt, 10)


@pytest.mark.parametrize("name", ["n_steps", "record_every"])
@pytest.mark.parametrize("value", [0, -1, 2.5, 3.0, True, "3", None])
def test_simulate_refuses_a_count_that_is_not_an_integer_of_at_least_one(name, value):
    counts = {"n_steps": 9, "record_every": 2}
    counts[name] = value
    with pytest.raises(ValueError, match=name):
        simulate(_small_ensemble(), 0.01, **counts)


@pytest.mark.parametrize("mu", [np.nan, np.inf, -np.inf, True, "0.5", None, 0.5 + 0j])
def test_an_ensemble_refuses_a_coupling_that_is_not_a_finite_real(mu):
    # NaN and inf used to step the whole run with RuntimeWarnings before
    # replace() failed, a string or None to fail inside _step; now no
    # ensemble is built to step
    with pytest.raises(ValueError, match=r"^mu must be a finite real number, got "):
        ParticleEnsemble(np.array([0.1, 0.2]), np.array([1.0, -1.0]), mu=mu)


@pytest.mark.parametrize("mu", [np.float64(0.5), np.float32(0.5), np.int64(1), -0.5])
def test_an_ensemble_takes_numpy_and_negative_couplings(mu):
    # the finite-N model is defined for any real mu
    ens = ParticleEnsemble(np.array([0.1, 0.2]), np.array([1.0, -1.0]), mu=mu)
    _, z, _ = simulate(ens, 0.01, 3)
    assert np.all(np.isfinite(z))


def test_simulate_takes_numpy_integer_counts():
    ens = _small_ensemble()
    times, z, fin = simulate(ens, 0.01, np.int64(7), record_every=np.int32(3))
    ref = simulate(ens, 0.01, 7, record_every=3)
    assert np.array_equal(times, ref[0])
    assert z.tobytes() == ref[1].tobytes()
    assert fin.phases.tobytes() == ref[2].phases.tobytes()


# -- records beside the steps --------------------------------------------------

_RECORD_RUNS = [(1, 40), (3, 40), (50, 20)]


@pytest.fixture(scope="module")
def record_ensemble():
    rng = np.random.default_rng(31)
    return ParticleEnsemble(rng.uniform(0.0, TWO_PI, 2048), rng.normal(0.0, 2.0, 2048), mu=0.6)


def _runs(ens):
    return {every: simulate(ens, 0.02, n_steps, record_every=every)
            for every, n_steps in _RECORD_RUNS}


def _assert_same_runs(got, ref):
    for every, (times, z, fin) in ref.items():
        g_times, g_z, g_fin = got[every]
        assert g_times.tobytes() == times.tobytes(), every
        assert g_z.tobytes() == z.tobytes(), every
        assert g_fin.phases.tobytes() == fin.phases.tobytes(), every


@pytest.fixture(scope="module")
def one_part_runs(record_ensemble):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characteristics, "_PARTS", 1)
        return _runs(record_ensemble)


def test_one_part_records_in_place_and_starts_no_thread(record_ensemble, monkeypatch):
    monkeypatch.setattr(characteristics, "_PARTS", 1)

    def no_submit(*args):
        raise AssertionError("handed to the pool")

    monkeypatch.setattr(characteristics._POOL, "submit", no_submit)
    threads = set()
    mean_field = particles._mean_field

    def recorded(phases):
        threads.add(threading.get_ident())
        return mean_field(phases)

    monkeypatch.setattr(particles, "_mean_field", recorded)
    simulate(record_ensemble, 0.02, 10, record_every=3)
    assert threads == {threading.get_ident()}


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_simulate_is_bit_identical_for_any_part_count(parts, record_ensemble, one_part_runs,
                                                     monkeypatch):
    monkeypatch.setattr(characteristics, "_PARTS", parts)
    _assert_same_runs(_runs(record_ensemble), one_part_runs)


def test_simulate_holds_under_fast_thread_switching(record_ensemble, one_part_runs, monkeypatch):
    monkeypatch.setattr(characteristics, "_PARTS", 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = _runs(record_ensemble)
    finally:
        sys.setswitchinterval(interval)
    _assert_same_runs(got, one_part_runs)


def test_slow_records_keep_their_snapshots(record_ensemble, one_part_runs, monkeypatch):
    # a record still running when the stepping thread reaches the next
    # record step must not see that step's phases
    monkeypatch.setattr(characteristics, "_PARTS", 2)
    mean_field = particles._mean_field
    threads = set()

    def slow(phases):
        threads.add(threading.get_ident())
        time.sleep(0.002)
        return mean_field(phases)

    monkeypatch.setattr(particles, "_mean_field", slow)
    _assert_same_runs(_runs(record_ensemble), one_part_runs)
    assert threading.get_ident() not in threads


def test_no_record_outlives_simulate(record_ensemble, monkeypatch):
    monkeypatch.setattr(characteristics, "_PARTS", 2)
    mean_field = particles._mean_field
    running, refs = [], []

    def slow(phases):
        running.append(1)
        refs.append(weakref.ref(phases))
        time.sleep(0.01)
        value = mean_field(phases)
        running.pop()
        return value

    monkeypatch.setattr(particles, "_mean_field", slow)
    simulate(record_ensemble, 0.02, 20, record_every=4)
    assert not running
    # the first record reads the ensemble's own phases; every other array a
    # record saw is gone once simulate returns, so no pool thread holds it
    assert [r() for r in refs[1:]] == [None] * (len(refs) - 1)

    wrap = particles._wrap_phases
    steps = []

    def failing_wrap(th, near=False):
        steps.append(1)
        if len(steps) == 9:
            raise RuntimeError("step failed")
        wrap(th, near)

    monkeypatch.setattr(particles, "_wrap_phases", failing_wrap)
    with pytest.raises(RuntimeError, match="step failed"):
        simulate(record_ensemble, 0.02, 20, record_every=4)
    # the record started at step 8 was in flight when step 9 raised
    assert not running
