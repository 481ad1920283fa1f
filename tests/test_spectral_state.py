import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from kuramoto_dephasing import spectral_state
from kuramoto_dephasing.spectral_state import (
    AsymptoticState,
    FrequencyProfile,
    InvalidStateError,
    free_order_parameter,
    sample_labels,
    spectral_transform,
)


def quad_transform(state, k, eta):
    """Independent quadrature oracle for fhat(k, eta), using the tensor split."""
    ang_re = integrate.quad(
        lambda th: math.cos(k * th) * state.angular_factor(th) / (2 * math.pi), 0, 2 * math.pi
    )[0]
    ang_im = integrate.quad(
        lambda th: -math.sin(k * th) * state.angular_factor(th) / (2 * math.pi), 0, 2 * math.pi
    )[0]
    g = state.profile.density
    if abs(eta) < 1e-12:
        freq = 2.0 * integrate.quad(g, 0, np.inf)[0]
    else:
        # g is even, so the transform reduces to a cosine integral (QAWF)
        freq = 2.0 * integrate.quad(g, 0, np.inf, weight="cos", wvar=abs(eta))[0]
    return complex(ang_re, ang_im) * freq


@pytest.fixture
def eps_state():
    return AsymptoticState(FrequencyProfile("lorentzian", 1.0), {1: 0.05}, "exponential", 0.9)


def test_reference_transform_value(eps_state):
    # fhat(-1, -2) for the (1 + 0.1 cos theta) lorentzian datum
    got = spectral_transform(eps_state, -1, -2.0)
    assert got == pytest.approx(0.05 * math.exp(-2.0), abs=1e-15)
    assert got == pytest.approx(6.766764161830635e-3, abs=1e-15)
    # against the independent quadrature oracle
    assert got == pytest.approx(quad_transform(eps_state, -1, -2.0), abs=1e-10)


@pytest.mark.parametrize("kind,scale", [("lorentzian", 1.0), ("gaussian", 0.7), ("laplace", 1.3)])
def test_transform_matches_quadrature(kind, scale):
    if kind == "laplace":
        st = AsymptoticState(FrequencyProfile(kind, scale), {1: 0.03, 2: 0.1j}, "polynomial", 2.0)
    else:
        st = AsymptoticState(FrequencyProfile(kind, scale), {1: 0.03, 2: 0.1j}, "exponential", 0.5)
    for k in (-2, -1, 0, 1, 3):
        for eta in (0.0, 0.5, -3.0):
            got = spectral_transform(st, k, eta)
            want = quad_transform(st, k, eta)
            assert got == pytest.approx(want, abs=2e-9)
    # modes the state does not carry vanish identically
    assert spectral_transform(st, 5, 1.0) == 0.0


def test_free_order_parameter_closed_forms():
    lor = AsymptoticState(FrequencyProfile("lorentzian", 1.0), {1: 0.05}, "exponential", 0.9)
    t = np.linspace(0.0, 20.0, 401)
    z = free_order_parameter(lor, t)
    assert np.max(np.abs(z - 0.05 * np.exp(-t))) < 1e-15

    lap = AsymptoticState(FrequencyProfile("laplace", 1.0), {1: 0.05}, "polynomial", 2.0)
    t = np.linspace(0.0, 40.0, 801)
    z = free_order_parameter(lap, t)
    assert np.max(np.abs(z - 0.05 / (1.0 + t * t))) < 1e-15


def _f_inf(state, theta, omega):
    # the asymptotic density A(theta) g(omega) / 2 pi
    return state.angular_factor(theta) * state.profile.density(omega) / (2.0 * math.pi)


def test_density_normalization(eps_state):
    th = np.linspace(0.0, 2 * math.pi, 257)[:-1]
    marg = np.array(
        [integrate.quad(lambda w, a=a: _f_inf(eps_state, a, w), -np.inf, np.inf)[0]
         for a in th[::16]]
    )
    total = np.mean(marg) * 2 * math.pi  # uniform theta average x full angle
    assert total == pytest.approx(1.0, abs=1e-9)
    assert np.all(eps_state.angular_factor(th) >= 0.0)


def test_state_validation():
    prof = FrequencyProfile("lorentzian", 1.0)
    with pytest.raises(InvalidStateError):
        AsymptoticState(prof, {0: 0.1})
    with pytest.raises(InvalidStateError):
        AsymptoticState(prof, {-1: 0.1})
    with pytest.raises(InvalidStateError):
        AsymptoticState(prof, {1: 0.6})  # 2*0.6 > 1, density dips negative
    with pytest.raises(InvalidStateError):
        AsymptoticState(prof, {1: 0.05}, "exponential", 1.5)  # faster than the profile allows
    with pytest.raises(InvalidStateError):
        AsymptoticState(FrequencyProfile("laplace", 1.0), {1: 0.05}, "exponential", 0.5)
    with pytest.raises(InvalidStateError):
        AsymptoticState(FrequencyProfile("laplace", 1.0), {1: 0.05}, "polynomial", 3.0)
    with pytest.raises(InvalidStateError):
        AsymptoticState(prof, {1: 0.05}, "polynomial", 1.0)
    with pytest.raises(InvalidStateError):
        FrequencyProfile("cauchy", 1.0)
    with pytest.raises(InvalidStateError):
        FrequencyProfile("gaussian", -1.0)


@pytest.mark.parametrize("modes", [{1.5: 0.1}, {"2": 0.1}, {True: 0.1}, {np.True_: 0.1},
                                   {1: 0.1, 1.5: 0.2}, {2.0: 0.1}])
def test_a_mode_key_that_is_not_an_integer_is_refused(modes):
    # int() used to round 1.5 onto mode 1, so {1: 0.1, 1.5: 0.2} became
    # {1: 0.2} and dropped an amplitude
    key = [k for k in modes if type(k) is not int][0]
    with pytest.raises(InvalidStateError, match=f"^mode key {re.escape(repr(key))} is not an integer$"):
        AsymptoticState(FrequencyProfile("lorentzian", 1.0), modes)


def test_a_numpy_integer_mode_key_is_taken():
    state = AsymptoticState(FrequencyProfile("lorentzian", 1.0), {np.int64(2): 0.1})
    assert state.modes == {2: 0.1 + 0j}
    assert type(next(iter(state.modes))) is int


def test_profile_inverse_cdf_roundtrip():
    for kind in ("lorentzian", "gaussian", "laplace"):
        prof = FrequencyProfile(kind, 0.8)
        p = np.array([0.05, 0.31, 0.5, 0.77, 0.99])
        w = prof.inverse_cdf(p)
        # numeric CDF at the quantiles recovers p
        cdf = np.array([integrate.quad(prof.density, -np.inf, x)[0] for x in w])
        assert np.allclose(cdf, p, atol=1e-8)


@pytest.mark.parametrize("kind", ["lorentzian", "gaussian", "laplace"])
@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, math.inf, math.nan, [0.3, math.nan]],
                         ids=["0", "1", "negative", "inf", "nan", "nan-among-valid"])
def test_inverse_cdf_refuses_an_argument_outside_the_open_unit_interval(kind, p):
    # a NaN once passed the check and came back as a NaN frequency
    with pytest.raises(ValueError, match=r"strictly in \(0, 1\)"):
        FrequencyProfile(kind, 1.0).inverse_cdf(p)


def test_gaussian_quantiles_lie_within_8_ulp_of_scipys_ndtri():
    # the standard library's AS241 against scipy's ndtri, on the uniforms
    # sample_labels draws and on both tails down to 1e-300
    rng = np.random.default_rng(11)
    q = np.concatenate([rng.uniform(1e-300, 1.0 - 1e-16, size=100_000),
                        10.0 ** -np.arange(1, 301), 1.0 - 10.0 ** -np.arange(1, 17)])
    want = special.ndtri(q)
    got = FrequencyProfile("gaussian", 1.0).inverse_cdf(q)
    assert np.all(np.abs(got - want) <= 8 * np.spacing(np.abs(want)))
    # shape and scale carry through
    block = FrequencyProfile("gaussian", 2.5).inverse_cdf(q[:12].reshape(3, 4))
    assert np.array_equal(block, 2.5 * got[:12].reshape(3, 4))
    assert np.shape(FrequencyProfile("gaussian", 1.0).inverse_cdf(0.3)) == ()


def _pcg(seed):
    return np.random.Generator(np.random.PCG64(seed))


def test_sample_labels_moments(eps_state):
    n = 200_000
    th, om = sample_labels(eps_state, n, _pcg(7))
    assert th.shape == om.shape == (n,)
    assert np.all((th >= 0) & (th < 2 * math.pi))
    # E e^{i theta} = conj(a_1), E e^{i omega} = ghat(-1); 5 sigma bands
    se = 1.0 / math.sqrt(n)
    assert abs(np.mean(np.exp(1j * th)) - 0.05) < 5 * se
    assert abs(np.mean(np.exp(1j * om)) - math.exp(-1.0)) < 5 * se
    # reproducible for a fixed (n, generator seed) pair
    th2, om2 = sample_labels(eps_state, n, rng=_pcg(7))
    assert np.array_equal(th2, th) and np.array_equal(om2, om)
    th3, om3 = sample_labels(eps_state, n, _pcg(8))
    assert not np.array_equal(th3, th) and not np.array_equal(om3, om)


# a state whose angular factor rejects about two fifths of the draws
MULTI_MODE = AsymptoticState(FrequencyProfile("gaussian", 1.0), {1: 0.2 + 0.1j, 3: -0.15j},
                             "exponential", 0.9)


def _whole_array_labels(state, n, rng):
    # sample_labels with the acceptance test over each round's draws at
    # once; returns the labels and the rounds of rejection
    omega = state.profile.inverse_cdf(rng.uniform(1e-300, 1.0 - 1e-16, size=n))
    bound = 1.0 + 2.0 * sum(abs(a) for a in state.modes.values())
    theta = np.empty(n, dtype=float)
    need, rounds = np.arange(n), 0
    while need.size:
        cand = rng.uniform(0.0, 2.0 * math.pi, size=need.size)
        keep = rng.uniform(0.0, bound, size=need.size) < state.angular_factor(cand)
        theta[need[keep]] = cand[keep]
        need, rounds = need[~keep], rounds + 1
    return theta, omega, rounds


def test_chunked_acceptance_draws_the_labels_of_the_whole_array():
    # the draws keep their order, so chunking the test moves no label; a
    # count that is no multiple of the chunk ends on a short one
    n = 3 * spectral_state._LABEL_CHUNK + 123
    theta, omega, rounds = _whole_array_labels(MULTI_MODE, n, _pcg(21))
    assert rounds >= 5
    got = sample_labels(MULTI_MODE, n, _pcg(21))
    assert got[0].tobytes() == theta.tobytes() and got[1].tobytes() == omega.tobytes()


def test_sampling_holds_the_labels_and_one_round_of_draws_at_its_peak():
    # the labels, the indices still to draw and a round's two uniforms are
    # 5 x 8n; the angular factor's temporaries stay the size of a chunk
    # (over the whole array they took the peak to 9 x 8n)
    n = 200_000
    sample_labels(MULTI_MODE, 16, _pcg(3))
    tracemalloc.start()
    try:
        sample_labels(MULTI_MODE, n, _pcg(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7.5 * 8 * n
