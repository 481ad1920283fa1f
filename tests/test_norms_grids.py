import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate, special

from kuramoto_dephasing import norms_grids
from kuramoto_dephasing.norms_grids import (
    Grid,
    GridError,
    WeightSpec,
    build_grid,
    weighted_norm,
)
from kuramoto_dephasing.spectral_state import FrequencyProfile


# ---------------------------------------------------------------- weights

def test_weight_validation():
    for bad in [("exponential", 0.0), ("exponential", -1.0), ("polynomial", 1.5), ("fancy", 1.0)]:
        with pytest.raises(GridError):
            WeightSpec(*bad)


def test_weight_values():
    w = WeightSpec("exponential", 0.9)
    t = np.array([0.0, 1.0, 10.0])
    assert np.allclose(w.values(t), np.exp(0.9 * t))
    assert np.allclose(w.deviation_values(t), np.exp(0.9 * t))
    p = WeightSpec("polynomial", 2.0)
    assert np.allclose(p.values(t), 1.0 + t * t)
    assert np.allclose(p.deviation_values(t), np.sqrt(1.0 + t * t))


def test_tail_integral_closed_forms():
    w = WeightSpec("exponential", 0.9)
    assert w.tail_integral(20.0) == pytest.approx(math.exp(-18.0) / 0.9, rel=1e-14)
    p2 = WeightSpec("polynomial", 2.0)
    for T in (0.0, 1.0, 5.0, 40.0):
        assert p2.tail_integral(T) == pytest.approx(math.atan2(1.0, T), rel=1e-13)
    p3 = WeightSpec("polynomial", 3.0)
    for T in (0.0, 2.0, 10.0):
        assert p3.tail_integral(T) == pytest.approx(1.0 - T / math.hypot(1.0, T), rel=1e-12)


@pytest.mark.parametrize("gamma,T", [(2.5, 0.7), (4.0, 3.0), (2.0, 12.0)])
def test_tail_integral_vs_quadrature(gamma, T):
    p = WeightSpec("polynomial", gamma)
    want = integrate.quad(lambda s: (1.0 + s * s) ** (-gamma / 2.0), T, np.inf)[0]
    assert p.tail_integral(T) == pytest.approx(want, rel=1e-10)


def _closed_tail(p, t):
    # Int_t^inf (1+s^2)^(-p/2) ds in forms free of cancellation: atan2(1, t)
    # for p = 2; with r = hypot(1, t), u = 1 - t/r = 1/(r (r + t)) for p = 3
    # and u^2 (1 - u/3) for p = 5
    if p == 2.0:
        return math.atan2(1.0, t)
    r = math.hypot(1.0, t)
    u = 1.0 / (r * (r + t))
    return u if p == 3.0 else u * u * (1.0 - u / 3.0)


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2.0, 3.0, 5.0]), t=st.floats(0.0, 1e150))
def test_polynomial_tail_matches_closed_forms_up_to_1e150(p, t):
    # abs: past t ~ 1e77 the p = 5 tail is subnormal, where only an
    # absolute accuracy of a few units of 5e-324 is left
    got = WeightSpec("polynomial", p).tail_integral(t)
    assert got == pytest.approx(_closed_tail(p, t), rel=1e-14, abs=1e-321)


def test_polynomial_tail_keeps_its_accuracy_far_out():
    p2 = WeightSpec("polynomial", 2.0)
    # atan(1e-8) = 1e-8 - 3.3e-25; x = t^2/(1+t^2) rounds to 1 here, so a
    # tail taken as 1 - I_x(...) reads 0
    assert p2.tail_integral(1e8) == pytest.approx(1e-8, rel=1e-14)
    for rate in (2.0, 3.0, 5.0, 200.0):
        w = WeightSpec("polynomial", rate)
        # t^2 overflows at t = 1e160; the tail is finite (0 once it
        # underflows) and its log keeps the leading term t^(1-p)/(p-1)
        assert math.isfinite(w.tail_integral(1e160))
        assert w.tail_integral(math.inf) == 0.0
        log_tail = norms_grids._poly_tail(rate, 1e160, log=True)
        lead = (1.0 - rate) * math.log(1e160) - math.log(rate - 1.0)
        assert log_tail == pytest.approx(lead, rel=1e-15)
        assert norms_grids._poly_tail(rate, math.inf, log=True) == -math.inf


def _scipy_tail(p, t):
    # scipy's regularized incomplete beta in the argument that does not
    # round away: I_x(b, 1/2) at x = 1/(1+t^2) for t > 1, 1 - I_{1-x}(1/2, b)
    # at 1 - x = t^2/(1+t^2) for t <= 1
    b = 0.5 * (p - 1.0)
    big = t > 1.0
    reg = np.where(big, special.betainc(b, 0.5, 1.0 / (1.0 + t * t)),
                   special.betaincc(0.5, b, t * t / (1.0 + t * t)))
    return 0.5 * special.beta(b, 0.5) * reg


@pytest.mark.parametrize("rate", [2.0, 2.5, 3.0, 7.5, 50.0, 200.0, 1e4])
def test_polynomial_tails_agree_with_scipys_incomplete_beta(rate):
    t = np.concatenate([np.linspace(0.0, 400.0, 4001), np.geomspace(400.0, 1e150, 300)])
    for p in (rate, 2.0 * rate - 1.0):
        want = _scipy_tail(p, t)
        normal = want >= np.finfo(float).tiny
        got = norms_grids._poly_tail(p, t)
        np.testing.assert_allclose(got[normal], want[normal], rtol=1e-10, atol=0.0)
        assert np.all(got[~normal] < 2.0 * np.finfo(float).tiny)


@pytest.mark.parametrize("kind,rate", [("polynomial", 2.0), ("exponential", 0.9)])
@pytest.mark.parametrize("t_from", [-1.0, -1e-300, -math.inf, math.nan])
def test_tail_integral_refuses_a_nan_or_negative_start(kind, rate, t_from):
    # Int_{-1}^inf <s>^-2 ds is 3 pi/4; the incomplete beta form read pi/4
    with pytest.raises(ValueError, match=r"tail_integral needs t_from >= 0") as err:
        WeightSpec(kind, rate).tail_integral(t_from)
    assert "\n" not in str(err.value)


def test_unit_gains():
    w = WeightSpec("exponential", 0.9)
    assert w.unit_contraction_gain == pytest.approx(1.0 / 0.9, rel=1e-14)
    assert w.unit_deviation_gain == pytest.approx(1.0 / 0.9, rel=1e-14)
    p = WeightSpec("polynomial", 2.0)
    # <t> * Int_t^inf <s>^-3 = <t> - t peaks at 1; <t> * atan(1/t) peaks at pi/2
    assert p.unit_contraction_gain == pytest.approx(1.0, rel=1e-9)
    assert p.unit_deviation_gain == pytest.approx(math.pi / 2.0, rel=1e-9)


def test_unit_gains_generic_degree_against_quadrature():
    gamma = 3.0
    p = WeightSpec("polynomial", gamma)
    t = np.linspace(0.0, 60.0, 6001)
    tails = np.array(
        [integrate.quad(lambda s: (1 + s * s) ** (-(2 * gamma - 1) / 2), a, np.inf)[0] for a in t[::100]]
    )
    sup = np.max((1 + t[::100] ** 2) ** ((gamma - 1) / 2) * tails)
    assert p.unit_contraction_gain == pytest.approx(sup, rel=1e-6)


def test_weighted_norm_basics():
    t = np.linspace(0.0, 5.0, 101)
    w = WeightSpec("exponential", 0.9)
    # e^{-0.9 t} saturates the weight: norm 1 attained everywhere
    assert weighted_norm(t, np.exp(-0.9 * t), w) == pytest.approx(1.0)
    # decaying slower than the weight grows: sup at the right endpoint
    vals = np.exp(-0.5 * t)
    assert weighted_norm(t, vals, w) == pytest.approx(math.exp(0.4 * 5.0), rel=1e-12)
    # fields: extra axes are swept
    field = np.stack([np.exp(-0.9 * t), 0.5 * np.exp(-0.9 * t)], axis=1)
    assert weighted_norm(t, field, w) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        weighted_norm(t, np.zeros((5, 2)), w)
    with pytest.raises(ValueError):
        weighted_norm(np.array([]), np.array([]), w)


@settings(max_examples=50, deadline=None)
@given(
    scale=st.floats(min_value=1e-3, max_value=1e3),
    rate=st.floats(min_value=0.1, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_weighted_norm_homogeneity_subadditivity(scale, rate, seed):
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 3.0, 31)
    a = rng.normal(size=31) + 1j * rng.normal(size=31)
    b = rng.normal(size=31) + 1j * rng.normal(size=31)
    w = WeightSpec("exponential", rate)
    na, nb = weighted_norm(t, a, w), weighted_norm(t, b, w)
    assert weighted_norm(t, scale * a, w) == pytest.approx(scale * na, rel=1e-12)
    assert weighted_norm(t, a + b, w) <= na + nb + 1e-12 * (na + nb)


# ---------------------------------------------------------------- grids

def test_build_grid_defaults_and_mass():
    for kind, n_def in [("lorentzian", 129), ("gaussian", 193), ("laplace", 960)]:
        g = build_grid(FrequencyProfile(kind, 1.0), 20.0, 0.05, 64)
        assert g.n_omega == n_def
        assert abs(g.prob_weights.sum() - 1.0) <= 1e-8
        assert g.shape() == (401, 64, n_def)
    # the tangent-midpoint rule is exactly unit mass, node weights all equal
    g = build_grid(FrequencyProfile("lorentzian", 2.0), 10.0, 0.1, 32, n_omega=65)
    assert np.allclose(g.prob_weights, 1.0 / 65.0, rtol=1e-14)
    assert abs(g.prob_weights.sum() - 1.0) < 1e-14


def test_grid_time_and_angle_axes():
    g = build_grid(FrequencyProfile("gaussian", 1.0), 20.0, 0.05, 64)
    t = g.times()
    assert t[0] == 0.0 and t[-1] == pytest.approx(20.0) and len(t) == g.n_times
    th = g.theta()
    assert th[0] == 0.0 and len(th) == 64 and th[-1] < 2 * math.pi


def test_oscillatory_accuracy_of_decaying_rules():
    # laplace and gaussian rules must integrate e^{i omega t} against g
    # essentially exactly through t = 40 (the free characteristic function)
    for kind in ("laplace", "gaussian"):
        pr = FrequencyProfile(kind, 1.0)
        g = build_grid(pr, 40.0, 0.1, 32)
        for tt in (5.0, 20.0, 40.0):
            approx = np.sum(g.prob_weights * np.exp(1j * g.omega_nodes * tt))
            assert abs(approx - pr.transform(-tt)) < 1e-8


def test_grid_validation_errors():
    pr = FrequencyProfile("gaussian", 1.0)
    with pytest.raises(GridError):
        build_grid(pr, 20.0, 0.3, 64)  # 20/0.3 not integral
    with pytest.raises(GridError):
        build_grid(pr, 20.0, 0.05, 63)  # odd angle count
    with pytest.raises(GridError):
        build_grid(pr, 20.0, 0.05, 4)
    with pytest.raises(GridError):
        build_grid(pr, 20.0, 0.05, 64, n_omega=4)
    with pytest.raises(GridError):
        build_grid(pr, -1.0, 0.05, 64)
    with pytest.raises(GridError, match="finite"):
        build_grid(pr, math.inf, 0.05, 64)


@pytest.mark.parametrize(
    "kind, t_max, dt, n_omega",
    [
        ("lorentzian", 1e300, 0.05, None),
        ("lorentzian", 1e300, 1e-10, None),  # t_max / dt overflows to inf
        ("lorentzian", 16.0, 0.05, 10**15),
        ("laplace", 16.0, 0.05, 10**12),  # sized by the panel-rounded rule
    ],
)
def test_build_grid_refuses_a_field_larger_than_memory(kind, t_max, dt, n_omega):
    # refused from the grid numbers, before numpy is asked for the times
    # (which raised its own ValueError) or the frequency rule is built
    with pytest.raises(GridError, match="exceeds physical memory"):
        build_grid(FrequencyProfile(kind, 1.0), t_max=t_max, dt=dt, n_omega=n_omega)


@pytest.mark.parametrize("n_theta, n_omega", [(10**400, 17), (8, 10**400)])
def test_a_count_past_the_float_range_is_refused_by_the_memory_guard(n_theta, n_omega):
    # the byte count is an exact int, compared and printed without a float
    # (both once ended in "int too large to convert to float"); build_grid
    # refuses the frequency rule, and Grid the field
    what = "grid field" if n_omega == 17 else "frequency rule"
    with pytest.raises(GridError, match=rf"{what} of .*e\+39\d GB exceeds physical memory"):
        build_grid(FrequencyProfile("lorentzian", 1.0), 4.0, 0.25, n_theta, n_omega)


def test_a_grid_built_directly_takes_its_numbers_by_the_input_rules(monkeypatch):
    # the refusals are rows of tests/test_input_rules.py; here, a step count
    # past the float range (once an OverflowError), which the memory guard
    # refuses first where physical memory is known, and numpy scalars
    g = build_grid(FrequencyProfile("lorentzian", 1.0), 4.0, 0.25, 8, 17)
    with pytest.raises(GridError, match="exceeds physical memory"):
        dataclasses.replace(g, t_max=1e300, dt=1e-10)
    with monkeypatch.context() as mp:
        mp.setattr(norms_grids, "physical_memory", lambda: None)
        with pytest.raises(GridError, match="beyond the float range"):
            dataclasses.replace(g, t_max=1e300, dt=1e-10)
    h = dataclasses.replace(g, t_max=np.float64(4.0), n_theta=np.int64(16))
    assert type(h.t_max) is float and type(h.n_theta) is int and h.shape() == (17, 16, 17)


# physical memory of an 8.4 GB machine, patched in so the guards do not
# depend on the host
PATCHED_MEMORY = 8_400_000_000


def test_a_grid_built_directly_is_refused_when_its_field_exceeds_memory(monkeypatch):
    # 17 times, 2e7 angles and 17 nodes make a 46 GB field: refused by Grid
    # itself, so dataclasses.replace cannot go around build_grid's guard
    g = build_grid(FrequencyProfile("lorentzian", 1.0), 4.0, 0.25, 8, 17)
    monkeypatch.setattr(norms_grids, "physical_memory", lambda: PATCHED_MEMORY)
    with pytest.raises(GridError, match="grid field of 46.2 GB exceeds physical memory"):
        dataclasses.replace(g, n_theta=2 * 10**7)
    assert dataclasses.replace(g, n_theta=2 * 10**6).n_theta == 2 * 10**6


@pytest.mark.parametrize("kind, n_omega, q", [("gaussian", 33_000, 33_000),
                                              ("laplace", 1_320_000, 33_000)])
def test_build_grid_refuses_a_frequency_rule_larger_than_memory(monkeypatch, kind, n_omega, q):
    # leggauss(q) builds a (q, q) float64 companion matrix: 8.7 GB at
    # q = 33 000, for a field of 10.6 MB on the gaussian grid; refused
    # before the rule is built
    def no_rule(*args):
        raise AssertionError("the rule was built")

    monkeypatch.setattr(norms_grids, "physical_memory", lambda: PATCHED_MEMORY)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_rule)
    assert 8 * q * q > PATCHED_MEMORY
    with pytest.raises(GridError, match="frequency rule of 8.71 GB exceeds physical memory"):
        build_grid(FrequencyProfile(kind, 1.0), 0.4, 0.1, 8, n_omega)


@pytest.mark.parametrize("spare, refused", [(0, False), (-1, True)])
def test_the_frequency_rule_guard_counts_8_q_squared_bytes(monkeypatch, spare, refused):
    monkeypatch.setattr(norms_grids, "physical_memory", lambda: 8 * 193**2 + spare)
    profile = FrequencyProfile("gaussian", 1.0)
    if refused:
        with pytest.raises(GridError, match="frequency rule"):
            build_grid(profile, 0.4, 0.1, 8, 193)
    else:
        assert build_grid(profile, 0.4, 0.1, 8, 193).n_omega == 193


def test_corrupted_weights_fail_mass_check():
    g = build_grid(FrequencyProfile("gaussian", 1.0), 20.0, 0.05, 64)
    bad = g.omega_weights.copy()
    bad[g.n_omega // 2] += 1e-6 / g.profile.density(g.omega_nodes[g.n_omega // 2])
    with pytest.raises(GridError, match="mass defect"):
        Grid(
            profile=g.profile,
            t_max=g.t_max,
            dt=g.dt,
            n_theta=g.n_theta,
            omega_nodes=g.omega_nodes,
            omega_weights=bad,
        )


@settings(max_examples=300, deadline=None)
@given(
    values=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
        elements=st.floats(allow_nan=True, allow_infinity=True),
    ),
    kind=st.sampled_from(["exponential", "polynomial"]),
    deviation=st.booleans(),
)
def test_weighted_norm_real_path_equals_abs_path(values, kind, deviation):
    # real arrays take max|x| as max(max x, -min x): exact, NaN included
    t = np.linspace(0.0, 4.0, values.shape[0])
    spec = WeightSpec(kind, 2.5)
    w = spec.deviation_values(t) if deviation else spec.values(t)
    with np.errstate(over="ignore"):  # w * 1e308 overflows the same on both paths
        ref = float(np.max(w * np.abs(values).reshape(t.size, -1).max(axis=1)))
        got = weighted_norm(t, values, spec, deviation=deviation)
    assert got == ref or (math.isnan(got) and math.isnan(ref))


def test_weight_overflow_at_horizon_is_refused():
    WeightSpec("exponential", 0.9).check_finite(700.0)
    with pytest.raises(GridError, match="overflows"):
        WeightSpec("exponential", 0.9).check_finite(800.0)
    # <t>^103.2 overflows at t = 1e3 while the deviation weight <t>^102.2
    # stays finite: either weight overflowing is refused
    spec = WeightSpec("polynomial", 103.2)
    assert np.isfinite(spec.deviation_values(1e3))
    with pytest.raises(GridError, match="overflows"):
        spec.check_finite(1e3)
    # finite at t_max = 16, and its gains are finite too: the gain sup over
    # t in [0, 400], inf * 0 in linear space, is taken in log space there
    spec = WeightSpec("polynomial", 200.0)
    spec.check_finite(16.0)
    assert math.isfinite(spec.unit_contraction_gain) and math.isfinite(spec.unit_deviation_gain)


def test_an_overflowing_weight_is_refused_before_its_gains(monkeypatch):
    # <t>^103.2 overflows at t = 1e3: the refusal names the overflow without
    # computing a gain sup (about 20 ms for a new rate)
    def no_gains(gamma):
        raise AssertionError("gains computed for a weight that overflows")

    monkeypatch.setattr(norms_grids, "_poly_gains", no_gains)
    with pytest.raises(GridError, match="overflows"):
        WeightSpec("polynomial", 103.2).check_finite(1e3)


HUGE_RATES = [1e3, 1e4, 1e6, 1e10, 1e16, 1e18, 1e30, 1e50, 1e100]


@pytest.mark.parametrize("rate", HUGE_RATES)
def test_poly_gains_stay_finite_at_huge_rates(rate):
    # the log-space products combine the weight's power of <t> with the
    # tail's lead factor, where the sum of two logs of order rate * log(t)
    # cancelled (1e18 read (8.9e-10, inf)); the gains are then the t = 0
    # values B(b, 1/2)/2, about sqrt(pi / rate) / 2 and sqrt(pi / (2 rate))
    contr, dev = norms_grids._poly_gains(rate)
    assert math.isfinite(contr) and math.isfinite(dev)
    assert contr == pytest.approx(0.5 * math.sqrt(math.pi / rate), rel=1e-3)
    assert dev == pytest.approx(0.5 * math.sqrt(2.0 * math.pi / rate), rel=1e-3)


@pytest.mark.parametrize("rate", HUGE_RATES)
def test_log_space_weighted_tails_match_the_linear_products(rate):
    # wherever the linear product <t>^(rate-1) T_p(t) is finite and both
    # factors normal, the log-space form agrees with it; the linear one
    # carries the rounding of 1 + t^2 raised to (rate - 1) / 2, up to about
    # rate * eps relative, so the tolerance grows with the rate
    t = np.linspace(0.0, 400.0, 40001)
    tiny = np.finfo(float).tiny
    tol = 1e-12 + 2.0 * rate * np.finfo(float).eps
    for p in (rate, 2.0 * rate - 1.0):
        tail = norms_grids._poly_tail(p, t)
        with np.errstate(over="ignore", invalid="ignore"):
            linear = (1.0 + t * t) ** (0.5 * (rate - 1.0)) * tail
        logged = norms_grids._poly_tail(p, t, log=True, lift=rate - 1.0)
        assert np.all(np.isfinite(logged))
        kept = np.isfinite(linear) & (linear > tiny) & (tail > tiny)
        assert kept[0]
        assert np.max(np.abs(np.exp(logged[kept]) / linear[kept] - 1.0)) <= tol


def _linear_poly_gains(gamma):
    # the gain sups in linear space only, as they were taken before the log
    # space fallback; finite up to rates near 119
    t = np.linspace(0.0, 400.0, 40001)
    wdev = (1.0 + t * t) ** (0.5 * (gamma - 1.0))
    contr = float(np.max(wdev * norms_grids._poly_tail(2.0 * gamma - 1.0, t)))
    dev = float(np.max(wdev * norms_grids._poly_tail(gamma, t)))
    return contr, max(dev, 1.0 / (gamma - 1.0))


@pytest.mark.parametrize("rate", [2.0, 2.5, 3.0, 50.0, 100.0])
def test_poly_gains_are_unchanged_where_the_linear_sup_is_finite(rate):
    linear = _linear_poly_gains(rate)
    assert all(map(math.isfinite, linear))
    assert norms_grids._poly_gains(rate) == linear


def _log_weighted_tails(gamma, p, t):
    # log(<t>^(gamma-1) Int_t^inf <s>^(-p) ds) by an exp-sinh rule in u = s - t,
    # Int_t^inf <s>^-p ds = <t>^-p Int_0^inf exp(-(p/2) log1p(u (2t + u) / <t>^2)) du,
    # with no incomplete beta function and no hypergeometric series
    h = 1.0 / 32.0
    x = np.arange(-6.0, 4.0, h)
    u = np.exp(0.5 * math.pi * np.sinh(x))
    du = h * 0.5 * math.pi * np.cosh(x) * u
    out = np.empty(t.shape)
    for lo in range(0, t.size, 1000):
        tt = t[lo:lo + 1000, None]
        inner = np.exp(-0.5 * p * np.log1p(u * (2.0 * tt + u) / (1.0 + tt * tt))) @ du
        out[lo:lo + 1000] = 0.5 * (gamma - 1.0 - p) * np.log1p(tt[:, 0] ** 2) + np.log(inner)
    return out


def test_poly_gains_at_rate_200_match_a_log_space_quadrature():
    gamma = 200.0
    # the linear products are NaN past t ~ 42, so the linear sup is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        assert all(map(math.isnan, _linear_poly_gains(gamma)))
    t = np.linspace(0.0, 400.0, 40001)
    contr = math.exp(_log_weighted_tails(gamma, 2.0 * gamma - 1.0, t).max())
    dev = max(math.exp(_log_weighted_tails(gamma, gamma, t).max()), 1.0 / (gamma - 1.0))
    got = norms_grids._poly_gains(gamma)
    assert all(map(math.isfinite, got))
    assert got[0] == pytest.approx(contr, rel=1e-12, abs=0.0)
    assert got[1] == pytest.approx(dev, rel=1e-12, abs=0.0)
    # the log-space products themselves, where the linear ones are lost
    far = np.array([50.0, 120.0, 400.0])
    for p in (2.0 * gamma - 1.0, gamma):
        closed = norms_grids._poly_tail(p, far, log=True, lift=gamma - 1.0)
        assert np.max(np.abs(closed - _log_weighted_tails(gamma, p, far))) <= 1e-12
