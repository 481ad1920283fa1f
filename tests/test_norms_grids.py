import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate

from kuramoto_dephasing.norms_grids import (
    Grid,
    GridError,
    WeightSpec,
    build_grid,
    tail_bound,
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


def test_tail_bound_is_norm_times_tail():
    w = WeightSpec("exponential", 0.9)
    assert tail_bound(w, 20.0, 0.05) == pytest.approx(0.05 * math.exp(-18.0) / 0.9, rel=1e-14)
    with pytest.raises(ValueError):
        tail_bound(w, 1.0, -0.1)


# ---------------------------------------------------------------- grids

def test_build_grid_defaults_and_mass():
    for kind, n_def in [("lorentzian", 129), ("gaussian", 193), ("laplace", 960)]:
        g = build_grid(FrequencyProfile(kind, 1.0), 20.0, 0.05, 64)
        assert g.n_omega == n_def
        assert g.mass_defect <= 1e-8
        assert g.shape() == (401, 64, n_def)
    # the tangent-midpoint rule is exactly unit mass, node weights all equal
    g = build_grid(FrequencyProfile("lorentzian", 2.0), 10.0, 0.1, 32, n_omega=65)
    assert np.allclose(g.prob_weights, 1.0 / 65.0, rtol=1e-14)
    assert g.mass_defect < 1e-14


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
    # finite at t_max = 16, but the gain sup over t in [0, 400] is inf * 0
    with pytest.raises(GridError, match="no finite unit gains"):
        WeightSpec("polynomial", 200.0).check_finite(16.0)
