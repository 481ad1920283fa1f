"""Fit and certification tests against synthetic paths with known decay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuramoto_dephasing import (
    DecayModel,
    InsufficientDataError,
    NonPositiveValuesError,
    certify_envelope,
    fit_decay,
)

T = np.linspace(0.0, 20.0, 401)


def test_exponential_fit_is_exact():
    model = fit_decay(T, 3.0 * np.exp(-2.0 * T), "exponential")
    assert model.rate == pytest.approx(2.0, abs=1e-6)
    assert model.amplitude == pytest.approx(3.0, rel=1e-6)
    assert model.residual <= 1e-9


def test_polynomial_fit_is_exact():
    vals = 3.0 * (1.0 + T**2) ** -1.0  # bracket weight to the power 2
    model = fit_decay(T, vals, "polynomial")
    assert model.rate == pytest.approx(2.0, abs=1e-6)
    assert model.residual <= 1e-9


def test_free_flow_rate_recovered_on_standard_window():
    vals = 0.05 * np.exp(-T)
    model = fit_decay(T, vals, "exponential", window=(2.0, 15.0))
    assert model.rate == pytest.approx(1.0, abs=1e-3)
    assert model.window == (2.0, 15.0)


def test_model_prediction_roundtrip():
    model = fit_decay(T, np.exp(-0.5 * T), "exponential")
    assert np.allclose(model.predict(T), np.exp(-0.5 * T), rtol=1e-9)
    assert np.allclose(model.weight_values(T) * model.predict(T), model.amplitude)


def test_envelope_exact_class_passes():
    vals = np.exp(-1.3 * T)
    model = fit_decay(T, vals, "exponential")
    cert = certify_envelope(T, vals, model)
    assert cert.passed
    assert cert.constant == pytest.approx(1.0, rel=1e-9)
    # the weighted path is flat, so the sup is already attained early
    assert cert.stabilization_ratio == pytest.approx(1.0, rel=1e-9)


def test_envelope_wrong_class_fails_and_grows():
    # polynomial path certified against an exponential weight: the
    # weighted product e^t <t>^-2 diverges, so the sup sits at the end
    # of the window and keeps growing as the horizon is extended
    model = DecayModel(
        kind="exponential", rate=1.0, amplitude=1.0,
        window=(0.0, 20.0), residual=0.0, n_points=T.size,
    )
    vals20 = (1.0 + T**2) ** -1.0
    cert20 = certify_envelope(T, vals20, model)
    assert not cert20.passed
    assert cert20.attained_at == pytest.approx(20.0)

    t40 = np.linspace(0.0, 40.0, 801)
    cert40 = certify_envelope(t40, (1.0 + t40**2) ** -1.0, model)
    assert cert40.constant > 100.0 * cert20.constant


def test_envelope_monotone_under_weaker_rate():
    vals = np.exp(-1.3 * T)
    base = fit_decay(T, vals, "exponential")
    for rate in (1.2, 0.9, 0.5):
        weaker = DecayModel(
            kind="exponential", rate=rate, amplitude=base.amplitude,
            window=base.window, residual=base.residual, n_points=base.n_points,
        )
        assert certify_envelope(T, vals, weaker).passed


def _model(kind, rate, t_max, n):
    return DecayModel(
        kind=kind, rate=rate, amplitude=1.0,
        window=(0.0, t_max), residual=0.0, n_points=n,
    )


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["exponential", "polynomial"]),
    rate=st.floats(min_value=0.0, max_value=5.0),
    shrink=st.floats(min_value=0.0, max_value=1.0),
    t_max=st.floats(min_value=0.5, max_value=40.0),
    values=st.lists(
        st.floats(min_value=0.0, max_value=1e6), min_size=4, max_size=60
    ),
)
def test_envelope_pass_is_monotone_in_rate(kind, rate, shrink, t_max, values):
    # the docstring's claim: a certificate that passes at one rate passes
    # at every smaller rate of the same class
    vals = np.asarray(values)
    t = np.linspace(0.0, t_max, vals.size)
    if certify_envelope(t, vals, _model(kind, rate, t_max, vals.size)).passed:
        weaker = _model(kind, rate * shrink, t_max, vals.size)
        assert certify_envelope(t, vals, weaker).passed


def test_class_discrimination_by_residual():
    vals = (1.0 + T**2) ** -1.0
    right = fit_decay(T, vals, "polynomial")
    wrong = fit_decay(T, vals, "exponential")
    assert wrong.residual > 10.0 * max(right.residual, 1e-12)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        fit_decay(T, np.exp(-T), "algebraic")


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        fit_decay(T, np.exp(-T), "exponential", window=(15.0, 2.0))


def test_negative_values_rejected():
    vals = np.exp(-T).copy()
    vals[250] = -1e-3
    with pytest.raises(NonPositiveValuesError):
        fit_decay(T, vals, "exponential")


def test_noise_floor_starves_the_fit():
    with pytest.raises(InsufficientDataError):
        fit_decay(T, np.full(T.size, 1e-15), "exponential")


def test_growing_path_rejected():
    with pytest.raises(ValueError, match="decay"):
        fit_decay(T, np.exp(0.3 * T), "exponential")


def test_zero_path_certifies_trivially():
    model = DecayModel(
        kind="exponential", rate=1.0, amplitude=1.0,
        window=(0.0, 20.0), residual=0.0, n_points=T.size,
    )
    cert = certify_envelope(T, np.zeros(T.size), model)
    assert cert.passed and cert.constant == 0.0
