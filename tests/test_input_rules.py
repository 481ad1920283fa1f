"""Input rules: a malformed argument of a public callable is refused by
name, in one line, before any sweep.

Each row of ``CASES`` calls one callable of a module's ``__all__`` with one
argument replaced, in turn, by each value of a catalog of the values input
checks most often miss: NaN, +-inf, a negative number, 0, a bool, a
string, None, a fraction where a count belongs and an array of the wrong
length.  Every call must raise a ValueError (InvalidStateError and
GridError are ValueErrors) whose message is one line naming the argument,
and ``characteristics.deviation_sweep`` must not have run before it.

A row lists only the values its argument refuses.  These stay documented
behaviour:

* NaN and inf inside a data array (the values of ``weighted_norm``, the
  times of ``free_order_parameter``) propagate into the result;
* ``ParticleEnsemble`` takes any finite real mu, negative ones included;
  an amplitude of ``AsymptoticState`` may be 0 or negative;
* a mode key <= 0 is refused by a message of its own (k = 0 is fixed by
  normalization, k < 0 follows by conjugation);
* None is the default of ``build_grid``'s n_omega, ``outer_solve``'s
  weight and tail_budget, and ``init_from_solution``'s seed.
"""

import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from kuramoto_dephasing import (
    AsymptoticState,
    DecayModel,
    FrequencyProfile,
    ParticleEnsemble,
    WeightSpec,
    backward_ode_oracle,
    build_grid,
    certify_envelope,
    characteristics,
    fit_decay,
    free_order_parameter,
    gamma_field,
    init_from_solution,
    order_parameter_of,
    outer_solve,
    reconstruct,
    sample_labels,
    simulate,
    solve_fixed_point,
    spectral_transform,
    verify_lemmas,
    weighted_norm,
)
from kuramoto_dephasing.characteristics import ContractionReport, deviation_sweep, picard_sweep
from kuramoto_dephasing.particles import comparison_inputs
from kuramoto_dephasing.scheme import DiagnosticsLedger, solve_inputs

MU = 0.05
PROFILE = FrequencyProfile("lorentzian", 1.0)
WEIGHT = WeightSpec("exponential", 0.9)
NAN, INF = math.nan, math.inf
WRONG_LENGTH = np.zeros(3)

# a finite real number: the bounded catalogs add what their bound refuses
REAL = [NAN, INF, -INF, True, "0.5", None]
AT_LEAST_0 = REAL + [-1.0]
ABOVE_0 = AT_LEAST_0 + [0.0]
COUNT = [NAN, INF, -1, 0, True, "8", None, 8.5]
INDEX = [NAN, INF, True, "1", None, 1.5]


def _no_tile(*args):
    raise AssertionError("a tile was handed out")


CASES = [
    ("FrequencyProfile", lambda c, v: FrequencyProfile("lorentzian", v), "scale", ABOVE_0),
    ("AsymptoticState", lambda c, v: AsymptoticState(PROFILE, {1: 0.05}, "exponential", v),
     "rate", ABOVE_0),
    ("AsymptoticState", lambda c, v: AsymptoticState(PROFILE, {1: 0.05}, "polynomial", v),
     "rate", ABOVE_0 + [1.5]),
    ("AsymptoticState", lambda c, v: AsymptoticState(PROFILE, {1: v}), "amplitude",
     REAL + [[0.1, 0.0]]),
    ("AsymptoticState", lambda c, v: AsymptoticState(PROFILE, {v: 0.05}), "mode key", INDEX),
    ("spectral_transform", lambda c, v: spectral_transform(c.state, v, 0.5), "k", INDEX),
    ("sample_labels", lambda c, v: sample_labels(c.state, v, np.random.default_rng(1)), "n",
     COUNT),
    ("WeightSpec", lambda c, v: WeightSpec("exponential", v), "rate", ABOVE_0),
    ("WeightSpec", lambda c, v: WeightSpec("polynomial", v), "rate", ABOVE_0 + [1.5]),
    ("weighted_norm", lambda c, v: weighted_norm(c.times, v, WEIGHT), "values", [WRONG_LENGTH]),
    ("build_grid", lambda c, v: build_grid(PROFILE, v, 0.1, 8, 17), "t_max", ABOVE_0),
    ("build_grid", lambda c, v: build_grid(PROFILE, 4.0, v, 8, 17), "dt", ABOVE_0),
    ("build_grid", lambda c, v: build_grid(PROFILE, 4.0, 0.1, v, 17), "n_theta", COUNT),
    ("build_grid", lambda c, v: build_grid(PROFILE, 4.0, 0.1, 8, v), "n_omega",
     [v for v in COUNT if v is not None]),
    ("Grid", lambda c, v: dataclasses.replace(c.grid, t_max=v), "t_max", ABOVE_0),
    ("Grid", lambda c, v: dataclasses.replace(c.grid, dt=v), "dt", ABOVE_0),
    ("Grid", lambda c, v: dataclasses.replace(c.grid, n_theta=v), "n_theta", COUNT + [8.0, 9]),
    ("deviation_sweep", lambda c, v: deviation_sweep(
        ContractionReport(0.0), c.grid, v, MU, WEIGHT, c.result.field.deviation,
        c.result.field.row_sups(), np.empty(c.grid.shape()), np.empty((2, c.times.size))), "z",
     [WRONG_LENGTH]),
    ("picard_sweep", lambda c, v: picard_sweep(c.grid, c.z, v, WEIGHT), "mu", AT_LEAST_0),
    ("picard_sweep", lambda c, v: picard_sweep(c.grid, v, MU, WEIGHT), "z", [WRONG_LENGTH]),
    ("solve_fixed_point", lambda c, v: solve_fixed_point(c.grid, c.z, v, WEIGHT), "mu",
     AT_LEAST_0),
    ("solve_fixed_point", lambda c, v: solve_fixed_point(c.grid, c.z, MU, WEIGHT, tol=v), "tol",
     ABOVE_0),
    ("solve_fixed_point", lambda c, v: solve_fixed_point(c.grid, v, MU, WEIGHT), "z",
     [WRONG_LENGTH]),
    ("backward_ode_oracle", lambda c, v: backward_ode_oracle(c.grid, c.z, v), "mu", AT_LEAST_0),
    ("backward_ode_oracle", lambda c, v: backward_ode_oracle(c.grid, v, MU), "z",
     [WRONG_LENGTH]),
    ("backward_ode_oracle", lambda c, v: backward_ode_oracle(c.grid, c.z, MU, phase_step_cap=v),
     "phase_step_cap", ABOVE_0),
    ("gamma_field", lambda c, v: gamma_field(c.result.field, v, _no_tile), "z", [WRONG_LENGTH]),
    ("order_parameter_of", lambda c, v: order_parameter_of(c.result.field, v, WEIGHT), "n_theta",
     ["aliased"]),
    ("solve_inputs", lambda c, v: solve_inputs(c.state, c.grid, v), "mu", AT_LEAST_0),
    ("outer_solve", lambda c, v: outer_solve(c.state, c.grid, v, WEIGHT, tail_budget=1e-2), "mu",
     AT_LEAST_0),
    ("outer_solve", lambda c, v: outer_solve(c.state, c.grid, MU, WEIGHT, tol_outer=v,
                                             tail_budget=1e-2), "tol_outer", ABOVE_0),
    ("outer_solve", lambda c, v: outer_solve(c.state, c.grid, MU, WEIGHT, tol_picard=v,
                                             tail_budget=1e-2), "tol_picard", ABOVE_0),
    ("outer_solve", lambda c, v: outer_solve(c.state, c.grid, MU, WEIGHT, tail_budget=v),
     "tail_budget", [v for v in ABOVE_0 if v is not None]),
    ("outer_solve", lambda c, v: outer_solve(v, c.grid, MU, WEIGHT, tail_budget=1e-2), "n_theta",
     ["aliased"]),
    ("reconstruct", lambda c, v: reconstruct(c.result, times=v), "time",
     [NAN, INF, -1.0, 0.05, [], [[0.0]]]),
    ("verify_lemmas", lambda c, v: verify_lemmas(v, WEIGHT, MU), "ledger", ["empty"]),
    ("fit_decay", lambda c, v: fit_decay(c.times, v, "exponential"), "values",
     [WRONG_LENGTH, "nan_values"]),
    ("fit_decay", lambda c, v: fit_decay(v, c.decaying, "exponential"), "times",
     ["nan_values", "reversed_times"]),
    ("fit_decay", lambda c, v: fit_decay(c.times, c.decaying, "exponential", window=v), "window",
     [(NAN, 3.0), (1.0, INF), (3.0, 1.0), (-1.0, 3.0), (1.0, 5.0)]),
    ("certify_envelope", lambda c, v: certify_envelope(c.times, v, c.model), "values",
     [WRONG_LENGTH, np.zeros(0), "nan_values"]),
    ("certify_envelope", lambda c, v: certify_envelope(v, c.decaying, c.model), "times",
     ["reversed_times"]),
    ("ParticleEnsemble", lambda c, v: ParticleEnsemble(np.zeros(2), np.ones(2), v), "mu",
     REAL + [0.5 + 0j]),
    ("ParticleEnsemble", lambda c, v: ParticleEnsemble(v, np.ones(2), MU), "phases",
     [WRONG_LENGTH]),
    ("simulate", lambda c, v: simulate(c.ensemble, v, 3), "dt", ABOVE_0),
    ("simulate", lambda c, v: simulate(c.ensemble, 0.01, v), "n_steps", COUNT),
    ("simulate", lambda c, v: simulate(c.ensemble, 0.01, 3, record_every=v), "record_every",
     COUNT),
    ("init_from_solution", lambda c, v: init_from_solution(c.result.field, c.state, v, seed=1),
     "n", COUNT),
    ("init_from_solution", lambda c, v: init_from_solution(c.result.field, c.state, 10, seed=v),
     "seed", [NAN, INF, -1, True, "x", 2.5]),
    ("comparison_inputs", lambda c, v: comparison_inputs(c.grid, v, 0.1, 1), "n", COUNT),
    # t_max = 4 and dt = 0.1: a step must lie in [0.1 / 4096, 4]
    ("comparison_inputs", lambda c, v: comparison_inputs(c.grid, 10, v, 1), "dt",
     ABOVE_0 + [5.0, 1e-9]),
    ("comparison_inputs", lambda c, v: comparison_inputs(c.grid, 10, 0.1, v), "seed",
     [NAN, INF, -1, True, "x", 2.5]),
]


def _label(value):
    if isinstance(value, np.ndarray):
        return f"array{value.shape}"
    return repr(value)


def _params():
    for name, call, arg, values in CASES:
        for value in values:
            yield pytest.param(call, arg, value, id=f"{name}-{arg}-{_label(value)}")


@pytest.fixture(scope="module")
def ctx():
    state = AsymptoticState(PROFILE, {1: 0.05}, "exponential", 0.9)
    grid = build_grid(PROFILE, t_max=4.0, dt=0.1, n_theta=8, n_omega=17)
    result = outer_solve(state, grid, MU, WEIGHT, tail_budget=1e-2)
    rng = np.random.default_rng(5)
    return SimpleNamespace(
        state=state,
        grid=grid,
        times=grid.times(),
        z=free_order_parameter(state, grid.times()),
        decaying=np.exp(-grid.times()),
        nan_values=np.full(grid.n_times, NAN),
        reversed_times=grid.times()[::-1],
        result=result,
        model=DecayModel("exponential", 1.0, 1.0, (2.0, 4.0), 0.0, 21),
        ensemble=ParticleEnsemble(rng.uniform(0.0, 6.0, 16), rng.normal(0.0, 1.0, 16), MU),
        # mode 4 on 8 angles: the grid reads it as mode -4
        aliased=AsymptoticState(PROFILE, {1: 0.05, 4: 0.05}, "exponential", 0.9),
        empty=DiagnosticsLedger(MU, WEIGHT.label(), {}, 1e-2, 0.0),
    )


@pytest.mark.parametrize("call, arg, value", _params())
def test_a_malformed_argument_is_refused_by_name_before_any_sweep(ctx, monkeypatch, call, arg,
                                                                   value):
    swept = []
    monkeypatch.setattr(characteristics, "deviation_sweep", lambda *a, **k: swept.append(a))
    if isinstance(value, str) and hasattr(ctx, value):
        # a name of ctx ("aliased", "empty") stands for the object it holds
        value = getattr(ctx, value)
    with warnings.catch_warnings():
        # a refusal comes before numpy meets the value
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            call(ctx, value)
    message = str(info.value)
    assert arg in message and "\n" not in message, message
    assert swept == []
