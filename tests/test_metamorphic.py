"""Metamorphic relations of the whole solve: symmetries of the kinetic
problem that ``outer_solve`` and ``reconstruct`` must carry over exactly,
up to rounding.

Rotation.  Turning every angle label by a grid angle phi = 2 pi j / n_theta
maps a_k to a_k e^{ik phi}; the solution is the old one read at
theta + phi, so z' = e^{-i phi} z and D' is D rolled back by j angles.

Reflection.  Mirroring the labels, (theta, omega) -> (-theta, -omega), maps
a_k to conj(a_k) on a symmetric frequency profile; then z' = conj(z) and
D'(t, theta_i, omega) = -D(t, theta_{-i mod n}, -omega) on the reversed
frequency nodes.  A state with real amplitudes is its own mirror image, so
the reflected states carry complex ones.

Either way the iteration sees the same numbers in another order: each
record takes the same sweeps, the ledger's floats agree to 1e-12
relative, and the dephasing and mass of the reconstruction to 1e-13.
Besides the fixed cases, states drawn by ``hypothesis`` are turned by one
angle and mirrored, and a drawn state and its image must end the same
way: both converged, related as above and passing the explicit lemma
checks and the Gamma bound, or both refused with the same status and
ledgers that agree as above.
"""

import cmath
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kuramoto_dephasing import (
    AsymptoticState,
    FrequencyProfile,
    NotConvergingError,
    build_grid,
    outer_solve,
    reconstruct,
    verify_lemmas,
)

LEDGER_RTOL = 1e-12
# the dephasing and mass, and the path and field against their own sups
FIELD_RTOL = 1e-13
# the Lorentzian rule's nodes tan(u) are symmetric only to rounding
LORENTZIAN_NODE_TOL = 1e-13
LORENTZIAN_WEIGHT_TOL = 5e-13

# name -> (profile, modes, decay kind and rate, mu, grid); dt 0.1
CASES = {
    "lorentzian_one_mode": ("lorentzian", {1: 0.05}, ("exponential", 0.9), 0.05,
                            dict(t_max=16.0, n_theta=16, n_omega=33)),
    "lorentzian_three_modes": ("lorentzian", {1: 0.1, 2: 0.05j, 3: 0.02}, ("exponential", 0.9),
                               0.2, dict(t_max=24.0, n_theta=16, n_omega=33)),
    "gaussian": ("gaussian", {1: 0.1 + 0.05j, 3: 0.03}, ("exponential", 0.9), 0.1,
                 dict(t_max=24.0, n_theta=16, n_omega=33)),
    "laplace": ("laplace", {1: 0.05, 2: 0.02}, ("polynomial", 2.0), 0.05,
                dict(t_max=40.0, n_theta=16, n_omega=64)),
}
# each real amplitude of a reflected case gains this imaginary part
MIRROR_IMAG = 0.02
# exp_ref's own grid, whose joint loop runs on 16 of its 64 angles: a turn
# by one angle does not permute the coarse grid
EXP_REF = ("lorentzian", {1: 0.05}, ("exponential", 0.9), 0.05,
           dict(t_max=20.0, dt=0.05, n_theta=64))


@functools.cache
def _grid(kind, grid):
    return build_grid(FrequencyProfile(kind, 1.0), **dict({"dt": 0.1}, **dict(grid)))


@functools.cache
def _solved(kind, modes, decay, mu, grid):
    # (result, reconstruction) of one case; modes and grid as sorted items
    g = _grid(kind, grid)
    state = AsymptoticState(FrequencyProfile(kind, 1.0), dict(modes), *decay)
    res = outer_solve(state, g, mu)
    return res, reconstruct(res)


def _solve(case, modes):
    kind, _, decay, mu, grid = case
    return _solved(kind, tuple(sorted(modes.items())), decay, mu, tuple(sorted(grid.items())))


def _gap(a, b):
    # sup |a - b| relative to sup |b|
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _ledger_floats(ledger):
    # every float of the ledger, in order, by its path, and the largest
    # magnitude of each key over the records and lists
    def walk(x, where, key):
        if isinstance(x, dict):
            for k in sorted(x):
                yield from walk(x[k], f"{where}.{k}", f"{key}.{k}")
        elif isinstance(x, (list, tuple)):
            for i, v in enumerate(x):
                yield from walk(v, f"{where}[{i}]", key)
        elif isinstance(x, float):
            yield where, key, x

    floats = list(walk(ledger.to_dict(), "ledger", "ledger"))
    scale = {}
    for _, key, x in floats:
        scale[key] = max(scale.get(key, 0.0), abs(x))
    return floats, scale


# a quotient of two differences near rounding carries their rounding over
# its denominator, so it is compared times that denominator, against the
# numerator's tolerance: key -> (numerator's key, the denominator of the
# entry at the ledger's record and list indices)
QUOTIENTS = {
    "ledger.records.cauchy_ratio": (
        "ledger.records.dz_norm", lambda records, n: records[n - 1]["dz_norm"]),
    "ledger.records.contraction.ratios": (
        "ledger.records.contraction.residuals",
        lambda records, n, i: records[n]["contraction"]["residuals"][i]),
}


def _assert_same_ledger(ledger, ref):
    # each float within LEDGER_RTOL of the largest of its key in ``ref``,
    # and each quotient as QUOTIENTS compares it
    (floats, _), (ref_floats, scale) = _ledger_floats(ledger), _ledger_floats(ref)
    assert [w for w, _, _ in floats] == [w for w, _, _ in ref_floats]
    for (where, key, x), (_, _, y) in zip(floats, ref_floats):
        gap = abs(x - y)
        if key in QUOTIENTS:
            key, denominator = QUOTIENTS[key]
            gap *= abs(denominator(ref.records, *map(int, re.findall(r"\[(\d+)\]", where))))
        assert gap <= LEDGER_RTOL * scale[key], (where, x, y)


def _assert_same_run(image, base):
    (res, rec), (ref, ref_rec) = image, base
    assert [r["contraction"]["sweeps"] for r in res.ledger.records] == [
        r["contraction"]["sweeps"] for r in ref.ledger.records]
    _assert_same_ledger(res.ledger, ref.ledger)
    np.testing.assert_allclose(rec.dephasing, ref_rec.dephasing, rtol=FIELD_RTOL, atol=0.0)
    np.testing.assert_allclose(rec.mass, ref_rec.mass, rtol=FIELD_RTOL, atol=0.0)


def _rotated(modes, phi):
    return {k: a * complex(math.cos(k * phi), math.sin(k * phi)) for k, a in modes.items()}


ROTATIONS = {name: (case, 3) for name, case in CASES.items()}
ROTATIONS["exp_ref"] = (EXP_REF, 1)


@pytest.mark.parametrize("name", list(ROTATIONS))
def test_a_rotated_state_gives_the_rotated_solution(name):
    case, j = ROTATIONS[name]
    modes = case[1]
    phi = 2.0 * math.pi * j / case[4]["n_theta"]
    base = _solve(case, modes)
    image = _solve(case, _rotated(modes, phi))
    (res, _), (ref, _) = image, base
    turn = complex(math.cos(phi), -math.sin(phi))
    assert _gap(res.path.values, turn * ref.path.values) <= FIELD_RTOL
    assert _gap(res.field.deviation, np.roll(ref.field.deviation, -j, axis=1)) <= FIELD_RTOL
    _assert_same_run(image, base)


def _complex(modes):
    # the amplitudes with an imaginary part each, so the mirror image differs
    return {k: a if a.imag else a + 1j * MIRROR_IMAG for k, a in
            ((k, complex(a)) for k, a in modes.items())}


def _symmetric_grid(case):
    # the case's grid, after checking that its frequency rule is symmetric
    g = _grid(case[0], tuple(sorted(case[4].items())))
    nodes, weights = g.omega_nodes, g.omega_weights
    if case[0] == "lorentzian":
        assert np.max(np.abs(nodes + nodes[::-1])) <= LORENTZIAN_NODE_TOL
        assert np.max(np.abs(weights - weights[::-1])) <= LORENTZIAN_WEIGHT_TOL
    else:
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    return g


@pytest.mark.parametrize("name", list(CASES))
def test_a_mirrored_state_gives_the_mirrored_solution(name):
    case = CASES[name]
    modes = _complex(case[1])
    g = _symmetric_grid(case)
    base = _solve(case, modes)
    image = _solve(case, {k: a.conjugate() for k, a in modes.items()})
    (res, _), (ref, _) = image, base
    mirror = (-np.arange(g.n_theta)) % g.n_theta
    assert _gap(res.path.values, np.conj(ref.path.values)) <= FIELD_RTOL
    assert _gap(res.field.deviation, -ref.field.deviation[:, mirror, ::-1]) <= FIELD_RTOL
    _assert_same_run(image, base)


# the drawn states: each profile with the decay class of its case above,
# on the cases' grids (t_max 20 lets a weak field meet the exponential
# tail budget)
DRAWN_DECAY = {"lorentzian": ("exponential", 0.9), "gaussian": ("exponential", 0.9),
               "laplace": ("polynomial", 2.0)}
DRAWN_GRIDS = {"exponential": dict(t_max=20.0, n_theta=16, n_omega=33),
               "polynomial": dict(t_max=40.0, n_theta=16, n_omega=33)}
# a drawn modulus or coupling is 0 or at least this: the relations hold to
# the relative rounding of normal floats, and a subnormal dephasing (from
# a_1 ~ 1e-211) carries one ulp of 5e-10 of itself
DRAWN_MIN = 1e-3
# a drawn real amplitude is turned by this before it is mirrored, so that
# its image differs and the draw keeps its moduli
DRAWN_MIRROR_TURN = cmath.exp(0.5j)
# the draw the tail budget refuses, at iterate 13 of the state and its image
TAIL_REFUSED = ("laplace", {1: 0.209}, DRAWN_DECAY["laplace"], 0.25, DRAWN_GRIDS["polynomial"])


@st.composite
def _drawn_cases(draw):
    # a profile, 1-3 of the modes k <= 3 with complex amplitudes of
    # 2 sum |a_k| <= 0.9, and mu in [0, 0.5]; mu = 0, the free flow, only
    # when a drawn integer in [0, 3] is 0
    kind = draw(st.sampled_from(sorted(DRAWN_DECAY)))
    ks = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    moduli = [draw(st.just(0.0) | st.floats(DRAWN_MIN, 0.45)) for _ in ks]
    phases = [draw(st.floats(0.0, 2.0 * math.pi)) for _ in ks]
    scale = 0.45 / max(0.45, sum(moduli))
    modes = {k: scale * m * cmath.exp(1j * p) for k, m, p in zip(ks, moduli, phases)}
    decay = DRAWN_DECAY[kind]
    mu = draw(st.floats(DRAWN_MIN, 0.5)) if draw(st.integers(0, 3)) else 0.0
    return kind, modes, decay, mu, DRAWN_GRIDS[decay[0]]


def _ending(case, modes):
    # (result, reconstruction) of a run that passes its explicit lemma
    # checks and the Gamma bound, or the refusal it ended in
    kind, _, decay, mu, grid = case
    state = AsymptoticState(FrequencyProfile(kind, 1.0), modes, *decay)
    try:
        res = outer_solve(state, _grid(kind, tuple(sorted(grid.items()))), mu)
    except NotConvergingError as exc:
        return exc
    rec = reconstruct(res)
    assert verify_lemmas(res.ledger, res.weight, res.mu)["all_explicit_pass"]
    assert rec.gamma_ok()
    return res, rec


def _close(a, b):
    # sup |a - b| within FIELD_RTOL of sup |b|, which may be 0
    return np.max(np.abs(a - b)) <= FIELD_RTOL * np.max(np.abs(b))


def _assert_same_ending(image, base, path, deviation):
    # both refused alike, or both converged with the image's path and
    # field the maps ``path`` and ``deviation`` of the base's
    assert type(image) is type(base)
    if isinstance(base, NotConvergingError):
        assert str(image) == image.ledger.status == base.ledger.status
        sweeps = [[r["contraction"]["sweeps"] for r in exc.ledger.records] for exc in (image, base)]
        assert sweeps[0] == sweeps[1]
        assert image.ledger.all_finite() and base.ledger.all_finite()
        _assert_same_ledger(image.ledger, base.ledger)
    else:
        (res, _), (ref, _) = image, base
        assert _close(res.path.values, path(ref.path.values))
        assert _close(res.field.deviation, deviation(ref.field.deviation))
        _assert_same_run(image, base)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=_drawn_cases())
@example(case=TAIL_REFUSED)
def test_a_drawn_state_and_its_turn_end_the_same_way(case):
    modes, n_theta = case[1], case[4]["n_theta"]
    phi = 2.0 * math.pi / n_theta
    turn = complex(math.cos(phi), -math.sin(phi))
    _assert_same_ending(_ending(case, _rotated(modes, phi)), _ending(case, modes),
                        lambda z: turn * z, lambda d: np.roll(d, -1, axis=1))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(case=_drawn_cases())
def test_a_drawn_state_and_its_mirror_end_the_same_way(case):
    modes = {k: a * DRAWN_MIRROR_TURN if a and not a.imag else a for k, a in case[1].items()}
    mirror = (-np.arange(case[4]["n_theta"])) % case[4]["n_theta"]
    _symmetric_grid(case)
    _assert_same_ending(_ending(case, {k: a.conjugate() for k, a in modes.items()}),
                        _ending(case, modes), np.conj, lambda d: -d[:, mirror, ::-1])
