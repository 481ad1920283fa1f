"""Finite-N oscillator ensemble cross-validating the kinetic solution.

N phase oscillators coupled through their own empirical mean field,

    theta_i' = omega_i - mu R_N sin(theta_i - phi_N),
    R_N e^{i phi_N} = (1/N) sum_j e^{i theta_j},

integrated forward by classical RK4 with the mean field recomputed at
every stage.  Initial conditions are drawn from the asymptotic density
and pushed through the solved characteristic map at t = 0, so for large
N the empirical order parameter should track the kinetic one to within
sampling noise O(1/sqrt(N)).

Frequencies are constants of motion here and are never touched by the
integrator, so they are conserved exactly (bit for bit).

Precision: the phases are float64 and take the free rotation dt omega
exactly; the coupling torque of every RK4 stage is computed in float32
(see ``_step``).  Against a float64 RK4 with complex float64 mean fields
(N = 4000, 500 steps of 0.01, Cauchy omega clipped to +-80), z agrees to
6e-11 at mu = 0.05 and 1e-9 at mu = 0.5, and the final phases to 6e-10
and 1e-8; the tests hold them to 2e-9 and 2e-8.  That is four orders
below the sampling noise the ensemble is run to measure.  The recorded
order parameter is the float64 mean of the wrapped phases.
"""

from __future__ import annotations

import math
from concurrent.futures import wait
from dataclasses import dataclass, replace

import numpy as np

from .characteristics import MAX_SUBSTEPS, CharacteristicField, in_background
from .norms_grids import Grid, refuse_oversized
from .spectral_state import _LABEL_CHUNK, AsymptoticState, integer, real, sample_labels

__all__ = [
    "ParticleEnsemble",
    "KineticComparison",
    "simulate",
    "init_from_solution",
    "comparison_inputs",
    "compare_to_kinetic",
]

_TWO_PI = 2.0 * math.pi
# float64 arrays of length n a particle run holds at its peak, rounded up:
# tracemalloc reads 9.6 x 8n in simulate (the ensemble's phases and
# frequencies, the stepper's four float64 and five float32 rows, and the
# final phases), which sets it, and 5.9 x 8n in init_from_solution (the
# label sampling)
_PEAK_ARRAYS = 10


@dataclass(frozen=True)
class ParticleEnsemble:
    """Immutable snapshot of N oscillators at time t.

    ``mu`` may be any finite real number, numpy's and negative ones
    included; anything else is refused with a ValueError before a step.
    """

    phases: np.ndarray
    freqs: np.ndarray
    mu: float
    t: float = 0.0

    def __post_init__(self):
        real("mu", self.mu)
        phases = np.asarray(self.phases, dtype=float)
        freqs = np.asarray(self.freqs, dtype=float)
        if phases.ndim != 1 or phases.shape != freqs.shape or phases.size == 0:
            raise ValueError("phases and freqs must be matching non-empty 1-d arrays")
        if not (np.all(np.isfinite(phases)) and np.all(np.isfinite(freqs))):
            raise ValueError("non-finite particle state")
        object.__setattr__(self, "phases", np.mod(phases, _TWO_PI))
        object.__setattr__(self, "freqs", freqs)

    @property
    def n(self) -> int:
        return self.phases.size


def _mean_field(phases: np.ndarray) -> complex:
    # fixed-order pairwise reduction: deterministic for a given input
    return complex(np.mean(np.cos(phases)), np.mean(np.sin(phases)))


def _torque(x, s, c, out):
    """out <- Im(e^{i x} conj(z)) = zr sin x - zi cos x, z the mean of e^{i x}.

    All float32, with s and c as scratch.  The two sums are numpy's
    pairwise ``sum`` (no BLAS, so nothing depends on the thread count).
    zr and zi multiply sin and cos unscaled, so a lone particle's
    self-torque cos x sin x - sin x cos x is exactly 0.
    """
    np.sin(x, out=s)
    np.cos(x, out=c)
    zr = c.sum() / x.size
    zi = s.sum() / x.size
    s *= zr
    c *= zi
    np.subtract(s, c, out=out)


def _step(th, dw, hdw, mu, dt, fh, x, s, c, acc):
    """One classical RK4 step of theta' = omega - mu tau(theta), in place.

    tau(theta) = Im(e^{i theta} conj(z_N)).  omega is constant, so RK4 is
    exactly theta + dt omega - (mu dt / 6)(tau1 + 2 tau2 + 2 tau3 + tau4),
    with stage arguments theta + c dt omega - c dt mu tau_prev.  The
    float64 state th takes the free rotation dw = dt omega once (hdw is
    dt omega / 2).  The free parts theta + c dt omega are formed in
    float64 and cast once; the stage arguments, sin/cos, the mean-field
    sums, tau and the weighted torque sum are float32 (fh, x, s, c and
    acc are float32 rows), and that sum joins th in one cast and one
    multiply-add.  At mu = 0 the step is theta + dw bit for bit, and a
    lone particle rotates freely at any mu.  The caller wraps th back
    into [0, 2 pi).
    """
    half, whole = np.float32(0.5 * dt * mu), np.float32(dt * mu)
    np.add(th, hdw, out=fh, casting="same_kind")
    x[...] = th
    th += dw
    _torque(x, s, c, acc)
    np.multiply(acc, half, out=s)
    for scale in (half, whole):
        np.subtract(fh, s, out=x)
        _torque(x, s, c, s)
        acc += s
        acc += s
        s *= scale
    x[...] = th
    x -= s
    _torque(x, s, c, s)
    acc += s
    acc *= np.float32(dt * mu / 6.0)
    np.subtract(th, acc, out=th)


def _wrap_phases(th, near=False):
    """th <- np.mod(th, 2 pi) in place, with the same result.

    On [-2 pi, 4 pi) the remainder is th - 2 pi, th or th + 2 pi, and
    each is what np.mod returns: fmod is exact, th - 2 pi is exact there
    (Sterbenz), and th + 2 pi is the same single rounding np.mod applies
    to a negative remainder.  One RK4 step moves a wrapped phase far less
    than 2 pi, so two masked passes replace the division; anything else
    (including inf and NaN) goes through np.mod.  ``near`` vouches that th
    lies in [-2 pi, 4 pi) and skips the min and max that check it.  A -0.0
    input stays -0.0 where np.mod gives +0.0; the two compare equal.
    """
    if near or (-_TWO_PI <= th.min() and th.max() < 2.0 * _TWO_PI):
        np.subtract(th, _TWO_PI, out=th, where=th >= _TWO_PI)
        np.add(th, _TWO_PI, out=th, where=th < 0.0)
    else:
        np.mod(th, _TWO_PI, out=th)


def simulate(ens: ParticleEnsemble, dt: float, n_steps: int, record_every: int = 1):
    """Integrate n_steps of size dt, recording the empirical order
    parameter every record_every steps (and at both endpoints).

    dt must be finite and > 0; n_steps and record_every must be integers
    (numpy's included) >= 1.  Every record is taken off the stepping
    thread: the wrapped phases are copied into one snapshot array (the
    first record reads the input ensemble's phases, which are never
    written) and their mean field is computed on the package's thread
    pool (``characteristics.in_background``) while the next steps run.
    The pending record is collected before the snapshot is written
    again, so at most one is in flight and the path keeps its order;
    with one CPU it is computed in place and no thread starts.  The
    arithmetic is the same either way, so the output is bit-identical
    for any CPU count, and no pool thread holds an array of this call
    once it returns or raises.

    Returns (times, z_path, final_ensemble) with z_path complex.
    """
    real("dt", dt, lo=0.0, above=True)
    n_steps = integer("n_steps", n_steps)
    record_every = integer("record_every", record_every)
    (th, dw, hdw, snapshot), narrow = _work_rows(ens.n)
    th[...] = ens.phases
    np.multiply(ens.freqs, dt, out=dw)
    np.multiply(ens.freqs, 0.5 * dt, out=hdw)
    # a step moves a phase by at most |dt omega| + |mu| dt |tau|, and
    # |tau| <= |z_N| <= 1 up to float32 rounding: with that at most pi,
    # a wrapped phase in [0, 2 pi] stays inside [-2 pi, 4 pi)
    near = max(float(dw.max()), -float(dw.min())) + abs(ens.mu) * dt <= math.pi
    times, path = [ens.t], []
    pending = in_background(_mean_field, ens.phases)
    try:
        for j in range(1, n_steps + 1):
            _step(th, dw, hdw, ens.mu, dt, *narrow)
            _wrap_phases(th, near)
            if j % record_every == 0 or j == n_steps:
                times.append(ens.t + j * dt)
                path.append(pending.result())
                snapshot[:] = th
                pending = in_background(_mean_field, snapshot)
        path.append(pending.result())
    finally:
        wait((pending,))
    final = replace(ens, phases=th, t=ens.t + n_steps * dt)
    return np.asarray(times), np.asarray(path, dtype=complex), final


def _work_rows(n):
    """The stepper's arrays of length n, cut from one block: four float64
    rows (phases, dt omega, dt omega / 2, record snapshot) and the five
    float32 rows of ``_step``.  Each row starts on a 64-byte line, so the
    rows' relative placement is the same in every call, wherever the
    heap puts the block, and no two rows share a cache line.
    """
    row = -(-n // 16) * 16
    block = np.empty(64 + 52 * row, dtype=np.uint8)
    start = -block.ctypes.data % 64
    wide = block[start:start + 32 * row].view(np.float64).reshape(4, row)
    narrow = block[start + 32 * row:start + 52 * row].view(np.float32).reshape(5, row)
    return wide[:, :n], narrow[:, :n]


def init_from_solution(
    field: CharacteristicField,
    state: AsymptoticState,
    n: int,
    seed=None,
):
    """Sample n labels from the asymptotic density and place particles at
    the solved initial phases Theta(0, theta, omega) = theta + D(0).

    D(0) is interpolated bilinearly from the solver grid: periodic
    uniform interpolation in theta, piecewise linear in omega between
    quadrature nodes.  Labels whose omega falls outside the node range
    are redrawn (the count is returned); the quadrature already carries
    all but O(1e-9) of the frequency mass, so redraws are rare.  n must
    be an integer >= 1 and ``seed`` None or an integer >= 0 (numpy's
    included); anything else raises a ValueError naming it.

    Returns (ensemble, n_resampled).
    """
    n = integer("n", n)
    if seed is not None:
        seed = integer("seed", seed, lo=0)
    rng = np.random.Generator(np.random.PCG64(seed))
    nodes = field.grid.omega_nodes
    theta, omega = sample_labels(state, n, rng=rng)
    n_resampled = 0
    while True:
        out = (omega < nodes[0]) | (omega > nodes[-1])
        k = int(np.sum(out))
        if k == 0:
            break
        n_resampled += k
        theta[out], omega[out] = sample_labels(state, k, rng=rng)

    # a chunk at a time, so the interpolation's temporaries stay a fixed
    # size beside the labels
    dev0 = field.deviation[0]
    for lo in range(0, n, _LABEL_CHUNK):
        part = slice(lo, lo + _LABEL_CHUNK)
        theta[part] += _initial_deviation(dev0, nodes, theta[part], omega[part])
    ens = ParticleEnsemble(phases=theta, freqs=omega, mu=field.mu, t=0.0)
    return ens, n_resampled


def _initial_deviation(dev0, nodes, theta, omega):
    # D(0) at the labels, bilinear on the (theta, omega) grid
    m_theta = dev0.shape[0]
    h = _TWO_PI / m_theta
    j = np.floor(theta / h).astype(np.intp) % m_theta
    ft = theta / h - np.floor(theta / h)
    j1 = (j + 1) % m_theta

    k = np.clip(np.searchsorted(nodes, omega) - 1, 0, nodes.size - 2)
    fw = (omega - nodes[k]) / (nodes[k + 1] - nodes[k])

    return (
        (1.0 - ft) * ((1.0 - fw) * dev0[j, k] + fw * dev0[j, k + 1])
        + ft * ((1.0 - fw) * dev0[j1, k] + fw * dev0[j1, k + 1])
    )


def peak_bytes(n: int) -> int:
    """Bytes a particle run of n oscillators holds at its peak."""
    return 8 * _PEAK_ARRAYS * n


def comparison_inputs(grid: Grid, n: int, dt: float, seed):
    """``compare_to_kinetic``'s arguments on ``grid``, checked, as (n, dt,
    seed).  Raises ValueError naming an n that is not an integer >= 1, a dt
    that is not finite or lies outside [grid dt / MAX_SUBSTEPS, grid
    t_max] (at least one step within the horizon, and none finer than the
    oracle's finest sub-step), a seed that is neither None nor an integer
    >= 0, and an ensemble whose peak (``peak_bytes``) exceeds physical
    memory.
    """
    n = integer("particles n", n)
    dt = real("particles dt", dt, lo=0.0, above=True)
    if dt > grid.t_max:
        raise ValueError(f"particles dt {dt:.3g} is above grid t_max {grid.t_max:.3g}")
    if dt < grid.dt / MAX_SUBSTEPS:
        raise ValueError(f"particles dt {dt:.3g} is below grid dt / {MAX_SUBSTEPS} "
                         f"= {grid.dt / MAX_SUBSTEPS:.3g}")
    if seed is not None:
        seed = integer("particles seed", seed, lo=0)
    refuse_oversized("particle ensemble", peak_bytes(n), ValueError)
    return n, dt, seed


@dataclass(frozen=True, eq=False)
class KineticComparison:
    """A finite-N run beside the kinetic solution it was sampled from.

    ``z`` is the ensemble's order parameter at ``times``, ``r_kinetic``
    the kinetic |z| linearly interpolated to the same times, and ``gap``
    | |z| - r_kinetic |.  ``n_resampled`` counts the labels drawn again
    because their frequency fell outside the rule (``init_from_solution``).
    """

    times: np.ndarray
    z: np.ndarray
    r_kinetic: np.ndarray
    gap: np.ndarray
    n_resampled: int


def compare_to_kinetic(result, n: int, dt: float, seed) -> KineticComparison:
    """Sample n oscillators from a solve, run them to its horizon and
    compare their order parameter with the kinetic one.

    ``result`` is an ``outer_solve`` result; its field and state place the
    particles (``init_from_solution`` with ``seed``).  The run takes the
    whole steps of dt that fit in t_max, to rounding: a dt that does not
    divide t_max stops short of it rather than stepping past the kinetic
    grid, where the interpolated r would be np.interp's clamp.  It records
    every round(grid dt / dt) steps (at least every step), so records fall
    near the kinetic grid times.  The arguments are refused, before any
    sampling, by ``comparison_inputs``.
    """
    grid = result.grid
    n, dt, seed = comparison_inputs(grid, n, dt, seed)
    ens, n_resampled = init_from_solution(result.field, result.state, n, seed=seed)
    n_steps = int(grid.t_max / dt * (1.0 + 1e-9))
    stride = max(1, int(round(grid.dt / dt)))
    times, z, _ = simulate(ens, dt, n_steps, record_every=stride)
    r_kinetic = np.interp(times, grid.times(), result.path.r())
    gap = np.abs(np.abs(z) - r_kinetic)
    return KineticComparison(times, z, r_kinetic, gap, n_resampled)
