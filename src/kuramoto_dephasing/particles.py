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
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import wait
from dataclasses import dataclass, replace

import numpy as np

from .characteristics import CharacteristicField, in_background
from .spectral_state import AsymptoticState, sample_labels

__all__ = [
    "ParticleEnsemble",
    "simulate",
    "init_from_solution",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ParticleEnsemble:
    """Immutable snapshot of N oscillators at time t."""

    phases: np.ndarray
    freqs: np.ndarray
    mu: float
    t: float = 0.0

    def __post_init__(self):
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


def _stage_rates(phases, freqs, mu, out):
    """theta' = omega - mu * Im(e^{i theta} conj(z_N)) at one RK4 stage.

    The trig and the projection run in single precision: numpy's f32
    sin/cos are SIMD-vectorized (~30x the f64 libm loops) and the 2e-7
    field error sits four orders below the O(1/sqrt N) sampling noise
    this simulator exists to measure.  Phase state and the mean-field
    accumulation stay double; at mu = 0 the field term vanishes exactly
    and the stage rate is the double-precision frequency, bit for bit.
    """
    th32 = phases.astype(np.float32)
    s = np.sin(th32)
    c = np.cos(th32)
    zr = np.float32(c.mean(dtype=np.float64))
    zi = np.float32(s.mean(dtype=np.float64))
    s *= zr
    c *= zi
    s -= c
    out[:] = s
    out *= -mu
    out += freqs
    return out


def _rk4_step(th, freqs, mu, dt, k, arg, acc):
    # classical RK4 on the phase vector, all scratch preallocated;
    # the caller owns wrapping th back into [0, 2 pi)
    _stage_rates(th, freqs, mu, out=k)
    acc[:] = k
    np.multiply(k, 0.5 * dt, out=arg)
    arg += th
    _stage_rates(arg, freqs, mu, out=k)
    acc += k
    acc += k
    np.multiply(k, 0.5 * dt, out=arg)
    arg += th
    _stage_rates(arg, freqs, mu, out=k)
    acc += k
    acc += k
    np.multiply(k, dt, out=arg)
    arg += th
    _stage_rates(arg, freqs, mu, out=k)
    acc += k
    acc *= dt / 6.0
    th += acc


def _wrap_phases(th):
    """th <- np.mod(th, 2 pi) in place, with the same result.

    On [-2 pi, 4 pi) the remainder is th - 2 pi, th or th + 2 pi, and
    each is what np.mod returns: fmod is exact, th - 2 pi is exact there
    (Sterbenz), and th + 2 pi is the same single rounding np.mod applies
    to a negative remainder.  One RK4 step moves a wrapped phase far less
    than 2 pi, so two masked passes replace the division; anything else
    (including inf and NaN) goes through np.mod.  A -0.0 input stays
    -0.0 where np.mod gives +0.0; the two compare equal.
    """
    if -_TWO_PI <= th.min() and th.max() < 2.0 * _TWO_PI:
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
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    n_steps = _count("n_steps", n_steps)
    record_every = _count("record_every", record_every)
    th = ens.phases.copy()
    freqs, mu = ens.freqs, ens.mu
    scratch = np.empty((3, th.size))
    snapshot = np.empty_like(th)
    times, path = [ens.t], []
    pending = in_background(_mean_field, ens.phases)
    try:
        for j in range(1, n_steps + 1):
            _rk4_step(th, freqs, mu, dt, *scratch)
            _wrap_phases(th)
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


def _count(name, value):
    # an integer >= 1, numpy integers included; floats and bools are refused
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}") from None
    if isinstance(value, bool) or count < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return count


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
    all but O(1e-9) of the frequency mass, so redraws are rare.

    Returns (ensemble, n_resampled).
    """
    if n < 1:
        raise ValueError("need n >= 1 particles")
    rng = np.random.Generator(np.random.PCG64(seed))
    grid = field.grid
    nodes = grid.omega_nodes
    theta, omega = sample_labels(state, n, rng=rng)
    n_resampled = 0
    while True:
        out = (omega < nodes[0]) | (omega > nodes[-1])
        k = int(np.sum(out))
        if k == 0:
            break
        n_resampled += k
        theta[out], omega[out] = sample_labels(state, k, rng=rng)

    dev0 = field.deviation[0]
    m_theta = grid.n_theta
    h = _TWO_PI / m_theta
    j = np.floor(theta / h).astype(np.intp) % m_theta
    ft = theta / h - np.floor(theta / h)
    j1 = (j + 1) % m_theta

    k = np.clip(np.searchsorted(nodes, omega) - 1, 0, nodes.size - 2)
    fw = (omega - nodes[k]) / (nodes[k + 1] - nodes[k])

    d0 = (
        (1.0 - ft) * ((1.0 - fw) * dev0[j, k] + fw * dev0[j, k + 1])
        + ft * ((1.0 - fw) * dev0[j1, k] + fw * dev0[j1, k + 1])
    )
    ens = ParticleEnsemble(phases=theta + d0, freqs=omega, mu=field.mu, t=0.0)
    return ens, n_resampled
