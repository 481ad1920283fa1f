"""Asymptotic phase-space states and their Fourier data.

The scattering solver is driven by a prescribed terminal state: a
probability density on the cylinder (theta, omega) in T x R of the form

    f_inf(theta, omega) = g(omega) * (1 + sum_k a_k e^{i k theta}) / (2 pi)

with a finite set of angular modes.  Everything downstream (free flow,
order-parameter quadrature, decay certification) consumes this object
through its Fourier transform, so the transform is implemented in closed
form and the numerical quadrature only ever appears in tests as an
independent cross-check.

Transform convention:  fhat(k, eta) = Int e^{-i(k theta + eta omega)}
f_inf dtheta domega, so fhat(k, eta) = c_k * ghat(eta) with c_0 = 1 and
c_k = a_k otherwise.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InvalidStateError",
    "FrequencyProfile",
    "AsymptoticState",
    "spectral_transform",
    "free_order_parameter",
    "sample_labels",
    "real",
    "integer",
]

_PROFILE_KINDS = ("lorentzian", "gaussian", "laplace")
_DECAY_KINDS = ("exponential", "polynomial")
# labels per chunk of the label sampling and of the initial-phase interpolation
_LABEL_CHUNK = 1 << 14


class InvalidStateError(ValueError):
    """Raised when asymptotic data fails a structural invariant."""


def real(name, v, lo=-math.inf, above=False, error=ValueError) -> float:
    """The package's rule for a scalar argument: ``v`` as a float if it is a
    finite real number (numpy's included, not a bool) >= ``lo``, or > ``lo``
    with ``above``; else ``error`` naming ``name``."""
    try:
        x = float(v) if isinstance(v, numbers.Real) and not isinstance(v, bool) else math.nan
    except OverflowError:  # an int beyond the float range
        x = math.inf
    if not (math.isfinite(x) and (x > lo if above else x >= lo)):
        sign = ">" if above else ">="
        rule = f"finite and {sign} {lo:g}" if lo > -math.inf else "a finite real number"
        raise error(f"{name} must be {rule}, got {v!r}")
    return x


def integer(name, v, lo=1, error=ValueError) -> int:
    """The package's rule for a count or an index: ``v`` as an int if it is
    an integer (numpy's included; not a bool, a float or a string) >= ``lo``;
    else ``error`` naming ``name``."""
    try:
        n = operator.index(v)
    except TypeError:
        n = None
    if n is None or isinstance(v, bool) or n < lo:
        bounded = lo > -math.inf
        raise error(f"{name} must be an integer >= {lo}, got {v!r}" if bounded
                    else f"{name} {v!r} is not an integer")
    return n


@dataclass(frozen=True)
class FrequencyProfile:
    """Natural-frequency marginal g(omega), one of three closed-form families.

    Parameters
    ----------
    kind : str
        One of ``"lorentzian"``, ``"gaussian"``, ``"laplace"``.
    scale : float
        Positive finite width: half-width for the Lorentzian, standard
        deviation for the Gaussian, exponential scale for the Laplace.

    Notes
    -----
    All three families are normalized, even, and have explicitly known
    characteristic functions, which is what makes the free flow exactly
    computable:

    ==========  ============================  =======================
    kind        g(omega)                      ghat(eta)
    ==========  ============================  =======================
    lorentzian  s / (pi (s^2 + omega^2))      exp(-s |eta|)
    gaussian    exp(-omega^2/2s^2)/(s rt2pi)  exp(-s^2 eta^2 / 2)
    laplace     exp(-|omega|/s) / (2 s)       1 / (1 + s^2 eta^2)
    ==========  ============================  =======================
    """

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _PROFILE_KINDS:
            raise InvalidStateError(f"unknown frequency profile kind {self.kind!r}")
        scale = real("profile scale", self.scale, lo=0.0, above=True, error=InvalidStateError)
        object.__setattr__(self, "scale", scale)

    def density(self, omega):
        """Evaluate g(omega) elementwise."""
        w = np.asarray(omega, dtype=float)
        s = self.scale
        if self.kind == "lorentzian":
            return s / (math.pi * (s * s + w * w))
        if self.kind == "gaussian":
            return np.exp(-0.5 * (w / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        return np.exp(-np.abs(w) / s) / (2.0 * s)

    def transform(self, eta):
        """Characteristic function ghat(eta) = Int e^{-i eta omega} g(omega) domega.

        Real and even for all three families; returned as float array.
        """
        e = np.asarray(eta, dtype=float)
        s = self.scale
        if self.kind == "lorentzian":
            return np.exp(-s * np.abs(e))
        if self.kind == "gaussian":
            return np.exp(-0.5 * (s * e) ** 2)
        return 1.0 / (1.0 + (s * e) ** 2)

    def inverse_cdf(self, p):
        """Quantile function, used for inverse-CDF frequency sampling.

        Every entry of ``p`` must lie strictly in (0, 1), NaN refused, else
        ValueError.  The Gaussian quantile is the standard library's
        ``NormalDist.inv_cdf`` (Wichura's AS241), taken entry by entry.
        """
        q = np.asarray(p, dtype=float)
        if not np.all((q > 0.0) & (q < 1.0)):
            raise ValueError("quantile argument must lie strictly in (0, 1)")
        s = self.scale
        if self.kind == "lorentzian":
            return s * np.tan(math.pi * (q - 0.5))
        if self.kind == "gaussian":
            # imported here: only Gaussian sampling needs it
            from statistics import NormalDist

            return s * np.fromiter(map(NormalDist().inv_cdf, q.flat), float, q.size).reshape(q.shape)
        # two-sided exponential, split at the median
        return np.where(q < 0.5, s * np.log(2.0 * q), -s * np.log(2.0 * (1.0 - q)))


@dataclass(frozen=True)
class AsymptoticState:
    """Prescribed scattering datum with a declared decay class.

    Attributes
    ----------
    profile : FrequencyProfile
    modes : dict[int, complex]
        Angular Fourier amplitudes a_k for k > 0; negative modes are
        implied by realness (a_{-k} = conj(a_k)).  The k = 0 amplitude is
        fixed to 1 by normalization and must not appear here.  A key must
        be an int or a numpy integer (not a bool): a float or a string is
        refused rather than rounded onto a mode another key may name.
        Amplitudes are finite numbers (not bools or strings).
    decay_kind : str
        ``"exponential"`` or ``"polynomial"``: the class of time decay the
        order parameter is expected to exhibit, which must be compatible
        with the regularity of the profile.
    decay_rate : float
        Rate lambda > 0 (exponential) or degree gamma >= 2 (polynomial).
    """

    profile: FrequencyProfile
    modes: dict = field(default_factory=dict)
    decay_kind: str = "exponential"
    decay_rate: float = 1.0

    def __post_init__(self):
        clean = {}
        for k, a in self.modes.items():
            k = integer("mode key", k, lo=-math.inf, error=InvalidStateError)
            if k == 0:
                raise InvalidStateError("mode k=0 is fixed by normalization")
            if k < 0:
                raise InvalidStateError("specify only k > 0 modes; k < 0 follows by conjugation")
            if isinstance(a, numbers.Real) or not isinstance(a, numbers.Complex):
                a = real(f"mode amplitude a_{k}", a, error=InvalidStateError)
            a = complex(a)
            if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                raise InvalidStateError(f"mode amplitude a_{k} = {a} is not finite")
            clean[k] = a
        object.__setattr__(self, "modes", clean)
        # sufficient condition for pointwise nonnegativity of the angular factor
        total = 2.0 * sum(abs(a) for a in clean.values())
        if total > 1.0 + 1e-12:
            raise InvalidStateError(
                f"sum of |a_k| over k != 0 is {total:.6g} > 1; density may go negative"
            )
        if self.decay_kind not in _DECAY_KINDS:
            raise InvalidStateError(f"unknown decay kind {self.decay_kind!r}")
        exponential = self.decay_kind == "exponential"
        rate = real(f"{self.decay_kind} decay rate", self.decay_rate,
                    lo=0.0 if exponential else 2.0, above=exponential, error=InvalidStateError)
        object.__setattr__(self, "decay_rate", rate)
        if exponential:
            if self.profile.kind == "laplace":
                raise InvalidStateError(
                    "laplace profile has only polynomial transform decay; "
                    "exponential class is unattainable"
                )
            if self.profile.kind == "lorentzian" and self.decay_rate > self.profile.scale:
                raise InvalidStateError(
                    f"rate {self.decay_rate} exceeds the lorentzian transform rate "
                    f"{self.profile.scale}"
                )
        else:
            if self.profile.kind == "laplace" and self.decay_rate > 2.0:
                raise InvalidStateError(
                    "laplace transform decays like eta^-2; degree > 2 is unattainable"
                )

    def mode_amplitude(self, k: int) -> complex:
        """c_k: angular transform coefficient for any integer k."""
        if k == 0:
            return 1.0 + 0.0j
        if k > 0:
            return self.modes.get(k, 0.0 + 0.0j)
        return self.modes.get(-k, 0.0 + 0.0j).conjugate()

    def angular_factor(self, theta):
        """2 pi times the angular marginal: 1 + sum_k a_k e^{i k theta}, real."""
        th = np.asarray(theta, dtype=float)
        out = np.ones_like(th)
        for k, a in self.modes.items():
            out = out + 2.0 * (a.real * np.cos(k * th) - a.imag * np.sin(k * th))
        return out


def spectral_transform(state: AsymptoticState, k: int, eta):
    """fhat(k, eta) of the asymptotic density, in closed form.

    Separates as c_k * ghat(eta).  Complex-valued in general (the angular
    amplitudes may be complex); exactly zero for angular modes the state
    does not carry.  A ``k`` that is not an integer raises ValueError.
    """
    c = state.mode_amplitude(integer("k", k, lo=-math.inf))
    return c * state.profile.transform(eta)


def free_order_parameter(state: AsymptoticState, t):
    """Order parameter of the uncoupled flow, z(t) = fhat(-1, -t).

    Transporting labels by theta + omega t and integrating e^{i theta}
    against f_inf lands exactly on the (k, eta) = (-1, -t) transform
    value, so no quadrature is involved.
    """
    return spectral_transform(state, -1, -np.asarray(t, dtype=float))


def sample_labels(state: AsymptoticState, n: int, rng: np.random.Generator):
    """Draw n labels (theta, omega) ~ f_inf from the generator ``rng``.

    omega by inverse CDF of the profile, theta by rejection against the
    flat envelope of the angular factor.  Returns (theta, omega) float
    arrays of shape (n,); n must be an integer >= 1, else ValueError.
    """
    n = integer("n", n)
    omega = state.profile.inverse_cdf(rng.uniform(1e-300, 1.0 - 1e-16, size=n))
    bound = 1.0 + 2.0 * sum(abs(a) for a in state.modes.values())
    theta = np.empty(n, dtype=float)
    need = np.arange(n)
    while need.size:
        cand = rng.uniform(0.0, 2.0 * math.pi, size=need.size)
        u = rng.uniform(0.0, bound, size=need.size)
        # the acceptance a chunk at a time, so the angular factor's
        # temporaries stay a fixed size beside the draws
        keep = np.empty(need.size, dtype=bool)
        for lo in range(0, need.size, _LABEL_CHUNK):
            part = slice(lo, lo + _LABEL_CHUNK)
            np.less(u[part], state.angular_factor(cand[part]), out=keep[part])
        del u
        theta[need[keep]] = cand[keep]
        need = need[~keep]
    return theta, omega

