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
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InvalidStateError",
    "FrequencyProfile",
    "AsymptoticState",
    "spectral_transform",
    "free_order_parameter",
    "sample_labels",
]

_PROFILE_KINDS = ("lorentzian", "gaussian", "laplace")
_DECAY_KINDS = ("exponential", "polynomial")


class InvalidStateError(ValueError):
    """Raised when asymptotic data fails a structural invariant."""


@dataclass(frozen=True)
class FrequencyProfile:
    """Natural-frequency marginal g(omega), one of three closed-form families.

    Parameters
    ----------
    kind : str
        One of ``"lorentzian"``, ``"gaussian"``, ``"laplace"``.
    scale : float
        Positive width parameter: half-width for the Lorentzian, standard
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
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise InvalidStateError(f"profile scale must be positive, got {self.scale}")

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
        """Quantile function, used for inverse-CDF frequency sampling."""
        q = np.asarray(p, dtype=float)
        if np.any((q <= 0.0) | (q >= 1.0)):
            raise ValueError("quantile argument must lie strictly in (0, 1)")
        s = self.scale
        if self.kind == "lorentzian":
            return s * np.tan(math.pi * (q - 0.5))
        if self.kind == "gaussian":
            # imported here: only Gaussian sampling needs scipy.special
            from scipy import special

            return s * special.ndtri(q)
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
            if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
                raise InvalidStateError(f"mode key {k!r} is not an integer")
            k = int(k)
            if k == 0:
                raise InvalidStateError("mode k=0 is fixed by normalization")
            if k < 0:
                raise InvalidStateError("specify only k > 0 modes; k < 0 follows by conjugation")
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
        if not math.isfinite(self.decay_rate):
            raise InvalidStateError(f"decay rate {self.decay_rate} is not finite")
        if self.decay_kind == "exponential":
            if not (0.0 < self.decay_rate):
                raise InvalidStateError("exponential decay rate must be positive")
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
            if not (self.decay_rate >= 2.0):
                raise InvalidStateError("polynomial decay degree must be >= 2")
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

    def density(self, theta, omega):
        """f_inf on a broadcast (theta, omega) label set."""
        return self.angular_factor(theta) * self.profile.density(omega) / (2.0 * math.pi)


def spectral_transform(state: AsymptoticState, k: int, eta):
    """fhat(k, eta) of the asymptotic density, in closed form.

    Separates as c_k * ghat(eta).  Complex-valued in general (the angular
    amplitudes may be complex); exactly zero for angular modes the state
    does not carry.
    """
    c = state.mode_amplitude(int(k))
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
    arrays of shape (n,).
    """
    if n <= 0:
        raise ValueError("need n >= 1 samples")
    omega = state.profile.inverse_cdf(rng.uniform(1e-300, 1.0 - 1e-16, size=n))
    bound = 1.0 + 2.0 * sum(abs(a) for a in state.modes.values())
    theta = np.empty(n, dtype=float)
    need = np.arange(n)
    while need.size:
        cand = rng.uniform(0.0, 2.0 * math.pi, size=need.size)
        keep = rng.uniform(0.0, bound, size=need.size) < state.angular_factor(cand)
        theta[need[keep]] = cand[keep]
        need = need[~keep]
    return theta, omega

