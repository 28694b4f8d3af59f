"""Driven three-level fluorescing atom under null-measurement conditioning.

Level |0> is the ground state; a strong drive (rabi omega1, decay beta1)
cycles |0> <-> |1| and a weak drive (omega2, decay beta2) couples |0> <-> |2>
with detuning delta2.  Conditioned on seeing no photon, the amplitude vector
(c0, c1, c2) evolves under a non-Hermitian generator whose norm loss is the
click probability.  The module carries both the exact flow and the
closed-form asymptotics for the slow (dark) branch, plus the unitary
evolution of the same atom for contrast with the no-measurement story.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import astuple, dataclass

import numpy as np

from .numerics import RegimeWarning
from .trajectories import EffectiveModel, NullFlow

__all__ = [
    "Atom3Params",
    "Atom3State",
    "amplitude_c1_closed",
    "beta_ell",
    "dark_fraction",
    "effective_model",
    "evolve_null",
    "generator",
    "project_slow",
    "scenario_a_log_survival",
    "unitary_c1",
]


@dataclass(frozen=True)
class Atom3Params:
    """Drive and decay parameters of the three-level atom.

    omega1: Rabi amplitude of the strong transition (complex).
    omega2: Rabi amplitude of the weak transition (complex).
    delta2: detuning of the weak drive.
    beta1: emission rate of level |1> (fast channel), > 0.
    beta2: emission rate of level |2> (slow channel), >= 0.
    """

    omega1: complex
    omega2: complex
    delta2: float
    beta1: float
    beta2: float = 0.0

    def __post_init__(self):
        if not all(map(cmath.isfinite, astuple(self))):
            raise ValueError("drive amplitudes, detuning and rates must be finite")
        if self.beta1 <= 0:
            raise ValueError("beta1 must be positive")
        if self.beta2 < 0:
            raise ValueError("beta2 must be non-negative")

    @property
    def epsilon(self) -> float:
        """Weak-drive smallness |omega2|/beta1 used by the closed forms."""
        return abs(self.omega2) / self.beta1


@dataclass(frozen=True)
class Atom3State:
    """Conditioned amplitudes on (|0>, |1>, |2>); norm <= 1 between resets."""

    c0: complex
    c1: complex
    c2: complex

    @classmethod
    def ground(cls) -> "Atom3State":
        return cls(1.0 + 0.0j, 0.0j, 0.0j)

    @classmethod
    def from_array(cls, vec) -> "Atom3State":
        v = np.asarray(vec, dtype=complex)
        return cls(complex(v[0]), complex(v[1]), complex(v[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.c0, self.c1, self.c2], dtype=complex)

    def norm_sq(self) -> float:
        return abs(self.c0) ** 2 + abs(self.c1) ** 2 + abs(self.c2) ** 2

    def normalized(self) -> "Atom3State":
        n = math.sqrt(self.norm_sq())
        return Atom3State(self.c0 / n, self.c1 / n, self.c2 / n)

    def overlap(self, other: "Atom3State") -> complex:
        return complex(np.vdot(self.as_array(), other.as_array()))


def generator(p: Atom3Params) -> np.ndarray:
    """No-click generator M with dC/dt = M C on (c0, c1, c2)."""
    return np.array([
        [0.0, 1j * np.conj(p.omega1), 1j * np.conj(p.omega2)],
        [1j * p.omega1, -0.5 * p.beta1, 0.0],
        [1j * p.omega2, 0.0, 1j * p.delta2 - 0.5 * p.beta2],
    ], dtype=complex)


def evolve_null(p: Atom3Params, s: Atom3State, t: float) -> Atom3State:
    """Conditioned state after a click-free interval of length t."""
    flow = NullFlow(generator(p), s.as_array())
    return Atom3State.from_array(flow.state(float(t)))


def survival_curve(p: Atom3Params, s: Atom3State, t) -> np.ndarray:
    """W(t) = squared norm of the conditioned state, vectorized over t."""
    flow = NullFlow(generator(p), s.as_array())
    return flow.survival(t)


def beta_ell(p: Atom3Params) -> float:
    """Decay rate of the slow branch: beta2/2 + 2|omega2|^2/beta1."""
    return 0.5 * p.beta2 + 2.0 * abs(p.omega2) ** 2 / p.beta1


def _warn_regime(cond: bool, msg: str) -> None:
    if cond:
        warnings.warn(msg, RegimeWarning, stacklevel=3)


def amplitude_c1_closed(p: Atom3Params, t) -> complex:
    """Closed-form fast-level amplitude after a reset (asymptotic form).

    Valid for weak second drive (|omega2|/beta1 << 1), the weak drive tuned
    to the dressed resonance (delta2 = |omega1|), and strong first drive.
    The first term is the decaying Rabi cycle of the fast transition; the
    second is the slow branch fed by the weak drive.  Outside the regime a
    RegimeWarning is emitted and the value is still returned.
    """
    _warn_regime(p.epsilon > 0.1,
                 "closed-form c1 assumes |omega2|/beta1 << 1")
    _warn_regime(abs(p.delta2 - abs(p.omega1)) > 1e-9 * max(abs(p.omega1), 1.0),
                 "closed-form c1 assumes delta2 = |omega1|")
    _warn_regime(abs(p.omega1) < 2.0 * p.beta1,
                 "closed-form c1 assumes strong first drive")
    t = np.asarray(t, dtype=float)
    om1 = abs(p.omega1)
    bl = beta_ell(p)
    slow_w = 4.0 * abs(p.omega2) ** 2 / p.beta1 ** 2
    val = (1j * np.sin(om1 * t) * np.exp(-p.beta1 * t / 4.0)
           + slow_w * np.exp(1j * om1 * t)
           * (np.exp(-p.beta1 * t / 4.0) - np.exp(-bl * t)))
    if val.ndim == 0:
        return complex(val)
    return val


def dark_fraction(p: Atom3Params) -> tuple:
    """(p_D, branch_Gamma): asymptotic dark-time share of the telegraph and
    the share of dark periods that end through the strong channel.

    branch_Gamma = (1 + beta1*beta2/4|omega2|^2)^(-1); p_D = Gamma/(2+Gamma).
    A vanishing weak drive gives p_D = 0 (no dark periods at all).
    """
    if p.omega2 == 0:
        return 0.0, 0.0
    g = 1.0 / (1.0 + p.beta1 * p.beta2 / (4.0 * abs(p.omega2) ** 2))
    return g / (2.0 + g), g


def project_slow(p: Atom3Params, T: float, t: float) -> Atom3State:
    """Normalized slow-branch state after a click-free wait of length T.

    Once the fast modes have died out (beta1*T >> 1) the conditioned state
    collapses onto the slowly decaying eigenvector; its asymptotic form is
    (2i*eps, 2i*eps, 1)/sqrt(1+8 eps^2) rotating at the strong Rabi
    frequency.  T only gates the regime check; the returned state is the
    normalized eigenvector evaluated at time t.
    """
    _warn_regime(p.beta1 * T < 10.0,
                 "slow projection assumes beta1*T >> 1")
    if t < T:
        raise ValueError("projection time t must be >= the wait T")
    eps = p.epsilon
    f = 1.0 / math.sqrt(1.0 + 8.0 * eps ** 2)
    phase = np.exp(1j * abs(p.omega1) * t)
    return Atom3State(2j * eps * f * phase, 2j * eps * f * phase, f * phase)


def unitary_c1(p: Atom3Params, t) -> complex:
    """Fast-level amplitude under unitary (no-measurement) evolution.

    Closed form for |omega2/omega1| << 1 and delta2 = |omega1|; the weak
    drive shows up only as a slow cosine envelope.
    """
    _warn_regime(abs(p.omega1) > 0 and abs(p.omega2 / p.omega1) > 0.1,
                 "unitary closed form assumes |omega2/omega1| << 1")
    _warn_regime(abs(p.delta2 - abs(p.omega1)) > 1e-9 * max(abs(p.omega1), 1.0),
                 "unitary closed form assumes delta2 = |omega1|")
    t = np.asarray(t, dtype=float)
    om1 = abs(p.omega1)
    om2 = abs(p.omega2)
    val = 0.5 * (np.exp(1j * om1 * t) * np.cos(om2 * t / math.sqrt(2.0))
                 - np.exp(-1j * om1 * t))
    if val.ndim == 0:
        return complex(val)
    return val


def scenario_a_log_survival(p: Atom3Params, T: float) -> float:
    """log of the no-click probability over [0, T] if the atom evolved
    unitarily and only the averaged fast-level population (1/2 at
    saturation) fed the detector: log W = -beta1*T/2.

    Returned as a log because the probability itself underflows at any
    realistic rate (e.g. beta1 = 1e9/s over one second).
    """
    return -0.5 * p.beta1 * T


def effective_model(p: Atom3Params) -> EffectiveModel:
    """Jump-unraveling model: strong channel first, weak channel second,
    both resetting to the ground state."""
    L_fast = np.zeros((3, 3), dtype=complex)
    L_fast[0, 1] = math.sqrt(p.beta1)
    L_slow = np.zeros((3, 3), dtype=complex)
    L_slow[0, 2] = math.sqrt(p.beta2)
    ground = np.array([1.0, 0.0, 0.0], dtype=complex)
    return EffectiveModel(
        generator=generator(p),
        jump_ops=(L_fast, L_slow),
        labels=("fast", "slow"),
        initial_state=ground,
        beta_fast=p.beta1,
        reset_state=ground,
    )
