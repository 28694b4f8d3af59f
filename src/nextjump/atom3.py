"""Driven three-level fluorescing atom under null-measurement conditioning.

Level |0> is the ground state; a strong drive (rabi omega1, decay beta1)
cycles |0> <-> |1| and a weak drive (omega2, decay beta2) couples |0> <-> |2>
with detuning delta2.  Conditioned on seeing no photon, the amplitude vector
(c0, c1, c2) evolves under a non-Hermitian generator whose norm loss is the
click probability.  The module carries the exact flow, its jump model and
the closed-form rates of the slow (dark) branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import astuple, dataclass

import numpy as np

from .numerics import ParameterError
from .trajectories import EffectiveModel

__all__ = [
    "Atom3Params",
    "beta_ell",
    "dark_fraction",
    "effective_model",
    "generator",
    "scenario_a_log_survival",
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
            raise ParameterError("drive amplitudes, detuning and rates must be finite")
        if self.beta1 <= 0:
            raise ParameterError("beta1 must be positive")
        if self.beta2 < 0:
            raise ParameterError("beta2 must be non-negative")

    @property
    def epsilon(self) -> float:
        """Weak-drive smallness |omega2|/beta1 used by the closed forms."""
        return abs(self.omega2) / self.beta1


def generator(p: Atom3Params) -> np.ndarray:
    """No-click generator M with dC/dt = M C on (c0, c1, c2)."""
    return np.array([
        [0.0, 1j * np.conj(p.omega1), 1j * np.conj(p.omega2)],
        [1j * p.omega1, -0.5 * p.beta1, 0.0],
        [1j * p.omega2, 0.0, 1j * p.delta2 - 0.5 * p.beta2],
    ], dtype=complex)


def beta_ell(p: Atom3Params) -> float:
    """Decay rate of the slow branch: beta2/2 + 2|omega2|^2/beta1."""
    return 0.5 * p.beta2 + 2.0 * abs(p.omega2) ** 2 / p.beta1


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
