"""Driven, damped, dispersively shifted cavity conditioned on no jump.

Between detector clicks a coherently driven cavity stays in a (non-unit-norm)
coherent state exp(alpha c^dag + beta)|0>, so the whole no-click evolution
reduces to two scalar ODEs with closed solutions.  This module carries those
closed forms and the survival probability W(t) and next-jump density D(t)
they imply.  On a truncated Fock ladder the same no-click evolution is one
matrix, ``fock_generator``, and every truncated driven-cavity flow in the
package builds on it: the Fock oracle of the closed forms here
(``evolve_fock_oracle``), the cavity jump model (``effective_model``), the
heterodyne SSE oracle and the two-level transmon ground truth.

Frame conventions.  All evolutions track one conditioned qubit manifold.
`chi_eff = 0` means the drive is resonant with that manifold's cavity line;
a nonzero `chi_eff` is the dispersive detuning seen when it is not.  The
detection reference gamma_det shifts the jump operator: norm is lost at rate
kappa|alpha - gamma_det|^2, so gamma_det = 0 is plain photon counting and
gamma_det = sqrt(nbar) watches for departures from the bright steady state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .trajectories import EffectiveModel
from .numerics import (TAIL_TOL, FockVector, ParameterError, TruncationError,
                       expm_action, fock_ops)

__all__ = [
    "CavityParams",
    "CoherentTrajectory",
    "detuned_flow",
    "effective_model",
    "evolve_fock_oracle",
    "fock_generator",
    "mean_jump_time",
    "resonant_flow",
    "short_time_W",
]

@dataclass(frozen=True)
class CavityParams:
    """Cavity and measurement parameters.

    kappa: cavity decay rate, finite and > 0.
    chi: dispersive shift per photon (signed), finite.
    nbar: steady bright-state occupation, finite and >= 0.
    gamma_shift: coherent detection reference (0 = bare photon counting),
        finite.

    The drive amplitude is derived, ``gamma_drive = kappa*sqrt(nbar)/2``, so
    the resonant steady state holds nbar photons.  Each flow below states
    which manifold it evolves (resonant_flow, detuned_flow).
    """

    kappa: float
    chi: float = 0.0
    nbar: float = 0.0
    gamma_shift: complex = 0.0 + 0.0j

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ParameterError("kappa must be positive and finite")
        if not (math.isfinite(self.nbar) and self.nbar >= 0):
            raise ParameterError("nbar must be non-negative and finite")
        if not (math.isfinite(self.chi) and cmath.isfinite(self.gamma_shift)):
            raise ParameterError("chi and gamma_shift must be finite")

    @property
    def gamma_drive(self) -> float:
        return 0.5 * self.kappa * math.sqrt(self.nbar)


@dataclass(frozen=True)
class CoherentTrajectory:
    """Closed-form no-click flow on the coherent ansatz.

    The conditioned state is exp(alpha(t) c^dag + beta(t))|0> with

        d(alpha)/dt = (i chi_eff - kappa/2) alpha + drive
        d(beta)/dt  = (kappa conj(gamma_det) - drive) alpha
                      - (kappa/2)|gamma_det|^2

    With gamma_det = 0 this is d(beta)/dt = -drive * alpha.  Norm is lost
    only through the detector: d ln||psi||^2 / dt = -kappa|alpha-gamma_det|^2.
    """

    kappa: float
    drive: float
    chi_eff: float = 0.0
    gamma_det: complex = 0.0 + 0.0j
    alpha0: complex = 0.0 + 0.0j

    @property
    def lam(self) -> complex:
        return 1j * self.chi_eff - 0.5 * self.kappa

    @property
    def alpha_inf(self) -> complex:
        """Attracting fixed point drive/(kappa/2 - i chi_eff)."""
        return self.drive / (0.5 * self.kappa - 1j * self.chi_eff)

    def alpha(self, t):
        t = np.asarray(t, dtype=float)
        val = self.alpha_inf + (self.alpha0 - self.alpha_inf) * np.exp(self.lam * t)
        return complex(val) if val.ndim == 0 else val

    def _alpha_integral(self, t):
        t = np.asarray(t, dtype=float)
        return (self.alpha_inf * t
                + (self.alpha0 - self.alpha_inf) * np.expm1(self.lam * t) / self.lam)

    def beta(self, t):
        """beta(t) with beta(0) = 0."""
        g = self.kappa * np.conj(self.gamma_det) - self.drive
        h = -0.5 * self.kappa * abs(self.gamma_det) ** 2
        t_arr = np.asarray(t, dtype=float)
        # + 0j turns a -0.0 real part at t = 0 into 0.0
        val = g * self._alpha_integral(t) + h * t_arr + 0j
        return complex(val) if val.ndim == 0 else val

    def log_survival(self, t):
        """ln W(t) with W(0) = 1; W = exp(2 Re beta + |alpha|^2), normalized."""
        a = self.alpha(t)
        b = self.beta(t)
        val = 2.0 * np.real(b) + np.abs(a) ** 2 - abs(self.alpha0) ** 2
        return float(val) if np.ndim(val) == 0 else val

    def survival(self, t):
        return np.exp(self.log_survival(t))

    def jump_density(self, t):
        """D(t) = kappa |alpha - gamma_det|^2 W(t) = -dW/dt."""
        a = self.alpha(t)
        return self.kappa * np.abs(a - self.gamma_det) ** 2 * self.survival(t)


def resonant_flow(p: CavityParams) -> CoherentTrajectory:
    """Vacuum-start flow of the manifold the drive is resonant with."""
    return CoherentTrajectory(kappa=p.kappa, drive=p.gamma_drive,
                              chi_eff=0.0, gamma_det=p.gamma_shift)


def detuned_flow(p: CavityParams, alpha0: complex) -> CoherentTrajectory:
    """Flow of the manifold detuned by chi from the drive."""
    return CoherentTrajectory(kappa=p.kappa, drive=p.gamma_drive,
                              chi_eff=p.chi, gamma_det=p.gamma_shift,
                              alpha0=alpha0)


def short_time_W(p: CavityParams, t):
    """Cubic-law survival exp(-nbar kappa^3 t^3 / 12), valid for kappa*t << 1
    (resonant vacuum start)."""
    t = np.asarray(t, dtype=float)
    val = np.exp(-p.nbar * p.kappa ** 3 * t ** 3 / 12.0)
    return float(val) if val.ndim == 0 else val


def mean_jump_time(p: CavityParams) -> float:
    """Cube-root scale (3/(kappa Gamma^2))^(1/3) of the expected first-jump
    time in the cubic-law regime; the exact mean under the cubic law is
    this times gamma_fn(4/3) ~ 0.893."""
    return (3.0 / (p.kappa * p.gamma_drive ** 2)) ** (1.0 / 3.0)


def fock_generator(p: CavityParams, nmax: int) -> np.ndarray:
    """No-click generator of the driven cavity on Fock states 0..nmax,

        M = (i chi - kappa/2) n - (kappa/2)|gamma|^2 + Gamma a^dag
            + (kappa conj(gamma) - Gamma) a,

    Gamma = p.gamma_drive, gamma = p.gamma_shift: between clicks dC/dt =
    M C, and M + M^dag = -kappa (a - gamma)^dag (a - gamma).  Dense and
    complex, zero off its three bands."""
    n = np.arange(nmax + 1, dtype=float)
    sq = np.sqrt(n[1:])
    gamma = p.gamma_shift
    diag = (1j * p.chi - 0.5 * p.kappa) * n - 0.5 * p.kappa * abs(gamma) ** 2
    return (np.diag(diag) + np.diag(p.gamma_drive * sq, -1)
            + np.diag((p.kappa * np.conj(gamma) - p.gamma_drive) * sq, 1))


def evolve_fock_oracle(p: CavityParams, state0: FockVector,
                       t: float) -> FockVector:
    """C(t) = exp(M t) C(0) on the truncated Fock ladder, M =
    fock_generator(p, state0.nmax), by ``expm_action`` with bound ||M||_1.

    Uses p.chi as the manifold rotation, so pass chi=0 for the resonant
    variant.  Serves as the numerical oracle for every closed form in this
    module.  Raises ValueError for t negative or not finite, and
    TruncationError if the top Fock bin holds more than TAIL_TOL of the
    norm, however small the norm.

    Its floor is rounding.  An error of relative size u = 2^-53 re-enters
    near the vacuum as a fresh no-click start, whose survival, about
    exp(-nbar kappa^3 s^3 / 12), outlives the aged state's exp(-kappa
    |alpha|^2 s); an error made at time tau ends as about u^2 W(tau)
    W(t - tau) / W(t) of W(t).  From vacuum at default_nmax, W(t = 6) is
    off by 2.2e-12 (nbar 9), 8.1e-10 (nbar 16) and 6.5e-6 (nbar 25), and
    W(t = 4) at nbar 100 (7e-67) by a factor 2.4e15.
    """
    m = fock_generator(p, state0.nmax)
    out = FockVector(expm_action(lambda c: m @ c, np.linalg.norm(m, 1),
                                 state0.amps, t))
    norm = math.sqrt(out.norm_sq())
    if out.tail_mass() > TAIL_TOL * norm:
        raise TruncationError(
            f"top Fock bin holds relative amplitude "
            f"{out.tail_mass() / norm:.3e} at nmax={state0.nmax}")
    return out


def effective_model(p: CavityParams, nmax: int,
                    initial_state=None) -> EffectiveModel:
    """Truncated jump-unraveling model of the driven cavity.

    No-click generator fock_generator(p, nmax), so the manifold is detuned
    by p.chi, and one detection channel sqrt(kappa) (a - gamma_shift), the
    photon counter displaced by the detection reference.  There is no
    constant reset: a click applies that channel operator and renormalizes.
    Both unraveling and density-matrix routes share the truncated
    operators, so pick nmax comfortably above nbar for the comparison to say
    anything about the untruncated cavity.

    initial_state defaults to vacuum.  Note that from vacuum every
    trajectory stays coherent and a click leaves a coherent state fixed,
    so the unraveling has zero variance; pass a non-classical start (a
    number state, say) when the point is to exercise the jump average.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    a, _ = fock_ops(nmax)
    jump = np.sqrt(p.kappa) * (a - p.gamma_shift * np.eye(nmax + 1))
    if initial_state is None:
        psi0 = np.zeros(nmax + 1, dtype=complex)
        psi0[0] = 1.0
    else:
        psi0 = np.asarray(initial_state, dtype=complex)
        if psi0.shape != (nmax + 1,):
            raise ValueError("initial_state must have length nmax+1")
        psi0 = psi0 / np.sqrt(np.vdot(psi0, psi0).real)
    return EffectiveModel(generator=fock_generator(p, nmax), jump_ops=(jump,),
                          labels=("emission",), initial_state=psi0,
                          beta_fast=p.kappa, reset_state=None)
