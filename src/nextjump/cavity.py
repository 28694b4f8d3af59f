"""Driven, damped, dispersively shifted cavity conditioned on no jump.

Between detector clicks a coherently driven cavity stays in a (non-unit-norm)
coherent state exp(alpha c^dag + beta)|0>, so the whole no-click evolution
reduces to two scalar ODEs with closed solutions.  This module carries those
closed forms, the survival probability W(t) and next-jump density D(t) they
imply, and a truncated-Fock integrator that serves as the numerical oracle
for every closed form here.

Frame conventions.  All evolutions track one conditioned qubit manifold.
`chi_eff = 0` means the drive is resonant with that manifold's cavity line;
a nonzero `chi_eff` is the dispersive detuning seen when it is not.  The
detection reference gamma_det shifts the jump operator: norm is lost at rate
kappa|alpha - gamma_det|^2, so gamma_det = 0 is plain photon counting and
gamma_det = sqrt(nbar) watches for departures from the bright steady state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .trajectories import EffectiveModel
from .numerics import (TAIL_TOL, FockVector, ParameterError, TruncationError,
                       coherent_amplitudes, default_nmax, fock_ops,
                       integrate_ode)

__all__ = [
    "CavityParams",
    "CoherentTrajectory",
    "detuned_flow",
    "effective_model",
    "evolve_fock_oracle",
    "mean_jump_time",
    "resonant_flow",
    "shifted_basis_check",
    "short_time_W",
    "wrong_state_flow",
]

@dataclass(frozen=True)
class CavityParams:
    """Cavity and measurement parameters.

    kappa: cavity decay rate, finite and > 0.
    chi: dispersive shift per photon (signed).
    nbar: steady bright-state occupation, finite and >= 0.
    gamma_shift: coherent detection reference (0 = bare photon counting).

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


def wrong_state_flow(p: CavityParams) -> CoherentTrajectory:
    """Dark-period flow: cavity prepared in the bright fixed point
    sqrt(nbar), detection still referenced to it, but the manifold now
    evolves detuned by chi.  Norm loss starts at zero and approaches
    kappa*nbar/(1+(kappa/2chi)^2) as alpha migrates to gamma_L."""
    root = math.sqrt(p.nbar)
    return CoherentTrajectory(kappa=p.kappa, drive=p.gamma_drive,
                              chi_eff=p.chi, gamma_det=root, alpha0=root)


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


def _fock_rhs(p: CavityParams, nmax: int):
    # dC_n/dt = (i chi n + h) C_n - (kappa/2) n C_n + f sqrt(n) C_{n-1}
    #           + g sqrt(n+1) C_{n+1}
    n = np.arange(nmax + 1, dtype=float)
    gamma = p.gamma_shift
    f = p.gamma_drive
    g = p.kappa * np.conj(gamma) - p.gamma_drive
    h = -0.5 * p.kappa * abs(gamma) ** 2
    diag = (1j * p.chi - 0.5 * p.kappa) * n + h
    sq = np.sqrt(n)

    def rhs(t, c):
        out = diag * c
        out[1:] += f * sq[1:] * c[:-1]
        out[:-1] += g * sq[1:] * c[1:]
        return out

    return rhs


def evolve_fock_oracle(p: CavityParams, state0: FockVector,
                       t: float) -> FockVector:
    """Integrate the truncated Fock amplitude ODEs directly.

    Uses p.chi as the manifold rotation, so pass chi=0 for the resonant
    variant.  Serves as the numerical oracle for every closed form in this
    module.  Raises TruncationError if amplitude reaches the cutoff bin.
    """
    rhs = _fock_rhs(p, state0.nmax)
    out = FockVector(integrate_ode(rhs, state0.amps, 0.0, float(t)))
    norm = math.sqrt(out.norm_sq())
    if norm > 0 and out.tail_mass() > TAIL_TOL * max(norm, 1e-30):
        raise TruncationError(
            f"top Fock bin holds relative amplitude "
            f"{out.tail_mass() / norm:.3e} at nmax={state0.nmax}")
    return out


def shifted_basis_check(p: CavityParams) -> dict:
    """Probe the displaced-detection fixed point on the Fock oracle.

    The cavity starts in the coherent state at sqrt(nbar) with the drive
    resonant (chi = 0), and the oracle runs to t = 1 on 9 uniform points.
    The squared norm must then decay at the constant rate
    kappa|sqrt(nbar) - gamma_shift|^2, which is zero exactly at the shifted
    fixed point gamma_shift = sqrt(nbar): there the effective
    generator annihilates the displaced vacuum and the state sits still.
    The report carries the fitted rate, the prediction, and the worst
    infidelity against the initial state.
    """
    if p.chi != 0.0:
        raise ValueError("fixed-point check is defined for the resonant case")
    root = math.sqrt(p.nbar)
    nmax = default_nmax(p.nbar)
    psi0 = FockVector(coherent_amplitudes(root, -0.5 * root ** 2, nmax))
    times = np.linspace(0.0, 1.0, 9)
    lognorm = np.empty(times.size)
    infid = 0.0
    for i, t in enumerate(times):
        psi = psi0 if t == 0.0 else evolve_fock_oracle(p, psi0, t)
        lognorm[i] = math.log(psi.norm_sq())
        ov = abs(psi.inner(psi0)) ** 2 / (psi.norm_sq() * psi0.norm_sq())
        infid = max(infid, 1.0 - ov)
    fitted = -float(np.polyfit(times, lognorm, 1)[0])
    predicted = p.kappa * abs(root - p.gamma_shift) ** 2
    tol = max(1e-7, 1e-3 * predicted)
    return {
        "fitted_rate": fitted,
        "predicted_rate": predicted,
        "max_infidelity": infid,
        "gamma": p.gamma_shift,
        "passed": abs(fitted - predicted) < tol and infid < 1e-8,
    }


def effective_model(p: CavityParams, nmax: int,
                    initial_state=None) -> EffectiveModel:
    """Truncated jump-unraveling model of the resonantly driven cavity.

    No-click generator gamma_drive (a^dag - a) - (kappa/2) a^dag a on the
    first nmax+1 number states, one detection channel sqrt(kappa) a.  There
    is no constant reset: a click applies the annihilation operator and
    renormalizes.  Both unraveling and density-matrix routes share the
    truncated operators, so pick nmax comfortably above nbar for the
    comparison to say anything about the untruncated cavity.

    initial_state defaults to vacuum.  Note that from vacuum every
    trajectory stays coherent and a click leaves a coherent state fixed,
    so the unraveling has zero variance; pass a non-classical start (a
    number state, say) when the point is to exercise the jump average.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    a, n = fock_ops(nmax)
    gen = p.gamma_drive * (a.T - a) - (p.kappa / 2) * n
    if initial_state is None:
        psi0 = np.zeros(nmax + 1, dtype=complex)
        psi0[0] = 1.0
    else:
        psi0 = np.asarray(initial_state, dtype=complex)
        if psi0.shape != (nmax + 1,):
            raise ValueError("initial_state must have length nmax+1")
        psi0 = psi0 / np.sqrt(np.vdot(psi0, psi0).real)
    return EffectiveModel(generator=gen, jump_ops=(np.sqrt(p.kappa) * a,),
                          labels=("emission",), initial_state=psi0,
                          beta_fast=p.kappa, reset_state=None)
