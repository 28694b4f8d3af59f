"""Dispersive transmon-cavity telegraph: bright-state lifetime, dark-period
spectrum, and the slow multiscale decay of the monitored ground state.

The cavity is watched for departures from its bright steady state.  A qubit
flip detunes the drive, the cavity field migrates toward the dim fixed point
gamma_L, and the watched overlap collapses at a rate beta_B.  Conditioned on
staying dark, a weakly driven three-level transmon then evolves inside an
effective non-Hermitian block whose two small eigenvalues set the telegraph's
long timescales.  The slow lull sector is governed by a memory kernel: the
ground amplitude obeys a Volterra equation whose asymptotic decay rate gamma
matches first-order perturbation theory.  Its ground truth is the full
two-level Fock evolution, ``two_level_fock``: in the shifted frame it follows
the Volterra curve, and in the unshifted frame it decays at -Re
``unshifted_rate``.  ``validity_ratio`` says how deep a drive sits in the
perturbative regime that the dark-spectrum asymptotics assume.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import astuple, dataclass

import numpy as np

from .cavity import CavityParams, fock_generator
from .numerics import (ParameterError, RegimeWarning, decay_rate, fock_ops,
                       gauss_legendre)
from .trajectories import NullFlow

__all__ = [
    "DarkSpectrum",
    "TransmonParams",
    "beta_B",
    "bright_kernel_log",
    "bright_population_gauss",
    "dark_eigenvalues",
    "dark_norm_fit",
    "dark_norm_oracle",
    "multiscale_fit",
    "multiscale_volterra",
    "norm_evolution_multiscale",
    "slow_rate",
    "two_level_fock",
    "unshifted_rate",
    "validity_ratio",
]


@dataclass(frozen=True)
class TransmonParams:
    """Dispersive-readout parameters.

    kappa: cavity decay rate, > 0.
    chi: dispersive shift per photon.
    nbar: bright-state photon occupation.
    omega_b: effective Rabi amplitude coupling the bright level to ground
        (a drive-cycle average, supplied as a constant).
    omega_d: Rabi amplitude coupling ground to the dark level.
    """

    kappa: float
    chi: float
    nbar: float
    omega_b: complex = 0.0 + 0.0j
    omega_d: complex = 0.0 + 0.0j

    def __post_init__(self):
        if not all(map(cmath.isfinite, astuple(self))):
            raise ParameterError("rates, photon number and drive amplitudes must be finite")
        if self.kappa <= 0:
            raise ParameterError("kappa must be positive")
        if self.nbar < 0:
            raise ParameterError("nbar must be non-negative")

    @property
    def gamma_drive(self) -> float:
        return 0.5 * self.kappa * math.sqrt(self.nbar)

    def gamma_L(self) -> complex:
        """Dim fixed point the detuned cavity relaxes to (shifted frame)."""
        return 1j * math.sqrt(self.nbar) * self.kappa / (2.0 * self.chi
                                                         + 1j * self.kappa)


def validity_ratio(p: TransmonParams) -> float:
    """Perturbative-regime monitor |omega_b|^2 / (beta_B kappa).

    The dark-spectrum asymptotics assume this is << 1.  Reported, never
    silently assumed: callers compare it against their own threshold.
    """
    return abs(p.omega_b) ** 2 / (beta_B(p, "closed_form") * p.kappa)


# ---------------------------------------------------------------------------
# bright-state lifetime

def beta_B(p: TransmonParams, method: str = "quadrature") -> float:
    """Cavity-induced decay rate of the watched bright level.

    quadrature: 2 over the time integral of the collapsing-overlap kernel
        exp(-(kappa/2) d^2 [t + (2/kappa)(e^{-kappa t/2} - 1)]) with
        d = |gamma_L - sqrt(nbar)| (the kernel drops the imaginary part of
        gamma_L, whose phase does not survive the average).
    steepest_descent: 2 kappa d / sqrt(2 pi), the Gaussian-peak estimate of
        the same integral.
    closed_form: 2 sqrt(2/pi) Gamma with Gamma = kappa sqrt(nbar)/2, the
        d -> sqrt(nbar) limit of steepest_descent.

    All three agree within 5% for nbar >= 100 and 2 chi/kappa >= 10.  At
    d = 0 (chi = 0) the kernel never decays and both integral routes return
    their limit 0.
    """
    if p.nbar <= 0:
        raise ValueError("beta_B requires nbar > 0")
    if method == "closed_form":
        return 2.0 * math.sqrt(2.0 / math.pi) * p.gamma_drive
    d2 = abs(p.gamma_L() - math.sqrt(p.nbar)) ** 2
    if method == "steepest_descent":
        return 2.0 * p.kappa * math.sqrt(d2) / math.sqrt(2.0 * math.pi)
    if method != "quadrature":
        raise ValueError(f"unknown beta_B method {method!r}")
    if d2 == 0.0:
        return 0.0
    return p.kappa / _overlap_integral(d2)


def _overlap_integral(s: float) -> float:
    """J(s) = int_0^inf exp(-s g(u)) du with g(u) = u + e^{-u} - 1: the
    time integral of the collapsing-overlap kernel in u = kappa t/2, for
    s = d^2 > 0.

    The kernel is a Gaussian core exp(-s u^2/2) and, past u ~ 1, the
    exponential tail e^{s(1-u)} exp(-s e^{-u}), long for small s.
    gauss_legendre covers [0, u0] and the tail beyond u0 is summed in
    closed form: at u0 = max(ln s + 20, 0), s e^{-u} <= e^{-20}, so
    exp(-s e^{-u}) = 1 - s e^{-u} within 2e-18.  For s above about 2.1 the
    bound g(u) >= u^2/(2 + u) puts s g at 40 before u0: the span ends there
    instead, and the kernel beyond it, below e^{-40}, is dropped.
    """
    u_tail = max(math.log(s) + 20.0, 0.0)
    u_dead = (40.0 + math.sqrt(1600.0 + 320.0 * s)) / (2.0 * s)
    core = gauss_legendre(lambda u: np.exp(-s * (u + np.expm1(-u))),
                          min(u_tail, u_dead))
    if u_dead <= u_tail:
        return core
    x0 = s * math.exp(-u_tail)
    return core + math.exp(s * (1.0 - u_tail)) * (1.0 / s - x0 / (s + 1.0))


# ---------------------------------------------------------------------------
# dark-period spectrum

@dataclass(frozen=True)
class DarkSpectrum:
    """Small eigenvalues of the dark (B,G,D) block.

    beta_b: bright-level width used in the reduction.
    e_plus: fast root (ground-bright mixing), iE_plus ~ 2 beta_b eps^2.
    e_minus: slow root (dark leakage), iE_minus ~ (beta_b/2) eta^2.
    epsilon: |omega_b|/beta_b.  eta: |omega_d/omega_b|.
    """

    beta_b: float
    e_plus: complex
    e_minus: complex
    epsilon: float
    eta: float

    @property
    def i_e_plus(self) -> float:
        return float((1j * self.e_plus).real)

    @property
    def i_e_minus(self) -> float:
        return float((1j * self.e_minus).real)

    @property
    def i_e_plus_asymptotic(self) -> float:
        return 2.0 * self.beta_b * self.epsilon ** 2

    @property
    def i_e_minus_asymptotic(self) -> float:
        return 0.5 * self.beta_b * self.eta ** 2

    @property
    def hierarchy_ok(self) -> bool:
        """beta_b >> |iE_plus| >> |iE_minus| (strict ordering check)."""
        return self.beta_b > abs(self.i_e_plus) > abs(self.i_e_minus)


def dark_eigenvalues(p: TransmonParams) -> DarkSpectrum:
    """Roots of E^2 + (2i|omega_b|^2/beta_B) E - |omega_d|^2 = 0, with the
    closed-form beta_B.

    The quadratic eliminates the broad bright level from the dark-period
    three-level block; its two roots are the complex frequencies of the
    ground-dominated (fast, e_plus) and dark-dominated (slow, e_minus)
    survivors.  A complex omega_d enters only through |omega_d|^2.
    Asymptotic forms are flagged unreliable outside 1 >> eps >> eta.
    """
    bb = beta_B(p, "closed_form")
    om2 = abs(p.omega_b) ** 2
    eps = abs(p.omega_b) / bb
    eta = abs(p.omega_d / p.omega_b) if p.omega_b != 0 else 0.0
    if eps >= 1.0 or (eps > 0 and eta >= eps):
        warnings.warn("dark-spectrum asymptotics need 1 >> eps >> eta",
                      RegimeWarning, stacklevel=2)
    b = 2j * om2 / bb
    disc = np.sqrt(b * b + 4.0 * abs(p.omega_d) ** 2)
    roots = sorted([(-b + disc) / 2.0, (-b - disc) / 2.0],
                   key=lambda z: abs(z.imag))
    return DarkSpectrum(beta_b=bb, e_plus=complex(roots[1]),
                        e_minus=complex(roots[0]), epsilon=eps, eta=eta)


def _level_blocks(blocks, couplings) -> np.ndarray:
    """Matrix on levels x Fock: the per-level Fock blocks on the diagonal,
    and the (levels, levels) qubit couplings acting photon-diagonally."""
    n = blocks[0].shape[0]
    h = np.zeros((len(blocks) * n,) * 2, dtype=np.result_type(*blocks))
    for i, block in enumerate(blocks):
        h[i * n:(i + 1) * n, i * n:(i + 1) * n] = block
    h += np.kron(couplings, np.eye(n))
    return h


def _dark_block_matrix(p: TransmonParams, nmax: int) -> np.ndarray:
    """Shifted-frame effective Hamiltonian on (B, G, D) x Fock.

    The bright block carries the collapse drive toward gamma_L; the G and D
    blocks share the detuned bare cavity line; the qubit drives couple
    B<->G and G<->D photon-diagonally.
    """
    gl = p.gamma_L()
    root = math.sqrt(p.nbar)
    a, n = fock_ops(nmax)
    hb = (-0.5j * p.kappa * n
          + 0.5j * p.kappa * ((np.conj(gl) - root) * a - (gl - root) * a.T))
    hnb = (-0.5j * p.kappa - p.chi) * n
    ob, od = p.omega_b, p.omega_d
    return _level_blocks((hb, hnb, hnb), -np.array(
        [[0, ob, 0], [np.conj(ob), 0, od], [0, np.conj(od), 0]]))


def dark_norm_oracle(p: TransmonParams, t, nmax: int = 200) -> np.ndarray:
    """Squared norm of the dark-block state at times t (full Fock evolution
    exp(-i h t) on NullFlow), started in the equal (G,D) vacuum
    superposition.

    The slowest fitted decay rate of the result equals 2 iE_minus of
    dark_eigenvalues in the perturbative regime.
    """
    dim = nmax + 1
    psi0 = np.zeros(3 * dim, dtype=complex)
    psi0[dim] = 1.0 / math.sqrt(2.0)
    psi0[2 * dim] = 1.0 / math.sqrt(2.0)
    # h is built inside the call so that only -ih is alive while eig runs
    flow = NullFlow(-1j * _dark_block_matrix(p, nmax), psi0)
    norms = np.sum(np.abs(flow.state(t)) ** 2, axis=0)
    return float(norms) if np.ndim(t) == 0 else norms


def dark_norm_fit(p: TransmonParams, npts: int, nmax: int) -> tuple:
    """Slow decay rate of the dark-block norm, fitted on the Fock oracle.

    The window runs from 5/iE_plus to 2/iE_minus (asymptotic forms), after
    the fast root has died out; dark_norm_oracle is evaluated on npts
    uniform points there and ln norm is fitted by a straight line.
    Returns (spectrum, times, norms, fitted rate, target 2 iE_minus).
    """
    spec = dark_eigenvalues(p)
    ts = np.linspace(5.0 / spec.i_e_plus_asymptotic,
                     2.0 / spec.i_e_minus_asymptotic, npts)
    norms = dark_norm_oracle(p, ts, nmax=nmax)
    return spec, ts, norms, decay_rate(ts, norms), 2.0 * spec.i_e_minus


# ---------------------------------------------------------------------------
# multiscale slow dynamics

def bright_kernel_log(p: TransmonParams, s):
    """Log of the memory kernel: resonant bright-branch survival amplitude
    exponent -(kappa/2) nbar [s + (2/kappa)(e^{-kappa s/2} - 1)]."""
    s = np.asarray(s, dtype=float)
    return -(p.kappa / 2.0) * p.nbar * (s + (2.0 / p.kappa)
                                        * (np.expm1(-p.kappa * s / 2.0)))


def multiscale_volterra(p: TransmonParams, tmax: float, dt: float):
    """Ground-amplitude decay with full memory of the bright excursion.

    Solves dC/dt = -|omega_b|^2 integral_0^t K(t-w) C(w) dw on a uniform
    grid with trapezoid weights and a Heun predictor-corrector step.  The
    kernel K = exp(bright_kernel_log) decays on the 1/(kappa sqrt(nbar))
    scale, so dt must resolve it; entries below 1e-18 are dropped from the
    memory sum.  Returns (times, C) with C real.
    """
    dt_max = 0.02 / (p.kappa * math.sqrt(p.nbar)) if p.nbar > 0 else math.inf
    if dt > dt_max * (1.0 + 1e-12):
        raise ValueError(f"dt={dt:.3e} too coarse for the kernel; "
                         f"need dt <= {dt_max:.3e}")
    nst = int(round(tmax / dt))
    ts = np.arange(nst + 1) * dt
    kern = np.exp(bright_kernel_log(p, ts))
    mcut = int(np.searchsorted(-kern, -1e-18))
    c = np.zeros(nst + 1)
    c[0] = 1.0
    oo = abs(p.omega_b) ** 2
    rkern = kern[::-1]

    def memory(j):
        """dt times the trapezoid sum of K(t_j - t_i) c_i over the last
        mcut steps, i = max(0, j - mcut)..j."""
        lo = max(0, j - mcut)
        w = rkern[nst - j + lo:].copy()         # kern[j - lo], ..., kern[0]
        w[-1] *= 0.5
        w[0] = 0.5 * kern[j - lo]               # w[-1] itself when j = 0
        return np.dot(w, c[lo:j + 1]) * dt

    for k in range(nst):
        i_k = memory(k)
        c[k + 1] = c[k] - dt * oo * i_k         # predictor
        c[k + 1] = c[k] - 0.5 * dt * oo * (i_k + memory(k + 1))
    return ts, c


def multiscale_fit(p: TransmonParams, tmax: float, dt: float,
                   fit_start: float) -> tuple:
    """multiscale_volterra on [0, tmax] and the decay rate of ln C fitted by
    a straight line over t >= fit_start.  Returns (times, C, rate)."""
    ts, c = multiscale_volterra(p, tmax=tmax, dt=dt)
    m = ts >= fit_start
    return ts, c, decay_rate(ts[m], c[m])


def slow_rate(p: TransmonParams) -> float:
    """First-order slow decay rate gamma = 2|omega_b|^2/beta_B, with the
    closed-form beta_B."""
    return 2.0 * abs(p.omega_b) ** 2 / beta_B(p, "closed_form")


def norm_evolution_multiscale(p: TransmonParams, t):
    """(norm, dnorm_dt) of the monitored slow-lull state at the times t.

    norm(t) = e^{-2 gamma t} + bright_population_gauss(p, t), the bright
        excursion population
        e^{-2 gamma t} 2 gamma int_0^t e^{2 gamma x - kappa^3 nbar x^3/12} dx
    dnorm_dt = -2 gamma norm + 2 gamma e^{-kappa^3 nbar t^3/12}.

    The source coefficient |omega_b|^2 (2/kappa) sqrt(2 pi/nbar) equals
    2 gamma identically, which is what makes dnorm_dt vanish at t = 0 and
    stay negative for t > 0: the cubic-law factor is < 1 while norm is
    continuous from 1.  Floats for a scalar t, else arrays shaped like t.
    """
    gam = slow_rate(p)
    cube = p.kappa ** 3 * p.nbar / 12.0
    t = np.asarray(t, dtype=float)
    norm = np.exp(-2.0 * gam * t) + bright_population_gauss(p, t)
    dn = -2.0 * gam * norm + 2.0 * gam * np.exp(-cube * t ** 3)
    if t.ndim == 0:
        return float(norm), float(dn)
    return norm, dn


def bright_population_gauss(p: TransmonParams, t):
    """Gaussian-kernel form of the bright-excursion population, the term
    norm_evolution_multiscale adds to e^{-2 gamma t}, at the times t (a
    float for a scalar t).  Its integral over [0, t] is held to 1e-8
    relative (IntegrationError otherwise).

    The integrand e^{2 gamma x - cube x^3} is below e^{-40} past x_dead =
    max((80/cube)^(1/3), 2 sqrt(gamma/cube)), where cube x^3 >= 4 gamma x
    and cube x^3/2 >= 40, so the span ends at min(t, x_dead).
    """
    gam = slow_rate(p)
    cube = p.kappa ** 3 * p.nbar / 12.0
    x_dead = max((80.0 / cube) ** (1.0 / 3.0), 2.0 * math.sqrt(gam / cube))
    t = np.asarray(t, dtype=float)
    val = gauss_legendre(lambda x: np.exp(2.0 * gam * x - cube * x ** 3),
                         np.minimum(t, x_dead))
    out = (np.exp(-2.0 * gam * t) * abs(p.omega_b) ** 2
           * (2.0 / p.kappa) * math.sqrt(2.0 * math.pi / p.nbar) * val)
    return float(out) if out.ndim == 0 else out


def unshifted_rate(p: TransmonParams) -> complex:
    """Complex decay rate of the ground amplitude in the unshifted frame:
    dispersive pull -i (kappa^2 nbar/4)/(chi + i kappa/2) plus the real
    loss -sqrt(2 pi/(kappa^2 nbar)) |omega_b|^2.  The loss term equals
    -slow_rate(p) identically; the dispersive term adds the frame's own
    drift and vanishes as chi -> infinity."""
    disp = -1j * (p.kappa ** 2 * p.nbar / 4.0) / (p.chi + 1j * p.kappa / 2.0)
    loss = -math.sqrt(2.0 * math.pi / (p.kappa ** 2 * p.nbar)) \
        * abs(p.omega_b) ** 2
    return disp + loss


def two_level_fock(p: TransmonParams, t, nmax: int = 160,
                   frame: str = "shifted") -> np.ndarray:
    """Ground-vacuum amplitude |C_G0|(t) from the full two-level Fock
    evolution, the ground truth for multiscale_volterra.

    Each block is a cavity.fock_generator; the bright one is the resonant
    driven cavity in both frames.  'unshifted': the ground block is driven
    too, detuned by chi.  'shifted': it is the bare detuned line (nbar 0).
    The qubit drive couples the blocks photon-diagonally.  Start is ground
    x vacuum.
    """
    if frame not in ("shifted", "unshifted"):
        raise ValueError(f"unknown frame {frame!r}")
    bright = fock_generator(CavityParams(p.kappa, nbar=p.nbar), nmax)
    ground = fock_generator(CavityParams(
        p.kappa, chi=p.chi, nbar=p.nbar if frame == "unshifted" else 0.0),
        nmax)
    psi0 = np.zeros(2 * (nmax + 1), dtype=complex)
    psi0[nmax + 1] = 1.0
    flow = NullFlow(_level_blocks(
        (bright, ground),
        1j * np.array([[0, p.omega_b], [np.conj(p.omega_b), 0]])), psi0)
    out = np.abs(flow.state(t)[nmax + 1])
    return float(out) if np.ndim(t) == 0 else out
