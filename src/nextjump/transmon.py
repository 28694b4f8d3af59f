"""Dispersive transmon-cavity telegraph: bright-state lifetime, dark-period
spectrum, and the slow multiscale decay of the monitored ground state.

The cavity is watched for departures from its bright steady state.  A qubit
flip detunes the drive, the cavity field migrates toward the dim fixed point
gamma_L, and the watched overlap collapses at a rate beta_B.  Conditioned on
staying dark, a weakly driven three-level transmon then evolves inside an
effective non-Hermitian block whose two small eigenvalues set the telegraph's
long timescales.  The slow lull sector is governed by a memory kernel: the
ground amplitude obeys a Volterra equation whose asymptotic decay rate gamma
matches first-order perturbation theory.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import astuple, dataclass

import numpy as np
from scipy.integrate import quad
from scipy.linalg import block_diag

from .numerics import IntegrationError, RegimeWarning, fock_ops
from .trajectories import NullFlow

__all__ = [
    "DarkSpectrum",
    "TransmonParams",
    "beta_B",
    "dark_eigenvalues",
    "dark_norm_oracle",
    "diffusion_overlap",
    "multiscale_volterra",
    "norm_evolution_multiscale",
    "reduced_two_level",
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
            raise ValueError("rates, photon number and drive amplitudes must be finite")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if self.nbar < 0:
            raise ValueError("nbar must be non-negative")

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

    All three agree within 5% for nbar >= 100 and 2 chi/kappa >= 10.
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
    kappa = p.kappa

    def integrand(t):
        return math.exp(-(kappa / 2.0) * d2
                        * (t + (2.0 / kappa) * (math.exp(-kappa * t / 2.0) - 1.0)))

    upper = 50.0 / (kappa * math.sqrt(d2))
    val, err = quad(integrand, 0.0, upper, limit=400)
    if err > 1e-8 * val:
        raise IntegrationError(f"beta_B quadrature error {err:.2e} "
                               f"too large relative to {val:.6e}")
    return 2.0 / val


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


def dark_eigenvalues(p: TransmonParams,
                     method: str = "closed_form") -> DarkSpectrum:
    """Roots of E^2 + (2i|omega_b|^2/beta_B) E - |omega_d|^2 = 0.

    The quadratic eliminates the broad bright level from the dark-period
    three-level block; its two roots are the complex frequencies of the
    ground-dominated (fast, e_plus) and dark-dominated (slow, e_minus)
    survivors.  A complex omega_d enters only through |omega_d|^2.
    Asymptotic forms are flagged unreliable outside 1 >> eps >> eta.
    """
    bb = beta_B(p, method)
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
    h = block_diag(*blocks)
    h += np.kron(couplings, np.eye(blocks[0].shape[0]))
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


def dark_norm_oracle(p: TransmonParams, t, nmax: int = 200,
                     start: str = "gd") -> np.ndarray:
    """Squared norm of the dark-block state at times t (full Fock evolution
    exp(-i h t) on NullFlow).

    start 'gd' is the equal (G,D) vacuum superposition; 'd' and 'g' start
    in one level's vacuum.  The slowest fitted decay rate of the result
    equals 2 iE_minus of dark_eigenvalues in the perturbative regime.
    """
    dim = nmax + 1
    psi0 = np.zeros(3 * dim, dtype=complex)
    if start == "gd":
        psi0[dim] = 1.0 / math.sqrt(2.0)
        psi0[2 * dim] = 1.0 / math.sqrt(2.0)
    elif start == "g":
        psi0[dim] = 1.0
    elif start == "d":
        psi0[2 * dim] = 1.0
    else:
        raise ValueError(f"unknown start {start!r}")
    # h is built inside the call so that only -ih is alive while eig runs
    flow = NullFlow(-1j * _dark_block_matrix(p, nmax), psi0)
    norms = np.sum(np.abs(flow.state(t)) ** 2, axis=0)
    return float(norms) if np.ndim(t) == 0 else norms


# ---------------------------------------------------------------------------
# reduced and multiscale slow dynamics

def reduced_two_level(p: TransmonParams, state0, t):
    """Three-amplitude closure of the driven two-level slow sector.

    Tracks (bright 0-photon, ground 0-photon, ground 1-photon); the bright
    photon ladder is eliminated by the stationary-profile relation
    C_{B,1} = sqrt(2/pi) C_{B,0}, which turns the bright column into a
    plain width beta_B/2 = sqrt(2/pi) Gamma.  Needs Gamma^2/chi^2 << 1 so
    the two-photon ground amplitude stays negligible.
    """
    if p.chi != 0 and (p.gamma_drive / p.chi) ** 2 > 0.1:
        warnings.warn("closure needs gamma_drive^2/chi^2 << 1",
                      RegimeWarning, stacklevel=2)
    om = p.omega_b
    g = p.gamma_drive
    m = np.array([
        [-math.sqrt(2.0 / math.pi) * g, 1j * om, 0.0],
        [1j * np.conj(om), 0.0, -g],
        [0.0, g, -(0.5 * p.kappa - 1j * p.chi)],
    ], dtype=complex)
    out = NullFlow(m, state0).state(t)
    if np.ndim(t) == 0:
        return tuple(complex(c) for c in out)
    return tuple(out)


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
    for k in range(nst):
        lo = max(0, k - mcut)
        idx = np.arange(lo, k + 1)
        wts = np.ones(k + 1 - lo)
        wts[0] = 0.5
        wts[-1] = 0.5
        i_k = np.dot(wts * kern[k - idx], c[idx]) * dt
        cp = c[k] - dt * oo * i_k
        lo2 = max(0, k + 1 - mcut)
        idx2 = np.arange(lo2, k + 2)
        wts2 = np.ones(k + 2 - lo2)
        wts2[0] = 0.5
        wts2[-1] = 0.5
        cv = np.concatenate([c[lo2:k + 1], [cp]])
        i_k1 = np.dot(wts2 * kern[k + 1 - idx2], cv) * dt
        c[k + 1] = c[k] - 0.5 * dt * oo * (i_k + i_k1)
    return ts, c


def slow_rate(p: TransmonParams, method: str = "closed_form") -> float:
    """First-order slow decay rate gamma = 2|omega_b|^2/beta_B."""
    return 2.0 * abs(p.omega_b) ** 2 / beta_B(p, method)


def norm_evolution_multiscale(p: TransmonParams, t):
    """(norm, dnorm_dt) of the monitored slow-lull state.

    norm(t) = e^{-2 gamma t} + bright excursion population
        e^{-2 gamma t} 2 gamma int_0^t e^{2 gamma x - kappa^3 nbar x^3/12} dx
    dnorm_dt = -2 gamma norm + 2 gamma e^{-kappa^3 nbar t^3/12}.

    The source coefficient |omega_b|^2 (2/kappa) sqrt(2 pi/nbar) equals
    2 gamma identically, which is what makes dnorm_dt vanish at t = 0 and
    stay negative for t > 0: the cubic-law factor is < 1 while norm is
    continuous from 1.
    """
    gam = slow_rate(p)
    cube = p.kappa ** 3 * p.nbar / 12.0

    def one(tv: float):
        val, _ = quad(lambda x: math.exp(2.0 * gam * x - cube * x ** 3),
                      0.0, tv)
        norm = math.exp(-2.0 * gam * tv) * (1.0 + 2.0 * gam * val)
        dn = -2.0 * gam * norm + 2.0 * gam * math.exp(-cube * tv ** 3)
        return norm, dn

    if np.ndim(t) == 0:
        return one(float(t))
    pairs = [one(float(tv)) for tv in np.asarray(t, dtype=float)]
    norms = np.array([a for a, _ in pairs])
    dns = np.array([b for _, b in pairs])
    return norms, dns


def bright_population_exact(p: TransmonParams, t: float) -> float:
    """Bright-excursion population by direct 2-D quadrature of the memory
    double integral (the oracle for the Gaussian-kernel form inside
    norm_evolution_multiscale).  Slow for large t; used in checks."""
    from scipy.integrate import dblquad
    gam = slow_rate(p)
    kappa, nbar = p.kappa, p.nbar

    def beta_f(w):
        return -(kappa / 2.0) * nbar * (w + (2.0 / kappa)
                                        * (math.exp(-kappa * w / 2.0) - 1.0))

    def alpha_f(w):
        return math.sqrt(nbar) * (1.0 - math.exp(-kappa * w / 2.0))

    def f(wp, w):
        return math.exp(gam * (w + wp) + beta_f(wp) + beta_f(w)
                        + alpha_f(w) * alpha_f(wp))

    val, _ = dblquad(f, 0.0, t, 0.0, t, epsabs=1e-14, epsrel=1e-11)
    return math.exp(-2.0 * gam * t) * abs(p.omega_b) ** 2 * val


def bright_population_gauss(p: TransmonParams, t: float) -> float:
    """Gaussian-kernel form of the bright-excursion population (the term
    added to e^{-2 gamma t} inside norm_evolution_multiscale)."""
    gam = slow_rate(p)
    cube = p.kappa ** 3 * p.nbar / 12.0
    val, _ = quad(lambda x: math.exp(2.0 * gam * x - cube * x ** 3), 0.0, t)
    return (math.exp(-2.0 * gam * t) * abs(p.omega_b) ** 2
            * (2.0 / p.kappa) * math.sqrt(2.0 * math.pi / p.nbar) * val)


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


def diffusion_overlap(c: float, t) -> float:
    """Overlap decay e^{-C^2 t^2/8} of a frequency-kicked lossless cavity:
    the kappa -> 0 limit at fixed C = kappa sqrt(nbar), where the state
    stays normalized but wanders in phase."""
    if c < 0:
        raise ValueError("C must be non-negative")
    t = np.asarray(t, dtype=float)
    val = np.exp(-(c * t) ** 2 / 8.0)
    return float(val) if val.ndim == 0 else val


def two_level_fock(p: TransmonParams, t, nmax: int = 160,
                   frame: str = "shifted") -> np.ndarray:
    """Ground-vacuum amplitude |C_G0|(t) from the full two-level Fock
    evolution, the ground truth for multiscale_volterra.

    'unshifted': both blocks driven, ground block detuned by chi.
    'shifted': bright block carries the displaced collapse drive, ground
    block bare.  Start is ground x vacuum.
    """
    a, n = fock_ops(nmax)
    g = p.gamma_drive
    if frame == "unshifted":
        drive = -1j * g * (a - a.T)
        hb = -0.5j * p.kappa * n + drive
        hg = (-p.chi - 0.5j * p.kappa) * n + drive
    elif frame == "shifted":
        hb = -0.5j * p.kappa * n \
            - 0.5j * p.kappa * math.sqrt(p.nbar) * (a - a.T)
        hg = (-p.chi - 0.5j * p.kappa) * n
    else:
        raise ValueError(f"unknown frame {frame!r}")
    psi0 = np.zeros(2 * (nmax + 1), dtype=complex)
    psi0[nmax + 1] = 1.0
    flow = NullFlow(-1j * _level_blocks(
        (hb, hg), -np.array([[0, p.omega_b], [np.conj(p.omega_b), 0]])), psi0)
    out = np.abs(flow.state(t)[nmax + 1])
    return float(out) if np.ndim(t) == 0 else out
