"""Diffusive conditional evolution of a monitored cavity mode.

A cavity relaxing at rate ``kappa`` and fed by a resonant drive of strength
``Gamma = kappa*sqrt(nbar)/2`` is watched continuously by mixing its output
with a strong detection beam of amplitude ``B``, offset in frequency by
``omega`` (heterodyne) or locked in phase (homodyne).  The detector record is
then white noise ``zeta'(t)`` of variance ``B**2`` per unit time riding on the
signal, and conditioning on the record turns the state evolution into a
linear stochastic equation.  On the coherent ansatz ``exp(alpha c^dag +
beta)|0>`` that equation closes: ``alpha(t)`` obeys a deterministic linear ODE
(the noise never feeds back into it) and only the scalar log-prefactor
``beta(t)`` is stochastic.

The coherent kernel advances ``(alpha, beta)`` exactly over each noise step
(piecewise-constant record derivative, within-step phase integrated in closed
form) and carries two demodulated record integrals: the plain average
``record_T`` whose time average ``I = record_T/t`` is the measured current,
and the exponentially filtered ``record_S`` with memory ``2/kappa``.  It takes
a whole record at once: alpha in closed form, beta and ``record_T`` as
cumulative sums, ``record_S`` as a blocked decaying sum.  A Fock-basis Euler
integrator serves as an oracle for the coherent route.

Since alpha(t) does not depend on the record, every quantity the ensemble
samplers return is a constant plus a fixed linear combination of the
independent increments ``dz_k ~ N(mu_k, B**2 dt)``: its law is exactly
Gaussian (Wiseman & Milburn, *Quantum Measurement and Control*, 2009, ch. 4).
The samplers draw from that law, m standard normals per path instead of one
per path and step: ``sample_tilted_currents`` and ``sample_raw_currents`` 2
(Re T, Im T), ``sample_ostensible_currents`` 3 (Re T, Im T and the log
weight, an exact multiple of Re T plus a constant, so the covariance has rank
2), ``sample_filtered_statistic`` 2 (Re S, Im S) and
``ensemble_unraveling_check`` 1 (Re beta).  They follow the per-step
recursions in law, not draw for draw.  The peak and width of ``|I|/B``
estimate ``sqrt(kappa*nbar)`` and the measurement accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .numerics import FockVector, RngStream, default_nmax

__all__ = [
    "CurrentStatistics",
    "HeterodyneParams",
    "NoisePath",
    "SSEState",
    "coherent_amplitudes",
    "current_statistics",
    "ensemble_unraveling_check",
    "gauge_equivalence",
    "integrate_sse",
    "integrate_sse_series",
    "norm_weighted_mean_abs",
    "null_correspondence",
    "sample_filtered_statistic",
    "sample_ostensible_currents",
    "sample_raw_currents",
    "sample_tilted_currents",
]

_PHASE_MODES = ("heterodyne", "homodyne")

# Stream indices reserved per sampler so that different ensembles drawn from
# the same seed never share a noise sequence.
_STREAM_PATH = 0
_STREAM_TILTED = 1
_STREAM_OSTENSIBLE = 2
_STREAM_RAW = 3
_STREAM_FILTERED = 4
_STREAM_UNRAVELING = 5

#: steps the coherent kernel advances together.  It bounds the kernel's
#: working arrays, and as the step guard keeps kappa*dt <= 0.01, the in-block
#: rescaling e^{kappa dt m/2} of record_S stays below e^{0.005*2048} ~ 3e4.
_BLOCK = 2048


def _max_step(kappa: float, omega: float) -> float:
    """Largest noise step resolving both the phase and the decay."""
    if omega > 0:
        return min(0.05 / omega, 0.01 / kappa)
    return 0.01 / kappa


@dataclass(frozen=True)
class HeterodyneParams:
    """Monitored-cavity parameters.

    kappa: cavity decay rate; nbar: target photon number of the drive
    (drive strength Gamma = kappa*sqrt(nbar)/2); B: detection-beam
    amplitude; omega: heterodyne offset frequency, defaulting to 50*kappa
    which keeps the fast phase well separated from the cavity decay.
    """

    kappa: float
    nbar: float
    B: float = 1.0
    omega: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ValueError("kappa must be positive and finite")
        if not (math.isfinite(self.nbar) and self.nbar >= 0):
            raise ValueError("nbar must be nonnegative and finite")
        if not (math.isfinite(self.B) and self.B > 0):
            raise ValueError("detection beam amplitude B must be positive and finite")
        if self.omega is None:
            object.__setattr__(self, "omega", 50.0 * self.kappa)
        elif not (math.isfinite(self.omega) and self.omega >= 0):
            raise ValueError("omega must be nonnegative and finite")

    @property
    def gamma_drive(self) -> float:
        return self.kappa * np.sqrt(self.nbar) / 2

    @property
    def alpha_steady(self) -> float:
        """Fixed point of the amplitude flow, 2*Gamma/kappa = sqrt(nbar)."""
        return 2 * self.gamma_drive / self.kappa

    def max_step(self) -> float:
        """Largest noise step resolving both the phase and the decay."""
        return _max_step(self.kappa, self.omega)


@dataclass(frozen=True, eq=False)
class NoisePath:
    """One realization of the detector record.

    ``increments[k]`` is the record increment over step k, Gaussian with
    variance B**2*dt under the ostensible measure.  The demodulation phase is
    ``omega*t + phase0`` (heterodyne) or the constant ``phase0`` (homodyne).
    """

    dt: float
    increments: np.ndarray
    B: float
    omega: float = 0.0
    phase0: float = 0.0
    phase_mode: str = "heterodyne"

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if not (math.isfinite(self.B) and self.B > 0):
            raise ValueError("B must be positive and finite")
        if self.phase_mode not in _PHASE_MODES:
            raise ValueError(f"phase_mode must be one of {_PHASE_MODES}")
        if self.phase_mode == "homodyne" and self.omega != 0.0:
            raise ValueError("homodyne paths carry a constant phase; omega must be 0")
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 1:
            raise ValueError("increments must be a 1-D array")
        object.__setattr__(self, "increments", inc)

    @property
    def nsteps(self) -> int:
        return self.increments.size

    @property
    def duration(self) -> float:
        return self.nsteps * self.dt

    def variance_ratio(self) -> float:
        """Empirical increment variance over the nominal B**2*dt."""
        if self.nsteps == 0:
            return float("nan")
        return float(np.var(self.increments) / (self.B**2 * self.dt))

    @classmethod
    def draw(cls, params: HeterodyneParams, duration: float, dt: float,
             seed: int, stream: int = _STREAM_PATH, phase0: float = 0.0) -> "NoisePath":
        """Sample a record under the ostensible (mean-zero) measure.

        The path is fully determined by (seed, stream): one Gaussian draw of
        all increments from the dedicated counter-based stream.
        """
        nsteps = int(round(duration / dt))
        rng = RngStream(seed, stream).generator()
        dz = rng.normal(0.0, params.B * np.sqrt(dt), size=nsteps)
        return cls(dt=dt, increments=dz, B=params.B, omega=params.omega,
                   phase0=phase0)

    @classmethod
    def silent(cls, params: HeterodyneParams, duration: float, dt: float,
               phase0: float = 0.0) -> "NoisePath":
        """The zero-record path (deterministic flow)."""
        nsteps = int(round(duration / dt))
        return cls(dt=dt, increments=np.zeros(nsteps), B=params.B,
                   omega=params.omega, phase0=phase0)


@dataclass(frozen=True, eq=False)
class SSEState:
    """Conditioned (unnormalized) state after integrating one record.

    Coherent form carries (alpha, beta) with norm^2 = exp(2 Re beta +
    |alpha|^2); Fock form carries the amplitude vector.  Both carry the
    accumulated demodulated record integral ``record_T`` (current I =
    record_T/t, stored in units of B) and the filtered record ``record_S``.
    """

    t: float
    record_T: complex
    record_S: complex
    alpha: complex | None = None
    beta: complex | None = None
    fock: FockVector | None = None

    @property
    def is_coherent(self) -> bool:
        return self.fock is None

    def current(self) -> complex:
        if self.t <= 0:
            raise ValueError("current undefined at t = 0")
        return self.record_T / self.t

    def log_norm_sq(self) -> float:
        if self.fock is not None:
            return float(np.log(self.fock.norm_sq()))
        return float(2 * self.beta.real + abs(self.alpha) ** 2)

    def norm_sq(self) -> float:
        if self.fock is not None:
            return self.fock.norm_sq()
        return float(np.exp(2 * self.beta.real + abs(self.alpha) ** 2))


def coherent_amplitudes(alpha: complex, beta: complex, nmax: int) -> np.ndarray:
    """Fock amplitudes of exp(alpha c^dag + beta)|0>, stable in log space."""
    n = np.arange(nmax + 1)
    logmag = n * np.log(np.abs(alpha) + 1e-300) - 0.5 * special.gammaln(n + 1.0)
    ph = np.exp(1j * n * np.angle(alpha))
    return np.exp(logmag + beta) * ph


def _step_constants(kappa: float, omega: float, dt: float):
    """Exact within-step integrals of the demodulating phase factors.

    I1 = int_0^dt e^{-i w s} ds, I2 = same with the extra decay e^{-kappa s/2},
    I3 = dt, I4 = int_0^dt e^{-kappa s/2} ds.
    """
    k2 = kappa / 2
    if omega != 0.0:
        I1 = (1 - np.exp(-1j * omega * dt)) / (1j * omega)
        I2 = (1 - np.exp(-(1j * omega + k2) * dt)) / (1j * omega + k2)
    else:
        I1 = dt + 0j
        I2 = (1 - np.exp(-k2 * dt)) / k2 + 0j
    I3 = dt
    I4 = (1 - np.exp(-k2 * dt)) / k2
    return I1, I2, I3, I4


def _check_step(kappa: float, omega: float, dt: float):
    limit = _max_step(kappa, omega)
    if dt > limit * (1 + 1e-12):
        raise ValueError(
            f"noise step dt={dt:g} exceeds {limit:g}; the step must "
            "resolve both the demodulation phase and the cavity decay")


def _demod(omega: float, phase0: float, dt: float, steps: np.ndarray):
    """Phases e^{-i(omega t_k + phase0)} at the starts of the given steps, and
    their in-step averages ehat_k, the demodulation weights of the record."""
    ph = np.exp(-1j * (omega * (dt * steps) + phase0))
    if omega == 0.0:
        return ph, ph
    return ph, ph * ((1 - np.exp(-1j * omega * dt)) / (1j * omega * dt))


def _coherent_terms(params: HeterodyneParams, path: NoisePath, steps: np.ndarray,
                    alpha0: complex = 0j):
    """Coefficients of the coherent update at the given steps of the grid of
    ``path`` (its increments are not read).

    Returns alpha at the start of each step, the demodulation weights ehat_k,
    and the beta increment of step k as ``gain_k*dz_k + drift_k``, where with
    delta_k = alpha_k - abar, gain_k = (sqrt(kappa)/(B dt)) e^{-i phi_k}
    (abar I1 + delta_k I2) and drift_k = -Gamma (abar I3 + delta_k I4)."""
    kappa, Gam, dt = params.kappa, params.gamma_drive, path.dt
    abar = 2 * Gam / kappa
    I1, I2, I3, I4 = _step_constants(kappa, path.omega, dt)
    d = (alpha0 - abar) * np.exp(-kappa / 2 * dt * steps)
    ph, ehat = _demod(path.omega, path.phase0, dt, steps)
    gain = (np.sqrt(kappa) / (path.B * dt)) * ph * (abar * I1 + d * I2)
    drift = -Gam * (abar * I3 + d * I4)
    return np.where(steps == 0, alpha0, abar + d), ehat, gain, drift


def _coherent_kernel(params: HeterodyneParams, path: NoisePath, at: np.ndarray,
                     alpha0: complex = 0j, beta0: complex = 0j) -> np.ndarray:
    """Rows alpha, beta, record_T, record_S after each step count in ``at``.

    The coherent step over a whole record, ``_BLOCK`` steps at a time: alpha
    in closed form, beta and record_T as cumulative sums of their step
    increments.  record_S obeys S_{k+1} = r S_k + a_k with r = e^{-kappa dt/2}
    and a_k = (sqrt(kappa)/B) e^{-kappa dt/4} dz_k ehat_k (the step midpoint),
    so within a block from step j, S_{j+m} = r^m (S_j + sum_{i<m} a_{j+i}
    r^{-(i+1)}).
    """
    kappa, dt, n = params.kappa, path.dt, path.nsteps
    r = np.exp(-kappa * dt / 2)
    a_gain = np.sqrt(kappa) / path.B * np.exp(-kappa * dt / 4)
    out = np.empty((4, at.size), dtype=complex)
    out[0] = _coherent_terms(params, path, at, alpha0)[0]
    carry = np.array([beta0, 0j, 0j])
    out[1:, at == 0] = carry[:, None]
    for j in range(0, n, _BLOCK):
        steps = np.arange(j, min(j + _BLOCK, n))
        dz = path.increments[j:j + steps.size]
        _, ehat, gain, drift = _coherent_terms(params, path, steps, alpha0)
        q = r ** (steps - (j - 1))
        block = np.stack([np.cumsum(gain * dz + drift), np.cumsum(dz * ehat),
                          np.cumsum(a_gain * dz * ehat / q)])
        block[:2] += carry[:2, None]
        block[2] = q * (block[2] + carry[2])
        sel = (at > j) & (at <= j + steps.size)
        out[1:, sel] = block[:, at[sel] - j - 1]
        carry = block[:, -1]
    return out


def _coherent_start(psi0):
    """(alpha0, beta0) from None (vacuum), a complex alpha0 or a pair."""
    if psi0 is None:
        return 0j, 0j
    if isinstance(psi0, tuple):
        return complex(psi0[0]), complex(psi0[1])
    return complex(psi0), 0j


def integrate_sse(params: HeterodyneParams, path: NoisePath, psi0=None,
                  mode: str = "coherent", substeps: int = 1) -> SSEState:
    """Integrate the conditional evolution along one noise path.

    Coherent mode (the primary route) advances (alpha, beta) exactly over
    each step: the record derivative is constant within a step, so the
    amplitude relaxation and the phase factors integrate in closed form and
    the only discretization is the piecewise-constant record itself.  Fock
    mode is the brute-force oracle: explicit Euler substeps (``substeps`` per
    noise step) on a truncated number basis.

    ``psi0``: coherent mode accepts None (vacuum), a complex alpha0, or an
    (alpha0, beta0) pair; Fock mode accepts None or a single-level FockVector.
    """
    _check_step(params.kappa, path.omega, path.dt)
    if mode == "coherent":
        al, be, T, S = _coherent_kernel(params, path, np.array([path.nsteps]),
                                        *_coherent_start(psi0))[:, 0]
        return SSEState(t=path.duration, record_T=complex(T), record_S=complex(S),
                        alpha=complex(al), beta=complex(be))

    if mode != "fock":
        raise ValueError("mode must be 'coherent' or 'fock'")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    kappa, Gam, sqk = params.kappa, params.gamma_drive, np.sqrt(params.kappa)
    B, omega, dt, phase0, dz = path.B, path.omega, path.dt, path.phase0, path.increments
    if psi0 is None:
        nmax = default_nmax(params.nbar)
        psi = np.zeros(nmax + 1, dtype=complex)
        psi[0] = 1.0
    else:
        if psi0.levels != 1:
            raise ValueError("Fock mode integrates a single cavity level")
        psi = np.array(psi0.amps[0], dtype=complex)
        nmax = psi.size - 1
    nvec = np.arange(nmax + 1)
    sqn = np.sqrt(nvec[1:].astype(float))
    h = dt / substeps
    for k in range(path.nsteps):
        zdot = dz[k] / dt
        for j in range(substeps):
            t = k * dt + j * h
            u = (sqk / B) * zdot * np.exp(-1j * (omega * t + phase0))
            cpsi = np.zeros_like(psi)
            cpsi[:-1] = sqn * psi[1:]
            cdpsi = np.zeros_like(psi)
            cdpsi[1:] = sqn * psi[:-1]
            dpsi = u * cpsi + Gam * (cdpsi - cpsi) - (kappa / 2) * nvec * psi
            psi = psi + h * dpsi
    T, S = _coherent_kernel(params, path, np.array([path.nsteps]))[2:, 0]
    return SSEState(t=path.duration, record_T=complex(T), record_S=complex(S),
                    fock=FockVector(psi))


def integrate_sse_series(params: HeterodyneParams, path: NoisePath,
                         every: int = 1, psi0=None) -> list:
    """Coherent-mode integration with a snapshot every ``every`` steps.

    Same kernel as integrate_sse, so series[-1] equals the single-shot
    result bit for bit.  The initial and the final state are always included.
    """
    if every < 1:
        raise ValueError("every must be >= 1")
    _check_step(params.kappa, path.omega, path.dt)
    n = path.nsteps
    at = np.unique(np.r_[0:n + 1:every, n])
    out = _coherent_kernel(params, path, at, *_coherent_start(psi0))
    return [SSEState(t=k * path.dt, record_T=complex(T), record_S=complex(S),
                     alpha=complex(al), beta=complex(be))
            for k, (al, be, T, S) in zip(at.tolist(), out.T.tolist())]


def _sample_gaussian(rows: np.ndarray, mean, scale: float, npaths: int,
                     rng: np.random.Generator) -> np.ndarray:
    """(npaths, m) samples of ``mean + rows @ xi``, xi_k iid N(0, scale**2).

    ``rows`` holds the (m, K) coefficients of the K increments.  The
    covariance scale**2 rows rows^T = scale**2 R^T R comes from the R factor
    of rows^T = QR, with no inverse or square root, so a rank-deficient law is
    sampled exactly.  Draws one (npaths, m) block of standard normals.  Raises
    FloatingPointError when the mean or the covariance is not finite."""
    mean = np.asarray(mean, dtype=float)
    factor = scale * np.linalg.qr(rows.T, mode="r")     # carries any inf or nan
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(factor))):
        raise FloatingPointError("non-finite mean or covariance in the exact "
                                 "Gaussian law of the sampled record")
    z = rng.standard_normal((npaths, mean.size))
    return mean + z[:, :factor.shape[0]] @ factor


def _sampler_grid(params: HeterodyneParams, duration: float, dt: float):
    """Step count and demodulation weights shared by the ensemble samplers."""
    if params.omega <= 0:
        raise ValueError("heterodyne sampling needs omega > 0")
    _check_step(params.kappa, params.omega, dt)
    nsteps = int(round(duration / dt))
    return nsteps, _demod(params.omega, 0.0, dt, np.arange(nsteps))[1]


def sample_tilted_currents(params: HeterodyneParams, duration: float, dt: float,
                           npaths: int, seed: int, start: str = "fixed") -> np.ndarray:
    """Currents under the physical measure, sampled directly.

    Because alpha(t) is path-independent, the physical record law is Gaussian
    with a known mean: dz_k ~ N(2 sqrt(kappa) B Re[alpha_k ehat_k] dt,
    B^2 dt).  Sampling that tilted law avoids norm-weighting entirely.
    ``start='fixed'`` holds alpha at the steady value sqrt(nbar);
    ``start='vacuum'`` uses the relaxing amplitude from an empty cavity.
    record_T = sum_k dz_k ehat_k is then exactly Gaussian; its real and
    imaginary parts are drawn jointly, 2 standard normals per path.
    Returns the complex currents I = record_T/duration in units of B.
    """
    if start not in ("fixed", "vacuum"):
        raise ValueError("start must be 'fixed' or 'vacuum'")
    nsteps, ehat = _sampler_grid(params, duration, dt)
    kappa, B, nbar = params.kappa, params.B, params.nbar
    alph = np.sqrt(nbar)       # real on both starts
    if start == "vacuum":
        alph = alph * (1 - np.exp(-kappa * np.arange(nsteps) * dt / 2))
    mean_k = 2 * np.sqrt(kappa) * B * alph * ehat.real * dt
    rows = np.stack([ehat.real, ehat.imag])
    x = _sample_gaussian(rows, rows @ mean_k, B * np.sqrt(dt), npaths,
                         RngStream(seed, _STREAM_TILTED).generator())
    return (x[:, 0] + 1j * x[:, 1]) / duration


def sample_ostensible_currents(params: HeterodyneParams, duration: float, dt: float,
                               npaths: int, seed: int):
    """Currents under the noise-only measure, with their log norm weights.

    The record is drawn mean-zero; physical averages are recovered by
    weighting each path with its conditioned norm^2.  The state starts at the
    fixed point alpha = sqrt(nbar), so the log weight is
    sum_k 2 Re[(sqrt(kappa)/B) dz_k ehat_k alpha] - 2 Gamma alpha dt, an exact
    multiple of Re record_T plus a constant.  (Re T, Im T, log weight) is
    drawn from its joint rank-2 Gaussian law, 3 standard normals per path.
    Returns (currents, log_weights).
    """
    nsteps, ehat = _sampler_grid(params, duration, dt)
    B, alpha = params.B, np.sqrt(params.nbar)
    rows = np.stack([ehat.real, ehat.imag,
                     2 * np.sqrt(params.kappa) / B * alpha * ehat.real])
    mean = [0.0, 0.0, -2 * params.gamma_drive * alpha * dt * nsteps]
    x = _sample_gaussian(rows, mean, B * np.sqrt(dt), npaths,
                         RngStream(seed, _STREAM_OSTENSIBLE).generator())
    return (x[:, 0] + 1j * x[:, 1]) / duration, x[:, 2]


def norm_weighted_mean_abs(currents: np.ndarray, log_weights: np.ndarray) -> float:
    """Norm^2-weighted mean of |I|, stable against large log weights."""
    w = np.exp(log_weights - log_weights.max())
    return float(np.sum(w * np.abs(currents)) / np.sum(w))


def sample_raw_currents(params: HeterodyneParams, duration: float, dt: float,
                        npaths: int, seed: int) -> np.ndarray:
    """Unweighted currents of an unmonitored record (no signal).

    These are zero-mean complex Gaussians of variance B^2/t: the demodulated
    average of pure noise, drawn from their exact law, 2 standard normals per
    path.
    """
    _, ehat = _sampler_grid(params, duration, dt)
    x = _sample_gaussian(np.stack([ehat.real, ehat.imag]), [0.0, 0.0],
                         params.B * np.sqrt(dt), npaths,
                         RngStream(seed, _STREAM_RAW).generator())
    return (x[:, 0] + 1j * x[:, 1]) / duration


def sample_filtered_statistic(params: HeterodyneParams, duration: float, dt: float,
                              npaths: int, seed: int) -> np.ndarray:
    """Filtered record S(t) for mean-zero noise, evaluated at t = duration.

    S integrates the demodulated record against the memory kernel
    e^{-kappa (t-s)/2} (midpoint-weighted per step), so <|S|^2> relaxes to
    1 - e^{-kappa t} independently of B.  (Re S, Im S) is drawn from its
    exact Gaussian law, 2 standard normals per path.
    """
    nsteps, ehat = _sampler_grid(params, duration, dt)
    kappa, B = params.kappa, params.B
    tmid = np.arange(nsteps) * dt + dt / 2
    w = (np.sqrt(kappa) / B) * ehat * np.exp(-kappa * (duration - tmid) / 2)
    x = _sample_gaussian(np.stack([w.real, w.imag]), [0.0, 0.0],
                         B * np.sqrt(dt), npaths,
                         RngStream(seed, _STREAM_FILTERED).generator())
    return x[:, 0] + 1j * x[:, 1]


@dataclass(frozen=True)
class CurrentStatistics:
    """Histogram summary of |I|/B over an ensemble."""

    peak: float
    mean: float
    std: float
    rel_width: float
    npaths: int


def current_statistics(ensemble, t: float | None = None, B: float = 1.0,
                       bin_width: float = 0.05, margin: float = 0.2) -> CurrentStatistics:
    """Peak and width of |I|/B over an ensemble of currents.

    ``ensemble`` may be complex currents, accumulated record integrals (pass
    ``t`` to divide), or a sequence of SSEState.  The peak is located on a
    fixed-width histogram and refined parabolically on log counts, which is
    exact for the Gaussian-ridge shape of the current density.
    """
    if len(ensemble) and isinstance(ensemble[0], SSEState):
        currents = np.array([s.current() for s in ensemble])
    else:
        currents = np.asarray(ensemble, dtype=complex)
        if t is not None:
            currents = currents / t
    x = np.abs(currents) / B
    hist, edges = np.histogram(x, bins=np.arange(x.min() - margin, x.max() + margin, bin_width))
    i = int(np.argmax(hist))
    d = 0.0
    if 0 < i < len(hist) - 1 and hist[i - 1] > 0 and hist[i + 1] > 0:
        y0, y1, y2 = np.log(hist[i - 1]), np.log(hist[i]), np.log(hist[i + 1])
        denom = y0 - 2 * y1 + y2
        if denom != 0.0:
            d = 0.5 * (y0 - y2) / denom
    peak = 0.5 * (edges[i] + edges[i + 1]) + d * bin_width
    mean = float(x.mean())
    std = float(x.std())
    rel = std / mean if mean > 0 else float("nan")
    return CurrentStatistics(float(peak), mean, std, float(rel), int(x.size))


def null_correspondence(params: HeterodyneParams, t: float, alpha0: complex = 0j,
                        nsamples: int = 501) -> dict:
    """Lock the record to its most likely value and compare flows.

    Substituting the maximum-likelihood demodulated signal (constant value
    2*Gamma) for the record derivative makes the conditional equation
    deterministic.  After removing the constant rescaling exp(-t II*/2 kappa)
    its solution must coincide, amplitude by amplitude, with the
    shifted-detection effective flow whose detection offset is gamma =
    sqrt(nbar).  Both routes are integrated in closed form on a shared time
    grid and compared elementwise.
    """
    kappa, nbar = params.kappa, params.nbar
    Gam = params.gamma_drive
    abar = 2 * Gam / kappa
    ts = np.linspace(0.0, t, nsamples)
    delta0 = complex(alpha0) - abar
    decay = np.exp(-kappa * ts / 2)
    al_t = abar + delta0 * decay
    int_al = abar * ts + delta0 * (2 / kappa) * (1 - decay)
    # record locked to 2*Gamma: d beta/dt = (2*Gamma - Gamma) alpha
    be_sse = Gam * int_al
    # shifted-detection flow, gamma = sqrt(nbar): d beta/dt = Gamma alpha - kappa nbar/2
    be_eff = Gam * int_al - (kappa / 2) * nbar * ts
    resc = be_sse - (2 * Gam**2 / kappa) * ts
    beta_dev = float(np.max(np.abs(resc - be_eff)))

    nmax = default_nmax(nbar)
    fock_dev = 0.0
    for idx in (nsamples // 2, nsamples - 1):
        pa = coherent_amplitudes(al_t[idx], resc[idx], nmax)
        pb = coherent_amplitudes(al_t[idx], be_eff[idx], nmax)
        fock_dev = max(fock_dev, float(np.max(np.abs(pa - pb))))
    aa = abs(al_t[-1]) ** 2
    norm_dev = float(abs(np.exp(2 * resc[-1].real + aa) - np.exp(2 * be_eff[-1].real + aa)))
    return {
        "max_log_prefactor_dev": beta_dev,
        "max_amplitude_dev": fock_dev,
        "norm_factor_dev": norm_dev,
        "max_alpha_drift": float(np.max(np.abs(al_t - al_t[0]))),
        "max_abs_log_prefactor_eff": float(np.max(np.abs(be_eff))),
        "alpha_final": complex(al_t[-1]),
    }


def gauge_equivalence(params: HeterodyneParams, path: NoisePath,
                      t: float | None = None, nmax: int | None = None) -> dict:
    """Integrate two gauges of the conditional equation on one path.

    The drift gauge adds a classical term i*I(s)*c fed by the instantaneous
    normalized quadrature I(s) = 2 Re alpha(s).  On the coherent ansatz an
    annihilation coupling never enters the amplitude flow, so both gauges
    share the alpha recursion exactly and their normalized quadratures agree
    to machine precision; the log-prefactors differ by a pure path scalar
    (the states stay on one ray).  The scalar is also accumulated separately
    and the decomposition beta_drift = beta_plain + scalar is checked.
    """
    _check_step(params.kappa, path.omega, path.dt)
    if t is not None:
        path = replace(path, increments=path.increments[:int(round(t / path.dt))])
    kappa, dt = params.kappa, path.dt
    steps = np.arange(path.nsteps + 1)
    al_p, be_p = _coherent_kernel(params, path, steps)[:2]

    # drift gauge, summed on its own: the plain increments plus i*J_k, the
    # exact step integral of I(s)*alpha(s), alpha = abar + delta e^{-kappa s/2}
    al_d, _, gain, drift = _coherent_terms(params, path, steps)
    abar = params.alpha_steady
    I4 = _step_constants(kappa, path.omega, dt)[3]
    I5 = (1 - np.exp(-kappa * dt)) / kappa
    d = al_d[:-1] - abar
    J = 2 * abar**2 * dt + 2 * abar * (d + d.real) * I4 + 2 * d.real * d * I5
    be_d = np.sum(gain[:-1] * path.increments + drift[:-1] + 1j * J)
    scalar = np.sum(1j * J)
    qdev = np.max(np.abs(2 * al_p.real - 2 * al_d.real))
    al_p, be_p, al_d = al_p[-1], be_p[-1], al_d[-1]

    if nmax is None:
        nmax = default_nmax(params.nbar)
    pa = coherent_amplitudes(al_p, be_p, nmax)
    pb = coherent_amplitudes(al_d, be_d, nmax)
    na = np.vdot(pa, pa).real
    nb = np.vdot(pb, pb).real
    fid = float(np.abs(np.vdot(pa, pb)) ** 2 / (na * nb))
    return {
        "max_quadrature_dev": float(qdev),
        "scalar_offset": complex(scalar),
        "decomposition_dev": float(abs(be_d - (be_p + scalar))),
        "norm_ratio": float(np.exp((be_d - be_p).real)),
        "ray_fidelity": fid,
        "alpha_final": complex(al_p),
    }


def ensemble_unraveling_check(params: HeterodyneParams, duration: float, dt: float,
                              npaths: int, seed: int) -> dict:
    """Martingale check tying the ensemble back to the unconditioned flow.

    Under the ostensible measure the unnormalized conditioned norm^2 is a
    martingale, E||psi(t)||^2 = 1 for a vacuum start, while alpha(t) relaxes
    deterministically on every path.  The ensemble of conditioned projectors
    therefore averages to the coherent-state density matrix of the
    unconditioned master equation.  Re beta, the only random part of the
    norm, is drawn from its exact Gaussian law, 1 standard normal per path.
    Returns the sampled mean norm^2 with its standard error and the amplitude
    deviation from the closed form.
    """
    if params.omega <= 0:
        raise ValueError("heterodyne sampling needs omega > 0")
    _check_step(params.kappa, params.omega, dt)
    grid = NoisePath.silent(params, duration, dt)
    alpha, _, gain, drift = _coherent_terms(params, grid, np.arange(grid.nsteps + 1))
    re_beta = _sample_gaussian(gain[None, :-1].real, [drift[:-1].real.sum()],
                               params.B * np.sqrt(dt), npaths,
                               RngStream(seed, _STREAM_UNRAVELING).generator())
    al = alpha[-1]
    w = np.exp(2 * re_beta[:, 0] + abs(al) ** 2)
    mean_w = float(w.mean())
    se = float(w.std() / np.sqrt(npaths))
    alpha_pred = params.alpha_steady * (1 - np.exp(-params.kappa * duration / 2))
    return {
        "mean_norm_sq": mean_w,
        "stderr": se,
        "z": (mean_w - 1.0) / se if se > 0 else float("nan"),
        "alpha_final": complex(al),
        "alpha_dev": float(abs(al - alpha_pred)),
    }
