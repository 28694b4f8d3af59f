"""Diffusive conditional evolution of a monitored cavity mode.

A cavity relaxing at rate ``kappa`` and fed by a resonant drive of strength
``Gamma = kappa*sqrt(nbar)/2`` is watched continuously by mixing its output
with a strong detection beam of amplitude ``B``, offset in frequency by
``omega`` (heterodyne); ``omega = 0`` is homodyne detection at phase 0.  The
detector record is then white noise ``zeta'(t)`` of variance ``B**2`` per unit
time riding on the signal, and conditioning on the record turns the state
evolution into a linear stochastic equation.  On the coherent ansatz
``exp(alpha c^dag + beta)|0>`` that equation closes: ``alpha(t)`` obeys a
deterministic linear ODE (the noise never feeds back into it) and only the
scalar log-prefactor ``beta(t)`` is stochastic.

The coherent kernel advances ``(alpha, beta)`` exactly over each noise step
(piecewise-constant record derivative, within-step phase integrated in closed
form) and carries two demodulated record integrals: the plain average
``record_T`` whose time average ``I = record_T/t`` is the measured current,
and the exponentially filtered ``record_S`` with memory ``2/kappa``.  One law
serves every route: ``_coherent_terms`` alone derives the record's per-step
law (alpha_k, the demodulation weights ehat_k and the beta increment
``gain_k*dz_k + drift_k``) and ``_record_S_step`` the decay and gain of one
record_S step.  The kernel, the ensemble samplers and ``null_correspondence``,
which runs the kernel on a homodyne record locked to its most likely value,
read them and derive no copy.  ``fock_sse_oracle``, explicit Euler on a
truncated number basis, is the kernel's brute-force oracle; acceptance
criterion 10 holds the kernel's alpha to it on two records.  A ``NoisePath``
is the record alone (its step and increments); ``B`` and ``omega`` are read
from the ``HeterodyneParams`` it is integrated with.

Since alpha(t) does not depend on the record, every quantity the ensemble
samplers return is a constant plus a fixed linear combination of the
independent increments ``dz_k ~ N(mu_k, B**2 dt)``: its law is exactly
Gaussian (Wiseman & Milburn, *Quantum Measurement and Control*, 2009, ch. 4).
The samplers draw from that law, m standard normals per path instead of one
per path and step: ``sample_tilted_currents`` and ``sample_raw_currents`` 2
(Re T, Im T), and ``sample_ostensible_currents`` 3 (Re T, Im T and the log
weight, an exact multiple of Re T plus a constant, so the covariance has rank
2).  They follow the per-step recursions in law, not draw for draw.  The peak
and width of ``|I|/B`` estimate ``sqrt(kappa*nbar)`` and the measurement
accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cavity import CavityParams, CoherentTrajectory, fock_generator
from .numerics import (FockVector, ParameterError, RngStream, _vertex_offset,
                       coherent_amplitudes, default_nmax, fock_ops)

__all__ = [
    "CurrentStatistics",
    "HeterodyneParams",
    "NoisePath",
    "SSEState",
    "current_statistics",
    "fock_sse_oracle",
    "gauge_equivalence",
    "integrate_sse",
    "integrate_sse_series",
    "norm_weighted_mean_abs",
    "null_correspondence",
    "sample_ostensible_currents",
    "sample_raw_currents",
    "sample_tilted_currents",
]

# Stream indices reserved per sampler so that different ensembles drawn from
# the same seed never share a noise sequence.  4 and 5 belong to the
# filtered-record and martingale samplers that the tests hold as oracles.
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


def _max_step(params: HeterodyneParams) -> float:
    """Largest noise step resolving both the phase and the decay."""
    if params.omega > 0:
        return min(0.05 / params.omega, 0.01 / params.kappa)
    return 0.01 / params.kappa


def _record_steps(duration: float, dt: float) -> int:
    """Noise steps in a record of the given duration, at least one."""
    nsteps = int(round(duration / dt))
    if nsteps < 1:
        raise ParameterError(f"duration {duration:g} holds no noise step of "
                             f"dt={dt:g}")
    return nsteps


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
            raise ParameterError("kappa must be positive and finite")
        if not (math.isfinite(self.nbar) and self.nbar >= 0):
            raise ParameterError("nbar must be nonnegative and finite")
        if not (math.isfinite(self.B) and self.B > 0):
            raise ParameterError("detection beam amplitude B must be positive and finite")
        if self.omega is None:
            object.__setattr__(self, "omega", 50.0 * self.kappa)
        elif not (math.isfinite(self.omega) and self.omega >= 0):
            raise ParameterError("omega must be nonnegative and finite")

    @property
    def gamma_drive(self) -> float:
        return self.kappa * np.sqrt(self.nbar) / 2

    @property
    def alpha_steady(self) -> float:
        """Fixed point of the amplitude flow, 2*Gamma/kappa = sqrt(nbar)."""
        return 2 * self.gamma_drive / self.kappa


@dataclass(frozen=True, eq=False)
class NoisePath:
    """One realization of the detector record.

    ``increments[k]`` is the record increment over step k of length dt.  The
    record carries nothing else: its variance B**2*dt under the ostensible
    measure and its demodulation phase ``omega*t`` (omega = 0 is homodyne
    detection at phase 0) belong to the HeterodyneParams it is drawn and
    integrated with.
    """

    dt: float
    increments: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
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

    @classmethod
    def draw(cls, params: HeterodyneParams, duration: float, dt: float,
             seed: int) -> "NoisePath":
        """Sample a record under the ostensible (mean-zero) measure.

        The path is fully determined by seed: one Gaussian draw of all
        increments from the counter-based stream (seed, _STREAM_PATH).
        Raises ParameterError when the duration rounds to no step.
        """
        nsteps = _record_steps(duration, dt)
        rng = RngStream(seed, _STREAM_PATH).generator()
        dz = rng.normal(0.0, params.B * np.sqrt(dt), size=nsteps)
        return cls(dt=dt, increments=dz)


@dataclass(frozen=True, eq=False)
class SSEState:
    """Conditioned (unnormalized) state exp(alpha c^dag + beta)|0> after
    integrating a record up to time t, with norm^2 = exp(2 Re beta +
    |alpha|^2).  It carries the accumulated demodulated record integral
    ``record_T`` (current I = record_T/t, stored in units of B) and the
    filtered record ``record_S``.
    """

    t: float
    record_T: complex
    record_S: complex
    alpha: complex
    beta: complex

    def current(self) -> complex:
        if self.t <= 0:
            raise ValueError("current undefined at t = 0")
        return self.record_T / self.t

    def log_norm_sq(self) -> float:
        return float(2 * self.beta.real + abs(self.alpha) ** 2)

    def norm_sq(self) -> float:
        return float(np.exp(2 * self.beta.real + abs(self.alpha) ** 2))


def _step_constants(kappa: float, omega: float, dt: float):
    """Exact within-step integrals of the demodulating phase factors.

    I1 = int_0^dt e^{-i w s} ds, I2 = same with the extra decay e^{-kappa s/2},
    I3 = dt, I4 = int_0^dt e^{-kappa s/2} ds.
    """
    k2 = kappa / 2
    I4 = (1 - np.exp(-k2 * dt)) / k2
    if omega == 0.0:
        return dt + 0j, I4 + 0j, dt, I4
    I1 = (1 - np.exp(-1j * omega * dt)) / (1j * omega)
    I2 = (1 - np.exp(-(1j * omega + k2) * dt)) / (1j * omega + k2)
    return I1, I2, dt, I4


def _check_step(params: HeterodyneParams, dt: float):
    limit = _max_step(params)
    if dt > limit * (1 + 1e-12):
        raise ValueError(
            f"noise step dt={dt:g} exceeds {limit:g}; the step must "
            "resolve both the demodulation phase and the cavity decay")


def _coherent_terms(params: HeterodyneParams, dt: float, steps: np.ndarray,
                    alpha0: complex = 0j):
    """The record's law at the given steps of a record with step dt, derived
    here alone: alpha at the start of each step, the demodulation weights
    ehat_k (in-step averages of e^{-i omega t}) and the beta increment of step
    k as ``gain_k*dz_k + drift_k``, where with delta_k = alpha_k - abar,
    gain_k = (sqrt(kappa)/(B dt)) e^{-i phi_k} (abar I1 + delta_k I2) and
    drift_k = -Gamma (abar I3 + delta_k I4)."""
    kappa, Gam, omega = params.kappa, params.gamma_drive, params.omega
    abar = 2 * Gam / kappa
    I1, I2, I3, I4 = _step_constants(kappa, omega, dt)
    d = (alpha0 - abar) * np.exp(-kappa / 2 * dt * steps)
    ph = np.exp(-1j * (omega * (dt * steps)))
    ehat = ph if omega == 0.0 else \
        ph * ((1 - np.exp(-1j * omega * dt)) / (1j * omega * dt))
    gain = (np.sqrt(kappa) / (params.B * dt)) * ph * (abar * I1 + d * I2)
    drift = -Gam * (abar * I3 + d * I4)
    return np.where(steps == 0, alpha0, abar + d), ehat, gain, drift


def _record_S_step(params: HeterodyneParams, dt: float):
    """Decay r = e^{-kappa dt/2} and midpoint gain a_gain = (sqrt(kappa)/B)
    e^{-kappa dt/4} of the record_S step S_{k+1} = r S_k + a_gain ehat_k dz_k."""
    kappa = params.kappa
    return (np.exp(-kappa * dt / 2),
            np.sqrt(kappa) / params.B * np.exp(-kappa * dt / 4))


def _coherent_kernel(params: HeterodyneParams, path: NoisePath, at: np.ndarray,
                     alpha0: complex = 0j, beta0: complex = 0j) -> np.ndarray:
    """Rows alpha, beta, record_T, record_S after each step count in ``at``.

    The coherent step over a whole record, ``_BLOCK`` steps at a time: alpha
    in closed form, beta and record_T as cumulative sums of their step
    increments.  record_S obeys S_{k+1} = r S_k + a_k with a_k = a_gain dz_k
    ehat_k (``_record_S_step``), so within a block from step j, S_{j+m} =
    r^m (S_j + sum_{i<m} a_{j+i} r^{-(i+1)}).
    """
    dt, n = path.dt, path.nsteps
    r, a_gain = _record_S_step(params, dt)
    out = np.empty((4, at.size), dtype=complex)
    out[0] = _coherent_terms(params, dt, at, alpha0)[0]
    carry = np.array([beta0, 0j, 0j])
    out[1:, at == 0] = carry[:, None]
    for j in range(0, n, _BLOCK):
        steps = np.arange(j, min(j + _BLOCK, n))
        dz = path.increments[j:j + steps.size]
        _, ehat, gain, drift = _coherent_terms(params, dt, steps, alpha0)
        q = r ** (steps - (j - 1))
        block = np.stack([np.cumsum(gain * dz + drift), np.cumsum(dz * ehat),
                          np.cumsum(a_gain * dz * ehat / q)])
        block[:2] += carry[:2, None]
        block[2] = q * (block[2] + carry[2])
        sel = (at > j) & (at <= j + steps.size)
        out[1:, sel] = block[:, at[sel] - j - 1]
        carry = block[:, -1]
    return out


def integrate_sse(params: HeterodyneParams, path: NoisePath) -> SSEState:
    """Integrate the conditional evolution along one noise path from the
    vacuum.

    Advances (alpha, beta) exactly over each step: the record derivative is
    constant within a step, so the amplitude relaxation and the phase factors
    integrate in closed form and the only discretization is the
    piecewise-constant record itself.
    """
    _check_step(params, path.dt)
    al, be, T, S = _coherent_kernel(params, path, np.array([path.nsteps]))[:, 0]
    return SSEState(t=path.duration, record_T=complex(T), record_S=complex(S),
                    alpha=complex(al), beta=complex(be))


def fock_sse_oracle(params: HeterodyneParams, path: NoisePath,
                    state0: FockVector, substeps: int) -> FockVector:
    """Brute-force oracle of the coherent kernel: explicit Euler, ``substeps``
    per noise step, of d psi/dt = [(sqrt(kappa)/B) zdot e^{-i omega t} c + M]
    psi on the truncated number basis of state0, with the record derivative
    zdot constant within a step.  The drift M = Gamma (c^dag - c) - (kappa/2)
    c^dag c is the resonant cavity's no-click generator,
    ``cavity.fock_generator`` at this kappa and nbar.  Returns the
    unnormalized final state.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    _check_step(params, path.dt)
    a, _ = fock_ops(state0.nmax)
    flow = fock_generator(CavityParams(params.kappa, nbar=params.nbar),
                          state0.nmax)
    gain = np.sqrt(params.kappa) / params.B
    dt, h = path.dt, path.dt / substeps
    psi = state0.amps.copy()
    for k, dzk in enumerate(path.increments):
        for j in range(substeps):
            u = gain * (dzk / dt) * np.exp(-1j * (params.omega * (k * dt + j * h)))
            psi = psi + h * (u * (a @ psi) + flow @ psi)
    return FockVector(psi)


def integrate_sse_series(params: HeterodyneParams, path: NoisePath,
                         every: int = 1) -> list:
    """integrate_sse with a snapshot every ``every`` steps.

    Same kernel as integrate_sse, so series[-1] equals the single-shot
    result bit for bit.  The initial and the final state are always included.
    """
    if every < 1:
        raise ValueError("every must be >= 1")
    _check_step(params, path.dt)
    n = path.nsteps
    at = np.unique(np.r_[0:n + 1:every, n])
    out = _coherent_kernel(params, path, at)
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


def _sampler_grid(params: HeterodyneParams, duration: float, dt: float,
                  alpha0: complex = 0j):
    """The coherent terms of a record of the given duration that starts at
    alpha0, shared by the ensemble samplers: alpha at each of its nsteps + 1
    step boundaries, and ehat, gain and drift of each of its nsteps steps."""
    if params.omega <= 0:
        raise ValueError("heterodyne sampling needs omega > 0")
    _check_step(params, dt)
    steps = np.arange(_record_steps(duration, dt) + 1)
    alpha, ehat, gain, drift = _coherent_terms(params, dt, steps, alpha0)
    return alpha, ehat[:-1], gain[:-1], drift[:-1]


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
    alpha0 = params.alpha_steady if start == "fixed" else 0.0
    alpha, ehat, _, _ = _sampler_grid(params, duration, dt, alpha0)
    mean_k = (2 * np.sqrt(params.kappa) * params.B * alpha[:-1] * ehat).real * dt
    rows = np.stack([ehat.real, ehat.imag])
    x = _sample_gaussian(rows, rows @ mean_k, params.B * np.sqrt(dt), npaths,
                         RngStream(seed, _STREAM_TILTED).generator())
    return (x[:, 0] + 1j * x[:, 1]) / duration


def sample_ostensible_currents(params: HeterodyneParams, duration: float, dt: float,
                               npaths: int, seed: int):
    """Currents under the noise-only measure, with their log norm weights.

    The record is drawn mean-zero; physical averages are recovered by
    weighting each path with its conditioned norm^2.  The state starts at the
    fixed point alpha = sqrt(nbar), so the log weight 2 Re beta is
    sum_k 2 Re[gain_k dz_k + drift_k], an exact multiple of Re record_T plus
    a constant.  (Re T, Im T, log weight) is drawn from its joint rank-2
    Gaussian law, 3 standard normals per path.  Returns (currents,
    log_weights).
    """
    _, ehat, gain, drift = _sampler_grid(params, duration, dt,
                                         params.alpha_steady)
    rows = np.stack([ehat.real, ehat.imag, 2 * gain.real])
    x = _sample_gaussian(rows, [0.0, 0.0, 2 * drift.real.sum()],
                         params.B * np.sqrt(dt), npaths,
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
    ehat = _sampler_grid(params, duration, dt)[1]
    x = _sample_gaussian(np.stack([ehat.real, ehat.imag]), [0.0, 0.0],
                         params.B * np.sqrt(dt), npaths,
                         RngStream(seed, _STREAM_RAW).generator())
    return (x[:, 0] + 1j * x[:, 1]) / duration


@dataclass(frozen=True)
class CurrentStatistics:
    """Histogram summary of |I|/B over an ensemble."""

    peak: float
    mean: float
    std: float
    rel_width: float
    npaths: int


def current_statistics(currents, B: float = 1.0) -> CurrentStatistics:
    """Peak and width of |I|/B over an ensemble of complex currents.

    The peak is located on a histogram of bin width 0.05 spanning the
    sample with a margin of 0.2 on both sides, and refined parabolically on
    log counts, which is exact for the Gaussian-ridge shape of the current
    density.
    """
    bin_width = 0.05
    x = np.abs(np.asarray(currents, dtype=complex)) / B
    hist, edges = np.histogram(x, bins=np.arange(x.min() - 0.2, x.max() + 0.2, bin_width))
    i = int(np.argmax(hist))
    with np.errstate(divide="ignore"):       # an empty bin's log is -inf
        logh = np.log(hist)
    peak = 0.5 * (edges[i] + edges[i + 1]) + _vertex_offset(logh, i) * bin_width
    mean = float(x.mean())
    std = float(x.std())
    rel = std / mean if mean > 0 else float("nan")
    return CurrentStatistics(float(peak), mean, std, float(rel), int(x.size))


def null_correspondence(params: HeterodyneParams, t: float,
                        alpha0: complex = 0j) -> dict:
    """Lock the record to its most likely value and compare flows.

    The maximum-likelihood record makes the conditional equation
    deterministic: a homodyne (omega = 0) record with increments
    2*Gamma*B*dt/sqrt(kappa), run through ``_coherent_kernel`` itself over
    max(500, ceil(t/dt_max)) steps.  After removing the constant rescaling
    exp(-t II*/2 kappa) its solution must coincide, amplitude by amplitude and
    at every step boundary, with the closed-form next-photon no-click flow of
    detection offset gamma = sqrt(nbar), ``cavity.CoherentTrajectory``.
    Raises ValueError unless t is finite and > 0.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be finite and > 0, got t={t!r}")
    locked = replace(params, omega=0.0)
    kappa, Gam = params.kappa, params.gamma_drive
    n = max(500, math.ceil(t / _max_step(locked)))
    dt = t / n
    path = NoisePath(dt, np.full(n, 2 * Gam * params.B * dt / math.sqrt(kappa)))
    steps = np.arange(n + 1)
    al_t, beta = _coherent_kernel(locked, path, steps, complex(alpha0))[:2]
    ts = dt * steps
    resc = beta - (2 * Gam**2 / kappa) * ts
    flow = CoherentTrajectory(kappa, drive=Gam, gamma_det=math.sqrt(params.nbar),
                              alpha0=complex(alpha0))
    al_eff, be_eff = flow.alpha(ts), flow.beta(ts)
    beta_dev = float(np.max(np.abs(resc - be_eff)))

    nmax = default_nmax(params.nbar)
    fock_dev = 0.0
    for idx in (n // 2, n):
        pa = coherent_amplitudes(al_t[idx], resc[idx], nmax)
        pb = coherent_amplitudes(al_eff[idx], be_eff[idx], nmax)
        fock_dev = max(fock_dev, float(np.max(np.abs(pa - pb))))
    norm_dev = float(abs(np.exp(2 * resc[-1].real + abs(al_t[-1]) ** 2)
                         - np.exp(2 * be_eff[-1].real + abs(al_eff[-1]) ** 2)))
    return {
        "max_log_prefactor_dev": beta_dev,
        "max_amplitude_dev": fock_dev,
        "norm_factor_dev": norm_dev,
        "max_alpha_drift": float(np.max(np.abs(al_t - al_t[0]))),
        "max_abs_log_prefactor_eff": float(np.max(np.abs(be_eff))),
        "alpha_final": complex(al_t[-1]),
    }


def gauge_equivalence(params: HeterodyneParams, path: NoisePath) -> dict:
    """Integrate two gauges of the conditional equation on one path.

    The drift gauge adds a classical term i*I(s)*c fed by the instantaneous
    normalized quadrature I(s) = 2 Re alpha(s).  On the coherent ansatz an
    annihilation coupling never enters the amplitude flow, so both gauges
    share the alpha recursion exactly and their normalized quadratures agree
    to machine precision; the log-prefactors differ by a pure path scalar
    (the states stay on one ray).  The scalar is also accumulated separately
    and the decomposition beta_drift = beta_plain + scalar is checked.
    """
    _check_step(params, path.dt)
    kappa, dt = params.kappa, path.dt
    steps = np.arange(path.nsteps + 1)
    al_p, be_p = _coherent_kernel(params, path, steps)[:2]

    # drift gauge, summed on its own: the plain increments plus i*J_k, the
    # exact step integral of I(s)*alpha(s), alpha = abar + delta e^{-kappa s/2}
    al_d, _, gain, drift = _coherent_terms(params, dt, steps)
    abar = params.alpha_steady
    I4 = _step_constants(kappa, params.omega, dt)[3]
    I5 = (1 - np.exp(-kappa * dt)) / kappa
    d = al_d[:-1] - abar
    J = 2 * abar**2 * dt + 2 * abar * (d + d.real) * I4 + 2 * d.real * d * I5
    be_d = np.sum(gain[:-1] * path.increments + drift[:-1] + 1j * J)
    scalar = np.sum(1j * J)
    qdev = np.max(np.abs(2 * al_p.real - 2 * al_d.real))
    al_p, be_p, al_d = al_p[-1], be_p[-1], al_d[-1]

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
