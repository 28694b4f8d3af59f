"""Qubit-readout error metrics built on the no-click cavity flows.

Two strategies for telling the qubit states apart through the cavity are
compared on a shared dimensionless time axis tau = kappa*t.  The next-jump
strategy waits for the first emission: with the dispersive pull chi active
the cavity fills only to the suppressed amplitude gamma_L, so a click soon
after the drive turns on points to the wrong qubit state, and the error is
the cumulative-click ratio eps = P_G/(P_G + P_B) with P = 1 - W for the
detuned and resonant survival curves.  The dispersive strategy integrates a
heterodyne record instead; its signal-to-noise ratio grows as
(Gamma/kappa)*(kappa t)^{5/2}/sqrt(18) and the error is the Gaussian tail
eps_DR = erfc(SNR/2)/2, from ``math.erfc``.

The log-decrement Y rescales the jump density of the detuned flow,
Y = (1 + (2 chi/kappa)^2) |alpha|^2 / nbar, which rings at the detuning
frequency while relaxing to 1.  ``figure1_dataset`` collects all four curves
at the standard comparison point (nbar = 100, chi/kappa = 20 for next-jump,
chi/kappa = 1/2 for dispersive readout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cavity import CavityParams, detuned_flow, resonant_flow
from .numerics import ParameterError, _check_times, _vertex_offset

__all__ = [
    "ReadoutCurves",
    "error_dispersive",
    "error_next_jump",
    "figure1_dataset",
    "log_decrement_Y",
    "min_error_next_jump",
    "snr_heterodyne",
    "y_oscillation_frequency",
]


def error_next_jump(p: CavityParams, t):
    """Next-jump readout error at time t (cumulative-click conditioning).

    P_G = 1 - W(chi, t) is the click-by-t probability of the pulled branch,
    P_B = 1 - W(0, t) that of the resonant branch; the error is
    P_G/(P_G + P_B).  Both survival curves start from vacuum.  At t = 0 the
    ratio is taken at its short-time limit 1/2 (the leading cubic click mass
    is chi-independent).  The flows raise ValueError for a t that is not
    finite and non-negative.
    """
    traj_g = detuned_flow(p, 0j)
    traj_b = resonant_flow(p)
    pg = 1.0 - traj_g.survival(t)
    pb = 1.0 - traj_b.survival(t)
    tot = pg + pb
    eps = np.where(tot > 0.0, pg / np.where(tot > 0.0, tot, 1.0), 0.5)
    return eps if eps.ndim else float(eps)


def snr_heterodyne(p: CavityParams, t):
    """Dispersive-readout signal-to-noise ratio (Gamma/kappa)(kappa t)^{5/2}/sqrt(18)."""
    t = _check_times("t", t)
    gk = p.gamma_drive / p.kappa
    out = (1.0 / np.sqrt(18.0)) * gk * (p.kappa * t) ** 2.5
    return out if out.ndim else float(out)


def error_dispersive(snr):
    """Gaussian two-outcome discrimination error erfc(SNR/2)/2, by the C
    library's ``math.erfc`` one value at a time."""
    snr = np.asarray(snr, dtype=float)
    if not np.all(snr >= 0):
        raise ValueError("snr must be nonnegative and not NaN")
    erfc = np.fromiter(map(math.erfc, (snr / 2.0).ravel().tolist()), float,
                       snr.size)
    out = 0.5 * erfc.reshape(snr.shape)
    return out if out.ndim else float(out)


def log_decrement_Y(p: CavityParams, tau):
    """Rescaled next-jump density Y(tau) of the detuned no-click flow.

    Y = -(1 + (2 chi/kappa)^2) dln W/dtau / nbar, which reduces to
    (1 + (2 chi/kappa)^2)|alpha(tau/kappa)|^2/nbar; it rings while the
    amplitude spirals into gamma_L and settles at exactly 1.  Raises
    ValueError for a tau that is not finite and non-negative, and
    ParameterError for nbar = 0, where Y is 0/0.
    """
    tau = _check_times("tau", tau)
    if not p.nbar > 0.0:
        raise ParameterError(f"log_decrement_Y needs nbar > 0, got {p.nbar}")
    traj = detuned_flow(p, 0j)
    al = traj.alpha(tau / p.kappa)
    out = (1.0 + (2.0 * p.chi / p.kappa) ** 2) * np.abs(al) ** 2 / p.nbar
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ReadoutCurves:
    """Readout comparison curves on a shared tau = kappa*t grid."""

    tau: np.ndarray
    eps_nextjump: np.ndarray
    eps_dispersive: np.ndarray
    snr: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        for name in ("eps_nextjump", "eps_dispersive"):
            vals = getattr(self, name)
            if not np.all((vals >= 0) & (vals <= 1)):
                raise ValueError(f"{name} must lie in [0, 1]")
        order = np.argsort(self.snr)
        if np.any(np.diff(self.eps_dispersive[order]) > 1e-15):
            raise ValueError("eps_dispersive must be non-increasing in snr")


def figure1_dataset(nbar: float = 100.0, kappa: float = 1.0,
                    chi_over_kappa_nextjump: float = 20.0,
                    chi_over_kappa_dispersive: float = 0.5,
                    tau=None) -> ReadoutCurves:
    """Standard readout comparison dataset.

    Next-jump error at the strong pull (chi/kappa = 20 by default), dispersive
    error at the SNR-optimal pull (chi/kappa = 1/2), both at nbar = 100, with
    the SNR curve and the ringing Y(tau) of the strong-pull flow.
    """
    if tau is None:
        tau = np.linspace(0.0, 6.0, 1201)
    tau = np.asarray(tau, dtype=float)
    p_next = CavityParams(kappa=kappa, chi=chi_over_kappa_nextjump * kappa, nbar=nbar)
    p_disp = CavityParams(kappa=kappa, chi=chi_over_kappa_dispersive * kappa, nbar=nbar)
    t = tau / kappa
    snr = snr_heterodyne(p_disp, t)
    return ReadoutCurves(
        tau=tau,
        eps_nextjump=np.asarray(error_next_jump(p_next, t)),
        eps_dispersive=np.asarray(error_dispersive(snr)),
        snr=np.asarray(snr),
        Y=np.asarray(log_decrement_Y(p_next, tau)),
    )


def y_oscillation_frequency(p: CavityParams) -> float:
    """Dominant oscillation frequency of Y(tau) in cycles per tau.

    Spectral estimate on the early window tau <= 12 (grid step 1e-4),
    where the ringing has not decayed: mean-subtracted, Hann-windowed FFT
    with parabolic refinement of the peak bin.  For a pull chi the ringing
    sits at chi/(2 pi kappa) cycles per tau.
    """
    tau = np.linspace(0.0, 12.0, 120001)
    Y = log_decrement_Y(p, tau)
    yw = Y - Y.mean()
    w = np.hanning(yw.size)
    F = np.fft.rfft(yw * w)
    freqs = np.fft.rfftfreq(yw.size, d=tau[1] - tau[0])
    mag = np.abs(F)
    i = int(np.argmax(mag[1:]) + 1)
    return float(freqs[i] + _vertex_offset(mag, i) * (freqs[1] - freqs[0]))


def min_error_next_jump(p: CavityParams, tau_max: float = 6.0) -> dict:
    """Locate the interior minimum of the next-jump error.

    Scans eps(tau) on a uniform grid of 60001 points from just above tau = 0
    to tau_max and reports the minimum, its location, and the constant
    implied by the scaling eps_min ~ (kappa nbar^{1/3}/|chi|)^2.  Raises
    ParameterError for chi = 0 or nbar = 0, where that scale is 1/0 or 0.
    """
    if p.chi == 0.0:
        raise ParameterError("min_error_next_jump needs chi != 0")
    if not p.nbar > 0.0:
        raise ParameterError(f"min_error_next_jump needs nbar > 0, "
                             f"got {p.nbar}")
    tau = np.linspace(1e-4, tau_max, 60001)
    eps = error_next_jump(p, tau / p.kappa)
    i = int(np.argmin(eps))
    scale = (p.kappa * p.nbar ** (1.0 / 3.0) / abs(p.chi)) ** 2
    return {
        "eps_min": float(eps[i]),
        "tau_min": float(tau[i]),
        "implied_constant": float(eps[i] / scale),
        "chi_t_min": float(abs(p.chi) * tau[i] / p.kappa),
    }
