"""Shared numerical infrastructure: truncated Fock-space states, ladder
operators, deterministic ODE integration, and reproducible random streams.

Everything downstream works with unnormalized state vectors whose squared
norm carries physical meaning (a no-click survival probability), so none of
the helpers here renormalize behind the caller's back.  Random numbers come
from a counter-based generator keyed by ``(seed, stream_index)`` so that
ensembles are bit-reproducible regardless of execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "FockVector",
    "IntegrationError",
    "RegimeWarning",
    "RngStream",
    "TruncationError",
    "coherent_amplitudes",
    "default_nmax",
    "fock_ops",
    "integrate_ode",
]

#: Top-bin amplitude, relative to the norm, above which a Fock state counts
#: as truncated.
TAIL_TOL = 1e-10


class TruncationError(RuntimeError):
    """Raised when amplitude would be pushed past the Fock-space cutoff."""


class IntegrationError(RuntimeError):
    """Raised when the adaptive integrator fails to reach the end time."""


class RegimeWarning(UserWarning):
    """Emitted when parameters leave the regime a closed form was built for.

    The computation still runs; downstream checks are expected to report the
    mismatch instead of asserting."""


def default_nmax(nbar: float) -> int:
    """Photon-number cutoff large enough for coherent amplitudes up to
    sqrt(nbar): mean + 10 standard deviations + a constant margin."""
    return int(math.ceil(nbar + 10.0 * math.sqrt(max(nbar, 0.0)) + 20.0))


@dataclass
class FockVector:
    """Unnormalized state on ``levels`` discrete levels times a truncated
    Fock ladder of ``nmax + 1`` photon states.

    ``amps[l, n]`` is the amplitude on discrete level ``l`` with ``n``
    photons.  ``levels`` is 1 for a bare oscillator, 2 or 3 when an atom or
    qubit rides along.
    """

    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.ndim == 1:
            self.amps = self.amps[np.newaxis, :]
        if self.amps.ndim != 2 or not (1 <= self.amps.shape[0] <= 3):
            raise ValueError("amps must be (levels, nmax+1) with 1..3 levels")

    @property
    def levels(self) -> int:
        return self.amps.shape[0]

    @property
    def nmax(self) -> int:
        return self.amps.shape[1] - 1

    @classmethod
    def vacuum(cls, nmax: int, levels: int = 1, level: int = 0) -> "FockVector":
        amps = np.zeros((levels, nmax + 1), dtype=complex)
        amps[level, 0] = 1.0
        return cls(amps)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def tail_mass(self) -> float:
        """Amplitude magnitude sitting in the topmost Fock bin."""
        return float(np.max(np.abs(self.amps[:, -1])))

    def inner(self, other: "FockVector") -> complex:
        return complex(np.sum(np.conj(self.amps) * other.amps))


def coherent_amplitudes(alpha: complex, beta: complex, nmax: int) -> np.ndarray:
    """Fock amplitudes 0..nmax of exp(alpha c^dag + beta)|0>, stable in log
    space; beta = -|alpha|^2/2 gives the normalized coherent state."""
    from scipy import special
    n = np.arange(nmax + 1)
    logmag = n * np.log(np.abs(alpha) + 1e-300) - 0.5 * special.gammaln(n + 1.0)
    ph = np.exp(1j * n * np.angle(alpha))
    return np.exp(logmag + beta) * ph


def fock_ops(nmax: int):
    """Annihilation and number operators (a, n) on Fock states 0..nmax, as
    real (nmax + 1, nmax + 1) arrays; the creation operator is a.T."""
    ns = np.arange(nmax + 1, dtype=float)
    return np.diag(np.sqrt(ns[1:]), 1), np.diag(ns)


# ---------------------------------------------------------------------------
# deterministic integration

def integrate_ode(rhs, y0, t0: float, t1: float, tol: float = 1e-10,
                  dense: bool = False):
    """Integrate dy/dt = rhs(t, y) for complex vector y with the adaptive
    embedded Runge-Kutta pair DOP853.

    Returns the final state, or (final state, dense interpolant) when
    ``dense`` is set.  tol is applied as rtol, with atol = tol * 1e-2.
    Raises IntegrationError if the solver stops early.
    """
    from scipy.integrate import solve_ivp
    y0 = np.asarray(y0, dtype=complex)
    if t1 == t0:
        return (y0.copy(), None) if dense else y0.copy()
    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=tol,
                    atol=tol * 1e-2, dense_output=dense)
    if not sol.success:
        raise IntegrationError(f"integration failed at t={sol.t[-1]:.6g}: "
                               f"{sol.message}")
    yf = sol.y[:, -1]
    return (yf, sol.sol) if dense else yf


# ---------------------------------------------------------------------------
# reproducible randomness

@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, stream_index).

    Two streams with different indices are statistically independent, and a
    given key reproduces the identical bit sequence on every platform, which
    is what makes ensembles deterministic: trajectory i always uses stream
    index i however the ensemble is scheduled.
    """

    seed: int
    stream_index: int = 0

    def generator(self) -> Generator:
        key = np.array([self.seed % (1 << 64), self.stream_index % (1 << 64)],
                       dtype=np.uint64)
        return Generator(Philox(key=key))
