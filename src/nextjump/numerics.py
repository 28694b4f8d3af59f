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
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox
from scipy import special
from scipy.integrate import solve_ivp

__all__ = [
    "FockVector",
    "IntegrationError",
    "RegimeWarning",
    "RngStream",
    "TruncationError",
    "apply_ladder",
    "default_nmax",
    "erfc",
    "gaussian_increments",
    "integrate_ode",
    "rk4_fixed",
]

#: Tail amplitude above which a Fock-space raise is considered an overflow.
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

    @classmethod
    def coherent(cls, alpha: complex, nmax: int, levels: int = 1,
                 level: int = 0) -> "FockVector":
        """Normalized coherent state on one level (zeros elsewhere)."""
        n = np.arange(nmax + 1)
        # exp(-|a|^2/2) a^n / sqrt(n!) evaluated in log space for stability
        logfact = special.gammaln(n + 1.0)
        mag = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(abs(alpha)) - 0.5 * logfact) \
            if alpha != 0 else np.where(n == 0, 1.0, 0.0)
        phase = np.exp(1j * n * np.angle(alpha)) if alpha != 0 else 1.0
        amps = np.zeros((levels, nmax + 1), dtype=complex)
        amps[level] = mag * phase
        return cls(amps)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def tail_mass(self) -> float:
        """Amplitude magnitude sitting in the topmost Fock bin."""
        return float(np.max(np.abs(self.amps[:, -1])))

    def inner(self, other: "FockVector") -> complex:
        return complex(np.sum(np.conj(self.amps) * other.amps))

    def normalized(self) -> "FockVector":
        n = math.sqrt(self.norm_sq())
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FockVector(self.amps / n)

    def copy(self) -> "FockVector":
        return FockVector(self.amps.copy())


def apply_ladder(state: FockVector, which: str,
                 level_mask=None, check_tail: bool = True) -> FockVector:
    """Apply an oscillator ladder operator to the selected levels.

    which: 'lower' (annihilation), 'raise' (creation) or 'number'.
    level_mask: boolean sequence per level; None applies to all levels.
    Raising checks that the top Fock amplitude is below TAIL_TOL first,
    since population there would silently fall off the truncation edge.
    """
    amps = state.amps
    out = np.zeros_like(amps)
    if level_mask is None:
        mask = np.ones(state.levels, dtype=bool)
    else:
        mask = np.asarray(level_mask, dtype=bool)
        if mask.shape != (state.levels,):
            raise ValueError("level_mask length must equal number of levels")
    n = np.arange(state.nmax + 1)
    sel = amps[mask]
    if which == "lower":
        res = np.zeros_like(sel)
        res[:, :-1] = np.sqrt(n[1:]) * sel[:, 1:]
    elif which == "raise":
        if check_tail and np.max(np.abs(sel[:, -1]), initial=0.0) > TAIL_TOL:
            raise TruncationError(
                f"raise would push amplitude {np.max(np.abs(sel[:, -1])):.3e} "
                f"past the nmax={state.nmax} cutoff")
        res = np.zeros_like(sel)
        res[:, 1:] = np.sqrt(n[1:]) * sel[:, :-1]
    elif which == "number":
        res = n * sel
    else:
        raise ValueError(f"unknown ladder operator {which!r}")
    out[mask] = res
    unsel = ~mask
    out[unsel] = amps[unsel]
    return FockVector(out)


# ---------------------------------------------------------------------------
# deterministic integration

def integrate_ode(rhs, y0, t0: float, t1: float, tol: float = 1e-10,
                  dense: bool = False, method: str = "DOP853",
                  max_step: float = np.inf):
    """Integrate dy/dt = rhs(t, y) for complex vector y with an adaptive
    embedded Runge-Kutta pair.

    Returns the final state, or (final state, dense interpolant) when
    ``dense`` is set.  tol is applied as rtol, with atol = tol * 1e-2.
    Raises IntegrationError if the solver stops early.
    """
    y0 = np.asarray(y0, dtype=complex)
    if t1 == t0:
        return (y0.copy(), None) if dense else y0.copy()
    sol = solve_ivp(rhs, (t0, t1), y0, method=method, rtol=tol,
                    atol=tol * 1e-2, dense_output=dense, max_step=max_step)
    if not sol.success:
        raise IntegrationError(f"integration failed at t={sol.t[-1]:.6g}: "
                               f"{sol.message}")
    yf = sol.y[:, -1]
    return (yf, sol.sol) if dense else yf


def rk4_fixed(rhs, y0, t0: float, t1: float, nsteps: int):
    """Classical fixed-step RK4. Used for stochastic substeps where the
    step grid is dictated by the noise discretization, and for order checks."""
    y = np.asarray(y0, dtype=complex).copy()
    h = (t1 - t0) / nsteps
    t = t0
    for _ in range(nsteps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


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

    def stream_for(self, index: int) -> "RngStream":
        """Substream for trajectory ``index`` under this seed."""
        return RngStream(self.seed, index)


def gaussian_increments(rng, n: int, variance: float) -> np.ndarray:
    """n independent N(0, variance) increments.

    rng may be an RngStream (a fresh generator is derived) or a numpy
    Generator (consumed in place).
    """
    if isinstance(rng, RngStream):
        rng = rng.generator()
    return rng.standard_normal(n) * math.sqrt(variance)


def erfc(x):
    """Complementary error function (vectorized)."""
    return special.erfc(x)
