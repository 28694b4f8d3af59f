"""Shared numerical infrastructure: truncated Fock-space states, ladder
operators, the one exp-action exp(A t) y (``expm_action``, a truncated
Taylor series in numpy), the one quadrature (``gauss_legendre``), and
reproducible random streams.

Everything downstream works with unnormalized state vectors whose squared
norm carries physical meaning (a no-click survival probability), so none of
the helpers here renormalize behind the caller's back.  Random numbers come
from a counter-based generator keyed by ``(seed, stream_index)`` so that
ensembles are bit-reproducible regardless of execution order: one stream
is a numpy ``Philox`` ``Generator`` (``RngStream.generator``), and the next
doubles of a whole ensemble of streams come from a vectorized Philox4x64-10
kernel (``StreamDraws``) that reproduces those generators bit for bit
without building one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

__all__ = [
    "FockVector",
    "IntegrationError",
    "ParameterError",
    "RegimeWarning",
    "RngStream",
    "StreamDraws",
    "TruncationError",
    "coherent_amplitudes",
    "decay_rate",
    "default_nmax",
    "expm_action",
    "fock_ops",
    "gauss_legendre",
]

#: Top-bin amplitude, relative to the norm, above which a Fock state counts
#: as truncated.
TAIL_TOL = 1e-10


class TruncationError(RuntimeError):
    """Raised when amplitude would be pushed past the Fock-space cutoff."""


class IntegrationError(RuntimeError):
    """Raised when a quadrature misses its error target."""


class ParameterError(ValueError):
    """Raised by a model's parameter record for a value outside its domain:
    bad input, not a numerical failure."""


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
    """Unnormalized state of one truncated Fock ladder: ``amps[n]`` is the
    amplitude with n photons, n = 0 .. nmax."""

    amps: np.ndarray

    def __post_init__(self):
        self.amps = np.asarray(self.amps, dtype=complex)
        if self.amps.ndim != 1:
            raise ValueError("amps must be one ladder, shaped (nmax+1,)")

    @property
    def nmax(self) -> int:
        return self.amps.size - 1

    @classmethod
    def vacuum(cls, nmax: int) -> "FockVector":
        amps = np.zeros(nmax + 1, dtype=complex)
        amps[0] = 1.0
        return cls(amps)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def tail_mass(self) -> float:
        """Amplitude magnitude sitting in the topmost Fock bin."""
        return float(np.abs(self.amps[-1]))


def coherent_amplitudes(alpha: complex, beta: complex, nmax: int) -> np.ndarray:
    """Fock amplitudes 0..nmax of exp(alpha c^dag + beta)|0>, stable in log
    space; beta = -|alpha|^2/2 gives the normalized coherent state."""
    n = np.arange(nmax + 1)
    log_fact = np.fromiter(map(math.lgamma, range(1, nmax + 2)), float,
                           nmax + 1)
    logmag = n * np.log(np.abs(alpha) + 1e-300) - 0.5 * log_fact
    ph = np.exp(1j * n * np.angle(alpha))
    return np.exp(logmag + beta) * ph


def fock_ops(nmax: int):
    """Annihilation and number operators (a, n) on Fock states 0..nmax, as
    real (nmax + 1, nmax + 1) arrays; the creation operator is a.T."""
    ns = np.arange(nmax + 1, dtype=float)
    return np.diag(np.sqrt(ns[1:]), 1), np.diag(ns)


def _check_times(name: str, t, positive: bool = False) -> np.ndarray:
    """t as a float array; ValueError naming the first time that is not
    finite and non-negative (positive when asked)."""
    t = np.asarray(t, dtype=float)
    ok = (t > 0.0 if positive else t >= 0.0) & (t < math.inf)
    if not ok.all():
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {sign}, "
                         f"got {float(t[~ok].flat[0])}")
    return t


# ---------------------------------------------------------------------------
# exp-action, quadrature and fits

#: largest bound * h of one Taylor substep of ``expm_action``
_TAYLOR_THETA = 4.0
#: Taylor terms one substep sums at most: the least k with
#: _TAYLOR_THETA^k / k! < 2^-53 (32)
_TAYLOR_TERMS = next(k for k in range(1, 100)
                     if _TAYLOR_THETA ** k / math.factorial(k) < 2.0 ** -53)


def expm_action(apply, bound: float, y, t):
    """exp(A t) y for the linear map apply(x) = A x, as truncated Taylor
    series on s equal substeps (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
    488 (2011)).

    bound is an upper bound on the norm A induces on the entrywise 1-norm of
    y, and s = max(1, ceil(bound max(t) / _TAYLOR_THETA)), so the k-th term
    of a substep is at most _TAYLOR_THETA^k / k! of its state.  t is a
    scalar, or one time per column of y (t (n,), y (d, n), apply acting
    column by column), each column taking s substeps of its own.  A substep
    stops once two successive terms fall below 2^-53 max|y| of the running
    state, so the accuracy follows y as its norm shrinks, after
    _TAYLOR_TERMS terms at most.  A negative or non-finite t raises
    ValueError.
    """
    t = _check_times("t", t)
    y = np.array(y, dtype=complex)
    if y.size == 0:
        return y
    steps = max(1, math.ceil(bound * float(t.max()) / _TAYLOR_THETA))
    h = t / steps
    for _ in range(steps):
        tol = 2.0 ** -53 * np.max(np.abs(y))
        term, small = y, False
        for k in range(1, _TAYLOR_TERMS + 1):
            term = apply(term) * (h / k)
            y = y + term
            was_small, small = small, np.max(np.abs(term)) <= tol
            if small and was_small:
                break
    return y


#: node counts of the two Gauss-Legendre rules ``gauss_legendre`` compares
_GAUSS_ORDERS = (48, 96)
#: relative difference between the two rules above which an integral fails
_GAUSS_RTOL = 1e-8


@functools.cache
def _gauss_rule(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built on first use:
    leggauss(96) takes about 10 ms, which an import should not pay.  The
    arrays are shared by every call, so they are read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(f, b):
    """Integral of f over [0, b] by the Gauss-Legendre rules of 48 and 96
    nodes, returning the 96-node value.

    f maps an array of abscissae to the integrand's values elementwise.  b
    may be an array, one interval per entry, and the result has its shape
    (a float for a scalar b).  Raises IntegrationError where the two rules
    differ by more than _GAUSS_RTOL times the result, so an integrand the
    rules do not resolve fails loudly.
    """
    half = 0.5 * np.asarray(b, dtype=float)
    h = half[..., np.newaxis]
    coarse, fine = (half * np.sum(w * f(h + h * x), axis=-1)
                    for x, w in map(_gauss_rule, _GAUSS_ORDERS))
    err = np.abs(fine - coarse)
    bad = np.flatnonzero(err > _GAUSS_RTOL * np.abs(fine))
    if bad.size:
        i = bad[0]
        raise IntegrationError(f"Gauss-Legendre rules differ by "
                               f"{err.flat[i]:.2e} on {fine.flat[i]:.6e}, "
                               f"beyond rtol {_GAUSS_RTOL:g}")
    return float(fine) if fine.ndim == 0 else fine


def decay_rate(ts: np.ndarray, y: np.ndarray) -> float:
    """Rate r of the least-squares line ln y = c - r t.  Raises ValueError
    on fewer than two points, which fix no line."""
    if ts.size < 2:
        raise ValueError(f"a decay fit needs at least two points, got "
                         f"{ts.size}")
    a = np.vstack([ts, np.ones_like(ts)]).T
    return -float(np.linalg.lstsq(a, np.log(y), rcond=None)[0][0])


def _vertex_offset(y, i: int) -> float:
    """Vertex of the parabola through y[i-1], y[i], y[i+1] as an offset from
    i in grid steps, the sub-grid refinement of a peak at i: 0 at either end
    of y and where the three values fix no finite bend."""
    denom = y[i - 1] - 2 * y[i] + y[i + 1] if 0 < i < len(y) - 1 else 0.0
    if not (math.isfinite(denom) and denom != 0.0):
        return 0.0
    return 0.5 * (y[i - 1] - y[i + 1]) / denom


# ---------------------------------------------------------------------------
# reproducible randomness

@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, stream_index).

    Two streams with different indices are statistically independent, and a
    given key reproduces the identical bit sequence on every platform, which
    is what makes ensembles deterministic: trajectory i always uses stream
    index i however the ensemble is scheduled.

    The stream is Philox4x64-10 (Salmon, Moraes, Dror & Shaw, "Parallel
    random numbers: as easy as 1, 2, 3", SC'11) keyed by (seed mod 2^64,
    stream_index mod 2^64).  Its k-th double (k = 0, 1, ...) is word k % 4
    of the Philox block at counter 1 + k // 4 (numpy increments the counter
    before its first block), as (word >> 11) * 2^-53.  So it is a pure
    function of (seed, stream_index, k), and two routes give the same bits.
    ``generator()``, a numpy ``Generator``, serves one stream's bulk draws,
    where numpy's C Philox is fastest: ``sample_gaps`` (the gaps),
    ``NoisePath.draw`` (a record's increments), the three heterodyne samplers
    (one block of normals each), and the channel draws of ``telegraph_run``,
    from the stream after the gaps' one.  ``StreamDraws`` serves the few
    draws per step of many streams at once, without a ``Generator`` per
    stream: it is the jump engine's only route, behind
    ``lindblad_consistency`` and ``run_trajectory``.
    """

    seed: int
    stream_index: int = 0

    def generator(self) -> Generator:
        key = np.array([self.seed % (1 << 64), self.stream_index % (1 << 64)],
                       dtype=np.uint64)
        return Generator(Philox(key=key))


#: Philox4x64 round multipliers and Weyl key increments (Random123)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
#: doubles ``StreamDraws`` computes per stream at a time (whole blocks of
#: 4); a refill is one kernel call whose fixed cost dominates at a few
#: hundred streams, and no trajectory of criterion 14 draws more than 11
#: doubles, so each of its ensembles fills its buffers once
DRAW_BUFFER = 16

_U64 = 1 << 64
_LO32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)


def _mulhilo(m: int, x: np.ndarray):
    """High and low 64-bit words of the 128-bit products m * x, for the
    constant m and uint64 x, from products of 32-bit halves (none of the
    partial sums below overflows 64 bits)."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _S32
    t = x_hi * m_lo + ((x_lo * m_lo) >> _S32)
    u = x_lo * m_hi + (t & _LO32)
    hi = x_hi * m_hi + (t >> _S32) + (u >> _S32)
    return hi, x * np.uint64(m)


def _philox_doubles(seed: int, streams: np.ndarray,
                    counters: np.ndarray) -> np.ndarray:
    """The four doubles of each Philox4x64-10 block, shaped counters.shape
    + (4,), for key (seed mod 2^64, streams) and counter (counters, 0, 0,
    0); streams (uint64) broadcasts against counters (uint64)."""
    k0 = seed % _U64
    k1 = np.broadcast_to(streams, counters.shape)
    x0, x1 = counters, np.zeros_like(counters)
    x2, x3 = x1, x1
    for r in range(_PHILOX_ROUNDS):
        if r:
            k0 = (k0 + _PHILOX_W[0]) % _U64
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ k1, lo0
    words = np.stack((x0, x1, x2, x3), axis=-1)
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


class StreamDraws:
    """The next doubles of the streams RngStream(seed, i), i in indices,
    computed by counter: draw k of stream i equals draw k of
    ``RngStream(seed, i).generator().random()``, bit for bit.

    Each stream keeps its own draw counter (``drawn[j]`` doubles taken from
    stream j so far) and a buffer of its next DRAW_BUFFER doubles; ``next``
    advances only the rows it is given and refills, in one vectorized call,
    only the rows whose buffer ran out.
    """

    def __init__(self, seed: int, indices):
        if not (isinstance(indices, np.ndarray)
                and indices.dtype.kind in "iu"):
            indices = np.array([int(i) % _U64 for i in indices],
                               dtype=np.uint64)
        self._seed = int(seed)
        self._streams = indices.astype(np.uint64).ravel()
        self.drawn = np.zeros(self._streams.size, dtype=np.int64)
        self._buffer = np.empty((self._streams.size, DRAW_BUFFER))

    def __len__(self) -> int:
        return self._streams.size

    def next(self, rows) -> np.ndarray:
        """One double from each of the streams at positions rows (distinct
        ints), advancing their counters."""
        rows = np.asarray(rows, dtype=np.intp)
        pos = self.drawn[rows] % DRAW_BUFFER
        empty = rows[pos == 0]
        if empty.size:
            blocks = DRAW_BUFFER // 4
            first = (self.drawn[empty] // 4 + 1).astype(np.uint64)
            counters = (first[:, np.newaxis]
                        + np.arange(blocks, dtype=np.uint64))
            self._buffer[empty] = _philox_doubles(
                self._seed, self._streams[empty, np.newaxis],
                counters).reshape(empty.size, DRAW_BUFFER)
        self.drawn[rows] += 1
        return self._buffer[rows, pos]
