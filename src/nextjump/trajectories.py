"""Monte Carlo quantum-jump unraveling over a constant effective generator.

A model supplies the no-click generator M (so the unnormalized conditioned
state obeys dpsi/dt = M psi between clicks), one jump operator per detection
channel, and a reset rule.  Jump times are sampled by inverse transform on
the decaying norm: draw u ~ U(0,1), then locate ln ||psi(t)||^2 = ln u on
the propagator ``NullFlow`` (M's eigenmodes, or ``numerics.expm_action``
where they fail) with a bracketed root-finder (Illinois regula falsi,
bisection-safeguarded).  With that sampling the trajectory ensemble carries
the physical measure, so averages of normalized projectors reproduce the
Lindblad density matrix.  Independent gaps (``sample_gaps``) share one
survival curve, so each root starts next to its answer: ln W is tabulated
once on a grid graded toward t = 0, each level finds its table cell by an
indexed search over equal bins of u (Chen & Asau, Computing 13, 1974),
and an 8-node interpolant of the inverse t(ln W) around that cell seeds
the root (after Olver & Townsend, "Fast inverse transform sampling in one
and two dimensions", arXiv:1307.1223, and Derflinger, Hoermann & Leydold,
ACM TOMACS 20(4), 2010).  Where the seed's error estimate exceeds twice
the closing pair's width, one point at the seed and a Newton step along
the interpolant's slope sharpen it; then a pair of points 0.9 _ROOT_RTOL
apart around it closes most brackets, and the regula falsi finishes the
few it misses.

Ensembles run in lockstep: one propagator per model, the eigenmode
coefficients of every live trajectory held as one (d, n) array, and all
pending jump times solved for together.  Everything is deterministic given
(seed, stream): trajectory i consumes stream i of the counter-based
generator, a time draw per segment and then a channel draw when the model
has more than one channel, exactly as a lone trajectory would.  The engine
has one random route: it computes those draws for every live trajectory at
once from the Philox counters (``numerics.StreamDraws``) and builds no
numpy ``Generator``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, StreamDraws, expm_action

__all__ = [
    "EffectiveModel",
    "JumpRecord",
    "NullFlow",
    "TelegraphStats",
    "lindblad_consistency",
    "run_trajectory",
    "sample_gaps",
    "telegraph_run",
    "telegraph_stats",
]

#: expansion amplification a(psi) = ||V^-1 psi||_1 / ||psi||_2 above which
#: ``NullFlow`` does not propagate psi on the eigenmodes of M (see NullFlow)
EIG_COND_LIMIT = 1e8
#: bracket halvings of plain bisection for jump-time location (t_hi / 2^64);
#: the root-finder takes at most twice this many survival passes
BISECT_ITERS = 64
#: relative bracket width at which a jump time counts as located
_ROOT_RTOL = 1e-13
#: nodes of the interpolant of the inverse t(ln W) that seeds each sample
#: of ``sample_gaps`` (``_inverse_cells``): at 4, 6, 8 and 10, criterion
#: 4's atom (150,000 draws) asked for 3.06, 2.59, 2.15 and 2.05 survival
#: points a sample beyond the table, and the work per sample and per table
#: grows with it
_SEED_NODES = 8
#: cells of the ln W table that seeds ``sample_gaps``, one _BLOCK of
#: survival times (the 16,385 nodes take one survival call).  That many
#: put the 8-node seed within the closing pair's 0.45 _ROOT_RTOL of the
#: root for most samples without a seed point: on criterion 4's atom it
#: errs by 6e-16 relative in the median, 86% of the samples skip the
#: seed pass, and they take 2.15 points a sample (2.42 at 8,192 cells,
#: 2.84 at 4,096)
_GAP_GRID_CELLS = 16384
#: bins of u in [0, 1) that index the cells of that table
#: (``_cell_index``); a power of two, so a sample's bin floor(u K) is exact
_LOOKUP_BINS = 1 << 16
#: grading of that table: its cells grow geometrically from t_hi / ratio
#: (below it they are even) up to t_hi, each about ln(ratio) / cells =
#: 0.056% wider than the last
_GAP_GRID_RATIO = 1e4
#: samples ``sample_gaps`` solves together, and times ``NullFlow.survival``
#: evaluates together; a multiple of 4, so OpenBLAS takes the same column
#: kernels in a block as in one product over every time
_BLOCK = 16384
#: gaps ``telegraph_run`` draws per call of ``sample_gaps``
_TELEGRAPH_BATCH = 4096


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


@dataclass(frozen=True)
class EffectiveModel:
    """No-click generator plus detection channels.

    generator: (d, d) complex matrix M; between clicks dpsi/dt = M psi.
        Construction checks M + M^dag = -sum L_k^dag L_k to 1e-10 relative,
        i.e. M = -iH - (1/2) sum L_k^dag L_k with H Hermitian.
    jump_ops: (d, d) channel operators L_k, one per detector.
    labels: channel names parallel to jump_ops.
    initial_state: normalized state the trajectory starts from.
    beta_fast: fast decay scale; sets telegraph_run's censoring horizon.
    reset_state: constant post-jump state when every channel resets to the
        same place (lets long runs reuse one propagator); None applies the
        chosen jump operator and renormalizes.
    """

    generator: np.ndarray
    jump_ops: tuple
    labels: tuple
    initial_state: np.ndarray
    beta_fast: float
    reset_state: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "generator",
                           np.asarray(self.generator, dtype=complex))
        object.__setattr__(self, "jump_ops",
                           tuple(np.asarray(L, dtype=complex)
                                 for L in self.jump_ops))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "initial_state",
                           np.asarray(self.initial_state, dtype=complex))
        if self.reset_state is not None:
            object.__setattr__(self, "reset_state",
                               np.asarray(self.reset_state, dtype=complex))
        if len(self.jump_ops) != len(self.labels):
            raise ValueError("one label per jump operator required")
        d = self.generator.shape[0]
        states = [self.initial_state]
        if self.reset_state is not None:
            states.append(self.reset_state)
        if (any(m.shape != (d, d) for m in (self.generator, *self.jump_ops))
                or any(s.shape != (d,) for s in states)):
            raise ValueError("generator and jump operators must be (d, d) "
                             "and the states (d,)")
        loss = sum((L.conj().T @ L for L in self.jump_ops), np.zeros((d, d)))
        herm = self.generator + self.generator.conj().T
        gap = np.linalg.norm(herm + loss)
        if not gap <= 1e-10 * max(np.linalg.norm(herm), np.linalg.norm(loss)):
            raise ValueError(f"generator's Hermitian part misses -sum L^dag L "
                             f"by {gap:.3g}; M must be -iH - (1/2) sum L^dag L")

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    def jump_rates(self, psi: np.ndarray) -> np.ndarray:
        """||L_k psi||^2 per channel, (K,) for a state (d,) and (K, n) for
        states (d, n) (unnormalized states accepted)."""
        return np.array([np.sum(np.abs(L @ psi) ** 2, axis=0)
                         for L in self.jump_ops])

    def choose_channels(self, states: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Channel of each column of states (d, n) for its uniform u (n,):
        the first k whose running share of ||L_k psi||^2 exceeds u, so k has
        probability ||L_k psi||^2 / sum_j ||L_j psi||^2.  A column whose
        rates all vanish raises ValueError."""
        rates = self.jump_rates(states)
        tot = rates.sum(axis=0)
        if not np.all(tot > 0.0):
            raise ValueError("all channel rates vanish at a sampled jump time")
        cum = np.cumsum(rates / tot, axis=0)
        return np.sum(u >= cum[:-1], axis=0)

    def rate_identity_gap(self, psi: np.ndarray) -> float:
        """| -d||psi||^2/dt - sum_k ||L_k psi||^2 | at psi, normalized.

        Zero (to rounding) when the generator is exactly
        -iH - (1/2) sum L_k^dag L_k for Hermitian H.
        """
        loss = -2.0 * float(np.vdot(psi, self.generator @ psi).real)
        gain = float(np.sum(self.jump_rates(psi)))
        scale = max(loss, gain, 1e-300)
        return abs(loss - gain) / scale

    def reset(self, channels, states: np.ndarray) -> np.ndarray:
        """Post-jump states, shaped like states: for a state (d,) and its
        channel, or for the columns of states (d, n) and their channels (n,).
        The constant reset state when there is one; otherwise L_k psi
        normalized, one product L_k @ (columns of channel k) per channel.  A
        state that its jump operator annihilates raises ValueError."""
        shape = np.shape(states)
        if self.reset_state is not None:
            col = self.reset_state.reshape((-1,) + (1,) * (len(shape) - 1))
            return np.array(np.broadcast_to(col, shape))
        cols = np.reshape(states, (self.dim, -1))
        ks = np.broadcast_to(channels, cols.shape[1:])
        post = np.empty(cols.shape, dtype=complex)
        for k, L in enumerate(self.jump_ops):
            sel = ks == k
            post[:, sel] = L @ cols[:, sel]
        nrm = np.linalg.norm(post, axis=0)
        if not np.all(nrm > 0.0):
            raise ValueError("jump operator annihilated the state; "
                             "channel should have had zero rate")
        return (post / nrm).reshape(shape)


class NullFlow:
    """The package's one propagator psi(t) = exp(M t) psi0, with survival
    evaluation.

    Diagonalizes M = V diag(lam) V^-1 once and propagates the eigenmode
    coefficients c = V^-1 psi.  How accurate that is depends on the state,
    not on V alone: V has unit-norm columns, so the rounding error of
    V (c e^{lam t}) is of order u a(psi), with u the unit roundoff and
    a(psi) = ||V^-1 psi||_1 / ||psi||_2 the expansion amplification.  The
    flow uses the eigenmodes when a(state0) <= EIG_COND_LIMIT.  Otherwise
    (M defective or nearly so, met by a state that expands badly) a state
    is its own coefficient vector, and each evaluation applies exp(M t) to
    it by ``numerics.expm_action`` with the bound ||M||_1, every column at
    its own time.  In eigenmode mode every later state that
    ``_coefficients`` expands (the post-jump states of ``_unravel``) gets
    the same test, and one that fails raises FloatingPointError naming its
    a(psi); it is never propagated silently.  The flow runs forward only:
    ``state`` and ``survival`` take times of any shape and raise ValueError
    for a negative or non-finite one, in either mode.  Survival is
    ||psi(t)||^2 normalized to 1 at t=0, evaluated _BLOCK times at a time.
    Off the eigenmodes the exp-action picks its substep count from the
    largest time it is given, so a survival call on more than _BLOCK times
    rounds as separate calls on each block would, not as one ``state``
    call.

    The eig runs on M with its basis reversed (M[::-1, ::-1], a view), and
    V's rows are put back in order.  LAPACK's multishift QR deflates from
    the trailing corner, so its sweep count depends on the basis order, and
    every Fock ladder in the package starts at n = 0.  On one OpenBLAS
    thread the reversal cut the eig of the 603-dimensional transmon dark
    block from 1.34 to 0.98 s and of the 303-dimensional one from 0.18 to
    0.14 s, and the two_level_fock and cavity Fock flows by 35-45%; a
    random dense matrix costs the same either way.  Eigenvalues and V
    differ from those of the unreversed eig only by rounding.
    """

    def __init__(self, generator: np.ndarray, state0: np.ndarray):
        M = np.asarray(generator, dtype=complex)
        s0 = np.asarray(state0, dtype=complex)
        self._norm0 = float(np.vdot(s0, s0).real)
        if self._norm0 == 0.0:
            raise ValueError("cannot start a flow from the zero state")
        self._M = M
        self._lam, vr = np.linalg.eig(M[::-1, ::-1])
        self._V = np.ascontiguousarray(vr[::-1])
        try:
            self._coef = self._coefficients(s0)
        except (FloatingPointError, np.linalg.LinAlgError):
            self._lam = self._V = None
            self._coef = s0.copy()

    @property
    def uses_eig(self) -> bool:
        return self._lam is not None

    def _coefficients(self, states: np.ndarray) -> np.ndarray:
        """Coordinates, (d,) or (d, n), that ``_evolve`` propagates.  In
        eigenmode mode a state with a(psi) > EIG_COND_LIMIT (or not finite)
        raises FloatingPointError."""
        if self._lam is None:
            return np.array(states, dtype=complex)
        coef = np.linalg.solve(self._V, states)
        amp = np.atleast_1d(np.sum(np.abs(coef), axis=0)
                            / np.linalg.norm(states, axis=0))
        bad = ~(amp <= EIG_COND_LIMIT)
        if bad.any():
            raise FloatingPointError(
                f"eigenmode expansion amplifies the state by a(psi) = "
                f"{np.max(amp[bad]):.3g}, above EIG_COND_LIMIT = "
                f"{EIG_COND_LIMIT:g}")
        return coef

    def _evolve(self, coef: np.ndarray, t: np.ndarray) -> np.ndarray:
        """States exp(M t[j]) psi_j, (d, t.size), from coefficient columns
        coef (d, t.size), or (d, 1) shared by every time."""
        if self._lam is not None:
            return self._V @ (coef * np.exp(np.multiply.outer(self._lam, t)))
        coef = np.broadcast_to(coef, (coef.shape[0], t.size))
        return expm_action(lambda c: self._M @ c, np.linalg.norm(self._M, 1),
                           coef, t)

    def state(self, t):
        """psi(t), shaped (d,) + t.shape: (d,) for a scalar t, (d, n) for
        n times."""
        t_arr = _check_times("t", t)
        psi = self._evolve(self._coef[:, np.newaxis], t_arr.ravel())
        return psi.reshape(psi.shape[:1] + t_arr.shape)

    def survival(self, t):
        """W(t) = ||psi(t)||^2 / ||psi(0)||^2, shaped like t; only W and
        one block of states are held at a time."""
        t_arr = _check_times("t", t)
        times = t_arr.ravel()
        n = times.size
        w = np.empty(n)
        # numpy hands a one-column product to gemv, which rounds otherwise,
        # so a lone last time joins the block before it
        for a in range(0, max(n - 1, 1), _BLOCK):
            b = a + _BLOCK if n - a > _BLOCK + 1 else n
            w[a:b] = np.sum(np.abs(self._evolve(self._coef[:, np.newaxis],
                                                times[a:b])) ** 2, axis=0)
        w /= self._norm0
        if t_arr.ndim == 0:
            return float(w[0])
        return w.reshape(t_arr.shape)


def _find_level(log_w, log_u: np.ndarray, a: np.ndarray, b: np.ndarray,
                fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """Crossing times of ln W(t) = ln u, one per sample, on brackets [a, b].

    log_w(t, idx) gives ln W at times t for the samples idx (positions in
    log_u); fa and fb are f = ln W - ln u at the bracket ends, with fa >= 0.
    A sample with fb >= 0 has no crossing before b and returns b exactly.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 168 (1971)) on f, all
    samples together: a secant step, whose retained endpoint has its f
    halved when it is retained twice running, or a bisection step whenever
    the secant point leaves the open bracket or the bracket is wider than
    an envelope that starts at 4 times its width w and shrinks by sqrt(2)
    per pass.  After k passes the bracket is at most w 2^((5 - k) / 2) wide,
    so the cap of 2 * BISECT_ITERS passes resolves w / 2^61 even where the
    secant steps make no headway.  A sample leaves the active set when
    f = 0 or its bracket is no wider than _ROOT_RTOL * b, and returns that
    root or the middle of its bracket.
    """
    t = np.array(b, dtype=float)
    idx = np.flatnonzero(~(fb >= 0.0))
    a, b, fa, fb, lu = (np.asarray(v, dtype=float)[idx]
                        for v in (a, b, fa, fb, log_u))
    side = np.zeros(idx.size, dtype=np.int8)     # +1: a moved last, -1: b
    envelope = 4.0 * (b - a)
    for _ in range(2 * BISECT_ITERS):
        width = b - a
        with np.errstate(divide="ignore", invalid="ignore"):
            x = a + fa * (width / (fa - fb))
        # a secant point within tolerance of an end moves to that distance,
        # so a root next to one end closes the bracket on the next pass
        step = 0.5 * _ROOT_RTOL * b
        x = np.minimum(np.maximum(x, a + step), b - step)
        mid = 0.5 * (a + b)
        x = np.where((x > a) & (x < b) & (width <= envelope), x, mid)
        fx = log_w(x, idx) - lu
        envelope *= np.sqrt(0.5)
        up = fx >= 0.0
        fb = np.where(up, np.where(side > 0, 0.5 * fb, fb), fx)
        fa = np.where(up, fx, np.where(side < 0, 0.5 * fa, fa))
        a = np.where(up, x, a)
        b = np.where(up, b, x)
        side = np.where(up, 1, -1).astype(np.int8)
        root = fx == 0.0
        done = root | (b - a <= _ROOT_RTOL * b)
        t[idx[done]] = np.where(root, x, 0.5 * (a + b))[done]
        keep = ~done
        idx, a, b, fa, fb, lu, side, envelope = (
            v[keep] for v in (idx, a, b, fa, fb, lu, side, envelope))
        if not idx.size:
            break
    t[idx] = 0.5 * (a + b)
    return t


def _log(w):
    """ln w with ln 0 = -inf and no warning."""
    with np.errstate(divide="ignore"):
        return np.log(w)


def _inverse_cells(grid: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Per-cell seeds for the inverse of a tabulated ln W, rows
    (_SEED_NODES, cells).

    Column i holds (c_7, ..., c_2, c_1, half) for the cell
    [grid[i], grid[i+1]]: the guess for a level y in it is
    t = grid[i] + ((c_7 r + c_6) r + ... + c_1) r with r = y - table[i],
    and half is the straddle half-width.  The polynomial interpolates t(y)
    on the 8 nodes i-3 .. i+4 around the cell (after Derflinger, Hoermann
    & Leydold, "Random variate generation by numerical inversion when only
    the density is known", ACM TOMACS 20(4), 2010): its Newton form takes
    the nodes from the cell outward, i, i+1, i-1, .. i-3, i+4, and is
    expanded in powers of r.  half is the last Newton term at the middle
    of the cell, which is how far the interpolant on the first 7 of those
    nodes lies from it there, an estimate of the error that overstates
    the 8-node one.  A cell whose nodes i-3 .. i+4 are not strictly
    decreasing and finite, and the first three cells and the last three,
    keep the straight line through their ends with a quarter of their
    width as half.
    """
    deg = _SEED_NODES - 1
    left = deg // 2                          # nodes left of the cell's own
    n = grid.size - deg                      # cells with all their nodes
    inner = slice(left, left + n)
    dt = np.diff(grid)
    cells = np.zeros((_SEED_NODES, dt.size))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dy = np.diff(table)
        cells[-2] = dt / dy
        cells[-1] = 0.25 * dt
        # Newton coefficients: divided differences of t(y) on the node
        # runs i, i..i+1, i-1..i+1, i-1..i+2, .. i-3..i+4
        newton = [grid[inner]]
        dd = grid
        for k in range(1, _SEED_NODES):
            dd = (dd[1:] - dd[:-1]) / (table[k:] - table[:-k])
            newton.append(dd[left - k // 2:left - k // 2 + n])
        # offsets in r of the Newton nodes after the first, i+1, i-1, ..
        y0 = table[inner]
        nodes = [table[left + o:left + o + n] - y0
                 for o in ((j + 1) // 2 if j % 2 else -(j // 2)
                           for j in range(1, deg))]
        mid = 0.5 * dy[inner]
        half = newton[-1] * mid
        for d in nodes:
            half *= mid - d
        half = np.abs(half)
        # powers of r, folding the Newton form from its top coefficient;
        # the first node, r = 0, only shifts the powers
        power = [newton[-1]]
        for c, d in zip(newton[-2:0:-1], nodes[::-1]):
            power = ([c - d * power[0]]
                     + [p - d * q for p, q in zip(power[:-1], power[1:])]
                     + power[-1:])
        finite = np.isfinite(sum(power, half))
    bad = np.concatenate(([0], np.cumsum(~(np.isfinite(dy) & (dy < 0.0)))))
    ok = finite & (bad[deg:] == bad[:-deg])
    for row, val in zip(cells, power[::-1] + [half]):
        np.copyto(row[inner], val, where=ok)
    return cells


def _cell_index(table: np.ndarray) -> np.ndarray:
    """First table node of each u-bin, for ``_find_cells``.

    Entry m counts the nodes of the non-increasing table whose W = e^table
    lies in a bin above m, i.e. at or above (m + 1) / _LOOKUP_BINS: for a
    level u in bin m, every one of them is at or above u, and the nodes
    below them in the bin m itself are the only ones to compare with u.
    """
    bins = np.minimum(np.exp(table) * _LOOKUP_BINS, _LOOKUP_BINS)
    counts = np.bincount(bins.astype(np.intp), minlength=_LOOKUP_BINS + 1)
    return table.size - np.cumsum(counts)


def _find_cells(table: np.ndarray, index: np.ndarray, u: np.ndarray,
                lu: np.ndarray) -> np.ndarray:
    """np.searchsorted(-table, -lu, side="right") for lu = ln u, u in
    [0, 1): the number of nodes of the non-increasing table at or above
    each level.

    Indexed search (Chen & Asau, Computing 13, 1974): u's bin gives its
    first candidate from ``_cell_index``, and one compare steps past the
    bin's node if it holds one.  A count is kept only where the node
    before it is at or above lu and the node at it is not (or it is past
    the end), which holds for exactly one count whatever rounding put a
    node in the wrong bin; the few samples whose bin holds more nodes, or
    whose candidate fails that test, fall back to ``np.searchsorted``.
    """
    above = np.append(table, np.nan)          # NaN >= lu is False
    k = index.take((u * _LOOKUP_BINS).astype(np.intp))
    k += above.take(k) >= lu
    miss = np.flatnonzero((above.take(k) >= lu) | ~(above.take(k - 1) >= lu))
    if miss.size:
        k[miss] = np.searchsorted(-table, -lu[miss], side="right")
    return k


def _log_survival(survival, t: np.ndarray) -> np.ndarray:
    """ln W(t) as ``sample_gaps`` reads it, with ln 0 = -inf.  A W that is
    NaN, negative or +inf raises FloatingPointError naming its time, so a
    broken survival curve cannot bend the gaps without a word."""
    w = np.asarray(survival(t), dtype=float)
    bad = ~((w >= 0.0) & (w < math.inf))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise FloatingPointError(f"survival W({float(t[i])!r}) = "
                                 f"{float(w[i])!r}; sample_gaps needs "
                                 f"0 <= W < inf")
    return _log(w)


def _tighten(xs, fs, a, b, fa, fb) -> tuple:
    """(a, b, fa, fb) after each point xs (f = ln W - ln u there is fs)
    that lies strictly inside its bracket [a, b] replaces the end whose
    sign it shares, so fa >= 0 > fb holds; a NaN fs moves nothing."""
    inside = (xs > a) & (xs < b)
    up, down = inside & (fs >= 0.0), inside & (fs < 0.0)
    return (np.where(up, xs, a), np.where(down, xs, b),
            np.where(up, fs, fa), np.where(down, fs, fb))


def sample_gaps(survival, n: int, rng, t_hi: float) -> np.ndarray:
    """n inverse-transform samples of the first-jump time for a survival
    curve W(t) (vectorized over t): draw u ~ U(0, 1) and solve W(t) = u.

    ln W is tabulated once on a grid graded toward t = 0 (even cells below
    t_hi / _GAP_GRID_RATIO, geometric ones above it, ending exactly at 0
    and t_hi), as its running minimum so the table stays monotone under
    rounding; the table also gives the index of u-bins (``_cell_index``)
    and every cell's seed coefficients (``_inverse_cells``).  Then, in
    blocks of _BLOCK samples, each level's table cell, found by
    ``_find_cells`` exactly as np.searchsorted would find it, gives a
    bracket and a seed x from the 8-node interpolant of the inverse
    t(ln W), with half its error estimate.  Seed pass: a sample whose half
    is above 4 h, for the closing half-width h = 0.45 _ROOT_RTOL x,
    evaluates ln W at x, tightens its bracket there and moves x by one
    Newton step along the interpolant's own slope dt/dy.  Closing pair:
    every sample evaluates ln W at x - h and then at x + h (x first kept h
    inside its bracket); when the root lies between the two points its
    bracket is now 2 h < _ROOT_RTOL * b wide.  A sample whose bracket is
    that narrow, or whose point hit the level exactly, is done; the regula
    falsi of ``_find_level`` finishes the few left on their tightened
    brackets.
    Each uncensored gap is thus the middle of a sign-changing bracket at
    most _ROOT_RTOL * b wide, or an exact root.  A sample with
    u <= W(t_hi) is censored and comes back as exactly t_hi, so
    ``gaps == t_hi`` is the censored mask; choose t_hi so W(t_hi) is
    negligible for the statistic at hand.  A t_hi that is not finite and
    positive raises ValueError; a W that is NaN, negative or +inf at any
    time asked for raises FloatingPointError.
    """
    t_hi = float(_check_times("t_hi", t_hi, positive=True))
    if isinstance(rng, RngStream):
        rng = rng.generator()
    u = rng.random(n)
    grid = np.expm1(np.log1p(_GAP_GRID_RATIO)
                    * np.linspace(0.0, 1.0, _GAP_GRID_CELLS + 1))
    grid *= t_hi / _GAP_GRID_RATIO
    grid[-1] = t_hi
    table = np.minimum.accumulate(_log_survival(survival, grid))
    cells = _inverse_cells(grid, table)
    index = _cell_index(table)
    log_w = lambda t, idx: _log_survival(survival, t)
    gaps = np.empty(n)
    for s in range(0, n, _BLOCK):
        us = u[s:s + _BLOCK]
        lu = _log(us)
        # first grid point below each level; past the end (u <= W(t_hi))
        # means censored
        k = _find_cells(table, index, us, lu)
        gaps[s:s + _BLOCK] = t_hi
        live = np.flatnonzero(k <= _GAP_GRID_CELLS)
        if not live.size:
            continue
        lu = lu[live]
        k = np.maximum(k[live], 1)
        *coef, half = cells.take(k - 1, axis=1)      # c_7 .. c_1, half
        a, b = grid.take(k - 1), grid.take(k)
        fa, fb = table.take(k - 1) - lu, table.take(k) - lu
        r = -fa
        x = coef[0]
        for c in coef[1:]:
            x = x * r + c
        x = a + x * r
        # seed pass, x kept in [a, b] so W is asked for no time outside
        # [0, t_hi].  half overstates the seed's error (on criterion 4's
        # atom, |x - root| < 0.55 half in 99% of the draws whose half is
        # above 20 h), so only a half above 4 h pays for a point: the
        # atom took 2.17 points a sample above 2.2 h and 2.15 above 4 h,
        # and a higher bar saves a few hundredths more and leaves more
        # samples to the regula falsi.  Arrays of one length per block,
        # not subsets of the seeded samples, left the gap-sample
        # process's peak RSS about 2 MB lower
        x = np.minimum(np.maximum(x, a), b)
        seed = half > 1.8 * _ROOT_RTOL * x
        if seed.any():
            f = np.full(x.size, np.nan)
            f[seed] = log_w(x[seed], None) - lu[seed]
            a, b, fa, fb = _tighten(x, f, a, b, fa, fb)
            slope = 0.0                             # dt/dy at r
            for power, c in zip(range(_SEED_NODES - 1, 0, -1), coef):
                slope = slope * r + power * c
            x = np.where(seed, x - f * slope, x)
        # closing pair, x - h tightening the bracket before x + h
        x = np.minimum(np.maximum(x, a), b)
        h = 0.45 * _ROOT_RTOL * x
        x = np.minimum(np.maximum(x, a + h), b - h)
        for xs in (x - h, x + h):
            a, b, fa, fb = _tighten(xs, log_w(xs, None) - lu, a, b, fa, fb)
        t = np.where(fa == 0.0, a, 0.5 * (a + b))
        rest = np.flatnonzero(~(fa == 0.0) & (b - a > _ROOT_RTOL * b))
        if rest.size:
            t[rest] = _find_level(log_w, lu[rest], a[rest], b[rest], fa[rest],
                                  fb[rest])
        gaps[s + live] = t
    return gaps


@dataclass(frozen=True)
class JumpRecord:
    """Inter-click gaps as drawn, the first from t = 0, and each click's
    channel; ValueError unless the gaps are finite and positive, one each."""

    gaps: np.ndarray
    channels: np.ndarray          # integer channel index per jump
    labels: tuple                 # channel names, indexed by channels

    def __post_init__(self):
        object.__setattr__(self, "gaps",
                           _check_times("gaps", self.gaps, positive=True))
        object.__setattr__(self, "channels",
                           np.asarray(self.channels, dtype=int))
        if self.gaps.ndim != 1 or self.channels.shape != self.gaps.shape:
            raise ValueError("one channel per gap required")

    @property
    def njumps(self) -> int:
        return int(self.gaps.size)

    @property
    def times(self) -> np.ndarray:
        """Click times: the gaps summed in order, as the engine sums its clock."""
        return np.cumsum(self.gaps)


def _unravel(model: EffectiveModel, tmax: float, draws: StreamDraws) -> tuple:
    """Lockstep jump unraveling of len(draws) trajectories on [0, tmax].

    Trajectory j draws by counter from stream j of ``draws`` only, in the
    order a lone trajectory would: the survival level u of each segment,
    then the channel when the model has more than one.  Each round draws
    the levels of all live trajectories, and then the channels of those
    that jump, in one call each.  Each round retires the trajectories whose
    norm stays above u through tmax.  The jump times of the rest are solved
    for together on one propagator by ``_find_level``, each on the bracket
    [0, remaining time] whose end values the retirement test already gave,
    and each pass evaluates only the trajectories still unresolved.
    Returns (gaps, channels, final): the inter-click gaps and the channel
    indices of each trajectory, as lists, and the (d, n) final states,
    unnormalized relative to the last reset.
    """
    n = len(draws)
    psi0 = model.initial_state / np.linalg.norm(model.initial_state)
    flow = NullFlow(model.generator, psi0)
    coef = np.repeat(flow._coef[:, np.newaxis], n, axis=1)
    norm0 = np.full(n, flow._norm0)
    final = np.repeat(psi0[:, np.newaxis], n, axis=1)
    t = np.zeros(n)
    gaps = [[] for _ in range(n)]
    channels = [[] for _ in range(n)]
    live = np.flatnonzero(t < tmax)
    while live.size:
        u = draws.next(live)
        c, nrm = coef[:, live], norm0[live]
        remaining = tmax - t[live]
        psi_end = flow._evolve(c, remaining)
        w_end = np.sum(np.abs(psi_end) ** 2, axis=0) / nrm
        stay = w_end > u
        final[:, live[stay]] = psi_end[:, stay]
        jump = ~stay
        live, c, nrm = live[jump], c[:, jump], nrm[jump]

        def log_w(s, idx):
            psi = flow._evolve(c[:, idx], s)
            return _log(np.sum(np.abs(psi) ** 2, axis=0) / nrm[idx])

        log_u = _log(u[jump])
        t_rel = _find_level(log_w, log_u, np.zeros(live.size), remaining[jump],
                            -log_u, _log(w_end[jump]) - log_u)
        psi_j = flow._evolve(c, t_rel)
        ks = np.zeros(live.size, dtype=int)
        if len(model.jump_ops) > 1:
            ks = model.choose_channels(psi_j, draws.next(live))
        post = model.reset(ks, psi_j)
        t[live] += t_rel
        for j, g, k in zip(live.tolist(), t_rel.tolist(), ks.tolist()):
            gaps[j].append(g)
            channels[j].append(k)
        final[:, live] = post
        coef[:, live] = flow._coefficients(post)
        norm0[live] = np.sum(np.abs(post) ** 2, axis=0)
        live = live[t[live] < tmax]
    return gaps, channels, final


def run_trajectory(model: EffectiveModel, tmax: float,
                   rng: RngStream) -> JumpRecord:
    """Jump unraveling of one trajectory on [0, tmax] (a lockstep batch of
    one), drawing from the stream rng by counter in the order member
    rng.stream_index of a batch on rng.seed would.  A tmax that is not
    finite and non-negative raises ValueError."""
    tmax = float(_check_times("tmax", tmax))
    gaps, channels, _ = _unravel(
        model, tmax, StreamDraws(rng.seed, [rng.stream_index]))
    return JumpRecord(gaps[0], channels[0], model.labels)


def _telegraph_horizon(model: EffectiveModel) -> float:
    """900 / beta_fast, at which ``telegraph_run`` censors its gaps."""
    return 900.0 / model.beta_fast


def telegraph_run(model: EffectiveModel, total_time: float, rng: RngStream,
                  *, ngaps: int | None = None) -> JumpRecord:
    """Long telegraph record for a constant-reset model: iid gaps censored
    at ``_telegraph_horizon``, up to the one whose running sum reaches
    total_time or to ngaps of them, whichever comes first.  With ngaps they
    are one ``sample_gaps`` call on rng, without it batches of
    _TELEGRAPH_BATCH from one generator of rng.  Channel labels are
    attributed afterwards, one uniform per gap from the paired stream
    RngStream(rng.seed, rng.stream_index + 1), which keeps the gap sequence
    invariant under changes in channel handling.  A total_time that is
    negative or NaN raises ValueError, and so does an infinite one without
    ngaps."""
    if model.reset_state is None:
        raise ValueError("telegraph_run needs a constant reset state")
    if ngaps is None or total_time != math.inf:
        total_time = float(_check_times("total_time", total_time))
    gen = rng.generator()
    t_hi = _telegraph_horizon(model)
    flow = NullFlow(model.generator, model.reset_state)
    batch = _TELEGRAPH_BATCH if ngaps is None else ngaps
    chunks = []
    tot = 0.0
    while tot < total_time:
        g = sample_gaps(flow.survival, batch, gen, t_hi)
        cs = np.cumsum(g)
        if ngaps is not None or tot + cs[-1] >= total_time:
            chunks.append(g[:int(np.searchsorted(tot + cs, total_time)) + 1])
            break
        chunks.append(g)
        tot += cs[-1]
    gaps = np.concatenate(chunks) if chunks else np.empty(0)
    u = RngStream(rng.seed, rng.stream_index + 1).generator().random(gaps.size)
    channels = model.choose_channels(flow.state(gaps), u)
    return JumpRecord(gaps, channels, model.labels)


@dataclass(frozen=True)
class TelegraphStats:
    """Dark-time statistics of a jump record at a given threshold."""

    p_dark: float
    p_dark_se: float              # delta-method standard error
    branch_fractions: dict        # label -> share of dark periods it ends
    total_time: float
    n_dark: int


def telegraph_stats(record: JumpRecord, dark_threshold: float) -> TelegraphStats:
    """Dark fraction, dark-period count, and terminating-channel shares.

    A dark period is an inter-click gap longer than dark_threshold; p_dark is
    total dark time over total observed time.  The standard error treats each
    gap as one observation of (dark time, time) and propagates the ratio.
    """
    gaps = record.gaps
    total = float(gaps.sum())
    if total <= 0.0:
        return TelegraphStats(0.0, 0.0, {}, 0.0, 0)
    dark_mask = gaps > dark_threshold
    p = float(gaps[dark_mask].sum() / total)
    resid = np.where(dark_mask, gaps, 0.0) - p * gaps
    se = float(np.sqrt(np.sum(resid ** 2)) / total)
    branch: dict = {}
    n_dark = int(dark_mask.sum())
    if n_dark:
        term = record.channels[dark_mask]
        for k, label in enumerate(record.labels):
            branch[label] = float(np.mean(term == k))
    return TelegraphStats(p, se, branch, total, n_dark)


def _lindblad_evolve(model: EffectiveModel, rho0: np.ndarray,
                     t: float) -> np.ndarray:
    """exp(Lt) rho0 for the Lindblad generator
    L rho = G rho + rho G^dag + sum_k L_k rho L_k^dag of model, by
    ``expm_action`` with the bound b = 2 ||G||_1 + sum_k ||L_k||_1^2 on the
    norm L induces on the entrywise 1-norm of rho."""
    G = model.generator
    Gh = G.conj().T
    ops = [(L, L.conj().T) for L in model.jump_ops]
    b = 2.0 * np.linalg.norm(G, 1) + sum(np.linalg.norm(L, 1) ** 2
                                         for L in model.jump_ops)

    def apply(rho):
        drho = G @ rho + rho @ Gh
        for L, Lh in ops:
            drho += L @ rho @ Lh
        return drho

    return expm_action(apply, b, rho0, t)


def lindblad_consistency(model: EffectiveModel, ntraj: int, t: float,
                         seedbase: int) -> dict:
    """Compare the jump-unraveling ensemble to the density matrix of the
    master equation it unravels.

    Trajectory i runs on RngStream(seedbase, i), and all of them run as one
    lockstep batch drawing by counter, with no ``Generator`` built.  The
    ensemble average uses normalized projectors at time t (trajectories
    sampled by inverse transform already carry the physical measure).  The
    reference rho(t) = exp(Lt) rho0 for drho/dt = G rho + rho G^dag
    + sum L rho L^dag is a Taylor exp-action (``_lindblad_evolve``), exact
    but for rounding: within 2e-15 of scipy's expm of the vectorized
    generator on both criterion-14 models.  Returns rho_direct, rho_ensemble
    and their largest elementwise deviation, max_deviation; the caller sets
    the Monte Carlo band.  Raises ValueError for t negative or not finite
    and for ntraj < 1.
    """
    t = float(_check_times("t", t))
    if ntraj < 1:
        raise ValueError(f"ntraj must be at least 1, got {ntraj}")
    psi0 = model.initial_state / np.linalg.norm(model.initial_state)
    rho_direct = _lindblad_evolve(model, np.outer(psi0, psi0.conj()), t)

    _, _, final = _unravel(model, t, StreamDraws(seedbase, np.arange(ntraj)))
    psi_t = final / np.linalg.norm(final, axis=0)
    rho_mc = (psi_t @ psi_t.conj().T) / ntraj

    return {"rho_direct": rho_direct, "rho_ensemble": rho_mc,
            "max_deviation": float(np.abs(rho_mc - rho_direct).max())}
