"""Monte Carlo quantum-jump unraveling over a constant effective generator.

A model supplies the no-click generator M (so the unnormalized conditioned
state obeys dpsi/dt = M psi between clicks), one jump operator per detection
channel, and a reset rule.  Jump times are sampled by inverse transform on
the decaying norm: draw u ~ U(0,1), then locate ||psi(t)||^2 = u by bisection
on the closed eigenmode propagator.  With that sampling the trajectory
ensemble carries the physical measure, so averages of normalized projectors
reproduce the Lindblad density matrix.

Ensembles run in lockstep: one propagator per model, the eigenmode
coefficients of every live trajectory held as one (d, n) array, and all
pending jump times bisected together.  Everything is deterministic given
(seed, stream): trajectory i consumes stream i of the counter-based
generator, a time draw per segment and then a channel draw when the model
has more than one channel, exactly as a lone trajectory would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, integrate_ode

__all__ = [
    "EffectiveModel",
    "JumpRecord",
    "NullFlow",
    "TelegraphTrace",
    "TelegraphStats",
    "lindblad_consistency",
    "run_trajectory",
    "sample_gaps",
    "telegraph_run",
    "telegraph_stats",
    "telegraph_trace",
]

#: eigenbasis condition number above which the propagator falls back to an ODE
EIG_COND_LIMIT = 1e8
#: bisection iterations for jump-time location (resolves t_hi / 2^64)
BISECT_ITERS = 64


@dataclass(frozen=True)
class EffectiveModel:
    """No-click generator plus detection channels.

    generator: (d, d) complex matrix M; between clicks dpsi/dt = M psi.
    jump_ops: channel operators L_k, one per detector.
    labels: channel names parallel to jump_ops.
    initial_state: normalized state the trajectory starts from.
    beta_fast: fast decay scale; sets default dark thresholds and the
        bisection bracket for gap sampling.
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

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    def jump_rates(self, psi: np.ndarray) -> np.ndarray:
        """||L_k psi||^2 per channel (unnormalized state accepted)."""
        return np.array([float(np.vdot(L @ psi, L @ psi).real)
                         for L in self.jump_ops])

    def rate_identity_gap(self, psi: np.ndarray) -> float:
        """| -d||psi||^2/dt - sum_k ||L_k psi||^2 | at psi, normalized.

        Zero (to rounding) when the generator is exactly
        -iH - (1/2) sum L_k^dag L_k for Hermitian H.
        """
        loss = -2.0 * float(np.vdot(psi, self.generator @ psi).real)
        gain = float(np.sum(self.jump_rates(psi)))
        scale = max(loss, gain, 1e-300)
        return abs(loss - gain) / scale

    def reset(self, channel: int, psi_at_jump: np.ndarray) -> np.ndarray:
        if self.reset_state is not None:
            return self.reset_state.copy()
        post = self.jump_ops[channel] @ psi_at_jump
        nrm = np.linalg.norm(post)
        if nrm == 0.0:
            raise ValueError("jump operator annihilated the state; "
                             "channel should have had zero rate")
        return post / nrm


class NullFlow:
    """Closed propagator psi(t) = exp(M t) psi0 with survival evaluation.

    Diagonalizes M once and propagates eigenmode coefficients V^-1 psi.  If
    the eigenbasis is ill-conditioned (defective or nearly so) the flow
    instead integrates the d x d propagator Phi(t) = exp(M t) once with
    dense output, and a state is its own coefficient vector.  Survival is
    ||psi(t)||^2 normalized to 1 at t=0.
    """

    def __init__(self, generator: np.ndarray, state0: np.ndarray,
                 t_max_hint: float = 0.0):
        M = np.asarray(generator, dtype=complex)
        s0 = np.asarray(state0, dtype=complex)
        self._norm0 = float(np.vdot(s0, s0).real)
        if self._norm0 == 0.0:
            raise ValueError("cannot start a flow from the zero state")
        self._M = M
        lam, V = np.linalg.eig(M)
        cond = np.linalg.cond(V)
        if np.isfinite(cond) and cond <= EIG_COND_LIMIT:
            self._lam = lam
            self._V = V
        else:
            self._lam = None
            self._dense = None
            self._dense_tmax = 0.0
            if t_max_hint > 0.0:
                self._ensure_dense(t_max_hint)
        self._coef = self._coefficients(s0)

    @property
    def uses_eig(self) -> bool:
        return self._lam is not None

    def _ensure_dense(self, tmax: float) -> None:
        if self._dense is not None and tmax <= self._dense_tmax:
            return
        d = self._M.shape[0]
        rhs = lambda t, y: (self._M @ y.reshape(d, d)).reshape(-1)
        _, interp = integrate_ode(rhs, np.eye(d).reshape(-1), 0.0, tmax,
                                  tol=1e-12, dense=True)
        self._dense = interp
        self._dense_tmax = tmax

    def _coefficients(self, states: np.ndarray) -> np.ndarray:
        """Coordinates, (d,) or (d, n), that ``_evolve`` propagates."""
        if self._lam is not None:
            return np.linalg.solve(self._V, states)
        return np.array(states, dtype=complex)

    def _evolve(self, coef: np.ndarray, t: np.ndarray) -> np.ndarray:
        """States exp(M t[j]) psi_j, (d, t.size), from coefficient columns
        coef (d, t.size), or (d, 1) shared by every time."""
        if self._lam is not None:
            return self._V @ (coef * np.exp(np.multiply.outer(self._lam, t)))
        d = self._M.shape[0]
        phi = np.empty((d, d, t.size), dtype=complex)
        at0 = t == 0.0
        phi[:, :, at0] = np.eye(d)[:, :, np.newaxis]
        if not at0.all():
            self._ensure_dense(float(t.max()))
            phi[:, :, ~at0] = self._dense(t[~at0]).reshape(d, d, -1)
        return np.einsum("ijn,jn->in", phi,
                         np.broadcast_to(coef, (d, t.size)))

    def state(self, t):
        """psi(t); t scalar -> (d,), t array -> (d, len(t))."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        psi = self._evolve(self._coef[:, np.newaxis], t_arr)
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return psi[:, 0]
        return psi

    def survival(self, t):
        """W(t) = ||psi(t)||^2 / ||psi(0)||^2, shaped like t."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        psi = self.state(t_arr)
        w = np.sum(np.abs(psi) ** 2, axis=0) / self._norm0
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return float(w[0])
        return w


def _bisect(survival, u: np.ndarray, hi: np.ndarray,
            iters: int = BISECT_ITERS) -> np.ndarray:
    """Roots of survival(t) = u on [0, hi], one per sample, bisected
    together; survival maps an array of times to W at those times."""
    lo = np.zeros_like(hi)
    hi = hi.copy()
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        sel = survival(mid) > u
        lo[sel] = mid[sel]
        hi[~sel] = mid[~sel]
    return 0.5 * (lo + hi)


def sample_gaps(survival, n: int, rng, t_hi: float,
                iters: int = BISECT_ITERS) -> np.ndarray:
    """n inverse-transform samples of the first-jump time for a survival
    curve W(t) (vectorized over t), bisected on [0, t_hi].

    Samples whose u falls below W(t_hi) come back as ~t_hi (censored at the
    bracket); choose t_hi so W(t_hi) is negligible for the statistic at hand.
    """
    if isinstance(rng, RngStream):
        rng = rng.generator()
    u = rng.random(n)
    return _bisect(survival, u, np.full(n, float(t_hi)), iters)


def _choose_channel(model: EffectiveModel, psi_at_jump: np.ndarray,
                    rng) -> int:
    """Channel k with probability ||L_k psi||^2 / sum_j ||L_j psi||^2."""
    if len(model.jump_ops) == 1:
        return 0
    rates = model.jump_rates(psi_at_jump)
    tot = rates.sum()
    if tot <= 0.0:
        raise ValueError("all channel rates vanish at the sampled jump time")
    u = float(rng.random())
    acc = 0.0
    for k, r in enumerate(rates):
        acc += r / tot
        if u < acc:
            return k
    return len(rates) - 1


@dataclass(frozen=True)
class JumpRecord:
    """Ordered click times with channel labels and the final conditioned
    state (unnormalized, relative to the last reset)."""

    times: np.ndarray
    channels: np.ndarray          # integer channel index per jump
    labels: tuple                 # channel names, indexed by channels
    final_state: np.ndarray
    tmax: float

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "channels",
                           np.asarray(self.channels, dtype=int))
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("jump times must be strictly increasing")

    @property
    def njumps(self) -> int:
        return int(self.times.size)

    def gaps(self) -> np.ndarray:
        """Inter-click intervals, the first measured from t=0."""
        return np.diff(self.times, prepend=0.0)


def _unravel(model: EffectiveModel, tmax: float, rngs: list) -> tuple:
    """Lockstep jump unraveling of len(rngs) trajectories on [0, tmax].

    Trajectory j draws from rngs[j] only, in the order a lone trajectory
    would: the survival level u of each segment, then the channel when the
    model has more than one.  Each round retires the trajectories whose
    norm stays above u through tmax and bisects the jump times of the rest
    together on one propagator.  Returns (times, channels, final): a list of
    click times and a list of channel indices per trajectory, and the
    (d, n) final states, unnormalized relative to the last reset.
    """
    n = len(rngs)
    psi0 = model.initial_state / np.linalg.norm(model.initial_state)
    flow = NullFlow(model.generator, psi0, t_max_hint=tmax)
    coef = np.repeat(flow._coef[:, np.newaxis], n, axis=1)
    norm0 = np.full(n, flow._norm0)
    final = np.repeat(psi0[:, np.newaxis], n, axis=1)
    t = np.zeros(n)
    times = [[] for _ in range(n)]
    channels = [[] for _ in range(n)]
    live = np.flatnonzero(t < tmax)
    while live.size:
        u = np.array([rngs[j].random() for j in live])
        c, nrm = coef[:, live], norm0[live]
        remaining = tmax - t[live]
        psi_end = flow._evolve(c, remaining)
        stay = np.sum(np.abs(psi_end) ** 2, axis=0) / nrm > u
        final[:, live[stay]] = psi_end[:, stay]
        jump = ~stay
        live, c, nrm = live[jump], c[:, jump], nrm[jump]
        t_rel = _bisect(
            lambda s: np.sum(np.abs(flow._evolve(c, s)) ** 2, axis=0) / nrm,
            u[jump], remaining[jump])
        psi_j = flow._evolve(c, t_rel)
        post = np.empty_like(psi_j)
        for m, j in enumerate(live):
            k = _choose_channel(model, psi_j[:, m], rngs[j])
            post[:, m] = model.reset(k, psi_j[:, m])
            t[j] += t_rel[m]
            times[j].append(t[j])
            channels[j].append(k)
        final[:, live] = post
        coef[:, live] = flow._coefficients(post)
        norm0[live] = np.sum(np.abs(post) ** 2, axis=0)
        live = live[t[live] < tmax]
    return times, channels, final


def run_trajectory(model: EffectiveModel, tmax: float, rng) -> JumpRecord:
    """Jump unraveling of one trajectory on [0, tmax] (a lockstep batch of
    one), consuming one random stream in order."""
    if isinstance(rng, RngStream):
        rng = rng.generator()
    times, channels, final = _unravel(model, tmax, [rng])
    return JumpRecord(np.array(times[0]), np.array(channels[0], dtype=int),
                      model.labels, final[:, 0], float(tmax))


def telegraph_run(model: EffectiveModel, total_time: float, rng,
                  rng_channels=None, batch: int = 4096,
                  t_hi: float | None = None) -> JumpRecord:
    """Long telegraph record for a constant-reset model.

    Gaps are iid, so they are drawn in vectorized batches until their sum
    crosses total_time (the crossing gap is kept).  Channel labels are
    attributed afterwards from a second, independent stream, which keeps the
    gap sequence invariant under changes in channel handling.
    """
    if model.reset_state is None:
        raise ValueError("telegraph_run needs a constant reset state")
    if isinstance(rng, RngStream):
        rng = rng.generator()
    if isinstance(rng_channels, RngStream):
        rng_channels = rng_channels.generator()
    if t_hi is None:
        t_hi = 900.0 / model.beta_fast
    flow = NullFlow(model.generator, model.reset_state)
    chunks = []
    tot = 0.0
    while tot < total_time:
        g = sample_gaps(flow.survival, batch, rng, t_hi)
        cs = np.cumsum(g)
        if tot + cs[-1] >= total_time:
            k = int(np.searchsorted(tot + cs, total_time)) + 1
            chunks.append(g[:k])
            tot += cs[min(k, g.size) - 1]
            break
        chunks.append(g)
        tot += cs[-1]
    gaps = np.concatenate(chunks) if chunks else np.empty(0)
    times = np.cumsum(gaps)

    nj = gaps.size
    if len(model.jump_ops) == 1 or rng_channels is None:
        channels = np.zeros(nj, dtype=int)
    else:
        amps = flow.state(gaps)                      # (d, nj)
        rates = np.empty((len(model.jump_ops), nj))
        for i, L in enumerate(model.jump_ops):
            rates[i] = np.sum(np.abs(L @ amps) ** 2, axis=0)
        tot_r = rates.sum(axis=0)
        tot_r[tot_r == 0.0] = 1.0
        probs = rates / tot_r
        u2 = rng_channels.random(nj)
        if len(model.jump_ops) == 2:
            channels = np.where(u2 < probs[0], 0, 1).astype(int)
        else:
            cum = np.cumsum(probs, axis=0)
            channels = np.sum(u2[np.newaxis, :] >= cum[:-1], axis=0)
    return JumpRecord(times, channels, model.labels,
                      model.reset_state.copy(), float(max(total_time, tot)))


@dataclass(frozen=True)
class TelegraphStats:
    """Dark-time statistics of a jump record at a given threshold."""

    p_dark: float
    p_dark_se: float              # delta-method standard error
    dark_durations: np.ndarray    # gap lengths above threshold
    branch_fractions: dict        # label -> share of dark periods it ends
    threshold: float
    total_time: float
    n_dark: int


def telegraph_stats(record: JumpRecord, dark_threshold: float) -> TelegraphStats:
    """Dark fraction, dark-duration sample, and terminating-channel shares.

    A dark period is an inter-click gap longer than dark_threshold; p_dark is
    total dark time over total observed time.  The standard error treats each
    gap as one observation of (dark time, time) and propagates the ratio.
    """
    gaps = record.gaps()
    total = float(gaps.sum())
    if total <= 0.0:
        return TelegraphStats(0.0, 0.0, np.empty(0), {}, dark_threshold, 0.0, 0)
    dark_mask = gaps > dark_threshold
    dark = gaps[dark_mask]
    p = float(dark.sum() / total)
    resid = np.where(dark_mask, gaps, 0.0) - p * gaps
    se = float(np.sqrt(np.sum(resid ** 2)) / total)
    branch: dict = {}
    n_dark = int(dark_mask.sum())
    if n_dark and record.channels.size == gaps.size:
        term = record.channels[dark_mask]
        for k, label in enumerate(record.labels):
            branch[label] = float(np.mean(term == k))
    return TelegraphStats(p, se, dark, branch, float(dark_threshold),
                          total, n_dark)


@dataclass(frozen=True)
class TelegraphTrace:
    """Bright/dark segmentation of a record: maximal bright runs merged,
    each dark gap its own segment.  Segments partition [0, last click]."""

    threshold: float
    starts: np.ndarray
    ends: np.ndarray
    dark: np.ndarray              # bool per segment
    terminating_label: tuple      # channel name ending each segment

    @property
    def durations(self) -> np.ndarray:
        return self.ends - self.starts


def telegraph_trace(record: JumpRecord, dark_threshold: float) -> TelegraphTrace:
    gaps = record.gaps()
    if gaps.size == 0:
        return TelegraphTrace(float(dark_threshold), np.empty(0), np.empty(0),
                              np.empty(0, dtype=bool), ())
    is_dark = gaps > dark_threshold
    starts, ends, dark_flags, term = [], [], [], []
    seg_start = 0.0
    for i in range(gaps.size):
        t_end = record.times[i]
        if is_dark[i]:
            # close any open bright run, then the dark gap stands alone
            if seg_start < t_end - gaps[i]:
                starts.append(seg_start)
                ends.append(t_end - gaps[i])
                dark_flags.append(False)
                term.append(record.labels[record.channels[i - 1]]
                            if i > 0 else "")
            starts.append(t_end - gaps[i])
            ends.append(t_end)
            dark_flags.append(True)
            term.append(record.labels[record.channels[i]])
            seg_start = t_end
    if seg_start < record.times[-1]:
        starts.append(seg_start)
        ends.append(record.times[-1])
        dark_flags.append(False)
        term.append(record.labels[record.channels[-1]])
    return TelegraphTrace(float(dark_threshold), np.array(starts),
                          np.array(ends), np.array(dark_flags, dtype=bool),
                          tuple(term))


def _lindblad_rhs(model: EffectiveModel):
    d = model.dim
    G = model.generator
    Ls = model.jump_ops

    def rhs(t, y):
        rho = y.reshape(d, d)
        drho = G @ rho + rho @ G.conj().T
        for L in Ls:
            drho = drho + L @ rho @ L.conj().T
        return drho.reshape(-1)

    return rhs


def lindblad_consistency(model: EffectiveModel, ntraj: int, t: float,
                         seedbase: int) -> dict:
    """Compare the jump-unraveling ensemble to direct density-matrix
    integration.

    Trajectory i runs on RngStream(seedbase, i), and all of them run as one
    lockstep batch.  The ensemble average uses normalized projectors at time
    t (trajectories sampled by inverse transform already carry the physical
    measure).  The direct solution integrates
    drho/dt = G rho + rho G^dag + sum L rho L^dag.  Returns a report with
    elementwise deviations against the 5/sqrt(ntraj) Monte Carlo band.
    """
    d = model.dim
    psi0 = model.initial_state / np.linalg.norm(model.initial_state)
    rho0 = np.outer(psi0, psi0.conj())
    rho_direct = integrate_ode(_lindblad_rhs(model), rho0.reshape(-1),
                               0.0, t, tol=1e-10).reshape(d, d)

    rngs = [RngStream(seedbase, i).generator() for i in range(ntraj)]
    _, _, final = _unravel(model, t, rngs)
    psi_t = final / np.linalg.norm(final, axis=0)
    rho_mc = (psi_t @ psi_t.conj().T) / ntraj

    dev = np.abs(rho_mc - rho_direct)
    tol = 5.0 / np.sqrt(ntraj)
    return {
        "rho_direct": rho_direct,
        "rho_ensemble": rho_mc,
        "deviation": dev,
        "max_deviation": float(dev.max()),
        "tolerance": tol,
        "passed": bool(dev.max() < tol),
        "ntraj": int(ntraj),
        "t": float(t),
    }
