import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import expm

from nextjump import cavity
from nextjump.atom3 import Atom3Params, effective_model
from nextjump.numerics import RngStream
from nextjump.trajectories import (BISECT_ITERS, EIG_COND_LIMIT,
                                   EffectiveModel, JumpRecord, NullFlow,
                                   _GAP_BLOCK, _find_level, _unravel,
                                   lindblad_consistency, run_trajectory,
                                   sample_gaps, telegraph_run,
                                   telegraph_stats, telegraph_trace)


def _pilot_model():
    p = Atom3Params(omega1=5.0, omega2=0.05, delta2=5.0, beta1=1.0, beta2=0.0)
    return effective_model(p)


def _criterion14_models():
    """(model, tmax) pairs of criterion 14: the two-channel atom with a
    constant reset, and the cavity with an operator reset."""
    pa = Atom3Params(omega1=1.0, omega2=0.7, delta2=0.5, beta1=1.0, beta2=0.8)
    psi0 = np.zeros(17, dtype=complex)
    psi0[[0, 2]] = 1.0
    mc = cavity.effective_model(cavity.CavityParams(kappa=1.0, nbar=2.0), 16,
                                initial_state=psi0)
    return {"atom": (effective_model(pa), 3.0), "cavity": (mc, 2.0)}


MODELS = _criterion14_models()
# a constant reset need not be normalized: survival is relative to it
MODELS["atom_scaled_reset"] = (
    dataclasses.replace(MODELS["atom"][0],
                        reset_state=2.0 * MODELS["atom"][0].reset_state),
    3.0)


def _defective_model():
    """Exceptional point: M = [[-1/2, 1], [0, -1/2]] has a single
    eigenvector, so NullFlow must leave the eigenbasis.  M is
    -iH - L^dag L / 2 for H = -sigma_y / 2 and L = |0>(<0| - <1|), so the
    unraveling is trace preserving; each click resets to |0>."""
    M = np.array([[-0.5, 1.0], [0.0, -0.5]], dtype=complex)
    L = np.array([[1.0, -1.0], [0.0, 0.0]], dtype=complex)
    return EffectiveModel(generator=M, jump_ops=(L,), labels=("click",),
                          initial_state=np.array([0.0, 1.0]), beta_fast=1.0)


def _reference_trajectory(model, tmax, rng):
    """Sequential unraveling kept as the reference for the lockstep engine:
    a fresh NullFlow per segment, scalar 64-step bisection and a scalar
    channel draw.  Returns (times, channels, final state)."""
    times, channels = [], []
    state = model.initial_state / np.linalg.norm(model.initial_state)
    t = 0.0
    final = state
    while t < tmax:
        flow = NullFlow(model.generator, state)
        u = float(rng.random())
        remaining = tmax - t
        if flow.survival(remaining) > u:
            final = flow.state(remaining)
            break
        lo, hi = 0.0, remaining
        for _ in range(BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            if flow.survival(mid) > u:
                lo = mid
            else:
                hi = mid
        t_rel = 0.5 * (lo + hi)
        psi = flow.state(t_rel)
        k = 0
        if len(model.jump_ops) > 1:
            rates = model.jump_rates(psi)
            u2 = float(rng.random())
            acc = 0.0
            k = len(rates) - 1
            for j, r in enumerate(rates):
                acc += r / rates.sum()
                if u2 < acc:
                    k = j
                    break
        state = model.reset(k, psi)
        t += t_rel
        times.append(t)
        channels.append(k)
        final = state
    return times, channels, final


def _assert_engine_matches_reference(model, tmax, seedbase, ntraj):
    """Engine and reference agree trajectory by trajectory; returns the
    reference's normalized final states as columns."""
    times, channels, final = _unravel(
        model, tmax, [RngStream(seedbase, i).generator() for i in range(ntraj)])
    ref_final = np.empty_like(final)
    for i in range(ntraj):
        ref_t, ref_c, ref_f = _reference_trajectory(
            model, tmax, RngStream(seedbase, i).generator())
        assert len(times[i]) == len(ref_t)
        assert channels[i] == ref_c
        assert np.max(np.abs(np.subtract(times[i], ref_t)), initial=0.0) < 1e-9
        got = final[:, i] / np.linalg.norm(final[:, i])
        ref_final[:, i] = want = ref_f / np.linalg.norm(ref_f)
        assert np.max(np.abs(got - want)) < 1e-10
    return ref_final


def test_null_flow_matches_expm():
    gen = np.array([[-0.2 + 1j, 0.5], [0.1, -1.0 - 0.3j]], dtype=complex)
    psi0 = np.array([1.0, 0.5j], dtype=complex)
    flow = NullFlow(gen, psi0)
    for t in (0.3, 1.7):
        want = expm(gen * t) @ psi0
        assert np.max(np.abs(flow.state(t) - want)) < 1e-10
    assert abs(flow.survival(0.0) - 1.0) < 1e-12


def test_null_flow_state_shapes():
    gen = -0.5 * np.eye(2, dtype=complex)
    flow = NullFlow(gen, np.array([1.0, 0.0], dtype=complex))
    assert flow.state(1.0).shape == (2,)
    assert flow.state(np.array([0.5, 1.0, 2.0])).shape == (2, 3)
    w = flow.survival(np.array([1.0, 2.0]))
    assert np.allclose(w, np.exp([-1.0, -2.0]))


def test_sample_gaps_inverts_pure_decay():
    # survival e^{-t}: inverse transform gives exactly -log(u)
    n = 2000
    got = sample_gaps(lambda t: np.exp(-t), n, RngStream(0, 0), t_hi=60.0)
    want = -np.log(RngStream(0, 0).generator().random(n))
    assert np.max(np.abs(got - want)) < 1e-9


def test_sample_gaps_ks_against_cdf():
    got = sample_gaps(lambda t: np.exp(-t), 100_000, RngStream(1, 0), t_hi=60.0)
    d, p = stats.kstest(got, "expon")
    assert d < 0.005
    assert p > 0.01


def test_sample_gaps_accepts_generator():
    a = sample_gaps(lambda t: np.exp(-t), 16, RngStream(3, 0), t_hi=60.0)
    b = sample_gaps(lambda t: np.exp(-t), 16, RngStream(3, 0).generator(),
                    t_hi=60.0)
    assert np.array_equal(a, b)


class _Levels:
    """Stands in for a generator: hands out the given levels u in order."""

    def __init__(self, u):
        self._u = np.asarray(u, dtype=float)

    def random(self, n):
        out, self._u = self._u[:n], self._u[n:]
        return out


def _bisect_reference(survival, u, t_hi):
    """Scalar 64-step bisection of W(t) = u on [0, t_hi]."""
    lo, hi = 0.0, t_hi
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if survival(mid) > u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _counting(survival):
    """survival wrapped to count its calls (one per solver pass)."""
    calls = []

    def wrapped(t):
        calls.append(np.size(t))
        return survival(t)

    return wrapped, calls


@pytest.mark.parametrize("case", ["atom", "cavity"])
def test_sample_gaps_matches_scalar_bisection(case):
    if case == "atom":
        model = _pilot_model()
        survival = NullFlow(model.generator, model.initial_state).survival
        t_hi = 900.0
    else:
        survival = cavity.resonant_flow(
            cavity.CavityParams(kappa=1.0, nbar=4.0)).survival
        t_hi = 40.0
    n = 300
    counted, calls = _counting(survival)
    got = sample_gaps(counted, n, RngStream(21, 0), t_hi)
    u = RngStream(21, 0).generator().random(n)
    want = np.array([_bisect_reference(survival, v, t_hi) for v in u])
    assert np.max(np.abs(got - want)) < 1e-9
    # after the one table of ln W, about 5 (cavity) to 9 (atom) passes a
    # sample, where bisection took 64
    assert sum(calls[1:]) < 12 * n


@settings(max_examples=25, deadline=None)
@given(kappa=st.floats(min_value=0.1, max_value=10.0),
       nbar=st.floats(min_value=0.01, max_value=100.0),
       seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_sample_gaps_solves_level_property(kappa, nbar, seed):
    flow = cavity.resonant_flow(cavity.CavityParams(kappa=kappa, nbar=nbar))
    t_hi = 40.0 / kappa
    n = 400
    gaps = sample_gaps(flow.survival, n, RngStream(seed, 0), t_hi)
    u = RngStream(seed, 0).generator().random(n)
    free = gaps < t_hi
    assert np.all(gaps[~free] == t_hi)
    assert np.all((gaps >= 0.0) & (gaps <= t_hi))
    resid = np.abs(flow.log_survival(gaps[free]) - np.log(u[free]))
    assert np.max(resid, initial=0.0) <= 1e-9


def test_sample_gaps_censors_exactly_at_t_hi():
    # nbar = 0.01 leaves most of the mass beyond t_hi = 40
    flow = cavity.resonant_flow(cavity.CavityParams(kappa=1.0, nbar=0.01))
    n = 5000
    gaps = sample_gaps(flow.survival, n, RngStream(6, 0), t_hi=40.0)
    u = RngStream(6, 0).generator().random(n)
    censored = gaps == 40.0
    assert 0.6 < censored.mean() < 0.8
    assert np.array_equal(censored, u <= flow.survival(40.0))


def test_sample_gaps_independent_of_blocks():
    flow = cavity.resonant_flow(cavity.CavityParams(kappa=1.0, nbar=4.0))
    n = 2 * _GAP_BLOCK + 1000
    u = RngStream(9, 0).generator().random(n)
    gaps = sample_gaps(flow.survival, n, _Levels(u), t_hi=40.0)
    assert np.array_equal(gaps, sample_gaps(flow.survival, n, RngStream(9, 0),
                                            t_hi=40.0))
    edges = [0, _GAP_BLOCK, 2 * _GAP_BLOCK, n]
    picks = {i for e in edges for i in range(e - 3, e + 3) if 0 <= i < n}
    picks |= set(RngStream(9, 1).generator().integers(0, n, 40).tolist())
    for i in sorted(picks):
        one = sample_gaps(flow.survival, 1, _Levels(u[i:i + 1]), t_hi=40.0)
        assert one[0] == gaps[i]


def test_sample_gaps_plateau_converges_within_cap():
    # ln W = -(t - sin t) is flat at t = 2 pi k: regula falsi stalls there
    # and the bisection safeguard has to carry it
    survival, calls = _counting(lambda t: np.exp(-(t - np.sin(t))))
    n = 3000
    gaps = sample_gaps(survival, n, RngStream(12, 0), t_hi=60.0)
    u = RngStream(12, 0).generator().random(n)
    assert len(calls) <= 1 + 2 * BISECT_ITERS
    assert np.max(np.abs(-(gaps - np.sin(gaps)) - np.log(u))) < 1e-12
    for i in range(0, n, 300):
        assert abs(gaps[i] - _bisect_reference(survival, u[i], 60.0)) < 1e-9

    # the level -2 pi crosses exactly at the flat point t = 2 pi, a triple
    # root that only the safeguard resolves
    passes = []

    def log_w(t, idx):
        passes.append(t.size)
        return -(t - np.sin(t))

    log_u = np.array([-2.0 * np.pi])
    t = _find_level(log_w, log_u, np.zeros(1), np.full(1, 60.0),
                    -log_u, -(60.0 - np.sin(60.0)) - log_u)
    assert len(passes) < 2 * BISECT_ITERS
    assert abs(t[0] - 2.0 * np.pi) < 1e-4
    assert abs(log_w(t, None)[0] - log_u[0]) < 1e-12


def test_find_level_safeguard_on_a_jump():
    # f falls from 1 to -1e-12 across t = 0.3: each secant step lands next
    # to b and barely moves it, so only the forced bisections close in
    passes = []

    def log_w(t, idx):
        passes.append(t.size)
        return np.where(t < 0.3, 1.0, -1e-12)

    zero = np.zeros(2)
    t = _find_level(log_w, zero, zero, np.array([1.0, 500.0]),
                    np.ones(2), np.full(2, -1e-12))
    assert len(passes) <= 2 * BISECT_ITERS
    assert np.all(np.abs(t - 0.3) <= 1e-13 * 0.3)


def test_telegraph_trace_segments():
    gaps = np.array([0.5, 12.0, 0.3, 0.4, 15.0, 20.0, 1.0, 0.2])
    rec = JumpRecord(np.cumsum(gaps), [0, 1, 0, 0, 1, 0, 1, 0],
                     ("fast", "slow"), np.zeros(1), 50.0)
    tr = telegraph_trace(rec, 10.0)
    t = rec.times
    assert np.array_equal(tr.starts, [0.0, t[0], t[1], t[3], t[4], t[5]])
    assert np.array_equal(tr.ends, [t[0], t[1], t[3], t[4], t[5], t[7]])
    assert tr.dark.tolist() == [False, True, False, True, True, False]
    assert tr.terminating_label == ("fast", "slow", "fast", "slow", "fast",
                                    "fast")
    empty = telegraph_trace(JumpRecord([], [], ("fast",), np.zeros(1), 1.0),
                            10.0)
    assert empty.starts.size == empty.ends.size == empty.dark.size == 0


@settings(max_examples=60, deadline=None)
@given(gaps=st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1,
                     max_size=30),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       threshold=st.floats(min_value=0.01, max_value=100.0))
def test_telegraph_trace_property(gaps, seed, threshold):
    times = np.cumsum(gaps)
    if np.any(np.diff(times) <= 0):
        return
    channels = np.random.default_rng(seed).integers(0, 3, times.size)
    rec = JumpRecord(times, channels, ("a", "b", "c"), np.zeros(1),
                     float(times[-1]))
    tr = telegraph_trace(rec, threshold)
    # the segments partition [0, last click] exactly
    assert tr.starts[0] == 0.0 and tr.ends[-1] == times[-1]
    assert np.array_equal(tr.starts[1:], tr.ends[:-1])
    assert np.all(tr.ends > tr.starts)
    # every segment ends on a click, labelled by that click's channel
    at = np.searchsorted(times, tr.ends)
    assert np.array_equal(times[at], tr.ends)
    assert tr.terminating_label == tuple(rec.labels[k] for k in channels[at])
    # dark segments are exactly the gaps above threshold
    g = rec.gaps()
    assert np.array_equal(at[tr.dark], np.flatnonzero(g > threshold))
    assert np.array_equal(tr.durations[tr.dark], g[g > threshold])
    # bright runs are merged: no two bright segments in a row
    assert not np.any(~tr.dark[1:] & ~tr.dark[:-1])
    starts_at = np.concatenate(([-1], at[:-1]))
    for lo, hi, dark in zip(starts_at, at, tr.dark):
        assert np.all((g[lo + 1:hi + 1] > threshold) == dark)


def test_sample_next_jump_and_run_trajectory():
    model = _pilot_model()
    first = run_trajectory(model, 900.0, RngStream(4, 0))
    assert first.njumps >= 1 and first.times[0] > 0
    # the first click sits where the survival falls to the first draw
    u = float(RngStream(4, 0).generator().random())
    flow = NullFlow(model.generator, model.initial_state)
    assert abs(flow.survival(first.times[0]) - u) < 1e-6

    rec = run_trajectory(model, 200.0, RngStream(4, 1))
    assert rec.tmax == 200.0
    assert np.all(np.diff(rec.times) > 0)
    assert rec.times[-1] <= 200.0
    assert np.allclose(rec.gaps(), np.diff(rec.times, prepend=0.0))
    assert rec.channels.shape == rec.times.shape


def test_telegraph_run_deterministic():
    model = _pilot_model()
    r1 = telegraph_run(model, 500.0, RngStream(2, 0))
    r2 = telegraph_run(model, 500.0, RngStream(2, 0))
    assert np.array_equal(r1.times, r2.times)
    assert np.array_equal(r1.channels, r2.channels)


def test_telegraph_stats_consistency():
    model = _pilot_model()
    rec = telegraph_run(model, 2000.0, RngStream(2, 0))
    st = telegraph_stats(rec, dark_threshold=10.0)
    assert 0.0 < st.p_dark < 1.0
    assert st.p_dark_se > 0.0
    assert st.n_dark == st.dark_durations.size
    assert np.all(st.dark_durations > st.threshold)
    assert set(st.branch_fractions) <= set(model.labels)
    if st.n_dark:
        assert abs(sum(st.branch_fractions.values()) - 1.0) < 1e-12
    # dark fraction is time share: durations over total time
    assert abs(st.p_dark - st.dark_durations.sum() / rec.times[-1]) < 1e-2


def test_effective_model_rates_and_reset():
    model = _pilot_model()
    ground = model.initial_state
    # ground state feeds no detector
    assert np.allclose(model.jump_rates(ground), 0.0)
    rng = RngStream(8, 0).generator()
    psi = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    psi /= np.linalg.norm(psi)
    assert model.rate_identity_gap(psi) < 1e-12
    out = model.reset(0, psi)
    assert np.array_equal(out, ground)


def test_jump_record_validates_times():
    with pytest.raises(ValueError):
        JumpRecord(times=[1.0, 1.0], channels=[0, 0], labels=("a",),
                   final_state=np.array([1.0 + 0j]), tmax=2.0)


def test_lindblad_consistency_small_ensemble():
    p = Atom3Params(omega1=1.0, omega2=0.7, delta2=0.5, beta1=1.0, beta2=0.8)
    rep = lindblad_consistency(effective_model(p), 300, 3.0, seedbase=14)
    assert rep["passed"]
    assert rep["max_deviation"] < rep["tolerance"]
    assert rep["tolerance"] == 5.0 / np.sqrt(300)
    rho = rep["rho_direct"]
    assert abs(np.trace(rho).real - 1.0) < 1e-8
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-10


@pytest.mark.parametrize("name", sorted(MODELS))
def test_engine_matches_sequential_reference(name):
    model, tmax = MODELS[name]
    ref = _assert_engine_matches_reference(model, tmax, seedbase=14, ntraj=200)
    rep = lindblad_consistency(model, 200, tmax, seedbase=14)
    want = ref @ ref.conj().T / 200
    assert np.max(np.abs(rep["rho_ensemble"] - want)) < 1e-10


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(MODELS)),
       seedbase=st.integers(min_value=0, max_value=2**63 - 1),
       tmax=st.floats(min_value=0.05, max_value=6.0))
def test_engine_matches_reference_property(name, seedbase, tmax):
    model, _ = MODELS[name]
    _assert_engine_matches_reference(model, tmax, seedbase, ntraj=6)


def test_lindblad_consistency_same_seed_repeats():
    model, tmax = MODELS["cavity"]
    r1 = lindblad_consistency(model, 200, tmax, seedbase=3)
    r2 = lindblad_consistency(model, 200, tmax, seedbase=3)
    assert np.array_equal(r1["rho_ensemble"], r2["rho_ensemble"])
    # each trajectory of the batch is the trajectory run on its own
    rec = run_trajectory(model, tmax, RngStream(3, 7))
    times, channels, _ = _unravel(
        model, tmax, [RngStream(3, i).generator() for i in range(200)])
    assert np.array_equal(rec.times, times[7])
    assert np.array_equal(rec.channels, channels[7])


def test_eig_fallback_first_jump_and_ensemble():
    model = _defective_model()
    M, (L,) = model.generator, model.jump_ops
    H = np.array([[0.0, 0.5j], [-0.5j, 0.0]])
    assert np.max(np.abs(M - (-1j * H - 0.5 * L.conj().T @ L))) < 1e-15
    flow = NullFlow(M, model.initial_state)
    assert not flow.uses_eig
    for t in (0.0, 0.7, 4.0):
        want = expm(M * t) @ model.initial_state
        assert np.max(np.abs(flow.state(t) - want)) < 1e-9
    for seed in range(5):
        rec = run_trajectory(model, 20.0, RngStream(seed, 0))
        assert rec.njumps >= 1
        psi = expm(M * rec.times[0]) @ model.initial_state
        u = float(RngStream(seed, 0).generator().random())
        assert abs(np.vdot(psi, psi).real - u) < 1e-9
    _assert_engine_matches_reference(model, 3.0, seedbase=2, ntraj=40)
    rep = lindblad_consistency(model, 4000, 3.0, seedbase=5)
    assert rep["passed"]
    assert abs(np.trace(rep["rho_direct"]).real - 1.0) < 1e-8


def _near_exceptional_generator(L, eps=1e-10):
    """The defective model's H = -sigma_y / 2 plus eps sigma_z: the two
    eigenvectors of M = -iH - L^dag L / 2 meet at angle ~2 eps, so
    cond(V) ~ 1/eps, but |0> is an exact eigenvector."""
    H = np.array([[eps, 0.5j], [-0.5j, -eps]])
    return -1j * H - 0.5 * L.conj().T @ L


def test_null_flow_mode_follows_the_state():
    L = np.array([[1.0, -1.0], [0.0, 0.0]])
    M = _near_exceptional_generator(L)
    assert np.linalg.cond(np.linalg.eig(M)[1]) > 1e9
    ground, excited = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    on_mode = NullFlow(M, ground)           # a(|0>) = 1
    off_mode = NullFlow(M, excited)         # a(|1>) ~ 1e10
    assert on_mode.uses_eig
    assert not off_mode.uses_eig
    for flow, psi in ((on_mode, ground), (off_mode, excited)):
        for t in (0.3, 2.0, 7.0):
            want = expm(M * t) @ psi
            err = np.linalg.norm(flow.state(t) - want)
            assert err < 1e-8 * np.linalg.norm(want)


def test_null_flow_singular_eigenbasis_falls_back():
    # a nilpotent 3 x 3 Jordan block: eig returns an exactly singular V, so
    # the expansion itself fails and the flow takes the ODE
    M = np.eye(3, k=1)
    psi = np.array([0.2, -0.5j, 1.0])
    flow = NullFlow(M, psi)
    assert not flow.uses_eig
    for t in (0.5, 3.0):
        want = expm(M * t) @ psi
        err = np.linalg.norm(flow.state(t) - want)
        assert err < 1e-9 * np.linalg.norm(want)


def test_ill_conditioned_post_jump_state_raises():
    # same M, but a click now leaves |1>, whose eigenmode expansion the
    # eigen-mode flow started on |0> must refuse
    L = np.array([[0.0, 0.0], [1.0, -1.0]])
    model = EffectiveModel(generator=_near_exceptional_generator(L),
                           jump_ops=(L,), labels=("click",),
                           initial_state=np.array([1.0, 0.0]), beta_fast=1.0)
    assert NullFlow(model.generator, model.initial_state).uses_eig
    with pytest.raises(FloatingPointError, match=r"a\(psi\) = 1(\.\d+)?e\+10"):
        run_trajectory(model, 20.0, RngStream(0, 0))


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(min_value=2, max_value=6),
       nops=st.integers(min_value=1, max_value=2),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       t=st.floats(min_value=0.0, max_value=5.0))
def test_null_flow_matches_expm_property(d, nops, seed, t):
    rng = np.random.default_rng(seed)
    A = _cplx(rng, d, d)
    Ls = [_cplx(rng, d, d) / np.sqrt(d) for _ in range(nops)]
    M = -0.5j * (A + A.conj().T) - 0.5 * sum(L.conj().T @ L for L in Ls)
    psi = _cplx(rng, d)
    # a dissipative generator passes the model's own check
    EffectiveModel(generator=M, jump_ops=Ls, labels=range(nops),
                   initial_state=psi, beta_fast=1.0)
    flow = NullFlow(M, psi)
    if flow.uses_eig:
        P = expm(M * t)
        err = np.linalg.norm(flow.state(t) - P @ psi)
        assert err <= 1e-8 * np.linalg.norm(P, 2) * np.linalg.norm(psi)


def test_effective_model_checks_its_generator():
    model = _pilot_model()
    M = model.generator
    # a change to H (a Hermitian shift) keeps the identity
    dataclasses.replace(model, generator=M - 0.3j * np.eye(3))
    # rounding-level noise passes, a real perturbation does not
    dataclasses.replace(model, generator=M + 1e-14)
    for bump in (1e-6, -1e-8j):
        bad = M.copy()
        bad[1, 2] += bump
        with pytest.raises(ValueError, match="Hermitian part"):
            dataclasses.replace(model, generator=bad)
    with pytest.raises(ValueError, match=r"must be \(d, d\)"):
        dataclasses.replace(model, generator=M[:2, :2])
    with pytest.raises(ValueError, match=r"must be \(d, d\)"):
        dataclasses.replace(model, jump_ops=(np.eye(2), model.jump_ops[1]))
    with pytest.raises(ValueError, match=r"must be \(d, d\)"):
        dataclasses.replace(model, initial_state=np.ones(2))
    with pytest.raises(ValueError, match=r"must be \(d, d\)"):
        dataclasses.replace(model, reset_state=np.ones(4))


def test_constants():
    assert BISECT_ITERS == 64
    assert EIG_COND_LIMIT == 1e8
    assert isinstance(_pilot_model(), EffectiveModel)
