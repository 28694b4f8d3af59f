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
                                   _unravel, lindblad_consistency,
                                   run_trajectory, sample_gaps,
                                   telegraph_run, telegraph_stats)


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


def test_constants():
    assert BISECT_ITERS == 64
    assert EIG_COND_LIMIT == 1e8
    assert isinstance(_pilot_model(), EffectiveModel)
