import dataclasses
import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import expm

import nextjump
from nextjump import cavity, numerics
from nextjump.atom3 import Atom3Params, effective_model
from nextjump.numerics import DRAW_BUFFER, RngStream, StreamDraws
from nextjump.trajectories import (BISECT_ITERS, EIG_COND_LIMIT,
                                   EffectiveModel, JumpRecord, NullFlow,
                                   _BLOCK, _GAP_GRID_CELLS, _LOOKUP_BINS,
                                   _SEED_NODES, _TELEGRAPH_BATCH,
                                   _cell_index, _find_cells, _find_level,
                                   _inverse_cells,
                                   _unravel, lindblad_consistency,
                                   run_trajectory, sample_gaps, telegraph_run,
                                   telegraph_stats)


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
            k = _reference_channel(model.jump_rates(psi), float(rng.random()))
        state = model.reset(k, psi)
        t += t_rel
        times.append(t)
        channels.append(k)
        final = state
    return times, channels, final


def _reference_channel(rates, u2):
    """Scalar cumulative channel draw of the reference trajectory."""
    acc = 0.0
    k = len(rates) - 1
    for j, r in enumerate(rates):
        acc += r / rates.sum()
        if u2 < acc:
            k = j
            break
    return k


def _projector_channels(k):
    """k channels L_j = |j><j| on k levels: the rates of a state are the
    squared moduli of its components."""
    return EffectiveModel(generator=-0.5 * np.eye(k),
                          jump_ops=[np.diag(e) for e in np.eye(k)],
                          labels=tuple(map(str, range(k))),
                          initial_state=np.eye(k)[0], beta_fast=1.0)


_AMPLITUDE = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(min_value=1, max_value=4),
       n=st.integers(min_value=1, max_value=6))
def test_choose_channels_matches_scalar_draw(data, k, n):
    model = _projector_channels(k)
    states = np.array(data.draw(st.lists(
        st.lists(_AMPLITUDE, min_size=k, max_size=k).filter(any),
        min_size=n, max_size=n))).T
    u = np.array(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        min_size=n, max_size=n)))
    got = model.choose_channels(states, u)
    want = [_reference_channel(model.jump_rates(states[:, i]), u[i])
            for i in range(n)]
    assert got.tolist() == want


def test_choose_channels_rejects_vanishing_rates():
    model = _projector_channels(3)
    states = np.array([[1.0, 0.0], [0.5, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="rates vanish"):
        model.choose_channels(states, np.array([0.3, 0.3]))


def _unravel_per_trajectory(model, tmax, draws):
    """``_unravel`` with its flat click arrays split per trajectory: the
    gaps (an array) and the channels (a list) of each, in click order, and
    the final states."""
    traj, gaps, channels, final = _unravel(model, tmax, draws)
    mine = [traj == i for i in range(len(draws))]
    return [gaps[m] for m in mine], [channels[m].tolist() for m in mine], final


def _assert_engine_matches_reference(model, tmax, seedbase, ntraj):
    """Engine, drawing by counter, and reference, drawing from one numpy
    Generator per trajectory, agree trajectory by trajectory; returns the
    reference's normalized final states as columns and the doubles each
    stream gave the engine."""
    draws = StreamDraws(seedbase, np.arange(ntraj))
    gaps, channels, final = _unravel_per_trajectory(model, tmax, draws)
    ref_final = np.empty_like(final)
    for i in range(ntraj):
        ref_t, ref_c, ref_f = _reference_trajectory(
            model, tmax, RngStream(seedbase, i).generator())
        assert len(gaps[i]) == len(ref_t)
        assert channels[i] == ref_c
        assert np.max(np.abs(np.cumsum(gaps[i]) - ref_t), initial=0.0) < 1e-9
        got = final[:, i] / np.linalg.norm(final[:, i])
        ref_final[:, i] = want = ref_f / np.linalg.norm(ref_f)
        assert np.max(np.abs(got - want)) < 1e-10
    return ref_final, draws.drawn


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
    assert flow.survival(np.full((2, 3), 1.0)).shape == (2, 3)


@pytest.mark.parametrize("gen, psi0", [
    (np.array([[-1.0, 0.3], [0.2, -0.5]]), np.array([1.0, 0.5])),
    (_pilot_model().generator, _pilot_model().initial_state),
], ids=["2x2", "atom"])
def test_null_flow_state_takes_any_time_shape(gen, psi0):
    """state(t) is (d,) + t.shape, each time evolved as a scalar call
    would, and bit for bit the states of the raveled times."""
    flow = NullFlow(gen, psi0)
    t = np.linspace(0.2, 1.7, 6).reshape(2, 3)
    psi = flow.state(t)
    assert psi.shape == (len(psi0), 2, 3)
    assert np.array_equal(psi, flow.state(t.ravel()).reshape(psi.shape))
    for i, j in np.ndindex(t.shape):
        assert np.allclose(psi[:, i, j], flow.state(t[i, j]),
                           rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("t", [-1.0, np.nan, np.inf, [0.5, -1e-9],
                               np.array([[0.5], [np.inf]])],
                         ids=["negative", "nan", "inf", "one-negative",
                              "2d-inf"])
@pytest.mark.parametrize("model", [_pilot_model(), _defective_model()],
                         ids=["eig", "exp-action"])
def test_null_flow_refuses_backward_and_non_finite_times(model, t):
    flow = NullFlow(model.generator, model.initial_state)
    with pytest.raises(ValueError, match="t must be finite and non-negative"):
        flow.state(t)
    with pytest.raises(ValueError, match="t must be finite and non-negative"):
        flow.survival(t)


@pytest.mark.parametrize("name, value", [
    ("t_hi", np.nan), ("t_hi", np.inf), ("t_hi", -1.0), ("t_hi", 0.0),
    ("tmax", np.nan), ("tmax", np.inf), ("tmax", -5.0),
    ("total_time", np.nan), ("total_time", -5.0),
])
def test_time_inputs_rejected_promptly(name, value):
    model = _pilot_model()
    call = {
        "t_hi": lambda: sample_gaps(NullFlow(model.generator,
                                             model.initial_state).survival,
                                    10, RngStream(0, 0), t_hi=value),
        "tmax": lambda: run_trajectory(model, value, RngStream(0, 0)),
        "total_time": lambda: telegraph_run(model, value, RngStream(0, 0)),
    }[name]
    start = time.perf_counter()
    with pytest.raises(ValueError, match=name):
        call()
    assert time.perf_counter() - start < 1.0


def test_telegraph_run_rejects_infinite_total_time():
    """An infinite record would draw gaps forever, so this runs in its own
    interpreter under a timeout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nextjump.__file__)))
    code = ("import math\n"
            "from nextjump import atom3, trajectories\n"
            "from nextjump.numerics import RngStream\n"
            "m = atom3.effective_model(atom3.Atom3Params(omega1=5.0, "
            "omega2=0.05, delta2=5.0, beta1=1.0, beta2=0.0))\n"
            "try:\n"
            "    trajectories.telegraph_run(m, math.inf, RngStream(2, 0))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-c", code], timeout=30,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert "total_time must be finite" in proc.stdout


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 150001])
@pytest.mark.parametrize("name", ["atom", "cavity"])
def test_survival_blocks_match_one_product(name, n):
    """survival works _BLOCK times at a time; in eigenmode mode that is bit
    for bit the norm of the whole state array (a lone last time joins the
    block before it, since numpy rounds a one-column product otherwise)."""
    model, tmax = MODELS[name]
    flow = NullFlow(model.generator, model.initial_state)
    assert flow.uses_eig
    t = np.linspace(0.0, tmax, n)
    whole = np.sum(np.abs(flow.state(t)) ** 2, axis=0) / flow._norm0
    assert np.array_equal(flow.survival(t), whole)


def test_survival_blocks_off_the_eigenmodes():
    """Off the eigenmodes each block picks its own exp-action substeps, so
    a long grid moves by rounding only."""
    model = _defective_model()
    flow = NullFlow(model.generator, model.initial_state)
    assert not flow.uses_eig
    t = np.linspace(0.0, 20.0, _BLOCK + 100)
    whole = np.sum(np.abs(flow.state(t)) ** 2, axis=0) / flow._norm0
    assert np.allclose(flow.survival(t), whole, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("name", ["atom", "cavity"])
def test_survival_memory_per_point(name):
    """Only W (8 bytes a time) grows with the grid; the states are per
    block (building every state at once costs 96 bytes a time on the atom
    and 544 on the cavity), and one block's are dropped before the next
    block's are built."""
    model, tmax = MODELS[name]
    flow = NullFlow(model.generator, model.initial_state)

    def peak(n):
        t = np.linspace(0.0, tmax, n)
        tracemalloc.start()
        try:
            flow.survival(t)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = (peak(16 * _BLOCK) - peak(2 * _BLOCK)) / (14 * _BLOCK)
    assert growth <= 12.0
    assert peak(2 * _BLOCK) <= 1.25 * peak(_BLOCK)


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
    # after the one table of ln W, the closing pair and a few regula falsi
    # passes: 2.16 (atom) and 2.0 (cavity) points a sample at this seed,
    # where bisection takes 64
    assert sum(calls[1:]) < 5 * n


@pytest.mark.parametrize("case", ["atom", "cavity"])
def test_sample_gaps_points_per_sample(case):
    """Beyond the table of ln W, the closing pair and the few regula falsi
    passes left cost criterion 4's atom (150,000 draws, t_hi 900) about
    2.17 survival points a sample and the resonant cavity at nbar 4
    (100,000 draws, t_hi 40) about 2.0001, where the closing pair alone
    takes 2."""
    if case == "atom":
        model = _pilot_model()
        survival = NullFlow(model.generator, model.initial_state).survival
        n, t_hi, cap = 150_000, 900.0, 2.25
    else:
        survival = cavity.resonant_flow(
            cavity.CavityParams(kappa=1.0, nbar=4.0)).survival
        n, t_hi, cap = 100_000, 40.0, 2.1
    counted, calls = _counting(survival)
    sample_gaps(counted, n, RngStream(1, 1), t_hi)
    assert calls[0] == _GAP_GRID_CELLS + 1
    assert sum(calls[1:]) <= cap * n


def _seed_at(cells, grid, table, i, y):
    """The seed of cell i of ``_inverse_cells`` at the levels y."""
    r = np.asarray(y) - table[i]
    x = 0.0
    for c in cells[:, i]:
        x = x * r + c
    return grid[i] + x * r


def test_inverse_cells_interpolate_their_nodes():
    """Each inner cell's seed passes through its 8 nodes i-3 .. i+4 and
    misses the exact inverse at mid-cell by less than 1e-10 of the cell's
    right end; the end cells and the cells that reach a flat step of the
    table keep the straight line through their ends."""
    # W = exp(-(t + t^2 / 2)), so t(y) = sqrt(1 - 2 y) - 1
    grid = np.expm1(np.linspace(0.0, np.log1p(50.0), 401))
    table = -(grid + 0.5 * grid ** 2)
    cells = _inverse_cells(grid, table)
    assert cells.shape == (_SEED_NODES - 1, 400) and _SEED_NODES == 8
    inner = range(3, 397)
    for i in inner:
        y = table[i - 3:i + 5]
        assert np.allclose(_seed_at(cells, grid, table, i, y),
                           grid[i - 3:i + 5], rtol=0.0,
                           atol=1e-12 * grid[i + 4])
        mid = 0.5 * (table[i] + table[i + 1])
        err = abs(_seed_at(cells, grid, table, i, mid)
                  - (np.sqrt(1.0 - 2.0 * mid) - 1.0))
        assert err < 1e-10 * grid[i + 1]
    line = np.vstack((np.zeros((_SEED_NODES - 2, 400)),
                      np.diff(grid) / np.diff(table)))
    ends = [0, 1, 2, 397, 398, 399]
    assert np.array_equal(cells[:, ends], line[:, ends])
    # a flat step between nodes 200 and 201 reaches the cells 197 .. 203
    table[201] = table[200]
    flat = _inverse_cells(grid, table)
    near = list(range(197, 204))
    assert np.array_equal(flat[:-1, near], np.zeros((_SEED_NODES - 2, 7)))
    assert np.array_equal(flat[:, [196, 205]], cells[:, [196, 205]])


def _adversarial_tables():
    """Non-increasing ln W tables of _GAP_GRID_CELLS + 1 nodes that are
    hard on the cell lookup, each with the levels u to look up in it."""
    rng = np.random.default_rng(30)
    nodes = _GAP_GRID_CELLS + 1
    k = _LOOKUP_BINS
    # bin edges m / k and 1 .. 4 ulp below them, where e^ln w may round
    # into the bin above w's own
    edges = [rng.integers(1, k, 1500) / k]
    for _ in range(4):
        edges.append(np.nextafter(edges[-1], 0.0))
    edges = np.concatenate(edges)
    w = np.sort(np.concatenate((
        rng.random(nodes - edges.size - 2000), edges,
        1.0 - 1e-9 * np.arange(2000),              # 2,000 in the top bin
    )))[::-1]
    w[0] = 1.0
    # flat runs as the running minimum leaves them, where W rose
    bumpy = np.log(w)
    bumpy[5000:5400] += 1e-3
    bumpy[9000:9007] += 1e-12
    flat = np.minimum.accumulate(bumpy)
    # W reaches 0: a -inf tail
    dead = np.log(w)
    dead[-3000:] = -np.inf
    # W(0) < 1: levels above the first node take cell 0
    low = np.log(0.5 * w)
    levels = np.concatenate((
        np.exp(flat[::7]), w[::5],                # levels equal to nodes
        edges,
        [0.0, 1e-300, 5e-324, 1.0 / k, np.nextafter(1.0, 0.0)],
        rng.random(20000),
    ))
    return {"flat-runs": (flat, levels), "inf-tail": (dead, levels),
            "below-one": (low, levels)}


@pytest.mark.parametrize("name", ["flat-runs", "inf-tail", "below-one"])
def test_find_cells_matches_searchsorted(name):
    """The indexed lookup returns exactly np.searchsorted's count, in one
    call and one level at a time: levels on nodes, on bin edges and 1 to 4
    ulp below, u = 0 and levels below the last node (censored), bins that
    hold 2,000 nodes, flat runs and a -inf tail; and so it stays with an
    index that misplaces nodes, as rounding of e^ln W could."""
    table, u = _adversarial_tables()[name]
    with np.errstate(divide="ignore"):
        lu = np.log(u)
    assert np.all(table[1:] <= table[:-1])
    want = np.searchsorted(-table, -lu, side="right")
    index = _cell_index(table)
    assert np.array_equal(_find_cells(table, index, u, lu), want)
    for i in range(0, u.size, 97):
        one = _find_cells(table, index, u[i:i + 1], lu[i:i + 1])
        assert one.shape == (1,) and one[0] == want[i]
    # the count stays exact if rounding misplaced nodes in their bins: an
    # index one too high, one too low, or none of the right ones at all
    wrong = np.random.default_rng(31).integers(0, table.size + 1, index.size)
    for bad in (np.minimum(index + 1, table.size), np.maximum(index - 1, 0),
                wrong):
        assert np.array_equal(_find_cells(table, bad, u, lu), want)
    # every kind of cell was met: the first, the censored and the rest
    assert want.min() <= 1 and want.max() == table.size


def _nan_after_the_table():
    """exp(-t) for the first call (the table), NaN for every later one."""
    calls = []

    def survival(t):
        calls.append(t.size)
        w = np.exp(-t)
        return w if len(calls) == 1 else np.full_like(w, np.nan)

    return survival


@pytest.mark.parametrize("make", [
    lambda: lambda t: np.where(t == 0.0, np.nan, np.exp(-t)),
    lambda: lambda t: np.where(t > 5.0, np.nan, np.exp(-t)),
    lambda: lambda t: np.where(t > 5.0, np.inf, np.exp(-t)),
    _nan_after_the_table,
], ids=["nan-at-zero", "nan-beyond-5", "inf-beyond-5", "nan-after-the-table"])
def test_sample_gaps_refuses_non_finite_survival(make):
    # without the check the first gave 2.70e-5 for every sample, the second
    # capped every gap at 5 and the third censored the tail at t_hi
    with pytest.raises(FloatingPointError, match="sample_gaps needs"):
        sample_gaps(make(), 2000, RngStream(4, 0), t_hi=60.0)


def test_sample_gaps_takes_zero_survival():
    # W = 1 - t/10 reaches 0 at t = 10, so ln W = -inf on most of the table
    survival = lambda t: np.maximum(1.0 - t / 10.0, 0.0)
    n = 2000
    gaps = sample_gaps(survival, n, RngStream(4, 0), t_hi=60.0)
    u = RngStream(4, 0).generator().random(n)
    assert np.max(np.abs(gaps - 10.0 * (1.0 - u))) <= 1e-12


@pytest.mark.parametrize("case", ["atom", "cavity"])
def test_sample_gaps_near_one_matches_scalar_bisection(case):
    # W falls as t^3 from 1, so levels 1 - 1e-4 .. 1 - 1e-10 put the roots
    # between about 1e-4 and 1e-1, on the smallest cells of the table;
    # closer to 1 the rounding of W moves the root by more than 1e-9
    if case == "atom":
        model = _pilot_model()
        survival = NullFlow(model.generator, model.initial_state).survival
        t_hi = 900.0
    else:
        survival = cavity.resonant_flow(
            cavity.CavityParams(kappa=1.0, nbar=4.0)).survival
        t_hi = 40.0
    u = 1.0 - 10.0 ** -np.arange(4.0, 11.0)
    got = sample_gaps(survival, u.size, _Levels(u), t_hi)
    want = np.array([_bisect_reference(survival, v, t_hi) for v in u])
    assert np.all(got < 0.1)
    assert np.max(np.abs(got - want)) < 1e-9


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
    n = 2 * _BLOCK + 1000
    u = RngStream(9, 0).generator().random(n)
    gaps = sample_gaps(flow.survival, n, _Levels(u), t_hi=40.0)
    assert np.array_equal(gaps, sample_gaps(flow.survival, n, RngStream(9, 0),
                                            t_hi=40.0))
    edges = [0, _BLOCK, 2 * _BLOCK, n]
    picks = {i for e in edges for i in range(e - 3, e + 3) if 0 <= i < n}
    picks |= set(RngStream(9, 1).generator().integers(0, n, 40).tolist())
    for i in sorted(picks):
        one = sample_gaps(flow.survival, 1, _Levels(u[i:i + 1]), t_hi=40.0)
        assert one[0] == gaps[i]


def test_sample_gaps_memory_per_sample():
    """Everything but the levels and the gaps (16 bytes a sample) is per
    block, so the traced peak grows by at most 32 bytes per extra sample."""
    model = _pilot_model()
    flow = NullFlow(model.generator, model.initial_state)
    assert flow.uses_eig   # criterion 4's atom runs on its eigenmodes

    def peak(n):
        tracemalloc.start()
        try:
            sample_gaps(flow.survival, n, RngStream(5, 0), t_hi=900.0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    growth = (peak(8 * _BLOCK) - peak(_BLOCK)) / (7 * _BLOCK)
    assert growth <= 32.0


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


def test_sample_next_jump_and_run_trajectory():
    model = _pilot_model()
    first = run_trajectory(model, 900.0, RngStream(4, 0))
    assert first.njumps >= 1 and first.gaps[0] > 0
    # the first click sits where the survival falls to the first draw
    u = float(RngStream(4, 0).generator().random())
    flow = NullFlow(model.generator, model.initial_state)
    assert abs(flow.survival(first.gaps[0]) - u) < 1e-6

    rec = run_trajectory(model, 200.0, RngStream(4, 1))
    times = np.cumsum(rec.gaps)
    assert np.all(np.diff(times) > 0)
    assert times[-1] <= 200.0
    assert np.allclose(rec.gaps, np.diff(times, prepend=0.0))
    assert rec.channels.shape == times.shape


def test_telegraph_run_deterministic():
    model = _pilot_model()
    r1 = telegraph_run(model, 500.0, RngStream(2, 0))
    r2 = telegraph_run(model, 500.0, RngStream(2, 0))
    assert np.array_equal(r1.gaps, r2.gaps)
    assert np.array_equal(r1.channels, r2.channels)


def test_telegraph_run_channels_from_second_stream():
    # two channels: dark periods end through the slow one as well
    p = Atom3Params(omega1=5.0, omega2=0.05, delta2=5.0, beta1=1.0, beta2=0.3)
    model = effective_model(p)
    rec = telegraph_run(model, 500.0, RngStream(2, 0))
    # one batch of gaps from the reset state, cut after the crossing gap
    flow = NullFlow(model.generator, model.reset_state)
    n = rec.njumps
    assert n < _TELEGRAPH_BATCH
    gaps = sample_gaps(flow.survival, _TELEGRAPH_BATCH, RngStream(2, 0),
                       900.0 / model.beta_fast)[:n]
    assert np.array_equal(gaps, rec.gaps)
    # channels come from the stream paired with the gaps' one
    want = model.choose_channels(flow.state(gaps),
                                 RngStream(2, 1).generator().random(n))
    assert np.array_equal(rec.channels, want)
    assert set(rec.channels.tolist()) == {0, 1}
    # so some dark periods end through the slow channel
    st = telegraph_stats(rec, dark_threshold=10.0)
    assert 0.0 < st.branch_fractions["slow"] < 1.0


def test_telegraph_stats_consistency():
    model = _pilot_model()
    rec = telegraph_run(model, 2000.0, RngStream(2, 0))
    st = telegraph_stats(rec, dark_threshold=10.0)
    assert 0.0 < st.p_dark < 1.0
    assert st.p_dark_se > 0.0
    gaps = rec.gaps
    dark = gaps[gaps > 10.0]
    assert st.n_dark == dark.size
    assert set(st.branch_fractions) <= set(model.labels)
    if st.n_dark:
        assert abs(sum(st.branch_fractions.values()) - 1.0) < 1e-12
    # dark fraction is time share: durations over total time
    assert abs(st.p_dark - dark.sum() / np.cumsum(rec.gaps)[-1]) < 1e-2


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
    """The gaps that make the click times must be finite and positive,
    one channel per gap."""
    for gaps, channels in [([1.0, 0.0], [0, 0]), ([1.0, -1.0], [0, 0]),
                           ([np.nan], [0]), ([np.inf], [0]),
                           ([1.0, 2.0], [0]), ([[1.0]], [[0]])]:
        with pytest.raises(ValueError):
            JumpRecord(gaps=gaps, channels=channels, labels=("a",))


def test_lindblad_consistency_small_ensemble():
    p = Atom3Params(omega1=1.0, omega2=0.7, delta2=0.5, beta1=1.0, beta2=0.8)
    rep = lindblad_consistency(effective_model(p), 300, 3.0, seedbase=14)
    assert rep["max_deviation"] < 5.0 / np.sqrt(300)
    rho = rep["rho_direct"]
    assert abs(np.trace(rho).real - 1.0) < 1e-8
    assert np.max(np.abs(rho - rho.conj().T)) < 1e-10


def _liouvillian(model):
    """The Lindblad generator acting on row-major vec(rho), in kron form:
    vec(A rho B) = kron(A, B.T) vec(rho)."""
    G, eye = model.generator, np.eye(model.dim)
    return (np.kron(G, eye) + np.kron(eye, G.conj())
            + sum(np.kron(L, L.conj()) for L in model.jump_ops))


@pytest.mark.parametrize("name", ["atom", "cavity", "defective"])
def test_lindblad_reference_matches_expm(name):
    model, t = {**MODELS, "defective": (_defective_model(), 3.0)}[name]
    rho = lindblad_consistency(model, 20, t, seedbase=14)["rho_direct"]
    psi0 = model.initial_state / np.linalg.norm(model.initial_state)
    want = expm(_liouvillian(model) * t) @ np.outer(psi0, psi0.conj()).ravel()
    assert np.max(np.abs(rho.ravel() - want)) < 1e-12


@pytest.mark.parametrize("ntraj, t", [(10, float("nan")), (10, float("inf")),
                                      (10, -1.0), (0, 3.0), (-5, 3.0)])
def test_lindblad_consistency_rejects_bad_input_promptly(ntraj, t):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        lindblad_consistency(MODELS["atom"][0], ntraj, t, seedbase=1)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("name", sorted(MODELS))
def test_engine_matches_sequential_reference(name):
    model, tmax = MODELS[name]
    ref, _ = _assert_engine_matches_reference(model, tmax, seedbase=14,
                                              ntraj=200)
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
    gaps, channels, _ = _unravel_per_trajectory(model, tmax,
                                                StreamDraws(3, np.arange(200)))
    assert np.array_equal(rec.gaps, gaps[7])
    assert np.array_equal(rec.channels, channels[7])
    # the gaps' running sums are the engine's clock, which adds gap by gap
    assert np.cumsum(rec.gaps).tolist() == list(itertools.accumulate(gaps[7]))


@pytest.mark.parametrize("name", ["atom", "cavity"])
def test_every_lone_trajectory_matches_its_batch_member(name):
    """Each of 200 lone runs has its batch member's channels exactly and its
    jump times to 1e-10.  The times are not compared bit for bit: the batch
    products round a column differently with the batch size, so bit-for-bit
    equality waits on batch invariance of the engine (ROADMAP item 3(d))."""
    model, tmax = MODELS[name]
    gaps, channels, _ = _unravel_per_trajectory(model, tmax,
                                                StreamDraws(3, np.arange(200)))
    for i in range(200):
        rec = run_trajectory(model, tmax, RngStream(3, i))
        assert rec.channels.tolist() == channels[i]
        assert np.max(np.abs(np.cumsum(rec.gaps) - np.cumsum(gaps[i])),
                      initial=0.0) < 1e-10


#: (model, tmax, ntraj) long enough that some stream refills its buffer of
#: counter draws at least twice
_LONG_RUNS = {"atom": (MODELS["atom"][0], 40.0, 40),
              "cavity": (MODELS["cavity"][0], 40.0, 40),
              "defective": (_defective_model(), 40.0, 8)}


@pytest.mark.parametrize("name", sorted(_LONG_RUNS))
def test_counter_streams_match_generator_streams(name):
    """The engine drawing by counter matches the sequential reference
    drawing from one numpy Generator per trajectory, member by member, over
    runs that refill some stream's buffer of counter draws twice."""
    model, tmax, ntraj = _LONG_RUNS[name]
    _, drawn = _assert_engine_matches_reference(model, tmax, 9, ntraj)
    assert drawn.max() > 2 * DRAW_BUFFER


@pytest.mark.parametrize("name", ["atom", "cavity"])
def test_caller_generator_ends_advanced_by_its_draws(name):
    """A trajectory takes one time draw per segment and one channel draw
    per click when there are several channels, and nothing else, from its
    stream; run_trajectory is that trajectory as a batch of one."""
    model, _ = MODELS[name]
    draws = StreamDraws(4, [2])
    gaps, channels, _ = _unravel_per_trajectory(model, 20.0, draws)
    njumps = len(gaps[0])
    assert njumps >= 2
    assert draws.drawn.tolist() == [
        njumps + 1 + njumps * (len(model.jump_ops) > 1)]
    rec = run_trajectory(model, 20.0, RngStream(4, 2))
    assert np.array_equal(rec.gaps, gaps[0])
    assert np.array_equal(rec.channels, channels[0])


def test_telegraph_gaps_are_consecutive_batches_of_one_generator():
    """telegraph_run draws its gap batches in turn from one generator of its
    stream."""
    model = _pilot_model()
    rec = telegraph_run(model, 3e4, RngStream(2, 0))
    batches = -(-rec.njumps // _TELEGRAPH_BATCH)
    assert batches >= 2
    flow = NullFlow(model.generator, model.reset_state)
    gen = RngStream(2, 0).generator()
    gaps = np.concatenate([sample_gaps(flow.survival, _TELEGRAPH_BATCH, gen,
                                       900.0 / model.beta_fast)
                           for _ in range(batches)])
    assert np.array_equal(rec.gaps, gaps[:rec.njumps])


def test_telegraph_run_stops_at_the_first_of_time_and_count():
    """With ngaps the gaps are one sample_gaps call on the stream, bit for
    bit, and the record stops after ngaps gaps or at the gap that crosses
    total_time, whichever comes first."""
    model = _pilot_model()
    flow = NullFlow(model.generator, model.reset_state)
    t_hi = 900.0 / model.beta_fast
    first = telegraph_run(model, math.inf, RngStream(2, 0), ngaps=10)
    assert np.array_equal(first.gaps, sample_gaps(flow.survival, 10,
                                                  RngStream(2, 0), t_hi))
    by_time = telegraph_run(model, 500.0, RngStream(2, 0))
    assert 10 < by_time.njumps < _TELEGRAPH_BATCH
    # one batch's worth of gaps is the time rule's first batch
    rec = telegraph_run(model, 500.0, RngStream(2, 0), ngaps=_TELEGRAPH_BATCH)
    assert np.array_equal(rec.gaps, by_time.gaps)
    assert np.array_equal(rec.channels, by_time.channels)
    rec = telegraph_run(model, 500.0, RngStream(2, 0), ngaps=10)
    assert np.array_equal(rec.gaps, first.gaps)


def test_engine_streams_build_no_generator(monkeypatch):
    """lindblad_consistency and run_trajectory on an RngStream draw by
    counter: with every way to build a Generator refused, they still run."""
    model, tmax = MODELS["cavity"]
    want = lindblad_consistency(model, 200, tmax, seedbase=3)
    lone = run_trajectory(model, tmax, RngStream(3, 7))

    def refuse(*args, **kwargs):
        raise AssertionError("a numpy Generator was built")

    monkeypatch.setattr(RngStream, "generator", refuse)
    monkeypatch.setattr(np.random, "Generator", refuse)
    monkeypatch.setattr(numerics, "Generator", refuse)
    monkeypatch.setattr(numerics, "Philox", refuse)
    rep = lindblad_consistency(model, 200, tmax, seedbase=3)
    assert rep["rho_ensemble"].tobytes() == want["rho_ensemble"].tobytes()
    rec = run_trajectory(model, tmax, RngStream(3, 7))
    assert np.array_equal(rec.gaps, lone.gaps)
    assert np.array_equal(rec.channels, lone.channels)


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
        psi = expm(M * rec.gaps[0]) @ model.initial_state
        u = float(RngStream(seed, 0).generator().random())
        assert abs(np.vdot(psi, psi).real - u) < 1e-9
    _assert_engine_matches_reference(model, 3.0, seedbase=2, ntraj=40)
    rep = lindblad_consistency(model, 4000, 3.0, seedbase=5)
    assert rep["max_deviation"] < 5.0 / np.sqrt(4000)
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
    # the expansion itself fails and the flow takes the exp-action
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
