import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy import special
from scipy.integrate import quad

from nextjump.numerics import (DRAW_BUFFER, TAIL_TOL, FockVector,
                               IntegrationError, RngStream, StreamDraws,
                               TruncationError, coherent_amplitudes,
                               default_nmax, expm_action, fock_ops,
                               gauss_legendre)


def _coherent(alpha, nmax):
    """Normalized coherent state |alpha> on Fock states 0..nmax."""
    return FockVector(coherent_amplitudes(alpha, -0.5 * abs(alpha) ** 2, nmax))


def test_default_nmax_margin():
    assert default_nmax(0.0) == 20
    assert default_nmax(4.0) == 44
    # cutoff grows with nbar and always clears the mean comfortably
    for nbar in (1.0, 25.0, 100.0, 1e4):
        assert default_nmax(nbar) > nbar + 5 * math.sqrt(nbar)


def test_vacuum_and_promotion():
    v = FockVector.vacuum(10)
    assert v.nmax == 10
    assert v.norm_sq() == 1.0
    flat = FockVector([1.0, 0.0, 0.0])
    assert flat.amps.shape == (3,)
    assert flat.amps.dtype == complex      # real input promoted to complex
    with pytest.raises(ValueError):        # one ladder only
        FockVector(np.zeros((3, 5), dtype=complex))


def test_coherent_state_moments():
    alpha = 1.3 - 0.4j
    st = _coherent(alpha, default_nmax(abs(alpha) ** 2))
    assert abs(st.norm_sq() - 1.0) < 1e-12
    assert st.tail_mass() < TAIL_TOL
    # annihilation eigenstate: a |alpha> = alpha |alpha>
    a, n = fock_ops(st.nmax)
    dev = np.max(np.abs(a @ st.amps - alpha * st.amps))
    assert dev < 1e-10
    # mean photon number from the number operator
    nbar = float(np.real(np.vdot(st.amps, n @ st.amps)))
    assert abs(nbar - abs(alpha) ** 2) < 1e-10


def test_fock_ops_ladder():
    a, n = fock_ops(5)
    assert a.shape == n.shape == (6, 6)
    assert np.array_equal(np.diag(n), np.arange(6.0))
    assert np.max(np.abs(a.T @ a - n)) < 1e-14
    # [a, a^dag] = 1 below the cutoff; the top bin carries the truncation
    comm = a @ a.T - a.T @ a
    assert np.max(np.abs(comm[:5, :5] - np.eye(5))) < 1e-14
    assert abs(comm[5, 5] + 5.0) < 1e-14


def test_coherent_overlap_formula():
    a, b = 0.7 + 0.2j, -0.3 + 1.1j
    sa = _coherent(a, 60)
    sb = _coherent(b, 60)
    got = abs(np.vdot(sa.amps, sb.amps)) ** 2
    assert abs(got - math.exp(-abs(a - b) ** 2)) < 1e-12


def test_expm_action_exponential_decay():
    y = expm_action(lambda y: -y, 1.0, np.array([1.0 + 0j]), 2.0)
    assert abs(y[0] - math.exp(-2.0)) < 1e-15
    # deep decay keeps its relative accuracy: the stopping test follows y
    y = expm_action(lambda y: -y, 1.0, np.array([1.0 + 0j]), 60.0)
    assert abs(y[0] / math.exp(-60.0) - 1.0) < 1e-12


def test_expm_action_per_column_times_match_expm():
    from scipy.linalg import expm
    rng = np.random.default_rng(17)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    y = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    t = np.array([0.0, 0.3, 2.5, 1.0])
    got = expm_action(lambda c: A @ c, np.linalg.norm(A, 1), y, t)
    assert np.array_equal(got[:, 0], y[:, 0])      # t = 0 leaves y as it is
    for j, tj in enumerate(t):
        want = expm(A * tj) @ y[:, j]
        assert np.linalg.norm(got[:, j] - want) < 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("t0, t1", [(0.0, float("nan")), (0.0, float("inf")),
                                    (float("nan"), 1.0), (-float("inf"), 1.0)])
def test_integrate_ode_rejects_non_finite_limits_promptly(t0, t1):
    # expm_action replaced integrate_ode; the span t1 - t0 of non-finite
    # limits is itself non-finite and must raise before any substep runs
    start = time.perf_counter()
    with pytest.raises(ValueError):
        expm_action(lambda y: -y, 1.0, np.array([1.0 + 0j]), t1 - t0)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("t", [-1.0, np.array([0.5, -1e-3])],
                         ids=["negative", "negative_column"])
def test_expm_action_rejects_bad_times_promptly(t):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        expm_action(lambda y: -y, 1.0, np.ones((1, np.size(t)), dtype=complex),
                    t)
    assert time.perf_counter() - start < 1.0


def test_rng_stream_is_philox_keyed():
    got = RngStream(5, 3).generator().random(4)
    want = Generator(Philox(key=[5, 3])).random(4)
    assert np.array_equal(got, want)


def test_rng_stream_reproducible_and_independent():
    a1 = RngStream(9, 0).generator().random(8)
    a2 = RngStream(9, 0).generator().random(8)
    b = RngStream(9, 1).generator().random(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


#: draw positions 0 .. 40: ten blocks, and the second buffer refill
_NPOS = 2 * DRAW_BUFFER + 9


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.integers(min_value=-2**65, max_value=2**65),
                      st.sampled_from([0, 14, 2**63 + 5, 2**64 - 1, 2**64])),
       indices=st.lists(st.one_of(st.integers(min_value=0, max_value=2**16),
                                  st.integers(min_value=2**64 - 2**16,
                                              max_value=2**64 + 2**16)),
                        min_size=1, max_size=5, unique=True),
       masks=st.lists(st.integers(min_value=0, max_value=31), max_size=40))
def test_stream_draws_match_philox_generator(seed, indices, masks):
    """Each round advances the streams a bit mask picks, as the jump engine
    advances its live trajectories; then every stream is drawn on to
    position _NPOS - 1.  Every double equals numpy's Philox bit for bit."""
    n = len(indices)
    draws = StreamDraws(seed, indices)
    got = [[] for _ in indices]
    rounds = [[j for j in range(n) if mask >> j & 1] for mask in masks]
    for rows in rounds:
        for j, x in zip(rows, draws.next(rows)):
            got[j].append(x)
    while min(map(len, got)) < _NPOS:
        rows = [j for j in range(n) if len(got[j]) < _NPOS]
        for j, x in zip(rows, draws.next(rows)):
            got[j].append(x)
    assert draws.drawn.tolist() == [_NPOS] * n
    for i, seq in zip(indices, got):
        key = np.array([seed % 2**64, i % 2**64], dtype=np.uint64)
        want = Generator(Philox(key=key)).random(_NPOS)
        assert np.array(seq).tobytes() == want.tobytes()


def test_stream_draws_accept_integer_arrays():
    """An int64 index array wraps mod 2^64 as RngStream does."""
    idx = np.array([-1, 0, 5, 2**62])
    a = StreamDraws(3, idx).next(np.arange(4))
    b = StreamDraws(3, [i % 2**64 for i in idx.tolist()]).next(np.arange(4))
    want = [RngStream(3, int(i)).generator().random() for i in idx]
    assert np.array_equal(a, want)
    assert np.array_equal(b, want)


def test_coherent_amplitudes_match_gammaln():
    """The log factorials come from math.lgamma; scipy's gammaln is the
    oracle."""
    n = np.arange(121)
    for alpha in (0.0, 1e-3, 2.5 - 1.0j, 9.0j):
        want = np.exp(n * np.log(abs(alpha) + 1e-300)
                      - 0.5 * special.gammaln(n + 1.0) - 0.3
                      + 1j * n * np.angle(alpha))
        got = coherent_amplitudes(alpha, -0.3, 120)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-290)


_SMOOTH = {
    "exp": (np.exp, math.exp, 1.0),
    "cubic-law": (lambda x: np.exp(0.06 * x - 8.3 * x ** 3),
                  lambda x: math.exp(0.06 * x - 8.3 * x ** 3), 1.0),
    "lorentzian": (lambda x: 1.0 / (1.0 + (x - 3.0) ** 2),
                   lambda x: 1.0 / (1.0 + (x - 3.0) ** 2), 8.0),
    "oscillating": (lambda x: np.cos(5.0 * x), lambda x: math.cos(5.0 * x),
                    2.0),
}


@pytest.mark.parametrize("name", sorted(_SMOOTH))
def test_gauss_legendre_matches_quad(name):
    f, f_scalar, b = _SMOOTH[name]
    want, err = quad(f_scalar, 0.0, b, epsabs=0.0, epsrel=1e-12)
    got = gauss_legendre(f, b)
    assert isinstance(got, float)
    assert abs(got - want) <= 1e-12 * abs(want) + err


def test_gauss_legendre_takes_an_array_of_ends():
    """One interval [0, b] per entry of b, each equal to its own scalar
    call; an empty interval integrates to 0."""
    b = np.array([[0.0, 0.5], [2.0, -1.0]])
    got = gauss_legendre(np.exp, b)
    assert got.shape == (2, 2)
    assert got[0, 0] == 0.0
    for i, j in np.ndindex(got.shape):
        want = quad(math.exp, 0.0, b[i, j], epsabs=0.0, epsrel=1e-13)[0]
        assert abs(got[i, j] - want) <= 1e-14 * max(abs(want), 1.0)
        assert got[i, j] == gauss_legendre(np.exp, b[i, j])


def test_gauss_legendre_refuses_an_unresolved_integrand():
    """1/(x + 1e-3) on [0, 1] has a pole 1e-3 from the interval: the two
    rules differ by 1.2e-2 relative, far beyond the 1e-8 they must meet."""
    def f(x):
        return 1.0 / (x + 1e-3)
    with pytest.raises(IntegrationError, match="rules differ"):
        gauss_legendre(f, 1.0)
    with pytest.raises(IntegrationError):
        gauss_legendre(f, np.array([1e-3, 1.0]))


def test_error_types_exist():
    assert issubclass(TruncationError, RuntimeError)
    assert issubclass(IntegrationError, RuntimeError)
