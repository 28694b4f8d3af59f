import math

import numpy as np
from numpy.random import Generator, Philox

from nextjump.numerics import (TAIL_TOL, FockVector, IntegrationError,
                               RngStream, TruncationError, default_nmax,
                               fock_ops, integrate_ode)


def test_default_nmax_margin():
    assert default_nmax(0.0) == 20
    assert default_nmax(4.0) == 44
    # cutoff grows with nbar and always clears the mean comfortably
    for nbar in (1.0, 25.0, 100.0, 1e4):
        assert default_nmax(nbar) > nbar + 5 * math.sqrt(nbar)


def test_vacuum_and_promotion():
    v = FockVector.vacuum(10)
    assert v.levels == 1
    assert v.nmax == 10
    assert v.norm_sq() == 1.0
    flat = FockVector(np.array([1.0, 0.0, 0.0], dtype=complex))
    assert flat.amps.shape == (1, 3)       # 1-D input promoted to one level
    v3 = FockVector.vacuum(4, levels=3, level=2)
    assert v3.amps[2, 0] == 1.0
    assert v3.amps[0, 0] == 0.0


def test_coherent_state_moments():
    alpha = 1.3 - 0.4j
    st = FockVector.coherent(alpha, default_nmax(abs(alpha) ** 2))
    assert abs(st.norm_sq() - 1.0) < 1e-12
    assert st.tail_mass() < TAIL_TOL
    # annihilation eigenstate: a |alpha> = alpha |alpha>
    a, n = fock_ops(st.nmax)
    dev = np.max(np.abs(a @ st.amps[0] - alpha * st.amps[0]))
    assert dev < 1e-10
    # mean photon number from the number operator
    nbar = float(np.real(np.vdot(st.amps[0], n @ st.amps[0])))
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
    sa = FockVector.coherent(a, 60)
    sb = FockVector.coherent(b, 60)
    got = abs(sa.inner(sb)) ** 2
    assert abs(got - math.exp(-abs(a - b) ** 2)) < 1e-12


def test_normalized_and_copy():
    st = FockVector(np.array([3.0, 4.0], dtype=complex))
    nrm = st.normalized()
    assert abs(nrm.norm_sq() - 1.0) < 1e-15
    cp = st.copy()
    cp.amps[0, 0] = 0.0
    assert st.amps[0, 0] == 3.0


def test_integrate_ode_exponential():
    y = integrate_ode(lambda t, y: -y, np.array([1.0 + 0j]), 0.0, 2.0)
    assert abs(y[0] - math.exp(-2.0)) < 1e-9


def test_integrate_ode_dense_grid():
    yf, interp = integrate_ode(lambda t, y: 1j * y, np.array([1.0 + 0j]),
                               0.0, 3.0, dense=True)
    assert abs(yf[0] - np.exp(3j)) < 1e-8
    ts = np.linspace(0.0, 3.0, 7)
    vals = interp(ts)
    assert np.max(np.abs(vals[0] - np.exp(1j * ts))) < 1e-8


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


def test_error_types_exist():
    assert issubclass(TruncationError, RuntimeError)
    assert issubclass(IntegrationError, RuntimeError)
