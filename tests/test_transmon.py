import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.linalg import block_diag, expm

from nextjump import transmon
from nextjump.numerics import RegimeWarning
from nextjump.trajectories import NullFlow
from nextjump.transmon import (TransmonParams, beta_B, bright_population_gauss,
                               dark_eigenvalues, dark_norm_oracle,
                               multiscale_volterra, norm_evolution_multiscale,
                               slow_rate, two_level_fock, unshifted_rate,
                               validity_ratio)

P100 = TransmonParams(kappa=1.0, chi=20.0, nbar=100.0, omega_b=0.1)


def reduced_two_level(p: TransmonParams, state0, t):
    """Three-amplitude closure of the driven two-level slow sector.

    Tracks (bright 0-photon, ground 0-photon, ground 1-photon); the bright
    photon ladder is eliminated by the stationary-profile relation
    C_{B,1} = sqrt(2/pi) C_{B,0}, which turns the bright column into a
    plain width beta_B/2 = sqrt(2/pi) Gamma.  Needs Gamma^2/chi^2 << 1 so
    the two-photon ground amplitude stays negligible.
    """
    if p.chi != 0 and (p.gamma_drive / p.chi) ** 2 > 0.1:
        warnings.warn("closure needs gamma_drive^2/chi^2 << 1",
                      RegimeWarning, stacklevel=2)
    om = p.omega_b
    g = p.gamma_drive
    m = np.array([
        [-math.sqrt(2.0 / math.pi) * g, 1j * om, 0.0],
        [1j * np.conj(om), 0.0, -g],
        [0.0, g, -(0.5 * p.kappa - 1j * p.chi)],
    ], dtype=complex)
    out = NullFlow(m, state0).state(t)
    if np.ndim(t) == 0:
        return tuple(complex(c) for c in out)
    return tuple(out)


def test_params_validation():
    with pytest.raises(ValueError):
        TransmonParams(kappa=0.0, chi=1.0, nbar=1.0)
    with pytest.raises(ValueError):
        TransmonParams(kappa=1.0, chi=1.0, nbar=-1.0)
    assert P100.gamma_drive == 5.0
    gl = P100.gamma_L()
    assert abs(abs(gl) - 10.0 / math.sqrt(1601.0)) < 1e-15


@pytest.mark.parametrize("field", ["kappa", "chi", "nbar", "omega_b",
                                   "omega_d"])
@pytest.mark.parametrize("value", [math.nan, -math.inf, complex(math.inf, 0.0)])
def test_params_reject_non_finite(field, value):
    good = dict(kappa=1.0, chi=20.0, nbar=100.0, omega_b=0.1, omega_d=0.0)
    if isinstance(value, complex) and field not in ("omega_b", "omega_d"):
        value = value.real       # the rates and the photon number are real
    with pytest.raises(ValueError):
        TransmonParams(**dict(good, **{field: value}))


def test_beta_B_three_methods():
    assert abs(beta_B(P100, "closed_form") - 7.978845608028654) < 1e-14
    assert abs(beta_B(P100, "closed_form")
               - 2.0 * math.sqrt(2.0 / math.pi) * 5.0) < 1e-14
    want_quad = {5.0: 7.726049, 10.0: 7.755696, 20.0: 7.763159,
                 50.0: 7.765253}
    for chi, bq in want_quad.items():
        p = dataclasses.replace(P100, chi=chi)
        assert abs(beta_B(p, "quadrature") - bq) < 1e-5
    assert abs(beta_B(P100, "steepest_descent") - 7.976353) < 1e-5
    # all three agree to a few percent in the dispersive regime
    vals = [beta_B(P100, m) for m in ("quadrature", "steepest_descent",
                                      "closed_form")]
    assert (max(vals) - min(vals)) / min(vals) < 0.05
    with pytest.raises(ValueError):
        beta_B(P100, "guesswork")
    with pytest.raises(ValueError):
        beta_B(TransmonParams(kappa=1.0, chi=20.0, nbar=0.0), "closed_form")


def _beta_B_quad(p):
    """2 over scipy's quad of the collapsing-overlap kernel on [0, inf),
    and quad's error estimate relative to the integral."""
    d2 = abs(p.gamma_L() - math.sqrt(p.nbar)) ** 2

    def kernel(t):
        return math.exp(-(p.kappa / 2.0) * d2
                        * (t + (2.0 / p.kappa) * math.expm1(-p.kappa * t / 2.0)))

    val, err = quad(kernel, 0.0, math.inf, limit=400, epsabs=0.0,
                    epsrel=1e-12)
    return 2.0 / val, err / val


@pytest.mark.parametrize("nbar, chi, kappa", [
    (0.1, 0.2, 1.0), (0.1, 0.5, 1.0), (1.0, 1.0, 1.0), (2.5, 0.5, 1.0),
    (4.0, 0.3, 2.0), (100.0, 5.0, 1.0), (100.0, 50.0, 1.0),
    (1e4, 20.0, 1.0)])
def test_beta_B_quadrature_covers_the_tail(nbar, chi, kappa):
    """The kernel's exponential tail e^{-kappa d^2 t/2} outlasts its
    Gaussian core (width about 2/(kappa d)) for small d; the quadrature
    route must hold it all, as quad to infinity does (nbar 0.1, chi 0.2 is
    5.6% off with the tail cut at 50/(kappa d))."""
    p = TransmonParams(kappa=kappa, chi=chi, nbar=nbar)
    want, rel_err = _beta_B_quad(p)
    assert rel_err < 1e-10
    assert abs(beta_B(p, "quadrature") - want) <= 1e-8 * want


def test_beta_B_vanishes_without_pull():
    """At chi = 0 the kernel never decays (d = 0), so both integral routes
    return their chi -> 0 limit 0."""
    p = TransmonParams(kappa=1.0, chi=0.0, nbar=4.0)
    assert beta_B(p, "quadrature") == 0.0
    assert beta_B(p, "steepest_descent") == 0.0
    small = beta_B(dataclasses.replace(p, chi=1e-6), "quadrature")
    assert 0.0 < small < 1e-10


def test_slow_rate_and_validity():
    assert abs(slow_rate(P100) - 2.506628274631e-3) < 1e-14
    assert abs(slow_rate(P100)
               - 2.0 * 0.01 / beta_B(P100, "closed_form")) < 1e-16
    assert abs(validity_ratio(P100) - 0.01 / 7.978845608028654) < 1e-16


def test_dark_spectrum_pins():
    bb = beta_B(P100, "closed_form")
    p = dataclasses.replace(P100, omega_b=0.1 * bb, omega_d=0.001 * bb)
    spec = dark_eigenvalues(p)
    assert abs(spec.epsilon - 0.1) < 1e-14
    assert abs(spec.eta - 0.01) < 1e-14
    assert abs(spec.i_e_plus - 0.15917696750630494) < 1e-12
    assert abs(spec.i_e_minus - 3.999446542681251e-4) < 1e-15
    assert abs(spec.i_e_plus_asymptotic - 0.1595769121605731) < 1e-12
    assert abs(spec.i_e_minus_asymptotic - 3.98942280401e-4) < 1e-12
    assert spec.hierarchy_ok
    # exact roots drift from the asymptotic forms by O(eps^2)
    assert abs(spec.i_e_plus / spec.i_e_plus_asymptotic - 1.0) < 0.01
    assert abs(spec.i_e_minus / spec.i_e_minus_asymptotic - 1.0) < 0.01


def test_dark_spectrum_regime_warning():
    bb = beta_B(P100, "closed_form")
    with pytest.warns(RegimeWarning):
        dark_eigenvalues(dataclasses.replace(P100, omega_b=0.1 * bb,
                                             omega_d=0.1 * bb))
    with pytest.warns(RegimeWarning):
        dark_eigenvalues(dataclasses.replace(P100, omega_b=2.0 * bb,
                                             omega_d=0.001 * bb))


def test_dark_norm_slow_decay():
    bb = beta_B(P100, "closed_form")
    p = dataclasses.replace(P100, omega_b=0.1 * bb, omega_d=0.001 * bb)
    spec = dark_eigenvalues(p)
    lo = 5.0 / spec.i_e_plus_asymptotic
    hi = 2.0 / spec.i_e_minus_asymptotic
    ts = np.geomspace(lo, hi, 60)
    norms = dark_norm_oracle(p, ts, nmax=200)
    assert norms.shape == ts.shape
    assert np.all(np.diff(norms) < 0)
    A = np.stack([ts, np.ones_like(ts)], axis=1)
    slope = np.linalg.lstsq(A, np.log(norms), rcond=None)[0][0]
    assert abs(-slope - 7.780263e-4) < 1e-9
    want = 2.0 * spec.i_e_minus
    assert abs(-slope - want) / want < 0.10
    assert isinstance(dark_norm_oracle(p, 1.0, nmax=40), float)


def test_volterra_slow_decay_fit():
    ts, c = multiscale_volterra(P100, 6.0, 0.002)
    assert c[0] == 1.0
    mask = ts >= 2.0
    A = np.stack([ts[mask], np.ones(int(mask.sum()))], axis=1)
    slope = np.linalg.lstsq(A, np.log(c[mask]), rcond=None)[0][0]
    assert abs(-slope - 2.576543e-3) < 1e-8
    gam = slow_rate(P100)
    assert abs((-slope - gam) / gam - 0.0279) < 1e-3


def _volterra_by_index_arrays(p, tmax, dt):
    """Reference for multiscale_volterra, which must match it bit for bit:
    the same step with fresh index and weight arrays for both memory sums,
    and the predictor appended by concatenation.  Also returns the memory
    cut in steps."""
    nst = int(round(tmax / dt))
    ts = np.arange(nst + 1) * dt
    kern = np.exp(transmon.bright_kernel_log(p, ts))
    mcut = int(np.searchsorted(-kern, -1e-18))
    c = np.zeros(nst + 1)
    c[0] = 1.0
    oo = abs(p.omega_b) ** 2
    for k in range(nst):
        lo = max(0, k - mcut)
        idx = np.arange(lo, k + 1)
        wts = np.ones(k + 1 - lo)
        wts[0] = 0.5
        wts[-1] = 0.5
        i_k = np.dot(wts * kern[k - idx], c[idx]) * dt
        cp = c[k] - dt * oo * i_k
        lo2 = max(0, k + 1 - mcut)
        idx2 = np.arange(lo2, k + 2)
        wts2 = np.ones(k + 2 - lo2)
        wts2[0] = 0.5
        wts2[-1] = 0.5
        cv = np.concatenate([c[lo2:k + 1], [cp]])
        i_k1 = np.dot(wts2 * kern[k + 1 - idx2], cv) * dt
        c[k + 1] = c[k] - 0.5 * dt * oo * (i_k + i_k1)
    return ts, c, mcut


@pytest.mark.parametrize("tmax, cut_reached", [(6.0, True), (0.5, False)])
def test_volterra_matches_index_array_step_bit_for_bit(tmax, cut_reached):
    """Criterion 8's grid, whose 1e-18 memory cut falls inside the run, and
    a run too short to reach it."""
    ts_want, c_want, mcut = _volterra_by_index_arrays(P100, tmax, 0.002)
    assert (mcut < ts_want.size - 1) == cut_reached
    ts, c = multiscale_volterra(P100, tmax, 0.002)
    assert np.array_equal(ts, ts_want)
    assert np.array_equal(c, c_want)


def test_volterra_step_control():
    with pytest.raises(ValueError):
        multiscale_volterra(P100, 1.0, 0.004)   # limit is 0.02/(kappa sqrt(nbar))
    _, ca = multiscale_volterra(P100, 1.5, 0.002)
    _, cb = multiscale_volterra(P100, 1.5, 0.001)
    assert abs(ca[-1] - cb[-1]) < 1e-8


def test_two_level_fock_frames():
    ts, c = multiscale_volterra(P100, 6.0, 0.002)
    tg = np.linspace(0.0, 6.0, 61)
    ci = np.interp(tg, ts, c)
    shifted = two_level_fock(P100, tg, nmax=160, frame="shifted")
    assert np.max(np.abs(shifted - ci) / ci) < 1e-6
    unshifted = two_level_fock(P100, tg, nmax=160, frame="unshifted")
    # the unshifted frame carries its own dispersive drift
    assert np.max(np.abs(unshifted - ci) / ci) > 0.1
    with pytest.raises(ValueError):
        two_level_fock(P100, 1.0, frame="rotating")


def test_unshifted_rate_pin():
    r = unshifted_rate(P100)
    assert abs(r - (-0.03373710922403762 - 1.2492192379762648j)) < 1e-15
    # the drive-dependent part of the rate is exactly -slow_rate
    r0 = unshifted_rate(dataclasses.replace(P100, omega_b=0.0))
    assert abs((r - r0) - (-slow_rate(P100))) < 1e-17


def test_unshifted_long_fit():
    gam = slow_rate(P100)
    tg = np.linspace(0.0, 3.0 / gam, 40)
    amps = two_level_fock(P100, tg, nmax=160, frame="unshifted")
    A = np.stack([tg[5:], np.ones(35)], axis=1)
    slope = np.linalg.lstsq(A, np.log(amps[5:]), rcond=None)[0][0]
    want = -unshifted_rate(P100).real
    assert abs(-slope - want) / want < 1e-3


def test_reduced_two_level():
    # no qubit drive: the bright amplitude is a bare exponential
    p0 = TransmonParams(kappa=1.0, chi=200.0, nbar=100.0, omega_b=0.0)
    tb = np.linspace(0.0, 1.0, 11)
    cb = reduced_two_level(p0, (1.0, 0.0, 0.0), tb)[0]
    bb = beta_B(p0, "closed_form")
    assert np.max(np.abs(cb - np.exp(-0.5 * bb * tb))) < 1e-12
    # driven ground decay tracks 2*gamma once chi dominates the closure
    p = TransmonParams(kappa=1.0, chi=200.0, nbar=100.0, omega_b=0.4)
    ts = np.linspace(20.0, 80.0, 200)
    cg = reduced_two_level(p, (0.0, 1.0, 0.0), ts)[1]
    A = np.stack([ts, np.ones_like(ts)], axis=1)
    slope = np.linalg.lstsq(A, np.log(np.abs(cg) ** 2), rcond=None)[0][0]
    assert abs(-slope - 8.153081e-2) < 1e-6
    g2 = 2.0 * slow_rate(p)
    assert abs((-slope - g2) / g2 - 0.0164) < 1e-3
    # scalar time returns a 3-tuple of complex
    out = reduced_two_level(p, (0.0, 1.0, 0.0), 1.0)
    assert isinstance(out, tuple) and len(out) == 3
    with pytest.warns(RegimeWarning):
        reduced_two_level(TransmonParams(kappa=1.0, chi=10.0, nbar=100.0,
                                         omega_b=0.1), (1.0, 0.0, 0.0), 1.0)


def test_norm_evolution_multiscale():
    n0, d0 = norm_evolution_multiscale(P100, 0.0)
    assert n0 == 1.0 and d0 == 0.0
    ts = np.linspace(0.05, 1.0, 20)
    for nbar, om in ((4.0, 0.05), (100.0, 0.1), (100.0, 0.05)):
        p = TransmonParams(kappa=1.0, chi=20.0, nbar=nbar, omega_b=om)
        n, d = norm_evolution_multiscale(p, ts)
        assert np.all(n <= 1.0) and np.all(n > 0.0)
        assert np.all(d < 0.0)   # monitoring only removes norm
        one = norm_evolution_multiscale(p, float(ts[7]))
        assert isinstance(one[0], float) and one == (n[7], d[7])


def test_bright_population_gauss_matches_quad():
    """The vectorized Gauss-Legendre form against scipy's quad, one time at
    a time; a 2-D t keeps its shape.  t = 50 and 200 run far past the
    cubic law's cutoff, toward the slow lull's scale 1/(2 gamma)."""
    ts = np.array([[0.0, 0.05, 0.3, 0.7], [1.0, 2.0, 50.0, 200.0]])
    for nbar, om in ((4.0, 0.05), (100.0, 0.1), (1e4, 1e-4)):
        p = TransmonParams(kappa=1.0, chi=20.0, nbar=nbar, omega_b=om)
        gam = slow_rate(p)
        cube = p.kappa ** 3 * p.nbar / 12.0
        got = bright_population_gauss(p, ts)
        assert got.shape == ts.shape and got[0, 0] == 0.0
        for t, g in zip(ts.ravel(), got.ravel()):
            val = quad(lambda x: math.exp(2.0 * gam * x - cube * x ** 3),
                       0.0, t, epsabs=0.0, epsrel=1e-12)[0]
            want = (math.exp(-2.0 * gam * t) * om ** 2 * 2.0
                    * math.sqrt(2.0 * math.pi / nbar) * val)
            assert abs(g - want) <= 1e-12 * want
        assert bright_population_gauss(p, 0.3) == got[0, 2]


def _bright_population_exact(p, t):
    """Bright-excursion population by direct 2-D quadrature of the memory
    double integral: the oracle for the Gaussian-kernel form inside
    norm_evolution_multiscale.  Slow for large t."""
    gam = slow_rate(p)
    kappa, nbar = p.kappa, p.nbar

    def beta_f(w):
        return -(kappa / 2.0) * nbar * (w + (2.0 / kappa)
                                        * (math.exp(-kappa * w / 2.0) - 1.0))

    def alpha_f(w):
        return math.sqrt(nbar) * (1.0 - math.exp(-kappa * w / 2.0))

    def f(wp, w):
        return math.exp(gam * (w + wp) + beta_f(wp) + beta_f(w)
                        + alpha_f(w) * alpha_f(wp))

    val, _ = dblquad(f, 0.0, t, 0.0, t, epsabs=1e-14, epsrel=1e-11)
    return math.exp(-2.0 * gam * t) * abs(p.omega_b) ** 2 * val


def test_bright_population_gauss_vs_exact():
    # Gaussian kernel overestimates the short-time excursion and converges
    # toward the exact double integral as nbar grows
    want = {1e2: 2.5219, 1e4: 1.5062}
    ratios = []
    for nbar, r_want in want.items():
        p = TransmonParams(kappa=1.0, chi=20.0, nbar=nbar, omega_b=1e-4)
        t = nbar ** (-1.0 / 3.0)
        r = bright_population_gauss(p, t) / _bright_population_exact(p, t)
        ratios.append(r)
        assert abs(r - r_want) < 1e-3
    assert ratios[0] > ratios[1] > 1.0


# ---------------------------------------------------------------------------
# The Fock-block oracles against scipy.linalg.expm on independently assembled
# matrices (explicit level-by-level layout, no shared helpers), at nmax = 40.

def _ladder(nmax):
    n = np.arange(nmax + 1)
    a = np.diag(np.sqrt(n[1:]), +1)
    return a, a.T, np.diag(n.astype(complex)), np.eye(nmax + 1)


def _dark_h(p, nmax):
    a, adag, nmat, eye = _ladder(nmax)
    gl, root, dim = p.gamma_L(), math.sqrt(p.nbar), nmax + 1
    h = np.zeros((3 * dim, 3 * dim), dtype=complex)
    h[:dim, :dim] = (-0.5j * p.kappa * nmat + 0.5j * p.kappa
                     * ((np.conj(gl) - root) * a - (gl - root) * adag))
    h[dim:2 * dim, dim:2 * dim] = (-0.5j * p.kappa - p.chi) * nmat
    h[2 * dim:, 2 * dim:] = (-0.5j * p.kappa - p.chi) * nmat
    h[:dim, dim:2 * dim] = -p.omega_b * eye
    h[dim:2 * dim, :dim] = -np.conj(p.omega_b) * eye
    h[dim:2 * dim, 2 * dim:] = -p.omega_d * eye
    h[2 * dim:, dim:2 * dim] = -np.conj(p.omega_d) * eye
    return h


def _two_level_h(p, nmax, frame):
    a, adag, nmat, eye = _ladder(nmax)
    dim = nmax + 1
    h = np.zeros((2 * dim, 2 * dim), dtype=complex)
    if frame == "unshifted":
        drive = -1j * p.gamma_drive * (a - adag)
        h[:dim, :dim] = -0.5j * p.kappa * nmat + drive
        h[dim:, dim:] = (-p.chi - 0.5j * p.kappa) * nmat + drive
    else:
        h[:dim, :dim] = (-0.5j * p.kappa * nmat - 0.5j * p.kappa
                         * math.sqrt(p.nbar) * (a - adag))
        h[dim:, dim:] = (-p.chi - 0.5j * p.kappa) * nmat
    h[:dim, dim:] = -p.omega_b * eye
    h[dim:, :dim] = -np.conj(p.omega_b) * eye
    return h


def _expm_states(m, psi0, ts):
    return np.stack([expm(m * t) @ psi0 for t in ts], axis=1)


def test_dark_norm_oracle_matches_expm():
    """At the transmon-dark CLI defaults (epsilon 0.1, eta 0.01) with the
    Fock cutoff lowered.  At nmax 60 the CLI's fit window ends at
    2/iE_minus = 5013.  There expm and the eig differ by 1.2e-9 on one BLAS
    thread.  Against an 80-bit Taylor exponential, expm is off by 2.6e-10
    and the eig by 9.7e-10, both at the rounding floor t u ||M|| of this
    matrix, so the 1e-9 bound is held to t = 3000."""
    bb = beta_B(P100, "closed_form")
    p = dataclasses.replace(P100, omega_b=0.1 * bb, omega_d=0.001 * bb)
    for nmax, ts in ((40, [1.0, 60.0, 2000.0]),
                     (60, [1.0, 60.0, 2000.0, 3000.0])):
        ts = np.array(ts)
        dim = nmax + 1
        psi0 = np.zeros(3 * dim, dtype=complex)
        psi0[[dim, 2 * dim]] = 1.0 / np.sqrt(2.0)
        want = np.sum(np.abs(_expm_states(-1j * _dark_h(p, nmax), psi0,
                                          ts)) ** 2, axis=0)
        got = dark_norm_oracle(p, ts, nmax=nmax)
        assert np.max(np.abs(got - want) / want) < 1e-9, nmax


@pytest.mark.parametrize("frame", ["shifted", "unshifted"])
def test_two_level_fock_matches_expm(frame):
    ts = np.array([0.5, 6.0, 400.0])
    psi0 = np.zeros(82, dtype=complex)
    psi0[41] = 1.0
    want = np.abs(_expm_states(-1j * _two_level_h(P100, 40, frame), psi0,
                               ts)[41])
    got = two_level_fock(P100, ts, nmax=40, frame=frame)
    assert np.max(np.abs(got - want) / want) < 1e-9


@pytest.mark.parametrize("omega_b, state0", [(0.0, (1.0, 0.0, 0.0)),
                                             (0.4, (0.0, 1.0, 0.0)),
                                             (0.4, (0.3, 0.5j, -0.2))])
def test_reduced_two_level_matches_expm(omega_b, state0):
    p = TransmonParams(kappa=1.0, chi=200.0, nbar=100.0, omega_b=omega_b)
    g, om = p.gamma_drive, p.omega_b
    m = np.array([[-math.sqrt(2.0 / math.pi) * g, 1j * om, 0.0],
                  [1j * np.conj(om), 0.0, -g],
                  [0.0, g, -(0.5 * p.kappa - 1j * p.chi)]], dtype=complex)
    ts = np.array([1.0, 20.0, 80.0])
    want = _expm_states(m, np.asarray(state0, dtype=complex), ts)
    got = np.array(reduced_two_level(p, state0, ts))
    rel = np.linalg.norm(got - want, axis=0) / np.linalg.norm(want, axis=0)
    assert np.max(rel) < 1e-9


def test_level_blocks_match_scipy_block_diag(monkeypatch):
    """The numpy assembly equals scipy's block_diag plus the kron term bit
    for bit (signed zeros included) on every matrix the oracles build."""
    calls = []
    real = transmon._level_blocks

    def record(blocks, couplings):
        out = real(blocks, couplings)
        calls.append((blocks, couplings, out))
        return out

    monkeypatch.setattr(transmon, "_level_blocks", record)
    bb = beta_B(P100, "closed_form")
    p = dataclasses.replace(P100, omega_b=0.1 * bb, omega_d=-0.001j * bb)
    dark_norm_oracle(p, 1.0, nmax=40)
    two_level_fock(P100, 1.0, nmax=40, frame="shifted")
    two_level_fock(P100, 1.0, nmax=40, frame="unshifted")
    assert len(calls) == 3
    for blocks, couplings, got in calls:
        want = block_diag(*blocks)
        want += np.kron(couplings, np.eye(blocks[0].shape[0]))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
