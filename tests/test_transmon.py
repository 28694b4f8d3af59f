import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from nextjump.numerics import RegimeWarning
from nextjump.transmon import (TransmonParams, beta_B, bright_population_exact,
                               bright_population_gauss, dark_eigenvalues,
                               dark_norm_oracle, diffusion_overlap,
                               multiscale_volterra, norm_evolution_multiscale,
                               reduced_two_level, slow_rate, two_level_fock,
                               unshifted_rate, validity_ratio)

P100 = TransmonParams(kappa=1.0, chi=20.0, nbar=100.0, omega_b=0.1)


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
    norms = dark_norm_oracle(p, ts, nmax=200, start="gd")
    assert norms.shape == ts.shape
    assert np.all(np.diff(norms) < 0)
    A = np.stack([ts, np.ones_like(ts)], axis=1)
    slope = np.linalg.lstsq(A, np.log(norms), rcond=None)[0][0]
    assert abs(-slope - 7.780263e-4) < 1e-9
    want = 2.0 * spec.i_e_minus
    assert abs(-slope - want) / want < 0.10
    with pytest.raises(ValueError):
        dark_norm_oracle(p, 1.0, nmax=20, start="sideways")
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


def test_bright_population_gauss_vs_exact():
    # Gaussian kernel overestimates the short-time excursion and converges
    # toward the exact double integral as nbar grows
    want = {1e2: 2.5219, 1e4: 1.5062}
    ratios = []
    for nbar, r_want in want.items():
        p = TransmonParams(kappa=1.0, chi=20.0, nbar=nbar, omega_b=1e-4)
        t = nbar ** (-1.0 / 3.0)
        r = bright_population_gauss(p, t) / bright_population_exact(p, t)
        ratios.append(r)
        assert abs(r - r_want) < 1e-3
    assert ratios[0] > ratios[1] > 1.0


def test_diffusion_overlap():
    assert diffusion_overlap(1.0, 2.0) == math.exp(-0.5)
    arr = diffusion_overlap(2.0, np.array([0.0, 1.0]))
    assert arr[0] == 1.0 and abs(arr[1] - math.exp(-0.5)) < 1e-15
    with pytest.raises(ValueError):
        diffusion_overlap(-1.0, 1.0)


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


@pytest.mark.parametrize("start", ["gd", "g", "d"])
def test_dark_norm_oracle_matches_expm(start):
    bb = beta_B(P100, "closed_form")
    p = dataclasses.replace(P100, omega_b=0.1 * bb, omega_d=0.001 * bb)
    ts = np.array([1.0, 60.0, 2000.0])
    dim = 41
    psi0 = np.zeros(3 * dim, dtype=complex)
    psi0[[dim, 2 * dim]] = {"gd": (1.0, 1.0), "g": (1.0, 0.0),
                            "d": (0.0, 1.0)}[start]
    psi0 /= np.linalg.norm(psi0)
    want = np.sum(np.abs(_expm_states(-1j * _dark_h(p, 40), psi0, ts)) ** 2,
                  axis=0)
    got = dark_norm_oracle(p, ts, nmax=40, start=start)
    assert np.max(np.abs(got - want) / want) < 1e-9


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
