import math
import time
from dataclasses import replace

import numpy as np
import pytest

from nextjump.cavity import (CavityParams, CoherentTrajectory, detuned_flow,
                             effective_model, evolve_fock_oracle,
                             fock_generator, mean_jump_time, resonant_flow,
                             short_time_W)
from nextjump.numerics import (FockVector, TruncationError,
                               coherent_amplitudes, decay_rate, default_nmax)
from nextjump.trajectories import lindblad_consistency


def shifted_basis_check(p: CavityParams) -> dict:
    """Probe the displaced-detection fixed point on the Fock oracle.

    The cavity starts in the coherent state at sqrt(nbar) with the drive
    resonant (chi = 0), and the oracle runs to t = 1 on 9 uniform points.
    The squared norm must then decay at the constant rate
    kappa|sqrt(nbar) - gamma_shift|^2, which is zero exactly at the shifted
    fixed point gamma_shift = sqrt(nbar): there the effective
    generator annihilates the displaced vacuum and the state sits still.
    The report carries the fitted rate, the prediction, and the worst
    infidelity against the initial state.
    """
    if p.chi != 0.0:
        raise ValueError("fixed-point check is defined for the resonant case")
    root = math.sqrt(p.nbar)
    nmax = default_nmax(p.nbar)
    psi0 = FockVector(coherent_amplitudes(root, -0.5 * root ** 2, nmax))
    times = np.linspace(0.0, 1.0, 9)
    norms = np.empty(times.size)
    infid = 0.0
    for i, t in enumerate(times):
        psi = psi0 if t == 0.0 else evolve_fock_oracle(p, psi0, t)
        norms[i] = psi.norm_sq()
        inner = complex(np.sum(np.conj(psi.amps) * psi0.amps))
        ov = abs(inner) ** 2 / (psi.norm_sq() * psi0.norm_sq())
        infid = max(infid, 1.0 - ov)
    fitted = decay_rate(times, norms)
    predicted = p.kappa * abs(root - p.gamma_shift) ** 2
    tol = max(1e-7, 1e-3 * predicted)
    return {
        "fitted_rate": fitted,
        "predicted_rate": predicted,
        "max_infidelity": infid,
        "gamma": p.gamma_shift,
        "passed": abs(fitted - predicted) < tol and infid < 1e-8,
    }


def test_params_validation():
    with pytest.raises(ValueError):
        CavityParams(kappa=0.0)
    with pytest.raises(ValueError):
        CavityParams(kappa=1.0, nbar=-1.0)
    p = CavityParams(kappa=2.0, nbar=9.0)
    assert p.gamma_drive == 3.0   # kappa*sqrt(nbar)/2


@pytest.mark.parametrize("bad", [{"kappa": math.nan}, {"kappa": math.inf},
                                 {"kappa": 1.0, "nbar": math.nan},
                                 {"kappa": 1.0, "nbar": math.inf},
                                 {"kappa": 1.0, "chi": math.nan},
                                 {"kappa": 1.0, "chi": -math.inf},
                                 {"kappa": 1.0, "gamma_shift": math.nan},
                                 {"kappa": 1.0,
                                  "gamma_shift": complex(0.0, math.inf)}])
def test_params_reject_non_finite(bad):
    with pytest.raises(ValueError):
        CavityParams(**bad)


def test_resonant_trajectory_closed_form():
    p = CavityParams(kappa=1.0, nbar=4.0)
    flow = resonant_flow(p)
    a, b = flow.alpha(2.0), flow.beta(2.0)
    assert abs(a - 1.2642411176571153) < 1e-14
    assert abs(b - (-1.4715177646857693)) < 1e-14
    # alpha = sqrt(nbar)(1 - e^{-kappa t/2})
    assert abs(a - 2.0 * (1.0 - math.exp(-1.0))) < 1e-14
    # beta = -(kappa nbar/2)[t + (2/kappa)(e^{-kappa t/2} - 1)]
    want_b = -2.0 * (2.0 + 2.0 * (math.exp(-1.0) - 1.0))
    assert abs(b - want_b) < 1e-14
    w = flow.survival(2.0)
    assert abs(w - 0.26061008241677147) < 1e-14


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_fock_oracle_rejects_non_finite_time_promptly(t):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        evolve_fock_oracle(CavityParams(kappa=1.0, nbar=4.0),
                           FockVector.vacuum(12), t)
    assert time.perf_counter() - start < 1.0


def test_fock_oracle_rejects_negative_time():
    with pytest.raises(ValueError):
        evolve_fock_oracle(CavityParams(kappa=1.0, nbar=4.0),
                           FockVector.vacuum(40), -1.0)


@pytest.mark.parametrize("scale", [1.0, 1e-35])
def test_fock_oracle_judges_top_bin_relative_to_norm(scale):
    # a coherent alpha = 2.5 at nmax 30 holds 2.3e-6 of its norm in the top
    # bin; that is truncation at every norm, however small W has become
    amps = scale * coherent_amplitudes(2.5, -3.125, 30)
    with pytest.raises(TruncationError):
        evolve_fock_oracle(CavityParams(kappa=1.0, nbar=4.0),
                           FockVector(amps), 0.0)


@pytest.mark.parametrize("nbar, rtol", [(9.0, 1e-8), (16.0, 1e-8),
                                        (25.0, 1e-4)])
def test_fock_oracle_follows_small_survival(nbar, rtol):
    # W(6) is 3.2e-13, 6.1e-23 and 2.0e-35; no false TruncationError, and
    # nbar 25 sits near the oracle's rounding floor (see its docstring)
    p = CavityParams(kappa=1.0, nbar=nbar)
    psi = evolve_fock_oracle(p, FockVector.vacuum(default_nmax(nbar)), 6.0)
    assert abs(psi.norm_sq() / resonant_flow(p).survival(6.0) - 1.0) < rtol


def test_fock_oracle_matches_closed_form():
    p = CavityParams(kappa=1.0, nbar=4.0)
    flow = resonant_flow(p)
    psi0 = FockVector.vacuum(default_nmax(p.nbar))
    psi = evolve_fock_oracle(p, psi0, 2.0)
    w = flow.survival(2.0)
    assert abs(psi.norm_sq() / w - 1.0) < 1e-10
    # the oracle state stays on the coherent ansatz exp(alpha c^dag + beta)|0>
    ref = coherent_amplitudes(flow.alpha(2.0), flow.beta(2.0), psi.nmax)
    a = psi.amps.ravel()
    fid = abs(np.vdot(ref, a)) ** 2 / (np.vdot(ref, ref).real
                                       * np.vdot(a, a).real)
    assert fid > 1.0 - 1e-12


def test_jump_density_is_minus_dW():
    p = CavityParams(kappa=1.0, nbar=4.0)
    flow = resonant_flow(p)
    h = 1e-5
    for t in (0.3, 1.0, 2.5):
        d = flow.jump_density(t)
        fd = -(flow.survival(t + h) - flow.survival(t - h)) / (2.0 * h)
        assert abs(d - fd) < 1e-8


def test_short_time_cubic_law():
    p = CavityParams(kappa=1.0, nbar=4.0)
    assert short_time_W(p, 0.1) == math.exp(-4.0 * 1e-3 / 12.0)
    flow = resonant_flow(p)
    ts = np.linspace(1e-3, 0.05, 20)
    rel = np.abs(flow.survival(ts) / short_time_W(p, ts) - 1.0)
    assert np.max(rel) < 1e-4


def test_mean_jump_time_scale():
    p = CavityParams(kappa=1.0, nbar=4.0)
    # gamma_drive = 1, so the scale is 3^(1/3)
    assert abs(mean_jump_time(p) - 1.4422495703074083) < 1e-15
    p2 = CavityParams(kappa=2.0, nbar=4.0)
    assert abs(mean_jump_time(p2) - (3.0 / 8.0) ** (1.0 / 3.0)) < 1e-15


def test_detuned_fixed_point():
    p = CavityParams(kappa=1.0, chi=20.0, nbar=100.0)
    g = detuned_flow(p, 0j).alpha_inf
    # gamma_drive/(kappa/2 - i chi) = 5(0.5 + 20i)/400.25
    assert abs(g - (2.5 + 100.0j) / 400.25) < 1e-14
    assert abs(abs(g) - 10.0 / math.sqrt(1601.0)) < 1e-15
    # the flow actually relaxes there
    a = detuned_flow(p, math.sqrt(p.nbar)).alpha(50.0)
    assert abs(a - g) < 1e-9


def test_wrong_state_flow_rate():
    # dark-period flow: the cavity starts in the bright fixed point
    # sqrt(nbar), detection is still referenced to it, and the manifold is
    # detuned by chi; norm loss approaches kappa*nbar once alpha has migrated
    want = {5.0: 3.980232, 10.0: 4.018755, 20.0: 4.025604}
    for chi, rate_want in want.items():
        p = CavityParams(kappa=1.0, chi=chi, nbar=4.0)
        root = math.sqrt(p.nbar)
        fl = detuned_flow(replace(p, gamma_shift=root), root)
        assert fl.log_survival(0.0) == 0.0
        assert fl.jump_density(0.0) < 1e-25   # detection starts silent
        ts = np.linspace(3.0, 8.0, 200)
        slope = np.polyfit(ts, fl.log_survival(ts), 1)[0]
        assert abs(-slope - rate_want) < 1e-5
        assert abs(-slope - p.kappa * p.nbar) / (p.kappa * p.nbar) < 0.02


def test_shifted_basis_fixed_point():
    p = CavityParams(kappa=1.0, nbar=4.0, gamma_shift=2.0)
    rep = shifted_basis_check(p)
    assert rep["passed"]
    assert abs(rep["fitted_rate"]) < 1e-9
    assert rep["predicted_rate"] == 0.0
    assert rep["max_infidelity"] < 1e-10

    p_off = CavityParams(kappa=1.0, nbar=4.0, gamma_shift=2.02)
    rep_off = shifted_basis_check(p_off)
    want = 1.0 * (2.0 - 2.02) ** 2
    assert abs(rep_off["fitted_rate"] - want) / want < 1e-3

    p_bare = CavityParams(kappa=1.0, nbar=4.0, gamma_shift=0.0)
    rep_bare = shifted_basis_check(p_bare)
    assert abs(rep_bare["fitted_rate"] - 4.0) / 4.0 < 1e-3
    with pytest.raises(ValueError):
        shifted_basis_check(CavityParams(kappa=1.0, chi=1.0, nbar=4.0))


def test_coherent_trajectory_properties():
    tr = CoherentTrajectory(kappa=1.0, drive=0.5, chi_eff=3.0)
    assert tr.lam == 3.0j - 0.5
    assert abs(tr.alpha_inf - 0.5 / (0.5 - 3.0j)) < 1e-15
    ts = np.linspace(0.0, 5.0, 11)
    a = tr.alpha(ts)
    assert a.shape == ts.shape
    assert abs(a[0]) < 1e-15
    assert abs(tr.alpha(5.0) - a[-1]) < 1e-15


def test_effective_model_validation():
    p = CavityParams(kappa=1.0, nbar=2.0)
    with pytest.raises(ValueError):
        effective_model(p, 0)
    with pytest.raises(ValueError):
        effective_model(p, 8, initial_state=np.ones(4))
    m = effective_model(p, 8)
    assert m.labels == ("emission",)
    assert m.dim == 9
    assert m.reset_state is None
    assert abs(np.vdot(m.initial_state, m.initial_state) - 1.0) < 1e-12
    # one-photon state clicks at rate kappa
    one = np.zeros(9, dtype=complex)
    one[1] = 1.0
    assert abs(m.jump_rates(one)[0] - p.kappa) < 1e-12


def _fock_rhs_reference(p, nmax):
    """dC_n/dt = (i chi n + h - (kappa/2) n) C_n + f sqrt(n) C_{n-1}
    + g sqrt(n+1) C_{n+1}, banded, with f the drive, g = kappa conj(gamma)
    - f and h = -(kappa/2)|gamma|^2."""
    n = np.arange(nmax + 1, dtype=float)
    gamma = p.gamma_shift
    f = p.gamma_drive
    g = p.kappa * np.conj(gamma) - f
    diag = (1j * p.chi - 0.5 * p.kappa) * n - 0.5 * p.kappa * abs(gamma) ** 2
    sq = np.sqrt(n)

    def rhs(c):
        out = diag * c
        out[1:] += f * sq[1:] * c[:-1]
        out[:-1] += g * sq[1:] * c[1:]
        return out

    return rhs


@pytest.mark.parametrize("chi,gamma", [(0.0, 0.0), (3.0, 0.0),
                                       (0.0, 0.7 + 0.2j), (-2.0, 1.0)])
def test_fock_generator_matches_banded_rhs(chi, gamma):
    p = CavityParams(kappa=1.3, chi=chi, nbar=2.5, gamma_shift=gamma)
    nmax = 12
    m = fock_generator(p, nmax)
    assert m.shape == (nmax + 1, nmax + 1)
    rhs = _fock_rhs_reference(p, nmax)
    # column k is the rhs of the k-th number state
    want = np.column_stack([rhs(e) for e in np.eye(nmax + 1, dtype=complex)])
    np.testing.assert_array_equal(m, want)
    assert np.all(np.triu(m, 2) == 0) and np.all(np.tril(m, -2) == 0)


def test_effective_model_honours_chi_and_gamma_shift():
    nmax = 16
    psi0 = np.zeros(nmax + 1, dtype=complex)
    psi0[0] = 1.0
    psi0[2] = 1.0
    resonant = effective_model(CavityParams(kappa=1.0, nbar=2.0), nmax)
    p = CavityParams(kappa=1.0, chi=3.0, nbar=2.0, gamma_shift=0.5 - 0.3j)
    m = effective_model(p, nmax, initial_state=psi0)
    assert not np.array_equal(m.generator, resonant.generator)
    np.testing.assert_array_equal(m.generator, fock_generator(p, nmax))
    assert m.rate_identity_gap(m.initial_state) < 1e-12
    rep = lindblad_consistency(m, 2000, 2.0, seedbase=15)
    assert rep["max_deviation"] < 5.0 / np.sqrt(2000)
