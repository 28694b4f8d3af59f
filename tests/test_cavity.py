import math

import numpy as np
import pytest

from nextjump.cavity import (CavityParams, CoherentTrajectory,
                             coherent_ansatz_fidelity, detuned_flow,
                             detuned_trajectory, effective_model,
                             evolve_fock_oracle, mean_jump_time,
                             resonant_flow, resonant_trajectory,
                             shifted_basis_check, short_time_W,
                             wrong_state_flow)
from nextjump.numerics import FockVector, default_nmax


def test_params_validation():
    with pytest.raises(ValueError):
        CavityParams(kappa=0.0)
    with pytest.raises(ValueError):
        CavityParams(kappa=1.0, nbar=-1.0)
    with pytest.raises(ValueError):
        CavityParams(kappa=1.0, detuning_mode="sideways")
    p = CavityParams(kappa=2.0, nbar=9.0)
    assert p.gamma_drive == 3.0   # kappa*sqrt(nbar)/2


@pytest.mark.parametrize("bad", [{"kappa": math.nan}, {"kappa": math.inf},
                                 {"kappa": 1.0, "nbar": math.nan},
                                 {"kappa": 1.0, "nbar": math.inf}])
def test_params_reject_non_finite(bad):
    with pytest.raises(ValueError):
        CavityParams(**bad)


def test_resonant_trajectory_closed_form():
    p = CavityParams(kappa=1.0, nbar=4.0)
    a, b = resonant_trajectory(p, 2.0)
    assert abs(a - 1.2642411176571153) < 1e-14
    assert abs(b - (-1.4715177646857693)) < 1e-14
    # alpha = sqrt(nbar)(1 - e^{-kappa t/2})
    assert abs(a - 2.0 * (1.0 - math.exp(-1.0))) < 1e-14
    # beta = -(kappa nbar/2)[t + (2/kappa)(e^{-kappa t/2} - 1)]
    want_b = -2.0 * (2.0 + 2.0 * (math.exp(-1.0) - 1.0))
    assert abs(b - want_b) < 1e-14
    w = resonant_flow(p).survival(2.0)
    assert abs(w - 0.26061008241677147) < 1e-14


def test_fock_oracle_matches_closed_form():
    p = CavityParams(kappa=1.0, nbar=4.0)
    flow = resonant_flow(p)
    psi0 = FockVector.vacuum(default_nmax(p.nbar))
    psi = evolve_fock_oracle(p, psi0, 2.0)
    w = flow.survival(2.0)
    assert abs(psi.norm_sq() / w - 1.0) < 1e-10
    fid = coherent_ansatz_fidelity(psi, flow.alpha(2.0), flow.beta(2.0))
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
    a, _ = detuned_trajectory(p, math.sqrt(p.nbar), 50.0)
    assert abs(a - g) < 1e-9


def test_wrong_state_flow_rate():
    # dark-period norm loss approaches kappa*nbar once alpha has migrated
    want = {5.0: 3.980232, 10.0: 4.018755, 20.0: 4.025604}
    for chi, rate_want in want.items():
        p = CavityParams(kappa=1.0, chi=chi, nbar=4.0)
        fl = wrong_state_flow(p)
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
