import math

import numpy as np
import pytest

from nextjump.cavity import CavityParams, detuned_flow
from nextjump.readout import (ReadoutCurves, error_dispersive,
                              error_next_jump, figure1_dataset,
                              log_decrement_Y, min_error_next_jump,
                              snr_heterodyne, y_consistency_check,
                              y_oscillation_frequency)

P = CavityParams(kappa=1.0, chi=20.0, nbar=100.0)


def test_error_next_jump_values():
    assert error_next_jump(P, 0.0) == 0.5
    want = {6.0: 0.2614, 30.0: 0.461131, 60.0: 0.494401, 0.025: 0.4969}
    for t, eps_want in want.items():
        assert abs(error_next_jump(P, t) - eps_want) < 1e-4
    # no pull: both branches identical, error pinned at 1/2
    p0 = CavityParams(kappa=1.0, chi=0.0, nbar=100.0)
    assert error_next_jump(p0, 3.0) == 0.5
    arr = error_next_jump(P, np.array([0.0, 6.0]))
    assert arr.shape == (2,)
    assert arr[0] == 0.5


def test_error_next_jump_scale_invariance():
    # eps depends only on (kappa t, chi/kappa, nbar)
    lam = 3.7
    p_scaled = CavityParams(kappa=lam, chi=20.0 * lam, nbar=100.0)
    for t in (0.5, 2.0, 5.0):
        assert abs(error_next_jump(P, t)
                   - error_next_jump(p_scaled, t / lam)) < 1e-14


def test_error_next_jump_keeps_drive_and_detection_reference():
    # both branches must share gamma_shift and gamma_drive; only chi differs
    p = CavityParams(kappa=1.0, chi=20.0, nbar=100.0, gamma_drive=4.0,
                     gamma_shift=10.0)
    p_b = CavityParams(kappa=1.0, chi=0.0, nbar=100.0, gamma_drive=4.0,
                       gamma_shift=10.0)
    for t in (0.3, 0.7, 2.0):
        pg = 1.0 - detuned_flow(p, 0j).survival(t)
        pb = 1.0 - detuned_flow(p_b, 0j).survival(t)
        assert abs(error_next_jump(p, t) - pg / (pg + pb)) < 1e-14


def test_min_error_next_jump():
    rep = min_error_next_jump(P)
    assert abs(rep["eps_min"] - 0.071124) < 1e-5
    assert abs(rep["tau_min"] - 0.6985) < 1e-3
    assert abs(rep["implied_constant"] - 1.3205) < 1e-3
    assert abs(rep["chi_t_min"] - 13.97) < 0.02
    # the minimum is interior and genuinely below both ends
    assert rep["eps_min"] < 0.5


def test_snr_and_dispersive_error():
    p = CavityParams(kappa=1.0, chi=0.5, nbar=100.0)
    assert abs(snr_heterodyne(p, 1.0) - 5.0 / math.sqrt(18.0)) < 1e-14
    assert abs(snr_heterodyne(p, 1.0) - 1.178511301977579) < 1e-12
    assert abs(error_dispersive(snr_heterodyne(p, 1.0)) - 0.20233) < 1e-5
    assert abs(error_dispersive(snr_heterodyne(p, 2.0)) - 1.2142e-6) < 1e-10
    assert error_dispersive(0.0) == 0.5
    with pytest.raises(ValueError):
        error_dispersive(-1.0)


def test_strategy_crossing():
    # dispersive readout overtakes the next-jump floor near tau ~ 1.69
    p_disp = CavityParams(kappa=1.0, chi=0.5, nbar=100.0)
    e_dr = error_dispersive(snr_heterodyne(p_disp, 1.6893))
    assert abs(e_dr - 9.977e-4) < 1e-6
    floor = min_error_next_jump(P)["eps_min"]
    assert error_dispersive(snr_heterodyne(p_disp, 1.6)) > 1e-3
    assert error_dispersive(snr_heterodyne(p_disp, 2.6)) < floor


def test_log_decrement_Y():
    assert abs(log_decrement_Y(P, 30.0) - 1.00000061) < 1e-8
    assert abs(log_decrement_Y(P, 6.0) - 0.9214) < 1e-4
    assert log_decrement_Y(P, 0.0) == 0.0
    # settles at 1 exactly as alpha reaches gamma_L
    assert abs(log_decrement_Y(P, 80.0) - 1.0) < 1e-14


def test_y_oscillation_frequency():
    f = y_oscillation_frequency(P)
    assert abs(f - 3.17981) < 1e-4
    want = P.chi / (2.0 * math.pi * P.kappa)
    assert abs(f - want) / want < 5e-3


def test_y_consistency():
    dev = y_consistency_check(P)
    assert dev < 1e-6
    assert dev < 1e-13   # simpson on 300001 points is essentially exact


def test_figure1_dataset():
    ds = figure1_dataset()
    assert ds.tau.shape == (1201,)
    assert ds.tau[0] == 0.0 and ds.tau[-1] == 6.0
    assert ds.eps_dispersive[0] == 0.5
    i17 = int(np.argmin(np.abs(ds.tau - 1.7)))
    assert abs(ds.eps_dispersive[i17] - 8.45e-4) < 1e-5
    assert abs(ds.Y[-1] - 0.9214) < 1e-4
    assert abs(ds.eps_nextjump[-1] - 0.2614) < 1e-4
    assert np.all(np.diff(ds.eps_dispersive) <= 1e-15)
    assert ds.params["chi_nextjump"] == 20.0
    assert ds.params["chi_dispersive"] == 0.5
    assert np.all(ds.snr[1:] > 0.0)


def test_readout_curves_validation():
    tau = np.linspace(0.0, 1.0, 5)
    ok = np.linspace(0.5, 0.1, 5)
    with pytest.raises(ValueError):
        ReadoutCurves(tau=tau, eps_nextjump=ok + 1.0, eps_dispersive=ok,
                      snr=tau, Y=tau)
    with pytest.raises(ValueError):
        ReadoutCurves(tau=tau, eps_nextjump=ok, eps_dispersive=ok[::-1],
                      snr=tau, Y=tau)
