import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

from nextjump.cavity import CavityParams, detuned_flow
from nextjump.numerics import ParameterError
from nextjump.readout import (ReadoutCurves, error_dispersive,
                              error_next_jump, figure1_dataset,
                              log_decrement_Y, min_error_next_jump,
                              snr_heterodyne, y_oscillation_frequency)

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
    p = CavityParams(kappa=1.0, chi=20.0, nbar=100.0, gamma_shift=10.0)
    p_b = CavityParams(kappa=1.0, chi=0.0, nbar=100.0, gamma_shift=10.0)
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


def test_error_dispersive_matches_mpmath():
    """On the default figure-1 grid (SNR up to 104, so the tail reaches the
    subnormals and 0) against mpmath at 40 digits from the same double SNR:
    within 1e-15 relative wherever the value exceeds 1e-300, and within
    1e-315 below that.  scipy.special.erfc misses by 5.7e-14 in the tail."""
    snr = figure1_dataset().snr
    eps = error_dispersive(snr)
    with mpmath.workdps(40):
        ref = np.array([float(mpmath.erfc(mpmath.mpf(x) / 2) / 2)
                        for x in snr])
    assert eps.shape == snr.shape == (1201,)
    assert np.all(np.abs(eps - ref) <= 1e-15 * np.maximum(ref, 1e-300))
    assert error_dispersive(snr.reshape(1, -1)).shape == (1, 1201)


@pytest.mark.parametrize("call", [
    lambda: error_dispersive(math.nan),
    lambda: error_dispersive([0.5, math.nan]),
    lambda: snr_heterodyne(CavityParams(kappa=1.0, chi=0.5, nbar=100.0), -1.0),
    lambda: snr_heterodyne(CavityParams(kappa=1.0, chi=0.5, nbar=100.0),
                           [0.0, math.nan]),
    lambda: snr_heterodyne(CavityParams(kappa=1.0, chi=0.5, nbar=100.0),
                           math.inf),
    lambda: figure1_dataset(tau=[-1.0, 0.0, 1.0]),
    lambda: error_next_jump(P, -1.0),
    lambda: error_next_jump(P, math.nan),
    lambda: error_next_jump(CavityParams(1.0, chi=math.nan, nbar=4.0), 1.0),
    lambda: error_next_jump(P, math.inf),
    lambda: log_decrement_Y(P, -1.0),
    lambda: log_decrement_Y(P, math.inf),
    lambda: log_decrement_Y(P, math.nan),
], ids=["nan-snr", "nan-in-snr-array", "negative-t", "nan-t", "inf-t",
        "negative-tau", "next-jump-negative-t", "next-jump-nan-t",
        "next-jump-nan-chi", "next-jump-inf-t", "log-decrement-negative-tau",
        "log-decrement-inf-tau", "log-decrement-nan-tau"])
def test_readout_refuses_bad_input(call):
    """A negative, infinite or NaN time, SNR or shift raises, where the
    dispersive error would be NaN, the next-jump error would read 1/2 and
    Y at tau = -1 would read 2.37."""
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("call, name", [
    (lambda: log_decrement_Y(CavityParams(1.0, chi=1.0, nbar=0.0), 1.0),
     "nbar"),
    (lambda: min_error_next_jump(CavityParams(1.0, chi=0.0, nbar=100.0)),
     "chi"),
    (lambda: min_error_next_jump(CavityParams(1.0, chi=1.0, nbar=0.0)),
     "nbar"),
], ids=["log-decrement-zero-nbar", "min-error-zero-chi",
        "min-error-zero-nbar"])
def test_readout_refuses_degenerate_params(call, name):
    """A parameter that puts a zero in a denominator raises ParameterError
    naming it, where Y read NaN with a RuntimeWarning and the minimum
    search raised a bare ZeroDivisionError."""
    with pytest.raises(ParameterError, match=name):
        call()


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


def _y_consistency(p):
    """Max deviation of exp(-int Y nbar/(1+(2chi/kappa)^2) dtau) from W(tau)
    on 300001 points of 0 <= tau <= 30: Y is a logarithmic decrement, so
    integrating it back must reproduce the survival curve."""
    tau = np.linspace(0.0, 30.0, 300001)
    Y = log_decrement_Y(p, tau)
    integ = cumulative_simpson(Y * p.nbar / (1.0 + (2.0 * p.chi / p.kappa) ** 2),
                               x=tau, initial=0.0)
    W = detuned_flow(p, 0j).survival(tau / p.kappa)
    return float(np.max(np.abs(np.exp(-integ) - W)))


def test_y_consistency():
    dev = _y_consistency(P)
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
    nan = np.where(tau == 0.5, np.nan, ok)
    for curves in ({"eps_nextjump": nan, "eps_dispersive": ok},
                   {"eps_nextjump": ok, "eps_dispersive": nan}):
        with pytest.raises(ValueError):
            ReadoutCurves(tau=tau, snr=tau, Y=tau, **curves)
