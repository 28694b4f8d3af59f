import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from nextjump.atom3 import (Atom3Params, beta_ell, dark_fraction,
                            effective_model, generator,
                            scenario_a_log_survival)
from nextjump.numerics import RegimeWarning
from nextjump.trajectories import NullFlow

GROUND = np.array([1.0, 0.0, 0.0], dtype=complex)


# ---------------------------------------------------------------------------
# Closed-form asymptotics of the amplitudes, held here as oracles of the
# exact flow: no command or criterion uses them.

def _warn_regime(cond: bool, msg: str) -> None:
    if cond:
        warnings.warn(msg, RegimeWarning, stacklevel=3)


def amplitude_c1_closed(p: Atom3Params, t) -> complex:
    """Closed-form fast-level amplitude after a reset (asymptotic form).

    Valid for weak second drive (|omega2|/beta1 << 1), the weak drive tuned
    to the dressed resonance (delta2 = |omega1|), and strong first drive.
    The first term is the decaying Rabi cycle of the fast transition; the
    second is the slow branch fed by the weak drive.  Outside the regime a
    RegimeWarning is emitted and the value is still returned.
    """
    _warn_regime(p.epsilon > 0.1,
                 "closed-form c1 assumes |omega2|/beta1 << 1")
    _warn_regime(abs(p.delta2 - abs(p.omega1)) > 1e-9 * max(abs(p.omega1), 1.0),
                 "closed-form c1 assumes delta2 = |omega1|")
    _warn_regime(abs(p.omega1) < 2.0 * p.beta1,
                 "closed-form c1 assumes strong first drive")
    t = np.asarray(t, dtype=float)
    om1 = abs(p.omega1)
    bl = beta_ell(p)
    slow_w = 4.0 * abs(p.omega2) ** 2 / p.beta1 ** 2
    val = (1j * np.sin(om1 * t) * np.exp(-p.beta1 * t / 4.0)
           + slow_w * np.exp(1j * om1 * t)
           * (np.exp(-p.beta1 * t / 4.0) - np.exp(-bl * t)))
    if val.ndim == 0:
        return complex(val)
    return val


def project_slow(p: Atom3Params, T: float, t: float) -> np.ndarray:
    """Normalized slow-branch state after a click-free wait of length T.

    Once the fast modes have died out (beta1*T >> 1) the conditioned state
    collapses onto the slowly decaying eigenvector; its asymptotic form is
    (2i*eps, 2i*eps, 1)/sqrt(1+8 eps^2) rotating at the strong Rabi
    frequency.  T only gates the regime check; the returned (3,) amplitudes
    (c0, c1, c2) are the normalized eigenvector evaluated at time t.
    """
    _warn_regime(p.beta1 * T < 10.0,
                 "slow projection assumes beta1*T >> 1")
    if t < T:
        raise ValueError("projection time t must be >= the wait T")
    eps = p.epsilon
    f = 1.0 / math.sqrt(1.0 + 8.0 * eps ** 2)
    phase = np.exp(1j * abs(p.omega1) * t)
    return np.array([2j * eps * f * phase, 2j * eps * f * phase, f * phase],
                    dtype=complex)


def unitary_c1(p: Atom3Params, t) -> complex:
    """Fast-level amplitude under unitary (no-measurement) evolution.

    Closed form for |omega2/omega1| << 1 and delta2 = |omega1|; the weak
    drive shows up only as a slow cosine envelope.
    """
    _warn_regime(abs(p.omega1) > 0 and abs(p.omega2 / p.omega1) > 0.1,
                 "unitary closed form assumes |omega2/omega1| << 1")
    _warn_regime(abs(p.delta2 - abs(p.omega1)) > 1e-9 * max(abs(p.omega1), 1.0),
                 "unitary closed form assumes delta2 = |omega1|")
    t = np.asarray(t, dtype=float)
    om1 = abs(p.omega1)
    om2 = abs(p.omega2)
    val = 0.5 * (np.exp(1j * om1 * t) * np.cos(om2 * t / math.sqrt(2.0))
                 - np.exp(-1j * om1 * t))
    if val.ndim == 0:
        return complex(val)
    return val


# ---------------------------------------------------------------------------

def _params(omega1=1.0, eps=0.05, beta1=1.0, beta2=0.0, delta2=None):
    # weak drive tuned to the dressed resonance unless told otherwise
    if delta2 is None:
        delta2 = abs(omega1)
    return Atom3Params(omega1=omega1, omega2=eps * beta1, delta2=delta2,
                       beta1=beta1, beta2=beta2)


@pytest.mark.parametrize("field", ["omega1", "omega2", "delta2", "beta1",
                                   "beta2"])
@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, math.nan)])
def test_params_reject_non_finite(field, value):
    good = dict(omega1=1.0, omega2=0.05, delta2=1.0, beta1=1.0, beta2=0.0)
    if isinstance(value, complex) and field not in ("omega1", "omega2"):
        value = value.imag       # the detuning and the rates are real
    with pytest.raises(ValueError):
        Atom3Params(**dict(good, **{field: value}))


def test_generator_matrix_layout():
    p = Atom3Params(omega1=2.0 + 1.0j, omega2=0.3j, delta2=0.7,
                    beta1=1.5, beta2=0.4)
    m = generator(p)
    assert m[0, 1] == 1j * np.conj(p.omega1)
    assert m[0, 2] == 1j * np.conj(p.omega2)
    assert m[1, 0] == 1j * p.omega1
    assert m[1, 1] == -0.75
    assert m[2, 2] == 1j * 0.7 - 0.2
    assert m[1, 2] == 0.0 and m[2, 1] == 0.0


def test_beta_ell_formula():
    assert beta_ell(_params(eps=0.05)) == pytest.approx(0.005, abs=1e-15)
    assert beta_ell(Atom3Params(1.0, 0.05, 1.0, 1.0, 0.8)) == pytest.approx(
        0.405, abs=1e-15)


def test_dark_fraction_limits():
    # no weak drive: no dark periods
    assert dark_fraction(Atom3Params(1.0, 0.0, 0.0, 1.0, 0.5)) == (0.0, 0.0)
    # beta2 = 0 makes every dark period end through the strong channel
    pd, g = dark_fraction(_params(eps=0.05))
    assert g == 1.0
    assert abs(pd - 1.0 / 3.0) < 1e-15
    # beta1 beta2 = 4|omega2|^2 gives branch share 1/2 and p_D = 1/5
    pd, g = dark_fraction(Atom3Params(1.0, 1.0, 0.0, 2.0, 2.0))
    assert abs(g - 0.5) < 1e-15
    assert abs(pd - 0.2) < 1e-15


def test_survival_slow_slope():
    # late-window slope of ln W against twice the slow-branch rate
    for eps, want_slope, want_rel in ((0.05, 1.012496e-2, 0.0125),
                                      (0.1, 4.192433e-2, 0.0481)):
        p = _params(eps=eps)
        ts = np.linspace(40.0, 150.0, 2000)
        w = NullFlow(generator(p), GROUND).survival(ts)
        slope = np.polyfit(ts, np.log(w), 1)[0]
        assert abs(-slope - want_slope) < 1e-6
        rel = (-slope - 2.0 * beta_ell(p)) / (2.0 * beta_ell(p))
        assert abs(rel - want_rel) < 1e-3


def test_slow_slope_matches_exact_eigenvalue():
    p = _params(eps=0.05)
    lam = np.linalg.eigvals(generator(p))
    slow = lam[np.argmax(lam.real)]
    assert abs(-2.0 * slow.real - 1.012510e-2) < 1e-7
    ts = np.linspace(40.0, 150.0, 2000)
    w = NullFlow(generator(p), GROUND).survival(ts)
    slope = np.polyfit(ts, np.log(w), 1)[0]
    assert abs(-slope - (-2.0 * slow.real)) / (2.0 * abs(slow.real)) < 1e-3


def test_project_slow_overlap_grows_with_wait():
    p = _params(eps=0.05)
    want = {12.0: 0.898431, 16.0: 0.983585, 20.0: 0.998240, 30.0: 0.998939}
    for T, ov_want in want.items():
        psi = NullFlow(generator(p), GROUND).state(T)
        psi = psi / np.linalg.norm(psi)
        slow = project_slow(p, T, T)
        ov = abs(np.vdot(slow, psi))
        assert abs(ov - ov_want) < 1e-5


def test_project_slow_state_form():
    p = _params(omega1=2.0, eps=0.05)
    arr = project_slow(p, 20.0, 25.0)
    assert arr.shape == (3,) and arr.dtype == complex
    assert abs(np.vdot(arr, arr).real - 1.0) < 1e-12
    eps = p.epsilon
    f = 1.0 / math.sqrt(1.0 + 8.0 * eps ** 2)
    # components carry a common phase e^{i |omega1| t}
    phase = np.exp(1j * abs(p.omega1) * 25.0)
    want = np.array([2j * eps * f, 2j * eps * f, f]) * phase
    assert np.max(np.abs(arr - want)) < 1e-12
    with pytest.raises(ValueError):
        project_slow(p, 20.0, 5.0)
    with pytest.warns(RegimeWarning):
        project_slow(p, 2.0, 3.0)


def test_closed_form_c1_strong_drive():
    # strong drive: closed form tracks the integrated amplitude
    p = _params(omega1=5.0, eps=0.05)
    ts = np.linspace(0.0, 6.0, 400)
    flow = NullFlow(generator(p), GROUND)
    c1 = flow.state(ts)[1]
    cf = amplitude_c1_closed(p, ts)
    envelope = np.max(np.abs(c1))
    assert np.max(np.abs(c1 - cf)) / envelope < 0.02


def test_closed_form_c1_slow_tail():
    p = _params(omega1=5.0, eps=0.05)
    flow = NullFlow(generator(p), GROUND)
    got = abs(flow.state(30.0)[1])
    want = 4.0 * abs(p.omega2) ** 2 / p.beta1 ** 2 \
        * math.exp(-2.0 * abs(p.omega2) ** 2 / p.beta1 * 30.0)
    assert abs(got / want - 1.0191) < 1e-3
    with pytest.warns(RegimeWarning):
        amplitude_c1_closed(_params(omega1=1.0, eps=0.05), 1.0)


def test_unitary_c1_average():
    # average fast population over two beat periods of the weak drive;
    # decay rates do not enter the unitary amplitude
    for om2, want in ((0.005, 0.499836), (0.05, 0.484188)):
        p = Atom3Params(omega1=50.0, omega2=om2, delta2=50.0,
                        beta1=1.0, beta2=0.0)
        ts = np.linspace(0.0, 4.0 * math.pi, 200_001)
        c1 = unitary_c1(p, ts)
        avg = np.trapezoid(np.abs(c1) ** 2, ts) / (4.0 * math.pi)
        assert abs(avg - want) < 1e-5


def test_unitary_c1_matches_integration():
    p = Atom3Params(omega1=1.0, omega2=0.01, delta2=1.0, beta1=1.0, beta2=0.0)
    m = generator(p)
    m[1, 1] += 0.5 * p.beta1   # strip the decay, keep the coherent part
    ts = np.linspace(0.0, 60.0, 1201)
    flow = NullFlow(m, GROUND)
    dev = np.max(np.abs(flow.state(ts)[1] - unitary_c1(p, ts)))
    assert dev < 1e-3


def test_strong_drive_envelope():
    # no weak branch: ln W approaches -beta1 T / 2 as the drive saturates
    for om1, ratio_want in ((10.0, 1.00449), (20.0, 1.00205)):
        p = Atom3Params(omega1=om1, omega2=0.0, delta2=0.0, beta1=1.0,
                        beta2=0.0)
        flow = NullFlow(generator(p), GROUND)
        lnw = math.log(float(flow.survival(10.0)))
        assert abs(lnw / (-5.0) - ratio_want) < 1e-4


def test_scenario_a_log_survival_exact():
    p = Atom3Params(omega1=1e10, omega2=0.0, delta2=0.0, beta1=1e9, beta2=0.0)
    assert scenario_a_log_survival(p, 1.0) == -5e8
    assert scenario_a_log_survival(_params(beta1=2.0), 3.0) == -3.0


def test_mean_gap_saturates():
    # omega2 = 0: E[gap] = (2/beta1)(1 + beta1^2 / 8 omega1^2)
    for om1 in (5.0, 10.0):
        p = Atom3Params(omega1=om1, omega2=0.0, delta2=0.0, beta1=1.0,
                        beta2=0.0)
        flow = NullFlow(generator(p), GROUND)
        w = lambda t: float(flow.survival(t))
        mean, err = quad(w, 0.0, 80.0, limit=200)
        want = 2.0 * (1.0 + 1.0 / (8.0 * om1 ** 2))
        assert abs(mean - want) / want < 1e-4


def test_mean_gap_with_weak_branch():
    p = _params(omega1=5.0, eps=0.05)
    flow = NullFlow(generator(p), GROUND)
    w = lambda t: float(flow.survival(t))
    mean = sum(quad(w, a, b, limit=500)[0]
               for a, b in ((0.0, 40.0), (40.0, 200.0), (200.0, 1500.0)))
    assert abs(mean - 3.020200) < 1e-5


def test_evolve_null_matches_survival():
    p = _params(omega1=5.0, eps=0.05)
    flow = NullFlow(generator(p), GROUND)
    arr = flow.state(4.0)
    w = float(flow.survival(4.0))
    assert abs(np.vdot(arr, arr).real - w) < 1e-10


def test_effective_model_shape():
    p = _params(omega1=5.0, eps=0.05, beta2=0.2)
    m = effective_model(p)
    assert m.labels == ("fast", "slow")
    assert m.dim == 3
    assert np.array_equal(m.initial_state, m.reset_state)
    excited = np.array([0.0, 1.0, 0.0], dtype=complex)
    rates = m.jump_rates(excited)
    assert abs(rates[0] - p.beta1) < 1e-12
    assert rates[1] == 0.0
