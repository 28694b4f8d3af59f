import math

import numpy as np
import pytest
from scipy import stats

from nextjump import cavity
from nextjump import heterodyne as het
from nextjump.heterodyne import (CurrentStatistics, HeterodyneParams,
                                 NoisePath, SSEState, current_statistics,
                                 fock_sse_oracle, gauge_equivalence,
                                 integrate_sse_series,
                                 norm_weighted_mean_abs, null_correspondence,
                                 sample_ostensible_currents,
                                 sample_raw_currents, sample_tilted_currents)
from nextjump.numerics import (FockVector, ParameterError, RngStream,
                               coherent_amplitudes)

P4 = HeterodyneParams(kappa=1.0, nbar=4.0)
PH = HeterodyneParams(kappa=1.0, nbar=4.0, omega=0.0)     # homodyne
PQ = HeterodyneParams(kappa=1.0, nbar=0.25)
P100 = HeterodyneParams(kappa=1.0, nbar=100.0)


# ---------------------------------------------------------------------------
# Two more samplers of the exact Gaussian law, held here as oracles: the
# filtered record S and the norm martingale.  They read the package's law
# (``_sampler_grid``, ``_sample_gaussian``) and draw from its reserved
# streams, so their pinned samples are those of the package.

def sample_filtered_statistic(params: HeterodyneParams, duration: float, dt: float,
                              npaths: int, seed: int) -> np.ndarray:
    """Filtered record S(t) for mean-zero noise at the record's end, the
    recursion S_{k+1} = r S_k + a_gain ehat_k dz_k with decay r = e^{-kappa
    dt/2} and gain a_gain = (sqrt(kappa)/B) e^{-kappa dt/4}: step k enters
    with weight a_gain ehat_k r^(n-1-k), the memory kernel e^{-kappa (t-s)/2}
    at the step midpoint.  <|S|^2> relaxes to 1 - e^{-kappa t} independently
    of B.  (Re S, Im S) is drawn from its exact Gaussian law, 2 standard
    normals per path.
    """
    ehat = het._sampler_grid(params, duration, dt)[1]
    r = np.exp(-params.kappa * dt / 2)
    a_gain = np.sqrt(params.kappa) / params.B * np.exp(-params.kappa * dt / 4)
    w = a_gain * ehat * r ** np.arange(ehat.size - 1, -1, -1)
    x = het._sample_gaussian(np.stack([w.real, w.imag]), [0.0, 0.0],
                             params.B * np.sqrt(dt), npaths,
                             RngStream(seed, het._STREAM_FILTERED).generator())
    return x[:, 0] + 1j * x[:, 1]


def ensemble_unraveling_check(params: HeterodyneParams, duration: float, dt: float,
                              npaths: int, seed: int) -> dict:
    """Martingale check tying the ensemble back to the unconditioned flow.

    Under the ostensible measure the unnormalized conditioned norm^2 is a
    martingale, E||psi(t)||^2 = 1 for a vacuum start, while alpha(t) relaxes
    deterministically on every path.  The ensemble of conditioned projectors
    therefore averages to the coherent-state density matrix of the
    unconditioned master equation.  Re beta, the only random part of the
    norm, is drawn from its exact Gaussian law, 1 standard normal per path.
    Returns the sampled mean norm^2 with its standard error and the amplitude
    deviation from the closed form.
    """
    alpha, _, gain, drift = het._sampler_grid(params, duration, dt)
    re_beta = het._sample_gaussian(
        gain[None].real, [drift.real.sum()], params.B * np.sqrt(dt), npaths,
        RngStream(seed, het._STREAM_UNRAVELING).generator())
    al = alpha[-1]
    w = np.exp(2 * re_beta[:, 0] + abs(al) ** 2)
    mean_w = float(w.mean())
    se = float(w.std() / np.sqrt(npaths))
    alpha_pred = params.alpha_steady * (1 - np.exp(-params.kappa * duration / 2))
    return {
        "mean_norm_sq": mean_w,
        "stderr": se,
        "z": (mean_w - 1.0) / se if se > 0 else float("nan"),
        "alpha_final": complex(al),
        "alpha_dev": float(abs(al - alpha_pred)),
    }


def _demod_factors(omega, dt, nsteps):
    tgrid = np.arange(nsteps) * dt
    return (np.exp(-1j * (omega * tgrid))
            * (1 - np.exp(-1j * omega * dt)) / (1j * omega * dt))


# ---------------------------------------------------------------------------
# Stepwise references: the per-step recursions that the samplers and the
# coherent kernel replace with closed forms.  ``noise(k, mu)`` returns the
# record increments of step k, one per path, given their mean mu under the
# sampled measure.

def _rng_noise(seed, stream, scale, npaths):
    """Per-step draws from a sampler's stream, one normal per path and step."""
    rng = RngStream(seed, stream).generator()
    return lambda k, mu: rng.normal(mu, scale, size=npaths)


def _basis_noise(nsteps):
    """Path 0 gets the mean increments and path j + 1 the mean plus 1 at step
    j, so a reference's output on path j + 1 minus path 0 is its coefficient
    on dz_j: the affine map of the recursion, read off by brute force."""
    eye = np.hstack([np.zeros((nsteps, 1)), np.eye(nsteps)])
    return lambda k, mu: mu + eye[k]


def ref_tilted(p, duration, dt, noise, start="fixed"):
    nsteps = int(round(duration / dt))
    tgrid = np.arange(nsteps) * dt
    ehat = _demod_factors(p.omega, dt, nsteps)
    if start == "fixed":
        alph = np.full(nsteps, np.sqrt(p.nbar), dtype=complex)
    else:
        alph = np.sqrt(p.nbar) * (1 - np.exp(-p.kappa * tgrid / 2))
    mean_k = 2 * np.sqrt(p.kappa) * p.B * np.real(alph * ehat) * dt
    TB = 0j
    for k in range(nsteps):
        TB = TB + noise(k, mean_k[k]) * ehat[k]
    return TB / duration


def ref_ostensible(p, duration, dt, noise):
    nsteps = int(round(duration / dt))
    ehat = _demod_factors(p.omega, dt, nsteps)
    alpha = np.sqrt(p.nbar)
    TB, logw = 0j, 0.0
    for k in range(nsteps):
        dzk = noise(k, 0.0)
        TB = TB + dzk * ehat[k]
        logw = (logw + 2 * np.real(np.sqrt(p.kappa) / p.B * dzk * ehat[k] * alpha)
                - 2 * p.gamma_drive * alpha * dt)
    return TB / duration, logw


def ref_raw(p, duration, dt, noise):
    nsteps = int(round(duration / dt))
    ehat = _demod_factors(p.omega, dt, nsteps)
    TB = 0j
    for k in range(nsteps):
        TB = TB + noise(k, 0.0) * ehat[k]
    return TB / duration


def ref_filtered(p, duration, dt, noise):
    nsteps = int(round(duration / dt))
    tgrid = np.arange(nsteps) * dt
    ehat = _demod_factors(p.omega, dt, nsteps)
    ker = np.exp(-p.kappa * (duration - (tgrid + dt / 2)) / 2)
    S = 0j
    for k in range(nsteps):
        S = S + np.sqrt(p.kappa) / p.B * noise(k, 0.0) * ehat[k] * ker[k]
    return S


def ref_martingale_beta(p, duration, dt, noise):
    """beta of every path and the common final alpha, from a vacuum start."""
    kappa, B, omega, Gam = p.kappa, p.B, p.omega, p.gamma_drive
    abar = 2 * Gam / kappa
    I1, I2, I3, I4 = het._step_constants(kappa, omega, dt)
    step_decay = np.exp(-kappa * dt / 2)
    al, be = 0j, 0j
    for k in range(int(round(duration / dt))):
        c0 = np.sqrt(kappa) / B * (noise(k, 0.0) / dt) * np.exp(-1j * omega * k * dt)
        be = be + c0 * (abar * I1 + (al - abar) * I2) - Gam * (abar * I3 + (al - abar) * I4)
        al = abar + (al - abar) * step_decay
    return be, al


def _martingale_z(be, al):
    w = np.exp(2 * be.real + abs(al) ** 2)
    return (w.mean() - 1.0) / (w.std() / math.sqrt(w.size))


def ref_coherent_series(p, path, alpha0=0j, beta0=0j):
    """(alpha, beta, record_T) after every step, one step at a time."""
    kappa, B, omega, dt = p.kappa, p.B, p.omega, path.dt
    Gam = p.gamma_drive
    abar = 2 * Gam / kappa
    sqk = math.sqrt(kappa)
    I1, I2, I3, I4 = het._step_constants(kappa, omega, dt)
    ehat0 = I1 / dt
    step_decay = math.exp(-kappa * dt / 2)
    al, be, T = complex(alpha0), complex(beta0), 0j
    out = [(al, be, T)]
    for k, dzk in enumerate(path.increments):
        ph = np.exp(-1j * (omega * k * dt))
        c0 = sqk / B * dzk / dt * ph
        be += c0 * (abar * I1 + (al - abar) * I2) - Gam * (abar * I3 + (al - abar) * I4)
        T += dzk * ph * ehat0
        al = abar + (al - abar) * step_decay
        out.append((al, be, T))
    return np.array(out)


# ---------------------------------------------------------------------------
# parameters and paths

def test_params_validation():
    with pytest.raises(ValueError):
        HeterodyneParams(kappa=0.0, nbar=1.0)
    with pytest.raises(ValueError):
        HeterodyneParams(kappa=1.0, nbar=-1.0)
    with pytest.raises(ValueError):
        HeterodyneParams(kappa=1.0, nbar=1.0, B=0.0)
    with pytest.raises(ValueError):
        HeterodyneParams(kappa=1.0, nbar=1.0, omega=-1.0)
    assert P4.omega == 50.0          # default 50*kappa
    assert P4.alpha_steady == 2.0    # sqrt(nbar)
    assert P4.gamma_drive == 1.0
    assert het._max_step(P4) == min(0.05 / 50.0, 0.01)


@pytest.mark.parametrize("field", ["kappa", "nbar", "B", "omega"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError):
        HeterodyneParams(**{"kappa": 1.0, "nbar": 1.0, field: value})


def test_noise_path_validation_and_draw():
    with pytest.raises(ValueError):
        NoisePath(dt=0.0, increments=np.zeros(3))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            NoisePath(dt=bad, increments=np.zeros(3))
    with pytest.raises(ValueError):
        NoisePath(dt=0.1, increments=np.zeros((3, 2)))
    # a duration that rounds to no step is bad input, not an empty record
    with pytest.raises(ParameterError, match="holds no noise step"):
        NoisePath.draw(P4, 4e-4, 1e-3, seed=5)
    a = NoisePath.draw(P4, 1.0, 1e-3, seed=5)
    b = NoisePath.draw(P4, 1.0, 1e-3, seed=5)
    c = NoisePath.draw(P4, 1.0, 1e-3, seed=6)
    assert np.array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)
    assert a.nsteps == 1000 and abs(a.nsteps * a.dt - 1.0) < 1e-12
    # increments have the nominal variance B**2*dt
    assert abs(np.var(a.increments) / (P4.B ** 2 * a.dt) - 1.0) < 0.1


# ---------------------------------------------------------------------------
# the coherent kernel

def test_integrate_sse_silent_path():
    # zero record: alpha relaxes deterministically and beta integrates
    # -Gamma*alpha; both have closed forms
    st = integrate_sse_series(P4, NoisePath(1e-4, np.zeros(20_000)),
                              every=1000)
    assert abs(st.alpha[-1] - 2.0 * (1.0 - math.exp(-1.0))) < 1e-12
    assert abs(st.beta[-1] - (-4.0 * math.exp(-1.0))) < 1e-10
    assert not np.any(st.record_T)
    # log norm^2 = 2 Re beta + |alpha|^2 at every snapshot
    want = [2 * b.real + abs(a) ** 2
            for a, b in zip(st.alpha.tolist(), st.beta.tolist())]
    assert np.max(np.abs(st.log_norm_sq() - want)) < 1e-15


def test_integrate_sse_record_accumulators():
    path = NoisePath.draw(P4, 2.0, 1e-4, seed=7)
    st = integrate_sse_series(P4, path, every=path.nsteps)
    assert st.t.shape == st.record_T.shape == st.alpha.shape == st.beta.shape
    eh = _demod_factors(P4.omega, path.dt, path.nsteps)
    t_direct = np.sum(path.increments * eh)
    assert abs(st.record_T[-1] - t_direct) < 1e-12
    assert abs(st.current() - st.record_T[-1] / 2.0) < 1e-15
    with pytest.raises(ValueError):
        SSEState(t=np.zeros(1), record_T=np.zeros(1, complex),
                 alpha=np.zeros(1, complex), beta=np.zeros(1, complex)).current()


def test_integrate_sse_step_guard():
    coarse = NoisePath.draw(P4, 1.0, 0.002, seed=1)   # limit is 0.001
    with pytest.raises(ValueError):
        integrate_sse_series(P4, coarse)


def test_step_guard_uses_the_params_omega():
    # homodyne detection has no phase to resolve: only kappa*dt <= 0.01
    # binds, while the heterodyne default omega = 50 asks for dt <= 0.001
    record = NoisePath(dt=0.01, increments=np.zeros(10))
    assert het._max_step(P4) == 0.001
    assert integrate_sse_series(PH, record).t[-1] == pytest.approx(0.1)
    with pytest.raises(ValueError, match="exceeds 0.001"):
        integrate_sse_series(P4, record)
    too_coarse = NoisePath(dt=0.011, increments=np.zeros(10))
    with pytest.raises(ValueError, match="exceeds 0.01"):
        integrate_sse_series(PH, too_coarse)
    with pytest.raises(ValueError):
        gauge_equivalence(P4, NoisePath.draw(P4, 1.0, 0.002, seed=1))


def test_ensemble_samplers_step_guard():
    # kappa*dt = 0.5, fifty times the guard: the exact laws would be built on
    # an unresolved grid (the martingale check read z = -3.3e6 unguarded)
    with pytest.raises(ValueError, match="noise step dt=0.5 exceeds 0.001"):
        ensemble_unraveling_check(HeterodyneParams(1.0, 4.0), 5.0, 0.5, 100,
                                  seed=1)
    for sampler in (sample_tilted_currents, sample_ostensible_currents,
                    sample_raw_currents, sample_filtered_statistic):
        with pytest.raises(ValueError, match="exceeds 0.001"):
            sampler(P4, 1.0, 0.002, 10, seed=1)
    # dt exactly at the limit is accepted
    limit = het._max_step(P4)
    assert sample_raw_currents(P4, 0.1, limit, 10, seed=1).shape == (10,)
    # a duration that rounds to no step: no empty ensemble law
    for sampler in (sample_tilted_currents, sample_ostensible_currents,
                    sample_raw_currents, sample_filtered_statistic):
        with pytest.raises(ParameterError, match="holds no noise step"):
            sampler(P4, 4e-4, 1e-3, 10, seed=1)
    with pytest.raises(ParameterError, match="holds no noise step"):
        ensemble_unraveling_check(P4, 4e-4, 1e-3, 10, seed=1)


def test_integrate_sse_series_consistency():
    path = NoisePath.draw(P4, 1.0, 1e-3, seed=9)
    snaps = integrate_sse_series(P4, path, every=100)
    assert snaps.t.size == 11
    assert snaps.t[0] == 0.0 and snaps.alpha[0] == 0.0
    # the snapshot grid moves no value: every 100th snapshot of the
    # step-by-step record, and the final one of the two-snapshot record
    dense = integrate_sse_series(P4, path)
    ends = integrate_sse_series(P4, path, every=path.nsteps)
    assert ends.t.size == 2
    for f in ("t", "alpha", "beta", "record_T"):
        assert np.array_equal(getattr(snaps, f), getattr(dense, f)[::100])
        assert getattr(ends, f)[-1] == getattr(snaps, f)[-1]
    with pytest.raises(ValueError):
        integrate_sse_series(P4, path, every=0)


def test_integrate_sse_series_snapshot_grid():
    path = NoisePath.draw(P4, 0.25, 1e-3, seed=9)     # 250 steps
    snaps = integrate_sse_series(P4, path, every=100)
    assert np.round(snaps.t / path.dt).tolist() == [0, 100, 200, 250]
    assert {a.shape for a in (snaps.record_T, snaps.alpha, snaps.beta)} == {(4,)}
    assert integrate_sse_series(P4, path, every=1).t.size == 251
    empty = NoisePath(dt=1e-3, increments=np.zeros(0))
    assert integrate_sse_series(P4, empty, every=7).t.size == 1
    only = het._coherent_kernel(P4, empty, np.array([0]), 0.5)
    assert only.shape == (3, 1) and only[0, 0] == 0.5 and only[1, 0] == 0.0


# ids: the start (None is the vacuum) and whether the record is homodyne
@pytest.mark.parametrize("p,a0,b0", [
    pytest.param(P4, 0j, 0j, id="None-False"),
    pytest.param(P4, 0.7 - 0.4j, 0j, id="(0.7-0.4j)-False"),
    pytest.param(P4, 2.0 + 0.5j, -0.3 + 0.2j, id="psi02-False"),
    pytest.param(PH, 0.3j, 0j, id="0.3j-True"),
    pytest.param(HeterodyneParams(kappa=1.0, nbar=4.0, B=2.5), 0j, 0j,
                 id="B2.5-False")])
def test_coherent_kernel_matches_stepwise(p, a0, b0):
    if p.omega == 0.0:
        rng = RngStream(3, 9).generator()
        path = NoisePath(dt=0.005, increments=rng.normal(0.0, math.sqrt(0.005), 6000))
    else:
        path = NoisePath.draw(p, 9.0, 1e-3, seed=21)
    assert path.nsteps > 4096        # the beta and record_T sums carry over blocks
    ref = ref_coherent_series(p, path, a0, b0)
    # the kernel starts beta at 0; a start b0 adds to beta and nothing else
    got = het._coherent_kernel(p, path, np.arange(path.nsteps + 1), a0).T
    got[:, 1] += b0
    # cumulative sums round differently from the step loop: well inside 1e-12
    tol = 1e-12 * (1.0 + np.max(np.abs(ref), axis=0))
    assert np.all(np.abs(got - ref) <= tol)
    if a0 == 0 and b0 == 0:
        fin = integrate_sse_series(p, path, every=path.nsteps)
        assert (fin.alpha[-1], fin.beta[-1], fin.record_T[-1]) == tuple(got[-1])


# explicit Euler is first order, its error (u alpha h)^2/2 per substep: the
# heterodyne phase averages it out, a homodyne record adds it up, so the
# homodyne case takes 4 times the substeps (4.2e-3 off at 20, 1.0e-3 at 80)
@pytest.mark.parametrize("p,substeps", [(P4, 20), (PH, 80)],
                         ids=["heterodyne", "homodyne"])
def test_fock_oracle_matches_coherent_kernel(p, substeps):
    path = NoisePath.draw(p, 0.4, 1e-3, seed=23)
    al, be = het._coherent_kernel(p, path, np.array([path.nsteps]),
                                  0.5 + 0.2j)[:2, 0]
    start = FockVector(coherent_amplitudes(0.5 + 0.2j, 0j, 40))
    fo = fock_sse_oracle(p, path, start, substeps)
    amps = coherent_amplitudes(al, be, 40)
    # heterodyne at h = 5e-5: about 3e-4 off
    assert np.max(np.abs(fo.amps - amps)) < 2e-3 * np.max(np.abs(amps))
    assert abs(math.log(fo.norm_sq()) - (2 * be.real + abs(al) ** 2)) < 2e-3
    with pytest.raises(ValueError):
        fock_sse_oracle(p, path, start, 0)


def test_null_correspondence_locked_record():
    rep = null_correspondence(P4, 5.0)
    # the coherent kernel on the locked record against the closed-form
    # no-click flow: equal up to rounding
    assert rep["max_log_prefactor_dev"] < 1e-14
    assert rep["max_amplitude_dev"] < 1e-14
    assert rep["norm_factor_dev"] < 1e-14
    assert abs(rep["alpha_final"] - 1.8358300027522023) < 1e-12
    # vacuum start travels to the fixed point; that distance is diagnostic
    assert abs(rep["max_alpha_drift"] - abs(rep["alpha_final"])) < 1e-12
    # at the fixed point the kernel's beta climbs to 2*t = 10 by cumulative
    # sum, against a rescaled closed form that stays at 0: 1.2e-13 off, and
    # the norm factor e^4 times twice that, 1.4e-11
    rep_fp = null_correspondence(P4, 5.0, alpha0=2.0)
    assert rep_fp["max_alpha_drift"] == 0.0
    assert rep_fp["max_log_prefactor_dev"] < 1e-12
    assert rep_fp["max_amplitude_dev"] < 1e-11
    assert rep_fp["norm_factor_dev"] < 1e-10


@pytest.mark.parametrize("t", [-1.0, 0.0, math.nan, math.inf])
def test_null_correspondence_rejects_bad_t(t):
    with pytest.raises(ValueError, match="t must be finite and positive"):
        null_correspondence(P4, t)


def test_null_correspondence_sees_a_shifted_flow(monkeypatch):
    """The no-click side comes from cavity.CoherentTrajectory, so an error
    there shows in the comparison."""
    beta = cavity.CoherentTrajectory.beta
    monkeypatch.setattr(cavity.CoherentTrajectory, "beta",
                        lambda self, t: beta(self, t) + 1e-6)
    rep = null_correspondence(P4, 5.0)
    assert rep["max_log_prefactor_dev"] >= 1e-7


def test_gauge_equivalence_one_path():
    path = NoisePath.draw(P4, 3.0, 1e-3, seed=29)
    rep = gauge_equivalence(P4, path)
    assert rep["max_quadrature_dev"] == 0.0
    assert abs(rep["scalar_offset"] - 6.741868577807326j) < 1e-9
    assert rep["decomposition_dev"] < 1e-12
    assert abs(rep["norm_ratio"] - 1.0) < 1e-12
    assert abs(rep["ray_fidelity"] - 1.0) < 1e-12
    assert abs(rep["alpha_final"] - 2.0 * (1.0 - math.exp(-1.5))) < 1e-12
    silent = gauge_equivalence(P4, NoisePath(1e-3, np.zeros(3000)))
    assert abs(silent["ray_fidelity"] - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# exact Gaussian laws of the samplers

class _Basis:
    """Generator stand-in whose normals are the zero vector and the m unit
    vectors, so the helper returns its mean and then mean + each factor row."""

    def standard_normal(self, shape):
        n, m = shape
        assert n == m + 1
        return np.vstack([np.zeros(m), np.eye(m)])


class _Counting:
    """Generator wrapper that counts the standard normals drawn."""

    def __init__(self, rng):
        self.rng, self.draws = rng, 0

    def standard_normal(self, shape):
        self.draws += math.prod(shape)
        return self.rng.standard_normal(shape)


def _helper_law(monkeypatch, call):
    """Mean, covariance and normals per path of the law the sampling helper
    realizes during ``call()``."""
    real = het._sample_gaussian
    seen = {}

    def spy(rows, mean, scale, npaths, rng):
        m = np.size(mean)
        x = real(rows, mean, scale, m + 1, _Basis())
        f = x[1:] - x[0]
        seen.update(mean=x[0], cov=f.T @ f)
        counting = _Counting(rng)
        out = real(rows, mean, scale, npaths, counting)
        seen["per_path"] = counting.draws / npaths
        return out

    monkeypatch.setattr(het, "_sample_gaussian", spy)
    call()
    return seen


D, DT = 0.4, 1e-3
_K = int(round(D / DT))


def _reim(z):
    return [z.real, z.imag]


def _ostensible_values(noise):
    cur, logw = ref_ostensible(P4, D, DT, noise)
    return _reim(cur * D) + [logw]


# sampler call, brute-force map from the stepwise reference (in the units of
# the helper's values), and the normals each path draws
_LAW_CASES = {
    "tilted-fixed": (
        lambda: sample_tilted_currents(P4, D, DT, 5, seed=1),
        lambda nz: _reim(ref_tilted(P4, D, DT, nz) * D), 2),
    "tilted-vacuum": (
        lambda: sample_tilted_currents(P4, D, DT, 5, seed=1, start="vacuum"),
        lambda nz: _reim(ref_tilted(P4, D, DT, nz, start="vacuum") * D), 2),
    "ostensible": (
        lambda: sample_ostensible_currents(P4, D, DT, 5, seed=1),
        _ostensible_values, 3),
    "raw": (
        lambda: sample_raw_currents(P4, D, DT, 5, seed=1),
        lambda nz: _reim(ref_raw(P4, D, DT, nz) * D), 2),
    "filtered": (
        lambda: sample_filtered_statistic(P4, D, DT, 5, seed=1),
        lambda nz: _reim(ref_filtered(P4, D, DT, nz)), 2),
    "martingale": (
        lambda: ensemble_unraveling_check(P4, D, DT, 5, seed=1),
        lambda nz: [ref_martingale_beta(P4, D, DT, nz)[0].real], 1),
}


@pytest.mark.parametrize("case", sorted(_LAW_CASES))
def test_exact_law_matches_stepwise_sums(monkeypatch, case):
    call, ref, m = _LAW_CASES[case]
    law = _helper_law(monkeypatch, call)
    y = np.array(ref(_basis_noise(_K)))             # (m, K + 1)
    mean = y[:, 0]
    coef = y[:, 1:] - y[:, :1]
    cov = P4.B**2 * DT * coef @ coef.T
    sd = np.sqrt(np.diag(cov))
    assert law["per_path"] == m
    assert np.all(np.abs(law["mean"] - mean) <= 1e-12 * (np.abs(mean) + sd))
    assert np.all(np.abs(law["cov"] - cov) <= 1e-12 * np.outer(sd, sd))


def test_ostensible_log_weight_is_exactly_affine_in_re_T():
    cur, logw = sample_ostensible_currents(P4, D, DT, 2000, seed=3)
    slope = 2 * math.sqrt(P4.kappa) * P4.alpha_steady / P4.B
    offset = -2 * P4.gamma_drive * P4.alpha_steady * D
    assert np.max(np.abs(logw - (slope * cur.real * D + offset))) < 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sample_gaussian_rejects_non_finite():
    rng = np.random.default_rng(0)
    rows = np.ones((2, 5))
    with pytest.raises(FloatingPointError):
        het._sample_gaussian(rows, [0.0, math.nan], 1.0, 3, rng)
    bad = rows.copy()
    bad[1, 2] = math.inf
    with pytest.raises(FloatingPointError):
        het._sample_gaussian(bad, [0.0, 0.0], 1.0, 3, rng)
    with pytest.raises(FloatingPointError):      # the covariance overflows
        het._sample_gaussian(rows * 1e300, [0.0, 0.0], 1e10, 3, rng)
    assert het._sample_gaussian(rows, [0.0, 1.0], 1.0, 3, rng).shape == (3, 2)


def _moment_z(a, b):
    """Differences of mean and of variance of two samples, in standard errors."""
    va, vb = a.var(), b.var()
    zm = (a.mean() - b.mean()) / math.sqrt(va / a.size + vb / b.size)
    zv = (va - vb) / math.sqrt(2 * va**2 / a.size + 2 * vb**2 / b.size)
    return zm, zv


def _assert_same_law(a, b):
    assert stats.ks_2samp(a, b).pvalue > 1e-3
    assert max(map(abs, _moment_z(a, b))) < 4.0


def test_exact_ostensible_law_matches_stepwise_samples():
    n = 4000
    cur, logw = sample_ostensible_currents(PQ, 0.5, 1e-3, n, seed=41)
    rcur, rlogw = ref_ostensible(PQ, 0.5, 1e-3,
                                 _rng_noise(42, het._STREAM_OSTENSIBLE,
                                            math.sqrt(1e-3), n))
    for a, b in ((np.abs(cur), np.abs(rcur)), (np.angle(cur), np.angle(rcur)),
                 (logw, rlogw), (cur.real, rcur.real), (cur.imag, rcur.imag)):
        _assert_same_law(a, b)


def test_exact_tilted_law_matches_stepwise_samples():
    n = 4000
    cur = sample_tilted_currents(P4, 2.0, 1e-3, n, seed=43, start="vacuum")
    rcur = ref_tilted(P4, 2.0, 1e-3,
                      _rng_noise(44, het._STREAM_TILTED, math.sqrt(1e-3), n),
                      start="vacuum")
    for a, b in ((np.abs(cur), np.abs(rcur)), (np.angle(cur), np.angle(rcur)),
                 (cur.real, rcur.real), (cur.imag, rcur.imag)):
        _assert_same_law(a, b)


def test_exact_raw_filtered_and_martingale_match_stepwise_samples():
    n, sd = 4000, math.sqrt(1e-3)
    raw = sample_raw_currents(P4, 1.0, 1e-3, n, seed=45)
    rraw = ref_raw(P4, 1.0, 1e-3, _rng_noise(46, het._STREAM_RAW, sd, n))
    s = sample_filtered_statistic(P4, 1.0, 1e-3, n, seed=47)
    rs = ref_filtered(P4, 1.0, 1e-3, _rng_noise(48, het._STREAM_FILTERED, sd, n))
    for a, b in ((raw, rraw), (s, rs)):
        for part in (np.real, np.imag):
            assert max(map(abs, _moment_z(part(a), part(b)))) < 4.0
    rep = ensemble_unraveling_check(PQ, 0.5, 1e-3, n, seed=49)
    be, al = ref_martingale_beta(PQ, 0.5, 1e-3,
                                 _rng_noise(50, het._STREAM_UNRAVELING, sd, n))
    w = np.exp(2 * be.real + abs(al) ** 2)
    z = (rep["mean_norm_sq"] - w.mean()) / math.hypot(rep["stderr"],
                                                      w.std() / math.sqrt(n))
    assert abs(z) < 4.0


# ---------------------------------------------------------------------------
# seed-pinned values: the stepwise reference keeps the original protocol's
# goldens; the exact samplers have their own pins at the same tolerances

def test_tilted_current_peak():
    ref = ref_tilted(P100, 20.0, 1e-3,
                     _rng_noise(11, het._STREAM_TILTED, math.sqrt(1e-3), 2000))
    rs = current_statistics(ref)
    assert abs(rs.peak - 10.0086) < 1e-3
    assert abs(rs.mean - 10.0049) < 1e-3
    assert abs(rs.std - 0.1574) < 1e-3
    cur = sample_tilted_currents(P100, 20.0, 1e-3, 2000, seed=11)
    cs = current_statistics(cur)
    assert isinstance(cs, CurrentStatistics)
    assert cs.npaths == 2000
    assert abs(cs.peak - 9.9851) < 1e-3
    assert abs(cs.mean - 9.9988) < 1e-3
    assert abs(cs.std - 0.1637) < 1e-3
    # the ridge sits at B*sqrt(kappa*nbar) and sharpens with duration
    assert abs(cs.peak - 10.0) / 10.0 < 0.03
    assert cs.rel_width < 0.2 / math.sqrt(2.0)
    with pytest.raises(ValueError):
        sample_tilted_currents(P100, 1.0, 1e-3, 10, seed=1, start="excited")


def test_weighted_ostensible_matches_tilted():
    n, sd = 10000, math.sqrt(1e-3)
    rcur, rlogw = ref_ostensible(PQ, 0.5, 1e-3,
                                 _rng_noise(13, het._STREAM_OSTENSIBLE, sd, n))
    rwm = norm_weighted_mean_abs(rcur, rlogw)
    rtm = float(np.mean(np.abs(ref_tilted(
        PQ, 0.5, 1e-3, _rng_noise(13, het._STREAM_TILTED, sd, n)))))
    assert abs(rwm - 1.322019) < 1e-5
    assert abs(rtm - 1.328484) < 1e-5
    assert abs(rwm - rtm) < 0.036   # 3x combined standard error
    cur, logw = sample_ostensible_currents(PQ, 0.5, 1e-3, n, seed=13)
    wm = norm_weighted_mean_abs(cur, logw)
    tm = float(np.mean(np.abs(sample_tilted_currents(PQ, 0.5, 1e-3, n,
                                                     seed=13))))
    assert abs(wm - 1.357114) < 1e-5
    assert abs(tm - 1.309699) < 1e-5
    # At 10,000 paths this seed gives wm - tm = 0.047 on the exact laws, a
    # 4-sigma draw (one seed in 300 exceeds 0.036).  The same 3-sigma bound
    # is applied at 100x the paths, 0.036/sqrt(100), which detects a
    # mismatch of the two measures ten times smaller.
    m = 100 * n
    cur, logw = sample_ostensible_currents(PQ, 0.5, 1e-3, m, seed=13)
    wm = norm_weighted_mean_abs(cur, logw)
    tm = float(np.mean(np.abs(sample_tilted_currents(PQ, 0.5, 1e-3, m,
                                                     seed=13))))
    assert abs(wm - tm) < 0.0036


def test_raw_and_filtered_statistics():
    n, sd = 5000, math.sqrt(1e-3)
    want = 1.0 - math.exp(-5.0)
    rraw = ref_raw(P4, 5.0, 1e-3, _rng_noise(17, het._STREAM_RAW, sd, n))
    assert abs(float(np.mean(np.abs(rraw) ** 2)) * 5.0 - 0.998801) < 1e-5
    rs = ref_filtered(P4, 5.0, 1e-3, _rng_noise(19, het._STREAM_FILTERED, sd, n))
    rgot = float(np.mean(np.abs(rs) ** 2))
    assert abs(rgot - 1.016239) < 1e-5
    assert abs(rgot - want) / want < 0.05
    raw = sample_raw_currents(P4, 5.0, 1e-3, n, seed=17)
    scaled = float(np.mean(np.abs(raw) ** 2)) * 5.0
    assert abs(scaled - 1.020918) < 1e-5
    # E|I|^2 = B^2/t for pure noise; |I|^2 t is exponential, so its sample
    # mean has standard error 1/sqrt(n) = 0.014
    assert abs(scaled - 1.0) < 0.05
    s = sample_filtered_statistic(P4, 5.0, 1e-3, n, seed=19)
    got = float(np.mean(np.abs(s) ** 2))
    assert abs(got - 0.984494) < 1e-5
    assert abs(got - want) / want < 0.05


def test_martingale_mean_norm():
    n = 20000
    be, al = ref_martingale_beta(PQ, 0.5, 1e-3,
                                 _rng_noise(31, het._STREAM_UNRAVELING,
                                            math.sqrt(1e-3), n))
    rz = _martingale_z(be, al)
    assert abs(rz) < 3.0
    assert abs(rz - 0.5489) < 1e-3
    rep = ensemble_unraveling_check(PQ, 0.5, 1e-3, n, seed=31)
    assert abs(rep["z"]) < 3.0
    assert abs(rep["z"] - (-0.7962)) < 1e-3
    assert rep["alpha_dev"] < 1e-12
    assert abs(rep["mean_norm_sq"] - 1.0) < 3.0 * rep["stderr"]


def test_current_statistics_inputs():
    rng = np.random.Generator(np.random.Philox(key=[3, 0]))
    ring = 3.0 * np.exp(2j * np.pi * rng.random(4000)) \
        + 0.02 * (rng.standard_normal(4000) + 1j * rng.standard_normal(4000))
    cs = current_statistics(ring)
    assert abs(cs.peak - 3.0) < 0.05
