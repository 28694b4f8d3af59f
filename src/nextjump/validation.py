"""Numbered acceptance checks over the whole package.

Each criterion is one runner returning (passed, measured, detail); run_all
wraps them with timing and exception capture and the CLI ``validate``
subcommand prints one machine-readable line per criterion.  The "fast"
level trims Monte Carlo sizes so the sweep stays around a minute; "full"
runs the pinned sizes.  Tolerances are fixed here, not configurable: they
are the contract.
"""

from __future__ import annotations

import dataclasses
import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np
from scipy import stats as sp_stats

from . import atom3 as _atom3
from . import cavity as _cavity
from . import transmon as _transmon
from .atom3 import Atom3Params, beta_ell, scenario_a_log_survival
from .cavity import CavityParams, resonant_flow, evolve_fock_oracle
from .heterodyne import (HeterodyneParams, NoisePath, current_statistics,
                         gauge_equivalence, integrate_sse,
                         null_correspondence, sample_tilted_currents)
from .numerics import FockVector, RngStream, default_nmax
from .readout import (error_next_jump, figure1_dataset, min_error_next_jump,
                      y_oscillation_frequency)
from .trajectories import (NullFlow, lindblad_consistency, sample_gaps,
                           telegraph_run, telegraph_stats)
from .transmon import TransmonParams, beta_B, dark_eigenvalues

__all__ = [
    "CriterionResult",
    "CRITERION_TITLES",
    "format_line",
    "run_all",
    "run_criterion",
]

# wall-clock budgets (seconds) that are part of the acceptance contract
_TIME_BOUNDS = {1: 1.0, 2: 1.0, 3: 10.0, 4: 5.0, 6: 1.0, 7: 300.0, 10: 1.0, 14: 20.0}


@dataclass(frozen=True)
class CriterionResult:
    index: int
    title: str
    passed: bool
    measured: dict
    detail: str
    elapsed: float


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def format_line(r: CriterionResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    kv = " ".join(f"{k}={_fmt(v)}" for k, v in r.measured.items())
    return f"criterion {r.index:02d} {status} {r.title} | {kv} | {r.elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 1. closed-form survival against the direct Fock integration

def _criterion_1(level: str):
    p = CavityParams(kappa=1.0, nbar=4.0)
    flow = resonant_flow(p)
    vac = FockVector.vacuum(default_nmax(p.nbar))
    times = np.linspace(0.5, 6.0, 12)
    rels = []
    for t in times:
        w_num = evolve_fock_oracle(p, vac, float(t)).norm_sq()
        w_cf = flow.survival(float(t))
        rels.append(abs(w_num - w_cf) / w_cf)
    maxrel = float(max(rels))
    w2 = float(flow.survival(2.0))
    ok = maxrel < 1e-6 and abs(w2 - 0.26057) < 1e-4
    meas = {"max_rel_dev": maxrel, "W_at_2": w2}
    return ok, meas, "no-click probability, closed form vs truncated integration"


# ---------------------------------------------------------------------------
# 2. cubic short-time law of log W

def _criterion_2(level: str):
    meas = {}
    ok = True
    for nbar in (4.0, 100.0):
        p = CavityParams(kappa=1.0, nbar=nbar)
        flow = resonant_flow(p)
        ts = np.linspace(0.01, 0.05, 80) / p.kappa
        lnw = np.log(flow.survival(ts))
        slope = np.polyfit(ts ** 3, lnw, 1)[0]
        target = -p.nbar * p.kappa ** 3 / 12.0
        rel = abs(slope - target) / abs(target)
        meas[f"rel_dev_nbar{int(nbar)}"] = float(rel)
        ok = ok and rel < 0.02
    return ok, meas, "log W slope against t^3 matches -nbar kappa^3/12"


# ---------------------------------------------------------------------------
# 3. inverse-transform jump-time sampling

def _criterion_3(level: str):
    p = CavityParams(kappa=1.0, nbar=4.0)
    flow = resonant_flow(p)
    n = 100_000
    samples = sample_gaps(flow.survival, n, RngStream(0, 0), t_hi=40.0)
    d_stat, pval = sp_stats.kstest(samples, lambda x: 1.0 - flow.survival(x))
    ok = d_stat < 0.005
    meas = {"ks_stat": float(d_stat), "ks_pvalue": float(pval), "n": n,
            "n_censored": int(np.count_nonzero(samples == 40.0))}
    return ok, meas, "sampled first-jump times against 1 - W"


# ---------------------------------------------------------------------------
# 4. telegraph dark-period statistics

def _criterion_4(level: str):
    p = Atom3Params(omega1=5.0, omega2=0.05, delta2=5.0, beta1=1.0, beta2=0.0)
    model = _atom3.effective_model(p)
    total = 1e4
    rec = telegraph_run(model, total, RngStream(2, 0))
    st = telegraph_stats(rec, dark_threshold=10.0 / p.beta1)
    z = (st.p_dark - 1.0 / 3.0) / st.p_dark_se

    ntail_draw = 400_000 if level == "full" else 150_000
    nf = NullFlow(model.generator, model.initial_state)
    gaps = sample_gaps(nf.survival, ntail_draw, RngStream(1, 1), t_hi=900.0)
    tail = gaps[gaps > 30.0]
    rate = 1.0 / float(np.mean(tail - 30.0))
    target = 2.0 * beta_ell(p)
    rel = abs(rate - target) / target

    ok = abs(z) < 3.0 and rel < 0.10
    meas = {"p_dark": float(st.p_dark), "z": float(z), "n_dark": st.n_dark,
            "tail_rate": rate, "tail_rate_target": target,
            "tail_rel_dev": float(rel), "n_tail": int(tail.size),
            "n_censored": int(np.count_nonzero(gaps == 900.0))}
    return ok, meas, "dark fraction 1/3 and exponential dark-duration tail"


# ---------------------------------------------------------------------------
# 5. strong-drive log survival returned as a log

def _criterion_5(level: str):
    p = Atom3Params(omega1=1e10, omega2=0.0, delta2=0.0, beta1=1e9, beta2=0.0)
    logw = scenario_a_log_survival(p, 1.0)
    ok = logw == -5e8
    return ok, {"log_W": float(logw)}, "underflow-proof log of the no-click probability"


# ---------------------------------------------------------------------------
# 6. three routes to the bright-level width

def _criterion_6(level: str):
    meas = {}
    ok = True
    for chi in (5.0, 10.0, 20.0, 50.0):
        p = TransmonParams(kappa=1.0, chi=chi, nbar=100.0)
        vals = {m: beta_B(p, m)
                for m in ("quadrature", "steepest_descent", "closed_form")}
        ref = vals["closed_form"]
        spread = max(abs(a - b) for a in vals.values()
                     for b in vals.values()) / ref
        meas[f"spread_chi{int(chi)}"] = float(spread)
        ok = ok and spread < 0.05
    cf = beta_B(TransmonParams(kappa=1.0, chi=20.0, nbar=100.0), "closed_form")
    meas["closed_form_value"] = float(cf)
    ok = ok and abs(cf - 7.97885) < 1e-4
    return ok, meas, "bright width: quadrature, saddle point, closed form"


# ---------------------------------------------------------------------------
# 7. slow decay of the dark-block norm

def _criterion_7(level: str):
    bb = beta_B(TransmonParams(kappa=1.0, chi=20.0, nbar=100.0), "closed_form")
    p = TransmonParams(kappa=1.0, chi=20.0, nbar=100.0,
                       omega_b=0.1 * bb, omega_d=0.001 * bb)
    spec = dark_eigenvalues(p)
    lo = 5.0 / spec.i_e_plus_asymptotic
    hi = 2.0 / spec.i_e_minus_asymptotic
    ts = np.linspace(lo, hi, 60)
    norms = _transmon.dark_norm_oracle(p, ts, nmax=200, start="gd")
    a = np.vstack([ts, np.ones_like(ts)]).T
    slope = np.linalg.lstsq(a, np.log(norms), rcond=None)[0][0]
    rate = -float(slope)
    target = 2.0 * spec.i_e_minus
    rel = abs(rate - target) / target
    ok = rel < 0.10
    meas = {"fitted_rate": rate, "target_rate": float(target),
            "rel_dev": float(rel), "window_lo": float(lo), "window_hi": float(hi)}
    return ok, meas, "dark-norm decay fit against the slow eigenvalue"


# ---------------------------------------------------------------------------
# 8. memory-kernel ground decay vs perturbative rate

def _criterion_8(level: str):
    p = TransmonParams(kappa=1.0, chi=20.0, nbar=100.0, omega_b=0.1)
    ts, c = _transmon.multiscale_volterra(p, tmax=6.0, dt=0.002)
    m = ts >= 2.0
    a = np.vstack([ts[m], np.ones(int(m.sum()))]).T
    slope = np.linalg.lstsq(a, np.log(c[m]), rcond=None)[0][0]
    rate = -float(slope)
    gam = _transmon.slow_rate(p)
    rel1 = abs(rate - gam) / gam

    ur = _transmon.unshifted_rate(p)
    ur0 = _transmon.unshifted_rate(dataclasses.replace(p, omega_b=0.0))
    drive_decay = -(ur - ur0).real
    rel2 = abs(rate - drive_decay) / drive_decay

    ok = rel1 < 0.05 and rel2 < 0.05
    meas = {"fitted_rate": rate, "perturbative_rate": float(gam),
            "rel_dev": float(rel1), "drive_decay_part": float(drive_decay),
            "rel_dev_unshifted": float(rel2)}
    return ok, meas, "integro-differential decay against both rate routes"


# ---------------------------------------------------------------------------
# 9. monitored norm decreases from the start

def _criterion_9(level: str):
    meas = {}
    ok = True
    for i, (nbar, om) in enumerate(((4.0, 0.05), (100.0, 0.1), (100.0, 0.05))):
        p = TransmonParams(kappa=1.0, chi=20.0, nbar=nbar, omega_b=om)
        n0, d0 = _transmon.norm_evolution_multiscale(p, 0.0)
        ok = ok and n0 == 1.0 and d0 == 0.0
        worst = -math.inf
        for t in np.linspace(0.05, 1.0, 20):
            _, dn = _transmon.norm_evolution_multiscale(p, float(t))
            worst = max(worst, dn)
        meas[f"max_dnorm_dt_{i}"] = float(worst)
        ok = ok and worst < 0.0
    return ok, meas, "norm flat at t=0 then strictly decreasing"


# ---------------------------------------------------------------------------
# 10. heterodyne current peak and noise-independent amplitude

def _criterion_10(level: str):
    params = HeterodyneParams(kappa=1.0, nbar=100.0)
    npaths = 10_000 if level == "full" else 4_000
    currents = sample_tilted_currents(params, 20.0, 1e-3, npaths, seed=11)
    st = current_statistics(currents, B=params.B)
    target = params.B * math.sqrt(params.kappa * params.nbar)
    rel = abs(st.peak - target) / target

    pa = NoisePath.draw(params, 2.0, 1e-3, seed=101)
    pb = NoisePath.draw(params, 2.0, 1e-3, seed=202)
    sa = integrate_sse(params, pa)
    sb = integrate_sse(params, pb)
    alpha_dev = abs(sa.alpha - sb.alpha)

    ok = rel < 0.03 and alpha_dev == 0.0
    meas = {"peak": float(st.peak), "target": float(target),
            "rel_dev": float(rel), "npaths": npaths,
            "alpha_noise_dev": float(alpha_dev)}
    return ok, meas, "current magnitude peak and exact amplitude invariance"


# ---------------------------------------------------------------------------
# 11. silent record reproduces the deterministic no-click evolution

def _criterion_11(level: str):
    rep = null_correspondence(HeterodyneParams(kappa=1.0, nbar=4.0), 5.0)
    ok = (rep["max_amplitude_dev"] < 1e-8
          and rep["max_log_prefactor_dev"] < 1e-8
          and rep["norm_factor_dev"] < 1e-10)
    meas = {k: float(rep[k]) for k in
            ("max_amplitude_dev", "max_log_prefactor_dev", "norm_factor_dev")}
    return ok, meas, "zero-noise record against the no-click flow"


# ---------------------------------------------------------------------------
# 12. gauge-shifted drift leaves the physical state alone

def _criterion_12(level: str):
    params = HeterodyneParams(kappa=1.0, nbar=4.0)
    path = NoisePath.draw(params, 3.0, 1e-3, seed=29)
    rep = gauge_equivalence(params, path)
    ok = (rep["max_quadrature_dev"] < 1e-8
          and abs(rep["norm_ratio"] - 1.0) < 1e-8
          and abs(rep["ray_fidelity"] - 1.0) < 1e-8)
    meas = {"max_quadrature_dev": float(rep["max_quadrature_dev"]),
            "norm_ratio_minus_1": float(rep["norm_ratio"] - 1.0),
            "ray_infidelity": float(1.0 - rep["ray_fidelity"]),
            "decomposition_dev": float(rep["decomposition_dev"])}
    return ok, meas, "same quadrature record, same ray"


# ---------------------------------------------------------------------------
# 13. readout error-curve properties

def _criterion_13(level: str):
    ds = figure1_dataset()
    p_next = CavityParams(kappa=1.0, chi=20.0, nbar=100.0)

    mono = bool(np.all(np.diff(ds.eps_dispersive) <= 1e-15))
    late = bool(np.all(ds.eps_dispersive[ds.tau >= 1.7] < 1e-3))
    start_half = ds.eps_dispersive[0] == 0.5

    m = min_error_next_jump(p_next)
    interior = 0.0 < m["tau_min"] < 6.0 and m["chi_t_min"] > 1.0

    e60 = error_next_jump(p_next, 60.0)
    approach = e60 < 0.5 and abs(e60 - 0.5) < 0.01

    freq = y_oscillation_frequency(p_next)
    f_target = p_next.chi / (2.0 * math.pi)
    f_rel = abs(freq - f_target) / f_target

    ok = mono and late and start_half and interior and approach and f_rel < 0.05
    meas = {"dispersive_monotone": mono, "late_below_1e-3": late,
            "min_tau": float(m["tau_min"]), "min_chi_t": float(m["chi_t_min"]),
            "eps_at_60": float(e60), "fft_freq": float(freq),
            "fft_rel_dev": float(f_rel)}
    return ok, meas, "shape constraints on both error curves and the decrement"


# ---------------------------------------------------------------------------
# 14. trajectory average against the density-matrix route

def _criterion_14(level: str):
    ntraj = 10_000 if level == "full" else 2_000

    pa = Atom3Params(omega1=1.0, omega2=0.7, delta2=0.5, beta1=1.0, beta2=0.8)
    ma = _atom3.effective_model(pa)
    ra = lindblad_consistency(ma, ntraj, 3.0, seedbase=14)

    pc = CavityParams(kappa=1.0, nbar=2.0)
    psi0 = np.zeros(17, dtype=complex)
    psi0[0] = 1.0
    psi0[2] = 1.0
    mc = _cavity.effective_model(pc, 16, initial_state=psi0)
    rc = lindblad_consistency(mc, ntraj, 2.0, seedbase=15)

    gap_a = ma.rate_identity_gap(ma.initial_state)
    gap_c = mc.rate_identity_gap(mc.initial_state)

    ok = ra["passed"] and rc["passed"] and max(gap_a, gap_c) < 1e-12
    meas = {"atom_max_dev": float(ra["max_deviation"]),
            "cavity_max_dev": float(rc["max_deviation"]),
            "tolerance": float(ra["tolerance"]), "ntraj": ntraj,
            "rate_identity_gap": float(max(gap_a, gap_c))}
    return ok, meas, "ensemble mean of trajectories vs direct master equation"


# ---------------------------------------------------------------------------
# 15. byte-identical CSV output across runs and thread counts

def _run_cli_csv(argv, threads: str) -> bytes:
    from . import cli
    old = os.environ.get("NEXTJUMP_THREADS")
    os.environ["NEXTJUMP_THREADS"] = threads
    try:
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli exited {code} for {argv}")
    finally:
        if old is None:
            os.environ.pop("NEXTJUMP_THREADS", None)
        else:
            os.environ["NEXTJUMP_THREADS"] = old
    with open(argv[argv.index("--out") + 1], "rb") as fh:
        return fh.read()


def _criterion_15(level: str):
    with tempfile.TemporaryDirectory() as tmp:
        runs = {}
        f1 = os.path.join(tmp, "a.csv")
        runs["telegraph_repeat"] = (
            _run_cli_csv(["telegraph", "--epsilon", "0.05", "--ntraj", "200",
                          "--seed", "7", "--out", f1], "3")
            == _run_cli_csv(["telegraph", "--epsilon", "0.05", "--ntraj", "200",
                             "--seed", "7", "--out", f1], "3"))
        f2 = os.path.join(tmp, "b.csv")
        runs["null_threads"] = (
            _run_cli_csv(["atom3-null", "--seed", "1", "--out", f2], "1")
            == _run_cli_csv(["atom3-null", "--seed", "1", "--out", f2], "3"))
        f3 = os.path.join(tmp, "c.csv")
        runs["cavity_w_repeat"] = (
            _run_cli_csv(["cavity-w", "--nbar", "4", "--kappa", "1",
                          "--tmax", "6", "--out", f3], "2")
            == _run_cli_csv(["cavity-w", "--nbar", "4", "--kappa", "1",
                             "--tmax", "6", "--out", f3], "4"))
    ok = all(runs.values())
    return ok, {k: bool(v) for k, v in runs.items()}, \
        "same config and seed give identical bytes at any thread count"


CRITERION_TITLES = {
    1: "survival-closed-form-vs-fock",
    2: "short-time-cubic-log-survival",
    3: "jump-time-sampling-ks",
    4: "telegraph-dark-statistics",
    5: "strong-drive-log-survival",
    6: "bright-width-triple-estimate",
    7: "dark-norm-slow-decay-fit",
    8: "volterra-vs-perturbative-rate",
    9: "monitored-norm-monotone",
    10: "heterodyne-current-peak",
    11: "silent-limit-correspondence",
    12: "gauge-shift-equivalence",
    13: "readout-error-properties",
    14: "unraveling-vs-lindblad",
    15: "csv-reproducibility",
}

_RUNNERS = {
    1: _criterion_1, 2: _criterion_2, 3: _criterion_3, 4: _criterion_4,
    5: _criterion_5, 6: _criterion_6, 7: _criterion_7, 8: _criterion_8,
    9: _criterion_9, 10: _criterion_10, 11: _criterion_11, 12: _criterion_12,
    13: _criterion_13, 14: _criterion_14, 15: _criterion_15,
}


def run_criterion(index: int, level: str = "fast") -> CriterionResult:
    if index not in _RUNNERS:
        raise ValueError(f"no criterion {index}")
    if level not in ("fast", "full"):
        raise ValueError(f"unknown level {level!r}")
    t0 = time.perf_counter()
    try:
        passed, measured, detail = _RUNNERS[index](level)
    except Exception as exc:  # a crash is a failed criterion, not a crash
        elapsed = time.perf_counter() - t0
        return CriterionResult(index, CRITERION_TITLES[index], False,
                               {"error": type(exc).__name__},
                               f"raised: {exc!r}", elapsed)
    elapsed = time.perf_counter() - t0
    bound = _TIME_BOUNDS.get(index)
    if bound is not None and elapsed > bound:
        passed = False
        measured = dict(measured, time_bound=bound)
        detail += f" [exceeded {bound:g}s budget]"
    return CriterionResult(index, CRITERION_TITLES[index], passed,
                           measured, detail, elapsed)


def run_all(level: str = "fast", indices=None) -> list:
    idx = sorted(indices) if indices is not None else sorted(_RUNNERS)
    return [run_criterion(i, level) for i in idx]
