"""Numbered acceptance checks over the whole package.

Each criterion is one runner, declared once in _CRITERIA with its title and
wall-clock budget.  A runner returns its ``measured`` dict and its gates
(key, relation, bound), and decides nothing.  A gate holds the measured
value v to b by one relation of _RELATIONS: v < b, v <= b, v > b, v == b
(exact), "abs<" abs(v) < b, or "near" abs(v - t) < tol for b = [t, tol].
run_criterion adds the budget as the gate elapsed <= budget, and alone
decides PASS: the runner returned and every gate holds.  The result lists
each gate's value, bound and margin (how far inside its bound the value
lies), so ``validate --out`` records every bound and a FAIL line names each
missed gate.  ``nextjump validate`` runs all fifteen, at the pinned Monte
Carlo sizes, in 1.6 s wall time (median of 9 runs, range 1.5-2.2 s, on a
shared 2-core Intel Xeon, one BLAS thread).  No criterion allocates more
than 20 MB at its peak (criterion 14, traced by tracemalloc); the process's
peak RSS follows heap layout more than that.  The run needs numpy alone, so
no criterion's clock includes a scipy import.  Tolerances, sizes and budgets
are fixed here, not configurable: they are the contract.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from . import atom3 as _atom3
from . import cavity as _cavity
from . import transmon as _transmon
from .atom3 import Atom3Params, beta_ell, scenario_a_log_survival
from .cavity import CavityParams, resonant_flow, evolve_fock_oracle
from .heterodyne import (HeterodyneParams, NoisePath, current_statistics,
                         fock_sse_oracle, gauge_equivalence, integrate_sse,
                         null_correspondence, sample_tilted_currents)
from .numerics import FockVector, RngStream, decay_rate, default_nmax
from .readout import (error_next_jump, figure1_dataset, min_error_next_jump,
                      y_oscillation_frequency)
from .trajectories import (NullFlow, lindblad_consistency, sample_gaps,
                           telegraph_run, telegraph_stats)
from .transmon import TransmonParams, beta_B

__all__ = [
    "CriterionResult",
    "CRITERION_TITLES",
    "format_line",
    "run_criterion",
]

@dataclass(frozen=True)
class CriterionResult:
    index: int
    title: str
    passed: bool
    measured: dict
    gates: list
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
    line = f"criterion {r.index:02d} {status} {r.title} | {kv} | {r.elapsed:.2f}s"
    missed = [f"{g['name']}={_fmt(g['value'])} not {g['relation']} "
              f"{_fmt(g['bound'])}" for g in r.gates if not g["passed"]]
    return line + " | missed " + ", ".join(missed) if missed else line


#: relation -> (test, margin) of value v against bound b
_RELATIONS = {
    "<": lambda v, b: (v < b, b - v),
    "<=": lambda v, b: (v <= b, b - v),
    ">": lambda v, b: (v > b, v - b),
    "==": lambda v, b: (v == b, 0.0 - abs(v - b)),
    "abs<": lambda v, b: (abs(v) < b, b - abs(v)),
    "near": lambda v, b: (abs(v - b[0]) < b[1], b[1] - abs(v - b[0])),
}


def _gate(name: str, value, relation: str, bound) -> dict:
    passed, margin = _RELATIONS[relation](value, bound)
    return {"name": name, "value": value, "relation": relation,
            "bound": bound, "margin": float(margin), "passed": bool(passed)}


# ---------------------------------------------------------------------------
# 1. closed-form survival against the direct Fock integration

def _criterion_1():
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
    meas = {"max_rel_dev": maxrel, "W_at_2": w2}
    return meas, [("max_rel_dev", "<", 1e-6),
                  ("W_at_2", "near", [0.26057, 1e-4])]


# ---------------------------------------------------------------------------
# 2. cubic short-time law of log W

def _criterion_2():
    meas = {}
    for nbar in (4.0, 100.0):
        p = CavityParams(kappa=1.0, nbar=nbar)
        flow = resonant_flow(p)
        ts = np.linspace(0.01, 0.05, 80) / p.kappa
        rate = decay_rate(ts ** 3, flow.survival(ts))
        target = p.nbar * p.kappa ** 3 / 12.0
        rel = abs(rate - target) / target
        meas[f"rel_dev_nbar{int(nbar)}"] = float(rel)
    return meas, [(key, "<", 0.02) for key in meas]


# ---------------------------------------------------------------------------
# 3. inverse-transform jump-time sampling

def _kolmogorov_q(x: float) -> float:
    """Survival function Q(x) = lim P(sqrt(n) D_n > x) of the Kolmogorov
    distribution: 2 sum_k (-1)^(k-1) e^{-2 k^2 x^2} for x >= 1, and below 1
    the Jacobi-theta dual 1 - (sqrt(2 pi)/x) sum_k e^{-(2k-1)^2 pi^2/(8
    x^2)}, where the first series would converge slowly.  Eight terms leave
    each below e^{-100} of the first."""
    if x <= 0.0:
        return 1.0
    ks = range(1, 9)
    if x >= 1.0:
        return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * (k * x) ** 2)
                         for k in ks)
    return 1.0 - math.sqrt(2.0 * math.pi) / x * sum(
        math.exp(-((2 * k - 1) * math.pi / x) ** 2 / 8.0) for k in ks)


def _criterion_3():
    p = CavityParams(kappa=1.0, nbar=4.0)
    flow = resonant_flow(p)
    n = 100_000
    samples = np.sort(sample_gaps(flow.survival, n, RngStream(0, 0),
                                  t_hi=40.0))
    # Kolmogorov-Smirnov D against the CDF 1 - W, with its asymptotic
    # p-value (n is large)
    cdf = 1.0 - flow.survival(samples)
    d_stat = max(np.max(np.arange(1.0, n + 1) / n - cdf),
                 np.max(cdf - np.arange(0.0, n) / n))
    pval = _kolmogorov_q(math.sqrt(n) * d_stat)
    meas = {"ks_stat": float(d_stat), "ks_pvalue": float(pval), "n": n,
            "n_censored": int(np.count_nonzero(samples == 40.0))}
    return meas, [("ks_stat", "<", 0.005)]


# ---------------------------------------------------------------------------
# 4. telegraph dark-period statistics: dark fraction 1/3 and an exponential
# dark-duration tail

def _criterion_4():
    p = Atom3Params(omega1=5.0, omega2=0.05, delta2=5.0, beta1=1.0, beta2=0.0)
    model = _atom3.effective_model(p)
    total = 1e4
    rec = telegraph_run(model, total, RngStream(2, 0))
    st = telegraph_stats(rec, dark_threshold=10.0 / p.beta1)
    z = (st.p_dark - 1.0 / 3.0) / st.p_dark_se

    nf = NullFlow(model.generator, model.initial_state)
    gaps = sample_gaps(nf.survival, 400_000, RngStream(1, 1), t_hi=900.0)
    tail = gaps[gaps > 30.0]
    rate = 1.0 / float(np.mean(tail - 30.0))
    target = 2.0 * beta_ell(p)
    rel = abs(rate - target) / target

    meas = {"p_dark": float(st.p_dark), "z": float(z), "n_dark": st.n_dark,
            "tail_rate": rate, "tail_rate_target": target,
            "tail_rel_dev": float(rel), "n_tail": int(tail.size),
            "n_censored": int(np.count_nonzero(gaps == 900.0))}
    return meas, [("z", "abs<", 3.0), ("tail_rel_dev", "<", 0.10)]


# ---------------------------------------------------------------------------
# 5. strong-drive log survival returned as a log

def _criterion_5():
    p = Atom3Params(omega1=1e10, omega2=0.0, delta2=0.0, beta1=1e9, beta2=0.0)
    logw = scenario_a_log_survival(p, 1.0)
    return {"log_W": float(logw)}, [("log_W", "==", -5e8)]


# ---------------------------------------------------------------------------
# 6. three routes to the bright-level width

def _criterion_6():
    meas = {}
    for chi in (5.0, 10.0, 20.0, 50.0):
        p = TransmonParams(kappa=1.0, chi=chi, nbar=100.0)
        vals = {m: beta_B(p, m)
                for m in ("quadrature", "steepest_descent", "closed_form")}
        ref = vals["closed_form"]
        spread = max(abs(a - b) for a in vals.values()
                     for b in vals.values()) / ref
        meas[f"spread_chi{int(chi)}"] = float(spread)
    gates = [(key, "<", 0.05) for key in meas]
    cf = beta_B(TransmonParams(kappa=1.0, chi=20.0, nbar=100.0), "closed_form")
    meas["closed_form_value"] = float(cf)
    return meas, gates + [("closed_form_value", "near", [7.97885, 1e-4])]


# ---------------------------------------------------------------------------
# 7. slow decay of the dark-block norm

def _criterion_7():
    bb = beta_B(TransmonParams(kappa=1.0, chi=20.0, nbar=100.0), "closed_form")
    p = TransmonParams(kappa=1.0, chi=20.0, nbar=100.0,
                       omega_b=0.1 * bb, omega_d=0.001 * bb)
    _, ts, _, rate, target = _transmon.dark_norm_fit(p, npts=60, nmax=200)
    rel = abs(rate - target) / target
    meas = {"fitted_rate": rate, "target_rate": target, "rel_dev": float(rel),
            "window_lo": float(ts[0]), "window_hi": float(ts[-1]),
            "validity_ratio": _transmon.validity_ratio(p)}
    return meas, [("rel_dev", "<", 0.10)]


# ---------------------------------------------------------------------------
# 8. memory-kernel ground decay vs perturbative rate and the Fock ground truth

def _criterion_8():
    p = TransmonParams(kappa=1.0, chi=20.0, nbar=100.0, omega_b=0.1)
    ts, c, rate = _transmon.multiscale_fit(p, tmax=6.0, dt=0.002,
                                           fit_start=2.0)
    gam = _transmon.slow_rate(p)
    rel = abs(rate - gam) / gam

    # shifted frame: the Fock evolution on every 50th point of the fit
    # window, t = 2, 2.1, ..., 6, follows the Volterra curve
    window = ts >= 2.0
    tg, cg = ts[window][::50], c[window][::50]
    fock = _transmon.two_level_fock(p, tg, nmax=100, frame="shifted")
    curve_dev = float(np.max(np.abs(fock - cg) / cg))

    # unshifted frame: the long-time decay, to t = 3/gamma with the first
    # five points dropped, matches -Re unshifted_rate
    tu = np.linspace(0.0, 3.0 / gam, 40)
    amps = _transmon.two_level_fock(p, tu, nmax=100, frame="unshifted")
    want = -_transmon.unshifted_rate(p).real
    unshifted_dev = abs(decay_rate(tu[5:], amps[5:]) - want) / want

    meas = {"fitted_rate": rate, "perturbative_rate": float(gam),
            "rel_dev": float(rel), "fock_curve_dev": curve_dev,
            "unshifted_rate_rel_dev": float(unshifted_dev)}
    return meas, [("rel_dev", "<", 0.05), ("fock_curve_dev", "<", 1e-6),
                  ("unshifted_rate_rel_dev", "<", 1e-3)]


# ---------------------------------------------------------------------------
# 9. monitored norm decreases from the start

def _criterion_9():
    meas, gates = {}, []
    ts = np.linspace(0.05, 1.0, 20)
    for i, (nbar, om) in enumerate(((4.0, 0.05), (100.0, 0.1), (100.0, 0.05))):
        p = TransmonParams(kappa=1.0, chi=20.0, nbar=nbar, omega_b=om)
        n0, d0 = _transmon.norm_evolution_multiscale(p, 0.0)
        _, dn = _transmon.norm_evolution_multiscale(p, ts)
        meas[f"max_dnorm_dt_{i}"] = float(np.max(dn))
        meas[f"norm_at_0_{i}"], meas[f"dnorm_dt_at_0_{i}"] = n0, d0
        gates += [(f"norm_at_0_{i}", "==", 1.0),
                  (f"dnorm_dt_at_0_{i}", "==", 0.0),
                  (f"max_dnorm_dt_{i}", "<", 0.0)]
    return meas, gates


# ---------------------------------------------------------------------------
# 10. heterodyne current peak, and the kernel's amplitude on the Fock oracle

def _criterion_10():
    params = HeterodyneParams(kappa=1.0, nbar=100.0)
    npaths = 10_000
    currents = sample_tilted_currents(params, 20.0, 1e-3, npaths, seed=11)
    st = current_statistics(currents, B=params.B)
    target = params.B * math.sqrt(params.kappa * params.nbar)
    rel = abs(st.peak - target) / target

    # the kernel's alpha against <c> of explicit Euler on the number basis,
    # 5 substeps a step from the vacuum, on two records at nbar 4: the
    # oracle's first-order error is about 2e-4, a 1e-3 error in alpha's law
    # shows as 1.2e-3
    p4 = HeterodyneParams(kappa=1.0, nbar=4.0)
    vac = FockVector.vacuum(default_nmax(p4.nbar))
    sqrt_n = np.sqrt(np.arange(1, vac.nmax + 1))
    alpha_dev = 0.0
    for seed in (101, 202):
        path = NoisePath.draw(p4, 2.0, 1e-3, seed=seed)
        a = fock_sse_oracle(p4, path, vac, 5).amps
        mean_c = np.vdot(a[:-1], sqrt_n * a[1:]) / np.vdot(a, a).real
        alpha_dev = max(alpha_dev, abs(integrate_sse(p4, path).alpha - mean_c))

    meas = {"peak": float(st.peak), "target": float(target),
            "rel_dev": float(rel), "npaths": npaths,
            "alpha_oracle_dev": float(alpha_dev)}
    return meas, [("rel_dev", "<", 0.03), ("alpha_oracle_dev", "<", 5e-4)]


# ---------------------------------------------------------------------------
# 11. the kernel on a locked record reproduces the no-click evolution

def _criterion_11():
    rep = null_correspondence(HeterodyneParams(kappa=1.0, nbar=4.0), 5.0)
    gates = [("max_amplitude_dev", "<", 1e-8),
             ("max_log_prefactor_dev", "<", 1e-8),
             ("norm_factor_dev", "<", 1e-10)]
    return {k: float(rep[k]) for k, _, _ in gates}, gates


# ---------------------------------------------------------------------------
# 12. gauge-shifted drift leaves the physical state alone

def _criterion_12():
    params = HeterodyneParams(kappa=1.0, nbar=4.0)
    path = NoisePath.draw(params, 3.0, 1e-3, seed=29)
    rep = gauge_equivalence(params, path)
    meas = {"max_quadrature_dev": float(rep["max_quadrature_dev"]),
            "norm_ratio_minus_1": float(rep["norm_ratio"] - 1.0),
            "ray_infidelity": float(1.0 - rep["ray_fidelity"]),
            "decomposition_dev": float(rep["decomposition_dev"])}
    return meas, [("max_quadrature_dev", "<", 1e-8),
                  ("norm_ratio_minus_1", "abs<", 1e-8),
                  ("ray_infidelity", "abs<", 1e-8),
                  ("decomposition_dev", "<", 1e-10)]


# ---------------------------------------------------------------------------
# 13. readout error-curve properties

def _criterion_13():
    ds = figure1_dataset()
    p_next = CavityParams(kappa=1.0, chi=20.0, nbar=100.0)

    mono = bool(np.all(np.diff(ds.eps_dispersive) <= 1e-15))
    late = bool(np.all(ds.eps_dispersive[ds.tau >= 1.7] < 1e-3))
    m = min_error_next_jump(p_next)
    e60 = error_next_jump(p_next, 60.0)
    freq = y_oscillation_frequency(p_next)
    f_target = p_next.chi / (2.0 * math.pi)
    f_rel = abs(freq - f_target) / f_target

    meas = {"dispersive_monotone": mono, "late_below_1e-3": late,
            "min_tau": float(m["tau_min"]), "min_chi_t": float(m["chi_t_min"]),
            "eps_at_60": float(e60), "fft_freq": float(freq),
            "fft_rel_dev": float(f_rel),
            "eps_dispersive_0": float(ds.eps_dispersive[0])}
    return meas, [("dispersive_monotone", "==", True),
                  ("late_below_1e-3", "==", True),
                  ("eps_dispersive_0", "==", 0.5),
                  ("min_tau", ">", 0.0), ("min_tau", "<", 6.0),
                  ("min_chi_t", ">", 1.0),
                  ("eps_at_60", "<", 0.5), ("eps_at_60", "near", [0.5, 0.01]),
                  ("fft_rel_dev", "<", 0.05)]


# ---------------------------------------------------------------------------
# 14. trajectory average against the density-matrix route

def _criterion_14():
    ntraj = 10_000

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

    tol = 5.0 / math.sqrt(ntraj)   # the Monte Carlo band on each element
    meas = {"atom_max_dev": float(ra["max_deviation"]),
            "cavity_max_dev": float(rc["max_deviation"]),
            "ntraj": ntraj,
            "rate_identity_gap": float(max(gap_a, gap_c))}
    return meas, [("atom_max_dev", "<", tol), ("cavity_max_dev", "<", tol),
                  ("rate_identity_gap", "<", 1e-12)]


# ---------------------------------------------------------------------------
# 15. byte-identical CSV output across repeat runs

def _run_cli_csv(argv) -> bytes:
    from . import cli
    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cli exited {code} for {argv}")
    with open(argv[argv.index("--out") + 1], "rb") as fh:
        return fh.read()


def _criterion_15():
    repeats = {
        "telegraph_repeat": ["telegraph", "--epsilon", "0.05", "--ntraj",
                             "200", "--seed", "7"],
        "atom3_null_repeat": ["atom3-null", "--seed", "1"],
        "cavity_w_repeat": ["cavity-w", "--nbar", "4", "--kappa", "1",
                            "--tmax", "6"],
    }
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for key, argv in repeats.items():
            argv = argv + ["--out", os.path.join(tmp, key + ".csv")]
            runs[key] = _run_cli_csv(argv) == _run_cli_csv(argv)
    return runs, [(key, "==", True) for key in runs]


# index -> (title, runner, wall-clock budget in seconds); the budgets are
# part of the contract: a few times each criterion's measured time, at
# least 1 s
_CRITERIA = {
    1: ("survival-closed-form-vs-fock", _criterion_1, 1.0),
    2: ("short-time-cubic-log-survival", _criterion_2, 1.0),
    3: ("jump-time-sampling-ks", _criterion_3, 1.0),
    4: ("telegraph-dark-statistics", _criterion_4, 2.5),
    5: ("strong-drive-log-survival", _criterion_5, 1.0),
    6: ("bright-width-triple-estimate", _criterion_6, 1.0),
    7: ("dark-norm-slow-decay-fit", _criterion_7, 4.0),
    8: ("volterra-vs-perturbative-rate", _criterion_8, 1.0),
    9: ("monitored-norm-monotone", _criterion_9, 1.0),
    10: ("heterodyne-current-peak", _criterion_10, 1.0),
    11: ("silent-limit-correspondence", _criterion_11, 1.0),
    12: ("gauge-shift-equivalence", _criterion_12, 1.0),
    13: ("readout-error-properties", _criterion_13, 1.0),
    14: ("unraveling-vs-lindblad", _criterion_14, 2.0),
    15: ("csv-reproducibility", _criterion_15, 1.0),
}

CRITERION_TITLES = {i: title for i, (title, _, _) in _CRITERIA.items()}


def run_criterion(index: int) -> CriterionResult:
    if index not in _CRITERIA:
        raise ValueError(f"no criterion {index}")
    title, runner, budget = _CRITERIA[index]
    t0 = time.perf_counter()
    try:
        measured, gates = runner()
    except Exception as exc:  # a crash is a failed criterion, not a crash
        measured, gates = {"error": repr(exc)}, None
    elapsed = time.perf_counter() - t0
    checked = [_gate(key, measured[key], relation, bound)
               for key, relation, bound in gates or ()]
    checked.append(_gate("elapsed", elapsed, "<=", budget))
    passed = gates is not None and all(g["passed"] for g in checked)
    return CriterionResult(index, title, passed, measured, checked, elapsed)
