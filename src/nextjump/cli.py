"""Command-line front end.

Every data subcommand resolves its configuration the same way: built-in
defaults, then a flat JSON config file (--config), then explicit flags, in
that order of increasing precedence.  It writes one CSV (RFC 4180, header
row, shortest round-trip float formatting) and a JSON sidecar next to it
holding the fully resolved config, a result summary, the explicitly given
flags and the wall time.  A command hands the writer columns, each a
homogeneous 1-D array, list or range, all of one length.  Each becomes
Python scalars once (``tolist``; a bool array as 0/1), so the csv module
formats every float with ``repr`` in C.  ``abs_I`` is ``hypot(re, im)``,
which rounds as the scalar ``abs(c)`` does; ``np.abs`` of a complex array
does not, in the last bit.  Reruns with the same resolved config and seed
produce byte-identical CSV at a fixed BLAS thread count; ``transmon-dark``'s
dense eigendecomposition rounds differently on one OpenBLAS thread than on
two, which moves its norms from about the eleventh significant digit.
The package runs on numpy and the standard library alone: no module
imports scipy, so no command, ``validate`` included, loads it (a start-up
test runs every command in an interpreter where ``import scipy`` fails).

Exit codes: 0 success, 2 invalid configuration or arguments (a NaN or
infinite number, or a model parameter outside its domain, among them), 3
numerical failure (a non-finite summary value among them, caught before
anything is written), 4 I/O failure.
``validate`` runs the one acceptance protocol of ``validation``, every
criterion or those --criteria names, at its pinned sizes.  It reports
criterion failures as report lines and still exits 0; only being unable to
run is an error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import atom3 as _atom3
from . import cavity as _cavity
from . import transmon as _transmon
from .atom3 import Atom3Params, beta_ell, dark_fraction
from .cavity import CavityParams, mean_jump_time, resonant_flow
from .heterodyne import (HeterodyneParams, NoisePath, current_statistics,
                         integrate_sse_series, norm_weighted_mean_abs,
                         sample_ostensible_currents, sample_raw_currents,
                         sample_tilted_currents)
from .numerics import (IntegrationError, ParameterError, RngStream,
                       TruncationError, decay_rate)
from .readout import figure1_dataset, min_error_next_jump, y_oscillation_frequency
from .trajectories import NullFlow, _telegraph_horizon, telegraph_run, telegraph_stats
from .transmon import TransmonParams, beta_B

__all__ = ["main"]

_NUMERICAL_ERRORS = (ValueError, ArithmeticError, IntegrationError,
                     TruncationError, np.linalg.LinAlgError)


@dataclasses.dataclass(frozen=True)
class Flag:
    name: str                  # config key; CLI spelling swaps _ for -
    type: type
    default: object
    help: str
    positive: bool = False     # require value > 0
    choices: tuple = ()


@dataclasses.dataclass(frozen=True)
class Command:
    name: str
    aliases: tuple
    out_default: str
    flags: tuple
    # cfg dict -> (header, columns, summary); one homogeneous 1-D array,
    # list or range per name, all of one length, each converted once
    run: object
    help: str


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


# ---------------------------------------------------------------------------
# command implementations

def _run_cavity_w(cfg):
    p = CavityParams(kappa=cfg["kappa"], nbar=cfg["nbar"])
    flow = resonant_flow(p)
    ts = np.linspace(0.0, cfg["tmax"], cfg["npts"])
    w = flow.survival(ts)
    d = flow.jump_density(ts)
    summary = {"W_final": float(w[-1]), "mean_jump_time": mean_jump_time(p)}
    return ("t", "W", "D"), (ts, w, d), summary


def _run_cavity_detuned(cfg):
    p = CavityParams(kappa=cfg["kappa"], chi=cfg["chi"], nbar=cfg["nbar"])
    flow = _cavity.detuned_flow(p, 0j)
    ts = np.linspace(0.0, cfg["tmax"], cfg["npts"])
    al = flow.alpha(ts)
    be = flow.beta(ts)
    w = flow.survival(ts)
    gl = flow.alpha_inf          # the dim fixed point gamma_L
    summary = {"gamma_L_re": gl.real, "gamma_L_im": gl.imag,
               "gamma_L_abs": abs(gl),
               "alpha_steady_re": gl.real, "alpha_steady_im": gl.imag,
               "W_final": float(w[-1])}
    return (("t", "re_alpha", "im_alpha", "re_beta", "im_beta", "W"),
            (ts, al.real, al.imag, be.real, be.imag, w), summary)


def _run_atom3_null(cfg):
    p = Atom3Params(omega1=cfg["omega1"], omega2=cfg["omega2"],
                    delta2=cfg["delta2"], beta1=cfg["beta1"],
                    beta2=cfg["beta2"])
    model = _atom3.effective_model(p)
    nf = NullFlow(model.generator, model.initial_state)
    ts = np.linspace(0.0, cfg["tmax"], cfg["npts"])
    w = nf.survival(ts)
    m = ts >= cfg["fit_start"]
    rate = decay_rate(ts[m], w[m])
    target = 2.0 * beta_ell(p)
    summary = {"two_beta_ell": target,
               "p_dark_formula": dark_fraction(p)[0],
               "fitted_slow_rate": rate,
               "rel_dev": abs(rate - target) / target}
    return ("t", "W", "logW"), (ts, w, np.log(w)), summary


def _run_telegraph(cfg):
    omega2 = cfg["epsilon"] * cfg["beta1"]
    p = Atom3Params(omega1=cfg["omega1"], omega2=omega2, delta2=cfg["delta2"],
                    beta1=cfg["beta1"], beta2=cfg["beta2"])
    model = _atom3.effective_model(p)
    rec = telegraph_run(model, math.inf, RngStream(cfg["seed"], 0),
                        ngaps=cfg["ntraj"])
    gaps = rec.gaps
    thr = cfg["dark_threshold"]
    st = telegraph_stats(rec, thr)
    summary = {"p_dark": st.p_dark, "p_dark_se": st.p_dark_se,
               "n_dark": st.n_dark, "dark_threshold": thr,
               "n_censored": int(np.sum(gaps == _telegraph_horizon(model))),
               "p_dark_formula": dark_fraction(p)[0],
               "beta_ell": beta_ell(p)}
    for label, share in st.branch_fractions.items():
        summary[f"dark_ended_by_{label}"] = share
    return (("k", "gap", "channel", "dark"),
            (range(gaps.size), gaps, np.asarray(model.labels)[rec.channels],
             gaps > thr), summary)


def _run_transmon_dark(cfg):
    base = TransmonParams(kappa=cfg["kappa"], chi=cfg["chi"], nbar=cfg["nbar"])
    omega_b = cfg["epsilon"] * beta_B(base, "closed_form")
    p = TransmonParams(kappa=cfg["kappa"], chi=cfg["chi"], nbar=cfg["nbar"],
                       omega_b=omega_b, omega_d=cfg["eta"] * omega_b)
    spectrum, ts, norms, rate, target = _transmon.dark_norm_fit(
        p, cfg["npts"], cfg["nmax"])
    summary = {"beta_b": spectrum.beta_b,
               "i_e_plus": spectrum.i_e_plus,
               "i_e_minus": spectrum.i_e_minus,
               "i_e_plus_asymptotic": spectrum.i_e_plus_asymptotic,
               "i_e_minus_asymptotic": spectrum.i_e_minus_asymptotic,
               "fitted_rate": rate, "target_rate": target,
               "rel_dev": abs(rate - target) / target,
               "window_lo": float(ts[0]), "window_hi": float(ts[-1])}
    return ("t", "norm_sq"), (ts, norms), summary


def _run_transmon_multiscale(cfg):
    p = TransmonParams(kappa=cfg["kappa"], chi=cfg["chi"], nbar=cfg["nbar"],
                       omega_b=cfg["omega_b"])
    ts, c, rate = _transmon.multiscale_fit(p, cfg["tmax"], cfg["dt"],
                                           cfg["fit_start"])
    gam = _transmon.slow_rate(p)
    summary = {"fitted_rate": rate, "perturbative_rate": gam,
               "rel_dev": abs(rate - gam) / gam}
    return ("t", "C"), (ts, c), summary


def _run_heterodyne_sse(cfg):
    params = HeterodyneParams(kappa=cfg["kappa"], nbar=cfg["nbar"])
    path = NoisePath.draw(params, cfg["duration"], cfg["dt"], cfg["seed"])
    series = integrate_sse_series(params, path, every=cfg["every"])
    al, be, rec = (np.array([getattr(s, f) for s in series])
                   for f in ("alpha", "beta", "record_T"))
    last = series[-1]
    cur = last.current()
    summary = {"alpha_final_re": last.alpha.real,
               "alpha_final_im": last.alpha.imag,
               "log_norm_sq_final": last.log_norm_sq(),
               "current_re": cur.real, "current_im": cur.imag,
               "current_abs": abs(cur)}
    return (("t", "re_alpha", "im_alpha", "re_beta", "im_beta",
             "log_norm_sq", "re_T", "im_T"),
            ([s.t for s in series], al.real, al.imag, be.real, be.imag,
             [s.log_norm_sq() for s in series], rec.real, rec.imag), summary)


def _run_heterodyne_current(cfg):
    params = HeterodyneParams(kappa=cfg["kappa"], nbar=cfg["nbar"])
    mode = cfg["mode"]
    logw = None
    if mode == "tilted":
        cur = sample_tilted_currents(params, cfg["duration"], cfg["dt"],
                                     cfg["npaths"], cfg["seed"])
    elif mode == "raw":
        cur = sample_raw_currents(params, cfg["duration"], cfg["dt"],
                                  cfg["npaths"], cfg["seed"])
    else:
        cur, logw = sample_ostensible_currents(params, cfg["duration"],
                                               cfg["dt"], cfg["npaths"],
                                               cfg["seed"])
    st = current_statistics(cur, B=params.B)
    summary = {"peak": st.peak, "mean": st.mean, "std": st.std,
               "rel_width": st.rel_width,
               "target": params.B * np.sqrt(params.kappa * params.nbar),
               "mode": mode}
    # hypot rounds as abs(c) does; np.abs(cur) differs in the last bit
    header = ("k", "re_I", "im_I", "abs_I")
    columns = (range(cur.size), cur.real, cur.imag, np.hypot(cur.real, cur.imag))
    if logw is None:
        return header, columns, summary
    summary["weighted_mean_abs"] = norm_weighted_mean_abs(cur, logw)
    return header + ("log_weight",), columns + (logw,), summary


def _run_figure1(cfg):
    tau = np.linspace(0.0, cfg["tmax"], cfg["npts"])
    ds = figure1_dataset(nbar=cfg["nbar"], kappa=cfg["kappa"],
                         chi_over_kappa_nextjump=cfg["chi_nextjump"],
                         chi_over_kappa_dispersive=cfg["chi_dispersive"],
                         tau=tau)
    p_next = CavityParams(kappa=cfg["kappa"],
                          chi=cfg["chi_nextjump"] * cfg["kappa"],
                          nbar=cfg["nbar"])
    m = min_error_next_jump(p_next, tau_max=cfg["tmax"])
    summary = {"eps_min": m["eps_min"], "tau_min": m["tau_min"],
               "chi_t_min": m["chi_t_min"],
               "fft_freq": y_oscillation_frequency(p_next),
               "Y_final": float(ds.Y[-1])}
    return (("tau", "eps", "eps_dr", "Y"),
            (ds.tau, ds.eps_nextjump, ds.eps_dispersive, ds.Y), summary)


_SEED = Flag("seed", int, 0, "base random seed (echoed even when unused)")

COMMANDS = (
    Command("cavity-w", (), "w.csv", (
        Flag("nbar", float, 4.0, "steady intracavity photon number", True),
        Flag("kappa", float, 1.0, "cavity decay rate", True),
        Flag("tmax", float, 6.0, "time grid end", True),
        Flag("npts", int, 601, "time grid points", True),
        _SEED,
    ), _run_cavity_w, "no-click probability and first-click density"),
    Command("cavity-detuned", (), "detuned.csv", (
        Flag("nbar", float, 100.0, "steady photon number of the matched state", True),
        Flag("kappa", float, 1.0, "cavity decay rate", True),
        Flag("chi", float, 20.0, "qubit-state detuning of the cavity pull"),
        Flag("tmax", float, 6.0, "time grid end", True),
        Flag("npts", int, 601, "time grid points", True),
        _SEED,
    ), _run_cavity_detuned, "coherent amplitude flow when the drive is detuned"),
    Command("atom3-null", (), "null.csv", (
        Flag("omega1", float, 1.0, "strong transition drive"),
        Flag("omega2", float, 0.05, "weak transition drive"),
        Flag("delta2", float, 0.0, "weak transition detuning"),
        Flag("beta1", float, 1.0, "fast level width", True),
        Flag("beta2", float, 0.0, "weak level width"),
        Flag("tmax", float, 150.0, "time grid end", True),
        Flag("npts", int, 2000, "time grid points", True),
        Flag("fit_start", float, 40.0, "start of the slow-slope fit window"),
        _SEED,
    ), _run_atom3_null, "click-free norm decay of the three-level atom"),
    Command("atom3-telegraph", ("telegraph",), "telegraph.csv", (
        Flag("epsilon", float, 0.05, "weak drive over fast width", True),
        Flag("omega1", float, 5.0, "strong transition drive"),
        Flag("delta2", float, 5.0, "weak transition detuning"),
        Flag("beta1", float, 1.0, "fast level width", True),
        Flag("beta2", float, 0.0, "weak level width"),
        Flag("ntraj", int, 200, "number of inter-click gaps to record", True),
        Flag("dark_threshold", float, 10.0, "gap length that counts as dark", True),
        _SEED,
    ), _run_telegraph, "sampled inter-click gaps and dark-period statistics"),
    Command("transmon-dark", (), "dark.csv", (
        Flag("chi", float, 20.0, "dispersive pull"),
        Flag("kappa", float, 1.0, "cavity decay rate", True),
        Flag("nbar", float, 100.0, "steady photon number", True),
        Flag("epsilon", float, 0.1, "bright drive over bright width", True),
        Flag("eta", float, 0.01, "dark drive over bright drive", True),
        Flag("nmax", int, 200, "photon truncation", True),
        Flag("npts", int, 60, "fit grid points", True),
        _SEED,
    ), _run_transmon_dark, "dark-block norm decay and its slow eigenvalue"),
    Command("transmon-multiscale", (), "multiscale.csv", (
        Flag("chi", float, 20.0, "dispersive pull"),
        Flag("kappa", float, 1.0, "cavity decay rate", True),
        Flag("nbar", float, 100.0, "steady photon number", True),
        Flag("omega_b", float, 0.1, "bright transition drive"),
        Flag("tmax", float, 6.0, "integration end", True),
        Flag("dt", float, 0.002, "memory-kernel grid step", True),
        Flag("fit_start", float, 2.0, "start of the decay fit window"),
        _SEED,
    ), _run_transmon_multiscale, "ground decay with full bright-excursion memory"),
    Command("heterodyne-sse", (), "sse.csv", (
        Flag("nbar", float, 4.0, "steady photon number", True),
        Flag("kappa", float, 1.0, "cavity decay rate", True),
        Flag("duration", float, 2.0, "integration time", True),
        Flag("dt", float, 1e-4, "noise step", True),
        Flag("every", int, 100, "steps between CSV snapshots", True),
        _SEED,
    ), _run_heterodyne_sse, "one conditional trajectory along a noise record"),
    Command("heterodyne-current", (), "current.csv", (
        Flag("nbar", float, 100.0, "steady photon number", True),
        Flag("kappa", float, 1.0, "cavity decay rate", True),
        Flag("duration", float, 20.0, "integration time per path", True),
        Flag("dt", float, 1e-3, "noise step", True),
        Flag("npaths", int, 2000, "ensemble size", True),
        Flag("mode", str, "tilted", "sampling measure",
             choices=("tilted", "raw", "ostensible")),
        _SEED,
    ), _run_heterodyne_current, "ensemble of demodulated measurement currents"),
    Command("readout-figure1", ("figure1",), "fig1.csv", (
        Flag("nbar", float, 100.0, "steady photon number", True),
        Flag("kappa", float, 1.0, "cavity decay rate", True),
        Flag("chi_nextjump", float, 20.0, "pull over kappa for the jump readout", True),
        Flag("chi_dispersive", float, 0.5, "pull over kappa for the averaged readout", True),
        Flag("tmax", float, 6.0, "tau grid end", True),
        Flag("npts", int, 1201, "tau grid points", True),
        _SEED,
    ), _run_figure1, "readout error curves and the log-decrement"),
)

_BY_NAME = {}
for _c in COMMANDS:
    _BY_NAME[_c.name] = _c
    for _a in _c.aliases:
        _BY_NAME[_a] = _c


# ---------------------------------------------------------------------------
# configuration plumbing

class _ConfigError(Exception):
    pass


def _coerce(flag: Flag, value):
    if flag.type is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _ConfigError(f"{flag.name} must be a number, got {value!r}")
        out = float(value)
        if not math.isfinite(out):
            raise _ConfigError(f"{flag.name} must be finite, got {out!r}")
    elif flag.type is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise _ConfigError(f"{flag.name} must be an integer, got {value!r}")
        out = int(value)
    else:
        if not isinstance(value, str):
            raise _ConfigError(f"{flag.name} must be a string, got {value!r}")
        out = value
    if flag.positive and not out > 0:
        raise _ConfigError(f"{flag.name} must be positive, got {out!r}")
    if flag.choices and out not in flag.choices:
        raise _ConfigError(f"{flag.name} must be one of {flag.choices}, got {out!r}")
    return out


def _resolve_config(cmd: Command, args) -> tuple:
    """defaults < config file < explicit flags; returns (config, given_flags)."""
    cfg = {f.name: f.default for f in cmd.flags}
    by_name = {f.name: f for f in cmd.flags}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise _ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise _ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise _ConfigError("config file must hold a flat JSON object")
        for key, value in loaded.items():
            if key not in by_name:
                raise _ConfigError(f"unknown config key {key!r} for {cmd.name}")
            cfg[key] = _coerce(by_name[key], value)
    given = {}
    for f in cmd.flags:
        value = getattr(args, f.name)
        if value is not None:
            cfg[f.name] = _coerce(f, value)
            given[f.name] = cfg[f.name]
    return cfg, given


def _write_outputs(out_path: str, header, columns, sidecar: dict) -> None:
    """Write the CSV column by column, then the sidecar.  Raises ValueError,
    before opening any file, when the columns do not match the header or
    differ in length (zip would cut the longer ones short)."""
    lengths = [len(c) for c in columns]
    if len(lengths) != len(header) or len(set(lengths)) > 1:
        raise ValueError(f"CSV columns of lengths {lengths} under a header "
                         f"of {len(header)} names")
    cells = [(c.view(np.uint8) if c.dtype == np.bool_ else c).tolist()
             if isinstance(c, np.ndarray) else c for c in columns]
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))
    side_path = os.path.splitext(out_path)[0] + ".json"
    with open(side_path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(sidecar), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):   # keep exit-code contract without sys.exit noise
        raise _ConfigError(message)


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="nextjump",
                     description="next-photon qubit readout toolbox")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for cmd in COMMANDS:
        sp = sub.add_parser(cmd.name, aliases=list(cmd.aliases), help=cmd.help)
        sp.add_argument("--config", type=str, default=None,
                        help="flat JSON object with flag values")
        sp.add_argument("--out", type=str, default=None,
                        help=f"CSV output path (default {cmd.out_default})")
        for f in cmd.flags:
            opt = "--" + f.name.replace("_", "-")
            kwargs = {"default": None, "help": f.help}
            if f.choices:
                kwargs["choices"] = list(f.choices)
            else:
                kwargs["type"] = f.type
            sp.add_argument(opt, **kwargs)
    vp = sub.add_parser("validate", help="run the numbered acceptance checks")
    vp.add_argument("--criteria", type=str, default=None,
                    help="comma-separated criterion numbers (default: all)")
    vp.add_argument("--out", type=str, default=None,
                    help="optional JSON report path")
    return parser


def _cmd_validate(args) -> int:
    from . import validation
    indices = None
    if args.criteria is not None:
        try:
            indices = sorted({int(tok) for tok in args.criteria.split(",") if tok})
        except ValueError:
            print("error: --criteria must be comma-separated integers",
                  file=sys.stderr)
            return 2
        bad = [i for i in indices if i not in validation.CRITERION_TITLES]
        if bad:
            print(f"error: no such criterion: {bad}", file=sys.stderr)
            return 2
    results = []
    for idx in (indices or sorted(validation.CRITERION_TITLES)):
        r = validation.run_criterion(idx)
        results.append(r)
        print(validation.format_line(r), flush=True)
    n_fail = sum(1 for r in results if not r.passed)
    print(f"validate: {len(results) - n_fail}/{len(results)} passed")
    if args.out is not None:
        report = {"results": [dataclasses.asdict(r) for r in results]}
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(_jsonable(report), fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            print(f"i/o failure: {exc}", file=sys.stderr)
            return 4
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "validate":
        return _cmd_validate(args)

    cmd = _BY_NAME[args.command]
    try:
        cfg, given = _resolve_config(cmd, args)
    except _ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    try:
        header, columns, summary = cmd.run(cfg)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - t0
    bad = [k for k, v in summary.items()
           if isinstance(v, (int, float, complex, np.number))
           and not np.isfinite(v)]
    if bad:
        print(f"numerical failure: non-finite summary value for "
              f"{', '.join(bad)}", file=sys.stderr)
        return 3

    out_path = args.out if args.out is not None else cmd.out_default
    sidecar = {"config": cfg, "summary": summary, "flags": given,
               "wall_time_seconds": wall}
    try:
        _write_outputs(out_path, header, columns, sidecar)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
