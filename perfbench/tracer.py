"""Span and counter instrumentation of ``nextjump``, installed from outside.

The tracer rebinds module attributes: every public function defined in one
of the package's modules is replaced by a wrapper that records a span, in
the defining module and in every module that imported the name.
``NullFlow`` is replaced by a subclass that counts builds, eig fallbacks and
survival evaluations; ``CoherentTrajectory.survival`` gets a span; and
``RngStream.generator`` hands out a proxy that counts every variate drawn.
Spans are kept in memory and turned into per-layer self times when a pass
ends.  ``restore`` puts every original attribute back.

A layer is a module of the package; a span named ``cavity.survival_W``
belongs to layer ``cavity``.  Self time is attributed by a sweep over the
pass: at each instant the wall time is split evenly between the innermost
active spans, so worker-thread spans (whose parent is the ``ensemble_map``
call that launched them) never count the same second twice and the self
times of all spans add up to the traced wall time.
"""

from __future__ import annotations

import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("numerics", "trajectories", "cavity", "atom3", "transmon",
          "heterodyne", "readout", "cli", "validation")

#: span name of the benchmark's own root span around one pass
ROOT = "bench.pass"


class _CountingGenerator:
    """numpy ``Generator`` stand-in that counts the variates it returns."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr
        tracer = self._tracer

        def call(*args, **kwargs):
            out = attr(*args, **kwargs)
            tracer.count("numerics.rng.draws", int(np.size(out)))
            return out

        self.__dict__[name] = call      # later lookups skip __getattr__
        return call


def _arg(fn, args, kwargs, name):
    """Value of parameter ``name`` in a call fn(*args, **kwargs)."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# ---------------------------------------------------------------------------
# per-function hooks: work sizes counted where the work happens

def _after_run_trajectory(tr, fn, args, kwargs, result):
    tr.count("trajectories.jumps", int(result.njumps))


def _after_sample_gaps(tr, fn, args, kwargs, result):
    t_hi = float(_arg(fn, args, kwargs, "t_hi"))
    tr.count("trajectories.sample_gaps.samples", int(result.size))
    tr.count("trajectories.sample_gaps.censored",
             int(np.count_nonzero(result >= t_hi * (1.0 - 1e-9))))


def _after_current_sampler(tr, fn, args, kwargs, result):
    nsteps = int(round(_arg(fn, args, kwargs, "duration")
                       / _arg(fn, args, kwargs, "dt")))
    tr.count("heterodyne.samplers.path_steps",
             nsteps * int(_arg(fn, args, kwargs, "npaths")))


def _after_sse_series(tr, fn, args, kwargs, result):
    tr.count("heterodyne.integrate_sse_series.steps",
             int(_arg(fn, args, kwargs, "path").nsteps))


def _after_volterra(tr, fn, args, kwargs, result):
    tr.count("transmon.multiscale_volterra.steps", len(result[0]) - 1)


def _after_cli_main(tr, fn, args, kwargs, result):
    argv = list(_arg(fn, args, kwargs, "argv") or ())
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            tr.count("cli.csv_bytes", os.path.getsize(path))




_AFTER = {
    "trajectories.run_trajectory": _after_run_trajectory,
    "trajectories.sample_gaps": _after_sample_gaps,
    "heterodyne.sample_tilted_currents": _after_current_sampler,
    "heterodyne.sample_ostensible_currents": _after_current_sampler,
    "heterodyne.integrate_sse_series": _after_sse_series,
    "transmon.multiscale_volterra": _after_volterra,
    "cli.main": _after_cli_main,
}


class Tracer:
    """Spans and counters of one traced pass; install, run, collect, restore."""

    def __init__(self):
        self.spans = []            # (sid, parent sid, name, t0, t1)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts = []   # one dict per thread that counted
        self._patches = []         # (holder, attribute, original)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: int = 1) -> None:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
            self._thread_counts.append(counts)
        counts[key] = counts.get(key, 0) + n

    def counts(self) -> dict:
        merged = defaultdict(int)
        for counts in self._thread_counts:
            for key, n in counts.items():
                merged[key] += n
        return dict(merged)

    def span(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def reset(self) -> None:
        self.spans = []
        for counts in self._thread_counts:
            counts.clear()

    def snapshot(self) -> dict:
        """Spans and counts recorded since the last reset."""
        return {"spans": list(self.spans), "counts": self.counts()}

    # -- installing --------------------------------------------------------

    def _wrap_function(self, name, fn):
        tracer = self
        after = _AFTER.get(name)

        if name == "trajectories.ensemble_map":
            def wrapper(task, *args, **kwargs):
                # _inherit reads the parent inside the ensemble_map span
                return tracer.span(name, lambda: fn(tracer._inherit(task),
                                                    *args, **kwargs))
        elif name == "transmon.dark_norm_oracle":
            def wrapper(*args, **kwargs):
                nmax = _arg(fn, args, kwargs, "nmax")
                return tracer.span(f"{name}.nmax{nmax}", fn, *args, **kwargs)
        elif after is not None:
            def wrapper(*args, **kwargs):
                result = tracer.span(name, fn, *args, **kwargs)
                after(tracer, fn, args, kwargs, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _inherit(self, task):
        """task run on a worker thread, parented to the submitting span."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        tracer = self

        def run(*args, **kwargs):
            worker_stack = tracer._stack()
            worker_stack.append(parent)
            try:
                return task(*args, **kwargs)
            finally:
                worker_stack.pop()

        return run

    def _patch(self, holder, attr, new) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def _rebind_everywhere(self, holders, original, new) -> None:
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._patch(holder, attr, new)

    def install(self) -> None:
        """Rebind the package's public functions and classes to traced ones."""
        mods = {layer: sys.modules[f"nextjump.{layer}"] for layer in LAYERS}
        holders = [sys.modules["nextjump"]] + list(mods.values())
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                self._rebind_everywhere(
                    holders, obj, self._wrap_function(f"{layer}.{attr}", obj))
        self._install_classes(mods, holders)

    def _install_classes(self, mods, holders) -> None:
        tracer = self
        base = mods["trajectories"].NullFlow

        class NullFlow(base):
            def __init__(self, *args, **kwargs):
                tracer.span("trajectories.NullFlow", base.__init__, self,
                            *args, **kwargs)
                tracer.count("trajectories.nullflow.builds")
                if not self.uses_eig:
                    tracer.count("trajectories.nullflow.eig_fallbacks")

            def survival(self, t):
                tracer.count("trajectories.survival.calls")
                tracer.count("trajectories.survival.points", int(np.size(t)))
                return base.survival(self, t)

        self._rebind_everywhere(holders, base, NullFlow)

        coherent = mods["cavity"].CoherentTrajectory
        survival = coherent.survival

        def traced_survival(self, t):
            return tracer.span("cavity.survival", survival, self, t)

        self._patch(coherent, "survival", traced_survival)

        stream = mods["numerics"].RngStream
        generator = stream.generator

        def traced_generator(self):
            tracer.count("numerics.rng.generators")
            return _CountingGenerator(generator(self), tracer)

        self._patch(stream, "generator", traced_generator)

    def restore(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)


def attribute(spans) -> tuple:
    """(self seconds, inclusive seconds, calls) per span name.

    Sweeps the span boundaries in time order.  Between two boundaries the
    elapsed time is split evenly between the active spans that have no
    active child; each share counts as self time of that span's name and as
    inclusive time of its name and of every ancestor's name.
    """
    parent = {}
    name = {}
    events = []
    calls = defaultdict(int)
    for sid, par, nm, t0, t1 in spans:
        parent[sid] = par
        name[sid] = nm
        calls[nm] += 1
        events.append((t0, 0, sid))        # starts before ends at one instant,
        events.append((t1, 1, -sid))       # inner ends before outer ends
    events.sort()
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    active = set()
    children = defaultdict(int)
    leaves = set()
    last = None
    for t, kind, key in events:
        if leaves and t > last:
            share = (t - last) / len(leaves)
            for leaf in leaves:
                self_s[name[leaf]] += share
                seen = set()
                sid = leaf
                while sid:
                    if name[sid] not in seen:
                        seen.add(name[sid])
                        total_s[name[sid]] += share
                    sid = parent.get(sid, 0)
        last = t
        if kind == 0:
            sid = key
            active.add(sid)
            leaves.add(sid)
            par = parent[sid]
            if par:
                children[par] += 1
                leaves.discard(par)
        else:
            sid = -key
            active.discard(sid)
            leaves.discard(sid)
            par = parent[sid]
            if par:
                children[par] -= 1
                if par in active and children[par] == 0:
                    leaves.add(par)
    return dict(self_s), dict(total_s), dict(calls)


def _per(total: float, n: float, scale: float) -> float:
    return total / n * scale if n else 0.0


def layer_metrics(snap: dict, obs: dict) -> tuple:
    """Per-layer metric values of one traced pass, plus bookkeeping.

    ``snap`` is the tracer's snapshot taken when the pass ended.  ``obs``
    holds what only the workload knows (Lindblad deviations over their
    tolerance, per model).  Returns (metrics, bookkeeping) where
    metrics maps name -> value and bookkeeping carries the sums the
    self-test checks.
    """
    self_s, total_s, calls = attribute(snap["spans"])
    c = snap["counts"]
    m = {}

    def secs(key, stat="self"):
        return (self_s if stat == "self" else total_s).get(key, 0.0)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                   if k.split(".", 1)[0] == layer)

    runs = calls.get("trajectories.run_trajectory", 0)
    jumps = c.get("trajectories.jumps", 0)
    surv_calls = c.get("trajectories.survival.calls", 0)
    surv_points = c.get("trajectories.survival.points", 0)
    m["trajectories.run_trajectory.calls"] = runs
    m["trajectories.run_trajectory.self_s"] = secs("trajectories.run_trajectory")
    m["trajectories.run_trajectory.us_per_call"] = _per(
        secs("trajectories.run_trajectory", "total"), runs, 1e6)
    m["trajectories.nullflow.builds"] = c.get("trajectories.nullflow.builds", 0)
    m["trajectories.nullflow.eig_fallbacks"] = c.get(
        "trajectories.nullflow.eig_fallbacks", 0)
    m["trajectories.survival.calls"] = surv_calls
    m["trajectories.survival.points"] = surv_points
    m["trajectories.survival.points_per_call"] = _per(surv_points, surv_calls, 1)
    m["trajectories.survival_evals_per_jump"] = _per(surv_calls, jumps, 1)
    m["trajectories.jumps"] = jumps
    m["trajectories.jumps_per_traj"] = _per(jumps, runs, 1)
    m["trajectories.lindblad_consistency.self_s"] = secs(
        "trajectories.lindblad_consistency")
    for model in ("atom", "cavity"):
        key = f"trajectories.lindblad.dev_over_tol.{model}"
        m[key] = obs.get(key, 0.0)
    samples = c.get("trajectories.sample_gaps.samples", 0)
    m["trajectories.sample_gaps.self_s"] = secs("trajectories.sample_gaps")
    m["trajectories.sample_gaps.ns_per_sample"] = _per(
        secs("trajectories.sample_gaps", "total"), samples, 1e9)
    m["trajectories.sample_gaps.censored_frac"] = _per(
        c.get("trajectories.sample_gaps.censored", 0), samples, 1)
    m["trajectories.telegraph_run.self_s"] = secs("trajectories.telegraph_run")

    m["numerics.rng.draws"] = c.get("numerics.rng.draws", 0)
    m["numerics.rng.generators"] = c.get("numerics.rng.generators", 0)
    m["numerics.integrate_ode.calls"] = calls.get("numerics.integrate_ode", 0)
    m["numerics.integrate_ode.self_s"] = secs("numerics.integrate_ode")

    tilted = "heterodyne.sample_tilted_currents"
    ostensible = "heterodyne.sample_ostensible_currents"
    m[f"{tilted}.self_s"] = secs(tilted)
    m[f"{ostensible}.self_s"] = secs(ostensible)
    m["heterodyne.samplers.ns_per_path_step"] = _per(
        secs(tilted, "total") + secs(ostensible, "total"),
        c.get("heterodyne.samplers.path_steps", 0), 1e9)
    m["heterodyne.integrate_sse_series.us_per_step"] = _per(
        secs("heterodyne.integrate_sse_series", "total"),
        c.get("heterodyne.integrate_sse_series.steps", 0), 1e6)
    m["heterodyne.current_statistics.self_s"] = secs(
        "heterodyne.current_statistics")

    for nmax in (200, 100):
        m[f"transmon.dark_norm_oracle.nmax{nmax}.self_s"] = secs(
            f"transmon.dark_norm_oracle.nmax{nmax}")
    # the dark block is (bright, ground, dark) x Fock states 0..nmax
    nmaxes = [int(k.rsplit("nmax", 1)[1]) for k in calls
              if k.startswith("transmon.dark_norm_oracle.nmax")]
    m["transmon.dark_block.dim"] = 3 * (max(nmaxes) + 1) if nmaxes else 0
    m["transmon.multiscale_volterra.self_s"] = secs("transmon.multiscale_volterra")
    m["transmon.multiscale_volterra.us_per_step"] = _per(
        secs("transmon.multiscale_volterra", "total"),
        c.get("transmon.multiscale_volterra.steps", 0), 1e6)

    m["cavity.evolve_fock_oracle.self_s"] = secs("cavity.evolve_fock_oracle")
    m["cavity.survival.calls"] = calls.get("cavity.survival", 0)
    m["cavity.survival.self_s"] = secs("cavity.survival")
    m["readout.figure1_dataset.self_s"] = secs("readout.figure1_dataset")
    m["readout.min_error_next_jump.self_s"] = secs("readout.min_error_next_jump")
    m["cli.main.self_s"] = secs("cli.main")
    m["cli.csv_bytes"] = c.get("cli.csv_bytes", 0)

    root = [s for s in snap["spans"] if s[2] == ROOT]
    book = {
        "traced_wall_s": sum(t1 - t0 for _, _, _, t0, t1 in root),
        "layer_self_sum_s": sum(m[f"{layer}.self_s"] for layer in LAYERS),
        "glue_s": self_s.get(ROOT, 0.0),
        "spans": len(snap["spans"]),
    }
    return m, book
