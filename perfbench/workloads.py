"""The four benchmark workloads.

Each workload builds its models once (``setup``), makes a pass's inputs
from a seed (``inputs``, untimed), runs one pass through the package's
public entry points (``run``, timed) and checks the outputs against the
package's closed forms and oracles (``check``, untimed).

Statistical checks are set so that a correct program fails one of them on
fewer than about one pass in 10^4: a benchmark session runs several hundred
passes on seeds nobody chose, and one false alarm marks the whole run
incorrect.  Where that needed a wider limit than the acceptance criterion
the check mirrors, the docstring of the check says so.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np


def derive_seed(*parts) -> int:
    """Stable 32-bit seed from any tuple of labels."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "little")


class StepError:
    """Stands in for the output of a call that raised."""

    def __init__(self, exc: BaseException):
        self.message = f"{type(exc).__name__}: {exc}"


def step(out: dict, label: str, fn, *args, **kwargs):
    """out[label] = fn(...); an exception is stored, not raised."""
    try:
        out[label] = fn(*args, **kwargs)
    except Exception as exc:  # a failing call is a failed check, not a crash
        out[label] = StepError(exc)
    return out[label]


class Checks:
    """Counts checks attempted and failed; keeps a message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.obs = {}

    def expect(self, label: str, ok: bool, measured, limit) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"{label}: measured {measured!r}, "
                                 f"limit {limit}")
        return bool(ok)

    def output(self, out: dict, label: str):
        """Output of step ``label``, or None after counting its failure."""
        value = out.get(label)
        if isinstance(value, StepError):
            self.expect(f"{label} raised", False, value.message, "no exception")
            return None
        return value

    def cli(self, out: dict, label: str, csv_name: str):
        """Sidecar of a cli.main step, or None after counting a failure."""
        code = self.output(out, label)
        if code is None:
            return None
        if not self.expect(f"{label} exit code", code == 0, code, 0):
            return None
        with open(os.path.splitext(csv_name)[0] + ".json",
                  encoding="utf-8") as fh:
            return json.load(fh)


def ks_sqrt_n(samples: np.ndarray, cdf) -> float:
    """sqrt(n) times the Kolmogorov-Smirnov distance of samples to cdf."""
    x = np.sort(samples)
    n = x.size
    f = cdf(x)
    i = np.arange(1, n + 1)
    d = max(float(np.max(i / n - f)), float(np.max(f - (i - 1) / n)))
    return d * math.sqrt(n)


#: sqrt(n) D above 3.0 has probability 2 exp(-18) ~ 3e-8 for a correct sampler
KS_LIMIT = 3.0


def csv_rows(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()[1:]


class Workload:
    name = ""

    def __init__(self, nj, tiny: bool):
        self.nj = nj
        self.tiny = tiny

    def setup(self) -> None:
        raise NotImplementedError

    def inputs(self, seed: int, index) -> dict:
        return {"seed": derive_seed(seed, self.name, index)}

    def run(self, inp: dict, out: dict) -> None:
        raise NotImplementedError

    def check(self, inp: dict, out: dict, checks: Checks) -> None:
        raise NotImplementedError


class JumpUnravel(Workload):
    """Criterion 14: jump unravelings against the Lindblad equation."""

    name = "jump-unravel"

    def setup(self):
        nj = self.nj
        self.ntraj = 60 if self.tiny else 250
        pa = nj.atom3.Atom3Params(omega1=1.0, omega2=0.7, delta2=0.5,
                                  beta1=1.0, beta2=0.8)
        self.models = {"atom": (nj.atom3.effective_model(pa), 3.0)}
        psi0 = np.zeros(17, dtype=complex)
        psi0[[0, 2]] = 1.0
        pc = nj.cavity.CavityParams(kappa=1.0, nbar=2.0)
        self.models["cavity"] = (
            nj.cavity.effective_model(pc, 16, initial_state=psi0), 2.0)

    def inputs(self, seed, index):
        return {m: derive_seed(seed, self.name, index, m) for m in self.models}

    def run(self, inp, out):
        tr = self.nj.trajectories
        for m, (model, t) in self.models.items():
            step(out, m, tr.lindblad_consistency, model, self.ntraj, t,
                 seedbase=inp[m])
            step(out, f"{m}_rate_gap", model.rate_identity_gap,
                 model.initial_state)

    def check(self, inp, out, checks):
        tol = 5.0 / math.sqrt(self.ntraj)
        for m in self.models:
            rep = checks.output(out, m)
            if rep is not None:
                dev = rep["max_deviation"]
                checks.obs[f"trajectories.lindblad.dev_over_tol.{m}"] = dev / tol
                checks.expect(f"{m} ensemble vs Lindblad max deviation",
                              dev < tol, dev, tol)
            gap = checks.output(out, f"{m}_rate_gap")
            if gap is not None:
                checks.expect(f"{m} rate identity gap", gap < 1e-12, gap, 1e-12)


class GapSample(Workload):
    """Criteria 3 and 4: iid first-jump times and a telegraph record."""

    name = "gap-sample"

    def setup(self):
        nj = self.nj
        self.n_atom = 5_000 if self.tiny else 150_000
        self.n_cavity = 5_000 if self.tiny else 100_000
        self.total_time = 1e3 if self.tiny else 1e4
        self.atom_params = nj.atom3.Atom3Params(omega1=5.0, omega2=0.05,
                                                delta2=5.0, beta1=1.0,
                                                beta2=0.0)
        self.atom = nj.atom3.effective_model(self.atom_params)
        self.cavity = nj.cavity.resonant_flow(
            nj.cavity.CavityParams(kappa=1.0, nbar=4.0))
        self.tail_target = 2.0 * nj.atom3.beta_ell(self.atom_params)

    def inputs(self, seed, index):
        return {k: derive_seed(seed, self.name, index, k)
                for k in ("atom", "cavity", "telegraph")}

    def run(self, inp, out):
        nj = self.nj
        tr = nj.trajectories
        stream = nj.numerics.RngStream
        flow = step(out, "atom_flow", tr.NullFlow, self.atom.generator,
                    self.atom.initial_state)
        if not isinstance(flow, StepError):
            step(out, "atom_gaps", tr.sample_gaps, flow.survival, self.n_atom,
                 stream(inp["atom"], 1), t_hi=900.0)
        step(out, "cavity_gaps", tr.sample_gaps, self.cavity.survival,
             self.n_cavity, stream(inp["cavity"], 0), t_hi=40.0)
        rec = step(out, "telegraph", tr.telegraph_run, self.atom,
                   self.total_time, stream(inp["telegraph"], 0))
        if not isinstance(rec, StepError):
            step(out, "stats", tr.telegraph_stats, rec, 10.0)

    def check(self, inp, out, checks):
        """KS of both gap samples against 1 - W; dark tail rate; p_dark.

        Criterion 4 asks for a tail rate within 10% of 2 beta_ell and p_dark
        within 3 SE of 1/3.  Here the tail rate may also deviate by 5
        standard errors of its estimate (1/sqrt(n_tail), n_tail ~ 1200):
        the exact slow eigenvalue sits 2% above 2 beta_ell and the 10%
        band alone fails about 0.3% of seeds.  p_dark is held to 5 SE: at a
        dark threshold of 10 the record's true dark fraction is 0.377, 0.9
        SE above 1/3, so 3 SE fails about 2% of seeds.
        """
        flow = checks.output(out, "atom_flow")
        gaps = checks.output(out, "atom_gaps") if flow is not None else None
        if gaps is not None:
            ks = ks_sqrt_n(gaps, lambda x: 1.0 - flow.survival(x))
            checks.expect("atom gaps KS sqrt(n) D", ks < KS_LIMIT, ks, KS_LIMIT)
            tail = gaps[gaps > 30.0]
            if checks.expect("atom dark tail size", tail.size >= 20,
                             int(tail.size), ">= 20"):
                rate = 1.0 / float(np.mean(tail - 30.0))
                rel = abs(rate - self.tail_target) / self.tail_target
                lim = 0.10 + 5.0 / math.sqrt(tail.size)
                checks.expect("atom tail rate vs 2 beta_ell", rel < lim,
                              rel, round(lim, 4))
        cgaps = checks.output(out, "cavity_gaps")
        if cgaps is not None:
            ks = ks_sqrt_n(cgaps, lambda x: 1.0 - self.cavity.survival(x))
            checks.expect("cavity gaps KS sqrt(n) D", ks < KS_LIMIT, ks,
                          KS_LIMIT)
        for label, sample, t_hi in (("atom", gaps, 900.0),
                                    ("cavity", cgaps, 40.0)):
            if sample is not None:
                frac = float(np.mean(sample >= t_hi * (1.0 - 1e-9)))
                checks.expect(f"{label} gaps censored at t_hi", frac < 1e-3,
                              frac, 1e-3)
        if checks.output(out, "telegraph") is not None:
            st = checks.output(out, "stats")
            if st is not None:
                z = (st.p_dark - 1.0 / 3.0) / st.p_dark_se
                checks.expect("p_dark vs 1/3 in standard errors", abs(z) < 5.0,
                              z, 5.0)


class DiffusiveReadout(Workload):
    """Criterion 10 through the CLI: heterodyne current ensembles."""

    name = "diffusive-readout"

    def setup(self):
        nj = self.nj
        self.params = nj.heterodyne.HeterodyneParams(kappa=1.0, nbar=100.0)
        self.npaths = 300 if self.tiny else 2000
        self.duration = 20.0
        self.size = ["--npaths", str(self.npaths),
                     "--duration", repr(self.duration)]
        self.sse_duration = 0.5 if self.tiny else 2.0

    def inputs(self, seed, index):
        return {k: derive_seed(seed, self.name, index, k)
                for k in ("tilted", "ostensible", "sse")}

    def run(self, inp, out):
        cli = self.nj.cli
        for mode in ("tilted", "ostensible"):
            step(out, mode, cli.main,
                 ["heterodyne-current", "--mode", mode, *self.size,
                  "--seed", str(inp[mode]), "--out", f"{mode}.csv"])
        step(out, "sse", cli.main,
             ["heterodyne-sse", "--duration", repr(self.sse_duration),
              "--seed", str(inp["sse"]), "--out", "sse.csv"])

    def check(self, inp, out, checks):
        """Tilted peak within 3% of B sqrt(kappa nbar); ostensible mean |I|
        within 5% of sqrt(pi/4t) B, widened to 5 standard errors
        (0.523/sqrt(npaths) relative, so 5.8% at 2000 paths) because 5%
        is only 4.3 of them; finite log-norm along the SSE record."""
        p = self.params
        side = checks.cli(out, "tilted", "tilted.csv")
        if side is not None:
            target = p.B * math.sqrt(p.kappa * p.nbar)
            rel = abs(side["summary"]["peak"] - target) / target
            checks.expect("tilted peak vs B sqrt(kappa nbar)", rel < 0.03,
                          rel, 0.03)
            rows = len(csv_rows("tilted.csv"))
            checks.expect("tilted CSV rows", rows == self.npaths, rows,
                          self.npaths)
        side = checks.cli(out, "ostensible", "ostensible.csv")
        if side is not None:
            target = math.sqrt(math.pi / (4.0 * self.duration)) * p.B
            rel = abs(side["summary"]["mean"] - target) / target
            lim = max(0.05, 5.0 * math.sqrt(4.0 / math.pi - 1.0)
                      / math.sqrt(self.npaths))
            checks.expect("ostensible mean |I| vs sqrt(pi/4t) B", rel < lim,
                          rel, round(lim, 4))
        side = checks.cli(out, "sse", "sse.csv")
        if side is not None:
            final = side["summary"]["log_norm_sq_final"]
            column = [float(r.split(",")[5]) for r in csv_rows("sse.csv")]
            finite = math.isfinite(final) and all(map(math.isfinite, column))
            checks.expect("sse log_norm_sq finite", finite, final, "finite")
            # the CLI defaults: dt = 1e-4, a snapshot every 100 steps plus t=0
            nsnap = int(round(self.sse_duration / 1e-4)) // 100 + 1
            checks.expect("sse CSV rows", len(column) == nsnap, len(column),
                          nsnap)


class FockSpectra(Workload):
    """Criteria 1, 7, 8 and 13: dense Fock blocks, memory kernel, readout."""

    name = "fock-spectra"

    #: truncations of the transmon dark block: 603 and 303 dimensions
    NMAX = (200, 100)

    def setup(self):
        nj = self.nj
        self.cavity = nj.cavity.CavityParams(kappa=1.0, nbar=4.0)
        self.flow = nj.cavity.resonant_flow(self.cavity)
        self.vacuum = nj.numerics.FockVector.vacuum(
            nj.numerics.default_nmax(self.cavity.nbar))

    def inputs(self, seed, index):
        rng = np.random.default_rng(derive_seed(seed, self.name, index))
        # criterion 1's twelve times, each moved by up to 0.1
        times = np.linspace(0.5, 6.0, 12) + rng.uniform(-0.1, 0.1, 12)
        return {"seed": derive_seed(seed, self.name, index, "cli"),
                "times": [float(t) for t in times]}

    def run(self, inp, out):
        nj = self.nj
        seed = ["--seed", str(inp["seed"])]
        for nmax in self.NMAX:
            step(out, f"dark{nmax}", nj.cli.main,
                 ["transmon-dark", "--nmax", str(nmax), *seed,
                  "--out", f"dark{nmax}.csv"])
        step(out, "multiscale", nj.cli.main,
             ["transmon-multiscale", *seed, "--out", "multiscale.csv"])
        step(out, "figure1", nj.cli.main,
             ["readout-figure1", *seed, "--out", "figure1.csv"])
        for i, t in enumerate(inp["times"]):
            step(out, f"fock{i}", nj.cavity.evolve_fock_oracle, self.cavity,
                 self.vacuum, t)

    def check(self, inp, out, checks):
        for nmax in self.NMAX:
            side = checks.cli(out, f"dark{nmax}", f"dark{nmax}.csv")
            if side is not None:
                rel = side["summary"]["rel_dev"]
                checks.expect(f"dark norm rate nmax={nmax}", rel < 0.10,
                              rel, 0.10)
        side = checks.cli(out, "multiscale", "multiscale.csv")
        if side is not None:
            rel = side["summary"]["rel_dev"]
            checks.expect("multiscale rate", rel < 0.05, rel, 0.05)
        side = checks.cli(out, "figure1", "figure1.csv")
        if side is not None:
            s = side["summary"]
            f_target = 20.0 / (2.0 * math.pi)
            f_rel = abs(s["fft_freq"] - f_target) / f_target
            checks.expect("figure1 Y ringing frequency", f_rel < 0.05, f_rel,
                          0.05)
            checks.expect("figure1 interior error minimum",
                          0.0 < s["tau_min"] < 6.0 and s["chi_t_min"] > 1.0
                          and 0.0 < s["eps_min"] < 0.5,
                          (s["tau_min"], s["chi_t_min"], s["eps_min"]),
                          "0 < tau_min < 6, chi t > 1, 0 < eps < 1/2")
        worst = 0.0
        for i, t in enumerate(inp["times"]):
            psi = checks.output(out, f"fock{i}")
            if psi is None:
                continue
            w = float(self.flow.survival(t))
            worst = max(worst, abs(psi.norm_sq() - w) / w)
        checks.expect("Fock oracle vs closed-form W", worst < 1e-6, worst, 1e-6)
        checks.expect("no random numbers drawn", out["rng_generators"] == 0
                      and not out["rng_global_moved"],
                      (out["rng_generators"], out["rng_global_moved"]), 0)


WORKLOADS = {w.name: w for w in (JumpUnravel, GapSample, DiffusiveReadout,
                                 FockSpectra)}
