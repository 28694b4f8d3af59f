#!/usr/bin/env python3
"""Benchmark of the ``nextjump`` package: one workload, one seed, one run.

    python3 perfbench/run.py --workload jump-unravel --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each run starts fresh interpreters in a
scratch directory under ``.bench_work/``: three that only set up (import
the package and build the workload's models) and one that sets up, runs a
warm-up pass and then timed passes for ``--seconds``.  Every thread pool
is pinned to one thread: ``NEXTJUMP_THREADS`` (two workers ran the jump
ensembles 10% slower and with twice the pass-to-pass spread, since the
trajectories hold the GIL) and the BLAS/OpenMP pools.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (median pass wall time, median set-up time, peak
resident memory, share of output checks passed).  With ``--trace 1`` it
holds the per-layer metrics of traced passes instead.  The line before it
(``bench-detail``) carries machine information, every pass time and the
set-up samples.  Exit code 0 on a completed run, even when checks failed
(``"correct": false``); 1 when a run could not complete; 2 on bad
arguments or a checkout without ``src/nextjump``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("jump-unravel", "gap-sample", "diffusive-readout", "fock-spectra")
#: set-up-only processes per run; with the timed process, 4 set-up samples
SETUP_PROBES = 3
#: wall-clock budget of one run, below the 180 s a run may take
BUDGET_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "pass_frac": "ratio"}


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="small Monte Carlo sizes, for the self-test")
    return ap.parse_args(argv)


def pinned_env(work: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(NEXTJUMP_THREADS="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               TMPDIR=work)
    return env


def run_worker(args, work, env, deadline, tag, extra=()):
    result = os.path.join(work, f"result-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--result", result, *(["--tiny"] if args.tiny else []), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget used up before the run finished")
    proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def per_layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.startswith("us_per_"):
        return "us"
    if last.startswith("ns_per_"):
        return "ns"
    if last.endswith("_s"):
        return "s"
    if last == "csv_bytes":
        return "bytes"
    if last in ("calls", "builds", "eig_fallbacks", "points", "jumps",
                "draws", "generators", "dim"):
        return "count"
    return "ratio"


def summarize(args, setups, res) -> dict:
    """metric name -> (value, unit) for the requested mode."""
    median = statistics.median
    if args.trace == 0:
        values = {
            "wall_s": median(res["walls"]),
            "setup_s": median(s["import_s"] + s["models_s"] for s in setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "pass_frac": (res["attempted"] - res["failed"]) / res["attempted"],
        }
        return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    traced = [t["metrics"] for t in res["traced"]]
    values = {name: median(t[name] for t in traced) for name in traced[0]}
    values["setup.import_s"] = median(s["import_s"] for s in setups)
    values["setup.models_s"] = median(s["models_s"] for s in setups)
    values["trace.overhead_s"] = (
        median(t["book"]["wall_s"] for t in res["traced"])
        - median(res["walls"]))
    return {k: (v, per_layer_unit(k)) for k, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "nextjump", "__init__.py")):
        print(f"no nextjump package under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running worker before this process exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + BUDGET_S
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        env = pinned_env(work)
        setups = [run_worker(args, work, env, deadline, f"setup{i}",
                             ["--setup-only"]) for i in range(SETUP_PROBES)]
        res = run_worker(args, work, env, deadline, "main")
        setups.append(res)
        if res["attempted"] < 1:
            raise BenchError("no output check was attempted")
        metrics = summarize(args, setups, res)
        final = json.dumps({
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }, allow_nan=False)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass

    for msg in res["messages"]:
        print(f"check failed: {msg}")
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "tiny": args.tiny,
        "passes": len(res["walls"]), "walls_s": res["walls"],
        "setup_samples": [{"import_s": s["import_s"], "models_s": s["models_s"]}
                          for s in setups],
        "traced": [t["book"] for t in res["traced"]],
        "machine": res["machine"],
    }
    print("bench-detail " + json.dumps(detail))
    print(final)
    return 0


if __name__ == "__main__":
    sys.exit(main())
