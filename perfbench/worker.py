"""One benchmark process: set up, warm up, run timed passes, write a result.

Started by run.py in a fresh interpreter whose working directory is a
scratch directory.  The set-up clock starts before numpy is imported, so
set-up time covers ``import nextjump``, ``import nextjump.cli`` and the
workload's models.  With ``--setup-only`` the process stops there.

Untraced mode: one warm-up pass, then passes on fresh inputs (pass k uses
inputs derived from (seed, k)) until ``--seconds`` have elapsed.  Traced
mode: every pass runs the inputs of pass 0, alternating untraced and traced
passes, so the traced and untraced walls time identical work and their
difference is the tracing overhead.
"""

import argparse
import json
import os
import resource
import sys
import time

T_START = time.perf_counter()


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True)
    return ap.parse_args(argv)


class RngWatch:
    """Counts RngStream generators handed out; always installed, cheap."""

    def __init__(self, stream_cls):
        self.created = 0
        self._cls = stream_cls
        self._orig = stream_cls.generator
        watch = self

        def generator(stream):
            watch.created += 1
            return watch._orig(stream)

        stream_cls.generator = generator

    def restore(self):
        self._cls.generator = self._orig


def machine_info(np, scipy) -> dict:
    def blas(show_config):
        try:
            deps = show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{deps.get('name')} {deps.get('version')}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "threads": {k: os.environ.get(k) for k in (
            "NEXTJUMP_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.abspath(args.root)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import nextjump
    import nextjump.cli
    t_import = time.perf_counter()
    if not os.path.abspath(nextjump.__file__).startswith(src + os.sep):
        print(f"nextjump imported from {nextjump.__file__}, not {src}",
              file=sys.stderr)
        return 2

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy as np
    import scipy
    from workloads import WORKLOADS, Checks

    wl = WORKLOADS[args.workload](nextjump, args.tiny)
    wl.setup()
    t_models = time.perf_counter()
    result = {"import_s": t_import - T_START, "models_s": t_models - t_import}
    if args.setup_only:
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    watch = RngWatch(nextjump.numerics.RngStream)
    checks = Checks()

    def one_pass(index, tracer=None):
        inp = wl.inputs(args.seed, index)
        out = {}
        made = watch.created
        state = np.random.get_state()
        if tracer is None:
            t0 = time.perf_counter()
            wl.run(inp, out)
            wall = time.perf_counter() - t0
        else:
            tracer.reset()
            tracer.install()
            try:
                t0 = time.perf_counter()
                tracer.span(ROOT, wl.run, inp, out)
                wall = time.perf_counter() - t0
            finally:
                tracer.restore()
            snap = tracer.snapshot()
        after = np.random.get_state()
        out["rng_generators"] = watch.created - made
        out["rng_global_moved"] = not (after[2] == state[2]
                                       and np.array_equal(after[1], state[1]))
        checks.obs = {}
        wl.check(inp, out, checks)
        if tracer is None:
            return wall, None
        metrics, book = layer_metrics(snap, checks.obs)
        book["wall_s"] = wall
        return wall, {"metrics": metrics, "book": book}

    walls, traced = [], []
    if args.trace == 0:
        one_pass("warm-up")
        t_begin = time.perf_counter()
        k = 0
        while not walls or time.perf_counter() - t_begin < args.seconds:
            walls.append(one_pass(k)[0])
            k += 1
    else:
        from tracer import ROOT, Tracer, layer_metrics
        tracer = Tracer()
        one_pass(0)
        t_begin = time.perf_counter()
        while not traced or time.perf_counter() - t_begin < args.seconds:
            walls.append(one_pass(0)[0])
            traced.append(one_pass(0, tracer)[1])
    watch.restore()

    result.update({
        "walls": walls,
        "traced": traced,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_info(np, scipy),
    })
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
