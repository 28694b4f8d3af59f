#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about two minutes on 2 cores).

    python3 perfbench/selftest.py [workload ...]

For each workload it makes one untraced and two traced runs of run.py with
``--tiny --seconds 1`` and the same seed, and checks that

- every run completes and reports ``"correct": true``;
- the untraced run emits exactly the ``end_to_end`` metrics named in
  BENCHMARK.json and the traced runs exactly the ``per_layer`` ones, each
  with the unit given there;
- every ``count`` metric repeats exactly across the two traced runs;
- in every traced pass the per-layer self times plus the benchmark's own
  time between calls add up to the traced wall time, and the per-layer
  self times differ from the untraced wall time by no more than the
  tracing overhead (plus 10% of the wall for pass-to-pass noise).

The benchmark pins ``NEXTJUMP_THREADS`` to 1, so an in-process check also
traces a small ensemble on two worker threads: every trajectory span must
hang under its ``ensemble_map`` span, the self times must still add up to
the wall time, and ``restore`` must put every original attribute back.

Exits 1 if any check fails.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 20211217


def run(workload: str, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--tiny"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].split(" ", 1)[1])


def thread_check(expect) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import nextjump
    import nextjump.cli  # noqa: F401  (the tracer wraps every layer)
    from nextjump import atom3, trajectories
    from tracer import ROOT as ROOT_SPAN, Tracer, attribute

    model = atom3.effective_model(atom3.Atom3Params(
        omega1=1.0, omega2=0.7, delta2=0.5, beta1=1.0, beta2=0.8))
    before = {k: v for k, v in vars(trajectories).items()}
    tracer = Tracer()
    tracer.install()
    try:
        tracer.span(ROOT_SPAN, trajectories.lindblad_consistency, model, 40,
                    1.0, seedbase=1, max_workers=2)
    finally:
        tracer.restore()
    spans = tracer.snapshot()["spans"]
    pool = {s[0] for s in spans if s[2] == "trajectories.ensemble_map"}
    runs = [s for s in spans if s[2] == "trajectories.run_trajectory"]
    threads_ok = len(runs) == 40 and all(s[1] in pool for s in runs)
    expect(threads_ok, "threads: 40 trajectory spans parented to ensemble_map")
    self_s, _, _ = attribute(spans)
    root = next(s for s in spans if s[2] == ROOT_SPAN)
    gap = abs(sum(self_s.values()) - (root[4] - root[3]))
    expect(gap < 1e-6, f"threads: self times add up to wall (gap {gap:.2e} s)")
    restored = all(vars(trajectories)[k] is v for k, v in before.items())
    expect(restored and nextjump.NullFlow is trajectories.NullFlow,
           "threads: restore puts every attribute back")


def main(argv) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = argv or [w["name"] for w in spec["workloads"]]
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
        print(("ok   " if ok else "FAIL ") + what, flush=True)

    for w in workloads:
        result0, _ = run(w, 0)
        (result1, detail1), (result2, detail2) = run(w, 1), run(w, 1)
        for res, kind in ((result0, "end_to_end"), (result1, "per_layer"),
                          (result2, "per_layer")):
            expect(res["correct"] and res["failed"] == 0,
                   f"{w}: {kind} run correct ({res['failed']} failed)")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{w}: {kind} metrics and units as declared"
                   + ("" if got == want else
                      f" (missing {sorted(set(want) - set(got))}, extra "
                      f"{sorted(set(got) - set(want))}, unit mismatch "
                      f"{sorted(k for k in got if k in want and got[k] != want[k])})"))
        counts = [k for k, v in result1["metrics"].items() if v["unit"] == "count"]
        differ = [k for k in counts if result1["metrics"][k]["value"]
                  != result2["metrics"][k]["value"]]
        expect(not differ, f"{w}: {len(counts)} counts repeat across traced "
               f"runs" + (f" (differ: {differ})" if differ else ""))
        for detail in (detail1, detail2):
            books = detail["traced"]
            worst = max(abs(b["layer_self_sum_s"] + b["glue_s"]
                            - b["traced_wall_s"]) for b in books)
            expect(worst < 1e-6, f"{w}: self times + glue = traced wall "
                   f"(worst gap {worst:.2e} s)")
            untraced = statistics.median(detail["walls_s"])
            self_sum = statistics.median(b["layer_self_sum_s"] for b in books)
            overhead = abs(statistics.median(b["wall_s"] for b in books)
                           - untraced)
            glue = statistics.median(b["glue_s"] for b in books)
            gap = abs(self_sum - untraced)
            expect(gap <= overhead + glue + 0.1 * untraced,
                   f"{w}: layer self sum {self_sum:.4f} s vs untraced wall "
                   f"{untraced:.4f} s within overhead {overhead:.4f} s")
    thread_check(expect)
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
