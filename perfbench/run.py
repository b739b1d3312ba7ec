"""schsym benchmark: closed-loop workloads with end-to-end and per-layer metrics.

  python3 perfbench/run.py --workload {table,brackets,transforms,all} --seed N
                           --seconds S --trace {0,1}

One client, one check at a time.  Every pass runs in a fresh worker process
(worker.py), as a CLI call would, so no pass inherits another's caches and
peak memory belongs to one pass of one workload.  A run makes the same work
for the same seed and --seconds: a number of distinct passes fixed by
nominal pass times, each run REPEATS times.  The repeats of a pass are
spread over the run and must give byte-identical output hashes; each
check's time is its per_checks over the repeats, which filters out the
seconds-long slow spells of a shared host.  With --workload all the passes
of the three workloads are interleaved, so host drift hits all alike.

--trace 0 prints the end-to-end metrics; --trace 1 runs pass 1 untraced
twice and traced once, each in a fresh worker, and prints the per-layer
metrics of the traced one.  The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

from hostspeed import corrected, reference_loop

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("table", "brackets", "transforms")
# Seconds one repeated pass takes on the reference host (2 CPUs, Python
# 3.11), worker start included; with REPEATS they fix how many distinct
# passes a run of --seconds makes, so every run of a workload does the same
# work whatever the host's speed.
NOMINAL_PASS_S = {"table": 4.2, "brackets": 2.6, "transforms": 5.4}
REPEATS = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
UNITS = {"setup_s": "s", "wall_s": "s", "checks_per_s": "1/s", "check_s.p50": "s",
         "check_s.tail": "s", "pass_frac": "ratio", "peak_rss_mb": "MB"}


class Worker:
    """A worker process for one workload, driven one request at a time."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, "--workload", workload, "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            hello = self._read()
            self.setup_s = corrected(hello["setup_s"], hello["setup_ref_s"])
        except BaseException:
            self.close()
            raise

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.workload} worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def run_pass(self, index: int, trace: bool = False) -> dict:
        return self.ask(op="pass", index=index, trace=trace)

    def close(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def calibrate(reps: int = 21) -> float:
    """Median seconds of the reference loop; reported, never gated."""
    return statistics.median(reference_loop() for _ in range(reps))


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with at least ten
    samples beyond it, by nearest rank."""
    s = sorted(samples)
    n = len(s)
    for p in TAIL_LADDER:
        if n * (1 - p / 100) >= 10:
            return p, s[max(0, math.ceil(p / 100 * n) - 1)]
    return 50.0, statistics.median(s)


def passes_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / (REPEATS * NOMINAL_PASS_S[workload])))


def fresh_pass(workload: str, seed: int, index: int, trace: bool = False) -> dict:
    """Pass ``index`` in a fresh worker, with the worker's set-up time and
    peak memory."""
    wk = Worker(workload, seed)
    try:
        res = wk.run_pass(index, trace)
        res["peak_rss_mb"] = wk.ask(op="rss")["peak_rss_mb"]
    finally:
        wk.close()
    res["setup_s"] = wk.setup_s
    return res


def failures(runs) -> tuple[int, int]:
    """(checks attempted, checks failed) over runs of one pass; a run whose
    output hash differs from the first run's is one more failure."""
    checks = [ok for r in runs for _, ok in r["checks"]]
    mismatched = sum(r["hash"] != runs[0]["hash"] for r in runs)
    return len(checks), checks.count(False) + mismatched


def check_times(run: dict) -> list[float]:
    """Corrected seconds of each check of one pass run, each by the mean of
    the reference loops just before and just after it."""
    refs = run["refs"]
    return [corrected(d, (refs[k] + refs[k + 1]) / 2)
            for k, (d, _) in enumerate(run["checks"])]


def measure(workloads, seed: int, seconds: float) -> dict:
    """Untraced runs of the given workloads, their passes interleaved.

    Repeat r of every pass runs before repeat r + 1 of any, so the repeats
    of one pass are a whole round apart in time.
    """
    npass = {w: passes_for(w, seconds) for w in workloads}
    runs = {(w, i): [] for w in workloads for i in range(1, npass[w] + 1)}
    setup = []
    for _ in range(REPEATS):
        for i in range(1, max(npass.values()) + 1):
            for w in workloads:
                if i <= npass[w]:
                    res = fresh_pass(w, seed, i)
                    runs[w, i].append(res)
                    setup.append(res["setup_s"])

    out = {}
    for w in workloads:
        attempted = failed = 0
        walls, per_checks = [], []
        for i in range(1, npass[w] + 1):
            reps = runs[w, i]
            a, f = failures(reps)
            attempted, failed = attempted + a, failed + f
            per_check = [statistics.median(ts) for ts in zip(*map(check_times, reps))]
            per_checks.extend(per_check)
            walls.append(sum(per_check))
        pct, tail_s = tail(per_checks)
        out[w] = {
            "attempted": attempted,
            "failed": failed,
            "passes": npass[w],
            "checks": len(per_checks),
            "tail_pct": pct,
            "raw_wall_s": statistics.median(
                r["wall_s"] for i in range(1, npass[w] + 1) for r in runs[w, i]),
            "metrics": {
                "setup_s": statistics.median(setup),
                "wall_s": statistics.median(walls),
                "checks_per_s": len(per_checks) / sum(walls),
                "check_s.p50": statistics.median(per_checks),
                "check_s.tail": tail_s,
                "pass_frac": 1 - failed / attempted,
                "peak_rss_mb": statistics.median(
                    r["peak_rss_mb"] for i in range(1, npass[w] + 1) for r in runs[w, i]),
            },
        }
    return out


def trace(workload: str, seed: int) -> dict:
    """Pass 1 untraced twice, then traced, each in a fresh worker."""
    runs = [fresh_pass(workload, seed, 1, trace=t) for t in (False, False, True)]
    attempted, failed = failures(runs)
    traced = runs[-1]
    metrics = dict(traced["layers"])
    metrics["trace_overhead_s"] = traced["wall_s"] - min(r["wall_s"] for r in runs[:-1])
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "schsym", "__init__.py")):
        print("perfbench: no schsym sources under src/ next to perfbench/", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    cal = [calibrate()]
    if args.trace:
        results = {w: trace(w, args.seed) for w in workloads}
    else:
        results = measure(workloads, args.seed, args.seconds)
    cal.append(calibrate())
    calibration_s = statistics.median(cal)

    metrics = {}
    for w, res in results.items():
        prefix = "" if args.workload != "all" else f"{w}."
        print(f"workload {w}  seed {args.seed}  trace {args.trace}")
        if not args.trace:
            print(f"  {res['passes']} passes x {REPEATS} repeats, {res['checks']} checks,"
                  f" each timed as the median of its corrected repeats;"
                  f" uncorrected median pass {res['raw_wall_s']:.4f} s;"
                  f" tail is p{res['tail_pct']:g} of {res['checks']} checks;"
                  f" failed_frac {res['failed']}/{res['attempted']}")
        if args.trace:
            res["metrics"]["host.calibration_s"] = calibration_s
        for name, value in res["metrics"].items():
            unit = UNITS.get(name) or layer_unit(name)
            print(f"  {name:48s} {value:14.6g} {unit}")
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(f"host.calibration_s {calibration_s:.4f} s"
          f" (start {cal[0]:.4f}, end {cal[1]:.4f}; reported, not gated)")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
