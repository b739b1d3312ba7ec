"""One benchmark process: set up schsym, then run passes on request.

Started by run.py, one fresh process per workload, so that peak memory
belongs to one workload.  The first line written is
``{"setup_s": ..., "setup_ref_s": ...}``: the time to import schsym, load
the case table and the four groupoid fixtures, which every CLI call pays,
and the mean time of the reference loop (hostspeed.py) run just before and
just after.  Then each request line read from stdin is answered with one
JSON line:

  {"op": "pass", "index": i, "trace": false}  run pass i of the workload
  {"op": "rss"}                               peak resident memory so far

The process exits when stdin closes.  Anything else it prints goes to
stderr, so stdout carries only the protocol.
"""
import argparse
import json
import os
import resource
import sys
import time

from hostspeed import reference_loop

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
FIXTURES = ("normalized", "disjoint_semi", "non_disjoint_semi", "non_semi")


def setup() -> tuple[float, float]:
    """Import schsym from the checkout, load the case table and fixtures.

    Returns the seconds this took and the reference loop's time around it.
    """
    ref_before = reference_loop()
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    from schsym.cases import table
    from schsym.groupoid import load_fixture

    table()
    for name in FIXTURES:
        load_fixture(name)
    setup_s = time.perf_counter() - t0
    return setup_s, (ref_before + reference_loop()) / 2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    setup_s, setup_ref_s = setup()
    from workloads import PASSES, run_pass

    if args.workload not in PASSES:
        raise SystemExit(f"unknown workload {args.workload!r}")

    proto = sys.stdout
    sys.stdout = sys.stderr

    def reply(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    reply({"setup_s": setup_s, "setup_ref_s": setup_ref_s})
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "pass":
            reply(run_pass(args.workload, args.seed, req["index"], req["trace"]))
        elif req["op"] == "rss":
            kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply({"peak_rss_mb": kib / 1024.0})
        else:
            raise ValueError(f"unknown request {req!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
