"""One workload pass in a fresh process, so every lru_cache starts cold.

    python3 perfbench/child.py --workload census --seed 1 --launched T \
        --workdir perfbench/out/census-seed1

``--launched`` is the ``time.monotonic()`` reading, taken by the parent
just before it started this process; set-up time runs from it to the
start of the timed section (interpreter start, imports and input
generation).  With ``--setup-only`` the process stops there.  With
``--spans PATH`` the pass is traced and its spans are written to PATH.
``--workdir`` holds the input files the workload writes and the speed
samples of forked workers.  Times are reported raw and corrected for
host speed (see ``speed.py``).

The last line of stdout is one JSON report; the workload's own command
output is captured in-process and never reaches stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from time import perf_counter


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    import trbm
    source = os.path.join(os.getcwd(), "src", "trbm", "__init__.py")
    if os.path.abspath(trbm.__file__) != source:
        raise SystemExit(f"trbm imported from {trbm.__file__}, not {source}")
    import workloads
    from spans import Tracer
    from speed import REFERENCE_S, SpeedProbe, burst

    os.makedirs(args.workdir, exist_ok=True)
    wl = workloads.workload(args.workload, args.workdir)
    inputs = wl.prepare(args.seed)
    raw_setup_s = time.monotonic() - args.launched
    setup_speed = statistics.fmean(REFERENCE_S / s for s in burst())
    setup = {"setup_s": raw_setup_s * setup_speed,
             "raw_setup_s": raw_setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()
    checks, record = workloads.Checks(), {}
    cpu0 = cpu_seconds()
    start = perf_counter()
    with SpeedProbe(args.workdir) as probe:
        try:
            wl.run(inputs, checks, record)
        except Exception as exc:    # the program failed: count, report, go on
            checks.attempted += 1
            checks.failed += 1
            print(f"pass raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
    raw_solve_s = perf_counter() - start
    raw_cpu_s = cpu_seconds() - cpu0
    speed = probe.speed()
    if "query_s" in record:
        record["query_s"] = [t * speed for t in record["query_s"]]
    if tracer is not None:
        tracer.remove()
        layers = tracer.layer_metrics()
        for name, value in list(layers.items()):
            if name.endswith("_s"):     # a time: also as a share of the pass
                layers[name[:-2] + "_share"] = value / raw_solve_s
                layers[name] = value * speed
        record["layers"] = layers
        tracer.write_spans(args.spans)

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report = {**setup, "solve_s": raw_solve_s * speed,
              "cpu_s": raw_cpu_s * speed, "raw_solve_s": raw_solve_s,
              "raw_cpu_s": raw_cpu_s, "speed": speed,
              "setup_speed": setup_speed, "peak_rss_mb": rss_kb / 1024,
              "attempted": checks.attempted, "failed": checks.failed,
              **record}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
