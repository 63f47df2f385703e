"""trbm benchmark: end-to-end and per-layer metrics of four workloads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's ``src``, and each pass runs in a fresh process
(``perfbench/child.py``) with cold caches, as a CLI user pays.  Passes
repeat while the next one is expected to end within ``--seconds``; there
is always at least one.  Six set-up-only processes run first, so that
set-up time is a median of at least seven launches.

Workloads (sized for two cores; see ``workloads.py``):

* ``census``: ``slicings --n 4 --count`` on one thread, then 2,000
  seeded ``is_slicing`` queries on n = 4 subsets.  Only ``lp`` works;
  ``linalg`` makes no call.
* ``census-t2``: the same census with ``--threads 2``: the only workload
  that starts process pools.
* ``dimension``: ``dim`` for (n, k) = (3, 1), (3, 2) exhaustive and
  (7, 15), (7, 16) code based, then ``zonotope-facets --n 4``.  Mostly
  ``linalg``, with 128-row integer matrices.
* ``fan``: the 74 triangulations of the 3-cube, the homology of the
  model subcomplex, then 40 seeded generic lifts, each with its regular
  subdivision and its ``member-tm1`` verdict.  Every layer works.

``--seed`` drives the census query stream and the fan lifts; the other
inputs are the paper's fixed instances.  Times are corrected for the
host's speed during each pass (see ``speed.py``) and are medians over
the passes of a run.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate, and the result holds
the per-layer metrics of the traced passes (``spans.py``): call counts,
ratios, bit lengths, and each layer's time as a share of the pass.  The
last line of stdout is the JSON result.  The full record, with run
metadata, raw and corrected times, and every layer's absolute times,
goes to ``perfbench/out``, next to the traced passes' spans.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
RUN_LIMIT_S = 170           # the whole run, set-up launches included
SETUP_ONLY_LAUNCHES = 6


def load_spec() -> dict:
    """``BENCHMARK.json``, which names the metrics and their units."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


class ChildFailed(Exception):
    """A pass process exited without a report."""


def child_env() -> dict:
    """The pass environment: trbm from ./src, no inherited trbm settings."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("TRBM_THREADS", "TRBM_ACCEPT_LONG", "TRBM_TRACE")}
    env["PYTHONPATH"] = os.path.abspath("src")
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(workload: str, seed: int, deadline: float,
           setup_only: bool = False, spans: str | None = None) -> dict:
    """Run one pass process and return its report."""
    workdir = os.path.join(OUT, f"{workload}-seed{seed}")
    launched = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--launched", repr(launched), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", spans]
    # own session, so a timeout also ends the pass's pool workers
    proc = subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(0.1,
                                              deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{workload} pass ran past the run's time limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} pass exited {proc.returncode}")
    report = json.loads(lines[-1])
    report["wall_s"] = time.monotonic() - launched
    return report


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def first_line(path: str, prefix: str = "") -> str | None:
    try:
        with open(path) as fh:
            return next((line.strip() for line in fh
                         if line.startswith(prefix)), None)
    except OSError:
        return None


def steal_ticks() -> int | None:
    line = first_line("/proc/stat", "cpu ")
    return int(line.split()[8]) if line else None


def git_commit() -> str | None:
    head = first_line(".git/HEAD")
    if head and head.startswith("ref: "):
        return first_line(os.path.join(".git", head[5:]))
    return head


def metadata() -> dict:
    model = first_line("/proc/cpuinfo", "model name")
    lines = 0
    for path in sorted(glob.glob("src/trbm/*.py")):
        with open(path) as fh:
            lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(),
            "cpu_model": model.split(":", 1)[1].strip() if model else None,
            "python": platform.python_version(),
            "git_commit": git_commit(),
            "loadavg": first_line("/proc/loadavg"),
            "steal_ticks": steal_ticks(),
            "src_trbm_lines": lines}


def query_stats(plain: list[dict]) -> dict:
    """Latency and answer mix of the is_slicing stream, medians of passes.

    Only ``census`` has the stream; 2,000 queries a pass leave 20 samples
    beyond the 99th percentile.
    """
    passes = [r for r in plain if r.get("verdicts")]
    if not passes:
        return {}
    return {
        "queries": len(passes[0]["verdicts"]),
        "query_p50_ms": statistics.median(
            1000 * percentile(r["query_s"], 50) for r in passes),
        "query_p99_ms": statistics.median(
            1000 * percentile(r["query_s"], 99) for r in passes),
        "query_yes_ratio": statistics.median(
            r["verdicts"].count("Y") / len(r["verdicts"]) for r in passes),
    }


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics: medians of the traced passes."""
    metrics = {}
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        if name.endswith(("calls", "pools")) and len(set(values)) > 1:
            print(f"warning: {name} differs across traced passes: "
                  f"{values}", file=sys.stderr)
        metrics[name] = statistics.median(values) \
            if isinstance(values[0], float) else statistics.median_low(values)
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["solve_s"] for r in traced)
        / statistics.median(r["solve_s"] for r in plain))
    metrics["query_yes_ratio"] = query_stats(plain).get("query_yes_ratio",
                                                         0.0)
    return metrics


def run_passes(args, tag: str, deadline: float) -> list[dict]:
    """Passes, untraced and traced alternating under ``--trace 1``.

    Another pass starts while it is expected, from the last one, to end
    within ``--seconds`` and before the deadline.  A pass that exits
    without a report is kept as ``{"crashed": True}``.
    """
    wanted = 2 if args.trace else 1
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        spans = os.path.join(OUT, f"spans-{tag}-{len(passes)}.jsonl") \
            if traced else None
        begun = time.monotonic()
        try:
            report = launch(args.workload, args.seed, deadline, spans=spans)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            report = {"crashed": True}
        report["traced"] = traced
        passes.append(report)
        print(f"pass {len(passes)}{' traced' if traced else ''}: "
              + ", ".join(f"{k} {report[k]:.4g}" for k in
                          ("setup_s", "solve_s", "raw_solve_s", "speed",
                           "cpu_s", "peak_rss_mb", "attempted", "failed")
                          if k in report), flush=True)
        now = time.monotonic()
        last = now - begun
        if now + last > deadline or (len(passes) >= wanted and
                                     now - start + last > args.seconds):
            return passes


def main(argv=None) -> int:
    spec = load_spec()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join("src", "trbm", "__init__.py")):
        print("error: run from a trbm checkout (no src/trbm here)",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    meta = metadata()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = [launch(args.workload, args.seed, deadline,
                         setup_only=True)["setup_s"]
                  for _ in range(SETUP_ONLY_LAUNCHES)]
    except ChildFailed as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    passes = run_passes(args, tag, deadline)
    meta["loadavg_end"] = first_line("/proc/loadavg")
    meta["steal_ticks_end"] = steal_ticks()

    good = [p for p in passes if "crashed" not in p]
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1
    setups += [p["setup_s"] for p in good]
    crashed = len(passes) - len(good)
    attempted = sum(p["attempted"] for p in good) + crashed
    failed = sum(p["failed"] for p in good) + crashed
    if args.trace:
        metrics = layer_metrics(plain, traced)
        units = per_layer
    else:
        metrics = {"setup_s": statistics.median(setups)}
        for name in ("solve_s", "cpu_s", "peak_rss_mb"):
            metrics[name] = statistics.median(p[name] for p in plain)
        units = end_to_end

    queries = query_stats(plain)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "meta": meta, "setup_samples": setups,
        "passes": [{k: v for k, v in p.items()
                    if k not in ("query_s", "verdicts")} for p in passes],
        "ops": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "query_stream": queries, "metrics": metrics,
    }
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("meta: " + json.dumps(meta))
    print(f"checks: {failed} failed of {attempted} (fail_ratio "
          f"{failed / attempted:.4g}); passes: {len(plain)} untraced, "
          f"{len(traced)} traced, {crashed} crashed; "
          f"set-up samples: {len(setups)}")
    if queries:
        print(f"is_slicing stream, {queries['queries']} queries a pass: "
              f"p50 {queries['query_p50_ms']:.4g} ms, p99 "
              f"{queries['query_p99_ms']:.4g} ms; feasible share "
              f"{queries['query_yes_ratio']:.4f}, infeasible "
              f"{1 - queries['query_yes_ratio']:.4f}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
