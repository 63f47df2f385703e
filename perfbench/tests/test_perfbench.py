"""Self-test of the benchmark: tracer wrappers, traced passes, fixtures.

Runs on a reduced census (n = 3, 200 queries) so that it takes seconds.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import importlib
import multiprocessing
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("calls", "parallel.pools", "lp.feasible_ratio", "max_bits")


def clear_caches():
    for name in spans.MODULES:
        for value in vars(importlib.import_module(name)).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def census_pass(traced: bool, threads: int = 1):
    wl = workloads.Census(3, 104, queries=200, threads=threads)
    stream = wl.prepare(seed=5)
    clear_caches()
    tracer = spans.Tracer() if traced else None
    checks, record = workloads.Checks(), {}
    if tracer:
        tracer.install()
    try:
        wl.run(stream, checks, record)
    finally:
        if tracer:
            tracer.remove()
    return checks, record, tracer.layer_metrics() if tracer else None


def test_remove_restores_every_rebound_name():
    modules = [importlib.import_module(m) for m in spans.MODULES]
    before = [dict(vars(m)) for m in modules]
    tracer = spans.Tracer()
    tracer.install()
    cube = importlib.import_module("trbm.cube")
    assert cube.solve_feasibility is not before[
        spans.MODULES.index("trbm.cube")]["solve_feasibility"]
    tracer.remove()
    for module, names in zip(modules, before):
        after = vars(module)
        assert after.keys() == names.keys()
        for name, value in names.items():
            assert after[name] is value, f"{module.__name__}.{name}"


def test_traced_and_untraced_passes_agree():
    plain, plain_record, _ = census_pass(traced=False)
    traced, traced_record, layers = census_pass(traced=True)
    assert plain.failed == traced.failed == 0
    assert plain.attempted == traced.attempted
    assert plain_record["verdicts"] == traced_record["verdicts"]
    assert layers["cube.is_slicing.calls"] == 200
    assert layers["linalg.rank.calls"] == 0


def test_traced_counts_repeat_exactly():
    for threads in (1, 2):
        first = census_pass(traced=True, threads=threads)[2]
        second = census_pass(traced=True, threads=threads)[2]
        counted = {k for k in first if any(k.endswith(c) for c in COUNTS)}
        assert {k: first[k] for k in counted} \
            == {k: second[k] for k in counted}
        assert (first["parallel.pools"] > 0) == (threads > 1)


def test_model_facets_form_one_orbit_of_twelve():
    assert len(workloads.MODEL) == 12
    assert frozenset(map(frozenset, workloads.MODEL_FACET)) \
        in workloads.MODEL


def test_generic_lift_rejects_flat_lifts():
    assert not workloads.generic_lift([0] * 8)
    assert not workloads.generic_lift([1, 2, 3, 4, 3, 4, 5, 6])  # affine
    assert workloads.generic_lift([0, 1, 3, 7, 15, 31, 63, 127])


def _busy(seconds: float) -> None:
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass


def test_speed_probe_samples_forked_workers(tmp_path):
    with speed.SpeedProbe(str(tmp_path)) as probe:
        worker = multiprocessing.get_context("fork").Process(
            target=_busy, args=(0.5,))
        worker.start()
        _busy(0.5)
        worker.join(timeout=10)
    assert worker.exitcode == 0
    assert probe.samples and len(probe.worker_samples) == 1
    assert not list(tmp_path.iterdir())
    assert 0 < probe.speed() < 10
