import trbm.parallel
from trbm.cube import _enumerate_arrangement
from trbm.parallel import parallel_map


class RecordingPool:
    """Records ``max_workers`` and maps in-process; starts no process."""

    seen: list[int] = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


def test_workers_are_capped_at_the_cpu_count(monkeypatch):
    monkeypatch.setattr(trbm.parallel, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(trbm.parallel.os, "cpu_count", lambda: 3)
    RecordingPool.seen.clear()
    items = list(range(1000))
    assert parallel_map(abs, items, threads=512) == items
    assert parallel_map(abs, items, threads=2) == items
    assert RecordingPool.seen == [3, 2]


def test_unknown_cpu_count_runs_in_process(monkeypatch):
    monkeypatch.setattr(trbm.parallel, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(trbm.parallel.os, "cpu_count", lambda: None)
    RecordingPool.seen.clear()
    assert parallel_map(abs, [-1, 2] * 100, threads=8) == [1, 2] * 100
    assert RecordingPool.seen == []


def test_census_starts_at_most_one_pool(monkeypatch):
    monkeypatch.setattr(trbm.parallel, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(trbm.parallel.os, "cpu_count", lambda: 2)
    RecordingPool.seen.clear()
    single = _enumerate_arrangement(4, 1)
    assert RecordingPool.seen == []
    multi = _enumerate_arrangement(4, 2)
    assert RecordingPool.seen == [2]
    assert single == multi
