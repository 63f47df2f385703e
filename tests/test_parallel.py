import trbm.cube
import trbm.parallel
import trbm.tropical
from trbm.cube import _enumerate_arrangement, _enumerate_brute, _filled_census
from trbm.parallel import parallel_map
from trbm.tropical import _search_exhaustive


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


def test_batches_follow_the_worker_count(monkeypatch):
    # --threads above the CPU count cuts the batches of the workers that
    # run: on two CPUs the C(104, 2) = 5,356 pairs go in chunks of
    # 5,356 // 16 = 334 (17 batches); brute hands parallel_map its masks
    # below 2^8 / 2 = 128 one by one, and leaves the batching to it
    cut = []

    def recording(fn, items, threads=1):
        cut.append(len(items))
        return [fn(x) for x in items]

    leaves = _filled_census(3, "arrangement", False, 1)
    monkeypatch.setattr(trbm.tropical, "parallel_map", recording)
    monkeypatch.setattr(trbm.cube, "parallel_map", recording)
    monkeypatch.setattr(trbm.parallel.os, "cpu_count", lambda: 2)
    assert _search_exhaustive(3, 2, leaves, 64) \
        == _search_exhaustive(3, 2, leaves, 2)
    monkeypatch.setattr(trbm.parallel.os, "cpu_count", lambda: 1)
    assert _enumerate_brute(3, 64) == _enumerate_brute(3, 1)
    assert cut == [17, 17, 128, 128]
