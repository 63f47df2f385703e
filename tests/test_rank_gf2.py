import json
from itertools import combinations, count
from random import Random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import (example, given, seed, settings,  # noqa: E402
                        strategies as st)

from trbm import linalg, tropical  # noqa: E402
from trbm.cli import main  # noqa: E402
from trbm.cube import (all_vertices, enumerate_slicings,  # noqa: E402
                       vertex_coords)
from trbm.linalg import (Matrix, rank, rank_01, rank_bareiss,  # noqa: E402
                         rank_gf2)
from trbm.tropical import (_code_slicings, _slicing_rank,  # noqa: E402
                           slicing_matrix)


def gf2_rank_oracle(rows):
    """Rank mod 2 by Gauss-Jordan on lists of 0/1 rows."""
    a = [[x % 2 for x in row] for row in rows]
    r = 0
    for c in range(len(a[0]) if a else 0):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(len(a)):
            if i != r and a[i][c]:
                a[i] = [x ^ y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def bit_columns(rows, ncols):
    return [sum(row[j] << i for i, row in enumerate(rows))
            for j in range(ncols)]


@st.composite
def zero_one_matrices(draw):
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 6))
    return [draw(st.lists(st.integers(0, 1), min_size=ncols,
                          max_size=ncols)) for _ in range(nrows)]


@seed(20260)
@settings(max_examples=400, database=None, deadline=None)
@given(zero_one_matrices())
@example([[1, 1, 0], [0, 1, 1], [1, 0, 1]])          # GF(2) 2, Q 3
@example([[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]])
@example([[1, 1], [1, 1], [0, 0]])
def test_certified_rank_agrees_with_oracles(rows):
    ncols = len(rows[0])
    columns = bit_columns(rows, ncols)
    m = Matrix(rows)
    exact = rank(m)
    assert exact == rank_bareiss(m)
    gf2 = rank_gf2(columns, len(rows))
    assert gf2 == gf2_rank_oracle(rows) <= exact
    if gf2 == min(len(rows), ncols):
        assert gf2 == exact
    assert rank_01(columns, len(rows)) == exact


def test_certified_rank_falls_back_only_below_the_shape_bound(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m)
        return rank(m)

    monkeypatch.setattr(linalg, "rank", counted)
    odd = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]       # GF(2) rank 2, Q rank 3
    assert rank_gf2(bit_columns(odd, 3), 3) == 2
    assert rank_01(bit_columns(odd, 3), 3) == 3
    assert calls == [Matrix(odd)]
    full = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    assert rank_01(bit_columns(full, 3), 3) == 3
    assert rank_01([0b011, 0b101, 0b111, 0b001], 3) == 3
    assert len(calls) == 1


def test_gf2_rank_stops_at_the_shape_bound():
    class Counted(list):
        reads = 0

        def __iter__(self):
            for col in super().__iter__():
                Counted.reads += 1
                yield col

    columns = Counted([0b01, 0b10, 0b11, 0b01])
    assert rank_gf2(columns, 2) == 2 and Counted.reads == 2
    assert rank_gf2([], 4) == 0 and rank_gf2([0, 0], 3) == 0


def _full_blocks(n, masks):
    """The masks whose block (1, v) over v in C has GF(2) rank |C|."""
    return [mask for mask in masks if gf2_rank_oracle(
        [[1, *vertex_coords(v, n)] for v in all_vertices(n) if mask >> v & 1]
    ) == bin(mask).count("1")]


def _reduced_rows(monkeypatch):
    """The row counts :func:`rank_01` sees from :func:`_slicing_rank`."""
    seen = []

    def counted(columns, nrows):
        seen.append(nrows)
        return rank_01(columns, nrows)

    monkeypatch.setattr(tropical, "rank_01", counted)
    return seen


def test_block_reduced_rank_of_code_balls(monkeypatch):
    seen = _reduced_rows(monkeypatch)
    for n in range(2, 8):
        for k in count(1):          # up to the code's ball count
            try:
                slicings = _code_slicings(n, k)
            except ValueError:
                break
            masks = [s.mask for s in slicings]
            m = slicing_matrix(n, slicings)
            seen.clear()
            assert _slicing_rank(n, masks) == rank(m) == rank_bareiss(m)
            # code balls are disjoint and each block is full
            assert seen == [(1 << n) - bin(sum(masks)).count("1")]


@pytest.mark.parametrize("n, tuples", [(3, 400), (4, 150)])
def test_block_reduced_rank_of_overlapping_census_masks(n, tuples,
                                                        monkeypatch):
    census = [s.mask for s in enumerate_slicings(n)]
    seen = _reduced_rows(monkeypatch)
    rng = Random(1700 + n)
    overlapping_full = 0
    for _ in range(tuples):
        masks = rng.sample(census, rng.randint(2, 5))
        if all(a & b == 0 for a, b in combinations(masks, 2)):
            continue
        m = Matrix(tropical._slicing_rows(n, masks))
        seen.clear()
        assert _slicing_rank(n, masks) == rank(m) == rank_bareiss(m)
        full = _full_blocks(n, masks)
        if seen[0] < 1 << n and any(
                a & b for a, b in combinations(full, 2)):
            overlapping_full += 1
    # some reduced ranks took out two full blocks that overlap: their
    # rows count once
    assert overlapping_full


def test_dim_certifies_the_code_balls_at_n11(capsys):
    # the whole matrix has GF(2) rank 1,546, one short; the blocks of the
    # 128 balls leave A on the 512 rows no ball covers
    assert main(["dim", "--n", "11", "--k", "128", "--strategy",
                 "code_based", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["max_rank"], doc["dim"], doc["certified"]) == (1547, 1547,
                                                               True)
