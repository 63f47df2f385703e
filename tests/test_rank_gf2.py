import pytest

pytest.importorskip("hypothesis")
from hypothesis import (example, given, seed, settings,  # noqa: E402
                        strategies as st)

from trbm import linalg  # noqa: E402
from trbm.linalg import (Matrix, rank, rank_01, rank_bareiss,  # noqa: E402
                         rank_gf2)


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
