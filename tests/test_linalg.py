import io
import json
from contextlib import redirect_stdout
from fractions import Fraction as Q
from random import Random

import pytest

from helpers import mat_vec, rref
from trbm.cli import main
from trbm.linalg import (Matrix, _eliminate, integer_kernel, nullspace, rank,
                         rank_bareiss, solve)
from trbm.cube import all_vertices, vertex_coords
from trbm.lp import LinearSystem


def cube_matrix(n):
    return Matrix([vertex_coords(v, n) for v in all_vertices(n)])


def test_rank_identity():
    assert rank(Matrix.identity(3)) == 3


def test_rank_cube_columns():
    assert rank(cube_matrix(3)) == 3


def test_rank_augmented_corner_block():
    # A | A_C for the corner slicing C = {000, 100, 010, 001}
    corner = {0b000, 0b100, 0b010, 0b001}
    rows = []
    for v in all_vertices(3):
        coords = list(vertex_coords(v, 3))
        block = [1] + coords if v in corner else [0, 0, 0, 0]
        rows.append(coords + block)
    m = Matrix(rows)
    assert rank_bareiss(m) == 7
    assert rank(m) == 7


def test_rank_transpose_invariance():
    rng = Random(11)
    for _ in range(30):
        m = Matrix([[rng.randint(-9, 9) for _ in range(9)]
                    for _ in range(6)])
        assert rank(m) == rank(m.transpose())


def test_rank_oracle_agreement():
    rng = Random(23)
    for _ in range(100):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        m = Matrix([[Q(rng.randint(-12, 12), rng.randint(1, 4))
                     for _ in range(cols)] for _ in range(rows)])
        assert rank(m) == rank_bareiss(m)


def test_nullspace_identity_empty():
    assert nullspace(Matrix.identity(4)) == []


def test_nullspace_sum_vector():
    basis = nullspace(Matrix([[1, 1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] != 0


def test_nullspace_three_cycle():
    # incidence boundary of the triangle graph has a 1-dimensional kernel
    boundary = Matrix([[-1, 0, 1],
                       [1, -1, 0],
                       [0, 1, -1]])
    basis = nullspace(boundary)
    assert len(basis) == 1
    assert mat_vec(boundary, basis[0]) == [0, 0, 0]


def test_nullspace_dimension_formula():
    rng = Random(5)
    for _ in range(20):
        m = Matrix([[rng.randint(-4, 4) for _ in range(6)]
                    for _ in range(4)])
        kernel = nullspace(m)
        assert len(kernel) == 6 - rank(m)
        for vec in kernel:
            assert mat_vec(m, vec) == [Q(0)] * 4


def test_solve_square():
    x = solve(Matrix([[1, 2], [3, 4]]), [5, 6])
    assert x == [Q(-4), Q(9, 2)]


def test_solve_inconsistent():
    assert solve(Matrix([[1, 1], [1, 1]]), [0, 1]) is None


def test_rref_pivots():
    _, pivots = rref(Matrix([[0, 1, 2], [0, 2, 4]]))
    assert pivots == [1]


def _oracle_nullspace(m):
    a, pivots = rref(m)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [Q(0)] * m.cols
        v[fc] = Q(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


def _oracle_solve(m, rhs):
    a, pivots = rref(Matrix([m.data[i] + [rhs[i]] for i in range(m.rows)]))
    if m.cols in pivots:
        return None
    x = [Q(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = a[r][m.cols]
    return x


def _random_matrix(rng, rows, cols):
    """Sparse rational entries, some rows and columns forced to zero, some
    rows repeated as multiples of others so that kernels are common."""
    def entry():
        if rng.random() < 0.4:
            return 0
        if rng.random() < 0.5:
            return rng.randint(-5, 5)
        return Q(rng.randint(-20, 20), rng.randint(1, 9))
    data = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and rng.random() < 0.3:
        data[rng.randrange(rows)] = [0] * cols
    if cols > 1 and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in data:
            row[j] = 0
    if rows > 1 and rng.random() < 0.4:
        i, k = rng.sample(range(rows), 2)
        f = Q(rng.randint(-3, 3), rng.randint(1, 3))
        data[k] = [f * x for x in data[i]]
    return Matrix(data)


def test_integer_core_matches_rref_oracle():
    rng = Random(2024)
    shapes = [(1, 1), (1, 6), (6, 1), (2, 9), (9, 2), (4, 4), (5, 7), (8, 5)]
    seen = {"empty_kernel": 0, "inconsistent": 0, "consistent": 0}
    for trial in range(600):
        rows, cols = shapes[trial % len(shapes)]
        m = _random_matrix(rng, rows, cols)
        a, pivots = rref(m)
        assert rank(m) == len(pivots)
        kernel = nullspace(m)
        assert kernel == _oracle_nullspace(m)
        assert all(type(x) is Q for v in kernel for x in v)
        basis, d = integer_kernel(m)
        assert d > 0 and basis == [[d * x for x in v] for v in kernel]
        assert all(type(x) is int for v in basis for x in v)
        seen["empty_kernel"] += not kernel
        if rng.random() < 0.5:
            rhs = [rng.choice([0, rng.randint(-4, 4),
                               Q(rng.randint(-9, 9), rng.randint(1, 5))])
                   for _ in range(rows)]
        else:
            rhs = mat_vec(m, [rng.randint(-3, 3) for _ in range(cols)])
        x = solve(m, rhs)
        assert x == _oracle_solve(m, rhs)
        if x is None:
            seen["inconsistent"] += 1
        else:
            seen["consistent"] += 1
            assert all(type(v) is Q for v in x)
            assert mat_vec(m, x) == [Q(b) for b in rhs]
    assert all(count >= 20 for count in seen.values()), seen


def test_zero_and_empty_shapes():
    zero = Matrix.zero(3, 4)
    assert rank(zero) == 0
    assert nullspace(zero) == _oracle_nullspace(zero)
    assert solve(zero, [0, 0, 0]) == [Q(0)] * 4
    assert solve(zero, [0, 1, 0]) is None
    assert rank(Matrix([[0]])) == 0 and nullspace(Matrix([[0]])) == [[Q(1)]]
    assert solve(Matrix([[Q(2, 3)]]), [Q(1, 2)]) == [Q(3, 4)]
    with pytest.raises(ValueError, match="ragged rows"):
        Matrix([[1, 2], [3]])


def test_matrix_keeps_ints_and_converts_other_scalars():
    m = Matrix([[1, True, Q(1, 2)], [False, "3/4", 0.5]])
    assert [[type(x) for x in row] for row in m.data] == [[int, int, Q],
                                                        [int, Q, Q]]
    assert m.data == [[1, 1, Q(1, 2)], [0, Q(3, 4), Q(1, 2)]]
    assert all(type(x) is int for row in Matrix.identity(3).data
               for x in row)
    assert all(type(x) is int for row in cube_matrix(3).data for x in row)


def test_linear_system_keeps_ints_and_converts_other_scalars():
    sys_ = LinearSystem.build(2, strict=[(1, True, Q(1, 2))],
                              weak=[(False, "1/2", 0.5)], eq=[(3, -2, 0)])
    assert [[type(x) for x in row] for rows in (sys_.strict, sys_.weak,
                                                 sys_.eq) for row in rows] \
        == [[int, int, Q], [int, Q, Q], [int, int, int]]
    assert (sys_.strict, sys_.weak, sys_.eq) == (((1, 1, Q(1, 2)),),
                                                 ((0, Q(1, 2), Q(1, 2)),),
                                                 ((3, -2, 0),))


@pytest.mark.parametrize("rows, d", [
    # pivots 2 then det [[2, 1], [1, 0]] = -1; the third row is the sum
    ([[2, 1, 3, 0], [1, 0, 1, 2], [3, 1, 4, 2]], -1),
    # pivots -1 then det [[-1, 1], [1, -3]] = 2
    ([[-1, 1, 0, 5], [1, -3, 4, 1]], 2),
])
def test_non_unit_and_negative_pivots_match_rref(rows, d):
    m = Matrix(rows)
    a, pivots = rref(m)
    assert rank(m) == rank_bareiss(m) == len(pivots)
    assert nullspace(m) == _oracle_nullspace(m)
    rhs = [1, -2, 3][:m.rows]
    assert solve(m, rhs) == _oracle_solve(m, rhs)
    got = [list(row) for row in rows]
    assert _eliminate(got, m.cols, jordan=True) == (pivots, d)
    assert [[Q(x, d) for x in row] for row in got[:len(pivots)]] \
        == a[:len(pivots)]


@pytest.mark.parametrize("k, expected", [(15, 127), (16, 128)])
def test_rank_of_the_code_based_dim_witnesses(k, expected):
    """The (7, 15) and (7, 16) slicing matrices that the benchmark
    re-ranks, built here from the witness masks of ``dim``."""
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["dim", "--n", "7", "--k", str(k), "--strategy",
                     "code_based", "--json", "--threads", "1"]) == 0
    masks = [int(h, 16) for h in json.loads(out.getvalue())["witness"]]
    rows = []
    for v in all_vertices(7):
        x = list(vertex_coords(v, 7))
        row = list(x)
        for mask in masks:
            row.extend([1] + x if mask >> v & 1 else [0] * 8)
        rows.append(row)
    m = Matrix(rows)
    assert rank(m) == rank_bareiss(m) == expected
