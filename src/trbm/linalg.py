"""Dense exact linear algebra over the rationals.

Matrices are dense and immutable in spirit: every operation returns fresh
data and never mutates its input.  Scalars are ``int`` or
``fractions.Fraction``, so all ranks, kernels and solutions are exact.
:func:`rank`, :func:`integer_kernel`, :func:`nullspace` and :func:`solve`
share one fraction-free elimination on integer rows (Bareiss 1968).
:func:`integer_kernel` returns its kernel basis in integers, together with
the positive divisor that :func:`nullspace` divides by; no ``Fraction`` is
formed until a kernel vector or a solution is returned as rationals.
:func:`_int_rows` is the one place where rational rows become integer
rows, each scaled by the lcm of its denominators.  Fraction-free
Bareiss rank (:func:`rank_bareiss`) shares no code with it and serves as
its oracle.
:func:`rank_01` ranks 0/1 matrices held as bitset columns over GF(2)
first and calls :func:`rank` only when that rank is not certified.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Q = Fraction


def _number(x):
    """An exact scalar: ints stay ints, bools become ints, else Fraction."""
    if type(x) is int or isinstance(x, Fraction):
        return x
    return int(x) if isinstance(x, int) else Fraction(x)


def qtuple(xs) -> tuple[Fraction, ...]:
    """The entries of ``xs`` as a tuple of Fractions."""
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in xs)


class Matrix:
    """A dense rows x cols matrix of exact rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Sequence]):
        self.data = [[_number(x) for x in row] for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[int(i == j) for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls([[0] * cols for _ in range(rows)])

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"

    def transpose(self) -> "Matrix":
        return Matrix([[self.data[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])


def _int_rows(data) -> list[list[int]]:
    """Each row times the lcm of its denominators: same row space, ints."""
    out = []
    for row in data:
        s = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (s // x.denominator) for x in row])
    return out


def _eliminate(a: list[list[int]], ncols: int,
               jordan: bool) -> tuple[list[int], int]:
    """Fraction-free elimination of the integer rows ``a`` in place.

    Returns the pivot columns and the last pivot ``d``.  Each pivot is
    the first nonzero entry at or below the current row, swapped up.
    Every update ``(piv * x - f * y) // prev`` divides exactly, because
    each entry is a minor of the input
    (Sylvester's identity).  Without ``jordan`` only rows below each
    pivot are cleared, which suffices for the rank.  With ``jordan`` the
    rows above are cleared too; then every pivot ends equal to ``d`` and
    the first ``len(pivots)`` rows divided by ``d`` are exactly the
    reduced row echelon form.
    """
    nrows = len(a)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        prow = a[r]
        piv = prow[c]
        for i in range(0 if jordan else r + 1, nrows):
            if i == r:
                continue
            row = a[i]
            f = row[c]
            if f:
                a[i] = [(piv * x - f * y) // prev for x, y in zip(row, prow)]
            elif piv != prev:
                a[i] = [piv * x // prev for x in row]
        pivots.append(c)
        prev = piv
        r += 1
    return pivots, prev


def rank(m: Matrix) -> int:
    """Exact rank over Q by fraction-free elimination."""
    return len(_eliminate(_int_rows(m.data), m.cols, jordan=False)[0])


def rank_gf2(columns: Sequence[int], nrows: int) -> int:
    """Rank over GF(2) of the 0/1 matrix with ``nrows`` rows whose column
    j has bit i set exactly when entry (i, j) is 1.

    Each column is reduced by XOR with the kept column that has the same
    leading bit, until its leading bit is new or it vanishes.  The scan
    stops once the rank reaches min(nrows, len(columns)).
    """
    bound = min(nrows, len(columns))
    pivots: dict[int, int] = {}
    for col in columns:
        while col:
            top = col.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = col
                if len(pivots) == bound:
                    return bound
                break
            col ^= pivot
    return len(pivots)


def rank_01(columns: Sequence[int], nrows: int) -> int:
    """Exact rank over Q of the 0/1 matrix given as in :func:`rank_gf2`.

    A minor that is odd is a nonzero integer, so the GF(2) rank is at
    most the rational rank.  When it reaches min(nrows, len(columns)) it
    is therefore the exact rank; otherwise the rows are rebuilt from the
    bits and ranked by the integer core.
    """
    certified = rank_gf2(columns, nrows)
    if certified == min(nrows, len(columns)):
        return certified
    return rank(Matrix([[col >> i & 1 for col in columns]
                        for i in range(nrows)]))


def rank_bareiss(m: Matrix) -> int:
    """Exact rank by fraction-free Bareiss elimination.

    Rows are first scaled to integers (rank is invariant under row
    scaling), then eliminated keeping all intermediates integral.  This
    path shares no code with :func:`rank` and serves as its oracle.
    When the pivot equals the previous one, an entry whose row has 0 in
    the pivot column, or whose column has 0 in the pivot row, would
    become ``(piv * x - 0) // prev = x``: that update is the identity,
    so such rows and columns are skipped.  On 0/1 slicing matrices the
    entries stay small and most updates are identities, so the cost is
    interpreter work rather than bigint growth, and the skip saves it.
    """
    a = []
    for row in m.data:
        lcm = math.lcm(*(x.denominator for x in row))
        a.append([int(x * lcm) for x in row])
    nrows, ncols = m.rows, m.cols
    prev = 1
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        prow = a[r]
        piv = prow[c]
        cols = range(c + 1, ncols)
        if piv == prev:
            cols = [j for j in cols if prow[j]]
        for i in range(r + 1, nrows):
            row = a[i]
            f = row[c]
            if f == 0 and piv == prev:
                continue
            for j in cols:
                # exact integer division is guaranteed by the Bareiss identity
                row[j] = (piv * row[j] - f * prow[j]) // prev
            row[c] = 0
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def integer_kernel(m: Matrix) -> tuple[list[list[int]], int]:
    """Integer kernel basis ``B`` and divisor ``d > 0``.

    ``nullspace(m)`` is exactly ``B / d``: the core's kernel vectors
    before division.  The last pivot can be negative; its sign moves
    into ``B`` so that ``B`` points the same way as the kernel basis.
    """
    a = _int_rows(m.data)
    pivots, d = _eliminate(a, m.cols, jordan=True)
    sign = 1 if d > 0 else -1
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [0] * m.cols
        v[fc] = sign * d
        for r, pc in enumerate(pivots):
            v[pc] = -sign * a[r][fc]
        basis.append(v)
    return basis, sign * d


def nullspace(m: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel; dimension equals cols - rank."""
    basis, d = integer_kernel(m)
    return [[Q(x, d) for x in v] for v in basis]


def solve(m: Matrix, rhs: Sequence) -> Optional[list[Fraction]]:
    """One exact solution of m x = rhs, or None if inconsistent.

    Free variables, if any, are set to zero.
    """
    a = _int_rows(m.data[i] + [_number(rhs[i])] for i in range(m.rows))
    pivots, d = _eliminate(a, m.cols + 1, jordan=True)
    if m.cols in pivots:
        return None
    x = [Q(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = Q(a[r][m.cols], d)
    return x
