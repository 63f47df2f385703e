"""Exact feasibility solver for systems of linear relations.

A :class:`LinearSystem` holds rows of coefficients over ``num_vars``
unknowns plus one trailing constant column, each row related to zero by
``>``, ``>=`` or ``=``.  Feasibility, including strict feasibility, is
decided exactly:

* constants are treated as a homogenizing coordinate ``x0`` carrying its
  own strict positivity row, which makes every system a homogeneous cone;
* every row is scaled to integers once (``linalg._int_rows``), and
  equality rows are eliminated on their integer kernel: with ``B, d =
  linalg.integer_kernel(eqs)`` the solutions are ``z = B y / d``, so the
  other rows are projected onto ``B`` by integer dot products.  ``d`` is
  positive (the last pivot's sign is moved into ``B``): the projected
  rows are then positive multiples of the projections onto the rational
  kernel basis, and Bland's rule takes the same pivots and returns the
  same witnesses, where a negated basis would walk the mirrored program;
* the remaining strict rows are tested by maximizing a margin variable
  ``t`` (strict rows become ``>= t``) inside a fixed bounding box, which is
  sound because cones are scale invariant; the system is feasible iff the
  exact optimum has ``t > 0``.

The margin program runs on a fraction-free integer simplex tableau with
Bland's anti-cycling rule, so no floating point enters any verdict.
Returned witnesses are re-checked by direct substitution before being
handed back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import Matrix, _int_rows, integer_kernel, qtuple

Q = Fraction


@dataclass(frozen=True)
class LinearSystem:
    """Rows ``a_1 x_1 + ... + a_m x_m + a_0  REL  0``.

    Each stored row has length ``num_vars + 1``; the last entry is the
    constant term (the homogenizing column).
    """

    num_vars: int
    strict: tuple[tuple[Fraction, ...], ...] = ()
    weak: tuple[tuple[Fraction, ...], ...] = ()
    eq: tuple[tuple[Fraction, ...], ...] = ()

    def __post_init__(self):
        width = self.num_vars + 1
        rows = self.strict + self.weak + self.eq
        if not rows:
            raise ValueError("empty system")
        if any(len(r) != width for r in rows):
            raise ValueError("row length must be num_vars + 1")

    @classmethod
    def build(cls, num_vars: int, strict=(), weak=(), eq=()) -> "LinearSystem":
        return cls(num_vars,
                   tuple(qtuple(r) for r in strict),
                   tuple(qtuple(r) for r in weak),
                   tuple(qtuple(r) for r in eq))

    def evaluate(self, x: Sequence[Fraction]) -> bool:
        """Check a candidate point against every row, strict rows strictly."""
        xs = list(x) + [Q(1)]
        return (all(_dot(r, xs) > 0 for r in self.strict)
                and all(_dot(r, xs) >= 0 for r in self.weak)
                and all(_dot(r, xs) == 0 for r in self.eq))


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((ai * bi for ai, bi in zip(a, b)), Q(0))


def solve_feasibility(sys: LinearSystem) -> Optional[tuple[Fraction, ...]]:
    """Exact witness satisfying every row (strict rows strictly), or None."""
    m = sys.num_vars
    homogeneous = all(r[m] == 0 for r in sys.strict + sys.weak + sys.eq)

    if homogeneous:
        if not sys.strict:
            return tuple(Q(0) for _ in range(m))  # the apex of the cone
        dim = m
        strict = [r[:m] for r in sys.strict]
        weak = [r[:m] for r in sys.weak]
        eqs = [r[:m] for r in sys.eq]
    else:
        # constants become the coordinate x0 > 0; witnesses are rescaled back
        dim = m + 1
        strict = sys.strict + (tuple(int(i == m) for i in range(dim)),)
        weak, eqs = sys.weak, sys.eq

    if eqs:
        # z = B y / d with the columns of B spanning the equalities' kernel
        basis, d = integer_kernel(Matrix(eqs))
        if not basis:
            return None  # z = 0 is the only solution
    else:
        basis, d = None, 1

    # a strict row a.z > 0 enters the margin program as a.z - t >= 0 and a
    # weak row as a.z >= 0; scaling (a, -1) to integers gives each strict
    # row its own lcm scale as its coefficient of t
    rows = []
    for row in _int_rows([a + (-1,) for a in strict]
                         + [a + (0,) for a in weak]):
        ra = _project(row[:-1], basis)
        if any(ra):
            rows.append((ra, -row[-1]))
        elif row[-1]:
            return None  # a strict row vanishes on every solution
    ncols = dim if basis is None else len(basis)
    solution = _margin_lp(rows, ncols, box=2 * (m + 1))
    if solution is None:
        return None
    y, den = solution

    z = y if basis is None else [sum(col[i] * yj for col, yj in zip(basis, y))
                                 for i in range(dim)]
    if homogeneous:
        x = tuple(Q(zi, d * den) for zi in z)
    else:
        x = tuple(Q(z[i], z[m]) for i in range(m))

    if not sys.evaluate(x):
        raise AssertionError("feasibility witness failed re-validation")
    return x


def _project(row: list[int], basis: Optional[list[list[int]]]) -> list[int]:
    """Coefficients of the integer row on the kernel basis, if any."""
    if basis is None:
        return row
    return [sum(a * b for a, b in zip(row, col)) for col in basis]


def _margin_lp(rows, nvars, box: int):
    """Maximize t subject to a.y >= s t for every integer row ``(a, s)``
    (s > 0 for strict rows, s = 0 for weak ones) and |y| <= box.

    Returns the numerators of y over their common positive denominator,
    or None when the exact optimum is t = 0 (the zero point is always
    feasible, so the optimum is never negative).
    """
    # structural variables: u_0..u_{n-1}, w_0..w_{n-1}, t  (y = u - w)
    nstruct = 2 * nvars + 1
    cons = [([-x for x in a] + a + [s], 0) for a, s in rows]
    for j in range(2 * nvars):
        unit = [0] * nstruct
        unit[j] = 1
        cons.append((unit, box))
    objective = [0] * nstruct
    objective[-1] = 1

    value, assignment, den = _simplex_max(cons, objective)
    if value <= 0:
        return None
    return [assignment[j] - assignment[nvars + j] for j in range(nvars)], den


def _simplex_max(cons: list[tuple[list[int], int]],
                 objective: list[int]) -> tuple[int, list[int], int]:
    """Maximize objective over A y <= b, y >= 0 with all b >= 0.

    The slack basis is feasible, so a single phase suffices.  The tableau
    is kept integral (Edmonds-style pivoting with a common denominator)
    and Bland's rule guarantees termination under degeneracy.  Returns
    the optimum and the optimal y as numerators over the common
    denominator, which is positive.
    """
    nstruct = len(objective)
    nrows = len(cons)
    width = nstruct + nrows + 1
    tab: list[list[int]] = []
    for i, (row, rhs) in enumerate(cons):
        r = row + [0] * nrows + [rhs]
        r[nstruct + i] = 1
        tab.append(r)
    obj = objective + [0] * nrows + [0]
    den = 1
    basis = [nstruct + i for i in range(nrows)]

    while True:
        enter = next((j for j in range(width - 1) if obj[j] > 0), None)
        if enter is None:
            break
        leave = -1
        for i in range(nrows):
            if tab[i][enter] <= 0:
                continue
            if leave < 0:
                leave = i
                continue
            lhs = tab[i][width - 1] * tab[leave][enter]
            rhs = tab[leave][width - 1] * tab[i][enter]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            raise RuntimeError("margin program unbounded despite box")
        piv = tab[leave][enter]
        for i in range(nrows):
            if i == leave:
                continue
            f = tab[i][enter]
            tab[i] = [(piv * tab[i][j] - f * tab[leave][j]) // den
                      for j in range(width)]
        f = obj[enter]
        obj = [(piv * obj[j] - f * tab[leave][j]) // den for j in range(width)]
        den = piv
        basis[leave] = enter

    assignment = [0] * nstruct
    for i, bv in enumerate(basis):
        if bv < nstruct:
            assignment[bv] = tab[i][width - 1]
    return -obj[width - 1], assignment, den
