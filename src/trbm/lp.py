"""Exact feasibility solver for systems of linear relations.

A :class:`LinearSystem` holds rows of coefficients over ``num_vars``
unknowns plus one trailing constant column, each row related to zero by
``>``, ``>=`` or ``=``.  Feasibility, including strict feasibility, is
decided exactly:

* constants are treated as a homogenizing coordinate ``x0`` carrying its
  own strict positivity row, which makes every system a homogeneous cone;
* equality rows are eliminated by exact Gaussian elimination;
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
from math import lcm
from typing import Optional, Sequence

from .linalg import Matrix, nullspace, qtuple

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
        dim = m
        strict = [r[:m] for r in sys.strict]
        weak = [r[:m] for r in sys.weak]
        eqs = [r[:m] for r in sys.eq]
    else:
        # constants become the coordinate x0 > 0; witnesses are rescaled back
        dim = m + 1
        strict = [r for r in sys.strict]
        strict.append(tuple(Q(i == m) for i in range(dim)))
        weak = list(sys.weak)
        eqs = list(sys.eq)

    if eqs:
        basis = nullspace(Matrix(eqs))
        if not basis:
            # z = 0 is the only solution of the equalities
            if strict:
                return None
            x = tuple(Q(0) for _ in range(m))
            return x if sys.evaluate(x) else None
        # z = N y with N columns forming the kernel basis
        ncols = len(basis)
        reduce = lambda a: tuple(_dot(a, col) for col in basis)  # noqa: E731
    else:
        ncols = dim
        reduce = lambda a: tuple(a)  # noqa: E731

    red_strict = []
    for a in strict:
        ra = reduce(a)
        if all(x == 0 for x in ra):
            return None
        red_strict.append(ra)
    red_weak = []
    for a in weak:
        ra = reduce(a)
        if any(x != 0 for x in ra):
            red_weak.append(ra)

    if not red_strict:
        y = [Q(0)] * ncols
    else:
        y = _margin_lp(red_strict, red_weak, ncols, box=2 * (m + 1))
        if y is None:
            return None

    if eqs:
        z = [sum((basis[j][i] * y[j] for j in range(ncols)), Q(0))
             for i in range(dim)]
    else:
        z = list(y)
    if homogeneous:
        x = tuple(z)
    else:
        x0 = z[m]
        if x0 <= 0:
            return None
        x = tuple(z[i] / x0 for i in range(m))

    if not sys.evaluate(x):
        raise AssertionError("feasibility witness failed re-validation")
    return x


def _margin_lp(strict, weak, nvars, box: int) -> Optional[list[Fraction]]:
    """Maximize t subject to strict rows >= t, weak rows >= 0, |y| <= box.

    Returns y with positive margin, or None when the exact optimum is
    t = 0 (the zero point is always feasible, so the optimum is never
    negative).
    """
    # structural variables: u_0..u_{n-1}, w_0..w_{n-1}, t  (y = u - w)
    nstruct = 2 * nvars + 1
    tcol = 2 * nvars
    cons: list[tuple[list[int], int]] = []
    for a in strict:
        row = _int_row(a)
        cons.append(([-x for x in row] + row + [_row_scale(a)], 0))
    for a in weak:
        row = _int_row(a)
        cons.append(([-x for x in row] + row + [0], 0))
    for j in range(2 * nvars):
        unit = [0] * nstruct
        unit[j] = 1
        cons.append((unit, box))
    objective = [0] * nstruct
    objective[tcol] = 1

    value, assignment = _simplex_max(cons, objective)
    if value <= 0:
        return None
    return [assignment[j] - assignment[nvars + j] for j in range(nvars)]


def _int_row(a: Sequence[Fraction]) -> list[int]:
    s = _row_scale(a)
    return [int(x * s) for x in a]


def _row_scale(a: Sequence[Fraction]) -> int:
    return lcm(*(x.denominator for x in a))


def _simplex_max(cons: list[tuple[list[int], int]],
                 objective: list[int]) -> tuple[Fraction, list[Fraction]]:
    """Maximize objective over A y <= b, y >= 0 with all b >= 0.

    The slack basis is feasible, so a single phase suffices.  The tableau
    is kept integral (Edmonds-style pivoting with a common denominator)
    and Bland's rule guarantees termination under degeneracy.
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

    value = Q(-obj[width - 1], den)
    assignment = [Q(0)] * nstruct
    for i, bv in enumerate(basis):
        if bv < nstruct:
            assignment[bv] = Q(tab[i][width - 1], den)
    return value, assignment
