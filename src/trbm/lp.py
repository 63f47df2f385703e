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
from operator import mul
from typing import Optional, Sequence, Union

from .linalg import Matrix, _int_rows, _number, integer_kernel

Q = Fraction
Scalar = Union[int, Fraction]


@dataclass(frozen=True)
class LinearSystem:
    """Rows ``a_1 x_1 + ... + a_m x_m + a_0  REL  0``.

    Each stored row has length ``num_vars + 1``; the last entry is the
    constant term (the homogenizing column).  :meth:`build` keeps ``int``
    entries as ``int`` and makes other entries ``Fraction``, as ``Matrix``.
    """

    num_vars: int
    strict: tuple[tuple[Scalar, ...], ...] = ()
    weak: tuple[tuple[Scalar, ...], ...] = ()
    eq: tuple[tuple[Scalar, ...], ...] = ()

    def __post_init__(self):
        width = self.num_vars + 1
        rows = self.strict + self.weak + self.eq
        if not rows:
            raise ValueError("empty system")
        if any(len(r) != width for r in rows):
            raise ValueError("row length must be num_vars + 1")

    @classmethod
    def build(cls, num_vars: int, strict=(), weak=(), eq=()) -> "LinearSystem":
        def rows(data):
            return tuple(tuple(map(_number, r)) for r in data)
        return cls(num_vars, rows(strict), rows(weak), rows(eq))

    def evaluate(self, x: Sequence[Scalar]) -> bool:
        """Check a candidate point against every row, strict rows strictly.

        The point is substituted as the integer numerators of its entries
        over their common denominator D > 0, with D in the constant slot:
        each row's value is multiplied by D, which leaves every sign as it
        is, and ``int`` rows are evaluated in ``int`` arithmetic.
        """
        [xs] = _int_rows([(*x, 1)])
        return (all(_dot(r, xs) > 0 for r in self.strict)
                and all(_dot(r, xs) >= 0 for r in self.weak)
                and all(_dot(r, xs) == 0 for r in self.eq))


def _dot(a: Sequence[Scalar], b: Sequence[int]) -> Scalar:
    return sum(map(mul, a, b))


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

    With y = u - w the rows read -a.u + a.w + s t <= 0 and u, w <= box
    over u, w, t >= 0, so the slack basis is feasible and one simplex
    phase suffices.  The tableau is integral (Edmonds 1967: fraction-free
    pivots over a common denominator ``den``) and condensed: it keeps
    only the nonbasic columns, each with its variable label, and the
    right-hand side.  In the full tableau every basic column is ``den``
    times a unit vector, so the numbers kept are exactly the full
    tableau's.  Bland's rule enters the smallest label with a positive
    objective entry and breaks ratio-test ties by the smallest basic
    label, so the pivots, the optimum, y and ``den`` are those of the
    full tableau.
    """
    # labels: u_0..u_{n-1}, w_0..w_{n-1}, t, then one slack per row
    nstruct = 2 * nvars + 1
    tab = [[-x for x in a] + a + [s, 0] for a, s in rows]
    tab += [[int(i == j) for i in range(nstruct)] + [box]
            for j in range(2 * nvars)]
    nrows = len(tab)
    obj = [0] * (2 * nvars) + [1, 0]
    tab.append(obj)  # the objective row is updated with the others
    nonbasic = list(range(nstruct))
    basis = list(range(nstruct, nstruct + nrows))
    den = 1

    while True:
        enter = min((j for j in range(nstruct) if obj[j] > 0),
                    key=nonbasic.__getitem__, default=None)
        if enter is None:
            break
        leave = -1
        for i in range(nrows):
            if tab[i][enter] <= 0:
                continue
            if leave < 0:
                leave = i
                continue
            lhs = tab[i][-1] * tab[leave][enter]
            rhs = tab[leave][-1] * tab[i][enter]
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        if leave < 0:
            raise RuntimeError("margin program unbounded despite box")
        prow = tab[leave]
        piv = prow[enter]
        for i, row in enumerate(tab):
            if i == leave:
                continue
            f = row[enter]
            if f:
                row = [(piv * x - f * y) // den for x, y in zip(row, prow)]
                row[enter] = -f
                tab[i] = row
            elif piv != den:
                tab[i] = [piv * x // den for x in row]
        obj = tab[nrows]
        prow[enter] = den
        den = piv
        basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]

    if obj[-1] >= 0:
        return None  # the optimum -obj[-1] / den is t = 0
    values = [0] * nstruct
    for i, label in enumerate(basis):
        if label < nstruct:
            values[label] = tab[i][-1]
    return [values[j] - values[nvars + j] for j in range(nvars)], den
