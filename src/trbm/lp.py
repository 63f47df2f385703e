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
  other rows are projected onto ``B`` by integer dot products.  A system
  without equalities takes the kernel of one zero row, the identity with
  ``d = 1``, so every system takes this one path.  ``d`` is positive
  (the last pivot's sign is moved into ``B``): the projected rows are
  then positive multiples of the projections onto the rational
  kernel basis, and Bland's rule takes the same pivots and returns the
  same witnesses, where a negated basis would walk the mirrored program;
* the remaining strict rows are tested by maximizing a margin variable
  ``t`` (strict rows become ``>= t``) inside a fixed bounding box, which is
  sound because cones are scale invariant; the system is feasible iff the
  exact optimum has ``t > 0``.

The margin program runs on a fraction-free integer simplex tableau with
Bland's anti-cycling rule, so no floating point enters any verdict.  It
does only the row work whose result is read.  Its pivots, and the
``den``, witness and multipliers it returns, are those of the full
tableau, which holds every box row from the start (the tests' oracle):

* until its first non-degenerate pivot every constraint row keeps
  right-hand side 0, so the tableau holds only the constraint rows and
  the objective;
* the box phase's ratio test reads each box row's entry from the basis,
  and builds only the pivot row;
* a pivot after which Bland's rule finds no entering column is the last,
  and updates only the objective and the right-hand sides of the basic
  u, w: the optimum t > 0 is then known, and y is all that is read.  Any
  other box-phase pivot first builds every box row from the basis;
* a pivot updates only the columns where its row is nonzero, and leaves
  a row with 0 in the pivot column as it is when the pivot equals
  ``den``.

Row addition: a tableau stopped at the end of that degenerate phase
can take one more constraint row, built from its basis.  The new slack
has the largest label, so Bland's ratio test passed it over at every
pivot made so far; rows added one at a time give the pivots, ``den`` and
witness of the same rows built at once (:class:`_Tableau`).

Infeasibility comes with a Farkas certificate.  At the optimum t = 0
the final objective row holds the dual multipliers: minus its entry in
the column of a nonbasic constraint slack, and 0 for a basic one.  They
are >= 0 and combine the constraint rows to zero with a positive
coefficient of t; the box rows get 0, since the dual optimum, box times
the sum of their multipliers, equals t* = 0.  :func:`solve_feasibility`
maps them back to the system's rows: a row's multiplier times its
integer scale, and on the equalities the multipliers y of one
:func:`linalg.solve`, since the combination of the other rows vanishes
on the kernel and so lies in the row space of the equalities.  Its
early exits get certificates the same way (:class:`Farkas`).

Returned witnesses are re-checked by direct substitution before being
handed back, and certificates the same way (:meth:`Farkas.refutes`).
The slicing queries of :mod:`trbm.cube` hand their integer rows to
:func:`_margin_lp` or :class:`_Tableau` directly, with the same box
(:func:`_box`), and re-check the witness or the multipliers themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional, Sequence, Union

from .linalg import Matrix, _int_rows, _number, integer_kernel, solve

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
        over their common denominator D > 0, with D in the constant slot,
        and each row is taken times the lcm of its denominators (1 for an
        ``int`` row): each value is multiplied by a positive integer,
        which leaves every sign as it is, and is summed in integers.
        """
        [xs] = _int_rows([(*x, 1)])

        def values(rows):
            return (_dot(r, xs) for r in _int_rows(rows))
        return (all(v > 0 for v in values(self.strict))
                and all(v >= 0 for v in values(self.weak))
                and all(v == 0 for v in values(self.eq)))


class Farkas(NamedTuple):
    """Multipliers refuting a :class:`LinearSystem`, one per row:
    ``strict`` and ``weak`` >= 0, ``eq`` free (:meth:`refutes`).  A
    ``NamedTuple`` is made at import in a tenth of a frozen dataclass's
    time."""

    strict: tuple[Scalar, ...]
    weak: tuple[Scalar, ...]
    eq: tuple[Scalar, ...]

    def refutes(self, sys: LinearSystem) -> bool:
        """Check the certificate by substitution in the rows of ``sys``.

        The combination r = lam.S + mu.W + y.E of the rows, with lam >= 0
        and mu >= 0, must vanish on every unknown and have a constant
        r_0 <= 0, with lam != 0 or r_0 < 0.  At a solution x the
        combination's value is r_0, yet every strict row is > 0 there,
        the weak rows >= 0 and the equalities 0: so no x exists.  The
        rows are taken times the common denominator D > 0 of their
        entries, which leaves every sign as it is, so r D is summed in
        integers.
        """
        terms = []
        for mults, rows, signed in ((self.strict, sys.strict, True),
                                    (self.weak, sys.weak, True),
                                    (self.eq, sys.eq, False)):
            if len(mults) != len(rows) or signed and any(k < 0
                                                         for k in mults):
                return False
            terms += [(k, row) for k, row in zip(mults, rows) if k]
        scale = math.lcm(*(x.denominator for _, row in terms for x in row))
        combo = [0] * (sys.num_vars + 1)
        for k, row in terms:
            combo = [c + k * (x.numerator * (scale // x.denominator))
                     for c, x in zip(combo, row)]
        *unknowns, r0 = combo
        return not any(unknowns) and (r0 < 0
                                      or r0 == 0 and any(self.strict))


def _dot(a: Sequence[Scalar], b: Sequence[int]) -> Scalar:
    return sum(map(mul, a, b))


def solve_feasibility(sys: LinearSystem,
                      certificates: Optional[list] = None
                      ) -> Optional[tuple[Fraction, ...]]:
    """Exact witness satisfying every row (strict rows strictly), or None.

    A None is proved by a :class:`Farkas` certificate, checked by
    substitution as a witness is; it is appended to ``certificates``
    when that is a list.
    """
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

    # a strict row a.z > 0 enters the margin program as a.z - t >= 0 and a
    # weak row as a.z >= 0; scaling (a, -1) to integers gives each strict
    # row its own lcm scale as its coefficient of t
    scaled = _int_rows([a + (-1,) for a in strict] + [a + (0,) for a in weak])

    def refuted(pi: dict[int, int]) -> None:
        cert = _farkas(sys, strict, weak, eqs, scaled, pi)
        if certificates is not None:
            certificates.append(cert)

    # z = B y / d with the columns of B spanning the equalities' kernel; a
    # system without equalities takes the kernel of one zero row: B = I, d = 1
    basis, d = integer_kernel(Matrix(eqs or [[0] * dim]))

    rows, source = [], []
    for i, row in enumerate(scaled):
        ra = [_dot(col, row) for col in basis]  # stops before t's column
        if any(ra):
            rows.append((ra, -row[-1]))
            source.append(i)
        elif row[-1]:
            return refuted({i: 1})  # a strict row vanishes on every solution
    witness, pi = _margin_lp(rows, len(basis), _box(m))
    if witness is None:
        return refuted({source[i]: k for i, k in enumerate(pi) if k})
    y, den = witness

    z = [sum(col[i] * yj for col, yj in zip(basis, y)) for i in range(dim)]
    if homogeneous:
        x = tuple(Q(zi, d * den) for zi in z)
    else:
        x = tuple(Q(z[i], z[m]) for i in range(m))

    if not sys.evaluate(x):
        raise AssertionError("feasibility witness failed re-validation")
    return x


def _farkas(sys, strict, weak, eqs, scaled, pi) -> Farkas:
    """The checked certificate of ``sys`` from multipliers ``pi`` (row
    index: k >= 0) of the integer rows ``scaled`` of ``strict`` and
    ``weak``, whose combination vanishes on the kernel of ``eqs``.

    Row i of ``scaled`` is its row times s_i > 0, so it gets k s_i.  The
    equalities get y with y.E = -(that combination), from
    :func:`linalg.solve` (free multipliers 0), and every multiplier is
    taken times the lcm of y's denominators.  The x0 row of a system
    with constants is dropped: its multiplier is minus the certificate's
    constant.
    """
    combo = [0] * (len(scaled[0]) - 1)
    for i, k in pi.items():
        combo = [c + k * a for c, a in zip(combo, scaled[i])]
    y = solve(Matrix(eqs).transpose(), [-c for c in combo])
    if y is None:
        raise AssertionError("Farkas multipliers do not vanish on the "
                             "kernel of the equalities")
    scale = math.lcm(*(q.denominator for q in y))
    mults = [0] * len(scaled)
    for i, k in pi.items():
        row = strict[i] if i < len(strict) else weak[i - len(strict)]
        mults[i] = k * scale * math.lcm(*(x.denominator for x in row))
    cert = Farkas(tuple(mults[:len(sys.strict)]), tuple(mults[len(strict):]),
                  tuple(q.numerator * (scale // q.denominator) for q in y))
    if not cert.refutes(sys):
        raise AssertionError("Farkas certificate failed re-validation")
    return cert


def _box(num_vars: int) -> int:
    """The margin program's bound on |y| for a system over ``num_vars``
    unknowns.  Cones are scale invariant, so any bound > 0 is sound."""
    return 2 * (num_vars + 1)


def _margin_lp(rows, nvars, box: int):
    """Maximize t subject to a.y >= s t for every integer row ``(a, s)``
    (s > 0 for strict rows, s = 0 for weak ones) and |y| <= box.

    Returns (witness, None) with the witness the numerators of y over
    their common positive denominator, or (None, pi) with the Farkas
    multipliers of the rows when the exact optimum is t = 0 (the zero
    point is always feasible, so the optimum is never negative).  All
    rows are built at once (:class:`_Tableau`), then the LP is solved.
    """
    return _Tableau(nvars, rows).solve(box)


class _Tableau:
    """The margin LP of :func:`_margin_lp` over the rows given so far,
    stopped at the end of its degenerate phase.

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
    full tableau.  Labels: u_0..u_{n-1}, w_0..w_{n-1}, t, then one slack
    per constraint row in row order, then the box rows' slacks.

    Until the first non-degenerate pivot every constraint row keeps
    right-hand side 0 and every box row a positive one, so the ratio
    test takes the smallest basic label among the constraint rows with a
    positive entry (:meth:`_degenerate`), and the tableau holds only the
    constraint rows and the objective, kept last.  The phase stops when
    the objective has no positive entry (the optimum is t = 0) or when
    no constraint row bounds the entering column ``enter``.  The box
    phase is :meth:`solve`'s, and builds a box row only where a pivot
    reads the whole row.

    :meth:`add` appends a constraint row in that state.  Its slack has
    the largest label, so the ratio test passed it over at every pivot
    made so far: those are the first pivots of the LP with it.  A basis
    determines its fraction-free tableau, so the row built from the
    basis is the one those pivots would have left.  Rows added one at a
    time therefore give the pivots, ``den`` and witness of the same rows
    built at once.  :meth:`solve` leaves the tableau as it is, and a
    :meth:`copy` shares its rows, since no step writes into a row.
    """

    __slots__ = ("nvars", "tab", "basis", "nonbasic", "den", "enter")

    def __init__(self, nvars: int, rows=()):
        self.nvars = nvars
        self.tab = [[-x for x in a] + [*a, s, 0] for a, s in rows]
        self.tab.append([0] * (2 * nvars) + [1, 0])
        self.nonbasic = list(range(2 * nvars + 1))
        self.basis = list(range(2 * nvars + 1, 2 * nvars + 1 + len(rows)))
        self.den = 1
        self._degenerate()

    @property
    def ncon(self) -> int:
        """The number of constraint rows."""
        return len(self.basis)

    def copy(self) -> "_Tableau":
        other = _Tableau.__new__(_Tableau)
        other.nvars, other.den, other.enter = self.nvars, self.den, self.enter
        other.tab = list(self.tab)
        other.basis, other.nonbasic = list(self.basis), list(self.nonbasic)
        return other

    def add(self, a, s) -> None:
        """Append the row a.y >= s t in the current basis, then go on
        with the degenerate phase.

        The row -a.u + a.w + s t + slack = 0 has coefficient c_l on the
        structural label l.  A nonbasic l in column q contributes
        ``den c_l e_q``; an l basic in row R contributes ``-c_l R``,
        since den x_l equals R_rhs minus R's nonbasic terms.  Every
        constraint right-hand side is 0 here, so the new row's is too.
        """
        nstruct = 2 * self.nvars + 1
        coef = [-x for x in a] + [*a, s]
        row = [self.den * coef[label] if label < nstruct else 0
               for label in self.nonbasic] + [0]
        for i, label in enumerate(self.basis):
            c = coef[label] if label < nstruct else 0
            if c:
                for q, r in enumerate(self.tab[i]):
                    if r:
                        row[q] -= c * r
        self.tab.insert(self.ncon, row)
        self.basis.append(nstruct + self.ncon)
        self._degenerate()

    def _degenerate(self) -> None:
        """Degenerate pivots until the objective has no positive entry
        (``enter`` None) or no constraint row bounds column ``enter``."""
        tab, basis, nonbasic = self.tab, self.basis, self.nonbasic
        while True:
            self.enter = enter = _entering(tab[-1], nonbasic)
            if enter is None:
                return
            leave = -1
            for i, label in enumerate(basis):
                if tab[i][enter] > 0 and (leave < 0 or label < basis[leave]):
                    leave = i
            if leave < 0:
                return
            self.den = _pivot(tab, leave, enter, self.den)
            basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]

    def solve(self, box: int):
        """The LP with its box rows: ((y, den), None), or (None, pi) at
        the optimum t = 0.

        If the degenerate phase ended at the optimum, constraint row i
        gets minus the objective entry of its slack if that is nonbasic,
        else 0: pi >= 0, sum pi_i a_i = 0 and sum pi_i s_i > 0, so no y
        has a.y > 0 on the rows with s > 0 and a.y >= 0 on the others.
        Every box slack is basic there, so the box rows get 0.

        Otherwise only box rows bound column ``enter``, and the box
        phase starts at :func:`_box_pivot`.  Each pivot updates the
        objective first; the last, after which Bland's rule finds no
        entering column, updates nothing else but the right-hand sides
        read for y.  Any other pivot is made on the whole tableau, with
        its box rows built (:func:`_box_row`) before the first.  The
        stored tableau is not written, so it can take more rows after.
        """
        tab, basis, nonbasic = self.tab, self.basis, self.nonbasic
        den, enter, nvars = self.den, self.enter, self.nvars
        first, ncon = 2 * nvars + 1, len(basis)
        if enter is None:
            pi = [0] * ncon
            for j, label in enumerate(nonbasic):
                if label >= first:
                    pi[label - first] = -tab[-1][j]
            return None, pi
        leave, prow = _box_pivot(tab, basis, nonbasic, nvars, box, den, enter)
        while True:
            f = tab[-1][enter]
            obj = [(prow[enter] * x - f * y) // den
                   for x, y in zip(tab[-1], prow)]
            obj[enter] = -f  # < 0: Bland's rule skips the unswapped label
            nxt = _entering(obj, nonbasic)
            if nxt is None:
                break
            if tab is self.tab:  # the box rows are not built yet
                rows = [_box_row(tab, basis, nonbasic, label, box, den)
                        for label in range(2 * nvars)]
                tab = [*tab[:ncon], *rows, tab[-1]]
                basis = basis + [first + ncon + j for j in range(2 * nvars)]
                nonbasic = list(nonbasic)
            den = _pivot(tab, leave, enter, den)
            basis[leave], nonbasic[enter] = nonbasic[enter], basis[leave]
            enter = nxt
            leave = _ratio_test(tab, basis, enter)
            prow = tab[leave]

        piv, rhs = prow[enter], prow[-1]
        values = [0] * (2 * nvars)  # den times u, w after the last pivot
        for i, label in enumerate(basis):
            if label < 2 * nvars and i != leave:
                row = tab[i]
                values[label] = (piv * row[-1] - row[enter] * rhs) // den
        if nonbasic[enter] < 2 * nvars:
            values[nonbasic[enter]] = rhs
        return ([values[j] - values[nvars + j] for j in range(nvars)],
                piv), None


def _entering(obj, nonbasic) -> Optional[int]:
    """Bland's entering column: the smallest label with a positive
    objective entry, or None at the optimum."""
    enter = None
    for j, label in enumerate(nonbasic):
        if obj[j] > 0 and (enter is None or label < nonbasic[enter]):
            enter = j
    return enter


def _box_row(tab, basis, nonbasic, label, box, den):
    """The row of u_j <= box or w_j <= box (``label`` j or nvars + j) in
    the current basis, with its slack basic.

    A nonbasic label in column q gives ``den e_q | den box``; a label
    basic in row R gives ``-R | den box - R_rhs``, since then den u_j
    equals R_rhs minus R's nonbasic terms.
    """
    if label in basis:
        row = [-x for x in tab[basis.index(label)]]
        row[-1] += den * box
    else:
        row = [0] * (len(nonbasic) + 1)
        row[nonbasic.index(label)] = den
        row[-1] = den * box
    return row


def _box_pivot(tab, basis, nonbasic, nvars, box, den, enter):
    """The first box-phase pivot for column ``enter``: the index the
    leaving box row has among all rows, and that row (:func:`_box_row`).

    Every constraint row has right-hand side 0 and an entry <= 0 in
    ``enter``, and every box row right-hand side ``den box``; so the
    ratio test takes the box row with the largest entry, ties to the
    smallest label.  That entry is ``-R[enter]`` for a label basic in
    row R, ``den`` for the label of column ``enter``, and 0 otherwise.
    """
    entries = [0] * (2 * nvars)
    for i, label in enumerate(basis):
        if label < 2 * nvars:
            entries[label] = -tab[i][enter]
    if nonbasic[enter] < 2 * nvars:
        entries[nonbasic[enter]] = den
    best = max(entries)
    if best <= 0:
        raise RuntimeError("margin program unbounded despite box")
    label = entries.index(best)
    return len(basis) + label, _box_row(tab, basis, nonbasic, label, box, den)


def _ratio_test(tab, basis, enter) -> int:
    """The leaving row for column ``enter``: the least ratio of
    right-hand side to a positive entry, ties to the smallest basic
    label, over every row but the objective."""
    leave = -1
    for i in range(len(tab) - 1):
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
    return leave


def _pivot(tab, leave, enter, den) -> int:
    """One fraction-free pivot on row ``leave`` and column ``enter`` of
    the condensed tableau, in place; returns the new denominator.

    Each row becomes (piv row - f prow) / den, with f its entry in
    ``enter``: every division is exact.  Only the columns where the
    pivot row ``prow`` is nonzero need f; a row with f = 0 only scales,
    and is left as it is when piv = den.  The leaving variable takes
    over column ``enter``, where its row holds ``den``.  Changed rows
    are replaced, never written into, so tableaux may share rows.
    """
    prow = tab[leave]
    piv = prow[enter]
    cols = [(q, y) for q, y in enumerate(prow) if y and q != enter]
    for i, row in enumerate(tab):
        f = row[enter]
        if i == leave or not f and piv == den:
            continue
        new = row[:] if piv == den else [piv * x // den for x in row]
        if f:
            for q, y in cols:
                new[q] = (piv * row[q] - f * y) // den
            new[enter] = -f
        tab[i] = new
    tab[leave] = prow = list(prow)
    prow[enter] = den
    return piv
