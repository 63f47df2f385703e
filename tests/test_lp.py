from collections import Counter
from fractions import Fraction as Q
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from trbm import lp
from trbm.cube import all_vertices, vertex_coords
from trbm.lp import LinearSystem, solve_feasibility


def separation_system(positive, n):
    rows = []
    for v in all_vertices(n):
        sign = 1 if v in positive else -1
        rows.append(tuple(sign * x for x in vertex_coords(v, n))
                    + (sign, 0))
    return LinearSystem.build(n + 1, strict=rows)


def test_corner_cut_feasible():
    witness = solve_feasibility(separation_system({0b111}, 3))
    assert witness is not None
    # the stated witness is one valid solution of the same system
    stated = (Q(1), Q(1), Q(1), Q(-5, 2))
    assert separation_system({0b111}, 3).evaluate(stated)


def test_xor_infeasible():
    assert solve_feasibility(separation_system({0b00, 0b11}, 2)) is None


def test_low_weight_half_feasible():
    positive = {0b000, 0b100, 0b010, 0b001}
    witness = solve_feasibility(separation_system(positive, 3))
    assert witness is not None
    stated = (Q(-1), Q(-1), Q(-1), Q(3, 2))
    assert separation_system(positive, 3).evaluate(stated)


def test_witness_satisfies_all_rows():
    rng = Random(2)
    for _ in range(50):
        n = rng.randint(1, 3)
        positive = {v for v in all_vertices(n) if rng.random() < 0.5}
        sys_ = separation_system(positive, n)
        witness = solve_feasibility(sys_)
        if witness is not None:
            assert sys_.evaluate(witness)


def test_scaling_invariance_of_verdict():
    rng = Random(9)
    for _ in range(40):
        n = rng.randint(2, 3)
        positive = {v for v in all_vertices(n) if rng.random() < 0.5}
        base = separation_system(positive, n)
        scaled_rows = []
        for row in base.strict:
            factor = Q(rng.randint(1, 9), rng.randint(1, 9))
            scaled_rows.append(tuple(factor * x for x in row))
        scaled = LinearSystem.build(n + 1, strict=scaled_rows)
        assert (solve_feasibility(base) is None) \
            == (solve_feasibility(scaled) is None)


def test_equalities_with_constants():
    sys_ = LinearSystem.build(2, strict=[(0, 1, 0)], weak=[(1, -1, -1)],
                              eq=[(1, 1, -3)])
    x = solve_feasibility(sys_)
    assert x is not None and x[0] + x[1] == 3 and x[0] - x[1] >= 1 \
        and x[1] > 0


def test_inconsistent_equalities():
    sys_ = LinearSystem.build(1, eq=[(1, -1), (1, -2)])
    assert solve_feasibility(sys_) is None


def test_weak_only_zero_witness():
    sys_ = LinearSystem.build(2, weak=[(1, 0, 0), (0, 1, 0)])
    assert solve_feasibility(sys_) is not None


def test_strict_contradiction():
    sys_ = LinearSystem.build(1, strict=[(1, 0), (-1, 0)])
    assert solve_feasibility(sys_) is None


def test_empty_system_rejected():
    with pytest.raises(ValueError):
        LinearSystem.build(2)


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        LinearSystem.build(2, strict=[(1, 0)])


def fraction_oracle(sys_, x):
    """Every row's value at x in Fraction arithmetic, then its relation."""
    def value(row):
        return sum((Q(a) * b for a, b in zip(row, list(x) + [Q(1)])), Q(0))
    return (all(value(r) > 0 for r in sys_.strict)
            and all(value(r) >= 0 for r in sys_.weak)
            and all(value(r) == 0 for r in sys_.eq))


def test_evaluate_agrees_with_fraction_substitution():
    rng = Random(17)
    agree = {True: 0, False: 0}
    for _ in range(400):
        m = rng.randint(1, 5)
        big = rng.randint(10 ** 15, 10 ** 18)  # a large shared denominator
        x = [Q(rng.randint(-big, big), big * rng.randint(1, 50))
             if rng.random() < 0.8 else rng.randint(-3, 3) for _ in range(m)]

        def row(shifts):
            if rng.random() < 0.5:
                r = [rng.randint(-4, 4) for _ in range(m + 1)]
            else:
                r = [Q(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(m + 1)]
            value = sum(Q(a) * b for a, b in zip(r, x)) + r[m]
            shift = rng.choice(shifts)
            if shift is not None:  # land exactly on, or just off, zero
                r[m] = r[m] - value + shift
            return r

        near = (None, 0, Q(1, big), Q(1, big), -Q(1, big))
        sys_ = LinearSystem.build(
            m, strict=[row(near) for _ in range(rng.randint(0, 2))],
            weak=[row(near) for _ in range(rng.randint(0, 2))],
            eq=[row((0, 0, 0, Q(1, big))) for _ in range(rng.randint(1, 2))])
        expected = fraction_oracle(sys_, x)
        assert sys_.evaluate(x) == expected
        assert sys_.evaluate(tuple(Q(v) for v in x)) == expected
        agree[expected] += 1
    assert min(agree.values()) > 20


def test_evaluate_rejects_zero_and_negative_near_misses():
    d = 10 ** 30 + 7
    x = (Q(1, d), Q(-2, 3))
    on = (d, 0, 0)                  # value exactly 1 at x
    for rows, ok in (
            (dict(strict=[on[:2] + (-1,)]), False),           # 0 > 0
            (dict(strict=[on[:2] + (-1 + Q(1, d),)]), True),
            (dict(strict=[(1, 0, 0)]), True),                  # 1/d > 0
            (dict(strict=[(-1, 0, 0)]), False),                # -1/d > 0
            (dict(weak=[(1, 0, -Q(2, d))]), False),            # -1/d >= 0
            (dict(weak=[(d, 0, -1)]), True),                   # 0 >= 0
            (dict(eq=[(d, 0, -1)]), True),                     # 0 == 0
            (dict(eq=[(1, 0, 0)]), False),                     # 1/d == 0
            (dict(eq=[(0, 3, 2)]), True),
            (dict(eq=[(0, 3, 2 + Q(1, d))]), False)):
        sys_ = LinearSystem.build(2, **rows)
        assert fraction_oracle(sys_, x) == ok
        assert sys_.evaluate(x) == ok


def full_tableau_margin_lp(rows, nvars, box, pivots=None, seen=None):
    """The margin LP on the full condensed tableau, box rows included
    from the start: the oracle of ``lp._margin_lp``.

    ``pivots``, when given, receives each pivot element in turn.
    ``seen``, when given, counts what the run exercised: an end with no
    pivot on a box row (``degenerate_end``), a u_j or w_j basic at the
    first box-row pivot (``basic_box``), two or more pivots from that
    one on (``phase2_pivots``), and a ratio-test tie between box rows
    (``box_tie``) that the smallest basic label decides against row
    order (``box_tie_decided``).
    """
    nstruct = 2 * nvars + 1
    ncon = len(rows)
    tab = [[-x for x in a] + [*a, s, 0] for a, s in rows]
    tab += [[int(i == j) for i in range(nstruct)] + [box]
            for j in range(2 * nvars)]
    nrows = len(tab)
    obj = [0] * (2 * nvars) + [1, 0]
    tab.append(obj)
    nonbasic = list(range(nstruct))
    basis = list(range(nstruct, nstruct + nrows))
    den = 1
    phase2 = 0
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
        if seen is not None:
            if leave >= ncon and not phase2:
                seen["basic_box"] += any(b < 2 * nvars for b in basis)
            phase2 += bool(phase2) or leave >= ncon
            tied = [i for i in range(ncon, nrows) if tab[i][enter] > 0
                    and tab[i][-1] * tab[leave][enter]
                    == tab[leave][-1] * tab[i][enter]]
            seen["box_tie"] += len(tied) > 1
            seen["box_tie_decided"] += len(tied) > 1 and tied[0] != leave
        prow = tab[leave]
        piv = prow[enter]
        if pivots is not None:
            pivots.append(piv)
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
    if seen is not None:
        seen["degenerate_end"] += not phase2
        seen["phase2_pivots"] += phase2 >= 2
    if obj[-1] >= 0:
        return None
    values = [0] * nstruct
    for i, label in enumerate(basis):
        if label < nstruct:
            values[label] = tab[i][-1]
    return [values[j] - values[nvars + j] for j in range(nvars)], den


@st.composite
def integer_systems(draw):
    """Small integer systems: strict, weak and equality rows, with the
    constant column all zero (a cone) or drawn like the rest."""
    m = draw(st.integers(1, 4))
    homogeneous = draw(st.booleans())
    entry = st.integers(-3, 3)

    def rows(most):
        return draw(st.lists(
            st.tuples(*[entry] * m, st.just(0) if homogeneous else entry),
            max_size=most))

    strict, weak, eq = rows(6), rows(4), rows(2)
    assume(strict or weak or eq)
    return LinearSystem(m, tuple(strict), tuple(weak), tuple(eq))


def test_margin_lp_matches_full_tableau_oracle():
    """``_margin_lp`` returns the oracle's (y, den) or None, through the
    oracle's pivots, on every LP that ``solve_feasibility`` runs for
    random integer systems and on the separation LPs of n = 3 splits."""
    seen = Counter()
    margin_lp, pivot = lp._margin_lp, lp._pivot

    def both(rows, nvars, box):
        pivots, expected = [], []

        def recorded(tab, leave, enter, den):
            pivots.append(tab[leave][enter])
            return pivot(tab, leave, enter, den)

        with patch.object(lp, "_pivot", recorded):
            got = margin_lp(rows, nvars, box)
        assert got == full_tableau_margin_lp(rows, nvars, box, expected,
                                             seen)
        assert pivots == expected
        return got

    @settings(max_examples=600, derandomize=True, database=None,
              deadline=None)
    @given(integer_systems())
    def check_system(sys_):
        with patch.object(lp, "_margin_lp", both):
            solve_feasibility(sys_)

    @settings(max_examples=150, derandomize=True, database=None,
              deadline=None)
    @given(st.integers(1, 254))
    def check_split(mask):
        rows = [((*(s * x for x in vertex_coords(v, 3)), s), 1)
                for v, s in ((v, 1 if mask >> v & 1 else -1)
                             for v in all_vertices(3))]
        both(rows, 4, lp._box(4))

    check_system()
    check_split()
    for event in ("degenerate_end", "basic_box", "phase2_pivots", "box_tie",
                  "box_tie_decided"):
        assert seen[event] > 0, (event, seen)
