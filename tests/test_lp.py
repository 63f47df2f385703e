from collections import Counter
from fractions import Fraction as Q
from operator import mul
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


def farkas_oracle(sys_, cert):
    """The conditions of a Farkas certificate in Fraction arithmetic,
    column by column: multipliers one per row, >= 0 off the equalities,
    a combination that vanishes on the unknowns and has a constant < 0,
    or = 0 with some strict multiplier > 0."""
    pairs = [(Q(k), row) for mults, rows in ((cert.strict, sys_.strict),
                                             (cert.weak, sys_.weak),
                                             (cert.eq, sys_.eq))
             for k, row in zip(mults, rows)]
    combo = [sum((k * row[j] for k, row in pairs), Q(0))
             for j in range(sys_.num_vars + 1)]
    return ((len(cert.strict), len(cert.weak), len(cert.eq))
            == (len(sys_.strict), len(sys_.weak), len(sys_.eq))
            and min(cert.strict + cert.weak, default=0) >= 0
            and not any(combo[:-1])
            and (combo[-1] < 0 or combo[-1] == 0 and any(cert.strict)))


@st.composite
def rational_systems(draw):
    """Small systems with integer and fractional entries: strict, weak
    and equality rows, with the constant column all zero or drawn."""
    m = draw(st.integers(1, 4))
    homogeneous = draw(st.booleans())
    entry = st.builds(Q, st.integers(-6, 6), st.sampled_from((1, 1, 2, 3)))

    def rows(most):
        return draw(st.lists(
            st.tuples(*[entry] * m, st.just(0) if homogeneous else entry),
            max_size=most))

    strict, weak, eq = rows(5), rows(4), rows(3)
    assume(strict or weak or eq)
    return LinearSystem.build(m, strict, weak, eq)


def test_every_answer_is_a_checked_witness_or_certificate():
    """A witness that substitution accepts, or one certificate that both
    ``Farkas.refutes`` and the Fraction oracle accept."""
    seen = Counter()

    @settings(max_examples=500, derandomize=True, database=None,
              deadline=None)
    @given(rational_systems())
    def check(sys_):
        certificates = []
        x = solve_feasibility(sys_, certificates)
        if x is None:
            [cert] = certificates
            assert cert.refutes(sys_)
            assert farkas_oracle(sys_, cert)
            constants = any(r[-1] for r in sys_.strict + sys_.weak + sys_.eq)
            seen["refuted", bool(sys_.eq), constants] += 1
        else:
            assert certificates == [] and fraction_oracle(sys_, x)
            seen["solved"] += 1

    check()
    for kind in ("solved", ("refuted", False, False),
                 ("refuted", False, True), ("refuted", True, False),
                 ("refuted", True, True)):
        assert seen[kind] > 0, (kind, seen)


#: Infeasible systems that reach the margin LP: strict rows only, strict
#: rows on the kernel of an equality, and weak rows with constants.
LP_REFUTED = (
    separation_system({0b00, 0b11}, 2),
    LinearSystem.build(2, strict=[(1, 0, 0), (0, 1, 0)], eq=[(1, 1, 0)]),
    LinearSystem.build(2, weak=[(1, 0, -1), (0, 1, -1)], eq=[(1, 1, -1)]),
)


@pytest.mark.parametrize("sys_", LP_REFUTED)
def test_tampered_multiplier_fails_revalidation(sys_):
    margin_lp = lp._margin_lp
    pi = []

    def tampered(rows, nvars, box, index=None):
        witness, got = margin_lp(rows, nvars, box)
        assert witness is None
        pi[:] = got
        if index is not None:
            got = list(got)
            got[index] += 1
        return None, got

    with patch.object(lp, "_margin_lp", tampered):
        assert solve_feasibility(sys_) is None
    assert any(pi)
    for index in range(len(pi)):
        with patch.object(lp, "_margin_lp",
                          lambda *a, i=index: tampered(*a, index=i)):
            with pytest.raises(AssertionError, match="Farkas"):
                solve_feasibility(sys_)


@pytest.mark.parametrize("sys_", LP_REFUTED)
def test_altered_certificate_is_not_accepted(sys_):
    certificates = []
    assert solve_feasibility(sys_, certificates) is None
    [cert] = certificates
    assert cert.refutes(sys_)
    for field in ("strict", "weak", "eq"):
        mults = getattr(cert, field)
        for i, k in enumerate(mults):
            if k:       # a sign flipped, or the row dropped
                for altered in (mults[:i] + (-k,) + mults[i + 1:],
                                mults[:i] + mults[i + 1:]):
                    bad = cert._replace(**{field: altered})
                    assert not bad.refutes(sys_)
                    assert not farkas_oracle(sys_, bad)


def test_zero_equality_row_changes_no_answer():
    """A system without equalities projects onto the kernel of one zero
    row, so adding the equality 0 = 0 gives the same witness, or the
    same strict and weak multipliers with 0 on the new row."""
    rng = Random(19)
    seen = Counter()
    for _ in range(200):
        m = rng.randint(1, 4)
        homogeneous = rng.random() < 0.5

        def rows(most):
            return [tuple(Q(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                          for _ in range(m))
                    + (0 if homogeneous else Q(rng.randint(-4, 4)),)
                    for _ in range(rng.randint(0, most))]

        strict, weak = rows(4), rows(3)
        if not strict + weak:
            continue
        answers = []
        for eq in ((), [(0,) * (m + 1)]):
            sys_ = LinearSystem.build(m, strict, weak, eq)
            certificates = []
            answers.append((solve_feasibility(sys_, certificates),
                            certificates))
        (x, certs), (x0, certs0) = answers
        assert x == x0
        if x is None:
            [cert], [cert0] = certs, certs0
            assert (cert0.strict, cert0.weak, cert0.eq) \
                == (cert.strict, cert.weak, (0,))
        seen[x is None, homogeneous] += 1
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


@pytest.mark.parametrize("strict, weak, eq", [
    ([(1, 0, 0), (0, 1, 0)], [], [(1, 1, 0)]),
    ([], [(1, 0, 0), (0, 1, 0)], [(1, 1, 1)]),
])
def test_repeated_equality_row_gets_a_zero_multiplier(strict, weak, eq):
    sys_ = LinearSystem.build(2, strict, weak, eq * 2)
    certificates = []
    assert solve_feasibility(sys_, certificates) is None
    [cert] = certificates
    assert cert.refutes(sys_) and farkas_oracle(sys_, cert)
    assert cert.eq[0] != 0 and cert.eq[1] == 0


def margin_farkas_oracle(pi, rows):
    """Margin LP multipliers, one per row (a, s): pi >= 0, the rows
    combine to sum pi_i a_i = 0 and sum pi_i s_i > 0."""
    return (len(pi) == len(rows) and min(pi, default=0) >= 0
            and all(sum(k * a[j] for k, (a, _) in zip(pi, rows)) == 0
                    for j in range(len(rows[0][0])))
            and sum(k * s for k, (_, s) in zip(pi, rows)) > 0)


def full_tableau_margin_lp(rows, nvars, box, pivots=None, seen=None):
    """The margin LP on the full condensed tableau, box rows included
    from the start: the oracle of ``lp._margin_lp``, with its result
    ((y, den), None) or (None, Farkas multipliers of the rows).

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
        # the dual multipliers: minus the objective entry of each
        # nonbasic slack, and the box rows' must all be 0
        duals = [0] * nrows
        for j, label in enumerate(nonbasic):
            if label >= nstruct:
                duals[label - nstruct] = -obj[j]
        assert not any(duals[ncon:])
        return None, duals[:ncon]
    values = [0] * nstruct
    for i, label in enumerate(basis):
        if label < nstruct:
            values[label] = tab[i][-1]
    return ([values[j] - values[nvars + j] for j in range(nvars)], den), None


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


def split_rows(mask, n):
    """The margin LP rows (a, 1) of the split of the n-cube whose
    positive vertices are the set bits of ``mask``, in vertex order."""
    return [((*(s * x for x in vertex_coords(v, n)), s), 1)
            for v, s in ((v, 1 if mask >> v & 1 else -1)
                         for v in all_vertices(n))]


def seeded_splits(n, count, seed):
    """``count`` masks of proper splits of the n-cube: every other one
    cut by a hyperplane with integer weights and a half-integer offset
    (a slicing), the rest uniform (almost never a slicing)."""
    rng, full = Random(seed), (1 << (1 << n)) - 1
    masks = []
    while len(masks) < count:
        if len(masks) % 2:
            mask = rng.getrandbits(1 << n)
        else:
            omega = [rng.randint(-2 * n, 2 * n) for _ in range(n)]
            c2 = 2 * rng.randint(-2 * n, 2 * n) + 1
            mask = sum(1 << v for v in all_vertices(n)
                       if 2 * sum(map(mul, omega, vertex_coords(v, n)))
                       + c2 > 0)
        if 0 < mask < full:
            masks.append(mask)
    return masks


#: The 14 slicings of the 4-cube, of 1,882, whose margin LP over all 16
#: vertex rows takes more than one box-phase pivot on the full tableau:
#: the splits on which ``_Tableau.solve`` builds its box rows in full.
MULTI_PIVOT_SLICINGS_4 = (0x077f, 0x0bbf, 0x0ddf, 0x31f7, 0x3f17, 0xa8fe,
                          0xaf8e, 0xbbb2, 0xc0e8, 0xce08, 0xddd4, 0xf220,
                          0xf440, 0xf880)


def pivot_elements(full, got):
    """The pivot elements of a solve: those of its full pivots
    (``lp._pivot``), then the last box-phase pivot's, which updates only
    the objective and the witness's right-hand sides.  The box phase
    runs exactly when the LP is feasible, and its last pivot element is
    the returned ``den``."""
    return full + ([got[0][1]] if got[0] is not None else [])


def test_margin_lp_matches_full_tableau_oracle():
    """``_margin_lp`` returns the oracle's witness or multipliers, through the
    oracle's pivots, on every LP that ``solve_feasibility`` runs for
    random integer systems and on the separation LPs of n = 3 splits and
    of seeded n = 4 splits (nvars = 5, as in the census)."""
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
        assert got[0] is not None or margin_farkas_oracle(got[1], rows)
        assert pivot_elements(pivots, got) == expected
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
        both(split_rows(mask, 3), 4, lp._box(4))

    check_system()
    check_split()
    for event in ("degenerate_end", "basic_box", "phase2_pivots", "box_tie",
                  "box_tie_decided"):
        assert seen[event] > 0, (event, seen)
    seen.clear()
    for mask in seeded_splits(4, 120, 15) + list(MULTI_PIVOT_SLICINGS_4):
        both(split_rows(mask, 4), 5, lp._box(5))
    for event in ("degenerate_end", "basic_box", "phase2_pivots"):
        assert seen[event] > 0, (event, seen)


@st.composite
def margin_rows(draw):
    """Margin LP rows (a, s) over 1..4 unknowns with s in 0..2, the first
    one strict so that every prefix bounds t, and the number m of them
    to build at once."""
    nvars = draw(st.integers(1, 4))
    a = st.tuples(*[st.integers(-3, 3)] * nvars)
    rows = [draw(st.tuples(a, st.integers(1, 2)))]
    rows += draw(st.lists(st.tuples(a, st.integers(0, 2)), max_size=7))
    return nvars, rows, draw(st.integers(0, len(rows)))


def test_added_rows_match_full_tableau_oracle():
    """A tableau built from the first m rows and given the others one at
    a time by ``add`` solves, after every row, to the oracle's witness or
    multipliers for the rows so far, through the oracle's pivots."""
    seen = Counter()
    pivot = lp._pivot
    pivots, leaves = [], []

    def recorded(tab, leave, enter, den):
        pivots.append(tab[leave][enter])
        leaves.append(leave)
        return pivot(tab, leave, enter, den)

    def check(nvars, rows, m):
        box = lp._box(nvars)
        pivots.clear()
        with patch.object(lp, "_pivot", recorded):
            tableau = lp._Tableau(nvars, rows[:m])
            for i in range(m, len(rows) + 1):
                if i > m:
                    new, made = tableau.ncon, len(leaves)
                    seen["add_stopped" if tableau.enter is not None
                         else "add_at_optimum"] += 1
                    seen["add_with_den"] += tableau.den > 1
                    tableau.add(*rows[i - 1])
                    seen["pivot_on_new_row"] += new in leaves[made:]
                if i == 0:
                    continue  # no row bounds t yet
                kept, expected = len(pivots), []
                got = tableau.solve(box)
                assert got == full_tableau_margin_lp(rows[:i], nvars, box,
                                                     expected, seen)
                assert got[0] is not None \
                    or margin_farkas_oracle(got[1], rows[:i])
                assert pivot_elements(pivots, got) == expected
                del pivots[kept:]

    @settings(max_examples=400, derandomize=True, database=None,
              deadline=None)
    @given(margin_rows())
    def check_rows(case):
        check(*case)

    @settings(max_examples=100, derandomize=True, database=None,
              deadline=None)
    @given(st.integers(1, 254), st.integers(0, 8))
    def check_split(mask, m):
        check(4, split_rows(mask, 3), m)

    check_rows()
    check_split()
    for event in ("add_stopped", "add_at_optimum", "add_with_den",
                  "pivot_on_new_row", "phase2_pivots"):
        assert seen[event] > 0, (event, seen)
    seen.clear()
    rng = Random(16)
    for mask in seeded_splits(4, 24, 16) + list(MULTI_PIVOT_SLICINGS_4):
        check(5, split_rows(mask, 4), rng.randint(0, 16))
    for event in ("add_stopped", "add_at_optimum", "add_with_den",
                  "pivot_on_new_row", "phase2_pivots"):
        assert seen[event] > 0, (event, seen)
