from fractions import Fraction as Q
from random import Random

import pytest

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
