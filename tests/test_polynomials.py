import io
from fractions import Fraction as Q
from random import Random

import pytest

from trbm.polynomials import (GAP_WITNESS_WEIGHTS, SparsePolynomial,
                              WeightVector, all_flattening_minors,
                              flattening_minors, format_polynomial,
                              gap_quartic, initial_form, prevariety_member,
                              quartic_witness_check, read_polynomial,
                              write_polynomial)
from trbm.tropical import TropParams, tropical_morphism


def test_minor_counts():
    assert len(flattening_minors(4, [1, 2])) == 16
    assert len(all_flattening_minors(4)) == 48
    assert flattening_minors(3, [1]) == []


def test_minors_reject_split_indices_outside_1_to_n():
    for split in ([0, 1], [2, 5], [0]):
        with pytest.raises(ValueError, match="1..n"):
            flattening_minors(4, split)


def test_minors_expand_to_six_unit_terms():
    for minor in all_flattening_minors(4):
        assert len(minor) == 6
        assert sorted(c for c, _ in minor.terms) == [-1, -1, -1, 1, 1, 1]


def test_initial_form_monomial_fixed():
    f = SparsePolynomial.build(2, [(1, {0: 1})])
    w = WeightVector.build(2, [0, 0, 0, 0])
    assert initial_form(f, w) == f


def test_initial_form_keeps_ties():
    g = SparsePolynomial.build(2, [(1, {0: 1}), (1, {1: 1})])
    w = WeightVector.build(2, [3, 3, 0, 0])
    assert len(initial_form(g, w)) == 2


def test_initial_form_idempotent():
    rng = Random(7)
    for _ in range(20):
        terms = [(rng.choice((-2, -1, 1, 2)),
                  {rng.randrange(4): rng.randint(1, 2) for _ in range(2)})
                 for _ in range(4)]
        f = SparsePolynomial.build(2, terms)
        if not f.terms:
            continue
        w = WeightVector.build(2, [rng.randint(-5, 5) for _ in range(4)])
        once = initial_form(f, w)
        assert initial_form(once, w) == once


def test_initial_form_all_ones_shift():
    rng = Random(11)
    quartic = gap_quartic()
    for _ in range(10):
        w = WeightVector.build(4, [rng.randint(-20, 20) for _ in range(16)])
        shift = WeightVector.build(4, [x + 9 for x in w.values])
        assert initial_form(quartic, w) == initial_form(quartic, shift)


def test_witness_initial_form_is_printed_monomial():
    rep = quartic_witness_check()
    assert rep.prevariety is True
    assert rep.quartic_initial_terms == 1
    # p_0000 p_0110 p_1010 p_1101
    assert rep.monomial == (0b0000, 0b0110, 0b1010, 0b1101)
    assert rep.max_weight == 350


def test_witness_minors_are_binomials():
    for minor in all_flattening_minors(4):
        assert len(initial_form(minor, GAP_WITNESS_WEIGHTS)) == 2


def test_zero_weights_keep_all_quartic_terms():
    rep = quartic_witness_check(WeightVector.build(4, [0] * 16))
    assert rep.quartic_initial_terms == 8


def test_image_points_in_prevariety():
    rng = Random(3)
    for _ in range(50):
        p = TropParams.build(
            [[rng.randint(-5, 5) for _ in range(4)]],
            [rng.randint(-5, 5) for _ in range(4)],
            [Q(2 * rng.randint(-9, 9) + 1, 2)])
        q = tropical_morphism(p)
        assert prevariety_member(q, 4).member
        for minor in all_flattening_minors(4):
            assert len(initial_form(minor, q)) >= 2
        assert len(initial_form(gap_quartic(), q)) >= 2


def test_non_member_by_search():
    # search tiny integer weight vectors until one minor drops to a monomial;
    # a single spike never works (every spiked minor keeps two terms), the
    # first two-spike vector does
    from itertools import combinations
    found = None
    for a, b in combinations(range(16), 2):
        values = [0] * 16
        values[a] = values[b] = 1
        q = WeightVector.build(4, values)
        res = prevariety_member(q, 4)
        if not res.member:
            found = (q, res)
            break
    assert found is not None
    q, res = found
    assert initial_form(res.failing_minor, q).is_monomial()


def test_polynomial_merges_and_drops_zero_terms():
    f = SparsePolynomial.build(2, [(1, {0: 1}), (-1, {0: 1})])
    assert len(f) == 0
    g = SparsePolynomial.build(2, [(1, {0: 1}), (2, {0: 1})])
    assert g.terms == ((3, ((0, 1),)),)


def test_polynomial_file_roundtrip():
    buf = io.StringIO()
    write_polynomial(gap_quartic(), buf)
    buf.seek(0)
    assert read_polynomial(buf, 4) == gap_quartic()


def test_polynomial_format_with_powers():
    f = SparsePolynomial.build(2, [(-2, {1: 2, 3: 1})])
    assert format_polynomial(f) == "-2 * p_01^2 p_11"
    back = read_polynomial(io.StringIO(format_polynomial(f)), 2)
    assert back == f


def test_zero_polynomial_initial_form_rejected():
    f = SparsePolynomial.build(2, [])
    with pytest.raises(ValueError):
        initial_form(f, WeightVector.build(2, [0] * 4))
