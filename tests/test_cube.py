import io
from fractions import Fraction as Q
from random import Random

import pytest
from hypothesis import given, seed, settings, strategies as st

from helpers import count_builds, read_slicings, slicing
from trbm import cube
from trbm.codes import ball_slicing
from trbm.cube import (Slicing, _enumerate_arrangement, _enumerate_brute,
                       _parallelogram, affine_values, all_vertices,
                       count_zonotope_facets,
                       cube_symmetries, enumerate_slicings, is_slicing,
                       slicing_count, subset_mask, vertex_coords,
                       vertex_index, write_slicings)
from trbm.lp import LinearSystem, _Tableau, solve_feasibility
from trbm.tropical import (TropParams, tropical_dimension,
                           tropical_morphism)


def test_vertex_indexing_is_lexicographic():
    assert vertex_coords(0, 3) == (0, 0, 0)
    assert vertex_coords(1, 3) == (0, 0, 1)
    assert vertex_coords(4, 3) == (1, 0, 0)
    assert vertex_index((1, 0, 1)) == 5


def test_corner_is_slicing():
    s = is_slicing({0b111}, 3)
    assert s is not None and s.positive == frozenset({7})


def test_parity_is_not_slicing():
    assert is_slicing({0b000, 0b011, 0b101, 0b110}, 3) is None


def test_low_weight_half_is_slicing():
    assert is_slicing({0b000, 0b100, 0b010, 0b001}, 3) is not None


def test_empty_and_full_are_slicings():
    empty = is_slicing(set(), 3)
    full = is_slicing(set(all_vertices(3)), 3)
    assert empty.c == -1 and all(w == 0 for w in empty.omega)
    assert full.c == 1 and all(w == 0 for w in full.omega)


def test_counts_small():
    assert len(enumerate_slicings(1)) == 4
    assert len(enumerate_slicings(2)) == 14
    assert len(enumerate_slicings(3)) == 104


def test_strategies_agree_n_le_3():
    for n in (1, 2, 3):
        brute = enumerate_slicings(n, "brute")
        arr = enumerate_slicings(n, "arrangement")
        assert [s.mask for s in brute] == [s.mask for s in arr]


def test_strategies_agree_n4():
    brute = enumerate_slicings(4, "brute")
    arr = enumerate_slicings(4, "arrangement")
    assert len(arr) == 1882
    assert [s.mask for s in brute] == [s.mask for s in arr]


def test_complement_closure_all_subsets_n3():
    full = frozenset(all_vertices(3))
    for bits in range(1 << 8):
        subset = {v for v in all_vertices(3) if bits >> v & 1}
        a = is_slicing(subset, 3)
        b = is_slicing(full - subset, 3)
        assert (a is None) == (b is None)


def test_symmetry_closure_n3():
    masks = {s.mask for s in enumerate_slicings(3)}
    for sym in cube_symmetries(3):
        for s in enumerate_slicings(3):
            image = subset_mask(sym[v] for v in s.positive)
            assert image in masks


def test_witnesses_separate_exactly():
    for n in (1, 2, 3):
        for s in enumerate_slicings(n):
            for v, m in enumerate(affine_values(s.c, s.omega)):
                assert (m > 0) == (v in s.positive)
                assert m != 0


def test_canonical_order():
    slicings = enumerate_slicings(3)
    keys = [(len(s.positive), s.mask) for s in slicings]
    assert keys == sorted(keys)


def test_invalid_witness_rejected():
    with pytest.raises(ValueError, match="separate vertex 00$"):
        slicing(2, {3}, (0, 0), 1)


def test_zonotope_facets(monkeypatch):
    kernels = []
    integer_kernel = cube.integer_kernel

    def counted(m):
        kernels.append(m)
        return integer_kernel(m)

    monkeypatch.setattr(cube, "integer_kernel", counted)
    assert count_zonotope_facets(1) == 4
    assert count_zonotope_facets(2) == 12
    assert count_zonotope_facets(3) == 40
    kernels.clear()
    assert count_zonotope_facets(4) == 280
    # one kernel per hyperplane, plus one for the first subset, which is
    # dependent; each of the C(16, 4) = 1,820 subsets had its own before
    assert len(kernels) == 141


def test_zonotope_guard():
    with pytest.raises(ValueError):
        count_zonotope_facets(5)


def test_enumeration_guards():
    with pytest.raises(ValueError):
        enumerate_slicings(5, "brute")
    with pytest.raises(ValueError):
        enumerate_slicings(5, "arrangement")  # long mode must be explicit
    with pytest.raises(ValueError):
        enumerate_slicings(3, "magic")


def test_threads_match_single():
    # uncached runs, so that the threaded ones really start pools; the
    # leaves (mask, y, den) of both strategies must agree exactly
    for n in (3, 4):
        single = _enumerate_arrangement(n, 1)
        assert single == _enumerate_arrangement(n, 2)
        assert [mask for mask, _, _ in single] \
            == [s.mask for s in enumerate_slicings(n, threads=2)]
    assert _enumerate_brute(3, 1) == _enumerate_brute(3, 2)


def cold():
    """Forget every census leaf."""
    cube._census.cache_clear()


@pytest.mark.parametrize("strategy, n, threads",
                         [("arrangement", n, threads) for n in (1, 2, 3, 4)
                          for threads in (1, 2)]
                         + [("brute", n, 1) for n in (1, 2, 3)])
def test_count_then_listing_is_the_listing(strategy, n, threads):
    def listing():
        return [(s.mask, s.omega, s.c)
                for s in enumerate_slicings(n, strategy, threads=threads)]

    cold()
    alone = listing()
    cold()
    assert slicing_count(n, strategy, threads=threads) == len(alone)
    assert listing() == alone


def test_count_builds_no_slicing(monkeypatch):
    built = count_builds(monkeypatch)
    for threads in (1, 2):
        cold()
        assert slicing_count(4, threads=threads) == 1882
        assert built == []
    # the exhaustive guard of dim reads the count too
    with pytest.raises(ValueError, match="exceed the exhaustive guard"):
        tropical_dimension(4, 2, "exhaustive")
    assert built == []
    listed = enumerate_slicings(4)
    assert built == [s.mask for s in listed]
    # the slot keeps its leaves
    assert [leaf[0] for leaf in cube._census(4, "arrangement")] == built
    assert slicing_count(4) == 1882 and len(built) == 1882


def test_listings_return_the_same_slicings():
    first, second = enumerate_slicings(3), enumerate_slicings(3)
    assert first is not second
    assert first == second


def test_equal_witnesses_make_equal_slicings():
    # y / den and (g y) / (g den) are one witness: equal fields, hashes
    for s in enumerate_slicings(3) + [ball_slicing(0b10110, 5)]:
        for g in (2, 3, 10 ** 20 + 39):
            scaled = Slicing(s.n, s.mask, tuple(g * v for v in s.y),
                             g * s.den)
            assert scaled == s and hash(scaled) == hash(s)
            assert (scaled.y, scaled.den) == (s.y, s.den)
    assert Slicing(2, 0b1000, (4, 4, -6), 4) \
        == slicing(2, {3}, (1, 1), Q(-3, 2))


def test_omega_and_c_are_the_reduced_fractions():
    s = Slicing(2, 0b1000, (6, 9, -12), 6)
    assert (s.y, s.den) == ((2, 3, -4), 2)
    assert s.omega == (Q(1), Q(3, 2)) and s.c == Q(-2)
    assert [type(x) for x in (*s.omega, s.c)] == [Q] * 3
    assert s.omega is s.omega and s.c is s.c  # computed once
    assert s.witness_text() == ["-2", "1", "3/2"]
    with pytest.raises(ValueError, match="denominator"):
        Slicing(2, 0b1000, (-2, -3, 4), -2)


def test_slicing_file_roundtrip():
    slicings = enumerate_slicings(2)
    buf = io.StringIO()
    write_slicings(slicings, buf)
    buf.seek(0)
    back = read_slicings(buf)
    assert [(s.n, s.mask, s.omega, s.c) for s in back] \
        == [(s.n, s.mask, s.omega, s.c) for s in slicings]


def test_symmetry_group_order():
    assert len(cube_symmetries(2)) == 8
    assert len(cube_symmetries(3)) == 48
    for sym in cube_symmetries(3):
        assert sorted(sym) == list(range(8))


def certificate_holds(quad, pos, neg, n):
    """a, b in pos, c, d in neg and a + b = c + d coordinate by coordinate."""
    a, b, c, d = quad
    xa, xb, xc, xd = (vertex_coords(v, n) for v in quad)
    return (pos >> a & 1 and pos >> b & 1 and neg >> c & 1 and neg >> d & 1
            and all(p + q == r + s for p, q, r, s in zip(xa, xb, xc, xd)))


def test_masks_without_parallelogram_are_the_census():
    for n, count in ((1, 4), (2, 14), (3, 104), (4, 1882)):
        full = (1 << (1 << n)) - 1
        free = [mask for mask in range(full + 1)
                if _parallelogram(mask, full ^ mask) is None]
        assert len(free) == count
        assert free == sorted(s.mask for s in enumerate_slicings(n))


def separation(mask, n, side=None):
    """The LinearSystem that separates the vertices of ``mask`` from the
    other vertices of ``side`` (all vertices by default): one strict row
    +-(v, 1) over (omega, c) per vertex of ``side``, in index order."""
    rows = []
    for v in all_vertices(n):
        if side is None or side >> v & 1:
            sign = 1 if mask >> v & 1 else -1
            rows.append(tuple(sign * x for x in vertex_coords(v, n))
                        + (sign, 0))
    return LinearSystem.build(n + 1, strict=rows)


def test_parallelogram_refutes_only_infeasible_systems():
    rng = Random(5)
    cases = [(3, mask) for mask in range(1 << 8)]
    cases += [(4, rng.getrandbits(16)) for _ in range(500)]
    certified = 0
    for n, mask in cases:
        neg = ((1 << (1 << n)) - 1) ^ mask
        quad = _parallelogram(mask, neg)
        if quad is not None:
            certified += 1
            assert certificate_holds(quad, mask, neg, n)
            assert solve_feasibility(separation(mask, n)) is None
    assert certified > 400


def test_parallelogram_on_partial_labellings():
    # the arrangement census asks about the vertices inserted so far
    assert _parallelogram(0b1001, 0b0110) == (0, 3, 1, 2)  # xor of 2 bits
    assert _parallelogram(0b0011, 0b1100) is None
    assert _parallelogram(0b1, 0) is None
    assert _parallelogram(0b10000001, 0b01100000) is None  # 111 != 211
    quad = _parallelogram(0b10000001, 0b00011000)  # 000 + 111 = 011 + 100
    assert quad == (0, 7, 3, 4)
    assert certificate_holds(quad, 0b10000001, 0b00011000, 3)


def test_refutation_through_the_new_vertex():
    # a split of 0..k whose restriction to 0..k-1 is separable has a
    # parallelogram certificate iff it has one through k; the separable
    # splits of 0..k-1 are the census masks cut to their low k bits
    refuted = 0
    for n in (1, 2, 3, 4):
        masks = [s.mask for s in enumerate_slicings(n)]
        for k in all_vertices(n):
            inserted = (1 << (k + 1)) - 1
            for low in {mask & (inserted >> 1) for mask in masks}:
                for pos in (low, low | 1 << k):
                    verdict = cube._refuted_through(pos, k, n)
                    assert verdict == (
                        _parallelogram(pos, inserted ^ pos) is not None)
                    refuted += verdict
    assert refuted > 1000


def test_corrupted_parallelogram_certificate_raises(monkeypatch):
    # 3 + 1 != 0 + 2 as vectors of the square, though the indices agree
    monkeypatch.setattr(cube, "_through", lambda k: ((1, 0, 2),))
    for pos in (0b1010, 0b0101):  # vertex 3 on either side
        with pytest.raises(AssertionError, match="re-validation"):
            cube._refuted_through(pos, 3, 2)
    with pytest.raises(AssertionError, match="re-validation"):
        _enumerate_arrangement(2, 1)


def test_slicing_rejects_zero_and_negative_near_misses():
    d = 10 ** 30 + 7
    with pytest.raises(ValueError, match="vertex 11$"):  # margin exactly 0
        slicing(2, {3}, (Q(1), Q(1)), Q(-2))
    with pytest.raises(ValueError, match="vertex 11$"):  # margin -1/d
        slicing(2, {3}, (Q(1), Q(1)), Q(-2) - Q(1, d))
    with pytest.raises(ValueError, match="vertex 01$"):  # +1/d, not < 0
        slicing(2, {3}, (Q(1, 3), Q(2, 3)), Q(-2, 3) + Q(1, d))
    s = slicing(2, {3}, (Q(1), Q(1)), Q(-2) + Q(1, d))
    margins = affine_values(s.c, s.omega)
    assert margins[3] == Q(1, d) and margins[2] == Q(-1) + Q(1, d)


@st.composite
def affine_functions(draw):
    """(n, const, weights) with n in 0..6 and all numbers int or all
    Fraction."""
    n = draw(st.integers(0, 6))
    number = draw(st.sampled_from([
        st.integers(-50, 50),
        st.fractions(-50, 50, max_denominator=12)]))
    return n, draw(number), draw(st.lists(number, min_size=n, max_size=n))


def direct_values(const, weights, n):
    return [sum((w * x for w, x in zip(weights, vertex_coords(v, n))), const)
            for v in all_vertices(n)]


@seed(20261)
@settings(max_examples=300, database=None, deadline=None)
@given(affine_functions())
def test_affine_values_match_the_direct_sum(function):
    n, const, weights = function
    values = affine_values(const, weights)
    assert values == direct_values(const, weights, n)
    assert {type(x) for x in values} == {type(const)}


@seed(20262)
@settings(max_examples=100, database=None, deadline=None)
@given(affine_functions())
def test_morphism_without_hidden_units_is_the_visible_bias(function):
    n, _, weights = function
    params = TropParams.build([], weights, [])
    assert (params.n, params.k) == (n, 0)
    point = tropical_morphism(params)
    assert list(point.values) == direct_values(Q(0), weights, n)


def test_slicing_check_agrees_with_fraction_margins():
    rng = Random(8)
    for _ in range(300):
        n = rng.randint(1, 4)
        den = rng.randint(1, 10 ** 12)
        omega = tuple(Q(rng.randint(-3 * den, 3 * den),
                        den * rng.randint(1, 9)) for _ in range(n))
        if rng.random() < 0.3:  # put a vertex exactly on the hyperplane
            c = -sum(w * x for w, x in zip(omega, vertex_coords(
                rng.randrange(1 << n), n)))
        else:
            c = Q(rng.randint(-3 * den, 3 * den), den)
        margins = [sum((w * x for w, x in zip(omega, vertex_coords(v, n))),
                       c) for v in all_vertices(n)]
        positive = frozenset(v for v, m in enumerate(margins) if m > 0)
        if rng.random() < 0.3:  # flip one vertex
            positive = positive ^ {rng.randrange(1 << n)}
        separates = all(m != 0 and (m > 0) == (v in positive)
                        for v, m in enumerate(margins))
        if separates:
            assert slicing(n, positive, omega, c).mask == subset_mask(positive)
        else:
            with pytest.raises(ValueError):
                slicing(n, positive, omega, c)


def test_slicing_check_on_a_ball_of_the_15_cube():
    n, w = 15, 0b101100111000101
    ball = ball_slicing(w, n)
    assert ball.positive == {w} | {w ^ 1 << j for j in range(n)}
    margins = affine_values(ball.c, ball.omega)
    assert margins[w] == Q(3, 2) and margins[w ^ 0b11] == Q(-1, 2)
    with pytest.raises(ValueError, match=f"vertex {w ^ 0b11:015b}"):
        slicing(n, ball.positive | {w ^ 0b11}, ball.omega, ball.c)
    with pytest.raises(ValueError, match=f"vertex {w ^ 1:015b}"):
        slicing(n, ball.positive - {w ^ 1}, ball.omega, ball.c)
    with pytest.raises(ValueError, match=f"vertex {w ^ 1 << 14:015b}"):
        slicing(n, ball.positive, ball.omega, ball.c - Q(1, 2))  # margin 0


def test_slicing_rejects_a_non_vertex():
    with pytest.raises(ValueError, match="non-vertex"):
        slicing(2, {3, 4}, (Q(1), Q(1)), Q(-3, 2))


def test_separation_witness_is_rechecked(monkeypatch):
    # every margin LP of is_slicing and of the census ends in this solve
    solve = _Tableau.solve

    def corrupted(tableau, box):  # the constant term's sign flipped
        (y, den), _ = solve(tableau, box)
        return ([*y[:-1], -y[-1]], den), None

    monkeypatch.setattr(_Tableau, "solve", corrupted)
    with pytest.raises(AssertionError, match="re-validation"):
        is_slicing({0b111}, 3)
    with pytest.raises(AssertionError, match="re-validation"):
        _enumerate_arrangement(2, 1)


def test_separation_certificate_is_rechecked():
    # the XOR split of the square reaches no LP in is_slicing (a
    # parallelogram refutes it first), so its margin LP is run here
    rows = [cube._signed_rows(2)[v][side]
            for v, side in enumerate((1, 0, 0, 1))]
    witness, pi = cube._margin_lp(rows, 3, cube._box(3))
    assert witness is None and any(pi)
    assert cube._rechecked((None, pi), rows) is None
    for i in range(len(pi)):
        tampered = list(pi)
        tampered[i] += 1
        with pytest.raises(AssertionError, match="re-validation"):
            cube._rechecked((None, tampered), rows)


def test_is_slicing_witnesses_are_those_of_solve_feasibility():
    for n in (1, 2, 3):
        full = (1 << (1 << n)) - 1
        for mask in range(1, full):
            s = is_slicing([v for v in all_vertices(n) if mask >> v & 1], n)
            witness = solve_feasibility(separation(mask, n))
            assert (None if s is None else (*s.omega, s.c)) == witness


def test_arrangement_witnesses_are_those_of_solve_feasibility(monkeypatch):
    # every split the census decides, refuted or solved, goes through
    # _split; its witness must be that of the split's whole system, and
    # each leaf (mask, y, den) must carry the witness of a split of its
    # vertices 0..k and be the sign pattern of y at every vertex
    split = cube._split
    for n in (1, 2, 3):
        found = {}

        def checked(n_, k, pos, lp):
            result = split(n_, k, pos, lp)
            witness = None if result is None else tuple(
                Q(v, result[1]) for v in result[0])
            side = (1 << (k + 1)) - 1
            assert witness == solve_feasibility(separation(pos, n, side))
            if result is not None:
                found.setdefault((tuple(result[0]), result[1]),
                                 []).append((pos, side))
            return result

        monkeypatch.setattr(cube, "_split", checked)
        census = _enumerate_arrangement(n, 1)
        assert len(census) == (4, 14, 104)[n - 1]
        for mask, y, den in census:
            assert any(mask & side == pos
                       for pos, side in found[tuple(y), den])
            margins = affine_values(y[n], y[:n])
            assert 0 not in margins and mask == subset_mask(
                v for v, m in enumerate(margins) if m > 0)
