import io
from fractions import Fraction as Q
from itertools import combinations
from random import Random

import pytest

from helpers import count_builds
from trbm import linalg, tropical
from trbm.codes import code_to_slicings, hamming_code
from trbm.cube import Slicing, _filled_census, all_vertices, \
    enumerate_slicings, is_slicing, vertex_coords, write_vertex_values
from trbm.fan import secondary_fan_faces
from trbm.linalg import Matrix, rank, rank_bareiss
from trbm.tropical import (AmbiguousArgmax, MembershipResult, TropParams,
                           TropicalPoint, _code_slicings,
                           _coordinate_columns, _membership_block,
                           _membership_one, _slicing_rank,
                           count_inference_functions, inference_function,
                           read_tropical_point, slicing_matrix,
                           tropical_dimension, tropical_membership,
                           tropical_morphism)


def random_params(n, k, rng, denom=2):
    return TropParams.build(
        [[Q(rng.randint(-6, 6), rng.randint(1, denom)) for _ in range(n)]
         for _ in range(k)],
        [Q(rng.randint(-6, 6), rng.randint(1, denom)) for _ in range(n)],
        [Q(rng.randint(-6, 6), rng.randint(1, denom)) for _ in range(k)])


def hidden_state_oracle(params):
    """Score vector as the max over all 2^k hidden states h."""
    n, k = params.n, params.k
    values = []
    for v in all_vertices(n):
        coords = vertex_coords(v, n)
        base = sum((params.visible_bias[j] * coords[j] for j in range(n)),
                   Q(0))
        unit = [sum((params.weights[i][j] * coords[j] for j in range(n)),
                    params.hidden_bias[i]) for i in range(k)]
        best = None
        for h in range(1 << k):
            score = sum((unit[i] for i in range(k) if h >> (k - 1 - i) & 1),
                        Q(0))
            if best is None or score > best:
                best = score
        values.append(base + best)
    return TropicalPoint(n, tuple(values))


def lp_only_membership(q):
    """Oracle: one feasibility LP per slicing, in census order."""
    for s in enumerate_slicings(q.n):
        result = _membership_one(q, s)
        if result is not None:
            return result
    return MembershipResult(member=False)


def test_morphism_zero_params():
    p = TropParams.build([[0, 0]], [0, 0], [0])
    assert tropical_morphism(p).values == (0, 0, 0, 0)


def test_morphism_half_margin_example():
    p = TropParams.build([[1, 1]], [0, 0], [Q(-3, 2)])
    assert tropical_morphism(p).values == (0, 0, 0, Q(1, 2))


def test_morphism_matches_hidden_state_oracle():
    rng = Random(17)
    for k in (1, 2, 3, 4, 5):
        for _ in range(12):
            p = random_params(3, k, rng)
            assert tropical_morphism(p).values \
                == hidden_state_oracle(p).values


def test_shift_invariance():
    rng = Random(4)
    for _ in range(20):
        p = random_params(3, 2, rng)
        beta = [Q(rng.randint(-5, 5)) for _ in range(3)]
        shifted = TropParams.build(
            p.weights, [b + d for b, d in zip(p.visible_bias, beta)],
            p.hidden_bias)
        base = tropical_morphism(p).values
        moved = tropical_morphism(shifted).values
        for v in all_vertices(3):
            coords = vertex_coords(v, 3)
            delta = sum((beta[j] * coords[j] for j in range(3)), Q(0))
            assert moved[v] == base[v] + delta


def test_region_linearity():
    rng = Random(8)
    tested = 0
    while tested < 15:
        p = random_params(2, 2, rng)
        try:
            pattern = inference_function(p)
        except AmbiguousArgmax:
            continue
        # small same-pattern perturbation
        q = TropParams.build(
            [[w + Q(rng.randint(-1, 1), 50) for w in row]
             for row in p.weights],
            [b + Q(rng.randint(-1, 1), 50) for b in p.visible_bias],
            [c + Q(rng.randint(-1, 1), 50) for c in p.hidden_bias])
        try:
            if inference_function(q) != pattern:
                continue
        except AmbiguousArgmax:
            continue
        qa, qb = tropical_morphism(p).values, tropical_morphism(q).values
        for t in (Q(1, 3), Q(1, 2), Q(2, 3)):
            mix = TropParams.build(
                [[t * a + (1 - t) * b for a, b in zip(ra, rb)]
                 for ra, rb in zip(p.weights, q.weights)],
                [t * a + (1 - t) * b
                 for a, b in zip(p.visible_bias, q.visible_bias)],
                [t * a + (1 - t) * b
                 for a, b in zip(p.hidden_bias, q.hidden_bias)])
            assert tropical_morphism(mix).values == tuple(
                t * a + (1 - t) * b for a, b in zip(qa, qb))
        tested += 1


def test_inference_constant_when_bias_dominates():
    p = TropParams.build([[1, 2], [3, -1]], [0, 0], [10, 10])
    assert set(inference_function(p).values()) == {0b11}


def test_inference_margin_example():
    p = TropParams.build([[1, 1]], [0, 0], [Q(-3, 2)])
    assert inference_function(p) == {0: 0, 1: 0, 2: 0, 3: 1}


def test_inference_tie_reports_states():
    p = TropParams.build([[1, 1]], [0, 0], [-1])
    with pytest.raises(AmbiguousArgmax) as info:
        inference_function(p)
    assert info.value.ties == [(0b01, [1]), (0b10, [1])]
    assert str(info.value) == ("argmax not unique at v=01 (tied units 1), "
                               "v=10 (tied units 1); parameters lie on a "
                               "cone boundary")


def test_inference_tie_of_eight_states_names_them_all():
    # 8 is the most the message names; more are counted (tests/test_cli.py)
    p = TropParams.build([[0] * 3], [0] * 3, [0])
    with pytest.raises(AmbiguousArgmax) as info:
        inference_function(p)
    named = ", ".join(f"v={v:03b} (tied units 1)" for v in range(8))
    assert str(info.value) == (f"argmax not unique at {named}; "
                               "parameters lie on a cone boundary")


def test_tropical_params_refuse_by_cost():
    # max(k, 1) 2^n <= 2^20: n = 20 with one unit or none, n = 14 with up
    # to 64 units, and no more
    for n, k in ((20, 0), (20, 1), (14, 40), (14, 64), (16, 16)):
        TropParams.build([[0] * n] * k, [0] * n, [0] * k)
    for n, k in ((21, 0), (21, 1), (20, 2), (14, 65), (15, 40)):
        with pytest.raises(ValueError, match=f"got n={n}, k={k}$"):
            TropParams.build([[0] * n] * k, [0] * n, [0] * k)


def test_inference_coordinates_are_threshold_functions():
    rng = Random(31)
    for _ in range(40):
        n, k = 3, 2
        p = TropParams.build(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)],
            [rng.randint(-4, 4) for _ in range(n)],
            [Q(2 * rng.randint(-8, 8) + 1, 2) for _ in range(k)])
        mapping = inference_function(p)
        for i in range(k):
            ones = {v for v, h in mapping.items() if h >> (k - 1 - i) & 1}
            assert is_slicing(ones, n) is not None


def test_slicing_matrix_blocks():
    assert rank(slicing_matrix(3, [])) == 3
    s0 = is_slicing({0b000}, 3)
    m = slicing_matrix(3, [s0])
    assert m.cols == 7 and rank(m) == rank_bareiss(m) == 4
    corner = is_slicing({0b000, 0b100, 0b010, 0b001}, 3)
    m = slicing_matrix(3, [corner])
    assert rank(m) == rank_bareiss(m) == 7


def test_slicing_matrix_rank_permutation_invariant():
    slicings = [s for s in enumerate_slicings(3)
                if len(s.positive) in (2, 3, 4)][:3]
    base = rank(slicing_matrix(3, slicings))
    assert base == rank(slicing_matrix(3, slicings[::-1]))


def full_scan_oracle(n, k, slicings):
    """(max rank, first witness) over every k-subset, ranked by Bareiss."""
    best, witness = 0, None
    for combo in combinations(slicings, k):
        r = rank_bareiss(slicing_matrix(n, combo))
        if r > best:
            best, witness = r, combo
    return best, witness


def test_coordinate_columns_are_the_columns_of_a():
    for n in range(1, 7):
        expected = tuple(sum(vertex_coords(v, n)[j] << v
                             for v in all_vertices(n)) for j in range(n))
        assert _coordinate_columns(n) == expected


def test_slicing_rank_matches_the_matrix_rank(monkeypatch):
    fallbacks = []

    def counted(m):
        fallbacks.append(m.rows)
        return rank(m)

    monkeypatch.setattr(linalg, "rank", counted)
    rng = Random(41)
    cases = [(3, (s.mask,)) for s in enumerate_slicings(3)]
    for _ in range(150):              # any masks, not only slicings
        n = rng.randint(1, 4)
        masks = tuple(rng.getrandbits(1 << n)
                      for _ in range(rng.randint(0, 3)))
        cases.append((n, masks))
    for n, masks in cases:
        m = Matrix(tropical._slicing_rows(n, masks))
        assert _slicing_rank(n, masks) == rank(m) == rank_bareiss(m)
    assert fallbacks                  # GF(2) fell short on some of them


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("threads", [1, 2])
def test_stopped_search_matches_full_scan(k, threads):
    r = tropical_dimension(3, k, threads=threads)
    assert (r.max_rank, r.witness) == full_scan_oracle(
        3, k, enumerate_slicings(3))


@pytest.mark.parametrize("threads", [1, 2])
def test_search_below_the_bound_keeps_the_first_witness(threads):
    # at most two vertices: rank <= 7 < 8
    few = _filled_census(3, "arrangement", False, 1)[:20]
    best = full_scan_oracle(3, 2, [Slicing(3, *leaf) for leaf in few])
    assert best[0] == 7
    assert tropical._search_exhaustive(3, 2, few, threads) == best


def test_exhaustive_dim_builds_only_its_witness(monkeypatch):
    built = count_builds(monkeypatch)
    r = tropical_dimension(3, 2)
    assert built == [s.mask for s in r.witness] and len(built) == 2


def test_search_stops_at_the_shape_bound(monkeypatch):
    calls = []

    def counted(n, masks):
        calls.append(masks)
        return _slicing_rank(n, masks)

    monkeypatch.setattr(tropical, "_slicing_rank", counted)
    r = tropical_dimension(3, 2)
    assert r.max_rank == 8
    # one worker scans the C(104, 2) = 5,356 pairs as one batch and stops
    # at the witness, the 154th pair
    assert len(calls) == 154


def test_code_slicings_build_only_the_first_k(monkeypatch):
    built = []
    ball = tropical.ball_slicing

    def counted(w, n):
        built.append(w)
        return ball(w, n)

    monkeypatch.setattr(tropical, "ball_slicing", counted)
    assert _code_slicings(7, 5) == tuple(code_to_slicings(hamming_code(3))[:5])
    assert len(built) == 5
    assert len(_code_slicings(15, 3)) == 3 and len(built) == 8


def test_dimension_exhaustive_small():
    r = tropical_dimension(3, 1)
    assert (r.max_rank, r.dim, r.certified) == (7, 7, True)
    r = tropical_dimension(3, 2)
    assert (r.max_rank, r.dim, r.certified) == (8, 7, True)


def test_dimension_code_based():
    r = tropical_dimension(7, 15, "code_based")
    assert (r.max_rank, r.dim, r.certified) == (127, 127, True)
    r = tropical_dimension(7, 16, "code_based")
    assert (r.max_rank, r.dim, r.certified) == (128, 127, True)


def test_dimension_greedy_reaches_target():
    r = tropical_dimension(3, 1, "greedy_random", seed=0)
    assert r.dim == 7 and r.certified


def test_dimension_greedy_keeps_better_replacements(monkeypatch):
    # k = 3 has no code seeds at n = 3, and at seed 2 the three random
    # slicings drawn first rank below 8: only kept replacements reach it
    drawn = []
    draw = tropical._random_slicing

    def counted(n, rng):
        drawn.append(n)
        return draw(n, rng)

    monkeypatch.setattr(tropical, "_random_slicing", counted)
    r = tropical_dimension(3, 3, "greedy_random", seed=2, restarts=1)
    assert (r.max_rank, r.dim, r.certified) == (8, 7, True)
    assert len(drawn) == 3 + 16  # the first tuple, then the replacements


@pytest.mark.parametrize("n, k, seed", [(3, 3, 2), (4, 3, 0), (3, 1, 0)])
def test_greedy_builds_only_the_slicings_it_returns(monkeypatch, n, k, seed):
    # (3, 3) and (4, 3) have no code seeds: every slicing built is a
    # kept draw; (3, 1) builds its seed, which it returns
    built = count_builds(monkeypatch)
    r = tropical_dimension(n, k, "greedy_random", seed=seed)
    assert built == [s.mask for s in r.witness] and len(built) == k


def test_dimension_guard():
    with pytest.raises(ValueError):
        tropical_dimension(4, 3)  # tuple count above the guard


def test_dimension_code_based_needs_enough_words():
    with pytest.raises(ValueError):
        tropical_dimension(7, 17, "code_based")


def test_membership_origin():
    assert tropical_membership(TropicalPoint.build(3, [0] * 8)).member


def test_membership_image_points_roundtrip():
    rng = Random(12)
    for _ in range(25):
        p = random_params(3, 1, rng)
        q = tropical_morphism(p)
        res = tropical_membership(q)
        assert res.member
        image = tropical_morphism(res.params())
        shifted = TropicalPoint.build(
            3, [x + res.shift for x in image.values])
        assert shifted == q
        assert shifted.values == q.values


def test_membership_parity_indicator_fails():
    parity = TropicalPoint.build(
        3, [1 if bin(v).count("1") % 2 == 0 else 0 for v in all_vertices(3)])
    assert not tropical_membership(parity).member


def test_membership_needs_small_n():
    with pytest.raises(ValueError):
        tropical_membership(TropicalPoint.build(5, [0] * 32))


def test_count_inference_functions():
    assert count_inference_functions(1, 1) == 4
    assert count_inference_functions(2, 1) == 14
    assert count_inference_functions(3, 2) == 10816


def test_tropical_point_equality_mod_ones():
    a = TropicalPoint.build(2, [0, 1, 2, 3])
    b = TropicalPoint.build(2, [5, 6, 7, 8])
    assert a == b and hash(a) == hash(b)
    assert a != TropicalPoint.build(2, [0, 1, 2, 4])


def test_tropical_point_file_roundtrip():
    q = TropicalPoint.build(2, [Q(1, 3), 0, Q(-5, 2), 7])
    buf = io.StringIO()
    write_vertex_values(q.values, buf)
    buf.seek(0)
    assert read_tropical_point(buf).values == q.values


def test_membership_matches_lp_only_oracle_on_images():
    # the 200 images of acceptance criterion 9a
    rng = Random(99)
    for _ in range(200):
        params = TropParams.build(
            [[Q(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(3)]],
            [Q(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(3)],
            [Q(rng.randint(-8, 8), rng.randint(1, 3))])
        q = tropical_morphism(params)
        res = tropical_membership(q)
        assert res.member and res == lp_only_membership(q)


def test_membership_matches_lp_only_oracle_on_lifts():
    # the certificates kept from earlier lifts refute later ones
    rng = Random(21)
    members = 0
    for i in range(200):
        denom = 1 if i % 2 else 3
        q = TropicalPoint.build(
            3, [Q(rng.randint(-60, 60), rng.randint(1, denom))
                for _ in range(8)])
        res = tropical_membership(q)
        assert res == lp_only_membership(q)
        members += res.member
    assert 0 < members < 200


def test_membership_matches_lp_only_oracle_on_face_points():
    """Membership over model_fan's points, with the certificates kept
    from the points before, gives the answers of one LP per slicing."""
    _membership_block.cache_clear()
    points = [TropicalPoint(3, f.point) for f in secondary_fan_faces()
              if f.quotient_dim >= 1]
    results = [tropical_membership(q) for q in points]
    assert any(any(cert.weak) for s in enumerate_slicings(3)
               for cert in _membership_block(3, s.mask).kept)
    assert results == [lp_only_membership(q) for q in points]


def test_a_second_query_runs_only_the_feasible_lp(monkeypatch):
    """The certificates of a point's infeasible LPs refute it again."""
    calls = []
    real = tropical.solve_feasibility

    def counted(system, certificates=None):
        calls.append(system)
        return real(system, certificates)

    monkeypatch.setattr(tropical, "solve_feasibility", counted)
    _membership_block.cache_clear()
    rng = Random(5)
    for _ in range(20):
        q = TropicalPoint.build(3, [rng.randint(-9, 9) for _ in range(8)])
        first = tropical_membership(q)
        calls.clear()
        assert tropical_membership(q) == first
        assert len(calls) == first.member


def test_membership_builds_at_most_one_slicing_per_lp(monkeypatch):
    calls = []
    real = tropical.solve_feasibility

    def counted(system, certificates=None):
        calls.append(system)
        return real(system, certificates)

    monkeypatch.setattr(tropical, "solve_feasibility", counted)
    built = count_builds(monkeypatch)
    _membership_block.cache_clear()
    rng = Random(11)
    members = 0
    for _ in range(20):
        calls.clear()
        built.clear()
        res = tropical_membership(
            TropicalPoint.build(3, [rng.randint(-9, 9) for _ in range(8)]))
        assert len(built) <= len(calls)
        if res.member:
            members += 1
            assert built[-1] == res.slicing.mask
    assert 0 < members < 20


def test_tampered_kept_certificate_fails_revalidation():
    parity = TropicalPoint.build(
        3, [1 if bin(v).count("1") % 2 == 0 else 0 for v in all_vertices(3)])
    _membership_block.cache_clear()
    try:
        assert not tropical_membership(parity).member
        for s in enumerate_slicings(3):
            kept = _membership_block(3, s.mask).kept
            for i, cert in enumerate(kept):
                if any(cert.weak):
                    j = next(j for j, k in enumerate(cert.weak) if k)
                    weak = list(cert.weak)
                    weak[j] += 1
                    kept[i] = cert._replace(weak=tuple(weak))
                    with pytest.raises(AssertionError,
                                       match="re-validation"):
                        tropical_membership(parity)
                    return
        raise AssertionError("no LP certificate was kept")
    finally:
        _membership_block.cache_clear()


def test_left_kernel_refutes_only_inconsistent_equalities():
    parity = TropicalPoint.build(
        3, [1 if bin(v).count("1") % 2 == 0 else 0 for v in all_vertices(3)])
    _membership_block.cache_clear()   # the kept certificates: kernel only
    refuted = 0
    for s in enumerate_slicings(3):
        block = _membership_block(3, s.mask)
        assert len(block.kept) == 2 * (8 - rank(Matrix(block.eq)))
        assert all(not any(cert.weak) for cert in block.kept)
        if any(sum(y * x for y, x in zip(cert.eq, parity.values)) > 0
               for cert in block.kept):
            refuted += 1
            assert _membership_one(parity, s) is None
    assert 0 < refuted < 104


def test_corrupted_left_kernel_fails_revalidation(monkeypatch):
    real = tropical.integer_kernel

    def corrupted(m):
        basis, d = real(m)
        return [[v[0] + 1] + v[1:] for v in basis], d

    _membership_block.cache_clear()
    monkeypatch.setattr(tropical, "integer_kernel", corrupted)
    try:
        with pytest.raises(AssertionError, match="re-validation"):
            tropical_membership(TropicalPoint.build(3, [1, 0] * 4))
    finally:
        _membership_block.cache_clear()
