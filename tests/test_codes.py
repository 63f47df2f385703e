import io
from functools import reduce
from operator import xor
from random import Random

import pytest

from helpers import min_distance_pairs
from trbm.codes import (BinaryCode, code_to_slicings, covering_radius,
                        covering_upper, exact_covering_size,
                        exact_packing_size, exact_small_values, hamming_code,
                        min_distance, read_code, shortened_hamming_code,
                        table_known_bounds, varshamov_lower, write_code)
from trbm.cube import all_vertices, is_slicing


REP3 = BinaryCode(3, frozenset({0b000, 0b111}))


def test_min_distance_examples():
    assert min_distance(REP3) == 3
    assert min_distance(BinaryCode(2, frozenset({0b00, 0b01}))) == 1
    assert min_distance(hamming_code(3)) == 3


def test_min_distance_singleton_undefined():
    with pytest.raises(ValueError):
        min_distance(BinaryCode(3, frozenset({0})))
    for n in (0, 1):  # the lengths with one word
        with pytest.raises(ValueError):
            min_distance(BinaryCode(n, frozenset({0})))


def linear_code(n, basis):
    """The code of length n spanned by the words of ``basis``."""
    words = {0}
    for b in basis:
        words |= {w ^ b for w in words}
    return BinaryCode(n, frozenset(words))


def agreeing_codes():
    """Codes on which the ball search and the pair scan must agree: both
    lengths with two words, two words at distance n, the Hamming and
    even-weight codes, and seeded random and random linear codes."""
    yield BinaryCode(1, frozenset({0, 1}))
    for n in range(1, 13):
        yield BinaryCode(n, frozenset({0, (1 << n) - 1}))
        yield BinaryCode(n, frozenset({0b1 << (n - 1), (1 << n - 1) - 1}))
    for ell in (2, 3, 4):
        yield hamming_code(ell)
    for n in (2, 8, 12):
        yield linear_code(n, [1 | 1 << j for j in range(1, n)])
    rng = Random(2701)
    for _ in range(60):
        n = rng.randint(1, 12)
        size = rng.randint(2, min(1 << n, 300))
        yield BinaryCode(n, frozenset(rng.sample(range(1 << n), size)))
        yield linear_code(n, [rng.randrange(1, 1 << n)
                              for _ in range(rng.randint(1, n))])


def test_min_distance_matches_the_pair_scan():
    distances = set()
    for code in agreeing_codes():
        if len(code.words) >= 2:
            assert min_distance(code) == min_distance_pairs(code), code
            distances.add(min_distance(code))
    assert distances >= {1, 2, 3, 4, 12}


def test_min_distance_flips_every_coordinate():
    # a perfect code puts a word at distance 1 from one codeword only, so
    # the ball search must flip coordinate j to find the pair
    code = hamming_code(4)
    word = max(code.words)
    for j in range(code.n):
        near = BinaryCode(code.n, code.words | {word ^ 1 << j})
        assert min_distance(near) == 1


def test_min_distance_of_the_even_weight_code_of_length_20():
    # 2^19 words: the ball search finds distance 2 after 20 lookups per
    # word, where the pair scan would compare 1.4e11 pairs
    code = linear_code(20, [1 | 1 << j for j in range(1, 20)])
    assert len(code.words) == 1 << 19 and min_distance(code) == 2


def test_covering_radius_examples():
    assert covering_radius(REP3) == 1
    assert covering_radius(BinaryCode(4, frozenset({0}))) == 4
    assert covering_radius(hamming_code(3)) == 1


def test_hamming_codes():
    assert hamming_code(2).words == frozenset({0b000, 0b111})
    for ell, (length, size) in ((2, (3, 2)), (3, (7, 16)), (4, (15, 2048))):
        code = hamming_code(ell)
        assert (code.n, len(code.words)) == (length, size)
        assert min_distance(code) == 3
        assert covering_radius(code) == 1


def test_hamming_words_are_the_kernel_of_the_check_matrix():
    # coordinate j (bit n - j) has column j of the check matrix, the
    # binary expansion of j, so the syndrome of w is the XOR of its
    # coordinates' indices; the kernel holds 2^(n - ell) words
    for ell in (2, 3, 4):
        code = hamming_code(ell)
        n = (1 << ell) - 1
        assert code.n == n and len(code.words) == 1 << (n - ell)
        for w in code.words:
            assert reduce(xor, (j for j in range(1, n + 1)
                                if w >> (n - j) & 1), 0) == 0


def test_bound_formulas():
    assert varshamov_lower(7) == 16
    assert covering_upper(7) == 16
    assert varshamov_lower(5) == 4
    assert covering_upper(5) == 8
    with pytest.raises(ValueError):
        varshamov_lower(2)


def test_hamming_integers_meet_both_bounds():
    for ell in (3, 4):
        n = (1 << ell) - 1
        size = len(hamming_code(ell).words)
        assert varshamov_lower(n) == covering_upper(n) == size


def test_code_to_slicings_repetition():
    slicings = code_to_slicings(REP3)
    assert [s.positive for s in slicings] == [
        frozenset({0b000, 0b100, 0b010, 0b001}),
        frozenset({0b111, 0b011, 0b101, 0b110})]
    assert not (slicings[0].positive & slicings[1].positive)


def test_code_to_slicings_partition_hamming():
    slicings = code_to_slicings(hamming_code(3))
    union = set()
    for s in slicings:
        assert len(s.positive) == 8
        assert not (union & s.positive)
        union |= s.positive
    assert union == set(all_vertices(7))


def test_code_to_slicings_are_slicings():
    for s in code_to_slicings(REP3):
        assert is_slicing(s.positive, s.n) is not None


def test_code_to_slicings_singleton_convention():
    out = code_to_slicings(BinaryCode(2, frozenset({0b00})))
    assert len(out) == 1
    assert out[0].positive == frozenset({0b00, 0b01, 0b10})


def test_code_to_slicings_rejects_close_words():
    with pytest.raises(ValueError):
        code_to_slicings(BinaryCode(3, frozenset({0b000, 0b001})))


def test_exact_small_values():
    table = exact_small_values()
    assert table["A2"][3] == 2
    assert table["A2"][5] == 4
    assert table["K2"][3] == 2
    assert table["K2"][4] == 4


def test_bounds_sandwich_exact_values():
    for n in (3, 4, 5):
        assert varshamov_lower(n) <= exact_packing_size(n)
    for n in (1, 2, 3, 4):
        assert covering_upper(n) >= exact_covering_size(n)


def test_table_rows():
    row = table_known_bounds(19)
    assert (row.k_le, row.k_ge) == (20480, 31744)
    row = table_known_bounds(7)
    assert (row.k_le, row.k_ge) == (16, 16)
    assert table_known_bounds(34) is None
    assert table_known_bounds(127).k_ge is None


def test_code_file_roundtrip():
    # length 0: the one word, the empty one, is written as 0
    for code in (hamming_code(3), BinaryCode(0, frozenset({0})),
                 BinaryCode(1, frozenset({0, 1}))):
        buf = io.StringIO()
        write_code(code, buf)
        buf.seek(0)
        assert read_code(buf) == code


def test_shortened_hamming_keeps_distance():
    for n in (4, 5, 6, 9, 10):
        code = shortened_hamming_code(n)
        assert code.n == n
        assert len(code.words) >= varshamov_lower(n) if n >= 3 else True
        if len(code.words) >= 2:
            assert min_distance(code) >= 3
