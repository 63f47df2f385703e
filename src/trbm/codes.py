"""Binary packing and covering codes and their cube slicings.

Codewords are integers in [0, 2^n); coordinate j (1-based) is the bit at
position n - j, matching the cube vertex indexing in :mod:`trbm.cube`.
Two quantities drive the dimension results downstream: A2(n, 3), the
largest code with pairwise Hamming distance >= 3, and K2(n, 1), the
smallest code whose radius-1 balls cover all strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat
from math import ceil, comb, floor, log2
from operator import xor
from typing import Optional, TextIO

from .cube import Slicing, all_vertices, subset_mask, vertex_coords

HAMMING_LIMIT = 4  # ell = 5 would list 2^26 codewords
# the covering radius visits all 2^n words: n = 20 takes 3.6 s on a
# 2-vCPU Xeon, and each further bit doubles the time and the memory
COVERING_LIMIT = 20
# the bounds are 2^n-sized integers: at n = 10,000 they print 3,011
# digits, under the 4,300 that Python prints by default
BOUNDS_LIMIT = 10_000
# each ball's Slicing checks its 2^n margins: the 2,048 balls of length 15
# that dim --strategy code_based builds (2^26 margins) take 5.5 s on a
# 2-vCPU Xeon, which bounds the output
BALL_MARGINS_LIMIT = 1 << 26
# one ball lists its 2^n margins at once: a one-word code of length 22
# takes 0.56 s and 210 MB on a 2-vCPU Xeon, and each further bit doubles
# both (length 23: 1.08 s, 398 MB)
BALL_LENGTH_LIMIT = 22


@dataclass(frozen=True)
class BinaryCode:
    n: int
    words: frozenset[int]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"code length needs n >= 0, got n={self.n}")
        if not self.words:
            raise ValueError("code must be nonempty")
        if any(w < 0 or w >> self.n for w in self.words):
            raise ValueError("codeword out of range")

    def sorted_words(self) -> list[int]:
        return sorted(self.words)


def min_distance(code: BinaryCode) -> int:
    """Minimum pairwise Hamming distance; undefined for singleton codes.

    For d = 1, 2, ... the search looks up a ^ e for every codeword a and
    every pattern e of weight d, |C| C(n, d) lookups.  Once the lookups
    would pass the |C|(|C| - 1)/2 pairs, it compares the pairs instead.
    """
    words, n = code.words, code.n
    if len(words) < 2:
        raise ValueError("minimum distance undefined for a singleton code")
    pairs, work = len(words) * (len(words) - 1) // 2, 0
    for d in range(1, n + 1):
        work += len(words) * comb(n, d)
        if work > pairs:
            break
        for bits in combinations(range(n), d):
            e = subset_mask(bits)
            if not words.isdisjoint(map(xor, words, repeat(e))):
                return d
    return min((a ^ b).bit_count() for a, b in combinations(words, 2))


def covering_radius(code: BinaryCode) -> int:
    """Largest distance from any n-bit string to the nearest codeword.

    Multi-source breadth-first search over the hypercube graph, one edge
    per bit flip; lengths above ``COVERING_LIMIT`` are refused first.
    """
    n = code.n
    if n > COVERING_LIMIT:
        raise ValueError(f"covering radius needs n <= {COVERING_LIMIT}, "
                         f"got n={n}")
    dist = [-1] * (1 << n)
    frontier = list(code.words)
    for w in frontier:
        dist[w] = 0
    radius = 0
    while frontier:
        nxt = []
        for w in frontier:
            for j in range(n):
                u = w ^ (1 << j)
                if dist[u] < 0:
                    dist[u] = dist[w] + 1
                    nxt.append(u)
        if nxt:
            radius = dist[nxt[0]]
        frontier = nxt
    return radius


def hamming_code(ell: int) -> BinaryCode:
    """The perfect single-error-correcting code of length 2^ell - 1.

    The check matrix has the binary expansion of c as column c, for
    c = 1 .. 2^ell - 1, so the columns 2^b are the unit vectors.  Each
    other column c gives the basis word with ones at c and at the 2^b
    for the bits b of c, whose columns sum to c + c = 0 over GF(2).
    """
    if ell < 2:
        raise ValueError("ell must be at least 2")
    if ell > HAMMING_LIMIT:
        raise ValueError(f"ell={ell} gives 2^(2^{ell} - {ell + 1}) "
                         f"codewords; ell <= {HAMMING_LIMIT} is supported")
    n = (1 << ell) - 1
    words = {0}
    for c in range(1, n + 1):
        if c & (c - 1):
            vec = 1 << (n - c)
            for b in range(ell):
                if c >> b & 1:
                    vec |= 1 << (n - (1 << b))
            words |= {w ^ vec for w in words}
    return BinaryCode(n, frozenset(words))


def varshamov_lower(n: int) -> int:
    """Guaranteed packing size: A2(n, 3) >= 2^(n - ceil(log2(n+1)))."""
    if n < 3:
        raise ValueError("bound stated for n >= 3")
    return 1 << (n - ceil(log2(n + 1)))


def covering_upper(n: int) -> int:
    """Guaranteed covering size: K2(n, 1) <= 2^(n - floor(log2(n+1)))."""
    return 1 << (n - floor(log2(n + 1)))


def code_to_slicings(code: BinaryCode) -> list[Slicing]:
    """One slicing per codeword, in sorted order: its radius-1 Hamming
    ball (:func:`ball_slicing`), for a code checked by
    :func:`ball_centers`; codes whose balls would list more than
    ``BALL_MARGINS_LIMIT`` margins, or longer than ``BALL_LENGTH_LIMIT``,
    are refused first."""
    margins = len(code.words) << code.n
    if margins > BALL_MARGINS_LIMIT:
        raise ValueError(f"ball slicings need |C| 2^n <= "
                         f"{BALL_MARGINS_LIMIT}, got {margins} at "
                         f"n={code.n}, |C|={len(code.words)}")
    if code.n > BALL_LENGTH_LIMIT:
        raise ValueError(f"ball slicings need n <= {BALL_LENGTH_LIMIT}, "
                         f"got n={code.n}")
    return [ball_slicing(w, code.n) for w in ball_centers(code)]


def ball_centers(code: BinaryCode) -> list[int]:
    """The sorted codewords, once their radius-1 balls are pairwise
    disjoint (minimum distance >= 3): each ball has n + 1 words, so the
    balls are disjoint exactly when their union has |C| (n + 1)."""
    union = {u for w in code.words for u in _ball(w, code.n)}
    if len(union) < len(code.words) * (code.n + 1):
        raise ValueError("balls overlap: minimum distance below 3")
    return code.sorted_words()


def _ball(w: int, n: int) -> list[int]:
    """The words of the radius-1 Hamming ball around the word w."""
    return [w] + [w ^ (1 << j) for j in range(n)]


def ball_slicing(w: int, n: int) -> Slicing:
    """The radius-1 Hamming ball around the word w of length n.

    The ball is cut off by omega_j = 2 w_j - 1 and c = 3/2 - weight(w),
    since then omega.v + c = 3/2 - d(v, w); the witness is held as
    (2 omega, 2 c) over 2.
    """
    y = [4 * x - 2 for x in vertex_coords(w, n)] + [3 - 2 * w.bit_count()]
    return Slicing(n, subset_mask(_ball(w, n)), y, 2)


def exact_packing_size(n: int) -> int:
    """A2(n, 3) by clique search; the first codeword is fixed at zero."""
    if n < 3 or n > 5:
        raise ValueError("exhaustive packing supported for 3 <= n <= 5")
    candidates = [w for w in all_vertices(n) if w.bit_count() >= 3]

    def grow(chosen: list[int], pool: list[int]) -> int:
        best = len(chosen)
        for i, w in enumerate(pool):
            rest = [u for u in pool[i + 1:] if (u ^ w).bit_count() >= 3]
            best = max(best, grow(chosen + [w], rest))
        return best

    return grow([0], candidates)


def exact_covering_size(n: int) -> int:
    """K2(n, 1) by exhaustive set cover over radius-1 balls."""
    if n < 1 or n > 4:
        raise ValueError("exhaustive covering supported for 1 <= n <= 4")
    full = (1 << (1 << n)) - 1
    balls = [subset_mask(_ball(w, n)) for w in all_vertices(n)]
    for k in range(1, (1 << n) + 1):
        for centers in combinations(range(1 << n), k):
            cover = 0
            for c in centers:
                cover |= balls[c]
            if cover == full:
                return k
    raise AssertionError("full code always covers")


def exact_small_values() -> dict[str, dict[int, int]]:
    """Exhaustively computed packing and covering numbers at tiny n."""
    return {
        "A2": {n: exact_packing_size(n) for n in (3, 4, 5)},
        "K2": {n: exact_covering_size(n) for n in (1, 2, 3, 4)},
    }


@dataclass(frozen=True)
class KnownBounds:
    k_le: int            # largest k with the expected dimension guaranteed
    k_ge: Optional[int]  # smallest k with full dimension, when recorded


# Published special values: packing lower bounds A2(n,3) (column k_le) and
# covering upper bounds K2(n,1) (column k_ge).  Powers of two come from
# Hamming or shortened-Hamming constructions; the composite entries are
# best known nonlinear codes from the standard tables.
_KNOWN_BOUNDS: dict[int, KnownBounds] = {
    5: KnownBounds(2**2, 7),
    6: KnownBounds(2**3, 12),
    7: KnownBounds(2**4, 2**4),
    8: KnownBounds(2**2 * 5, 2**5),
    9: KnownBounds(2**3 * 5, 62),
    10: KnownBounds(2**3 * 9, 120),
    11: KnownBounds(2**4 * 9, 192),
    12: KnownBounds(2**8, 380),
    13: KnownBounds(2**9, 736),
    14: KnownBounds(2**10, 1408),
    15: KnownBounds(2**11, 2**11),
    16: KnownBounds(2**5 * 85, 2**12),
    17: KnownBounds(2**6 * 83, 2**13),
    18: KnownBounds(2**8 * 41, 2**14),
    19: KnownBounds(2**12 * 5, 31744),
    20: KnownBounds(2**12 * 9, 63488),
    21: KnownBounds(2**13 * 9, 122880),
    22: KnownBounds(2**14 * 9, 245760),
    23: KnownBounds(2**15 * 9, 393216),
    24: KnownBounds(2**19, 786432),
    25: KnownBounds(2**20, 1556480),
    26: KnownBounds(2**21, 3112960),
    27: KnownBounds(2**22, 6029312),
    28: KnownBounds(2**23, 12058624),
    29: KnownBounds(2**24, 23068672),
    30: KnownBounds(2**25, 46137344),
    31: KnownBounds(2**26, 2**26),
    32: KnownBounds(2**20 * 85, 2**27),
    33: KnownBounds(2**21 * 85, 2**28),
    # beyond n = 33 only packing bounds are recorded
    35: KnownBounds(2**23 * 83, None),
    37: KnownBounds(2**26 * 41, None),
    39: KnownBounds(2**31 * 5, None),
    47: KnownBounds(2**38 * 9, None),
    63: KnownBounds(2**57, None),
    70: KnownBounds(2**43 * 1657009, None),
    71: KnownBounds(2**63 * 3, None),
    75: KnownBounds(2**63 * 41, None),
    79: KnownBounds(2**70 * 5, None),
    95: KnownBounds(2**85 * 9, None),
    127: KnownBounds(2**120, None),
    141: KnownBounds(2**113 * 1657009, None),
    143: KnownBounds(2**134 * 3, None),
    151: KnownBounds(2**138 * 41, None),
    159: KnownBounds(2**149 * 5, None),
    163: KnownBounds(2**151 * 19, None),
    191: KnownBounds(2**180 * 9, None),
    255: KnownBounds(2**247, None),
    270: KnownBounds(2**202 * 1021273028302258913, None),
    283: KnownBounds(2**254 * 1657009, None),
    287: KnownBounds(2**277 * 3, None),
    300: KnownBounds(2**220 * 3348824985082075276195, None),
    303: KnownBounds(2**289 * 41, None),
    319: KnownBounds(2**308 * 5, None),
    327: KnownBounds(2**314 * 19, None),
    383: KnownBounds(2**371 * 9, None),
    511: KnownBounds(2**502, None),
    512: KnownBounds(2**443 * 1021273028302258913, None),
}


def table_known_bounds(n: int) -> Optional[KnownBounds]:
    return _KNOWN_BOUNDS.get(n)


def write_code(code: BinaryCode, stream: TextIO) -> None:
    stream.write(f"n={code.n}\n")
    for w in code.sorted_words():
        stream.write(format(w, f"0{code.n}b") + "\n")


def read_code(stream: TextIO) -> BinaryCode:
    header = stream.readline().strip()
    if not header.startswith("n="):
        raise ValueError("code file must start with n=<length>")
    n = int(header[2:])
    words = [w for w in map(str.strip, stream) if w]
    bad = [w for w in words if w.strip("01")]
    if not bad:
        code = BinaryCode(n, frozenset(int(w, 2) for w in words))
        # write_code writes the empty word (n = 0) as 0
        bad = [w for w in words if len(w) != max(n, 1)]
    if bad:
        raise ValueError(f"codeword {bad[0]!r} is not {n} binary digits")
    return code


def shortened_hamming_code(n: int) -> BinaryCode:
    """A distance-3 code of length n and size 2^(n - ceil(log2(n+1))).

    Shortens the next Hamming code: keep codewords vanishing on the last
    coordinates, then drop those coordinates (none when n = 2^ell - 1,
    which leaves the Hamming code).  Realizes the packing lower bound
    constructively.
    """
    if n < 2:
        raise ValueError("length must be at least 2")
    ell = ceil(log2(n + 1))
    big = hamming_code(ell)
    drop = big.n - n
    words = frozenset(w >> drop for w in big.words
                      if w & ((1 << drop) - 1) == 0)
    return BinaryCode(n, words)
