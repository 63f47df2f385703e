"""Sparse integer polynomials in the 2^n cube coordinates p_v.

Supports initial forms with respect to a weight vector (max-plus: the
terms of maximal weighted degree survive), the 3x3 minors of symbolic
flattenings, and the explicit degree-4 witness showing that a weight
vector can satisfy every minor tropically while a quartic in the ideal
still picks out a single monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Optional, Sequence, TextIO

from .rbmstats import flattening_indices, splits
from .tropical import TropicalPoint

Q = Fraction

# weight vectors are tropical points; both are 2^n rationals mod all-ones
WeightVector = TropicalPoint

Term = tuple[int, tuple[tuple[int, int], ...]]

MINORS_LIMIT = 7  # 31,360 minors at n = 7 (split 3 | 4), 313,600 at 8 (4 | 4)


@dataclass(frozen=True)
class SparsePolynomial:
    """Terms (coefficient, ((vertex index, exponent), ...)), canonical order."""

    n: int
    terms: tuple[Term, ...]

    @classmethod
    def build(cls, n: int, terms: Iterable[tuple[int, dict[int, int]]]
              ) -> "SparsePolynomial":
        merged: dict[tuple[tuple[int, int], ...], int] = {}
        for coeff, exps in terms:
            if any(e <= 0 for e in exps.values()):
                raise ValueError("exponents must be positive")
            key = tuple(sorted(exps.items()))
            merged[key] = merged.get(key, 0) + coeff
        clean = [(c, k) for k, c in merged.items() if c != 0]
        return cls(n, tuple(sorted(clean, key=lambda t: t[1])))

    def __len__(self):
        return len(self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def term_weight(self, term: Term, w: Sequence[Fraction]) -> Fraction:
        return sum((Q(e) * w[v] for v, e in term[1]), Q(0))


def initial_form(f: SparsePolynomial, w: WeightVector) -> SparsePolynomial:
    """Sub-sum of terms of maximal w-weight (max-plus convention)."""
    if not f.terms:
        raise ValueError("initial form of the zero polynomial")
    if w.n != f.n:
        raise ValueError(f"weights need 2^{f.n} = {1 << f.n} values, "
                         f"got {len(w.values)}")
    weights = [f.term_weight(t, w.values) for t in f.terms]
    top = max(weights)
    kept = [t for t, wt in zip(f.terms, weights) if wt == top]
    return SparsePolynomial(f.n, tuple(kept))


def flattening_minors(n: int, a_set: Iterable[int]) -> list[SparsePolynomial]:
    """All 3x3 minors of the symbolic flattening along A | B, expanded.

    Splits with a side of fewer than two indices admit no 3x3 minors and
    yield the empty list.
    """
    if n > MINORS_LIMIT:
        raise ValueError(f"minors are listed for n <= {MINORS_LIMIT}, "
                         f"got n={n}")
    a = sorted(set(a_set))
    b = [j for j in range(1, n + 1) if j not in a]
    if not a or not b:
        raise ValueError("split must be proper and nonempty")
    table = flattening_indices(n, a)
    if len(a) < 2 or len(b) < 2:
        return []
    minors = []
    for rows in combinations(range(len(table)), 3):
        for cols in combinations(range(len(table[0])), 3):
            terms = []
            for perm in permutations(range(3)):
                sign = _perm_sign(perm)
                exps: dict[int, int] = {}
                for r in range(3):
                    v = table[rows[r]][cols[perm[r]]]
                    exps[v] = exps.get(v, 0) + 1
                terms.append((sign, exps))
            minors.append(SparsePolynomial.build(n, terms))
    return minors


def _perm_sign(perm) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def all_flattening_minors(n: int) -> list[SparsePolynomial]:
    out = []
    for a in splits(n):
        out.extend(flattening_minors(n, a))
    return out


@dataclass(frozen=True)
class PrevarietyResult:
    member: bool
    failing_minor: Optional[SparsePolynomial] = None


def prevariety_member(q: WeightVector, n: int) -> PrevarietyResult:
    """Tropical solution test: every minor's initial form keeps >= 2 terms."""
    for minor in all_flattening_minors(n):
        if initial_form(minor, q).is_monomial():
            return PrevarietyResult(False, minor)
    return PrevarietyResult(True)


def _p(bits: str) -> int:
    return int(bits, 2)


# weight vector in the relative interior of a maximal prevariety cone
# that the quartic below certifies to lie outside the tropical variety
GAP_WITNESS_WEIGHTS = WeightVector.build(
    4, (59, 1, 80, 86, 102, 108, 107, 113, 109, 115, 100, 106, 78, 84, 21, 43))


def gap_quartic() -> SparsePolynomial:
    """The 8-term quartic whose initial form at the witness is a monomial."""
    rows = [
        (+1, ("0000", "0110", "1010", "1101")),
        (-1, ("0010", "0100", "1000", "1111")),
        (+1, ("0010", "0100", "1001", "1110")),
        (-1, ("0000", "0110", "1001", "1110")),
        (-1, ("0001", "0110", "1010", "1100")),
        (+1, ("0000", "0010", "1100", "1111")),
        (-1, ("0000", "0010", "1101", "1110")),
        (+1, ("0001", "0110", "1000", "1110")),
    ]
    return SparsePolynomial.build(
        4, [(sign, {_p(b): 1 for b in bits}) for sign, bits in rows])


@dataclass(frozen=True)
class QuarticWitnessReport:
    prevariety: bool
    quartic_initial_terms: int
    monomial: Optional[tuple[int, ...]]
    max_weight: Fraction


def quartic_witness_check(
        q: WeightVector = GAP_WITNESS_WEIGHTS) -> QuarticWitnessReport:
    """Certify q in the minors' prevariety with a monomial quartic initial form.

    At the shipped witness the report reads: prevariety True, one initial
    term, supported on p_0000 p_0110 p_1010 p_1101.
    """
    pre = prevariety_member(q, 4)
    quartic = gap_quartic()
    init = initial_form(quartic, q)
    support = tuple(v for v, _ in init.terms[0][1]) if init.is_monomial() \
        else None
    weight = quartic.term_weight(init.terms[0], q.values)
    return QuarticWitnessReport(pre.member, len(init), support, weight)


def format_polynomial(f: SparsePolynomial) -> str:
    lines = []
    for coeff, exps in f.terms:
        factors = " ".join(
            f"p_{v:0{f.n}b}" + (f"^{e}" if e > 1 else "")
            for v, e in exps)
        lines.append(f"{coeff} * {factors}")
    return "\n".join(lines)


def write_polynomial(f: SparsePolynomial, stream: TextIO) -> None:
    stream.write(format_polynomial(f) + "\n")


def read_polynomial(stream: TextIO, n: int) -> SparsePolynomial:
    terms = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        coeff_part, _, factor_part = line.partition("*")
        exps: dict[int, int] = {}
        for token in factor_part.split():
            name, _, power = token.partition("^")
            if not name.startswith("p_"):
                raise ValueError(f"bad factor {token!r}")
            v = int(name[2:], 2)
            if not 0 <= v < 1 << n:
                raise ValueError(f"factor {token!r} is not a variable of "
                                 f"the {n}-cube")
            exps[v] = exps.get(v, 0) + (int(power) if power else 1)
        terms.append((int(coeff_part.strip()), exps))
    return SparsePolynomial.build(n, terms)
