"""Byte-identical witnesses of ``solve_feasibility`` on a seeded corpus.

``golden_lp.json`` holds ``str`` of every witness coordinate (or null for
an infeasible system), recorded from the implementation that projected
rows onto a ``Fraction`` kernel basis.  Any change to how the solver
scales, eliminates or pivots must reproduce them byte for byte, because
printed slicing, membership and fan witnesses are these witnesses.

Run ``PYTHONPATH=src python tests/test_golden_lp.py`` to rewrite the file;
do so only on a commit whose witnesses are the reference.
"""

import json
from fractions import Fraction as Q
from pathlib import Path
from random import Random

import pytest

from trbm.cube import all_vertices, vertex_coords
from trbm.linalg import _eliminate, _int_rows
from trbm.lp import LinearSystem, solve_feasibility

GOLDEN = Path(__file__).with_name("golden_lp.json")

KINDS = ("separation", "fractional_strict", "homogeneous_eq",
         "affine_eq", "weak_only", "contradiction")


def _entry(rng):
    if rng.random() < 0.3:
        return 0
    if rng.random() < 0.5:
        return rng.randint(-6, 6)
    return Q(rng.randint(-24, 24), rng.randint(1, 8))


def _through(rng, x, constant):
    """A random row that vanishes at the point ``x``: with a free
    constant term when ``constant``, else homogeneous."""
    a = [_entry(rng) for _ in x]
    value = sum((ai * xi for ai, xi in zip(a, x)), Q(0))
    if constant:
        return a + [-value]
    k = next((i for i, xi in enumerate(x) if xi), None)
    if k is not None:
        a[k] -= value / x[k]
    return a + [0]


def _planted(rng, m, constant, strict, weak, eq):
    """Rows around a random point: strict rows positive there, weak rows
    nonnegative, equality rows zero.  Some rows get flipped so that the
    corpus also holds infeasible systems of each shape."""
    x = [_entry(rng) for _ in range(m)]
    rows = {"strict": [], "weak": [], "eq": []}
    for kind, count in (("strict", strict), ("weak", weak)):
        for _ in range(count):
            row = _through(rng, x, constant)
            row[-1 if constant else rng.randrange(m)] += rng.randint(1, 3)
            if rng.random() < 0.1:
                row = [-v for v in row]
            rows[kind].append(row)
    rows["eq"] = [_through(rng, x, constant) for _ in range(eq)]
    return rows


def corpus():
    """The seeded systems, each as (kind, LinearSystem)."""
    rng = Random(3)
    systems = []
    for i in range(300):
        kind = KINDS[i % len(KINDS)]
        m = rng.randint(1, 5)
        if kind == "separation":
            n = rng.randint(1, 3)
            positive = {v for v in all_vertices(n) if rng.random() < 0.5}
            strict = [tuple((1 if v in positive else -1) * x
                            for x in vertex_coords(v, n) + (1,)) + (0,)
                      for v in all_vertices(n)]
            systems.append((kind, LinearSystem.build(n + 1, strict=strict)))
            continue
        if kind == "fractional_strict":
            rows = _planted(rng, m, rng.random() < 0.5,
                            rng.randint(1, 5), rng.randint(0, 2), 0)
            rows["strict"] = [[Q(v) / rng.randint(1, 7) for v in row]
                              for row in rows["strict"]]
        elif kind == "homogeneous_eq":
            rows = _planted(rng, m, False, rng.randint(0, 4),
                            rng.randint(0, 3), rng.randint(1, 3))
        elif kind == "affine_eq":
            rows = _planted(rng, m, True, rng.randint(0, 4),
                            rng.randint(0, 3), rng.randint(1, 3))
            if rng.random() < 0.15:
                rows["eq"].append([0] * m + [rng.choice([-1, 1])])
        elif kind == "weak_only":
            rows = _planted(rng, m, rng.random() < 0.5, 0,
                            rng.randint(1, 4), rng.randint(0, 2))
        else:
            row = [_entry(rng) for _ in range(m + 1)]
            row[rng.randrange(m + 1)] = rng.randint(1, 5)
            rows = _planted(rng, m, rng.random() < 0.5, rng.randint(0, 3),
                            rng.randint(0, 2), rng.randint(0, 1))
            rows["strict"] += [row, [-Q(v, 2) for v in row]]
        systems.append((kind, LinearSystem.build(
            m, strict=rows["strict"], weak=rows["weak"], eq=rows["eq"])))
    return systems


def record(witness):
    return None if witness is None else [str(v) for v in witness]


def _eliminated_rows(sys_):
    """The equality rows the solver eliminates: without the constant
    column when every row of the system is homogeneous."""
    m = sys_.num_vars
    if all(r[m] == 0 for r in sys_.strict + sys_.weak + sys_.eq):
        return [r[:m] for r in sys_.eq], m
    return list(sys_.eq), m + 1


@pytest.fixture(scope="module")
def systems():
    return corpus()


def test_corpus_covers_every_shape(systems):
    """Fractional strict rows, equalities with and without constants,
    infeasible systems and eliminations that end on a negative pivot."""
    seen = {"fractional_strict": 0, "homogeneous_eq": 0, "affine_eq": 0,
            "infeasible": 0, "feasible": 0, "negative_pivot": 0}
    for _, sys_ in systems:
        m = sys_.num_vars
        if any(v.denominator > 1 for r in sys_.strict for v in r):
            seen["fractional_strict"] += 1
        if sys_.eq:
            eqs, width = _eliminated_rows(sys_)
            seen["homogeneous_eq" if width == m else "affine_eq"] += 1
            seen["negative_pivot"] += _eliminate(_int_rows(eqs), width,
                                                 jordan=True)[1] < 0
        witness = solve_feasibility(sys_)
        seen["infeasible" if witness is None else "feasible"] += 1
    assert all(count >= 10 for count in seen.values()), seen


def test_witnesses_are_byte_identical(systems):
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == len(systems)
    for i, (kind, sys_) in enumerate(systems):
        assert record(solve_feasibility(sys_)) == golden[i], (i, kind)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([record(solve_feasibility(s))
                                  for _, s in corpus()]) + "\n")
