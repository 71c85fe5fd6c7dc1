"""Seeded unimodular basis changes of catalog algebras, written as catalog JSON.

The generator is independent of liekit: the five base tables are spelled out
here, the basis change is an integer matrix P with det +-1 built from
elementary row operations, and the new structure constants are computed with
``fractions.Fraction``. Because P^-1 is integral, every new constant is an
integer. The same seed gives byte-identical files.

Row a of P is the new basis vector f_a in old coordinates, so
[f_a, f_b] = sum_ij P[a][i] P[b][j] [e_i, e_j], and a vector v in old
coordinates has new coordinates v @ P^-1.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Callable

# 0-based tables: (i, j) with i < j -> {k: coefficient}
Table = dict[tuple[int, int], dict[int, Fraction]]


def _heisenberg(m: int) -> Table:
    k = (m - 1) // 2
    return {(i, k + i): {2 * k: Fraction(1)} for i in range(k)}


def _filiform(n: int) -> Table:
    return {(0, i): {i + 1: Fraction(1)} for i in range(1, n - 1)}


def _diagonal_torus_extension(n: int) -> Table:
    # t_1..t_n first, then e_1..e_n, with [t_i, e_i] = e_i
    return {(i, n + i): {n + i: Fraction(1)} for i in range(n)}


# favre7: the seven-dimensional characteristically nilpotent algebra
_FAVRE7 = [
    (1, 2, {4: 1}), (1, 3, {5: 1}), (1, 4, {5: 1}), (1, 5, {6: 1}),
    (1, 6, {7: 1}), (2, 3, {4: 1}), (2, 4, {6: 1}), (2, 5, {7: 1}),
    (2, 6, {7: 1}), (3, 4, {5: -1, 7: 1}), (3, 5, {6: -1, 7: -1}),
    (3, 6, {7: -1}), (4, 5, {7: -1}),
]


def _favre7() -> Table:
    return {(i - 1, j - 1): {k - 1: Fraction(c) for k, c in terms.items()}
            for i, j, terms in _FAVRE7}


# catalog key -> (dimension, table builder)
BASES: dict[str, tuple[int, Callable[[], Table]]] = {
    "filiform:6": (6, lambda: _filiform(6)),
    "favre7": (7, _favre7),
    "diagonal_torus_extension:3": (6, lambda: _diagonal_torus_extension(3)),
    "heisenberg:7": (7, lambda: _heisenberg(7)),
    "filiform:8": (8, lambda: _filiform(8)),
}


def row_operation(p: list[list[int]], rng: random.Random) -> list[list[int]]:
    """P with one seeded elementary operation row_i += c * row_j applied."""
    i, j = rng.sample(range(len(p)), 2)
    c = rng.choice((-1, 1))
    out = [row[:] for row in p]
    out[i] = [a + c * b for a, b in zip(p[i], p[j])]
    return out


def inverse(p: list[list[int]]) -> list[list[int]]:
    """Exact inverse by Gauss-Jordan over Fraction; must be integral."""
    n = len(p)
    aug = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)]
           for r, row in enumerate(p)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    out = [row[n:] for row in aug]
    if any(x.denominator != 1 for row in out for x in row):
        raise ValueError("basis change is not unimodular")
    return [[int(x) for x in row] for row in out]


def transform(table: Table, n: int, p: list[list[int]]) -> Table:
    """Structure constants of the same algebra in the basis given by P's rows."""
    pinv = inverse(p)
    out: Table = {}
    for a in range(n):
        for b in range(a + 1, n):
            v = [Fraction(0)] * n
            for (i, j), terms in table.items():
                coef = p[a][i] * p[b][j] - p[a][j] * p[b][i]
                if coef:
                    for k, c in terms.items():
                        v[k] += coef * c
            w = {col: sum(v[k] * pinv[k][col] for k in range(n))
                 for col in range(n)}
            w = {col: x for col, x in w.items() if x}
            if w:
                out[(a, b)] = w
    return out


def catalog_json(name: str, n: int, table: Table) -> str:
    brackets = [[i + 1, j + 1, [[k + 1, str(c)] for k, c in sorted(terms.items())]]
                for (i, j), terms in sorted(table.items())]
    doc = {"name": name, "dim": n, "basis": [f"f{i}" for i in range(1, n + 1)],
           "brackets": brackets, "expected": {}}
    return json.dumps(doc, indent=2) + "\n"


# row operations stop once the constants total this many bits per entry of a
# dense table (n * n * (n - 1) / 2 entries), so the tables of every seed have
# about the same density and size; with a bound on the largest constant alone,
# the cost of one algebra's tables varied by up to 2x
TARGET_BITS_PER_ENTRY = 7


def changed_table(key: str, rng: random.Random) -> Table:
    """Seeded unimodular basis change of `key`, grown to TARGET_BITS_PER_ENTRY."""
    n, build = BASES[key]
    base = build()
    p = [[int(r == c) for c in range(n)] for r in range(n)]
    table = base
    while total_bits(table) < TARGET_BITS_PER_ENTRY * n * n * (n - 1) // 2:
        p = row_operation(p, rng)
        table = transform(base, n, p)
    return table


def generate(key: str, rng: random.Random) -> str:
    """Catalog JSON of a seeded basis change of the catalog algebra `key`."""
    n, _ = BASES[key]
    return catalog_json(key.replace(":", "_") + "_changed", n,
                        changed_table(key, rng))


def total_bits(table: Table) -> int:
    """Summed bit sizes of the (integer) structure constants."""
    return sum(c.numerator.bit_length() for terms in table.values()
               for c in terms.values())
