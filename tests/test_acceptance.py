"""Instrument-grade acceptance checks, one test per criterion.

Every number asserted here is an exact integer or rational identity; there
are no tolerances anywhere. Shared fixtures build the nine-dimensional
counterexample pair and the solvable-extension test matrix once. Each test
prints a single ACCEPTANCE line naming its criterion.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from liekit import catalog
from liekit.exactlin import Mat, is_nilpotent, jordan_chevalley, minpoly
from liekit.liecore import (
    change_basis,
    direct_sum,
    product_space,
    series,
)
from liekit.structure import (
    derivations,
    is_characteristically_nilpotent,
    maximal_torus,
    nilradical,
)
from liekit.extensions import (
    NilradicalMismatch,
    extend_by_derivations,
    malcev_split_solvable,
    standard_solvable_extension,
    togo_dim_check,
    verify_rank_bound,
)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


# ---------------------------------------------------------------------------
# shared fixtures

@pytest.fixture(scope="module")
def snobl_pair():
    started = time.monotonic()
    result = catalog.build_snobl_counterexample(random.Random(2022))
    return result, time.monotonic() - started


def _sl2_on_plane():
    e = Mat([[0, 1], [0, 0]])
    f = Mat([[0, 0], [1, 0]])
    h = Mat([[1, 0], [0, -1]])
    plane = catalog.get("abelian", 2).algebra
    return extend_by_derivations(plane, [e, f, h], act_labels=("e", "f", "h"))


@pytest.fixture(scope="module")
def extension_matrix(snobl_pair):
    """Named validated extensions: the full rank-bound test matrix."""
    entries = []
    for n in range(1, 6):
        entries.append((f"std(abelian:{n})",
                        standard_solvable_extension(
                            catalog.get("abelian", n).algebra)))
    for m in (3, 5):
        entries.append((f"std(heisenberg:{m})",
                        standard_solvable_extension(
                            catalog.get("heisenberg", m).algebra)))
    for n in (4, 5, 6):
        entries.append((f"std(filiform:{n})",
                        standard_solvable_extension(
                            catalog.get("filiform", n).algebra)))
    line_plus_favre = direct_sum(catalog.get("abelian", 1).algebra,
                                 catalog.get("favre7").algebra)
    entries.append(("std(line+favre7)",
                    standard_solvable_extension(line_plus_favre)))
    result, _ = snobl_pair
    entries.append(("R1", result["R1"]))
    entries.append(("R2", result["R2"]))
    entries.append(("sl2 on plane", _sl2_on_plane()))
    return entries


NILPOTENT_CATALOG = [("abelian", 2), ("abelian", 3), ("abelian", 5),
                     ("heisenberg", 3), ("heisenberg", 5),
                     ("filiform", 4), ("filiform", 5), ("filiform", 6),
                     ("favre7", None)]


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_counterexample_reproduction(snobl_pair):
    result, elapsed = snobl_pair
    with criterion(1, "counterexample-reproduction"):
        certs = result["certificates"]
        assert certs["dim"] == [9, 9]
        assert certs["dim_M"] == [9, 10]
        assert certs["dim_Der"] == [13, 12]
        fp1, fp2 = certs["fingerprints"]
        assert fp1 != fp2
        assert certs["non_isomorphic"] is True
        assert certs["ok"] is True
        assert elapsed < 60.0


def test_criterion_02_toric_rank_bound(extension_matrix):
    with criterion(2, "toric-rank-bound"):
        for name, ext in extension_matrix:
            report = verify_rank_bound(ext, random.Random(2))
            assert report.rank_ok, \
                f"{name}: toric rank {report.toric_rank} " \
                f"exceeds generator bound {report.gen_bound}"


def test_criterion_03_codimension_bound_and_rejection(extension_matrix):
    with criterion(3, "codimension-bound-and-rejection"):
        solvable_seen = 0
        for name, ext in extension_matrix:
            report = verify_rank_bound(ext, random.Random(3))
            if not report.solvable:
                continue
            solvable_seen += 1
            assert report.codim_ok, \
                f"{name}: codim {report.codim} exceeds {report.gen_bound}"
        assert solvable_seen >= 12

        # a nilpotent action keeps the total nilpotent, so the embedded
        # algebra is no longer the whole nilradical and must be rejected
        plane = catalog.get("abelian", 2).algebra
        with pytest.raises(NilradicalMismatch):
            extend_by_derivations(plane, [Mat([[0, 1], [0, 0]])])
        h3 = catalog.get("heisenberg", 3).algebra
        shift = Mat([[0, 0, 0], [1, 0, 0], [0, 0, 0]])  # p -> q, else 0
        with pytest.raises(NilradicalMismatch):
            extend_by_derivations(h3, [shift])


def test_criterion_04_direct_sum_derivation_count():
    with criterion(4, "direct-sum-derivation-count"):
        line = catalog.get("abelian", 1).algebra
        h3 = catalog.get("heisenberg", 3).algebra
        favre = catalog.get("favre7").algebra
        for other in (h3, favre, line):
            report = togo_dim_check(line, other)
            assert report.equal
            assert report.dim_der_sum == report.predicted


def _poly_gcd_is_constant(coeffs_a, coeffs_b):
    """Euclidean gcd on coefficient tuples (lowest degree first)."""
    a = [Fraction(c) for c in coeffs_a]
    b = [Fraction(c) for c in coeffs_b]

    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    a, b = trim(a), trim(b)
    while b:
        while len(a) >= len(b):
            lead = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[i + shift] -= lead * c
            a = trim(a)
            if not a:
                break
        a, b = b, a
    return len(a) == 1


def _eval_poly(coeffs, m):
    """Horner evaluation of a coefficient tuple at a square matrix."""
    acc = Mat.zeros(m.rows, m.cols)
    for c in reversed(coeffs):
        acc = acc @ m + Mat.identity(m.rows) * c
    return acc


def _random_rational_matrix(rng, n):
    kind = rng.randrange(4)
    if kind == 0:
        data = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                 for _ in range(n)] for _ in range(n)]
        return Mat(data)
    eigenvalues = [Fraction(rng.choice([-2, -1, 0, 1, 2, 1, 1]))
                   for _ in range(n)]
    data = [[eigenvalues[i] if i == j
             else Fraction(rng.randint(-3, 3)) if j > i else Fraction(0)
             for j in range(n)] for i in range(n)]
    tri = Mat(data)
    if kind == 1:
        return tri
    if kind == 2:
        scalar = Mat.identity(n) * Fraction(rng.randint(-3, 3))
        strict = Mat([[Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)
                       for j in range(n)] for i in range(n)])
        return scalar + strict
    # dense similarity transform with an exactly invertible unitriangular map
    k = Mat([[Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)
              for j in range(n)] for i in range(n)])
    p = Mat.identity(n) + k
    p_inv = Mat.identity(n)
    power = Mat.identity(n)
    for step in range(1, n):
        power = power @ k
        p_inv = p_inv + power * Fraction((-1) ** step)
    assert p @ p_inv == Mat.identity(n)
    return p @ tri @ p_inv


def test_criterion_05_jordan_chevalley_postconditions():
    with criterion(5, "jordan-chevalley-postconditions"):
        rng = random.Random(20220505)
        for _ in range(100):
            m = _random_rational_matrix(rng, 5)
            s, n, witness = jordan_chevalley(m)
            assert s + n == m
            assert s @ n == n @ s
            power = n
            for _ in range(4):
                power = power @ n
            assert power == Mat.zeros(5, 5)
            mu = minpoly(s)
            assert _poly_gcd_is_constant(mu.c, mu.derivative().c)
            assert _eval_poly(witness.c, m) == s


def _plain_gauss_nullity(rows, cols):
    """Textbook elimination over Fraction, no pivoting strategy.

    Written out here so the count is independent of the library's own
    reduction code.
    """
    rows = [list(r) for r in rows]
    rank = 0
    for j in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][j]
        rows[rank] = [x / inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j]:
                factor = rows[i][j]
                rows[i] = [a - factor * b
                           for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return cols - rank


def _leibniz_system(L):
    """Rows of the Leibniz constraint on a matrix D, unknowns d[r][c]."""
    n = L.dim

    def structure(i, j, k):
        if i == j:
            return Fraction(0)
        if i > j:
            return -structure(j, i, k)
        for idx, coeff in L.table.get((i, j), ()):
            if idx == k:
                return coeff
        return Fraction(0)

    rows = []
    for a in range(n):
        for b in range(a + 1, n):
            for k in range(n):
                row = [Fraction(0)] * (n * n)
                for m in range(n):
                    row[k * n + m] += structure(a, b, m)
                for r in range(n):
                    row[r * n + a] -= structure(r, b, k)
                    row[r * n + b] -= structure(a, r, k)
                rows.append(row)
    return rows


def test_criterion_06_derivation_solver_oracles():
    with criterion(6, "derivation-solver-oracles"):
        for n in range(1, 6):
            space = catalog.get("abelian", n).algebra
            assert derivations(space).dim == n * n

        h3 = catalog.get("heisenberg", 3).algebra
        independent = _plain_gauss_nullity(_leibniz_system(h3), 9)
        assert independent == 6
        assert derivations(h3).dim == independent

        samples = [h3, catalog.get("filiform", 4).algebra,
                   catalog.get("r2").algebra,
                   catalog.get("so2_torus_extension").algebra,
                   catalog.get("sl2").algebra]
        for L in samples:
            der = derivations(L)
            for matrix in der.basis:
                assert der.contains(jordan_chevalley(matrix).s)


def test_criterion_07_nilradical_oracles(extension_matrix):
    with criterion(7, "nilradical-oracles"):
        r2 = catalog.get("r2").algebra
        nil = nilradical(r2, random.Random(7))
        assert nil.dim == 1
        assert nil.rows() == [(Fraction(0), Fraction(1))]

        for name, param in NILPOTENT_CATALOG:
            N = catalog.get(name, param).algebra
            ext = standard_solvable_extension(N, random.Random(7))
            recomputed = nilradical(ext.total, random.Random(71))
            assert recomputed == ext.nilideal, f"{name}:{param}"

        five = _sl2_on_plane()
        assert five.nilideal.dim == 2
        assert nilradical(five.total, random.Random(72)) == five.nilideal

        solvable_samples = [
            r2,
            catalog.get("so2_torus_extension").algebra,
            catalog.get("diagonal_torus_extension", 3).algebra,
            standard_solvable_extension(
                catalog.get("heisenberg", 3).algebra).total,
            standard_solvable_extension(
                catalog.get("filiform", 4).algebra).total,
        ]
        rng = random.Random(770)
        for L in solvable_samples:
            nil = nilradical(L, random.Random(77))
            for trial in range(50):
                if trial % 2 == 0:
                    x = [Fraction(rng.randint(-3, 3)) for _ in range(L.dim)]
                else:
                    x = [Fraction(0)] * L.dim
                    for row in nil.rows():
                        c = rng.randint(-3, 3)
                        x = [xi + c * ri for xi, ri in zip(x, row)]
                assert is_nilpotent(L.ad(x)) == nil.contains(x)


def test_criterion_08_characteristically_nilpotent_gate():
    with criterion(8, "characteristically-nilpotent-gate"):
        favre = catalog.get("favre7").algebra
        assert is_characteristically_nilpotent(favre)
        torus = maximal_torus(derivations(favre), random.Random(8))
        assert torus.dim == 0
        ext = standard_solvable_extension(favre, random.Random(8))
        assert ext.total.dim == favre.dim
        assert ext.total.table == favre.table
        assert ext.total.labels == favre.labels


def test_criterion_09_splitting_invariance(snobl_pair, extension_matrix):
    with criterion(9, "splitting-invariance"):
        result, _ = snobl_pair
        R2 = result["R2"].total
        assert malcev_split_solvable(R2, random.Random(9)).M.dim == 10
        rng = random.Random(90)
        produced = 0
        while produced < 2:
            p = Mat([[Fraction(rng.randint(-3, 3)) for _ in range(R2.dim)]
                     for _ in range(R2.dim)])
            try:
                moved = change_basis(R2, p)
            except ValueError:
                continue
            produced += 1
            assert malcev_split_solvable(
                moved, random.Random(91)).M.dim == 10

        for name, ext in extension_matrix:
            if not ext.total.is_solvable():
                continue
            split = malcev_split_solvable(ext.total, random.Random(92))
            again = malcev_split_solvable(split.M, random.Random(93))
            assert again.added_dim == 0, f"{name}: splitting not idempotent"


def test_criterion_10_generation_from_complement():
    with criterion(10, "generation-from-complement"):
        from liekit.exactlin import Subspace
        for name, param in NILPOTENT_CATALOG:
            N = catalog.get(name, param).algebra
            comm = series(N, "lower_central")[1]
            free = [j for j in range(N.dim) if j not in comm.pivots]
            rows = []
            for j in free:
                row = [Fraction(0)] * N.dim
                row[j] = Fraction(1)
                rows.append(row)
            seed = Subspace.span(N.dim, rows)
            assert seed.dim + comm.dim == N.dim
            # V <- V + [V, V] until it stops growing: the subalgebra seed generates
            generated = seed
            while (grown := generated + product_space(N, generated, generated)).dim \
                    > generated.dim:
                generated = grown
            assert generated.dim == N.dim, f"{name}:{param}"
