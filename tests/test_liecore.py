"""Tests for the structure-constant layer: brackets, series, ideals, sums."""

from fractions import Fraction
from itertools import combinations
import random

import pytest

from liekit import catalog, liecore
from liekit.exactlin import Mat, Subspace, commutator, kernel, rref_with_transform
from liekit.liecore import (
    JacobiError,
    LieAlgebra,
    NotADerivationError,
    LinearLieAlgebra,
    NotClosedError,
    TableError,
    center,
    change_basis,
    derived_algebra,
    direct_sum,
    killing_radical,
    normalizer,
    product_space,
    restrict,
    semidirect_sum,
    series,
    verify_structure,
)
from liekit.structure import cartan_subalgebra, derivations, maximal_torus
from oracles import apply, bracket_basis, gl_span

F = Fraction


def abelian(n):
    return LieAlgebra(n, {})

def heisenberg3():
    return LieAlgebra(3, {(0, 1): [(2, 1)]}, labels=("p", "q", "z"))

def r2():
    # [x, y] = y
    return LieAlgebra(2, {(0, 1): [(1, 1)]}, labels=("x", "y"))

def sl2():
    # [h,e]=2e, [h,f]=-2f, [e,f]=h on basis (e, f, h)
    return LieAlgebra(3, {(0, 1): [(2, 1)], (0, 2): [(0, -2)], (1, 2): [(1, 2)]},
                      labels=("e", "f", "h"))

def filiform(n):
    return LieAlgebra(n, {(0, i): [(i + 1, 1)] for i in range(1, n - 1)})


def test_table_validation():
    with pytest.raises(TableError):
        LieAlgebra(2, {(1, 0): [(0, 1)]})       # needs i < j
    with pytest.raises(TableError):
        LieAlgebra(2, {(0, 1): [(5, 1)]})       # target out of range
    with pytest.raises(TableError):
        LieAlgebra(2, {(0, 1): [(0, 1), (0, 2)]})  # duplicate target
    with pytest.raises(TableError):
        LieAlgebra(2, {}, labels=("a",))
    # zero coefficients are dropped
    L = LieAlgebra(2, {(0, 1): [(0, 0)]})
    assert L.table == {}


@pytest.mark.parametrize("terms", [[(2, 0), (2, 1)], [(2, 1), (2, 0)],
                                   [(2, 0), (2, 0)], [(2, 1), (2, 3)]])
def test_repeated_target_is_rejected_whatever_its_coefficient(terms):
    with pytest.raises(TableError, match=r"duplicate target 2 in bracket \(0, 1\)"):
        LieAlgebra(3, {(0, 1): terms})


def test_bracket_antisymmetry_and_bilinearity():
    L = heisenberg3()
    assert L.bracket([1, 0, 0], [0, 1, 0]) == [F(0), F(0), F(1)]
    assert L.bracket([0, 1, 0], [1, 0, 0]) == [F(0), F(0), F(-1)]
    assert L.bracket([1, 0, 0], [1, 0, 0]) == [F(0)] * 3
    x = [F(1, 2), F(3), F(0)]
    y = [F(2), F(-1), F(5)]
    lhs = L.bracket([a + b for a, b in zip(x, y)], y)
    rhs = L.bracket(x, y)
    assert lhs == rhs  # [x+y, y] = [x, y]


def test_ad_matrices():
    assert abelian(3).ad([1, 2, 3]).is_zero()
    L = heisenberg3()
    adp = L.ad([1, 0, 0])
    assert adp.column(1) == (F(0), F(0), F(1))  # [p, q] = z
    assert adp.column(0) == (F(0),) * 3
    R = r2()
    assert R.ad([1, 0]) == Mat([[0, 0], [0, 1]])


def test_verify_structure_accepts_good_tables():
    for L in (abelian(4), heisenberg3(), r2(), sl2(), filiform(5)):
        assert verify_structure(L) == []


def test_verify_structure_reports_violations():
    # [e1,e2]=e1, [e2,e3]=e2, [e1,e3]=e3 breaks Jacobi on (e1,e2,e3)
    L = LieAlgebra(3, {(0, 1): [(0, 1)], (1, 2): [(1, 1)], (0, 2): [(2, 1)]})
    assert verify_structure(L) == [(0, 1, 2)]


def test_product_space():
    L = heisenberg3()
    full = L.full_space()
    comm = product_space(L, full, full)
    assert comm.dim == 1 and comm.contains([0, 0, 1])
    a = Subspace.span(3, [[1, 0, 0]])
    b = Subspace.span(3, [[0, 1, 0]])
    assert product_space(L, a, b).dim == 1
    assert product_space(abelian(3), full, full).dim == 0


def test_series_dims():
    lc = [s.dim for s in series(heisenberg3(), "lower_central")]
    assert lc == [3, 1, 0]
    assert [s.dim for s in series(abelian(4), "lower_central")] == [4, 0]
    assert [s.dim for s in series(sl2(), "derived")] == [3, 3]
    assert [s.dim for s in series(r2(), "derived")] == [2, 1, 0]
    assert [s.dim for s in series(filiform(4), "lower_central")] == [4, 2, 1, 0]
    with pytest.raises(ValueError):
        series(r2(), "upper_central")


def test_series_is_computed_once_per_algebra(monkeypatch):
    calls = []
    real = liecore.product_space
    monkeypatch.setattr(liecore, "product_space",
                        lambda *args: calls.append(args) or real(*args))
    L = filiform(4)
    first = series(L, "lower_central")
    computed = len(calls)
    assert computed == 3
    first.append(Subspace.zero(4))  # a caller's list is its own
    assert L.is_nilpotent() and L.is_solvable()
    assert [s.dim for s in series(L, "lower_central")] == [4, 2, 1, 0]
    assert [s.dim for s in series(L, "derived")] == [4, 2, 0]
    # the derived series was new but starts from the cached [L, L], so it
    # formed only [[L, L], [L, L]]; the lower central one was not recomputed
    assert len(calls) == computed + 1
    assert series(L, "derived") is not series(L, "derived")


def test_derived_algebra_reads_the_cached_series(monkeypatch):
    for L in (heisenberg3(), abelian(3), sl2(), r2(), filiform(5)):
        full = L.full_space()
        assert derived_algebra(L) == product_space(L, full, full)
    assert derived_algebra(abelian(0)) == Subspace.zero(0)
    L = filiform(4)
    series(L, "lower_central")
    monkeypatch.setattr(liecore, "product_space", None)
    assert derived_algebra(L).dim == 2


def test_nilpotent_solvable_predicates():
    assert heisenberg3().is_nilpotent()
    assert not r2().is_nilpotent()
    assert r2().is_solvable()
    assert not sl2().is_solvable()
    assert abelian(2).is_abelian()


def test_center_and_centralizer():
    L = heisenberg3()
    z = center(L)
    assert z.dim == 1 and z.contains([0, 0, 1])
    assert center(abelian(3)).dim == 3
    assert center(sl2()).dim == 0


def test_normalizer():
    L = heisenberg3()
    n = normalizer(L, Subspace.span(3, [[1, 0, 0]]))
    assert n.dim == 2
    assert normalizer(r2(), Subspace.span(2, [[1, 0]])).dim == 1
    assert normalizer(L, L.full_space()).dim == 3
    # the empty system of the zero subspace, also in dimension 0
    assert normalizer(L, Subspace.zero(3)) == L.full_space()
    assert normalizer(abelian(0), Subspace.zero(0)) == Subspace.full(0)


def test_restrict():
    L = heisenberg3()
    sub = restrict(L, Subspace.span(3, [[1, 0, 0], [0, 0, 1]]))
    assert sub.dim == 2 and sub.is_abelian()
    with pytest.raises(NotClosedError):
        restrict(L, Subspace.span(3, [[1, 0, 0], [0, 1, 0]]))


def test_change_basis_preserves_structure():
    rng = random.Random(53)
    from liekit.exactlin import rank
    L = sl2()
    for _ in range(5):
        while True:
            p = Mat([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
            if rank(p) == 3:
                break
        L2 = change_basis(L, p)
        assert verify_structure(L2) == []
        assert [s.dim for s in series(L2, "derived")] == [3, 3]
        assert center(L2).dim == 0


def test_direct_sum():
    s = direct_sum(abelian(1), heisenberg3())
    assert s.dim == 4
    assert center(s).dim == 2
    assert s.is_nilpotent()
    t = direct_sum(heisenberg3(), heisenberg3())
    assert t.dim == 6 and center(t).dim == 2
    assert verify_structure(t) == []
    # a clashing label gets primes until it is free
    u = direct_sum(LieAlgebra(2, {}, labels=("x", "x'")),
                   LieAlgebra(1, {}, labels=("x",)))
    assert u.labels == ("x", "x'", "x''")


def test_semidirect_trivial_action_is_inner_algebra():
    L = heisenberg3()
    ext = semidirect_sum([], L)
    assert ext.total.dim == 3
    assert ext.nilideal.dim == 3 and ext.complement.dim == 0
    assert ext.total.table == L.table


def test_semidirect_scalar_action():
    ext = semidirect_sum([Mat.identity(2)], abelian(2))
    L = ext.total
    assert L.dim == 3
    assert L.bracket([1, 0, 0], [0, 1, 0]) == [F(0), F(1), F(0)]
    assert L.is_solvable() and not L.is_nilpotent()
    assert ext.nilideal.dim == 2


def test_semidirect_diagonal_torus():
    mats = [Mat([[1, 0], [0, 0]]), Mat([[0, 0], [0, 1]])]
    ext = semidirect_sum(mats, abelian(2))
    assert ext.total.dim == 4
    assert verify_structure(ext.total) == []
    assert center(ext.total).dim == 0


def test_semidirect_rejects_non_derivation():
    with pytest.raises(NotADerivationError) as exc:
        semidirect_sum([Mat([[0, 1], [0, 0]])], r2())
    assert exc.value.pair == (0, 1)


def test_semidirect_rejects_unclosed_span():
    e12 = Mat([[0, 1], [0, 0]])
    e21 = Mat([[0, 0], [1, 0]])
    with pytest.raises(NotClosedError) as exc:
        semidirect_sum([e12, e21], abelian(2))
    assert exc.value.pair == (0, 1)
    # the same closure check guards every induced structure-constant table
    with pytest.raises(NotClosedError) as exc:
        LinearLieAlgebra(abelian(2), gl_span(2, [e12, e21]))
    assert exc.value.pair == (0, 1)
    with pytest.raises(ValueError):   # a span outside gl(2)
        LinearLieAlgebra(abelian(2), Subspace.span(3, [[1, 0, 0]]))
    with pytest.raises(ValueError):
        change_basis(sl2(), Mat([[1, 0, 0], [0, 1, 0], [1, 1, 0]]))


def _diag(entries):
    n = len(entries)
    return Mat([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def _leibniz_oracle(mats, L):
    """The first (generator, pair) where D [e_i, e_j] = [D e_i, e_j] +
    [e_i, D e_j] fails, generators in order and then pairs in combinations
    order, or None: a separate per-generator check over the integers, both
    sides times den m.den, with the columns of m.ints."""
    e = [[int(t == i) for t in range(L.dim)] for i in range(L.dim)]
    for idx, m in enumerate(mats):
        cols = [list(c) for c in zip(*m.ints)]
        for i, j in combinations(range(L.dim), 2):
            w = L.int_bracket(e[i], e[j])
            lhs = [sum(a * x for a, x in zip(row, w)) for row in m.ints]
            rhs = [a + b for a, b in zip(L.int_bracket(cols[i], e[j]),
                                         L.int_bracket(e[i], cols[j]))]
            if lhs != rhs:
                return idx, (i, j)
    return None


def test_semidirect_refusal_names_the_generator_and_pair_of_the_leibniz_oracle():
    # closed spans only: one nonzero matrix, or commuting diagonal matrices
    rng = random.Random(43)
    algebras = [catalog.get("heisenberg", 3).algebra, catalog.get("heisenberg", 5).algebra,
                catalog.get("filiform", 5).algebra, r2(), abelian(2)]
    seen = {"accepted": 0, "generator 0": 0, "later generator": 0}
    pairs = set()
    for L in algebras:
        n = L.dim
        for _ in range(40):
            if rng.random() < 0.5:
                mats = [Mat([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])]
                if mats[0].is_zero():
                    continue
            else:
                diags = [[rng.randint(-1, 1) for _ in range(n)]
                         for _ in range(rng.randint(1, n))]
                if Subspace.span(n, diags).dim < len(diags):
                    continue
                mats = [_diag(d) for d in diags]
            expected = _leibniz_oracle(mats, L)
            if expected is None:
                assert verify_structure(semidirect_sum(mats, L).total) == []
                seen["accepted"] += 1
                continue
            with pytest.raises(NotADerivationError) as exc:
                semidirect_sum(mats, L)
            assert (exc.value.gen_index, exc.value.pair) == expected
            seen["generator 0" if expected[0] == 0 else "later generator"] += 1
            pairs.add(expected[1])
    assert min(seen.values()) > 0 and len(pairs) > 2


def test_semidirect_names_a_later_pair_and_reports_closure_before_leibniz():
    # diag(1, 0, 0, 0, 1) on heisenberg:5 keeps [p1, q1] = z and breaks [p2, q2] = z
    gen = [_diag([1, 0, 0, 0, 1])]
    h5 = catalog.get("heisenberg", 5).algebra
    assert _leibniz_oracle(gen, h5) == (0, (1, 3))
    with pytest.raises(NotADerivationError) as exc:
        semidirect_sum(gen, h5)
    assert (exc.value.gen_index, exc.value.pair) == (0, (1, 3))
    # E00, E01, E10 break the Leibniz rule with generator 0 on (0, 1), and
    # [E01, E10] = E00 - E11 leaves their span; the closure failure is named
    units = [Mat([[int((i, j) == u) for j in range(3)] for i in range(3)])
             for u in ((0, 0), (0, 1), (1, 0))]
    assert _leibniz_oracle(units, heisenberg3()) == (0, (0, 1))
    with pytest.raises(NotClosedError) as exc:
        semidirect_sum(units, heisenberg3())
    assert exc.value.pair == (1, 2)


def test_linear_lie_algebra_element_refuses_a_wrong_coefficient_count():
    der = derivations(heisenberg3())
    assert der.dim == 6
    for coeffs in ([1], [1] * 10, []):
        with pytest.raises(ValueError):
            der.element(coeffs)


def test_restrict_refuses_a_subspace_of_another_ambient():
    with pytest.raises(ValueError):
        restrict(heisenberg3(), Subspace.span(2, [[1, 0]]))


def test_normalizer_refuses_a_subspace_of_another_ambient():
    with pytest.raises(ValueError):
        normalizer(heisenberg3(), Subspace.span(4, [[1, 0, 0, 0]]))


def test_product_space_refuses_a_subspace_of_another_ambient():
    L = heisenberg3()
    for a, b in ((Subspace.full(2), Subspace.full(2)), (L.full_space(), Subspace.full(2)),
                 (Subspace.full(2), L.full_space())):
        with pytest.raises(ValueError):
            product_space(L, a, b)


def test_linear_lie_algebra_coords_over_a_basis_that_is_not_rref():
    # the basis is the RREF of the span; a given basis is read over it
    rng = random.Random(53)

    def rand_rat():
        return F(rng.randint(-9, 9), rng.randint(1, 4))

    rot = Mat([[0, 1], [-1, 0]])
    torus = LinearLieAlgebra(abelian(2), gl_span(2, [rot, Mat.identity(2)]))
    assert torus.basis == (Mat([[1, 0], [0, 1]]), Mat([[0, 1], [-1, 0]]))
    assert torus.coords(rot) == (0, 1) and torus.coords(Mat.identity(2)) == (1, 0)
    for coeffs in [(1, 0), (0, 1), (F(2, 3), -5)]:
        m = torus.element(coeffs)
        assert torus.coords(m) == tuple(F(c) for c in coeffs)
        assert torus.element(torus.coords(m)) == m
    assert torus.coords(Mat([[0, 1], [0, 0]])) is None
    assert not torus.contains(Mat([[0, 1], [0, 0]]))

    # dense recombinations of RREF bases: all of gl(2), and Der(h3); row i
    # of p holds the coordinates of the i-th recombined matrix
    units = [Mat([[int((i, j) == (r, c)) for j in range(2)] for i in range(2)])
             for r in range(2) for c in range(2)]
    der = derivations(heisenberg3()).basis
    for ambient, mats, outside in [(abelian(2), units, None),
                                   (heisenberg3(), der, Mat.identity(3))]:
        k, n = len(mats), ambient.dim
        while True:
            p = Mat([[rand_rat() for _ in range(k)] for _ in range(k)])
            if Subspace.span(k, p.data).dim == k:
                break
        basis = [sum((c * m for c, m in zip(row, mats)), Mat.zeros(n, n))
                 for row in p.data]
        lin = LinearLieAlgebra(ambient, gl_span(n, basis))
        assert lin.basis == tuple(mats)
        assert [lin.coords(m) for m in basis] == [tuple(row) for row in p.data]
        for _ in range(5):
            coeffs = tuple(rand_rat() for _ in range(k))
            m = lin.element(coeffs)
            assert lin.coords(m) == coeffs
            assert lin.element(lin.coords(m)) == m
        if outside is not None:
            assert lin.coords(outside) is None


def _matrix_algebras():
    """Der of eight catalog algebras, a torus and the spans of two bases
    that are not in RREF: a rotation torus and a dense recombination of the
    sl2 action on the plane, semidirect_sum's acting algebra."""
    out = [derivations(catalog.get(name, k).algebra)
           for name, k in (("heisenberg", 3), ("heisenberg", 5), ("heisenberg", 7),
                           ("filiform", 5), ("filiform", 8), ("favre7", None),
                           ("r2", None), ("diagonal_torus_extension", 2))]
    out.append(maximal_torus(derivations(catalog.get("heisenberg", 5).algebra),
                             random.Random(3)))
    out.append(LinearLieAlgebra(abelian(2), gl_span(2, [Mat([[0, 1], [-1, 0]]),
                                                        Mat.identity(2)])))
    e, f, h = Mat([[0, 1], [0, 0]]), Mat([[0, 0], [1, 0]]), Mat([[1, 0], [0, -1]])
    mixed = [F(2, 3) * e + 5 * h, f - F(1, 2) * e, h + e + 3 * f]
    acting = LinearLieAlgebra(abelian(2), gl_span(2, mixed))
    assert semidirect_sum(mixed, abelian(2)).total.dim == 5
    out.append(acting)
    return out


def _positive_multiple(a, b):
    """a = c b, entrywise, for one rational c > 0."""
    k = next((i for i, x in enumerate(b) if x), None)
    if k is None:
        return not any(a)
    return a[k] * b[k] > 0 and all(x * b[k] == y * a[k] for x, y in zip(a, b))


def test_matrix_int_ad_is_a_positive_multiple_of_the_table_int_ad():
    rng = random.Random(61)
    for lin in _matrix_algebras():
        table, e = lin.to_abstract(), lin.span.basis.den
        units = [[int(i == j) for j in range(lin.dim)] for i in range(lin.dim)]
        samples = units + [[rng.randint(-3, 3) for _ in range(lin.dim)] for _ in range(4)]
        for x in samples:
            got, want = lin.int_ad(x), table.int_ad(x)
            assert _positive_multiple([c for row in got for c in row],
                                      [c for row in want for c in row]), (lin, x)
            # E^2 ad x and den ad x
            assert [[c * table.den for c in row] for row in got] == \
                [[c * e * e for c in row] for row in want], (lin, x)


def test_matrix_traces_equal_the_table_traces():
    nonzero = 0
    for lin in _matrix_algebras():
        table = lin.to_abstract()
        # tr of den ad e_i read off the table's int_ad, as an oracle
        want = [sum(A[i][i] for i in range(lin.dim))
                for A in (table.int_ad(e) for e in liecore._units(lin.dim))]
        assert table.ad_traces() == want
        assert _positive_multiple(lin.ad_traces(), want), lin
        e = lin.span.basis.den
        assert [c * table.den for c in lin.ad_traces()] == [c * e * e for c in want]
        nonzero += any(want)
    assert nonzero >= 6


def test_linear_lie_algebra_element_matches_the_sum_of_scaled_matrices():
    rng = random.Random(67)
    for lin in _matrix_algebras():
        n = lin.ambient.dim
        for density in (0.0, 0.3, 1.0):
            coeffs = [F(rng.randint(-9, 9), rng.randint(1, 6)) if rng.random() < density
                      else F(0) for _ in range(lin.dim)]
            want = sum((c * m for c, m in zip(coeffs, lin.basis) if c), Mat.zeros(n, n))
            assert lin.element(coeffs) == want


def test_a_subspace_of_a_matrix_algebra_is_in_rref_over_its_span():
    # s.basis @ L.span.basis is the RREF of its own rows, with L's pivots
    # at s's, and its matrices are L's elements at s's rows
    rng = random.Random(71)
    for lin in _matrix_algebras():
        n = lin.ambient.dim
        for k in range(0, lin.dim + 1, max(1, lin.dim // 4)):
            rows = [[rng.choice((0, 0, 1, -2, F(1, 3))) for _ in range(lin.dim)]
                    for _ in range(k)]
            s = Subspace.span(lin.dim, rows)
            image = liecore._image(s, lin)
            assert image.basis == s.basis @ lin.span.basis
            again = Subspace.span(n * n, image.basis.ints)
            assert image == again and image.pivots == again.pivots
            assert [Mat.from_flat(n, n, row) for row in image.basis.data] == \
                [lin.element(row) for row in s.basis.data]
        h = cartan_subalgebra(lin, random.Random(5))
        assert restrict(lin, h).basis == tuple(lin.element(row) for row in h.basis.data)


def _flat(m):
    """The entries of m, row-major."""
    return tuple(x for row in m.data for x in row)


def test_linear_lie_algebra_rejects_a_matrix_of_the_wrong_shape():
    e11 = Mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    lin = LinearLieAlgebra(abelian(3), gl_span(3, [e11]))
    assert lin.coords(e11) == (1,)
    for m in (Mat([[1, 0], [0, 0]]), Mat([[1]]), Mat([_flat(e11)]),
              Mat([[x] for x in _flat(e11)])):
        with pytest.raises(ValueError):
            lin.coords(m)
        with pytest.raises(ValueError):
            lin.contains(m)


def _fraction_table(ambient, mats):
    """Structure constants over Fraction: each commutator reduced against the
    RREF span of the basis, its RREF coordinates mapped through T (R = T B)."""
    n = ambient.dim
    R, piv, T = rref_with_transform(Mat([_flat(m) for m in mats], cols=n * n))
    to_basis = T.transpose()
    table = {}
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            v = _flat(commutator(mats[a], mats[b]))
            cs = [v[p] for p in piv]
            residual = list(v)
            for c, row in zip(cs, R.data):
                residual = [x - c * y for x, y in zip(residual, row)]
            assert not any(residual)
            terms = [(t, c) for t, c in enumerate(apply(to_basis, cs)) if c]
            if terms:
                table[(a, b)] = terms
    return table


def _unimodular(rng, n, steps, det=1):
    """A seeded integer basis matrix of determinant det: diag(1, ..., 1, det)
    followed by elementary row operations (unimodular for det = 1)."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p[-1][-1] = det
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
    return Mat(p)


def test_linear_lie_algebra_table_matches_the_fraction_oracle():
    # Der of catalog algebras: RREF bases, so T = I
    cases = []
    for name, param in [("heisenberg", 3), ("heisenberg", 5), ("filiform", 5),
                        ("favre7", None), ("r2", None), ("sl2", None),
                        ("so2_torus_extension", None),
                        ("diagonal_torus_extension", 2)]:
        der = derivations(catalog.get(name, param).algebra)
        cases.append((der.ambient, der.basis, True))
    # Der of seeded dense unimodular basis changes
    rng = random.Random(9)
    for name, param in [("heisenberg", 5), ("filiform", 6),
                        ("diagonal_torus_extension", 2)]:
        L = catalog.get(name, param).algebra
        M = change_basis(L, _unimodular(rng, L.dim, 3 * L.dim))
        cases.append((M, derivations(M).basis, True))
    # non-RREF bases with mixed denominators, so T is not the identity
    for L in (heisenberg3(), catalog.get("filiform", 5).algebra, sl2()):
        mats = derivations(L).basis
        k, n = len(mats), L.dim
        while True:
            p = Mat([[F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(k)]
                     for _ in range(k)])
            if Subspace.span(k, p.data).dim == k:
                break
        basis = [sum((c * m for c, m in zip(row, mats)), Mat.zeros(n, n))
                 for row in p.data]
        T = rref_with_transform(Mat([_flat(m) for m in basis], cols=n * n))[2]
        assert T != Mat.identity(k)
        cases.append((L, basis, False))
    for ambient, basis, in_rref in cases:
        want = _fraction_table(ambient, basis)
        # semidirect_sum's acting table is over the generators as given,
        # read at the pivots when they are in RREF and through T otherwise
        total, k = semidirect_sum(basis, ambient).total, len(basis)
        assert {key: list(terms) for key, terms in total.table.items()
                if key[1] < k} == want
        # a matrix algebra is its span, whose basis is the RREF
        lin = LinearLieAlgebra(ambient, gl_span(ambient.dim, basis))
        assert lin.table == _fraction_table(ambient, lin.basis)
        assert (lin.basis == tuple(basis)) == in_rref
        if in_rref:
            assert lin.table == want
        assert all(isinstance(c, Fraction) for terms in lin.table.values()
                   for _, c in terms)


def test_not_closed_error_names_a_later_pair_off_the_pivots():
    # generators E00/2, E11/3, X = E01 + E12 of a span in gl(3); the RREF
    # pivots of their row-major vectors are columns 0, 1 and 4
    def unit(r, c):
        return Mat([[int((i, j) == (r, c)) for j in range(3)] for i in range(3)])
    x = unit(0, 1) + unit(1, 2)
    basis = [F(1, 2) * unit(0, 0), F(1, 3) * unit(1, 1), x]
    span = gl_span(3, basis)
    assert span.pivots == (0, 1, 4)
    # the first pair commutes; [E00/2, X] = E01/2 agrees with X/2 at every
    # pivot column and leaves the span only at column 5
    assert commutator(basis[0], basis[1]).is_zero()
    bad = commutator(basis[0], basis[2])
    diff = _flat(bad - F(1, 2) * x)
    assert [j for j, v in enumerate(diff) if v] == [5]
    # semidirect_sum names the pair in the generators' order, which is not
    # the RREF: reversed, [X, E11/3] = (E01 - E12)/3 leaves the span first
    for gens, pair in ((basis, (0, 2)), (basis[::-1], (0, 1))):
        with pytest.raises(NotClosedError) as exc:
            semidirect_sum(gens, abelian(3))
        assert exc.value.pair == pair
    # the span's own basis is E00, X, E11 (pivots 0, 1, 4): the same
    # commutator is its pair (0, 1)
    with pytest.raises(NotClosedError) as exc:
        LinearLieAlgebra(abelian(3), span)
    assert exc.value.pair == (0, 1)
    # coords and contains read the same check: span{X} has its pivot at 1
    line = LinearLieAlgebra(abelian(3), gl_span(3, [x]))
    assert line.coords(F(1, 2) * x) == (F(1, 2),)
    assert line.coords(bad) is None and not line.contains(bad)


def test_semidirect_rejects_dependent_generators():
    with pytest.raises(ValueError):
        semidirect_sum([Mat.identity(2), 2 * Mat.identity(2)], abelian(2))


def test_semidirect_sl2_on_plane():
    e = Mat([[0, 1], [0, 0]])
    f = Mat([[0, 0], [1, 0]])
    h = Mat([[1, 0], [0, -1]])
    ext = semidirect_sum([e, f, h], abelian(2))
    L = ext.total
    assert L.dim == 5
    assert verify_structure(L) == []
    assert not L.is_solvable()
    rad = killing_radical(L)
    assert rad.dim == 2
    assert rad.contains([0, 0, 0, 1, 0]) and rad.contains([0, 0, 0, 0, 1])


def test_killing_form_and_radical():
    L = sl2()
    assert killing_radical(L).dim == 0
    assert killing_radical(r2()).dim == 2      # solvable: radical is everything
    assert killing_radical(heisenberg3()).dim == 3
    assert killing_radical(abelian(3)).dim == 3


def test_semidirect_nilpotent_action_stays_nilpotent():
    # a single nilpotent derivation of an abelian algebra
    n = Mat([[0, 1], [0, 0]])
    ext = semidirect_sum([n], abelian(2))
    assert ext.total.is_nilpotent()


# ---------------------------------------------------------------------------
# sparse bracket against the dense table definition

def dense_bracket(L, x, y):
    """[x, y] by a loop over every stored pair i < j of the table."""
    out = [F(0)] * L.dim
    for (i, j), terms in L.table.items():
        coef = F(x[i]) * F(y[j]) - F(x[j]) * F(y[i])
        if coef:
            for k, c in terms:
                out[k] += coef * c
    return out


CATALOG_PARAMS = {"abelian": (2, 3), "heisenberg": (3, 5, 7), "filiform": (3, 5, 8),
                  "diagonal_torus_extension": (2, 3)}


def catalog_algebras():
    return [catalog.get(name, param).algebra for name in catalog.names()
            for param in CATALOG_PARAMS.get(name, (None,))]


def rational_tables():
    """Seeded images of three catalog algebras under integer basis matrices of
    determinant 2, -3 and 3, so that their constants have denominators."""
    rng = random.Random(29)
    out = []
    for (name, param), det in zip([("sl2", None), ("heisenberg", 5),
                                   ("so2_torus_extension", None)], (2, -3, 3)):
        L = catalog.get(name, param).algebra
        M = change_basis(L, _unimodular(rng, L.dim, 3 * L.dim, det))
        assert M.den > 1
        out.append(M)
    return out


def test_sparse_bracket_and_ad_match_the_dense_definition():
    algebras = catalog_algebras() + rational_tables()
    algebras.append(derivations(catalog.get("heisenberg", 5).algebra).to_abstract())
    rng = random.Random(41)

    def vector(n, density):
        return [F(rng.randint(-6, 6), rng.randint(1, 5)) if rng.random() < density
                else F(0) for _ in range(n)]

    for L in algebras:
        n = L.dim
        zero = [F(0)] * n
        units = [L.basis_vector(i) for i in range(n)]
        samples = [zero] + units + [vector(n, d) for d in (0.2, 0.5, 1.0)
                                    for _ in range(4)]
        for x in samples:
            ad = L.ad(x)
            for j in range(n):
                assert list(ad.column(j)) == dense_bracket(L, x, units[j])
            for y in samples[::3]:
                assert L.bracket(x, y) == dense_bracket(L, x, y)
        # the integer methods are den times the rational ones
        ints = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(6)]
        for x in ints:
            assert L.int_ad(x) == [[L.den * c for c in row] for row in L.ad(x).data]
            for y in ints:
                assert L.int_bracket(x, y) == [L.den * c for c in L.bracket(x, y)]


def fraction_derivations(L):
    """Der(L) as the kernel of the dense Fraction Leibniz system over the n^2
    entries of D: row (i, j, u) is coordinate u of
    D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j]."""
    n = L.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            cij = bracket_basis(L, i, j)
            for u in range(n):
                row = [F(0)] * (n * n)
                for s in range(n):
                    row[u * n + s] += cij[s]
                for t in range(n):
                    row[t * n + i] -= bracket_basis(L, t, j)[u]
                    row[t * n + j] -= bracket_basis(L, i, t)[u]
                rows.append(row)
    return kernel(Mat(rows, cols=n * n))


def fraction_normalizer(L, s):
    """{x : [x, s] <= s} as the kernel of the dense Fraction system: one block
    proj @ (-ad v) per basis row v of s, where the rows of proj, one per free
    column c of the RREF basis R, read the residual x_c - sum_i R[i][c] x_p_i."""
    R = s.basis.data
    proj = []
    for c in range(L.dim):
        if c not in s.pivots:
            row = [F(0)] * L.dim
            row[c] = F(1)
            for i, p in enumerate(s.pivots):
                row[p] = -R[i][c]
            proj.append(row)
    rows = []
    for v in R:
        rows.extend((Mat(proj, cols=L.dim) @ (-1 * L.ad(v))).data)
    return kernel(Mat(rows, cols=L.dim))


def test_derivations_and_normalizer_match_the_fraction_oracles():
    rng = random.Random(17)
    for L in rational_tables() + [sl2(), heisenberg3(), r2()]:
        n = L.dim
        der = derivations(L)
        assert [_flat(m) for m in der.basis] == [
            tuple(r) for r in fraction_derivations(L).basis.data]
        subspaces = [derived_algebra(L), center(L)]
        subspaces += [Subspace.span(n, [[rng.randint(-2, 2) for _ in range(n)]
                                        for _ in range(k)]) for k in (1, 1, 2, 2)]
        for s in subspaces:
            if 0 < s.dim < n:
                assert normalizer(L, s) == fraction_normalizer(L, s)
