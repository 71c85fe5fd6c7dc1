"""Unit and property tests for the exact linear algebra layer."""

from fractions import Fraction
import itertools
import math
import random

import pytest

from liekit import catalog, exactlin, structure
from liekit.exactlin import (
    Mat,
    Poly,
    Subspace,
    charpoly,
    commutator,
    is_nilpotent,
    is_semisimple,
    jordan_chevalley,
    kernel,
    minpoly,
    rank,
    rref,
    rref_with_transform,
    squarefree_part,
    zero_multiplicity_mod_p,
)
from liekit.liecore import change_basis
from oracles import apply

F = Fraction


def rand_mat(rng, rows, cols, lo=-3, hi=3):
    return Mat([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


# ---------------------------------------------------------------------------
# matrices and row reduction

def test_mat_basic_ops():
    a = Mat([[1, 2], [3, 4]])
    b = Mat([[0, 1], [1, 0]])
    assert (a @ b).data == [[F(2), F(1)], [F(4), F(3)]]
    assert (a + b - b) == a
    assert (2 * a).data[0][0] == F(2)
    assert a.transpose().data == [[F(1), F(3)], [F(2), F(4)]]
    assert apply(a, [1, 0]) == (F(1), F(3))


def _rand_fractions(rng, rows, cols, kind):
    """rows x cols Fractions, about a third of them zero: small integers
    ("int"), small fractions ("frac") or 150- to 250-bit fractions ("big")."""
    def entry():
        if rng.random() < 0.3:
            return F(0)
        if kind == "int":
            return F(rng.randint(-9, 9))
        if kind == "frac":
            return F(rng.randint(-9, 9), rng.randint(1, 12))
        bits = rng.randint(150, 250)
        return F(rng.choice((-1, 1)) * rng.getrandbits(bits),
                 rng.getrandbits(rng.randint(1, bits)) or 1)
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _canonical(rows):
    """(den, ints) of a list of Fraction rows, by the definition."""
    d = math.lcm(*(q.denominator for r in rows for q in r))
    return d, [[int(q * d) for q in r] for r in rows]


@pytest.mark.parametrize("kind", ["int", "frac", "big"])
def test_mat_operators_match_the_fraction_oracle(kind):
    rng = random.Random({"int": 41, "frac": 42, "big": 43}[kind])
    for _ in range(40):
        r, k, c = (rng.randint(0, 4) for _ in range(3))
        a, a2 = _rand_fractions(rng, r, k, kind), _rand_fractions(rng, r, k, kind)
        b = _rand_fractions(rng, k, c, kind)
        s = _rand_fractions(rng, 1, 1, kind)[0][0]
        v = _rand_fractions(rng, 1, k, kind)[0]
        A, A2, B = Mat(a, cols=k), Mat(a2, cols=k), Mat(b, cols=c)
        cases = [
            (A + A2, [[x + y for x, y in zip(p, q)] for p, q in zip(a, a2)], k),
            (A - A2, [[x - y for x, y in zip(p, q)] for p, q in zip(a, a2)], k),
            (s * A, [[s * x for x in p] for p in a], k),
            (A * s, [[s * x for x in p] for p in a], k),
            # k = 0 is the inner dimension 0: the r x c zero matrix
            (A @ B, [[sum((a[i][t] * b[t][j] for t in range(k)), F(0)) for j in range(c)]
                     for i in range(r)], c),
            (A.transpose(), [[a[i][j] for i in range(r)] for j in range(k)], r),
        ]
        for got, want, cols in cases:
            assert got.shape == (len(want), cols)
            assert (got.den, got.ints) == _canonical(want)
            assert got.data == want
            assert got == Mat(want, cols=cols)
            assert hash(got) == hash(Mat(want, cols=cols))
        assert apply(A, v) == tuple(sum((x * y for x, y in zip(p, v)), F(0)) for p in a)
        assert A.is_zero() == all(not x for p in a for x in p)
        assert (A == A2) == (a == a2)
        assert (A + A == 2 * A) and (A - A).is_zero()


def test_mat_canonical_form():
    m = Mat([["1/2", "1/3"]])
    assert (m.den, m.ints) == (6, [[3, 2]])
    assert Mat._of(12, [[6, 4]], 2) == m == Mat._of(6, [[3, 2]], 2)
    assert hash(Mat._of(12, [[6, 4]], 2)) == hash(m)
    assert (m * 6).den == 1 and (m * 6).ints == [[3, 2]]
    zero = m * 0
    assert (zero.den, zero.ints) == (1, [[0, 0]]) and zero == Mat.zeros(1, 2)
    assert m != Mat([["1/2", "1/3"], [0, 0]]) and m.transpose() != m


def test_rref_simple():
    R, piv = rref(Mat([[2, 4], [1, 2]]))
    assert R.data == [[F(1), F(2)], [F(0), F(0)]]
    assert piv == (0,)


def test_rref_identity_fixed_point():
    eye = Mat.identity(4)
    R, piv = rref(eye)
    assert R == eye and piv == (0, 1, 2, 3)


def test_rref_pivot_prefers_small_entries():
    # row 1 is the sparser candidate, so it pivots column 0
    R, piv = rref(Mat([[1000000, 1], [1, 0]]))
    assert piv == (0, 1)
    assert R == Mat.identity(2)


def test_rref_idempotent_and_transform():
    rng = random.Random(101)
    for _ in range(25):
        m = rand_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
        R, piv = rref(m)
        R2, piv2 = rref(R)
        assert R2 == R and piv2 == piv
        Rt, pivt, T = rref_with_transform(m)
        assert Rt == R and pivt == piv
        assert T @ m == R
        assert rank(T) == m.rows  # T invertible


def test_kernel_trivial_and_line():
    assert kernel(Mat.identity(2)).dim == 0
    k = kernel(Mat([[1, 1]]))
    assert k.dim == 1
    assert k.rows() == [(F(1), F(-1))]


def test_kernel_of_zero_map_is_everything():
    k = kernel(Mat.zeros(3, 3))
    assert k == Subspace.full(3)
    assert kernel([], 3) == k


def test_kernel_refuses_rows_of_the_wrong_length():
    # a row past cols, a short row that would read as zero-padded, and an
    # empty system with no cols, as Subspace.span refuses such rows
    for rows, cols in (([[1, 2, 3]], 2), ([[1], [0, 1]], 2), ([], None)):
        with pytest.raises(ValueError):
            kernel(rows, cols)


def test_kernel_annihilates_and_rank_nullity():
    rng = random.Random(7)
    for _ in range(30):
        m = rand_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
        k = kernel(m)
        ints = [[int(x) for x in row] for row in m.data]
        assert kernel(ints) == kernel(ints, m.cols) == k   # integer rows
        assert rank(m) + k.dim == m.cols
        for v in k.rows():
            assert all(x == 0 for x in apply(m, v))


def _bits(q):
    return q.numerator.bit_length() + q.denominator.bit_length()


def _reference_rref(m):
    """Plain Gauss-Jordan over Fraction: the oracle for rref and kernel."""
    R = [list(row) for row in m.data]
    pivots = []
    for c in range(m.cols):
        r = len(pivots)
        nonzero = [i for i in range(r, m.rows) if R[i][c]]
        if not nonzero:
            continue
        best = min(nonzero, key=lambda i: _bits(R[i][c]))
        R[r], R[best] = R[best], R[r]
        R[r] = [x / R[r][c] for x in R[r]]
        for i in range(m.rows):
            if i != r and R[i][c]:
                f = R[i][c]
                R[i] = [x - f * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
    return R, tuple(pivots)


def _reference_null_space(R, piv, cols):
    """(RREF rows, pivots) of the null space of the RREF R, by _reference_rref."""
    null = []
    for c in range(cols):
        if c not in piv:
            v = [F(0)] * cols
            v[c] = F(1)
            for i, p in enumerate(piv):
                v[p] = -R[i][c]
            null.append(v)
    K, kpiv = _reference_rref(Mat(null, cols=cols))
    return K[: len(kpiv)], kpiv


def _assert_matches_reference(m):
    """rref(m) and kernel(m) equal the oracle's; returns kernel(m)."""
    want = _reference_rref(m)
    R, piv = rref(m)
    assert (R.data, piv) == want
    got = kernel(m)
    assert (got.basis.data, got.pivots) == _reference_null_space(*want, m.cols)
    return got


def test_kernel_matches_the_exact_rref_kernel():
    rng = random.Random(2024)
    for trial in range(150):
        rows, cols = rng.randint(0, 9), rng.randint(0, 9)
        density = rng.choice((1.0, 0.3))
        den = rng.choice((1, 7, 360))
        data = [[F(rng.randint(-20, 20), rng.randint(1, den))
                 if rng.random() < density else F(0) for _ in range(cols)]
                for _ in range(rows)]
        if rows >= 3 and trial % 2:
            # rank-deficient: the last row is a combination of the first two
            a, b = F(rng.randint(-5, 5), rng.randint(1, 4)), F(rng.randint(-5, 5))
            data[-1] = [a * x + b * y for x, y in zip(data[0], data[1])]
        _assert_matches_reference(Mat(data, cols=cols))


def test_rref_keeps_every_row_with_the_zero_rows_last():
    m = Mat([[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 0, 0], [0, 1, 1]])
    R, piv = rref(m)
    assert R.shape == m.shape and piv == (0, 1)
    assert R.data == [[F(1), F(0), F(1)], [F(0), F(1), F(1)]] + [[F(0)] * 3] * 3
    assert rref(Mat([], cols=4)) == (Mat([], cols=4), ())


def test_kernel_of_a_dense_rank_deficient_40_by_60_matrix():
    rng = random.Random(40)
    data = [[rng.randint(-128, 127) for _ in range(60)] for _ in range(34)]
    for _ in range(6):
        i, j = rng.sample(range(34), 2)
        data.append([x - y for x, y in zip(data[i], data[j])])
    m = Mat(data)
    got = _assert_matches_reference(m)
    assert got.dim == 60 - 34
    assert all(not any(apply(m, v)) for v in got.rows())


def test_kernel_falls_back_on_an_unlucky_prime():
    p = 2**61 - 1
    m = Mat([[1, 1], [1, 1 + p]])  # rank 2 over Q, rank 1 mod p
    assert _assert_matches_reference(m) == Subspace.zero(2)


def test_kernel_falls_back_when_p_divides_a_denominator():
    p = 2**61 - 1
    m = Mat([[F(1, p), 1], [F(2, p), 2]])
    assert _assert_matches_reference(m).rows() == [(F(1), F(-1, p))]


def test_kernel_of_100_bit_entries_matches_the_reference():
    # 2x2 minors of 100-bit entries: kernel entries of about 193 bits over
    # 193 bits
    rng = random.Random(5)
    m = Mat([[rng.getrandbits(100) | 1 for _ in range(3)] for _ in range(2)])
    got = _assert_matches_reference(m)
    assert min(q.denominator.bit_length() for q in got.rows()[0][1:]) > 190


def test_kernel_of_300_bit_entries_matches_the_reference():
    rng = random.Random(6)
    m = Mat([[rng.getrandbits(300) | 1, rng.getrandbits(300) | 1]])
    got = _assert_matches_reference(m)
    assert got.rows()[0][1].denominator.bit_length() > 290


def _one_pass_kernel(rows, cols):
    """The kernel from one _rref of every row: the oracle for the projection."""
    e, R, piv = exactlin._rref(rows, cols)
    return Subspace.span(cols, exactlin._null_rows(R, piv, cols, e))


def _combination(rng, rows, cols):
    """A seeded integer combination of rows (the zero row if there are none)."""
    out = [0] * cols
    for row in rows:
        c = rng.randint(-3, 3)
        out = [x + c * y for x, y in zip(out, row)]
    return out


def _tall_case(rng, kind):
    """(rows, cols) of one kind of system for the projection in kernel."""
    cols = 0 if kind == "no columns" else rng.randint(1, 9)
    if kind in ("product", "fractions"):
        # low rank r: a tall U times an r x cols V, entries Fractions or ints
        r, height = rng.randint(0, cols), rng.randint(cols + 1, 3 * cols + 2)
        den = 12 if kind == "fractions" else 1
        V = [[F(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(cols)]
             for _ in range(r)]
        rows = [_combination(rng, V, cols) for _ in range(height)]
        return (rows if den > 1 else [[int(x) for x in row] for row in rows]), cols
    if kind == "no columns":
        return [[] for _ in range(rng.randint(0, 4))], cols
    if kind == "not tall":
        return [[rng.randint(-5, 5) for _ in range(cols)]
                for _ in range(rng.randint(0, cols))], cols
    # a square first block A of rank r and a tail of 1 to 2 cols rows
    cols = max(cols, 2)   # _unimodular needs two rows
    r = cols if kind == "full first block" else rng.randint(0, cols - 1)
    A = [list(row) for row in _unimodular(rng, cols, 2 * cols).ints[:r]]
    A += [_combination(rng, A, cols) for _ in range(cols - r)]
    rng.shuffle(A)
    tail = [_combination(rng, A, cols) for _ in range(rng.randint(1, 2 * cols))]
    if kind == "cutting tail":
        tail[rng.randrange(len(tail))][rng.randrange(cols)] += rng.choice((-1, 1))
    return A + tail, cols


def test_kernel_equals_the_one_pass_kernel_on_seeded_tall_systems():
    rng = random.Random(1729)
    kinds = ("product", "fractions", "no columns", "not tall", "full first block",
             "redundant tail", "cutting tail")
    seen = {kind: 0 for kind in kinds}
    for trial in range(700):
        kind = kinds[trial % len(kinds)]
        rows, cols = _tall_case(rng, kind)
        got = kernel(rows, cols)
        assert got == _one_pass_kernel(rows, cols), (kind, rows, cols)
        first = _one_pass_kernel(rows[:cols], cols).dim
        # each kind reaches the branch it names
        seen[kind] += {"product": len(rows) > cols and got.dim > 0,
                       "fractions": any(type(x) is F for row in rows for x in row),
                       "no columns": cols == 0 and got.dim == 0,
                       "not tall": len(rows) <= cols,
                       "full first block": first == 0 < len(rows) - cols,
                       "redundant tail": first == got.dim > 0,
                       "cutting tail": got.dim < first}[kind]
    assert all(n >= 60 for n in seen.values()), seen


def _leibniz_system(monkeypatch, name, param, seed):
    """(rows, cols) that derivations solves for name:param on a seeded dense
    unimodular basis."""
    L = catalog.get(name, param).algebra
    M = change_basis(L, _unimodular(random.Random(seed), L.dim, 3 * L.dim))
    systems = []

    def recording(rows, cols):
        systems.append((rows, cols))
        return kernel(rows, cols)

    monkeypatch.setattr(structure, "kernel", recording)
    structure.derivations(M)
    monkeypatch.undo()
    (system,) = systems
    return system


# (name, param, seed, dim ker of the first cols rows, dim Der): on favre7
# the rows past the first cols cut the kernel down
@pytest.mark.parametrize("name, param, seed, first, dim", [
    ("favre7", None, 1, 13, 10), ("favre7", None, 5, 20, 10),
    ("filiform", 8, 1, 15, 15)])
def test_kernel_equals_the_one_pass_kernel_on_dense_leibniz_systems(
        monkeypatch, name, param, seed, first, dim):
    rows, cols = _leibniz_system(monkeypatch, name, param, seed)
    assert len(rows) > cols
    assert _one_pass_kernel(rows[:cols], cols).dim == first
    assert kernel(rows, cols) == _one_pass_kernel(rows, cols)
    assert kernel(rows, cols).dim == dim


def test_kernel_of_the_dense_filiform8_leibniz_system_projects(monkeypatch):
    rows, cols = _leibniz_system(monkeypatch, "filiform", 8, 1)
    assert (len(rows), cols) == (224, 64)
    calls = []
    real = exactlin._rref

    def counting(rows, cols):
        rows = list(rows)
        calls.append((len(rows), cols))
        return real(rows, cols)

    monkeypatch.setattr(exactlin, "_rref", counting)
    assert kernel(rows, cols).dim == 15
    assert calls and (224, 64) not in calls
    assert max(n for n, width in calls if width == 64) == 64


# ---------------------------------------------------------------------------
# subspaces

def test_subspace_sum_intersection_dims():
    a = Subspace.span(2, [[1, 0]])
    b = Subspace.span(2, [[0, 1]])
    assert (a + b).dim == 2


def test_subspace_coords_roundtrip():
    s = Subspace.span(3, [[1, 2, 0], [0, 0, 1]])
    v = [2, 4, 5]
    cs = s.coords(v)
    assert cs is not None
    recon = [F(0)] * 3
    for c, row in zip(cs, s.rows()):
        for j in range(3):
            recon[j] += c * row[j]
    assert recon == [F(2), F(4), F(5)]
    assert s.coords([1, 0, 0]) is None
    # strings and floats are read as rationals
    assert s.coords(["1/2", 1.0, "-3"]) == (F(1, 2), F(-3))
    assert s.contains([0.25, "1/2", 7]) and not s.contains(["1/3", 0, 0])


def test_subspace_coords_rejects_a_vector_of_the_wrong_length():
    s = Subspace.span(3, [[0, 0, 1]])
    for v in ([1], [0, 0, 1, 0], []):
        with pytest.raises(ValueError, match="vector length mismatch"):
            s.coords(v)
        with pytest.raises(ValueError, match="vector length mismatch"):
            s.contains(v)


def _fraction_coords(s, v):
    """Coordinates of v over the RREF rows of s by Fraction elimination of
    every pivot coordinate, or None when a residual is left."""
    w = [F(x) for x in v]
    cs = tuple(w[p] for p in s.pivots)
    for c, row in zip(cs, s.rows()):
        w = [a - c * b for a, b in zip(w, row)]
    return None if any(w) else cs


def test_subspace_membership_matches_the_fraction_oracle():
    rng = random.Random(17)

    def rand_rat(bits):
        return F(rng.getrandbits(bits) - (1 << (bits - 1)),
                 rng.choice((1, 1, 2, 3, 7, rng.getrandbits(bits) | 1)))

    inside = outside = 0
    for trial in range(60):
        n = rng.randint(1, 7)
        k = rng.randint(0, n)
        bits = 160 if trial % 4 == 0 else 4
        gens = [[rand_rat(bits) if rng.random() < 0.6 else 0 for _ in range(n)]
                for _ in range(k)]
        s = Subspace.span(n, gens)
        e, er = s.basis.den, s.basis.ints
        assert er == [[e * x for x in row] for row in s.basis.data]
        assert all(isinstance(x, int) for row in er for x in row)
        points = [[0] * n]
        for _ in range(4):
            cs = [rand_rat(bits) for _ in gens]
            point = [sum((c * g[j] for c, g in zip(cs, gens)), F(0))
                     for j in range(n)]
            points.append(point)
            if s.dim < n:
                off = point[:]
                off[rng.choice([j for j in range(n) if j not in s.pivots])] += 1
                points.append(off)
        for v in points:
            want = _fraction_coords(s, v)
            assert s.coords(v) == want
            assert s.contains(v) == (want is not None)
            if want is None:
                outside += 1
            else:
                inside += 1
    assert inside >= 100 and outside >= 100


def test_subspace_canonical_equality():
    a = Subspace.span(3, [[1, 1, 0], [0, 1, 1]])
    b = Subspace.span(3, [[2, 2, 0], [1, 2, 1]])
    assert a == b


# ---------------------------------------------------------------------------
# polynomials

def test_poly_arith_and_divmod():
    x = Poly.x()
    p = (x - Poly([1])) * (x - Poly([2]))
    assert p == Poly([2, -3, 1])
    assert (p % (x - Poly([1]))).is_zero()
    assert p % (x - Poly([3])) == Poly([2])          # p(3)
    assert p % (2 * x * x) == Poly([2, -3])
    assert p % Poly([F(-1, 5)]) == Poly.zero() and x % p == x
    with pytest.raises(ZeroDivisionError):
        p % Poly.zero()
    assert p.derivative() == Poly([-3, 2])


def _long_division(a, b):
    """(q, r) with a = q b + r and deg r < deg b, by the schoolbook loop."""
    q, r = [F(0)] * max(len(a.c) - len(b.c) + 1, 0), list(a.c)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + b.degree] / b.c[-1]
        for i, x in enumerate(b.c):
            r[k + i] -= q[k] * x
    return Poly(q), Poly(r)


def _euclid_gcd(a, b):
    """The monic gcd of a and b, not both 0, by Euclid's algorithm."""
    while not b.is_zero():
        a, b = b, _long_division(a, b)[1]
    return a * (1 / a.c[-1])


def _euclid_squarefree_part(p):
    """The reference radical: p / gcd(p, p') by Euclid, made monic."""
    q = _long_division(p, _euclid_gcd(p, p.derivative()))[0]
    return q * (1 / q.c[-1])


def _squarefree_cases(rng, count):
    """Constants, linear polynomials and, for 4- and 150-bit coefficients,
    count seeded products of linear and irreducible quadratic factors."""
    x = Poly.x()
    square = (x * x + Poly([1])) * (x * x + Poly([1]))

    def coefficient(bits):   # an odd numerator, so never 0
        numerator = rng.getrandbits(bits) - (1 << (bits - 1)) | 1
        return F(numerator, rng.randint(1, 1 << bits))

    cases = [Poly([7]), Poly([F(-2, 3)]), Poly([3, 5]), Poly([F(1, 7), -2]),
             square * (x - Poly([2]))]
    for bits in (4, 150):
        for _ in range(count):
            p = Poly([coefficient(bits)])
            # linear and irreducible quadratic (x^2 + c, c > 0) factors, each
            # one to three times
            for _ in range(rng.randint(0, 3)):
                f = rng.choice([x - Poly([coefficient(bits)]),
                                x * x + Poly([abs(coefficient(bits)) + 1])])
                for _ in range(rng.randint(1, 3)):
                    p = p * f
            cases.append(p)
    return cases


def test_squarefree_part():
    x = Poly.x()
    p = (x - Poly([1])) * (x - Poly([1])) * (x + Poly([2]))
    assert squarefree_part(p) == (x - Poly([1])) * (x + Poly([2]))
    square = (x * x + Poly([1])) * (x * x + Poly([1]))
    assert squarefree_part(square) == squarefree_part(3 * square) == x * x + Poly([1])
    repeated = 0
    for p in _squarefree_cases(random.Random(19), 12):
        want = _euclid_squarefree_part(p)
        assert squarefree_part(p) == want
        repeated += want.degree < p.degree
    assert repeated >= 8


def test_sylvester_proof_agrees_with_euclid():
    # the inputs of test_squarefree_part, then more seeded products; a
    # repeated factor makes the Sylvester matrix singular over Q, so mod p
    # too: the proof never claims such a polynomial squarefree
    kinds = set()
    for rng, count in ((random.Random(19), 12), (random.Random(23), 60)):
        for p in _squarefree_cases(rng, count):
            squarefree = _euclid_squarefree_part(p).degree == p.degree
            assert exactlin._squarefree_mod_p(p) == squarefree, p
            kinds.add((squarefree, min(p.degree, 2)))
    assert kinds == {(True, 0), (True, 1), (True, 2), (False, 2)}


def test_sylvester_proof_falls_back_when_p_divides_the_resultant(monkeypatch):
    # (x - a)(x - a - p): the roots differ by p = 2^61 - 1, so the resultant
    # p^2 vanishes mod p; the exact squarefree part decides, once per call
    p, x = 2 ** 61 - 1, Poly.x()
    mu = (x - Poly([3])) * (x - Poly([3 + p]))
    assert not exactlin._squarefree_mod_p(mu)
    assert exactlin._squarefree_mod_p((x - Poly([3])) * (x - Poly([4])))
    calls = []
    real = exactlin.squarefree_part
    monkeypatch.setattr(exactlin, "squarefree_part",
                        lambda q: calls.append(q) or real(q))
    m = Mat([[3, 0], [0, 3 + p]])
    assert is_semisimple(m) and calls == [mu]
    jc = jordan_chevalley(m)
    assert jc.s == m and jc.n.is_zero() and calls == [mu, mu]
    assert is_semisimple(Mat([[3, 0], [0, 4]])) and len(calls) == 2
    # a repeated root is never proved squarefree, so the exact part decides
    assert not is_semisimple(Mat([[3, 1], [0, 3]])) and len(calls) == 3


def test_derivative_inverse_on_large_coefficients():
    rng = random.Random(11)
    for deg in range(1, 13):
        big = 1 << rng.randint(201, 260)
        g = Poly([F(rng.randint(-big, big), rng.randint(1, big))
                  for _ in range(deg)] + [rng.randint(1, big)])
        # _derivative_inverse refuses a g with a repeated root, and
        # h g' = 1 mod g (Bezout) proves that g and g' are coprime
        h = exactlin._derivative_inverse(g)
        assert h * g.derivative() % g == Poly([1])
        assert h.degree < g.degree


def test_derivative_inverse_rejects_a_repeated_root():
    x = Poly.x()
    with pytest.raises(AssertionError, match="not coprime"):
        exactlin._derivative_inverse(x * x * (x - Poly([1])))


def test_poly_compose_mod():
    x = Poly.x()
    mod = x * x + Poly([1])      # x^2 + 1
    q = x + Poly([1])
    comp = (x * x).compose_mod(q, mod)   # (x+1)^2 = x^2+2x+1 = 2x mod x^2+1
    assert comp == Poly([0, 2])


# ---------------------------------------------------------------------------
# charpoly / minpoly

def test_charpoly_diagonal():
    m = Mat([[1, 0], [0, 2]])
    assert charpoly(m) == Poly([2, -3, 1])  # (x-1)(x-2)


def test_charpoly_companion():
    # companion matrix of x^3 - 2x + 5
    m = Mat([[0, 0, -5], [1, 0, 2], [0, 1, 0]])
    assert charpoly(m) == Poly([5, -2, 0, 1])


def test_charpoly_cayley_hamilton():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = rand_mat(rng, n, n)
        p = charpoly(m)
        assert p.degree == n and p.c[-1] == 1
        assert p.eval_mat(m).is_zero()


def test_charpoly_similarity_invariant():
    rng = random.Random(29)
    for _ in range(10):
        n = rng.randint(2, 4)
        m = rand_mat(rng, n, n)
        while True:
            p = rand_mat(rng, n, n, -2, 2)
            if rank(p) == n:
                break
        _, _, t = rref_with_transform(p)  # t = p^-1 since rref(p) = I
        assert charpoly(t @ m @ p) == charpoly(m)


def _unimodular(rng, n, steps):
    """Seeded product of elementary row operations: integral, det +-1."""
    u = [[int(r == c) for c in range(n)] for r in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return Mat(u)


def test_charpoly_of_conjugated_triangular_matrices_with_large_entries():
    rng = random.Random(43)
    for bits in (8, 60, 120, 250):
        for _ in range(4):
            n = rng.randint(2, 6)
            big = 1 << bits
            t = Mat([[F(rng.randint(-big, big), rng.randint(1, 1 << 12))
                      if c >= r else 0 for c in range(n)] for r in range(n)])
            u = _unimodular(rng, n, 3 * n)
            _, _, u_inv = rref_with_transform(u)
            want = Poly([1])
            for i in range(n):
                want = want * Poly([-t.data[i][i], 1])
            assert charpoly(u @ t @ u_inv) == want
            assert charpoly(t) == want


def _leibniz_det(rows):
    """Determinant of a square list of Fraction rows by the Leibniz sum."""
    n = len(rows)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


def _minors_charpoly(m):
    """det(xI - m) by the signed sums of principal minors: the coefficient
    of x^k is (-1)^(n-k) times the sum of the (n-k) x (n-k) ones."""
    n = m.rows
    return Poly([(-1) ** (n - k) * sum(
        _leibniz_det([[m.data[i][j] for j in idx] for i in idx])
        for idx in itertools.combinations(range(n), n - k)) for k in range(n + 1)])


def test_charpoly_equals_the_principal_minor_sums():
    rng = random.Random(47)
    for n in range(7):
        for bits in (3, 250):
            big = 1 << bits
            m = Mat([[F(rng.randint(-big, big), rng.randint(1, 9))
                      for _ in range(n)] for _ in range(n)])
            assert charpoly(m) == _minors_charpoly(m)


def test_charpoly_stops_once_a_power_of_a_nilpotent_matrix_is_zero(monkeypatch):
    products = []
    real = exactlin._int_product
    monkeypatch.setattr(exactlin, "_int_product",
                        lambda a, b: products.append(b) or real(a, b))
    rng = random.Random(53)
    for n in range(2, 7):
        for index in range(1, n + 1):
            # one Jordan block of size index at 0, conjugated by a
            # unimodular u and scaled by 1/3
            j = [[F(int(c == r + 1 and c < index), 3) for c in range(n)]
                 for r in range(n)]
            u = _unimodular(rng, n, 3 * n)
            _, _, u_inv = rref_with_transform(u)
            m = u @ Mat(j) @ u_inv
            assert charpoly(m) == _minors_charpoly(m) == Poly([0] * n + [1])
            products.clear()
            charpoly(m)
            assert len(products) == index   # A, A^2, ..., A^index = 0


def test_is_nilpotent_refuses_a_nonzero_trace_without_charpoly(monkeypatch):
    def refuse(m):
        raise AssertionError("charpoly called on a matrix with nonzero trace")

    monkeypatch.setattr(exactlin, "charpoly", refuse)
    assert not is_nilpotent(Mat([[1]]))
    assert not is_nilpotent(Mat([[0, 1, 0], [0, 0, 1], [0, 0, F(1, 7)]]))
    assert not is_nilpotent(Mat([[F(2, 3), 5], [-1, 0]]))


def test_trace_zero_matrices_that_are_not_nilpotent():
    assert not is_nilpotent(Mat([[1, 0], [0, -1]]))
    companion = Mat([[0, 0, 8], [1, 0, 0], [0, 1, 0]])   # of x^3 - 8
    assert charpoly(companion) == Poly([-8, 0, 0, 1])
    assert not is_nilpotent(companion)


@pytest.mark.parametrize("bump, failure", [
    (1, "not divisible"),      # tr(A M_2) = -1 is odd
    (2, "Cayley-Hamilton"),    # the traces divide, but p(A) != 0
])
def test_corrupted_product_fails_the_charpoly_proof(monkeypatch, bump, failure):
    real = exactlin._int_product

    def corrupted(a, b):
        out = real(a, b)
        out[0][0] += bump
        return out

    monkeypatch.setattr(exactlin, "_int_product", corrupted)
    with pytest.raises(AssertionError, match=f"proof failed: .*{failure}"):
        charpoly(Mat([[1, 2], [3, 4]]))


def _jordan(blocks):
    """Block-diagonal matrix of Jordan blocks given as (eigenvalue, size)."""
    n = sum(size for _, size in blocks)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for lam, size in blocks:
        for i in range(start, start + size):
            rows[i][i] = lam
            if i + 1 < start + size:
                rows[i][i + 1] = 1
        start += size
    return Mat(rows, cols=n)


def _zero_root_multiplicity(p):
    return next(k for k, c in enumerate(p.c) if c)


def _zero_mult(m):
    """zero_multiplicity_mod_p of d m, the integral multiple of m."""
    return zero_multiplicity_mod_p(m.ints)


def test_zero_multiplicity_mod_p_matches_exact_on_similar_jordan_forms():
    rng = random.Random(31)
    for _ in range(30):
        zero_blocks = [(0, rng.randint(1, 3)) for _ in range(rng.randint(0, 3))]
        other = [(F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 3)),
                  rng.randint(1, 2)) for _ in range(rng.randint(0, 3))]
        blocks = zero_blocks + other
        rng.shuffle(blocks)
        if not blocks:
            continue
        j = _jordan(blocks)
        n = j.rows
        while True:
            p = rand_mat(rng, n, n, -2, 2)
            if rank(p) == n:
                break
        _, _, p_inv = rref_with_transform(p)  # rref(p) = I, so this is p^-1
        m = p @ j @ p_inv
        want = sum(size for _, size in zero_blocks)
        assert _zero_mult(m) == want
        assert _zero_root_multiplicity(charpoly(m)) == want


def test_zero_multiplicity_mod_p_small_and_nilpotent_cases():
    assert _zero_mult(Mat([], cols=0)) == 0
    assert _zero_mult(Mat([[0]])) == 1
    assert _zero_mult(Mat([[F(-3, 7)]])) == 0
    assert _zero_mult(Mat.zeros(5, 5)) == 5
    rng = random.Random(37)
    for n in range(1, 7):
        upper = Mat([[rng.randint(-4, 4) if c > r else 0 for c in range(n)]
                     for r in range(n)])
        assert _zero_mult(upper) == n
        assert _zero_root_multiplicity(charpoly(upper)) == n
    # a nilpotent Jordan block of size s next to an invertible one, in a
    # unimodular basis: sizes on both sides of each power of two stop the
    # squaring loop of the count after each number of squarings from 2 to 6
    for s in (2, 3, 4, 5, 8, 9, 16, 17):
        n = s + 3
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(2 * n):
            i, k = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            u[i] = [a + c * b for a, b in zip(u[i], u[k])]
        u = Mat(u)
        _, _, u_inv = rref_with_transform(u)   # rref(u) = I, so this is u^-1
        m = u @ _jordan([(0, s), (F(-2), 2), (F(5), 1)]) @ u_inv
        assert m.den == 1
        assert _zero_root_multiplicity(charpoly(m)) == s
        assert _zero_mult(m) == s


def test_zero_multiplicity_mod_p_when_p_divides_a_denominator():
    p = 2 ** 61 - 1
    for m in (Mat([[1, F(1, p)], [0, 0]]), Mat([[1, F(1, 2 * p)], [0, 0]]),
              Mat([[F(1, p), 1], [0, F(2, 3)]]), Mat([[p, 1], [0, 0]])):
        got = _zero_mult(m)
        assert isinstance(got, int)
        assert got >= _zero_root_multiplicity(charpoly(m))
    # p in a numerator only reduces to 0, which never lowers the count
    assert _zero_mult(Mat([[p, 1], [0, 0]])) == 2
    assert _zero_root_multiplicity(charpoly(Mat([[p, 1], [0, 0]]))) == 1
    # every denominator the same multiple k p: d m is u v^T, with entries
    # prime to k p, and its one nonzero charpoly coefficient below x^n is
    # the trace v.u, which is small, so p divides it only when it is 0
    rng = random.Random(41)
    units = (1, -1, 7, -7, 11, -11, 13, -13)
    cases = [(3, [1, 7], [7, -1])]                 # trace 0: x^2
    for k in (1, 3, 10):
        for _ in range(12):
            n = rng.randint(1, 5)
            cases.append((k, [rng.choice(units) for _ in range(n)],
                          [rng.choice(units) for _ in range(n)]))
    for k, u, v in cases:
        m = Mat([[F(a * b, k * p) for b in v] for a in u])
        assert {q.denominator for row in m.data for q in row} == {k * p}
        want = _zero_root_multiplicity(charpoly(m))
        assert want == len(u) - 1 + (sum(a * b for a, b in zip(u, v)) == 0)
        assert _zero_mult(m) == want


def _rank_mod_p_cases(rng, rows, cols):
    """Seeded integer matrices of rank 0, 1, ..., min(rows, cols); past
    rank 8 only ranks 0, 1, the middle one and the top two."""
    m = min(rows, cols)
    for r in range(m + 1) if m <= 8 else sorted({0, 1, m // 2, m - 1, m}):
        left = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(rows)]
        right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(r)]
        yield (exactlin._int_product(left, right) if r
               else [[0] * cols for _ in range(rows)])


def test_rank_mod_p_matches_the_exact_rank():
    rng = random.Random(47)
    # square, tall (the 96 x 28 normalizer system shape) and wide
    shapes = [(n, n) for n in range(1, 10)] + [(96, 28), (30, 7), (4, 11), (9, 30)]
    for rows, cols in shapes:
        for A in _rank_mod_p_cases(rng, rows, cols):
            before = [list(row) for row in A]
            assert exactlin._rank_mod_p(A, cols) == rank(Mat(A, cols=cols)), (rows, cols)
            assert A == before


def test_rank_mod_p_edge_cases():
    for A in ([], [[]], [[], [], []]):   # 0 x 0 and 3 x 0: rank 0
        assert exactlin._rank_mod_p(A, 0) == 0
    assert exactlin._rank_mod_p([[0, 0, 0]], 3) == 0
    assert exactlin._rank_mod_p([[1, 2, 3]], 3) == 1
    assert exactlin._rank_mod_p([[1, 2, 3], [0, 0, 0], [2, 4, 6]], 3) == 1
    assert exactlin._rank_mod_p([[-5, 0], [0, 7]], 2) == 2


def test_rank_mod_p_is_never_above_the_exact_rank():
    p = 2 ** 61 - 1
    # p in an entry reduces to 0: the rank mod p is lower than over Q
    assert rank(Mat([[p, 0], [0, 1]])) == 2
    assert exactlin._rank_mod_p([[p, 0], [0, 1]], 2) == 1
    assert exactlin._rank_mod_p([[p, 2 * p], [-3 * p, 5 * p]], 2) == 0
    assert exactlin._rank_mod_p([[1, 1], [1, 1 + p]], 2) == 1   # det p
    rng = random.Random(53)
    for rows, cols in [(5, 5), (96, 28), (3, 8), (12, 4)]:
        for A in _rank_mod_p_cases(rng, rows, cols):
            A = [[x * p if rng.random() < 0.3 else x + p * rng.randint(-2, 2)
                  for x in row] for row in A]
            assert exactlin._rank_mod_p(A, cols) <= rank(Mat(A, cols=cols)), (rows, cols)


def test_minpoly_examples():
    assert minpoly(Mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]])) == Poly([2, -3, 1])
    j3 = Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert minpoly(j3) == Poly([0, 0, 0, 1])
    assert minpoly(Mat.identity(4)) == Poly([-1, 1])
    assert minpoly(Mat.zeros(3, 3)) == Poly([0, 1])
    assert minpoly(Mat([[F(-5, 3)]])) == Poly([F(5, 3), 1])
    assert minpoly(2 * Mat.identity(3)) == Poly([-2, 1])


def test_minpoly_stops_at_the_first_dependent_power(monkeypatch):
    # a Krylov step A w is a product with one row; eval_mat's have n rows
    steps, rounds = [], []
    real_product, real_annihilator = exactlin._int_product, exactlin._annihilator
    monkeypatch.setattr(exactlin, "_int_product",
                        lambda a, b: steps.append(len(a) == 1) or real_product(a, b))
    monkeypatch.setattr(exactlin, "_annihilator",
                        lambda m, v: rounds.append(tuple(v)) or real_annihilator(m, v))
    projection = Mat([[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    # m v = 0 for the starting vector v = (1, 2, 5), but mu = x (x - 2)
    kills_v = Mat([[2, -1, 0], [0, 0, 0], [0, 0, 0]])
    # (m, mu, Krylov steps, starting vectors): A v = v; A^2 v = A v; A v = 0,
    # then A u = 2 u for the column u = (2, 0, 0) of q(m) = m
    for m, mu, krylov, starts in [
            (Mat.identity(6), Poly([-1, 1]), 1, [(1, 2, 5, 10, 17, 26)]),
            (projection, Poly([0, -1, 1]), 2, [(1, 2, 5, 10)]),
            (kills_v, Poly([0, -2, 1]), 2, [(1, 2, 5), (2, 0, 0)])]:
        steps.clear()
        rounds.clear()
        assert minpoly(m) == mu
        assert steps.count(True) == krylov and rounds == starts
    assert minpoly(Mat.zeros(0, 0)) == Poly([1])


def _flat(m):
    """The entries of m, row-major."""
    return tuple(x for row in m.data for x in row)


def _fraction_minpoly(m):
    """The incremental Fraction algorithm: I, m, m^2, ... reduced one at a
    time against the echelon rows before them, each row carrying its
    coefficients over the powers."""
    def sub_multiple(v, f, w):
        for i, x in w.items():
            y = v.get(i, F(0)) - f * x
            if y:
                v[i] = y
            else:
                del v[i]

    echelon = []
    power = Mat.identity(m.rows)
    for k in range(m.rows + 1):
        v = {i: x for i, x in enumerate(_flat(power)) if x}
        coeffs = {k: F(1)}
        for p, row, row_coeffs in echelon:
            f = v.get(p)
            if f:
                sub_multiple(v, f, row)
                sub_multiple(coeffs, f, row_coeffs)
        if not v:
            return Poly([coeffs.get(i, F(0)) for i in range(k + 1)])
        p = min(v)
        inv = 1 / v[p]
        echelon.append((p, {i: x * inv for i, x in v.items()},
                        {i: x * inv for i, x in coeffs.items()}))
        power = power @ m
    raise AssertionError("no dependency among the first n + 1 powers")


def test_minpoly_completes_past_an_invariant_subspace(monkeypatch):
    # m = B (I - v v^T / v.v) has m v = 0 for the starting vector
    # v_i = i^2 + 1, so the first annihilator is x and the completion loop
    # runs until q(m) = 0
    rounds = []
    real = exactlin._annihilator
    monkeypatch.setattr(exactlin, "_annihilator",
                        lambda m, v: rounds.append(v) or real(m, v))
    rng = random.Random(59)
    mats = [Mat([[2, -1, 0], [0, 0, 0], [0, 0, 0]])]
    for n in (2, 3, 4, 5, 6):
        for _ in range(3):
            v = [i * i + 1 for i in range(n)]
            vv = sum(x * x for x in v)
            proj = Mat([[F(int(i == j) * vv - v[i] * v[j], vv) for j in range(n)]
                        for i in range(n)])
            b = Mat([[F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6
                      else 0 for _ in range(n)] for _ in range(n)])
            mats.append(b @ proj)
    for m in mats:
        rounds.clear()
        assert minpoly(m) == _fraction_minpoly(m)
        assert len(rounds) >= 2 or m.is_zero()


def test_minpoly_matches_the_fraction_oracle():
    rng = random.Random(41)

    def rand_rat(bits, den):
        return F(rng.getrandbits(bits) - (1 << (bits - 1)), rng.randint(1, den))

    mats = [Mat.zeros(0, 0), Mat([[F(-7, 3)]]), Mat([[0]]),
            Mat([[rng.getrandbits(200)]])]
    for _ in range(15):
        n = rng.randint(1, 5)
        mats.append(Mat([[rand_rat(5, 6) for _ in range(n)] for _ in range(n)]))
    # entries of 150 bits and more, with and without denominators
    for den in (1, 1 << 20):
        for _ in range(4):
            n = rng.randint(1, 4)
            mats.append(Mat([[rand_rat(rng.randint(150, 220), den)
                              for _ in range(n)] for _ in range(n)]))
    # Jordan-like blocks with repeated eigenvalues conjugated by rational
    # matrices, so the degree is often below n
    for _ in range(20):
        n = rng.randint(2, 7)
        j = Mat([[rng.choice([0, 2, F(-1, 2)]) if a == b else
                  rng.choice([0, 1]) if b == a + 1 else 0
                  for b in range(n)] for a in range(n)])
        t = Mat([[F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)]
                 for _ in range(n)])
        _, piv, t_inv = rref_with_transform(t)
        if len(piv) == n:
            mats.append(t @ j @ t_inv)
    below_n = big = 0
    for m in mats:
        want = _fraction_minpoly(m)
        assert minpoly(m) == want
        below_n += want.degree < m.rows
        big += max((q.numerator.bit_length() for row in m.data for q in row),
                   default=0) >= 150
    assert below_n >= 8 and big >= 9


def test_minpoly_divides_charpoly():
    rng = random.Random(31)
    mats = []
    for _ in range(20):
        n = rng.randint(1, 5)
        mats.append(rand_mat(rng, n, n))
    # Jordan-like blocks with repeated eigenvalues, conjugated by a rational
    # matrix, so the degree is often below n
    for _ in range(20):
        n = rng.randint(1, 6)
        j = Mat([[rng.choice([0, 1, F(-1, 2)]) if a == b else
                  rng.choice([0, 1]) if b == a + 1 else 0
                  for b in range(n)] for a in range(n)])
        t = Mat([[F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                 for _ in range(n)])
        _, piv, t_inv = rref_with_transform(t)
        if len(piv) == n:
            mats.append(t @ j @ t_inv)
    below_n = 0
    for m in mats:
        n = m.rows
        mu = minpoly(m)
        assert mu.c[-1] == 1
        assert (charpoly(m) % mu).is_zero()
        assert mu.eval_mat(m).is_zero()
        # minimal: I, m, ..., m^(deg-1) are independent
        power, vecs = Mat.identity(n), []
        for _ in range(mu.degree):
            vecs.append(_flat(power))
            power = power @ m
        lower = Mat(vecs, cols=n * n)
        assert rank(lower) == mu.degree
        below_n += mu.degree < n
    assert below_n >= 5


def test_operator_predicates():
    j = Mat([[0, 1], [0, 0]])
    assert is_nilpotent(j) and not is_semisimple(j)
    d = Mat([[2, 0], [0, 3]])
    assert is_semisimple(d) and not is_nilpotent(d)
    # rotation generator: semisimple over Q even with no rational eigenvalues
    rot = Mat([[0, 1], [-1, 0]])
    assert is_semisimple(rot)
    z = Mat.zeros(2, 2)
    assert is_nilpotent(z) and is_semisimple(z)


# ---------------------------------------------------------------------------
# Jordan-Chevalley

def jc_postconditions(m, dec):
    s, n, q = dec
    assert (s + n) == m
    assert commutator(s, n).is_zero()
    assert is_nilpotent(n)
    mu = minpoly(s)
    assert _euclid_gcd(mu, mu.derivative()) == Poly([1])
    assert q.eval_mat(m) == s


def test_jordan_chevalley_two_jordan_blocks():
    # blocks J_2(2) and J_2(3); the split is visible by hand
    m = Mat([
        [2, 1, 0, 0],
        [0, 2, 0, 0],
        [0, 0, 3, 1],
        [0, 0, 0, 3],
    ])
    dec = jordan_chevalley(m)
    assert dec.s == Mat([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]])
    assert dec.n == m - dec.s
    jc_postconditions(m, dec)


def test_jordan_chevalley_semisimple_and_nilpotent_inputs():
    d = Mat([[5, 0], [0, -1]])
    dec = jordan_chevalley(d)
    assert dec.s == d and dec.n.is_zero()
    j = Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    dec = jordan_chevalley(j)
    assert dec.s.is_zero() and dec.n == j


def test_jordan_chevalley_of_a_semisimple_input_skips_newton(monkeypatch):
    def refuse(g):
        raise AssertionError("_derivative_inverse called")

    monkeypatch.setattr(exactlin, "_derivative_inverse", refuse)
    x = Poly.x()
    t = Mat([[1, F(1, 2), 0], [0, 3, -1], [2, 0, 1]])
    _, _, t_inv = rref_with_transform(t)
    # diagonal, a rotation, scalars, a 1 x 1 with a denominator, a
    # diagonalizable matrix with denominators, and (x^2 + 1)(x - 1)
    for m in (Mat([[5, 0], [0, -1]]), Mat([[0, 1], [-1, 0]]), Mat.zeros(3, 3),
              2 * Mat.identity(3), Mat([[F(-5, 3)]]),
              t @ Mat([[F(1, 3), 0, 0], [0, -2, 0], [0, 0, F(1, 3)]]) @ t_inv,
              Mat([[0, -1, 0], [1, 0, 0], [0, 0, 1]])):
        dec = jordan_chevalley(m)
        assert dec == (m, Mat.zeros(m.rows, m.rows), x % minpoly(m))
        jc_postconditions(m, dec)
    # a minimal polynomial x^k proves m nilpotent: s = 0, with no Newton
    for m in (Mat([[0, 1], [0, 0]]), Mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
              Mat([[F(1, 2), F(-1, 4)], [1, F(-1, 2)]])):
        dec = jordan_chevalley(m)
        assert dec == (Mat.zeros(m.rows, m.rows), m, Poly.zero())
        jc_postconditions(m, dec)
    with pytest.raises(AssertionError, match="_derivative_inverse called"):
        jordan_chevalley(Mat([[1, 1], [0, 1]]))


def test_jordan_chevalley_non_diagonalizable_over_q():
    # minimal polynomial (x^2+1)^2: s has irreducible quadratic factors
    b = Mat([[0, 1], [-1, 0]])
    m = Mat([
        [0, 1, 1, 0],
        [-1, 0, 0, 1],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ])
    dec = jordan_chevalley(m)
    jc_postconditions(m, dec)
    assert dec.s.data[0][:2] == b.data[0] and dec.s.data[1][:2] == b.data[1]


def test_jordan_chevalley_random_matrices():
    rng = random.Random(37)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = rand_mat(rng, n, n)
        jc_postconditions(m, jordan_chevalley(m))


def test_jordan_chevalley_needs_no_charpoly(monkeypatch):
    import liekit.exactlin as exactlin

    def refuse(m):
        raise AssertionError("charpoly called")

    rng = random.Random(43)
    m = rand_mat(rng, 5, 5)
    expected = jordan_chevalley(m)
    monkeypatch.setattr(exactlin, "charpoly", refuse)
    dec = exactlin.jordan_chevalley(m)
    assert dec == expected
    assert (dec.s + dec.n) == m and commutator(dec.s, dec.n).is_zero()


def test_jordan_chevalley_similarity_equivariance():
    rng = random.Random(41)
    for _ in range(10):
        n = rng.randint(2, 4)
        m = rand_mat(rng, n, n)
        while True:
            p = rand_mat(rng, n, n, -2, 2)
            if rank(p) == n:
                break
        _, _, pinv = rref_with_transform(p)
        conj = p @ m @ pinv
        assert jordan_chevalley(conj).s == p @ jordan_chevalley(m).s @ pinv

