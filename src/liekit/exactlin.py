"""Exact linear and polynomial algebra over the rationals.

No floats ever enter, so ranks, kernels, characteristic polynomials and
Jordan-Chevalley parts are exact, and identical inputs give bit-identical
outputs.

One matrix representation: a Mat is integer rows over one positive
denominator, (den, ints) in lowest terms, and every operator runs on those;
its Fraction entries (data) are a view for rendering.

One elimination engine: _rref, a sparse fraction-free elimination over the
integers (pivot loop _eliminate) whose one row operation is _clear; it
takes rows of ints or Fractions and returns the RREF as integer rows over
one denominator, (E, E R), which rref, Subspace.span and kernel wrap as a
Mat. The same loop and _clear with the modulus p = 2^61 - 1 give the rank
mod p (_rank_mod_p) behind _squarefree_mod_p, the Sylvester test, and
zero_multiplicity_mod_p, the count that ranks Cartan candidates.
_annihilator reduces the Krylov vectors v, A v, A^2 v, ... (A = m.ints)
with the same _clear and stops at the first dependency; minpoly is an lcm
of such annihilators, certified by q(m) = 0, and squarefree_part(p) is the
annihilator of p' under the companion matrix of p. Subspace holds a
canonical RREF basis (sums; membership and coordinates by one integer
check, int_coords, on the basis's den and ints); kernel is the
null rows of _rref of a square block, cut down by one projection of the
rest. jordan_chevalley, the one semisimplicity proof of a single matrix
(is_semisimple reads its n), takes the inverse of g' mod g from one
kernel too.

charpoly is Faddeev-LeVerrier over the integers on m.ints = d m, d = m.den,
with exact divisions and a closing Cayley-Hamilton check; is_nilpotent
calls it only on a matrix of trace 0.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _rat(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Mat:
    """Dense rational matrix: entry (i, j) is ints[i][j] / den, where den > 0
    shares no factor with all of ints, so equal matrices hold equal (den,
    ints). Every operator runs on ints; data is a Fraction view built on
    first use. Treat all three as immutable: a write into data is lost.
    """

    __slots__ = ("rows", "cols", "den", "ints", "_data")

    def __init__(self, data: Sequence[Sequence], cols: int | None = None):
        q = [[x if type(x) is int else _rat(x) for x in row] for row in data]
        cols = len(q[0]) if q else cols or 0
        if any(len(row) != cols for row in q):
            raise ValueError("ragged rows")
        # the lcm of the denominators shares no factor with all of d m
        d = math.lcm(*(x.denominator for row in q for x in row))
        self.rows, self.cols, self.den, self._data = len(q), cols, d, None
        self.ints = [[x.numerator * (d // x.denominator) for x in row] for row in q]

    @staticmethod
    def _of(den: int, ints: list[list[int]], cols: int) -> "Mat":
        """The matrix ints / den, den > 0, with the common factor divided out."""
        g = math.gcd(den, *itertools.chain.from_iterable(ints)) if den != 1 else 1
        if g != 1:
            den, ints = den // g, [[x // g for x in row] for row in ints]
        m = Mat.__new__(Mat)
        m.rows, m.cols, m.den, m.ints, m._data = len(ints), cols, den, ints, None
        return m

    @property
    def data(self) -> list[list[Fraction]]:
        if self._data is None:
            self._data = [_unscaled(row, self.den) for row in self.ints]
        return self._data

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat._of(1, [[0] * cols for _ in range(rows)], cols)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat._of(1, [[int(i == j) for j in range(n)] for i in range(n)], n)

    @staticmethod
    def from_flat(rows: int, cols: int, flat: Sequence, den: int = 1) -> "Mat":
        """The rows x cols matrix with the row-major entries flat / den."""
        if len(flat) != rows * cols:
            raise ValueError("flat length mismatch")
        m = Mat([flat[i * cols : (i + 1) * cols] for i in range(rows)], cols=cols)
        return m if den == 1 else Mat._of(m.den * den, m.ints, cols)

    @staticmethod
    def vecs(mats: Sequence["Mat"], cols: int) -> "Mat":
        """One row per matrix of mats: its entries, row-major, in cols columns."""
        d = math.lcm(*(m.den for m in mats))
        return Mat._of(d, [[x * (d // m.den) for row in m.ints for x in row]
                           for m in mats], cols)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.data)

    def transpose(self) -> "Mat":
        cols = [list(c) for c in zip(*self.ints)] or [[] for _ in range(self.cols)]
        return Mat._of(self.den, cols, self.rows)

    def __add__(self, other: "Mat") -> "Mat":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        d = math.lcm(self.den, other.den)
        a, b = d // self.den, d // other.den
        return Mat._of(d, [[a * x + b * y for x, y in zip(r1, r2)]
                           for r1, r2 in zip(self.ints, other.ints)], self.cols)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other * -1

    def __mul__(self, scalar) -> "Mat":
        s = scalar if type(scalar) is int else _rat(scalar)
        return Mat._of(self.den * s.denominator,
                       [[s.numerator * x for x in row] for row in self.ints], self.cols)

    __rmul__ = __mul__

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("inner dimension mismatch")
        if not other.rows:
            return Mat.zeros(self.rows, other.cols)
        return Mat._of(self.den * other.den, _int_product(self.ints, other.ints),
                       other.cols)

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mat) and self.shape == other.shape
                and self.den == other.den and self.ints == other.ints)

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, tuple(map(tuple, self.ints))))

    def __repr__(self) -> str:
        return f"Mat({self.data!r})"


def commutator(a: Mat, b: Mat) -> Mat:
    return a @ b - b @ a


def _int_product(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    """A B for integer matrices given as lists of rows, skipping zeros of A."""
    cols = len(B[0]) if B else 0
    out = []
    for arow in A:
        orow = [0] * cols
        for a, brow in zip(arow, B):
            if a:
                orow = [x + a * b for x, b in zip(orow, brow)]
        out.append(orow)
    return out


def _scaled_vec(v: Sequence, n: int) -> tuple[int, list[int]]:
    """(d, d v) for a vector v of n entries (ints, or anything _rat reads),
    d the lcm of their denominators."""
    if len(v) != n:
        raise ValueError("vector length mismatch")
    q = [x if type(x) is int else _rat(x) for x in v]
    d = math.lcm(*(x.denominator for x in q))
    return d, [x.numerator * (d // x.denominator) for x in q]


def _unscaled(w: Iterable[int], d: int) -> list[Fraction]:
    """The vector w / d of Fractions, for an integer vector w."""
    return [Fraction(x, d) if x else _ZERO for x in w]


# ---------------------------------------------------------------------------
# row reduction

def rref(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column list; zero rows last."""
    e, R, pivots = _rref(m.ints, m.cols)
    R.extend([0] * m.cols for _ in range(m.rows - len(R)))
    return Mat._of(e, R, m.cols), tuple(pivots)


def _rref(rows: Iterable[Sequence], cols: int
          ) -> tuple[int, list[list[int]], list[int]]:
    """(E, E R, pivots) for the nonzero rows R of the RREF of rows of ints or
    Fractions: E R is integral, and (E, E R) is the canonical form of Mat.

    One sparse elimination over the integers. Each nonzero row is scaled by
    the lcm of its denominators to a primitive integer row {column: int}.
    _eliminate clears each pivot column from the rows below its pivot row
    (forward elimination), then _clear clears it from the rows above (back
    substitution). Each final row is primitive with pivot entry a_k, so
    E = lcm |a_k| and row k of E R is E / a_k times it. The RREF is unique,
    so the pivot choice does not change the result, only its cost.
    """
    active = []
    for row in rows:
        nz = [(j, q) for j, q in enumerate(row) if q]
        if nz:
            d = math.lcm(*(q.denominator for _, q in nz))
            r = {j: q.numerator * (d // q.denominator) for j, q in nz}
            g = math.gcd(*r.values())
            active.append({j: v // g for j, v in r.items()} if g != 1 else r)
    echelon, pivots = _eliminate(active, cols)
    # row k is final once the pivots after it are cleared from it
    for k in range(len(echelon) - 1, 0, -1):
        echelon[:k] = _clear(echelon[:k], echelon[k], pivots[k])
    e = math.lcm(*(row[c] for c, row in zip(pivots, echelon)))
    R = []
    for c, row in zip(pivots, echelon):
        f = e // row[c]
        out = [0] * cols
        for j, v in row.items():
            out[j] = f * v
        R.append(out)
    return e, R, pivots


def _eliminate(active: list[dict[int, int]], cols: int, p: int = 0
               ) -> tuple[list[dict[int, int]], list[int]]:
    """Forward elimination of the rows {column: int} in active.

    In each column the candidate with the fewest nonzeros becomes the pivot
    row, so sparse systems do not fill in, and _clear eliminates that column
    from the other active rows. Returns the echelon rows and their pivot
    columns. With a modulus p the rows hold residues mod p and each pivot
    row is made monic first. The loop stops once no active row is left.
    """
    echelon: list[dict[int, int]] = []
    pivots: list[int] = []
    for c in range(cols):
        if not active:
            break
        best = -1
        for i, r in enumerate(active):
            if c in r and (best < 0 or len(r) < len(active[best])):
                best = i
        if best < 0:
            continue
        prow = active[best]
        active[best] = active[-1]
        active.pop()
        if p and prow[c] != 1:
            inv = pow(prow[c], -1, p)
            prow = {j: v * inv % p for j, v in prow.items()}
        active = _clear(active, prow, c, p)
        echelon.append(prow)
        pivots.append(c)
    return echelon, pivots


def _clear(rows: list[dict[int, int]], prow: dict[int, int],
           c: int, p: int = 0) -> list[dict[int, int]]:
    """rows with column c eliminated by prow, zero rows dropped.

    With a/f = prow[c]/r[c] in lowest terms, r becomes (a r - f prow) / its
    content, so every row stays a primitive integer row. With a modulus p
    (rows of residues, prow monic) r becomes r - f prow mod p instead.
    """
    a = prow[c]
    out = []
    for r in rows:
        f = r.get(c)
        if f:
            g = math.gcd(a, f)
            ag, fg = a // g, f // g
            if ag != 1:
                for j in r:
                    r[j] *= ag
            for j, v in prow.items():
                x = r.get(j, 0) - fg * v
                if p:
                    x %= p
                if x:
                    r[j] = x
                else:
                    del r[j]
            if not r:
                continue
            g = 1 if p else math.gcd(*r.values())
            if g != 1:
                for j in r:
                    r[j] //= g
        out.append(r)
    return out


# the Mersenne prime 2^61 - 1: residues stay below 2^61, products below 2^122
_P = (1 << 61) - 1


def _rank_mod_p(A: list[list[int]], cols: int) -> int:
    """Rank of the integer matrix A (rows of length cols) mod _P by _eliminate.

    It is at most the rank of A over Q, so a full rank mod p proves A of
    full rank over Q.
    """
    rows = []
    for row in A:
        r = {j: x % _P for j, x in enumerate(row) if x % _P}
        if r:
            rows.append(r)
    return len(_eliminate(rows, cols, _P)[1])


def rref_with_transform(m: Mat) -> tuple[Mat, tuple[int, ...], Mat]:
    """Like rref, but also returns invertible T with T @ m == R."""
    d = m.den
    aug = Mat._of(d, [row + [d * (i == j) for j in range(m.rows)]
                      for i, row in enumerate(m.ints)], m.cols + m.rows)
    R_aug, piv_aug = rref(aug)
    # pivots in the identity block happen exactly for zero rows of the m part,
    # so the m-part pivots are those < m.cols
    pivots = tuple(p for p in piv_aug if p < m.cols)
    e = R_aug.den
    R = Mat._of(e, [row[: m.cols] for row in R_aug.ints], m.cols)
    T = Mat._of(e, [row[m.cols :] for row in R_aug.ints], m.rows)
    return R, pivots, T


def rank(m: Mat) -> int:
    return len(rref(m)[1])


class Subspace:
    """Subspace of Q^ambient held as an RREF basis (rows).

    The basis matrix is always in reduced row echelon form with no zero rows,
    pivots strictly increasing and pivot entries 1 with zeros above and below,
    so equal subspaces compare equal componentwise.

    Membership is one exact integer check (int_coords) against E R, the
    basis held as (den, ints) = (E, E R): w / D, w integral, lies in the
    span exactly when E w = sum_i w[p_i] (E R)_i over the pivots p_i, and
    its coordinates over the rows are then the w[p_i] / D.
    """

    __slots__ = ("ambient", "basis", "pivots")

    def __init__(self, ambient: int, basis: Mat, pivots: tuple[int, ...]):
        self.ambient = ambient
        self.basis = basis
        self.pivots = pivots

    @staticmethod
    def span(ambient: int, rows: Iterable[Sequence]) -> "Subspace":
        """The span of rows of ints or rationals, each of length ambient."""
        rows = list(rows)
        for r in rows:
            if len(r) != ambient:
                raise ValueError("vector length mismatch")
        e, R, piv = _rref(rows, ambient)
        return Subspace(ambient, Mat._of(e, R, ambient), tuple(piv))

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, Mat.zeros(0, ambient), ())

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace(ambient, Mat.identity(ambient), tuple(range(ambient)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def rows(self) -> list[tuple[Fraction, ...]]:
        return [tuple(r) for r in self.basis.data]

    def int_coords(self, w: Sequence[int]) -> list[int] | None:
        """[w[p] for p in pivots] when the integer vector w lies in the span,
        else None: the coordinates of w / D over the rows, times D."""
        if len(w) != self.ambient:
            raise ValueError("vector length mismatch")
        e, rows = self.basis.den, self.basis.ints
        residual = [e * x for x in w]
        for p, row in zip(self.pivots, rows):
            f = w[p]
            if f:
                residual = [r - f * x for r, x in zip(residual, row)]
        return None if any(residual) else [w[p] for p in self.pivots]

    def contains(self, v: Sequence) -> bool:
        return self.int_coords(_scaled_vec(v, self.ambient)[1]) is not None

    def coords(self, v: Sequence):
        """Coefficients of v over the RREF basis rows (its pivot entries), or None."""
        if not self.contains(v):
            return None
        return tuple(_rat(v[p]) for p in self.pivots)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.int_coords(r) is not None for r in other.basis.ints)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return Subspace.span(self.ambient, self.basis.ints + other.basis.ints)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def _null_rows(rows: Sequence[Sequence], pivots: Sequence[int],
               cols: int, one=1) -> list[list]:
    """One vector per free column of an RREF matrix, spanning its null space
    (E times those of R, for rows E R and one=E)."""
    pivset = set(pivots)
    out = []
    for c in range(cols):
        if c in pivset:
            continue
        v = [0] * cols
        v[c] = one
        for i, p in enumerate(pivots):
            if rows[i][c]:
                v[p] = -rows[i][c]
        out.append(v)
    return out


def kernel(m: Mat | Sequence[Sequence], cols: int | None = None) -> Subspace:
    """Null space {v : m v = 0} as a Subspace of Q^cols. m is a Mat, or a
    list of rows of ints or Fractions, each of length cols (cols needed if
    empty; ValueError otherwise, as in Subspace.span). The null rows
    B of _rref of the first cols rows A span ker A; the rest C is projected:
    ker [A; C] = {x B : x in ker(C B^T)}, the span of N B for the null rows
    N of _rref(C B^T). So a tall system's redundant rows, which would fill
    in under the pivot loop, become len(B) entries each by one product."""
    if isinstance(m, Mat):
        m, cols = m.ints, m.cols
    elif cols is None:
        if not m:
            raise ValueError("an empty system needs cols")
        cols = len(m[0])
    if any(len(row) != cols for row in m):
        raise ValueError("vector length mismatch")
    e, R, piv = _rref(m[:cols], cols)
    B = _null_rows(R, piv, cols, e)
    M = _int_product(m[cols:], [list(c) for c in zip(*B)])
    if any(map(any, M)):
        e, R, piv = _rref(M, len(B))
        B = _int_product(_null_rows(R, piv, len(B), e), B)
    return Subspace.span(cols, B)


# ---------------------------------------------------------------------------
# polynomials

class Poly:
    """Univariate rational polynomial, coefficients lowest degree first."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Sequence):
        cs = [_rat(x) for x in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.c = tuple(cs)

    @staticmethod
    def zero() -> "Poly":
        return Poly([])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @property
    def degree(self) -> int:
        return len(self.c) - 1  # zero polynomial gets -1

    def is_zero(self) -> bool:
        return not self.c

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.c == other.c

    def __hash__(self):
        return hash(self.c)

    def __add__(self, other: "Poly") -> "Poly":
        return Poly([x + y for x, y in itertools.zip_longest(self.c, other.c,
                                                             fillvalue=_ZERO)])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.c or not other.c:
                return Poly.zero()
            out = [_ZERO] * (len(self.c) + len(other.c) - 1)
            for i, a in enumerate(self.c):
                if a:
                    for j, b in enumerate(other.c):
                        if b:
                            out[i + j] += a * b
            return Poly(out)
        return Poly([_rat(other) * a for a in self.c])

    __rmul__ = __mul__

    def __mod__(self, other: "Poly") -> "Poly":
        """The remainder of self by other, by long division."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r, dd = list(self.c), other.degree
        for k in range(len(r) - 1 - dd, -1, -1):
            f = r[k + dd] / other.c[-1]
            if f:
                for i, b in enumerate(other.c):
                    r[k + i] -= f * b
        return Poly(r)

    def derivative(self) -> "Poly":
        return Poly([i * a for i, a in enumerate(self.c)][1:])

    def eval_mat(self, m: Mat) -> Mat:
        """self(m) by integer Horner steps on A = m.ints = d m: with c_i = a_i / b,
        they give sum_i a_i d^(k-i) A^i = b d^k self(m), k = degree."""
        if not m.is_square():
            raise ValueError("eval_mat needs a square matrix")
        n, d = m.rows, m.den
        b = math.lcm(*(a.denominator for a in self.c))
        acc = [[0] * n for _ in range(n)]
        for i, a in enumerate(reversed(self.c)):
            acc = _int_product(m.ints, acc)   # A acc = acc A skips the zeros of A
            x = a.numerator * (b // a.denominator) * d ** i
            for j in range(n):
                acc[j][j] += x
        return Mat._of(b * d ** max(self.degree, 0), acc, n)

    def compose_mod(self, q: "Poly", mod: "Poly") -> "Poly":
        """self(q) reduced modulo mod."""
        acc = Poly.zero()
        for a in reversed(self.c):
            acc = (acc * q + Poly([a])) % mod
        return acc

    def __repr__(self) -> str:
        return f"Poly({list(self.c)!r})"


def squarefree_part(p: Poly) -> Poly:
    """The radical p / gcd(p, p'), monic. Same roots, each simple: the
    annihilator of p' under the companion matrix C of p (multiplication by
    x on Q[x]/(p)), since c(C) p' = 0 exactly when p divides c p'."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    r = p.degree
    companion = [[int(i == j + 1) for j in range(r - 1)] + [-p.c[i] / p.c[-1]]
                 for i in range(r)]
    return _annihilator(Mat(companion, cols=r), _scaled_vec(p.derivative().c, r)[1])


def _derivative_inverse(g: Poly) -> Poly:
    """h with h g' = 1 (mod g) and deg h < deg g, for squarefree g.

    One kernel solve: the columns of the r x (r + 1) system are x^i g' mod g
    (i < r = deg g) and then -1, so a kernel line (h, t) has h g' = t
    (mod g). For squarefree g, multiplication by g' is invertible mod g, the
    kernel is one line and h is read from it scaled to t = 1.
    """
    r = g.degree
    cols, p = [], g.derivative()
    for _ in range(r):
        cols.append(list(p.c) + [_ZERO] * (r - len(p.c)))
        p = (Poly.x() * p) % g
    cols.append([-_ONE] + [_ZERO] * (r - 1))
    ker = kernel(Mat(cols, cols=r).transpose())
    if ker.dim != 1 or not ker.basis.ints[0][r]:
        raise AssertionError(
            "proof failed: squarefree part not coprime with its derivative")
    line = ker.basis.ints[0]
    return Poly([Fraction(x, line[r]) for x in line[:r]])


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials

def charpoly(m: Mat) -> Poly:
    """Characteristic polynomial det(xI - m), monic.

    Faddeev-LeVerrier over the integers on A = m.ints = d m, d = m.den:
    M_1 = I, c_(n-k) = -tr(A M_k) / k, an exact division, and
    M_(k+1) = A M_k + c_(n-k) I, so that M_(n+1) = p(A) for the
    characteristic polynomial p of A. Once some M_k is 0 every later
    coefficient is 0, and the loop stops; it must stop by M_(n+1) = p(A) = 0
    (Cayley-Hamilton), or the run is refused. The coefficient of x^k in
    det(xI - m) is c_k / d^(n-k).
    """
    if not m.is_square():
        raise ValueError("charpoly needs a square matrix")
    n = m.rows
    d, A = m.den, m.ints
    c = [0] * n + [1]
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        M = _int_product(A, M)
        c[n - k], r = divmod(-sum(M[i][i] for i in range(n)), k)
        if r:
            raise AssertionError(f"proof failed: tr(A M_{k}) is not divisible by {k}")
        for i in range(n):
            M[i][i] += c[n - k]
        if not any(map(any, M)):
            break
    if any(map(any, M)):   # M_(n+1) = p(A)
        raise AssertionError("proof failed: charpoly p has p(A) != 0 (Cayley-Hamilton)")
    return Poly([Fraction(x, d ** (n - k)) for k, x in enumerate(c)])


def zero_multiplicity_mod_p(A: list[list[int]]) -> int:
    """Multiplicity of the root 0 of charpoly(A) mod p = 2^61 - 1.

    A is a square integer matrix, as a list of rows, such as m.ints = d m
    (d = m.den): its roots are d times those of m, so over Q its zero
    multiplicity is that of charpoly(m). Mod p it is n - rank A^k for large
    k: the ranks of A, A^2, A^4, ... mod p (_rank_mod_p) fall until a
    squaring keeps the rank, which no later power then lowers. Each power
    before that lowers the rank, so the count m is exactly dim ker(A^t mod
    p) for every t >= m, and an upper bound on dim ker A^t over Q: never
    below the exact count.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("zero_multiplicity_mod_p needs a square matrix")
    B, last, r = A, n + 1, _rank_mod_p(A, n)
    while 0 < r < last:
        B = [[x % _P for x in row] for row in _int_product(B, B)]
        last, r = r, _rank_mod_p(B, n)
    return n - r


def _annihilator(m: Mat, v: Sequence[int]) -> Poly:
    """The least monic c with c(m) v = 0, for a square m and an integer v.

    The Krylov vectors w_k = A^k v / g_k (A = m.ints = d m, d = m.den) are
    formed one at a time, each A w_(k-1) over its content. Vector k gets the
    unit tag 1 in column n + k and is reduced by _clear against the echelon
    rows before it, so its tags record the combination taken. The first one
    that reduces to tags t only gives sum_i t_i w_i = 0, so c has the
    coefficients t_i d^i (g_k / g_i) / (t_k d^k).
    """
    n, d = m.rows, m.den
    columns = [list(col) for col in zip(*m.ints)]
    w, scale = list(v), [1]
    echelon: list[tuple[int, dict[int, int]]] = []
    for k in range(n + 1):
        row = {i: x for i, x in enumerate(w) if x}
        row[n + k] = 1
        for c, prow in echelon:
            (row,) = _clear([row], prow, c)   # its tag n + k stays nonzero
        c = min(row)
        if c >= n:
            lead = row[n + k] * d ** k
            return Poly([Fraction(row.get(n + i, 0) * d ** i * (scale[k] // scale[i]),
                                  lead) for i in range(k + 1)])
        echelon.append((c, row))
        (w,) = _int_product([w], columns)   # A w, as w^T A^T
        g = math.gcd(*w) or 1
        w = [x // g for x in w]
        scale.append(scale[k] * g)
    raise AssertionError(
        "proof failed: Cayley-Hamilton: A^n v depends on the vectors before it")


def minpoly(m: Mat) -> Poly:
    """Minimal polynomial mu of m, certified by mu(m) = 0.

    q starts as the annihilator of v_i = i^2 + 1 (_annihilator). While
    q(m) != 0, q is multiplied by the annihilator of a nonzero column
    q(m) e_j: the product is lcm(q, mu_(e_j)), a divisor of mu of higher
    degree, so the loop ends at q = mu.
    """
    if not m.is_square():
        raise ValueError("minpoly needs a square matrix")
    q = _annihilator(m, [i * i + 1 for i in range(m.rows)])
    while True:
        u = next((col for col in zip(*q.eval_mat(m).ints) if any(col)), None)
        if u is None:
            return q
        q = q * _annihilator(m, u)


def is_nilpotent(m: Mat) -> bool:
    """Nilpotent operator test: characteristic polynomial is x^n. A nonzero
    trace disproves it before charpoly runs."""
    if m.is_square() and sum(row[i] for i, row in enumerate(m.ints)):
        return False
    return all(not c for c in charpoly(m).c[:-1])


def _squarefree_mod_p(mu: Poly) -> bool:
    """True proves the nonzero mu squarefree; False proves nothing.

    mu is squarefree exactly when gcd(mu, mu') = 1, that is when the
    (2r - 1)-square Sylvester matrix S of the integer-scaled mu (degree r)
    and its derivative is regular: its rows x^i mu (i < r - 1) and x^i mu'
    (i < r) are independent. Full rank of S mod p (_rank_mod_p) proves
    that; the 0 x 0 S of a constant mu is squarefree.
    """
    r, f = mu.degree, _scaled_vec(mu.c, len(mu.c))[1]
    g = [i * a for i, a in enumerate(f)][1:]
    rows = [[0] * i + f + [0] * (r - 2 - i) for i in range(r - 1)]
    rows += [[0] * i + g + [0] * (r - 1 - i) for i in range(r)]
    return _rank_mod_p(rows, len(rows)) == len(rows)


# ---------------------------------------------------------------------------
# Jordan-Chevalley decomposition

class JordanChevalley(NamedTuple):
    s: Mat        # semisimple part
    n: Mat        # nilpotent part
    witness: Poly  # q with s == q(m), for audit


def jordan_chevalley(m: Mat) -> JordanChevalley:
    """Exact m = s + n with s semisimple, n nilpotent, [s, n] = 0.

    The one semisimplicity proof of a single matrix. A minimal polynomial
    mu = x^k proves m nilpotent: then (0, m, 0), with no Newton step. g,
    the squarefree part of mu, is mu exactly when m is semisimple
    (_squarefree_mod_p proves it, else squarefree_part decides): then
    (m, 0, x mod mu). Else
    Newton a <- a - g(a) h(a), h = g'^-1 mod g from one kernel solve
    (_derivative_inverse, whose check proves g squarefree), runs on the
    iterate as a polynomial q in m mod mu, quadratically, so ceil(log2 n)
    + 1 steps suffice. Its closing g(q) = 0 mod mu, with mu(m) = 0, proves
    g(s) = 0 for s = q(m): s is semisimple. Purely rational throughout.
    """
    if not m.is_square():
        raise ValueError("jordan_chevalley needs a square matrix")
    n_dim = m.rows
    mu = minpoly(m)
    if not any(mu.c[:-1]):   # mu = x^k: mu(m) = 0 proves m nilpotent
        return JordanChevalley(Mat.zeros(n_dim, n_dim), m, Poly.zero())
    g = mu if _squarefree_mod_p(mu) else squarefree_part(mu)
    if g == mu:
        return JordanChevalley(m, Mat.zeros(n_dim, n_dim), Poly.x() % mu)
    h = _derivative_inverse(g)
    q = Poly.x() % mu
    limit = 1
    while (1 << limit) < max(n_dim, 1):
        limit += 1
    for _ in range(limit + 1):
        gq = g.compose_mod(q, mu)
        if gq.is_zero():
            break
        hq = h.compose_mod(q, mu)
        q = (q - gq * hq) % mu
    if not g.compose_mod(q, mu).is_zero():
        raise AssertionError("proof failed: g(s) != 0 for the semisimple part s")
    s = q.eval_mat(m)
    return JordanChevalley(s, m - s, q)


def is_semisimple(m: Mat) -> bool:
    """Semisimple operator test: m is its own semisimple part, as
    jordan_chevalley decides and proves it."""
    return jordan_chevalley(m).n.is_zero()
