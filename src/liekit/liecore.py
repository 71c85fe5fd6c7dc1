"""Structure-constant Lie algebras over Q and the constructions on them.

An algebra is a dimension, basis labels and a sparse bracket table, also
held as integers over one denominator: int_bracket and int_ad are the only
bracket loops, and bracket and ad divide their results once. Systems built
from the table reach exactlin as integer rows (only their kernels and
spans are used, which no nonzero row scaling changes); all subspace
outputs are canonical RREF bases, so identical inputs give identical
bases. A LinearLieAlgebra is a bracket-closed space of matrices
(derivation algebras, tori, acting parts of semidirect sums). Every table
built from another one (subalgebras, basis changes, matrix algebras)
comes from induced_table, which reads its coordinates from integer
products through one pull-back, _Coordinates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

from .exactlin import (
    Mat,
    Subspace,
    _int_product,
    _null_rows,
    _rat,
    _scaled_vec,
    _unscaled,
    kernel,
    rref_with_transform,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LieError(ValueError):
    """Base class for structural failures with attached witnesses."""


class TableError(LieError):
    """Malformed structure-constant table."""


class JacobiError(LieError):
    def __init__(self, violations):
        self.violations = violations
        shown = ", ".join(str(t) for t in violations[:5])
        super().__init__(f"Jacobi identity fails on basis triples: {shown}"
                         + (" ..." if len(violations) > 5 else ""))


class NotADerivationError(LieError):
    def __init__(self, gen_index: int, pair: tuple[int, int]):
        self.gen_index = gen_index
        self.pair = pair
        super().__init__(
            f"generator {gen_index} violates the Leibniz rule on basis pair {pair}")


class NotClosedError(LieError):
    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(f"span is not bracket-closed: commutator of generators "
                         f"{pair} leaves the span")


class LieAlgebra:
    """Finite-dimensional Lie algebra given by structure constants.

    The table stores, for each basis pair i < j (0-based), the nonzero
    coordinates of [e_i, e_j]; brackets with i >= j follow by antisymmetry.
    den is the lcm of its denominators, and the adjacency built from it maps
    i to {j: signed terms of den [e_i, e_j]}, all integers, so int_bracket
    and int_ad only visit the nonzero coordinates of x. The table is not
    changed after construction, so what depends on it alone ([L, L], the
    series, the center, Der(L) and its structure-constant copy) is computed
    once per instance, in _cache (see _cached). Randomized results (the
    toral parts and the nilradical of structure) are kept there too, under
    a key that holds the random stream that drew them.
    """

    __slots__ = ("dim", "labels", "table", "den", "_adj", "_cache")

    def __init__(self, dim: int,
                 table: dict[tuple[int, int], Iterable[tuple[int, object]]],
                 labels: Sequence[str] | None = None):
        if dim < 0:
            raise TableError("negative dimension")
        self.dim = dim
        if labels is None:
            labels = tuple(f"e{i + 1}" for i in range(dim))
        else:
            labels = tuple(labels)
            if len(labels) != dim:
                raise TableError("label count != dim")
            if len(set(labels)) != dim:
                raise TableError("duplicate labels")
        self.labels = labels
        clean: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
        for (i, j), terms in table.items():
            if not (0 <= i < j < dim):
                raise TableError(f"bad index pair ({i}, {j}); need 0 <= i < j < dim")
            seen = {}
            for k, coef in terms:
                if not (0 <= k < dim):
                    raise TableError(f"bad target index {k} in bracket ({i}, {j})")
                if k in seen:
                    raise TableError(f"duplicate target {k} in bracket ({i}, {j})")
                seen[k] = _rat(coef)
            nonzero = sorted((k, c) for k, c in seen.items() if c)
            if nonzero:
                clean[(i, j)] = tuple(nonzero)
        self.table = clean
        self.den = den = math.lcm(*(c.denominator for t in clean.values() for _, c in t))
        adj: list[dict[int, tuple[tuple[int, int], ...]]] = [{} for _ in range(dim)]
        for (i, j), terms in clean.items():
            ints = tuple((k, c.numerator * (den // c.denominator)) for k, c in terms)
            adj[i][j] = ints
            adj[j][i] = tuple((k, -c) for k, c in ints)
        self._adj = adj
        self._cache: dict[object, object] = {}

    # -- basic bracket machinery -------------------------------------------

    def int_bracket(self, x: Sequence[int], y: Sequence[int]) -> list[int]:
        """den [x, y] for integer vectors x and y."""
        out = [0] * self.dim
        # pair {i, j} adds (x_i y_j - x_j y_i) [e_i, e_j]; it is nonzero only
        # if x_i or x_j is, and is taken once from its smaller such endpoint
        for i, a in enumerate(x):
            if not a:
                continue
            yi = y[i]
            for j, terms in self._adj[i].items():
                b = x[j]
                if b and j < i:
                    continue
                coef = a * y[j] - b * yi
                if coef:
                    for k, c in terms:
                        out[k] += coef * c
        return out

    def int_ad(self, x: Sequence[int]) -> list[list[int]]:
        """den ad x for an integer vector x, as rows; column j is den [x, e_j]."""
        rows = [[0] * self.dim for _ in range(self.dim)]
        for i, a in enumerate(x):
            if a:
                for j, terms in self._adj[i].items():
                    for k, c in terms:
                        rows[k][j] += a * c
        return rows

    def bracket(self, x: Sequence, y: Sequence) -> list[Fraction]:
        dx, xv = _scaled_vec(x, self.dim)
        dy, yv = _scaled_vec(y, self.dim)
        return _unscaled(self.int_bracket(xv, yv), dx * dy * self.den)

    def ad_traces(self) -> list[int]:
        """den tr ad e_i = sum_j den c_ij^j for each basis vector e_i."""
        return [sum(c for j, terms in adj.items() for k, c in terms if k == j)
                for adj in self._adj]

    def ad(self, x: Sequence) -> Mat:
        """Matrix of y -> [x, y]; column j is [x, e_j]."""
        d, xv = _scaled_vec(x, self.dim)
        return Mat._of(d * self.den, self.int_ad(xv), self.dim)

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    def basis_vector(self, i: int) -> list[Fraction]:
        v = [_ZERO] * self.dim
        v[i] = _ONE
        return v

    # -- predicates ----------------------------------------------------------

    def is_nilpotent(self) -> bool:
        return series(self, "lower_central")[-1].dim == 0

    def is_solvable(self) -> bool:
        return series(self, "derived")[-1].dim == 0

    def is_abelian(self) -> bool:
        return not self.table

    def __eq__(self, other) -> bool:
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self.labels == other.labels and self.table == other.table)

    def __hash__(self):
        return hash((self.dim, self.labels, tuple(sorted(self.table.items()))))

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, brackets={len(self.table)})"


def verify_structure(L: LieAlgebra) -> list[tuple[int, int, int]]:
    """All basis triples (i, j, k), i<j<k, where the Jacobi identity fails.

    An empty report means the table is a Lie algebra (antisymmetry holds by
    construction since only i < j brackets are stored).
    """
    e = _units(L.dim)

    def term(i, j, k):   # den^2 [[e_i, e_j], e_k]
        return L.int_bracket(L.int_bracket(e[i], e[j]), e[k])

    return [(i, j, k) for i, j, k in combinations(range(L.dim), 3)
            if any(map(sum, zip(term(i, j, k), term(j, k, i), term(k, i, j))))]


def _units(n: int) -> list[list[int]]:
    """The basis vectors e_0, ..., e_(n-1) of Q^n as integer vectors."""
    return [[int(t == i) for t in range(n)] for i in range(n)]


def _basis_ads(L: LieAlgebra) -> list[list[list[int]]]:
    """den ad e_i for every basis vector e_i, as integer rows."""
    return [L.int_ad(e) for e in _units(L.dim)]


def product_space(L: LieAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """[a, b] = span of brackets of basis pairs, taken on the integer rows."""
    if a.ambient != L.dim or b.ambient != L.dim:
        raise ValueError("subspace ambient must match the algebra dimension")
    rows = []
    for x in a.basis.ints:
        for y in b.basis.ints:
            w = L.int_bracket(x, y)
            if any(w):
                rows.append(w)
    return Subspace.span(L.dim, rows)


def _cached(L: LieAlgebra, key: Hashable, build: Callable[[], object]):
    """L's value under key, from build() on the first call: the one cache.

    A randomized build keys on its random stream; only that stream reuses it.
    """
    if key not in L._cache:
        L._cache[key] = build()
    return L._cache[key]


def series(L: LieAlgebra, kind: str) -> list[Subspace]:
    """Lower central or derived series, stopping at stabilization.

    The list starts with the full algebra and ends either with the zero
    subspace or with the first repeated term (so a perfect algebra shows its
    stabilization explicitly). Computed once per algebra; each call returns
    a new list.
    """
    if kind not in ("lower_central", "derived"):
        raise ValueError("kind must be 'lower_central' or 'derived'")
    return list(_cached(L, kind, lambda: _compute_series(L, kind)))


def derived_algebra(L: LieAlgebra) -> Subspace:
    """[L, L], computed once per algebra; both series start from it."""
    return _cached(L, "derived_algebra",
                  lambda: product_space(L, L.full_space(), L.full_space()))


def _compute_series(L: LieAlgebra, kind: str) -> tuple[Subspace, ...]:
    full = L.full_space()
    chain = [full]
    for _ in range(L.dim + 1):
        cur = chain[-1]
        if cur.dim == 0:
            break
        if len(chain) == 1:
            nxt = derived_algebra(L)
        else:
            nxt = product_space(L, full if kind == "lower_central" else cur, cur)
        chain.append(nxt)
        if nxt.dim == cur.dim:
            break
    return tuple(chain)


def center(L: LieAlgebra) -> Subspace:
    """The common kernel of the den ad e_i, stacked; computed once per algebra."""
    return _cached(L, "center", lambda: kernel(
        [row for ad in _basis_ads(L) for row in ad], L.dim))


def normalizer(L: LieAlgebra, s: Subspace) -> Subspace:
    """{x : [x, s] <= s}: the kernel of one block P den ad(-E v) per row v
    of s, (E, E R) the basis's (den, ints) and P the rows with kernel s
    (_null_rows), E^2 den times the residual of [x, v] mod s. No rows when
    s is 0 or L."""
    if s.ambient != L.dim:
        raise ValueError("subspace ambient must match the algebra dimension")
    e, rows = s.basis.den, s.basis.ints
    proj = _null_rows(rows, s.pivots, s.ambient, e)
    system = [r for v in rows for r in _int_product(proj, L.int_ad([-x for x in v]))]
    return kernel(system, L.dim)


def induced_table(k: int, product: Callable[[int, int], object],
                  coords: Callable[[object], Sequence | None],
                  ) -> dict[tuple[int, int], list[tuple[int, Fraction]]]:
    """Structure constants of a k-dimensional space closed under a product.

    `product(a, b)` is the product of basis elements a < b in ambient terms,
    as an integer vector with its denominator, and `coords` (_Coordinates)
    re-expresses it over the basis (None when it lies outside the span,
    which raises NotClosedError with the pair).
    """
    table: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for a in range(k):
        for b in range(a + 1, k):
            cs = coords(product(a, b))
            if cs is None:
                raise NotClosedError((a, b))
            terms = [(t, c) for t, c in enumerate(cs) if c]
            if terms:
                table[(a, b)] = terms
    return table


class _Coordinates:
    """The map (w, D) -> coordinates of w / D over the independent rows of
    basis B, or None outside their span: the one pull-back. With R = T B
    the RREF (span) and T held as t T, Subspace.int_coords(w) on R gives D
    c_i, c_i those over the rows of R, and pull takes integer coordinates
    over R's rows to t times those over B, summed over the nonzeros of t T:
    one per coordinate when B is in RREF (restrict, derivations), as T = I.
    """

    def __init__(self, basis: Mat):
        R, piv, T = rref_with_transform(basis)
        if len(piv) != basis.rows:
            raise ValueError("basis rows are linearly dependent")
        self.span, self._t = Subspace(basis.cols, R, piv), T.den
        self._to_basis = [[(b, x) for b, x in enumerate(trow) if x] for trow in T.ints]

    def pull(self, cs: Sequence[int]) -> list[int]:
        """t sum_i cs_i T_i: cs over R's rows, taken over B."""
        acc = [0] * len(self._to_basis)
        for f, trow in zip(cs, self._to_basis):
            if f:
                for b, x in trow:
                    acc[b] += f * x
        return acc

    def __call__(self, vec: tuple[list[int], int]) -> tuple[Fraction, ...] | None:
        w, den = vec
        cs = self.span.int_coords(w)
        return None if cs is None else tuple(_unscaled(self.pull(cs), den * self._t))


def _on_rows(L: LieAlgebra, basis: Mat, labels: Sequence[str] | None) -> LieAlgebra:
    """The algebra on the rows of basis; den d^2 [b_a, b_b] is integral, d = basis.den."""
    rows, den = basis.ints, L.den * basis.den ** 2
    table = induced_table(basis.rows, lambda a, b: (L.int_bracket(rows[a], rows[b]), den),
                          _Coordinates(basis))
    return LieAlgebra(basis.rows, table, labels)


def restrict(L: LieAlgebra | LinearLieAlgebra, s: Subspace
             ) -> LieAlgebra | LinearLieAlgebra:
    """The subalgebra on s's RREF basis, with NotClosedError on failure: for
    a matrix algebra L, the matrix algebra of the basis's elements of L."""
    if s.ambient != L.dim:
        raise ValueError("subspace ambient must match the algebra dimension")
    if isinstance(L, LinearLieAlgebra):
        return LinearLieAlgebra(L.ambient, [L.element(row) for row in s.basis.data])
    return _on_rows(L, s.basis, tuple(f"s{i + 1}" for i in range(s.dim)))


def change_basis(L: LieAlgebra, p: Mat) -> LieAlgebra:
    """Same algebra written on the new basis given by the rows of p, which
    must be invertible (ValueError)."""
    if p.shape != (L.dim, L.dim):
        raise ValueError("basis matrix must be dim x dim")
    return _on_rows(L, p, None)


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Direct sum of ideals; blocks do not interact. A label of b that is
    taken gets primes appended until it is free."""
    table: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for (i, j), terms in a.table.items():
        table[(i, j)] = list(terms)
    off = a.dim
    for (i, j), terms in b.table.items():
        table[(i + off, j + off)] = [(k + off, c) for k, c in terms]
    labels = list(a.labels)
    for lab in b.labels:
        while lab in labels:
            lab += "'"
        labels.append(lab)
    return LieAlgebra(a.dim + b.dim, table, labels)


class Extension(NamedTuple):
    """A Lie algebra together with a designated nilpotent ideal and complement.

    `validated` is True once nilradical(total) has been checked to equal
    the designated ideal; the raw semidirect constructor leaves it False.
    """
    total: LieAlgebra
    nilideal: Subspace
    complement: Subspace
    validated: bool = False


class LinearLieAlgebra:
    """A bracket-closed space of n x n matrices with induced constants.

    The closure witness is the induced structure-constant table itself: the
    commutator of every pair of basis elements is re-expressed over the basis
    during construction, and failure raises NotClosedError with the pair.
    This runs over the integers. Basis matrix a is held as (d_a, d_a m_a)
    (Mat.den, Mat.ints), so [m_a, m_b] is an integer matrix over d_a d_b,
    read by _Coordinates on the basis flattened row-major. Der(L), closed by
    theorem, sets _deferred: its table and witness wait for the first read.

    The Cartan search reads ad x from the matrices, not from the table:
    int_ad and ad_traces read commutators only at the pivots of the RREF
    of the flattened basis, which closure makes enough. The table serves
    is_nilpotent (the series of to_abstract, built once per instance).
    """

    _deferred = False

    def __init__(self, ambient: LieAlgebra, basis: Sequence[Mat]):
        self.ambient = ambient
        self.basis = tuple(basis)
        n = ambient.dim
        for m in self.basis:
            if m.shape != (n, n):
                raise ValueError("basis matrices must match the ambient dimension")
        self._vecs = Mat.vecs(self.basis, n * n)   # D m_a flattened, one den D
        self._coords = _Coordinates(self._vecs)
        if not self._deferred:
            self.table   # the closure witness, at construction

    @cached_property
    def table(self) -> dict[tuple[int, int], list[tuple[int, Fraction]]]:
        return induced_table(len(self.basis), self._commutator, self._coords)

    def _commutator(self, a: int, b: int) -> tuple[list[int], int]:
        """[m_a, m_b] vectorized row-major, as (integer vector, denominator)."""
        A, B = self.basis[a], self.basis[b]
        return ([x - y for r1, r2 in zip(_int_product(A.ints, B.ints),
                                         _int_product(B.ints, A.ints))
                 for x, y in zip(r1, r2)], A.den * B.den)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    @cached_property
    def _entries(self) -> list[list[tuple[int, int, int]]]:
        """The nonzeros (row, column, value) of each D m_a."""
        n = self.ambient.dim
        return [[(*divmod(p, n), v) for p, v in enumerate(row) if v]
                for row in self._vecs.ints]

    def _int_sum(self, x: Sequence[int]) -> list[list[int]]:
        """D sum_a x_a m_a for an integer vector x, as rows."""
        n = self.ambient.dim
        out = [[0] * n for _ in range(n)]
        for c, ents in zip(x, self._entries):
            if c:
                for r, k, v in ents:
                    out[r][k] += c * v
        return out

    def element(self, coeffs: Sequence) -> Mat:
        if len(coeffs) != self.dim:
            raise ValueError("coefficient count must match the dimension")
        d, x = _scaled_vec(coeffs, self.dim)
        return Mat._of(d * self._vecs.den, self._int_sum(x), self.ambient.dim)

    def int_ad(self, x: Sequence[int]) -> list[list[int]]:
        """D^2 t ad x for an integer vector x, as rows over the basis.

        With X = D sum_a x_a m_a (_int_sum), column a holds [X, D m_a] =
        D^2 [x, m_a] at the pivots p_i of R: its coordinates over R's rows,
        since the span is closed, pulled back over the basis by t T. Each
        nonzero v at (r, k) of D m_a adds X[i][r] v at the pivots (i, k)
        and takes v X[k][j] off at the pivots (r, j); no other entry of a
        commutator is formed.
        """
        n, X = self.ambient.dim, self._int_sum(x)
        by_col, by_row = [[] for _ in range(n)], [[] for _ in range(n)]
        for i, p in enumerate(self._coords.span.pivots):
            pr, pc = divmod(p, n)
            by_col[pc].append((i, pr))
            by_row[pr].append((i, pc))
        cols = []
        for ents in self._entries:
            out = [0] * self.dim
            for r, k, v in ents:
                for i, pr in by_col[k]:
                    out[i] += X[pr][r] * v
                xk = X[k]
                for i, pc in by_row[r]:
                    out[i] -= v * xk[pc]
            cols.append(self._coords.pull(out))
        return [list(row) for row in zip(*cols)]

    def ad_traces(self) -> list[int]:
        """E D tr ad m_a for each basis matrix, E R the RREF's integer rows.

        tr ad X = sum_j [X, R_j] at p_j, the diagonal over R's rows: a linear
        form <w, X>. A nonzero v at (r, k) of E R_j, p_j = (i, c), gives w
        v at (i, r) when k = c and -v at (k, c) when r = i.
        """
        n, span = self.ambient.dim, self._coords.span
        w = [[0] * n for _ in range(n)]
        for p, row in zip(span.pivots, span.basis.ints):
            i, c = divmod(p, n)
            for q, v in enumerate(row):
                if v:
                    r, k = divmod(q, n)
                    if k == c:
                        w[i][r] += v
                    if r == i:
                        w[k][c] -= v
        return [sum(w[r][k] * v for r, k, v in ents) for ents in self._entries]

    def is_nilpotent(self) -> bool:
        """Decided by the table's lower central series."""
        return self._abstract.is_nilpotent()

    @cached_property
    def _abstract(self) -> LieAlgebra:
        return self.to_abstract()

    def coords(self, m: Mat) -> tuple[Fraction, ...] | None:
        """Coefficients of m over the basis, or None when m is outside."""
        if m.shape != (self.ambient.dim, self.ambient.dim):
            raise ValueError("matrix shape must match the ambient dimension")
        return self._coords(([x for row in m.ints for x in row], m.den))

    def contains(self, m: Mat) -> bool:
        return self.coords(m) is not None

    def to_abstract(self) -> LieAlgebra:
        labels = tuple(f"D{i + 1}" for i in range(self.dim))
        return LieAlgebra(self.dim, dict(self.table), labels)

    def __repr__(self) -> str:
        return f"LinearLieAlgebra(dim={self.dim}, on={self.ambient.dim})"


def semidirect_sum(mats: Sequence[Mat], inner: LieAlgebra,
                   act_labels: Sequence[str] | None = None) -> Extension:
    """Semidirect sum of a matrix Lie algebra acting on `inner`.

    The span of the generators must be closed under matrix commutators
    (NotClosedError). Then Jacobi can fail only on triples (t_a, e_i, e_j),
    where it is the Leibniz rule of t_a on (e_i, e_j): the first such failure
    raises NotADerivationError(a, (i, j)). Generator coordinates come first
    in the result, `inner` embeds as the trailing coordinates (an ideal).
    """
    n = inner.dim
    d = len(mats)
    for idx, m in enumerate(mats):
        if m.shape != (n, n):
            raise ValueError(f"generator {idx} is not {n}x{n}")
    acting = LinearLieAlgebra(inner, mats)
    if act_labels is None:
        act_labels = [f"t{i + 1}" for i in range(d)]
    blocks = direct_sum(LieAlgebra(d, acting.table, act_labels), inner)
    table = dict(blocks.table)
    for a in range(d):
        for j in range(n):
            col = mats[a].column(j)
            terms = [(d + k, c) for k, c in enumerate(col) if c]
            if terms:
                table[(a, d + j)] = terms
    total = LieAlgebra(d + n, table, blocks.labels)
    bad = verify_structure(total)
    for a, i, j in bad:
        if a < d <= i:
            raise NotADerivationError(a, (i - d, j - d))
    if bad:
        raise JacobiError(bad)
    nilideal = Subspace.span(d + n, [total.basis_vector(d + i) for i in range(n)])
    complement = Subspace.span(d + n, [total.basis_vector(i) for i in range(d)])
    return Extension(total, nilideal, complement)


def killing_radical(L: LieAlgebra) -> Subspace:
    """{x : kappa(x, y) = 0 for every y in [L, L]}.

    In characteristic zero this is the solvable radical (Cartan's criterion).
    """
    derived = derived_algebra(L)
    # row of E y in [L, L]: tr(A_i B), A_i = den ad e_i and B = den ad(E y)
    ads = _basis_ads(L)
    rows = []
    for y in derived.basis.ints:
        cols = list(zip(*L.int_ad(y)))   # tr(A B) = sum_k A[k] . B[:, k]
        rows.append([sum(a * b for arow, col in zip(A, cols) for a, b in zip(arow, col))
                     for A in ads])
    return kernel(rows, L.dim)
