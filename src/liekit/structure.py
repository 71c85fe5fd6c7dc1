"""Structure theory: derivations, Cartan subalgebras, nilradicals, tori.

The nilradical of a solvable L is [L, L] plus the ad-nilpotent part of one
Cartan subalgebra H: N = [L, L] + ker sigma|H, sigma(h) = s(ad h). H and
the parts sigma(h) over its basis (_toral_parts) also give the Malcev
splitting its torus.

The Cartan search runs on a structure-constant algebra and on a matrix
algebra alike; on Der(L) it reads ad x from the matrices (int_ad,
ad_traces), so Der(L)'s structure-constant table serves only the fallbacks
(the series when every trace is 0) and is_characteristically_nilpotent.

Randomized searches (Cartan subalgebras and everything downstream) take an
explicit random.Random; results are certified by output checks, so the seed
only affects which certified answer is found, not its validity. The toral
parts and the nilradical are kept in L's cache per random stream: the key
holds the rng the caller passed, so a second call on the same stream draws
nothing and another stream computes its own. None is kept in the key as
passed, so all None calls share one entry; each draw under it takes a
fresh Random(DEFAULT_SEED). The Cartan subalgebra and the maximal torus
are not kept: the cartan and torus commands print their picks.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .exactlin import (
    Mat,
    Subspace,
    _annihilator,
    _int_product,
    _squarefree_mod_p,
    commutator,
    is_nilpotent as mat_is_nilpotent,
    jordan_chevalley,
    kernel,
    zero_multiplicity_mod_p,
)
from .liecore import (
    LieAlgebra,
    LieError,
    LinearLieAlgebra,
    _basis_ads,
    _cached,
    center,
    derived_algebra,
    killing_radical,
    normalizer,
    product_space,
    restrict,
    series,
)

DEFAULT_SEED = 2022

# pool size for the regular-element search
_POOL = 64


def _rng(rng: random.Random | None) -> random.Random:
    return rng if rng is not None else random.Random(DEFAULT_SEED)


def derivations(L: LieAlgebra) -> LinearLieAlgebra:
    """Der(L): all matrices satisfying the Leibniz rule, as a matrix algebra.

    Solves the linear system D[e_i,e_j] = [De_i,e_j] + [e_i,De_j] over the
    n^2 unknown entries; the kernel basis (canonical RREF) gives the basis.
    The rows come straight from the integer adjacency of L: den times the
    rational system, with the same kernel. Computed once per algebra.
    Closed under commutators by theorem, Der(L) builds its table when first
    read (is_nilpotent, for is_characteristically_nilpotent and for a Cartan
    search whose traces are all 0); one commutator [sum b_i, sum (i + 1) b_i]
    of its basis b spot-checks the system and its kernel instead.
    """
    return _cached(L, "derivations", lambda: _derivations(L))


class _Derivations(LinearLieAlgebra):
    """Der(L), whose table (and closure witness) waits for its first read."""
    _deferred = True


def _derivations(L: LieAlgebra) -> LinearLieAlgebra:
    n = L.dim
    adj = L._adj   # adj[a][b]: the terms (k, den c_ab^k) of den [e_a, e_b]
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            block = [[0] * (n * n) for _ in range(n)]   # row u of the pair
            # D[e_i, e_j] coordinate u: sum_s c_ij^s D[u][s]
            for s, c in adj[i].get(j, ()):
                for u in range(n):
                    block[u][u * n + s] += c
            # -[D e_i, e_j] coordinate u: -sum_t D[t][i] c_tj^u, c_tj = -c_jt
            for t, terms in adj[j].items():
                for u, c in terms:
                    block[u][t * n + i] += c
            # -[e_i, D e_j] coordinate u: -sum_t D[t][j] c_it^u
            for t, terms in adj[i].items():
                for u, c in terms:
                    block[u][t * n + j] -= c
            rows.extend(row for row in block if any(row))
    ker = kernel(rows, n * n)
    der = _Derivations(L, [Mat.from_flat(n, n, row, ker.basis.den)
                           for row in ker.basis.ints])
    # ad-images are always derivations; their span must land inside the
    # computed Der(L), whose matrix span is ker
    inner = inner_derivations(L)
    if not ker.contains_space(inner):
        raise AssertionError(
            "proof failed: inner derivations escaped the computed Der(L)")
    x, y = der.element([1] * der.dim), der.element(range(1, der.dim + 1))
    if not der.contains(x @ y - y @ x):
        raise AssertionError("sample failed: Der(L) not closed under commutators")
    return der


def inner_derivations(L: LieAlgebra) -> Subspace:
    """span{ad x} inside gl(L), vectorized row-major; dim = dim L - dim Z."""
    return Subspace.span(L.dim ** 2, [[x for row in ad for x in row]
                                      for ad in _basis_ads(L)])


def is_characteristically_nilpotent(L: LieAlgebra) -> bool:
    """Nilpotent with nilpotent derivation algebra.

    Checked two ways, both of which must agree: Der(L) nilpotent as an
    abstract algebra (the series of its table, which this reads), and every
    basis derivation nilpotent as a matrix. They
    agree for dim L >= 2; for dim L = 1, Der(L) = gl_1 is abelian but holds
    the torus of the identity.
    """
    if not L.is_nilpotent():
        raise LieError("characteristic nilpotency is defined for nilpotent algebras")
    if L.dim == 1:
        return False
    der = derivations(L)
    abstract_nilpotent = der.is_nilpotent()
    all_nilpotent_mats = all(mat_is_nilpotent(m) for m in der.basis)
    if abstract_nilpotent != all_nilpotent_mats:
        raise AssertionError(
            "proof failed: derivation nilpotency checks disagree; "
            "table is inconsistent")
    return abstract_nilpotent


# ---------------------------------------------------------------------------
# Cartan subalgebras

def cartan_subalgebra(L: LieAlgebra | LinearLieAlgebra,
                      rng: random.Random | None = None) -> Subspace:
    """A Cartan subalgebra: nilpotent and self-normalizing, both certified.

    In characteristic 0 the Cartan subalgebras are the Engel subalgebras
    L0(ad x) = ker (ad x)^k, k the zero multiplicity, of the regular x (k
    smallest: the rank). L is a structure-constant algebra or a matrix
    algebra such as Der(N): the search reads only L.int_ad, L.ad_traces,
    restrict and the series, and a matrix algebra's int_ad and ad_traces
    come from its matrices, not from its table. A nilpotent L returns
    itself before any draw; a nonzero tr ad e_i disproves nilpotency
    without the lower central series (of the table, for a matrix algebra).
    Each attempt draws a pool of small-integer candidates in
    full and then ranks them in order. On each strict new best count m it
    forms H = L0(ad x). If dim H = m and H is nilpotent, H is a
    Cartan subalgebra and m the rank; a later count is at least its exact
    multiplicity, so at least the rank, and cannot beat m: the search stops
    there. Otherwise the last best's H is returned once it is nilpotent, or
    the range widens and a new pool is drawn. Drawing each pool first keeps
    the stream where it ends without the stop.

    A candidate's adjoint is A = int_ad(x), c ad x for a positive integer
    c, so the counts are those of d ad x (d the denominator of ad x) unless
    2^61 - 1 divides c / d. m = zero_multiplicity_mod_p(A) is dim ker(A^t
    mod p) for every t >= m, from ranks of powers of A mod p = 2^61 - 1 by
    the one elimination loop, and bounds dim ker A^t over Q. So H is L0(ad
    x) = ker A^s, s = 2^ceil(log2 m) >= m, and ker A, formed first, is H
    when its dimension is m: ker A lies in ker A^s, of dimension at most m.
    Only a shorter ker A (ad x not semisimple on L0(ad x)) forms the
    integer power A^s, from ceil(log2 m) squarings, and its kernel. H's
    nilpotency is that of restrict(L, H): a matrix algebra's H is its own
    small matrix algebra. The first
    candidate is formed even at count dim L: with [s, y] = p y every
    candidate counts dim L mod p. dim H = m proves N(H) = H (Humphreys,
    section 15.1): x lies in H, so y in N(H) has A y in H and A^(s+1) y =
    0, and dim ker A^(s+1) <= m = dim H. Without the stop, dim H < m, and
    the exact normalizer, which reads only int_ad, decides.
    """
    return _cartan(L, rng)[0]


def _cartan(L: LieAlgebra | LinearLieAlgebra, rng: random.Random | None
            ) -> tuple[Subspace, LieAlgebra | LinearLieAlgebra, list[int] | None]:
    """cartan_subalgebra's H with the algebra on its basis, restrict(L, H),
    and the pick x whose L0(ad x) it is; L itself and None when L is
    nilpotent, which draws nothing."""
    rng = _rng(rng)
    if not any(L.ad_traces()) and L.is_nilpotent():
        return L.full_space(), L, None
    spread = 3
    for _round in range(4 * (L.dim + 2)):
        pool = [[rng.randint(-spread, spread) for _ in range(L.dim)]
                for _ in range(_POOL)]
        best_mult, nilpotent = L.dim + 1, False
        for coeffs in filter(any, pool):
            A = L.int_ad(coeffs)
            mult = zero_multiplicity_mod_p(A)
            if mult < best_mult:
                # ker A lies in L0(ad x), of dimension at most mult
                best_mult, pick, h = mult, coeffs, kernel(A, L.dim)
                if h.dim < mult:
                    power = A   # A^s, s = 2^ceil(log2 mult) >= mult: ker is L0(ad x)
                    for _ in range((mult - 1).bit_length()):
                        power = _int_product(power, power)
                    h = kernel(power, L.dim)
                sub = restrict(L, h)
                nilpotent = sub.is_nilpotent()
                if nilpotent and h.dim == mult:
                    break   # mult is the rank, and dim H = mult proves N(H) = H
        if nilpotent:
            if h.dim < best_mult and normalizer(L, h).dim != h.dim:
                raise AssertionError("proof failed: L0(ad x) not self-normalizing")
            return h, sub, pick
        spread += 2   # no candidate or a non-regular pick; widen and redraw
    raise AssertionError("Cartan subalgebra search failed to converge")


# ---------------------------------------------------------------------------
# nilradical

def nilradical(L: LieAlgebra, rng: random.Random | None = None) -> Subspace:
    """The largest nilpotent ideal, with its defining contracts re-checked.

    Solvable case: N = [L, L] + ker sigma|H, with H and sigma(h) = s(ad h),
    linear on H, from _toral_parts. This holds because [L, L] lies in N,
    L = H + [L, L], and an h in H lies in N exactly when ad h is nilpotent.
    Non-solvable case: recurse into the solvable radical. The output is
    checked to be a nilpotent ideal containing [L, radical], and sampled
    ad-nilpotent elements are checked to lie inside. Kept on L per random
    stream, keyed by rng as passed (see the module docstring).
    """
    return _cached(L, ("nilradical", rng), lambda: _nilradical(L, rng))


def _nilradical(L: LieAlgebra, rng: random.Random | None) -> Subspace:
    if L.is_solvable():
        rad = L.full_space()
        result = _solvable_nilradical(L, rng)
    else:
        rad = killing_radical(L)
        inner = _solvable_nilradical(restrict(L, rad), rng)
        result = Subspace.span(L.dim, (inner.basis @ rad.basis).ints)
    _check_nilradical(L, result, rad, _rng(rng))
    return result


def _toral_parts(L: LieAlgebra,
                 rng: random.Random | None) -> tuple[Subspace, tuple[Mat, ...]]:
    """A Cartan subalgebra H and [s(ad h) for h in its basis], per stream."""
    def build():
        # on a nilpotent L, H = L and every s(ad h) is 0; H = 0 adds nothing
        h = Subspace.zero(L.dim) if L.is_nilpotent() else cartan_subalgebra(L, rng)
        return h, tuple(jordan_chevalley(L.ad(row)).s for row in h.basis.ints)
    return _cached(L, ("toral_parts", rng), build)


def _solvable_nilradical(L: LieAlgebra, rng: random.Random | None) -> Subspace:
    if L.is_nilpotent():
        return L.full_space()
    h, parts = _toral_parts(L, rng)
    coeff_kernel = kernel(Mat.vecs(parts, L.dim ** 2).transpose())
    rows = derived_algebra(L).basis.ints + (coeff_kernel.basis @ h.basis).ints
    return Subspace.span(L.dim, rows)


def _check_nilradical(L: LieAlgebra, nr: Subspace, rad: Subspace,
                      rng: random.Random) -> None:
    """Re-check nr against L and its solvable radical rad."""
    full = L.full_space()

    def with_l(s: Subspace) -> Subspace:
        # [L, L] is cached on L; other products are formed here
        return derived_algebra(L) if s.dim == L.dim else product_space(L, full, s)

    if not nr.contains_space(with_l(rad)):
        raise AssertionError("proof failed: nilradical misses [L, radical]")
    if not nr.contains_space(with_l(nr)):
        raise AssertionError("proof failed: nilradical is not an ideal")
    # nr = L reads the series cached on L instead of a copy of L
    if nr.dim and not (L if nr.dim == L.dim else restrict(L, nr)).is_nilpotent():
        raise AssertionError("proof failed: computed nilradical is not nilpotent")
    # sampled sanity: ad-nilpotent elements must lie inside (solvable case)
    if L.is_solvable():
        for _ in range(16):
            v = [rng.randint(-2, 2) for _ in range(L.dim)]
            if mat_is_nilpotent(L.ad(v)) and not nr.contains(v):
                raise AssertionError(
                    "sample failed: ad-nilpotent element escaped the nilradical")


# ---------------------------------------------------------------------------
# maximal torus

def maximal_torus(der: LinearLieAlgebra,
                  rng: random.Random | None = None) -> LinearLieAlgebra:
    """Maximal abelian subalgebra of semisimple derivations, via a Cartan.

    T is the span of the parts s(h) over a basis of a Cartan subalgebra H
    of Der(L), as n x n matrices, the ones the Cartan search formed to
    prove H nilpotent; _check_torus proves it a maximal torus. When the
    search's pick X = der.element(x), with H = L0(ad x), is cyclic with a
    squarefree minimal polynomial (_cyclic_semisimple), H is a torus and T
    is the matrix algebra the search built on H. Otherwise jordan_chevalley
    gives each part and proves it semisimple. The search runs on der itself
    and reads ad x from its matrices, without Der(L)'s table unless every
    trace is 0. It is the only draw from the stream. der must be the Der(L)
    that derivations(L) caches for its ambient L.
    """
    if der is not derivations(der.ambient):
        raise LieError("maximal_torus expects a full derivation algebra")
    _, sub, x = _cartan(der, rng)
    mats = list(sub.basis)
    if x is not None and _cyclic_semisimple(der.element(x)):
        _check_torus(sub, der, mats, [])
        return sub
    parts = [jordan_chevalley(m).s for m in mats]
    n = der.ambient.dim
    span = Subspace.span(n * n, Mat.vecs(parts, n * n).ints).basis
    basis = [Mat.from_flat(n, n, row, span.den) for row in span.ints]
    torus = LinearLieAlgebra(der.ambient, basis)
    # h_i - s_i from the parts T was built of, so that (ii) tests them
    _check_torus(torus, der, mats, [m - s for m, s in zip(mats, parts)])
    return torus


def _cyclic_semisimple(X: Mat) -> bool:
    """True proves X cyclic and semisimple; False proves nothing.

    The annihilator of one vector under X divides the minimal polynomial mu
    of X, so at degree n it is mu, and X is cyclic: its centralizer in gl_n
    is Q[X] (Horn and Johnson, Matrix Analysis, 2nd ed., section 3.2.4).
    With mu squarefree (_squarefree_mod_p), X is semisimple, and so is ad X
    on gl_n and on the Der(L) it leaves invariant (Humphreys, section 4.2).
    So L0(ad x) = ker ad x lies in Q[X]: commuting semisimple matrices.
    """
    mu = _annihilator(X, [i * i + 1 for i in range(X.rows)])
    return mu.degree == X.rows and _squarefree_mod_p(mu)


def _check_torus(torus: LinearLieAlgebra, der: LinearLieAlgebra,
                 mats: list[Mat], nils: list[Mat]) -> None:
    """Prove the torus T a maximal torus of g = der = Der(L), exactly.

    mats is a basis h_i of the Cartan subalgebra H of g as n x n matrices,
    nils the parts n_i = h_i - s(h_i), none when T = H. Each part s(h_i)
    is proved semisimple before this runs: by jordan_chevalley, or as h_i
    itself when a cyclic pick proved H a torus (_cyclic_semisimple). T is
    abelian (its table is empty) and lies in g; (i) each h_i outside T's
    basis commutes with T's basis (pairs inside it are T's table); (ii)
    the n_i generate a nilpotent associative algebra. The Cartan search
    returns all of g or L0(ad x) = ker A^s for an x in H, s >= dim L0. For
    h = sum a_i h_i in H, s = sum a_i s(h_i) lies in T and is semisimple
    (T is abelian and spanned by semisimple parts), h - s is nilpotent by
    (ii), and [s, h - s] = [s, h] = 0 by (i): s = h_s, so h_s lies in T.
    Hence C_g(T) lies in C_g(x_s) = ker (ad_g x)_s = L0(ad x) = H, as ad
    x_s = (ad x)_s on gl(L) restricted to the ad x-invariant g. A torus T'
    containing T lies in H, and each of its elements, semisimple, is its
    own semisimple part, in T.
    """
    # the table holds every commutator of basis pairs, checked exactly
    if torus.table:
        raise AssertionError("proof failed: torus is not abelian")
    outside = [h for h in mats if h not in torus.basis]
    for t in torus.basis:
        if not der.contains(t):
            raise AssertionError("proof failed: torus generator is not a derivation")
        if not all(commutator(t, h).is_zero() for h in outside):
            raise AssertionError("proof failed: Cartan does not centralize the torus")
    # W_k, spanned by the products of k parts, shrinks while it is nonzero
    n = der.ambient.dim
    w = Subspace.full(n)
    for _ in range(n):
        w = Subspace.span(n, [r for m in nils for r in _int_product(w.basis.ints, m.ints)])
    if w.dim:
        raise AssertionError("proof failed: parts h - s(h) are not jointly nilpotent")


# ---------------------------------------------------------------------------
# fingerprint

class Fingerprint(NamedTuple):
    """Isomorphism invariants; unequal fingerprints certify non-isomorphism."""
    dim: int
    lower_central: tuple[int, ...]
    derived: tuple[int, ...]
    dim_center: int
    dim_commutator: int
    dim_nilradical: int
    dim_der: int
    dim_malcev: int | None   # None when the algebra is not solvable


def fingerprint(L: LieAlgebra, rng: random.Random | None = None) -> Fingerprint:
    lc = tuple(s.dim for s in series(L, "lower_central"))
    dv = tuple(s.dim for s in series(L, "derived"))
    comm = derived_algebra(L)
    dim_malcev = None
    if L.is_solvable():
        from .extensions import malcev_split_solvable
        dim_malcev = malcev_split_solvable(L, rng=rng).M.dim
    return Fingerprint(
        dim=L.dim,
        lower_central=lc,
        derived=dv,
        dim_center=center(L).dim,
        dim_commutator=comm.dim,
        dim_nilradical=nilradical(L, rng).dim,
        dim_der=derivations(L).dim,
        dim_malcev=dim_malcev,
    )
