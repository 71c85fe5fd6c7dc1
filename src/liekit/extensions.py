"""Solvable extensions of nilpotent algebras and the Malcev-type splitting.

Constructors hand back validated records: an Extension is only returned once
the nilradical of the total algebra has been recomputed and matched against
the designated ideal, and a SplittingResult embeds L by semidirect_sum's
layout and proves its adjoined part before it is released.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Sequence

from .exactlin import Mat, Subspace, is_semisimple, rank
from .liecore import (
    Extension,
    LieAlgebra,
    LieError,
    center,
    derived_algebra,
    direct_sum,
    product_space,
    semidirect_sum,
)
from .structure import (
    _toral_parts,
    cartan_subalgebra,
    derivations,
    inner_derivations,
    maximal_torus,
    nilradical,
)

__all__ = [
    "Extension",
    "NilradicalMismatch",
    "SplittingResult",
    "RankBoundReport",
    "TogoReport",
    "extend_by_derivations",
    "standard_solvable_extension",
    "malcev_split_solvable",
    "verify_rank_bound",
    "rank_bound_of",
    "togo_dim_check",
]


class NilradicalMismatch(LieError):
    """The built algebra's nilradical is not the designated nilpotent ideal."""

    def __init__(self, expected: Subspace, computed: Subspace):
        self.expected = expected
        self.computed = computed
        super().__init__(
            f"nilradical mismatch: designated ideal has dim {expected.dim}, "
            f"computed nilradical has dim {computed.dim}")


def extend_by_derivations(N: LieAlgebra, gens: Sequence[Mat],
                          act_labels: Sequence[str] | None = None,
                          rng: random.Random | None = None) -> Extension:
    """Adjoin derivation generators to N; reject unless the nilradical is N.

    Leibniz and bracket-closure failures raise with witnessing pairs from the
    semidirect constructor; a nilradical that differs from the embedded copy
    of N raises NilradicalMismatch carrying the computed ideal.
    """
    ext = semidirect_sum(gens, N, act_labels)
    computed = nilradical(ext.total, rng)
    if computed != ext.nilideal:
        raise NilradicalMismatch(ext.nilideal, computed)
    return ext._replace(validated=True)


def standard_solvable_extension(N: LieAlgebra,
                                rng: random.Random | None = None) -> Extension:
    """Maximal torus of Der(N), acting on N.

    For a characteristically nilpotent N the torus is zero and the result is
    N itself with a zero complement.
    """
    if not N.is_nilpotent():
        raise LieError("standard extension is defined for nilpotent algebras")
    torus = maximal_torus(derivations(N), rng)
    labels = [f"s{i + 1}" for i in range(torus.dim)]
    return extend_by_derivations(N, torus.basis, labels, rng)


class SplittingResult(NamedTuple):
    """M = torus_part + L by semidirect_sum's layout: L's table on M's last
    coordinates, every [t_a, e_j] inside them, M Jacobi-scanned."""
    M: LieAlgebra
    torus_part: Subspace
    added_dim: int


def malcev_split_solvable(L: LieAlgebra,
                          rng: random.Random | None = None) -> SplittingResult:
    """Embed solvable L into a split algebra by adjoining outer torus parts.

    Construction: take a Cartan subalgebra H, collect the semisimple Jordan
    parts of ad h over a basis of H (the map is linear on H), then keep the
    RREF-ordered subset of that span which is independent modulo inner
    derivations; those matrices act as new semisimple generators, and L's
    embedding is semidirect_sum's layout (SplittingResult). The adjoined part
    is proved abelian, ad-semisimple and faithful, and a split output is split
    again to check that nothing more is added.
    """
    if not L.is_solvable():
        raise LieError("splitting is implemented for solvable algebras only")
    result = _split(L, rng)
    if result.added_dim and _split(result.M, rng).added_dim:
        raise AssertionError(
            "proof failed: splitting is not idempotent on its own output")
    return result


def _split(L: LieAlgebra, rng: random.Random | None) -> SplittingResult:
    """The construction and checks of malcev_split_solvable, one level deep."""
    n = L.dim
    _, parts = _toral_parts(L, rng)   # none on a nilpotent L: nothing is kept
    span = Subspace.span(n * n, Mat.vecs(parts, n * n).ints).basis
    running = inner_derivations(L)
    kept: list[Mat] = []
    for row in span.ints:
        if running.int_coords(row) is None:
            kept.append(Mat.from_flat(n, n, row, span.den))
            running = running + Subspace.span(n * n, [row])
    if not kept:   # M = L: every check would compare a thing with itself
        return SplittingResult(L, Subspace.zero(n), 0)
    ext = semidirect_sum(kept, L, [f"s{i + 1}" for i in range(len(kept))])
    result = SplittingResult(ext.total, ext.complement, len(kept))
    _check_splitting(result)
    return result


def _check_splitting(r: SplittingResult) -> None:
    """The proofs about the adjoined part; L's embedding as an ideal with
    complement torus_part is semidirect_sum's layout (SplittingResult)."""
    M = r.M
    # commuting semisimple ads with independent rows: every nonzero element
    # of the torus part acts semisimply and nontrivially
    if product_space(M, r.torus_part, r.torus_part).dim:
        raise AssertionError("proof failed: torus part is not abelian")
    ads = [M.ad(v) for v in r.torus_part.basis.ints]
    if not all(map(is_semisimple, ads)):
        raise AssertionError("proof failed: torus element does not act semisimply")
    if rank(Mat.vecs(ads, M.dim ** 2)) != len(ads):
        raise AssertionError("proof failed: nonzero torus element acts trivially")


class RankBoundReport(NamedTuple):
    toric_rank: int         # dim of a Cartan subalgebra of L / N
    gen_bound: int          # dim N - dim [N, N]
    rank_ok: bool
    solvable: bool
    codim: int | None       # dim L - dim N, solvable totals only
    codim_ok: bool | None

    @property
    def ok(self) -> bool:
        return self.rank_ok and (self.codim_ok is not False)


def _rank_report(L: LieAlgebra, nil: Subspace,
                 rng: random.Random | None) -> RankBoundReport:
    """The report for L and its nilradical nil, which the caller certified.
    L / nil is not built: for solvable L it is abelian ([L, L] lies in nil),
    and otherwise a Cartan subalgebra H of L maps onto one, (H + nil) / nil
    (Bourbaki, Lie Groups and Lie Algebras, VII.2.1)."""
    commN = derived_algebra(L) if nil.dim == L.dim else product_space(L, nil, nil)
    g = nil.dim - commN.dim
    solvable = L.is_solvable()
    codim = L.dim - nil.dim if solvable else None
    rt = codim if solvable else (cartan_subalgebra(L, rng) + nil).dim - nil.dim
    codim_ok = (codim <= g) if solvable else None
    return RankBoundReport(rt, g, rt <= g, solvable, codim, codim_ok)


def verify_rank_bound(E: Extension,
                      rng: random.Random | None = None) -> RankBoundReport:
    """Check toric rank and codimension against the generator count of N."""
    if not E.validated:
        raise LieError("rank bound check needs a validated extension")
    return _rank_report(E.total, E.nilideal, rng)


def rank_bound_of(L: LieAlgebra,
                  rng: random.Random | None = None) -> RankBoundReport:
    """Rank bound for a bare algebra; its nilradical is recomputed here."""
    return _rank_report(L, nilradical(L, rng), rng)


class TogoReport(NamedTuple):
    dim_der_sum: int        # dim Der(A + B), computed directly
    dim_der_a: int
    dim_der_b: int
    hom_a_to_zb: int        # (dim A - dim [A,A]) * dim Z(B)
    hom_b_to_za: int
    predicted: int          # the sum of the four counts above
    equal: bool


def togo_dim_check(A: LieAlgebra, B: LieAlgebra) -> TogoReport:
    """Compare dim Der(A + B) against the four-block dimension count.

    Both sides are computed independently: the left by solving the Leibniz
    system on the direct sum, the right from the summands' derivation
    algebras, centers and generator counts. A mismatch is reported, not
    raised.
    """
    if not (A.is_nilpotent() and B.is_nilpotent()):
        raise LieError("block count is stated for nilpotent summands")
    lhs = derivations(direct_sum(A, B)).dim
    da = derivations(A).dim
    db = derivations(B).dim
    ga = A.dim - derived_algebra(A).dim
    gb = B.dim - derived_algebra(B).dim
    za = center(A).dim
    zb = center(B).dim
    predicted = da + db + ga * zb + gb * za
    return TogoReport(lhs, da, db, ga * zb, gb * za, predicted, lhs == predicted)
