import random
from itertools import combinations

import pytest

from liekit.exactlin import Mat, Subspace, is_semisimple
from liekit.liecore import (
    LieAlgebra,
    LieError,
    NotADerivationError,
    change_basis,
    direct_sum,
    semidirect_sum,
)
from liekit import catalog, extensions, structure
from liekit.extensions import (
    NilradicalMismatch,
    extend_by_derivations,
    malcev_split_solvable,
    rank_bound_of,
    standard_solvable_extension,
    togo_dim_check,
    verify_rank_bound,
)
from liekit.structure import nilradical
from oracles import bracket_basis


def abelian(n):
    return LieAlgebra(n, {})


def heisenberg3():
    return LieAlgebra(3, {(0, 1): [(2, 1)]}, labels=("p", "q", "z"))


def r2():
    return LieAlgebra(2, {(0, 1): [(1, 1)]}, labels=("x", "y"))


def sl2():
    return LieAlgebra(3, {(0, 1): [(2, 1)], (0, 2): [(0, -2)], (1, 2): [(1, 2)]},
                      labels=("e", "f", "h"))


def jordan_block_algebra():
    # one Jordan block J_2(1) acting on the plane: solvable but not split
    return semidirect_sum([Mat([[1, 1], [0, 1]])], abelian(2)).total


# ---------------------------------------------------------------------------
# extend_by_derivations

def test_extend_scalar_action_gives_r2_like_algebra():
    ext = extend_by_derivations(abelian(1), [Mat([[1]])])
    assert ext.total.dim == 2
    assert ext.validated
    assert ext.nilideal.contains([0, 1])
    assert ext.complement.dim == 1


def test_extend_rejects_nilpotent_only_generator():
    with pytest.raises(NilradicalMismatch) as exc:
        extend_by_derivations(abelian(2), [Mat([[0, 1], [0, 0]])])
    # adjoining a nilpotent derivation builds the Heisenberg algebra,
    # whose nilradical is everything
    assert exc.value.computed.dim == 3
    assert exc.value.expected.dim == 2


def test_extend_rejects_non_derivation():
    with pytest.raises(NotADerivationError):
        extend_by_derivations(r2(), [Mat([[0, 1], [0, 0]])])


def test_extend_rejects_dependent_generators():
    one = Mat([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        extend_by_derivations(abelian(2), [one, 2 * one])


# ---------------------------------------------------------------------------
# standard extension

def test_standard_extension_heisenberg():
    ext = standard_solvable_extension(heisenberg3())
    assert ext.total.dim == 5
    assert ext.complement.dim == 2
    assert ext.validated
    assert nilradical(ext.total) == ext.nilideal
    assert ext.total.is_solvable() and not ext.total.is_nilpotent()


def test_standard_extension_abelian_doubles_dimension():
    for n in (1, 2, 3):
        ext = standard_solvable_extension(abelian(n))
        assert ext.total.dim == 2 * n


def test_standard_extension_is_split():
    for N in (heisenberg3(), abelian(2)):
        ext = standard_solvable_extension(N)
        assert malcev_split_solvable(ext.total).added_dim == 0


def test_standard_extension_rejects_non_nilpotent():
    with pytest.raises(LieError):
        standard_solvable_extension(r2())


# ---------------------------------------------------------------------------
# Malcev splitting

def test_split_of_nilpotent_is_identity(monkeypatch):
    # H = L and every semisimple part is 0: neither step can add anything
    def unused(*args):
        raise AssertionError("not needed on a nilpotent algebra")

    # both run in structure._toral_parts, which the splitting reads
    monkeypatch.setattr(structure, "cartan_subalgebra", unused)
    monkeypatch.setattr(structure, "jordan_chevalley", unused)
    L = heisenberg3()
    res = malcev_split_solvable(L)
    assert res.added_dim == 0
    assert res.M is L


def test_split_r2_adds_nothing():
    assert malcev_split_solvable(r2()).added_dim == 0


def test_split_jordan_block_adds_one():
    L = jordan_block_algebra()
    res = malcev_split_solvable(L)
    assert res.added_dim == 1
    assert res.M.dim == 4
    assert res.torus_part.dim == 1
    assert is_semisimple(res.M.ad(res.torus_part.basis.data[0]))


def test_split_dimension_is_basis_invariant():
    L = jordan_block_algebra()
    rng = random.Random(3)
    from liekit.exactlin import rank
    for _ in range(2):
        while True:
            p = Mat([[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)])
            if rank(p) == 3:
                break
        assert malcev_split_solvable(change_basis(L, p)).M.dim == 4


def test_split_rejects_non_solvable():
    with pytest.raises(LieError):
        malcev_split_solvable(sl2())


@pytest.mark.parametrize("seed", [1, 7, 2022])
def test_split_embeds_l_by_the_semidirect_layout(seed):
    # the facts the split takes from semidirect_sum's layout, held on real
    # splits: L's table on M's last n coordinates, every [e_a, e_(t+j)]
    # inside them, and the torus part on the first t
    snobl = catalog.build_snobl_counterexample(random.Random(seed))
    inputs = {"r2": r2(), "jordan": jordan_block_algebra(),
              "R1": snobl["R1"].total, "R2": snobl["R2"].total}
    for name, param in (("so2_torus_extension", None),
                        *(("diagonal_torus_extension", k) for k in (1, 2, 3))):
        inputs[name, param] = catalog.get(name, param, rng=random.Random(seed)).algebra
    added = {}
    for key, L in inputs.items():
        res = malcev_split_solvable(L, random.Random(seed))
        M, n, t = res.M, L.dim, res.added_dim
        assert M.dim == t + n, key
        for i, j in combinations(range(n), 2):
            shifted = [0] * t + bracket_basis(L, i, j)
            assert bracket_basis(M, t + i, t + j) == shifted, key
        trailing = Subspace.span(M.dim, [M.basis_vector(t + j) for j in range(n)])
        assert all(trailing.contains(bracket_basis(M, a, t + j))
                   for a in range(M.dim) for j in range(n)), key
        leading = Subspace.span(M.dim, [M.basis_vector(a) for a in range(t)])
        assert res.torus_part == leading, key
        added[key] = t
    assert {k for k, t in added.items() if t} == {"R2", "jordan"}
    assert added["R2"] == added["jordan"] == 1


# ---------------------------------------------------------------------------
# rank bound reports

def test_rank_bound_standard_heisenberg_is_tight():
    report = verify_rank_bound(standard_solvable_extension(heisenberg3()))
    assert report.toric_rank == 2
    assert report.gen_bound == 2
    assert report.rank_ok and report.codim_ok
    assert report.codim == 2
    assert report.ok


def test_rank_bound_sl2_on_plane():
    e = Mat([[0, 1], [0, 0]])
    f = Mat([[0, 0], [1, 0]])
    h = Mat([[1, 0], [0, -1]])
    ext = extend_by_derivations(abelian(2), [e, f, h])
    report = verify_rank_bound(ext)
    assert report.toric_rank == 1
    assert report.gen_bound == 2
    assert report.rank_ok
    assert not report.solvable
    assert report.codim is None and report.codim_ok is None


def _quotient_cartan_dim(L, N, rng):
    """dim of a Cartan subalgebra of L / N, with L / N built on the residual
    coordinates mod N's RREF basis: how the toric rank was once found."""
    free = [c for c in range(L.dim) if c not in N.pivots]

    def residual(v):
        for row, p in zip(N.basis.data, N.pivots):
            v = [x - v[p] * r for x, r in zip(v, row)]
        return [v[c] for c in free]

    table = {(a, b): list(enumerate(residual(bracket_basis(L, free[a], free[b]))))
             for a, b in combinations(range(len(free)), 2)}
    return structure.cartan_subalgebra(LieAlgebra(len(free), table), rng).dim


def _on_plane(*gens):
    """The plane Q^2 extended by the gl2 matrices gens, validated."""
    return extend_by_derivations(abelian(2), [Mat(g) for g in gens])


SL2_ON_PLANE = ([[0, 1], [0, 0]], [[0, 0], [1, 0]], [[1, 0], [0, -1]])


@pytest.mark.parametrize("seed", [1, 7, 2022])
def test_toric_rank_matches_the_cartan_rank_of_the_quotient(seed):
    # the catalog sources of the digest set, and sl2 and sl2 + r2
    sources = [catalog.get(name, param).algebra for name, params in [
        ("abelian", [0, 1, 2, 3]), ("heisenberg", [3, 5, 7]),
        ("filiform", [3, 4, 5, 6, 7]), ("diagonal_torus_extension", [1, 2, 3]),
        ("favre7", [None]), ("r2", [None]), ("sl2", [None]),
        ("so2_torus_extension", [None])] for param in params]
    exts = [_on_plane(*SL2_ON_PLANE),
            _on_plane(*SL2_ON_PLANE, [[1, 0], [0, 1]])]   # sl2 and gl2 on Q^2
    exts += [standard_solvable_extension(N, random.Random(seed))
             for N in sources if N.is_nilpotent()]
    algebras = sources + [direct_sum(sl2(), r2())] + [E.total for E in exts]
    for E in exts:
        got = verify_rank_bound(E, random.Random(seed)).toric_rank
        assert got == _quotient_cartan_dim(E.total, E.nilideal, random.Random(seed))
    for L in algebras:
        got = rank_bound_of(L, random.Random(seed)).toric_rank
        N = nilradical(L, random.Random(seed))
        assert got == _quotient_cartan_dim(L, N, random.Random(seed))


def test_verify_rank_bound_on_a_solvable_extension_runs_no_cartan_search(monkeypatch):
    calls = []

    def counted(L, rng=None):
        calls.append(L.dim)
        return structure.cartan_subalgebra(L, rng)

    solvable = standard_solvable_extension(heisenberg3())
    non_solvable = _on_plane(*SL2_ON_PLANE)
    monkeypatch.setattr(extensions, "cartan_subalgebra", counted)
    assert verify_rank_bound(solvable).toric_rank == 2
    assert calls == []
    # sl2 on Q^2 runs one search, on the 5-dimensional total
    assert verify_rank_bound(non_solvable).toric_rank == 1
    assert calls == [5]


def test_rank_bound_rejects_unvalidated_extension():
    raw = semidirect_sum([Mat([[1]])], abelian(1))
    with pytest.raises(LieError):
        verify_rank_bound(raw)


# ---------------------------------------------------------------------------
# derivation dimension of direct sums

def test_togo_count_k_heisenberg():
    report = togo_dim_check(abelian(1), heisenberg3())
    assert report.dim_der_sum == 10
    assert (report.dim_der_a, report.dim_der_b) == (1, 6)
    assert (report.hom_a_to_zb, report.hom_b_to_za) == (1, 2)
    assert report.equal


def test_togo_count_two_lines():
    report = togo_dim_check(abelian(1), abelian(1))
    assert report.dim_der_sum == 4
    assert report.predicted == 4
    assert report.equal


def test_togo_rejects_non_nilpotent():
    with pytest.raises(LieError):
        togo_dim_check(abelian(1), r2())


def test_togo_report_dict_round_trip():
    report = togo_dim_check(abelian(2), heisenberg3())
    d = report._asdict()
    assert d["equal"] is True
    assert d["dim_der_sum"] == report.predicted


def test_check_splitting_proves_the_torus_part_abelian_semisimple_and_faithful():
    sl2 = [Mat([[0, 1], [0, 0]]), Mat([[0, 0], [1, 0]]), Mat([[1, 0], [0, -1]])]
    cases = (
        # the plane extended by a nilpotent action: abelian, not semisimple
        (semidirect_sum([sl2[0]], abelian(2), ["t"]),
         "torus element does not act semisimply"),
        # sl2 on the plane: its torus part does not commute
        (semidirect_sum(sl2, abelian(2), ["e", "f", "h"]), "torus part is not abelian"),
    )
    for ext, why in cases:
        r = extensions.SplittingResult(ext.total, ext.complement, ext.complement.dim)
        with pytest.raises(AssertionError, match=f"^proof failed: {why}$"):
            extensions._check_splitting(r)
    # abelian(3) with torus part e_1: ad e_1 = 0 is semisimple but trivial
    r = extensions.SplittingResult(abelian(3), Subspace.span(3, [[1, 0, 0]]), 1)
    with pytest.raises(AssertionError,
                       match="^proof failed: nonzero torus element acts trivially$"):
        extensions._check_splitting(r)
