import importlib.util
import random
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

from liekit import catalog, cli, exactlin, extensions, liecore, structure

from liekit.exactlin import (
    Mat,
    Subspace,
    is_nilpotent,
    is_semisimple,
    jordan_chevalley,
    rank,
    rref_with_transform,
)
from liekit.liecore import (
    LieAlgebra,
    LieError,
    NotClosedError,
    change_basis,
    direct_sum,
    normalizer,
    restrict,
    semidirect_sum,
)
from liekit.extensions import (
    extend_by_derivations,
    rank_bound_of,
    standard_solvable_extension,
    verify_rank_bound,
)
from liekit.structure import (
    LinearLieAlgebra,
    cartan_subalgebra,
    derivations,
    fingerprint,
    inner_derivations,
    is_characteristically_nilpotent,
    maximal_torus,
    nilradical,
)
from oracles import apply, bracket_basis

# the benchmark's seeded dense basis changes, written as catalog JSON
_spec = importlib.util.spec_from_file_location(
    "basis_change", Path(__file__).parents[1] / "bench" / "basis_change.py")
basis_change = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(basis_change)


def abelian(n):
    return LieAlgebra(n, {})


def heisenberg3():
    return LieAlgebra(3, {(0, 1): [(2, 1)]}, labels=("p", "q", "z"))


def r2():
    return LieAlgebra(2, {(0, 1): [(1, 1)]}, labels=("x", "y"))


def sl2():
    return LieAlgebra(3, {(0, 1): [(2, 1)], (0, 2): [(0, -2)], (1, 2): [(1, 2)]},
                      labels=("e", "f", "h"))


def filiform(n):
    return LieAlgebra(n, {(0, i): [(i + 1, 1)] for i in range(1, n - 1)})


def sl2_on_plane():
    e = Mat([[0, 1], [0, 0]])
    f = Mat([[0, 0], [1, 0]])
    h = Mat([[1, 0], [0, -1]])
    return semidirect_sum([e, f, h], abelian(2)).total


def leibniz_holds(m, L):
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            lhs = apply(m, bracket_basis(L, i, j))
            a = L.bracket(m.column(i), L.basis_vector(j))
            b = L.bracket(L.basis_vector(i), m.column(j))
            if list(lhs) != [x + y for x, y in zip(a, b)]:
                return False
    return True


# ---------------------------------------------------------------------------
# derivations

def test_derivations_abelian_is_full_matrix_algebra():
    L = abelian(3)
    der = derivations(L)
    assert der.dim == 9
    assert derivations(L) is der
    # gl_3 closure: [E01, E10] = E00 - E11 must have coordinates in the basis
    e01 = Mat([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    e10 = Mat([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    assert der.contains(e01 @ e10 - e10 @ e01)


def test_derivations_heisenberg():
    L = heisenberg3()
    der = derivations(L)
    assert der.dim == 6
    for m in der.basis:
        assert leibniz_holds(m, L)
    # the classical semisimple derivation diag(1, 1, 2)
    assert der.contains(Mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))


def test_derivations_r2():
    der = derivations(r2())
    assert der.dim == 2
    for m in der.basis:
        # every derivation of r2 kills x and fixes the line spanned by y
        assert m.column(0)[0] == 0 and m.column(1)[0] == 0


def test_derivations_contain_inner():
    for L in (heisenberg3(), sl2(), filiform(4)):
        der = derivations(L)
        inner = inner_derivations(L)
        assert all(der.contains(Mat.from_flat(L.dim, L.dim, row))
                   for row in inner.rows())


def test_inner_derivation_dims():
    assert inner_derivations(abelian(4)).dim == 0
    assert inner_derivations(heisenberg3()).dim == 2
    assert inner_derivations(sl2()).dim == 3


def test_jordan_parts_of_derivations_are_derivations():
    for L in (heisenberg3(), filiform(4)):
        for m in derivations(L).basis:
            dec = jordan_chevalley(m)
            assert leibniz_holds(dec.s, L)
            assert leibniz_holds(dec.n, L)


# ---------------------------------------------------------------------------
# characteristic nilpotency

def test_characteristically_nilpotent_small_cases():
    assert is_characteristically_nilpotent(heisenberg3()) is False
    assert is_characteristically_nilpotent(abelian(4)) is False
    # graded, so the weight derivation is semisimple and nonzero
    assert is_characteristically_nilpotent(filiform(5)) is False
    # Der = gl_1 is abelian, yet the identity is a torus
    assert is_characteristically_nilpotent(abelian(1)) is False


def test_characteristic_nilpotency_rejects_non_nilpotent():
    with pytest.raises(LieError):
        is_characteristically_nilpotent(r2())


# ---------------------------------------------------------------------------
# Cartan subalgebras

def test_cartan_of_nilpotent_is_whole_algebra():
    for L in (heisenberg3(), abelian(3), filiform(4)):
        assert cartan_subalgebra(L).dim == L.dim


def test_cartan_r2():
    L = r2()
    h = cartan_subalgebra(L)
    assert h.dim == 1
    assert restrict(L, h).is_nilpotent()
    assert normalizer(L, h).dim == h.dim
    # span{x} is itself a valid Cartan subalgebra, checked by hand here
    span_x = Subspace.span(2, [[1, 0]])
    assert restrict(L, span_x).is_nilpotent()
    assert normalizer(L, span_x).dim == 1


def test_cartan_runs_no_exact_charpoly_when_p_divides_a_denominator(monkeypatch):
    # [x, y] = y / (2^61 - 1): every ad has denominator p, and its candidates
    # are ranked on their integral multiples mod p all the same
    L = LieAlgebra(2, {(0, 1): [(1, Fraction(1, 2 ** 61 - 1))]}, labels=("x", "y"))

    def refuse(m):
        raise AssertionError("exact charpoly called")

    monkeypatch.setattr(exactlin, "charpoly", refuse)
    h = cartan_subalgebra(L, random.Random(5))
    assert h.dim == 1
    assert restrict(L, h).is_nilpotent()
    assert normalizer(L, h) == h


def test_cartan_sl2():
    L = sl2()
    h = cartan_subalgebra(L)
    assert h.dim == 1
    assert is_semisimple(L.ad(h.basis.data[0]))
    assert normalizer(L, h).dim == 1


def test_cartan_dimension_is_seed_stable():
    L = direct_sum(r2(), heisenberg3())
    dims = {cartan_subalgebra(L, random.Random(seed)).dim for seed in range(5)}
    assert dims == {4}   # x plus all of h3


def test_dimensions_and_fingerprint_are_seed_stable():
    # heisenberg:7 and the larger sources are left out for time
    sources = [("abelian", 3), ("heisenberg", 3), ("heisenberg", 5),
               ("filiform", 4), ("filiform", 6), ("filiform", 7),
               ("diagonal_torus_extension", 1), ("diagonal_torus_extension", 2),
               ("diagonal_torus_extension", 3), ("favre7", None), ("r2", None),
               ("sl2", None), ("so2_torus_extension", None)]
    for name, param in sources:
        L = catalog.get(name, param).algebra
        outcomes = set()
        for seed in range(1, 11):
            rng = random.Random(seed)
            outcomes.add((cartan_subalgebra(L, rng).dim,
                          maximal_torus(derivations(L), rng).dim,
                          nilradical(L, rng).dim, fingerprint(L, rng)))
        assert len(outcomes) == 1, (name, param, outcomes)


def _cartan_cases():
    """Catalog algebras and two abstract derivation algebras."""
    fixed = [catalog.get(name).algebra
             for name in ("favre7", "r2", "sl2", "so2_torus_extension")]
    param = [catalog.get(name, n).algebra
             for name, n in (("diagonal_torus_extension", 3), ("heisenberg", 5),
                             ("filiform", 6), ("abelian", 3))]
    ders = [derivations(catalog.get(name, n).algebra).to_abstract()
            for name, n in (("heisenberg", 5), ("filiform", 6))]
    return fixed + param + ders


def _counting(monkeypatch, name):
    calls = []
    real = getattr(structure, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(structure, name, counted)
    return calls


def _full_pool_cartan(L, rng):
    """The Cartan search without its early stop: every nonzero candidate of
    every pool is ranked, and the exact normalizer decides. Returns H and the
    number of candidates ranked."""
    if L.is_nilpotent():
        return L.full_space(), 0
    ranked, spread = 0, 3
    for _ in range(4 * (L.dim + 2)):
        best_A, best_mult = None, L.dim + 1
        for _ in range(structure._POOL):
            coeffs = [rng.randint(-spread, spread) for _ in range(L.dim)]
            if not any(coeffs):
                continue
            A = L.int_ad(coeffs)
            mult = exactlin.zero_multiplicity_mod_p(A)
            ranked += 1
            if mult < best_mult:
                best_mult, best_A = mult, A
        if best_A is not None:
            h = exactlin.kernel(
                reduce(exactlin._int_product, [best_A] * best_mult), L.dim)
            if restrict(L, h).is_nilpotent() and normalizer(L, h) == h:
                return h, ranked
        spread += 2
    raise AssertionError("no Cartan subalgebra found")


def test_cartan_early_stop_changes_no_pick(monkeypatch):
    # the pick and the end of the stream are those of the full pools; the
    # catalog gates of _cartan_cases() rank before the count starts
    cases = _cartan_cases()
    ranked = _counting(monkeypatch, "zero_multiplicity_mod_p")
    stopped = reference = 0
    for L in cases:
        for seed in range(1, 6):
            ranked.clear()
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got = cartan_subalgebra(L, rng)
            want, full = _full_pool_cartan(L, ref_rng)
            assert got == want
            assert rng.getstate() == ref_rng.getstate()
            assert len(ranked) <= full
            stopped += len(ranked)
            reference += full
    assert stopped < reference / 4


def test_cartan_counts_equal_the_exact_zero_multiplicity(monkeypatch):
    # every matrix the search ranks, counted against its exact charpoly over
    # Q; the early-stop test ranks with the mod-p count in its oracle too
    cases = _cartan_cases()
    ranked = _counting(monkeypatch, "zero_multiplicity_mod_p")
    for L in cases:
        for seed in (1, 2, 3):
            cartan_subalgebra(L, random.Random(seed))
    assert ranked
    for (A,) in ranked:
        p = exactlin.charpoly(Mat(A))
        assert exactlin.zero_multiplicity_mod_p(A) == next(
            k for k, c in enumerate(p.c) if c)


class _ScriptedRandom(random.Random):
    """A Random whose first randint draws come from a script."""

    def __init__(self, script, seed):
        super().__init__(seed)
        self.script = list(script)

    def randint(self, a, b):
        return self.script.pop(0) if self.script else super().randint(a, b)


def test_cartan_redraws_after_a_non_regular_pick(monkeypatch):
    # the one candidate of the first pool is (h, 0): its Engel subalgebra
    # span{h} + sl2 has dimension 4 and is not nilpotent
    L = direct_sum(sl2(), sl2())
    monkeypatch.setattr(structure, "_POOL", 1)
    restricted = _counting(monkeypatch, "restrict")
    rng = _ScriptedRandom([0, 0, 1, 0, 0, 0], 11)
    h = cartan_subalgebra(L, rng)
    assert not rng.script
    assert [s.dim for _, s in restricted][:1] == [4] and len(restricted) >= 2
    assert h.dim == 2
    assert restrict(L, h).is_nilpotent()
    assert normalizer(L, h) == h


def test_cartan_ranks_on_after_a_failed_stop(monkeypatch):
    # pool of two on sl2 + sl2: (h, 0) counts 4 and its Engel subalgebra
    # span{h} + sl2 is not nilpotent, so the pool goes on; (h, h') counts 2
    # and its Engel subalgebra span{h, h'} is the Cartan subalgebra
    L = direct_sum(sl2(), sl2())
    monkeypatch.setattr(structure, "_POOL", 2)
    ranked = _counting(monkeypatch, "zero_multiplicity_mod_p")
    restricted = _counting(monkeypatch, "restrict")
    rng = _ScriptedRandom([0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1], 11)
    h = cartan_subalgebra(L, rng)
    assert not rng.script
    assert rng.getstate() == random.Random(11).getstate()   # one pool drawn
    assert len(ranked) == 2
    assert [s.dim for _, s in restricted] == [4, 2]
    assert h == Subspace.span(6, [[0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1]])


def test_cartan_does_not_stop_on_a_count_above_the_rank(monkeypatch):
    # [s, y] = p y, [t, y] = y, [s, z] = z for p = 2^61 - 1: s counts 3 mod p
    # but has the Engel subalgebra span{s, t} of dimension 2, so the pool
    # goes on to s + t, which counts 2
    p = 2 ** 61 - 1
    L = LieAlgebra(4, {(0, 2): [(2, p)], (1, 2): [(2, 1)], (0, 3): [(3, 1)]},
                   labels=("s", "t", "y", "z"))
    monkeypatch.setattr(structure, "_POOL", 2)
    ranked = _counting(monkeypatch, "zero_multiplicity_mod_p")
    rng = _ScriptedRandom([1, 0, 0, 0, 1, 1, 0, 0], 11)
    h = cartan_subalgebra(L, rng)
    assert [exactlin.zero_multiplicity_mod_p(A) for (A,) in ranked] == [3, 2]
    assert h == Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0]])


def test_engel_power_alone_certifies_the_picks(monkeypatch):
    # the count m of each ranked A is dim ker(A^(s+1) mod p), s =
    # 2^ceil(log2 m), the retired Engel power: so the stop's dim H = m
    # proves N(H) = H, and no search reaches the exact normalizer
    def refuse(*args):
        raise AssertionError("exact normalizer called")

    cases = _cartan_cases()
    ranked = _counting(monkeypatch, "zero_multiplicity_mod_p")
    monkeypatch.setattr(structure, "normalizer", refuse)
    for L in cases:
        for seed in (1, 2, 3):
            h = cartan_subalgebra(L, random.Random(seed))
            assert normalizer(L, h) == h
    assert ranked
    for (A,) in ranked:
        m = exactlin.zero_multiplicity_mod_p(A)
        power = A
        for _ in range((m - 1).bit_length()):
            power = [[x % exactlin._P for x in row]
                     for row in exactlin._int_product(power, power)]
        engel = exactlin._int_product(power, A)
        assert len(engel) - exactlin._rank_mod_p(engel, len(engel)) == m


def _kernel_of_a_cases():
    """Der of six nilpotent algebras and of one solvable one, and four
    abstract algebras: R1 and R2 of the Snobl demo, sl2 and the p_line r2."""
    ders = [derivations(catalog.get(name, n).algebra)
            for name, n in (("heisenberg", 3), ("heisenberg", 5), ("heisenberg", 7),
                            ("filiform", 5), ("filiform", 8), ("abelian", 3),
                            ("diagonal_torus_extension", 2))]
    snobl = catalog.build_snobl_counterexample(random.Random(7))
    p_line = LieAlgebra(2, {(0, 1): [(1, 2 ** 61 - 1)]}, labels=("s", "y"))
    return ders + [snobl["R1"].total, snobl["R2"].total, sl2(), p_line]


def test_a_kernel_of_a_at_the_count_is_the_engel_subalgebra():
    # ker A lies in L0(ad x) = ker A^m, whose dimension the mod-p count m
    # bounds: so dim ker A = m proves ker A = L0(ad x). The power's kernel
    # is the oracle, over drawn candidates of the search's spreads
    rng = random.Random(35)
    at_count = short = 0
    for L in _kernel_of_a_cases():
        for spread in (1, 3, 5):
            for _ in range(12):
                x = [rng.randint(-spread, spread) for _ in range(L.dim)]
                if not any(x):
                    continue
                A = L.int_ad(x)
                m = exactlin.zero_multiplicity_mod_p(A)
                k = exactlin.kernel(A, L.dim)
                assert k.dim <= m
                if k.dim == m:
                    at_count += 1
                    engel = reduce(exactlin._int_product, [A] * m)
                    assert k == exactlin.kernel(engel, L.dim)
                else:
                    short += 1
    assert at_count > 100 and short > 20


def test_a_short_kernel_of_a_reaches_the_power(monkeypatch):
    # Der(filiform:5) at seed 7: the first candidate counts 3 and is not
    # semisimple, so ker A has dimension 2 and its H comes from the power;
    # the second counts 2 with ker A = H. Each H formed is that of the power
    L = derivations(catalog.get("filiform", 5).algebra)
    ranked = _counting(monkeypatch, "zero_multiplicity_mod_p")
    kernels = _counting(monkeypatch, "kernel")
    restricted = _counting(monkeypatch, "restrict")
    h = cartan_subalgebra(L, random.Random(7))
    counts = [exactlin.zero_multiplicity_mod_p(A) for (A,) in ranked]
    assert counts == [3, 2]
    assert [exactlin.kernel(*args).dim for args in kernels] == [2, 3, 2]
    assert kernels[1][0] != ranked[0][0]   # the power, not A
    for (A,), m, (_, formed) in zip(ranked, counts, restricted):
        assert formed == exactlin.kernel(reduce(exactlin._int_product, [A] * m), L.dim)
    assert h == restricted[-1][1] and h.dim == 2


def test_the_exact_normalizer_decides_on_the_no_break_path(monkeypatch):
    # the p_adversarial.json algebra, pool of two: s counts 3 mod p with the
    # 2-dimensional Engel subalgebra span{s, t}, so the pool runs to its end
    # on s + y, which counts 3 too; s stays the pick, and dim H < 3 proves
    # nothing
    p = 2 ** 61 - 1
    L = LieAlgebra(4, {(0, 2): [(2, p)], (1, 2): [(2, 1)], (0, 3): [(3, 1)]},
                   labels=("s", "t", "y", "z"))
    monkeypatch.setattr(structure, "_POOL", 2)
    ranked = _counting(monkeypatch, "zero_multiplicity_mod_p")
    normalizers = _counting(monkeypatch, "normalizer")
    rng = _ScriptedRandom([1, 0, 0, 0, 1, 0, 1, 0], 11)
    h = cartan_subalgebra(L, rng)
    assert not rng.script
    assert h == Subspace.span(4, [[1, 0, 0, 0], [0, 1, 0, 0]]) == normalizer(L, h)
    assert [exactlin.zero_multiplicity_mod_p(A) for (A,) in ranked] == [3, 3]
    assert normalizers == [(L, h)]


def test_an_r2_whose_every_candidate_counts_dim_l_gets_r2s_fingerprint():
    # [s, y] = p y, p = 2^61 - 1: every ad x is 0 mod p, so the first
    # candidate is formed; s -> s / p maps it onto r2
    p_line = LieAlgebra(2, {(0, 1): [(1, 2 ** 61 - 1)]}, labels=("s", "y"))
    r2 = catalog.get("r2").algebra
    for seed in (1, 7, 2022):
        assert (fingerprint(p_line, random.Random(seed))
                == fingerprint(r2, random.Random(seed)))


def _traced_series(monkeypatch):
    calls = []
    real = liecore._compute_series

    def counted(L, kind):
        calls.append((L, kind))
        return real(L, kind)

    monkeypatch.setattr(liecore, "_compute_series", counted)
    return calls


def test_a_nonzero_trace_skips_the_series_of_der(monkeypatch):
    L = _fresh(catalog.get("heisenberg", 7).algebra)
    calls = _traced_series(monkeypatch)
    der = derivations(L)
    torus = maximal_torus(der, random.Random(7))
    assert torus.dim == 4
    # the series of Der(L) would read its table, which is never built
    assert "table" not in vars(der)
    assert all(M.dim != der.dim for M, _ in calls)


@pytest.mark.parametrize("name", ["sl2", "heisenberg"])
def test_zero_traces_leave_nilpotency_to_the_series(monkeypatch, name):
    # sl2: every tr ad e_i is 0 and it is not nilpotent; heisenberg:5 is
    # nilpotent. A fresh copy has no series cached by the catalog gates
    src = catalog.get(name, 5 if name == "heisenberg" else None).algebra
    L = LieAlgebra(src.dim, src.table, src.labels)
    assert not any(sum(L.ad(e).data[i][i] for i in range(L.dim))
                   for e in (L.basis_vector(i) for i in range(L.dim)))
    calls = _traced_series(monkeypatch)
    rng = random.Random(3)
    state = rng.getstate()
    h = cartan_subalgebra(L, rng)
    assert (L, "lower_central") in calls
    if name == "heisenberg":
        assert h.dim == L.dim
        assert rng.getstate() == state   # no draw on a nilpotent input
    else:
        assert h.dim == 1 and rng.getstate() != state


# ---------------------------------------------------------------------------
# nilradical

def test_nilradical_of_nilpotent_is_everything():
    for L in (heisenberg3(), filiform(5)):
        assert nilradical(L).dim == L.dim


def test_nilradical_r2():
    nr = nilradical(r2())
    assert nr.dim == 1
    assert nr.contains([0, 1])


def test_nilradical_direct_sum():
    L = direct_sum(r2(), heisenberg3())
    nr = nilradical(L)
    assert nr.dim == 4
    assert not nr.contains([1, 0, 0, 0, 0])


def test_nilradical_sl2_on_plane():
    L = sl2_on_plane()
    nr = nilradical(L)
    assert nr.dim == 2
    for v in ([0, 0, 0, 1, 0], [0, 0, 0, 0, 1]):
        assert nr.contains(v)


def test_nilradical_computes_the_radical_only_for_non_solvable_algebras(
        monkeypatch):
    calls = []
    real = structure.killing_radical
    monkeypatch.setattr(structure, "killing_radical",
                        lambda L: calls.append(L.dim) or real(L))
    for L in (direct_sum(r2(), heisenberg3()), filiform(5), r2(), abelian(0)):
        nilradical(L)
    assert calls == []   # solvable: the radical is L itself
    so2 = catalog.get("so2_torus_extension").algebra
    assert nilradical(direct_sum(sl2(), so2)) == Subspace.span(
        3 + so2.dim, [[0, 0, 0] + list(row) for row in nilradical(so2).rows()])
    assert calls == [3 + so2.dim]


def test_nilradical_is_kept_per_random_stream(monkeypatch):
    # each computed nilradical is checked once; a cached one draws nothing
    checks = _counting(monkeypatch, "_check_nilradical")
    L = direct_sum(r2(), heisenberg3())
    rng = random.Random(5)
    first = nilradical(L, rng)
    state = rng.getstate()
    assert nilradical(L, rng) == first
    assert rng.getstate() == state
    assert len(checks) == 1
    other = random.Random(5)
    assert nilradical(L, other) == first
    assert other.getstate() != random.Random(5).getstate()   # it drew again
    assert len(checks) == 2
    # None is one key of its own: computed once
    assert nilradical(L) == nilradical(L) == first
    assert len(checks) == 3


def test_calls_without_a_stream_keep_one_cache_entry_each():
    # rng=None reaches the cache keys as None, so repeated calls add nothing
    for f in (fingerprint, extensions.malcev_split_solvable, rank_bound_of):
        L = catalog.get("diagonal_torus_extension", 2).algebra
        f(L)
        size = len(L._cache)
        for _ in range(19):
            f(L)
            assert len(L._cache) == size


def test_snobl_build_runs_one_cartan_search_per_extension(monkeypatch):
    # validating each extension draws its toral parts; the splitting and the
    # nilradical of its fingerprint read them on the same stream
    calls = _counting(monkeypatch, "cartan_subalgebra")
    out = catalog.build_snobl_counterexample(random.Random(7))
    assert out["certificates"]["ok"]
    for key in ("R1", "R2"):
        assert sum(L is out[key].total for L, _ in calls) == 1


def test_fingerprint_command_runs_one_cartan_search_on_its_stream(
        monkeypatch, capsys):
    # the catalog gate's nilradical draws the toral parts on the CLI stream;
    # the fingerprint's splitting and nilradical read them
    streams = []
    real = cli._resolve
    monkeypatch.setattr(cli, "_resolve",
                        lambda src, rng: streams.append(rng) or real(src, rng))
    calls = _counting(monkeypatch, "cartan_subalgebra")
    code, _ = cli.dispatch(["fingerprint", "diagonal_torus_extension:3",
                            "--seed", "7", "--format", "json"])
    assert code == 0
    (rng,) = streams
    assert sum(r is rng for _, r in calls) == 1


def test_derivations_and_center_are_computed_once_per_algebra(monkeypatch):
    # the catalog gates of favre7 and fingerprint all read Der(L)
    solved = []
    real = structure._derivations

    def counted(L):
        solved.append(L)
        return real(L)
    monkeypatch.setattr(structure, "_derivations", counted)
    L = catalog.get("favre7", rng=random.Random(7)).algebra
    fingerprint(L, random.Random(7))
    assert sum(x is L for x in solved) == 1
    assert len({id(x) for x in solved}) == len(solved)
    assert structure.derivations(L) is structure.derivations(L)
    assert liecore.center(L) is liecore.center(L)


def test_abstract_derivations_are_built_once_per_algebra(monkeypatch):
    # the favre7 gate checks characteristic nilpotency; the torus reads the same Der
    built = []
    real = LinearLieAlgebra.to_abstract

    def counted(der):
        built.append(der.ambient)
        return real(der)
    monkeypatch.setattr(LinearLieAlgebra, "to_abstract", counted)
    L = catalog.get("favre7", rng=random.Random(7)).algebra
    assert is_characteristically_nilpotent(L)
    assert maximal_torus(derivations(L), random.Random(7)).dim == 0
    assert len(built) == 1 and built[0] is L


def _fresh(L):
    """L on a new instance, with an empty cache: a catalog gate may have
    read Der's table on the old one."""
    return LieAlgebra(L.dim, L.table, L.labels)


@pytest.mark.parametrize("build", [
    sl2, heisenberg3,
    lambda: _fresh(catalog.get("favre7").algebra),
    lambda: catalog.loads(basis_change.generate("heisenberg:7", random.Random(1))).algebra,
], ids=["sl2", "heisenberg:3", "favre7", "dense-heisenberg:7"])
def test_der_table_read_late_equals_the_eager_table(build):
    L = build()
    der = derivations(L)
    assert "table" not in vars(der)   # not built by derivations
    assert der.table == LinearLieAlgebra(L, der.basis).table
    assert der.table is der.table


def test_reading_the_table_of_an_unclosed_der_names_the_pair():
    # span{E12, E21} on abelian(2): [E12, E21] = diag(1, -1) leaves it
    L, mats = abelian(2), [Mat([[0, 1], [0, 0]]), Mat([[0, 0], [1, 0]])]
    der = structure._Derivations(L, mats)   # no witness at construction
    with pytest.raises(NotClosedError) as exc:
        der.table
    assert exc.value.pair == (0, 1)
    with pytest.raises(NotClosedError):
        der.to_abstract()


def test_fingerprint_reads_l_l_and_the_series_cached_on_l(monkeypatch):
    # [L, L] is formed once, and no copy of L is restricted to all of L
    full_products, full_restrictions = [], []
    for module in (liecore, structure, extensions):
        real = module.product_space

        def counted(L, a, b, real=real):
            if a.dim == b.dim == L.dim:
                full_products.append(L)
            return real(L, a, b)
        monkeypatch.setattr(module, "product_space", counted)
    real_restrict = structure.restrict

    def restrict(L, s):
        if s.dim == L.dim:
            full_restrictions.append(L)
        return real_restrict(L, s)
    monkeypatch.setattr(structure, "restrict", restrict)
    for L in (direct_sum(r2(), heisenberg3()), filiform(5)):
        full_products.clear()
        fingerprint(L, random.Random(1))
        assert full_products.count(L) == 1
    assert full_restrictions == []


def test_nilradical_membership_matches_ad_nilpotency():
    L = direct_sum(r2(), heisenberg3())
    nr = nilradical(L)
    rng = random.Random(7)
    for _ in range(30):
        v = [rng.randint(-3, 3) for _ in range(L.dim)]
        assert is_nilpotent(L.ad(v)) == nr.contains(v)


def _nilradical_cases():
    """Solvable extensions; the last has [L, L] meeting its Cartan subalgebra."""
    rng = random.Random(5)
    for key, param in (("heisenberg", 5), ("filiform", 5)):
        N = catalog.get(key, param).algebra
        yield standard_solvable_extension(N, rng)
    line_scaling = Mat([[int(i == j == 3) for j in range(4)] for i in range(4)])
    yield extend_by_derivations(direct_sum(heisenberg3(), abelian(1)),
                                [line_scaling])


def test_nilradical_follows_seeded_basis_changes():
    rng = random.Random(31)
    for ext in _nilradical_cases():
        n = ext.total.dim
        p = _unimodular(rng, n, 3 * n)
        _, _, p_inv = rref_with_transform(p)
        M = change_basis(ext.total, p)
        expected = Subspace.span(n, (ext.nilideal.basis @ p_inv).data)
        nr = nilradical(M, random.Random(rng.randint(0, 99)))
        assert nr == expected
        for _ in range(8):
            v = [rng.randint(-2, 2) for _ in range(n)]
            assert is_nilpotent(M.ad(v)) == nr.contains(v)
            cs = [rng.randint(-2, 2) for _ in range(nr.dim)]
            w = [sum(c * row[j] for c, row in zip(cs, nr.rows()))
                 for j in range(n)]
            assert is_nilpotent(M.ad(w))
        shifted = Subspace.span(3 + n, [[0, 0, 0] + list(row)
                                        for row in nr.rows()])
        assert nilradical(direct_sum(sl2(), M)) == shifted


# ---------------------------------------------------------------------------
# maximal torus and toric rank

def test_maximal_torus_abelian():
    # n = 0: Der = 0, and the Cartan search of the zero algebra returns 0
    for n in (0, 2, 3):
        torus = maximal_torus(derivations(abelian(n)))
        assert torus.dim == n


def test_maximal_torus_heisenberg():
    torus = maximal_torus(derivations(heisenberg3()))
    assert torus.dim == 2
    for m in torus.basis:
        assert is_semisimple(m)
        assert leibniz_holds(m, heisenberg3())


def test_torus_check_rejects_a_non_abelian_span():
    # sl2 acting on the plane: semisimple derivations that do not commute
    L = abelian(2)
    h, e = Mat([[1, 0], [0, -1]]), Mat([[0, 1], [0, 0]])
    with pytest.raises(AssertionError, match="not abelian"):
        structure._check_torus(LinearLieAlgebra(L, [h, e]), derivations(L), [], [])


def test_torus_check_rejects_a_cartan_outside_the_centralizer():
    # gl_2 on the plane: diag(1, -1) does not commute with E_01; proof (i)
    # skips h, whose commutators with T's basis are T's table, not E_01
    L = abelian(2)
    h, e = Mat([[1, 0], [0, -1]]), Mat([[0, 1], [0, 0]])
    for mats in ([e], [h, e]):
        with pytest.raises(AssertionError,
                           match="^proof failed: Cartan does not centralize the torus$"):
            structure._check_torus(LinearLieAlgebra(L, [h]), derivations(L), mats, [e])


def test_torus_check_rejects_a_generator_outside_der():
    # the identity is no derivation: I[x, y] = z, but [Ix, y] + [x, Iy] = 2z
    L = heisenberg3()
    with pytest.raises(AssertionError,
                       match="^proof failed: torus generator is not a derivation$"):
        structure._check_torus(LinearLieAlgebra(L, [Mat.identity(3)]),
                               derivations(L), [], [])


def test_the_cyclic_proof_needs_both_of_its_conditions():
    # diag(1, 2, 3) is cyclic with a squarefree minimal polynomial: its
    # centralizer is the polynomials in it, all semisimple
    assert structure._cyclic_semisimple(Mat([[1, 0, 0], [0, 2, 0], [0, 0, 3]]))
    # semisimple but not cyclic
    assert not structure._cyclic_semisimple(Mat([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
    # cyclic but not semisimple: x^2 (x - 1)
    assert not structure._cyclic_semisimple(Mat([[0, 1, 0], [0, 0, 0], [0, 0, 1]]))


@pytest.mark.parametrize("seed", [1, 7, 2022])
def test_a_cyclic_pick_returns_the_cartan_subalgebra_as_the_torus(monkeypatch, seed):
    # T = H: the torus is the matrix algebra the search built on H, so no
    # table and no commutator is formed after the search
    real_cartan, real_table = structure._cartan, liecore.induced_table
    searched, after = [], []

    def cartan(L, rng):
        searched.append(real_cartan(L, rng))
        after.clear()
        return searched[-1]

    def table(k, product, coords):
        after.append(("induced_table", k))
        return real_table(k, product, coords)

    def commutator(a, b):
        after.append(("commutator", a.rows))
        return exactlin.commutator(a, b)

    for name, param in [("heisenberg", 3), ("heisenberg", 5), ("heisenberg", 7),
                        ("heisenberg", 9), ("filiform", 5), ("filiform", 8)]:
        der = derivations(catalog.get(name, param).algebra)
        with monkeypatch.context() as m:
            m.setattr(structure, "_cartan", cartan)
            m.setattr(liecore, "induced_table", table)
            m.setattr(structure, "commutator", commutator)
            torus = maximal_torus(der, random.Random(seed))
        _, sub, x = searched[-1]
        assert structure._cyclic_semisimple(der.element(x)), (name, param)
        assert torus is sub, (name, param)
        assert after == [], (name, param)


def test_maximal_torus_draws_only_the_cartan_search():
    # the torus is proved, not sampled: the stream ends where the Cartan
    # search of Der(L) leaves it
    for L in (heisenberg3(), sl2_on_plane(), abelian(2)):
        rng, copy = random.Random(5), random.Random(5)
        maximal_torus(derivations(L), rng)
        cartan_subalgebra(derivations(L), copy)
        assert rng.getstate() == copy.getstate()


@pytest.mark.parametrize("seed", [1, 7, 2022])
def test_maximal_torus_matches_the_closed_forms(seed):
    # dim Der and dim T of three catalog families; the dimensions must not
    # depend on the Cartan search's pick
    cases = [(("heisenberg", 2 * k + 1), (k + 1) * (2 * k + 1), k + 1)
             for k in range(1, 5)]
    cases += [(("filiform", n), 2 * n - 1, 2) for n in range(4, 13)]
    cases += [(("abelian", n), n * n, n) for n in range(1, 6)]
    for (name, param), dim_der, dim_torus in cases:
        L = catalog.get(name, param).algebra
        der = derivations(L)
        assert der.dim == dim_der, (name, param)
        torus = maximal_torus(der, random.Random(seed))
        assert torus.dim == dim_torus, (name, param)
        # the retired centralizer proof as an oracle: C_Der(L)(T) is the
        # Cartan subalgebra that the search finds on the table of Der(L),
        # with the draws that built T from the matrices
        abstract = der.to_abstract()
        S = [row for t in torus.basis for row in abstract.ad(der.coords(t)).ints]
        h = cartan_subalgebra(abstract, random.Random(seed))
        assert exactlin.kernel(S, abstract.dim) == h, (name, param)


def test_maximal_torus_requires_derivation_flag():
    L = heisenberg3()
    plain = LinearLieAlgebra(L, derivations(L).basis)
    with pytest.raises(LieError):
        maximal_torus(plain)


def test_toric_rank():
    assert rank_bound_of(heisenberg3()).toric_rank == 0
    assert rank_bound_of(r2()).toric_rank == 1
    assert rank_bound_of(sl2_on_plane()).toric_rank == 1


def test_rank_bound_reuses_the_certified_nilradical(monkeypatch):
    # the toric rank is read off the nilradical the caller certified: none
    # is recomputed for a validated extension, one for a bare algebra
    sl2_mats = [Mat([[0, 1], [0, 0]]), Mat([[0, 0], [1, 0]]), Mat([[1, 0], [0, -1]])]
    exts = [standard_solvable_extension(heisenberg3()),
            extend_by_derivations(abelian(2), sl2_mats)]
    calls = _counting(monkeypatch, "_solvable_nilradical")
    for ext in exts:
        assert verify_rank_bound(ext).rank_ok
    assert calls == []
    for L in (r2(), heisenberg3(), sl2_on_plane()):
        rank_bound_of(L)
        assert len(calls) == 1
        calls.clear()


# ---------------------------------------------------------------------------
# fingerprint

def test_fingerprint_heisenberg_values():
    fp = fingerprint(heisenberg3())
    assert fp.dim == 3
    assert fp.lower_central == (3, 1, 0)
    assert fp.derived == (3, 1, 0)
    assert fp.dim_center == 1
    assert fp.dim_commutator == 1
    assert fp.dim_nilradical == 3
    assert fp.dim_der == 6
    assert fp.dim_malcev == 3


def test_fingerprint_distinguishes_abelian_from_heisenberg():
    assert fingerprint(abelian(3)) != fingerprint(heisenberg3())


def test_fingerprint_is_basis_invariant():
    L = direct_sum(r2(), heisenberg3())
    base = fingerprint(L)
    rng = random.Random(11)
    for _ in range(2):
        while True:
            p = Mat([[rng.randint(-2, 2) for _ in range(5)] for _ in range(5)])
            if rank(p) == 5:
                break
        assert fingerprint(change_basis(L, p)) == base


def _unimodular(rng, n, steps):
    """Product of elementary row operations: an integer matrix of det 1."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
    return Mat(p)


@pytest.mark.parametrize("name, param", [("heisenberg", 5), ("filiform", 6)])
def test_fingerprint_is_invariant_under_unimodular_basis_changes(name, param):
    L = catalog.get(name, param).algebra
    base = fingerprint(L, random.Random(1))
    rng = random.Random(param)
    for _ in range(2):
        M = change_basis(L, _unimodular(rng, L.dim, 3 * L.dim))
        assert len(M.table) > len(L.table)  # a denser Leibniz system
        assert fingerprint(M, random.Random(1)) == base


def test_fingerprint_nonsolvable_has_no_splitting_entry():
    fp = fingerprint(sl2())
    assert fp.dim_malcev is None
    assert fp.dim_nilradical == 0
