import json
from fractions import Fraction

import pytest

from liekit import catalog
from liekit.catalog import (
    CatalogError,
    build_snobl_counterexample,
    dumps,
    get,
    load,
    loads,
    names,
    store,
)
from liekit.liecore import center, series
from liekit.structure import (
    derivations,
    fingerprint,
    is_characteristically_nilpotent,
    maximal_torus,
    nilradical,
)
from oracles import bracket_basis


# ---------------------------------------------------------------------------
# builders


def test_names_cover_the_documented_set():
    got = set(names())
    assert got == {"abelian", "heisenberg", "filiform", "favre7", "r2", "sl2",
                   "so2_torus_extension", "diagonal_torus_extension"}


def test_abelian_entry():
    e = get("abelian", 4)
    assert e.algebra.dim == 4
    assert e.algebra.table == {}
    assert e.key == "abelian:4"


def test_heisenberg_bracket_layout():
    e = get("heisenberg", 5)
    L = e.algebra
    z = [0, 0, 0, 0, 1]
    assert bracket_basis(L, 0, 2) == z   # [p1, q1] = z
    assert bracket_basis(L, 1, 3) == z   # [p2, q2] = z
    assert bracket_basis(L, 0, 1) == [0] * 5


def test_filiform_matches_the_documented_example():
    L = get("filiform", 4).algebra
    assert bracket_basis(L, 0, 1) == [0, 0, 1, 0]
    assert bracket_basis(L, 0, 2) == [0, 0, 0, 1]
    assert [s.dim for s in series(L, "lower_central")] == [4, 2, 1, 0]


def test_parametric_names_require_a_parameter():
    with pytest.raises(CatalogError, match="parameter"):
        get("heisenberg")
    with pytest.raises(CatalogError, match="no parameter"):
        get("r2", 2)


def test_invalid_parameters_are_rejected():
    with pytest.raises(CatalogError):
        get("heisenberg", 4)
    with pytest.raises(CatalogError):
        get("filiform", 2)
    with pytest.raises(CatalogError):
        get("abelian", -1)


def test_unknown_name_is_rejected():
    with pytest.raises(CatalogError, match="unknown catalog name"):
        get("exceptional_g2")


def test_so2_torus_extension_shape():
    L = get("so2_torus_extension").algebra
    assert L.dim == 4
    assert nilradical(L).dim == 2
    assert L.is_solvable() and not L.is_nilpotent()


def test_diagonal_torus_extension_shape():
    L = get("diagonal_torus_extension", 2).algebra
    assert L.dim == 4
    assert nilradical(L).dim == 2


# ---------------------------------------------------------------------------
# the bundled 7-dimensional algebra


def test_favre7_is_characteristically_nilpotent():
    L = get("favre7").algebra
    assert L.dim == 7
    assert is_characteristically_nilpotent(L)


def test_favre7_expected_invariants_are_checked_once(monkeypatch):
    calls = []
    real = catalog._check_expected

    def counting(L, expected, rng):
        calls.append(dict(expected))
        return real(L, expected, rng)

    monkeypatch.setattr(catalog, "_check_expected", counting)
    get("favre7")
    assert len(calls) == 1
    assert calls[0]["characteristically_nilpotent"] is True


def test_favre7_nilpotency_gate_does_not_depend_on_the_data_file(monkeypatch):
    real = catalog._parse

    def dropping(text):
        name, L, expected = real(text)
        del expected["characteristically_nilpotent"]
        return name, L, expected

    monkeypatch.setattr(catalog, "_parse", dropping)
    assert get("favre7").expected["characteristically_nilpotent"] is True


def test_favre7_center_is_last_basis_line():
    L = get("favre7").algebra
    z = center(L)
    assert z.dim == 1
    assert z.contains([0, 0, 0, 0, 0, 0, 1])


def test_favre7_first_vector_generates():
    L = get("favre7").algebra
    comm = series(L, "lower_central")[1]
    assert comm.dim == 4
    assert not comm.contains([1, 0, 0, 0, 0, 0, 0])


def test_favre7_derivation_dimensions():
    L = get("favre7").algebra
    der = derivations(L)
    assert der.dim == 10
    assert maximal_torus(der).dim == 0


# ---------------------------------------------------------------------------
# serialization


def test_round_trip_identity():
    e = get("heisenberg", 3)
    back = loads(dumps(e))
    assert back.name == e.name
    assert back.algebra.dim == e.algebra.dim
    assert back.algebra.table == e.algebra.table
    assert back.algebra.labels == e.algebra.labels
    assert dict(back.expected) == dict(e.expected)


def test_store_and_load_file(tmp_path):
    path = str(tmp_path / "h3.json")
    store(get("heisenberg", 3), path)
    back = load(path)
    assert back.algebra.table == get("heisenberg", 3).algebra.table


def test_load_missing_file_names_the_path(tmp_path):
    with pytest.raises(CatalogError, match="nothing.json"):
        load(str(tmp_path / "nothing.json"))


def test_load_non_utf8_file_names_the_path(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "\xff"}')
    with pytest.raises(CatalogError, match=r"latin1\.json: not UTF-8 text: invalid start byte"):
        load(str(path))


@pytest.mark.parametrize("doc, message", [
    ({"name": "bad", "dim": 2, "basis": ["a", "a"]}, "duplicate labels"),
    ({"name": "bad", "dim": 3, "basis": ["a", "b", "c"],
      "brackets": [[1, 2, [[2, "1"], [2, "3"]]]]},
     r"brackets\[0\]\.terms\[1\]: duplicate target index 2"),
], ids=["labels", "target"])
def test_table_errors_are_catalog_errors_with_the_path(tmp_path, doc, message):
    with pytest.raises(CatalogError, match=message):
        loads(json.dumps(doc))
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CatalogError, match=f"dup.json: {message}"):
        load(str(path))


def test_malformed_json_reports_line():
    with pytest.raises(CatalogError, match="line"):
        loads("{\n  \"name\": \"x\",\n  broken\n}")


def test_bad_bracket_index_names_the_field():
    doc = {"name": "bad", "dim": 2, "basis": ["a", "b"],
           "brackets": [[1, 5, [[2, "1"]]]]}
    with pytest.raises(CatalogError, match=r"brackets\[0\]"):
        loads(json.dumps(doc))


def test_bad_rational_names_the_term():
    doc = {"name": "bad", "dim": 2, "basis": ["a", "b"],
           "brackets": [[1, 2, [[2, "1.5x"]]]]}
    with pytest.raises(CatalogError, match=r"terms\[0\]"):
        loads(json.dumps(doc))


@pytest.mark.parametrize("text, value", [
    ("1e3", Fraction(1000)), ("-2.5e-1", Fraction(-1, 4)), ("0.1", Fraction(1, 10))])
def test_rationals_with_a_point_or_an_exponent_are_exact(text, value):
    doc = {"name": "r2", "dim": 2, "basis": ["x", "y"],
           "brackets": [[1, 2, [[2, text]]]]}
    assert loads(json.dumps(doc)).algebra.table == {(0, 1): ((1, value),)}


def test_jacobi_violation_names_a_triple():
    doc = {"name": "bad", "dim": 3, "basis": ["a", "b", "c"],
           "brackets": [[1, 2, [[3, "1"]]],
                        [1, 3, [[1, "1"]]],
                        [2, 3, [[2, "1"]]]]}
    with pytest.raises(CatalogError, match=r"\(1, 2, 3\)"):
        loads(json.dumps(doc))


def test_expected_mismatch_reports_both_values():
    doc = {"name": "h3", "dim": 3, "basis": ["p", "q", "z"],
           "brackets": [[1, 2, [[3, "1"]]]],
           "expected": {"dim_der": 7}}
    with pytest.raises(CatalogError, match="expected 7, computed 6"):
        loads(json.dumps(doc))


def test_dim_torus_gate_reads_the_maximal_torus():
    # no bundled data file states dim_torus, so the gate is held here
    doc = {"name": "h3", "dim": 3, "basis": ["p", "q", "z"],
           "brackets": [[1, 2, [[3, "1"]]]],
           "expected": {"dim_torus": 2}}
    assert loads(json.dumps(doc)).expected == {"dim_torus": 2}
    doc["expected"]["dim_torus"] = 3
    with pytest.raises(CatalogError, match="expected 3, computed 2"):
        loads(json.dumps(doc))


def test_unknown_expected_key_is_rejected():
    doc = {"name": "h3", "dim": 3, "basis": ["p", "q", "z"],
           "brackets": [[1, 2, [[3, "1"]]]],
           "expected": {"dim_weirdness": 1}}
    with pytest.raises(CatalogError, match="unknown invariant"):
        loads(json.dumps(doc))


@pytest.mark.parametrize("doc, field", [
    ({"name": "bad", "dim": True, "basis": ["a"]}, "dim"),
    ({"name": "bad", "dim": 2, "basis": ["a", "b"],
      "brackets": [[True, 2, [[2, "1"]]]]}, r"brackets\[0\]"),
    ({"name": "bad", "dim": 2, "basis": ["a", "b"],
      "brackets": [[1, 2, [[True, "1"]]]]}, r"terms\[0\]"),
    ({"name": "h3", "dim": 3, "basis": ["p", "q", "z"],
      "brackets": [[1, 2, [[3, "1"]]]],
      "expected": {"dim_center": True, "nilpotent": 1}}, "expected.dim_center"),
    ({"name": "line", "dim": 1, "basis": ["a"],
      "expected": {"lower_central": [True, False]}}, "expected.lower_central"),
], ids=["dim", "bracket-index", "term-index", "expected", "expected-list"])
def test_booleans_are_not_integers(doc, field):
    with pytest.raises(CatalogError, match=field):
        loads(json.dumps(doc))


@pytest.mark.parametrize("terms, message", [
    ([[3, "0"], [3, "1"]], r"brackets\[1\]\.terms\[1\]: duplicate target index 3"),
    ([[1, "2"], [2, "1"], [2, "3"]],
     r"brackets\[1\]\.terms\[2\]: duplicate target index 2"),
], ids=["zero-copy", "nonzero"])
def test_duplicate_target_names_the_term_one_based(terms, message):
    doc = {"name": "bad", "dim": 3, "basis": ["a", "b", "c"],
           "brackets": [[1, 3, [[2, "1"]]], [1, 2, terms]]}
    with pytest.raises(CatalogError, match=f"^{message}$"):
        loads(json.dumps(doc))


def test_duplicate_pair_is_rejected():
    doc = {"name": "bad", "dim": 3, "basis": ["a", "b", "c"],
           "brackets": [[1, 2, [[3, "1"]]], [1, 2, [[3, "2"]]]]}
    with pytest.raises(CatalogError, match="duplicate"):
        loads(json.dumps(doc))


# ---------------------------------------------------------------------------
# the counterexample


def test_counterexample_certificates():
    res = build_snobl_counterexample()
    certs = res["certificates"]
    assert certs["dim"] == [9, 9]
    assert certs["dim_M"] == [9, 10]
    assert certs["dim_Der"] == [13, 12]
    assert certs["non_isomorphic"] is True
    assert certs["ok"] is True


def test_counterexample_extensions_share_the_nilradical():
    res = build_snobl_counterexample()
    r1, r2 = res["R1"], res["R2"]
    assert r1.validated and r2.validated
    assert r1.nilideal.dim == 8 and r2.nilideal.dim == 8
    assert nilradical(r1.total) == r1.nilideal
    assert nilradical(r2.total) == r2.nilideal


def test_counterexample_fingerprints_disagree_twice_over():
    res = build_snobl_counterexample()
    fp1, fp2 = (fingerprint(res["R1"].total), fingerprint(res["R2"].total))
    assert fp1.dim_der != fp2.dim_der
    assert fp1.dim_malcev != fp2.dim_malcev
