"""End-to-end checks of the command-line surface and its exit codes."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest

import liekit
from liekit import exactlin, liecore, structure
from liekit.cli import _read_derivation_file, dispatch, main
from liekit.exactlin import Mat, Poly, Subspace

# the output-digest tool, which also writes the basis-change files pinned here
_spec = importlib.util.spec_from_file_location(
    "json_digests", Path(__file__).parents[1] / "tools" / "json_digests.py")
json_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(json_digests)


def run(capsys, *argv):
    code, _ = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# happy paths

def test_der_heisenberg_dim_six(capsys):
    code, report, _ = run_json(capsys, "der", "heisenberg:3")
    assert code == 0
    assert report["values"]["dim"] == 6
    assert report["values"]["dim_inner"] == 2
    assert report["values"]["dim_outer"] == 4


def test_nilradical_r2_dim_one_with_basis(capsys):
    code, report, _ = run_json(capsys, "nilradical", "r2")
    assert code == 0
    assert report["values"]["dim"] == 1
    assert report["values"]["basis"] == [["0", "1"]]


def test_info_lists_series_and_flags(capsys):
    code, report, _ = run_json(capsys, "info", "filiform:4")
    assert code == 0
    values = report["values"]
    assert values["dim"] == 4
    assert values["nilpotent"] is True
    assert values["lower_central"] == [4, 2, 1, 0]
    assert values["dim_center"] == 1


def test_zero_dimensional_algebra_has_zero_commutator(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"name": "zero", "dim": 0, "basis": [],
                                "brackets": [],
                                "expected": {"dim_commutator": 0}}))
    for src in ("abelian:0", str(path)):
        code, report, _ = run_json(capsys, "info", src)
        assert code == 0
        assert report["values"]["dim_commutator"] == 0
        assert report["values"]["lower_central"] == [0]


def test_cartan_reports_a_basis(capsys):
    code, report, _ = run_json(capsys, "cartan", "sl2")
    assert code == 0
    assert report["values"]["dim"] == 1
    assert len(report["values"]["basis"]) == 1


def test_torus_of_favre7_is_zero(capsys):
    code, report, _ = run_json(capsys, "torus", "favre7")
    assert code == 0
    assert report["values"]["dim"] == 0
    assert report["values"]["matrices"] == []


def test_split_reports_added_dimension(capsys):
    code, report, _ = run_json(capsys, "split", "r2")
    assert code == 0
    assert report["values"]["dim_M"] == 2
    assert report["values"]["already_split"] is True


def test_fingerprint_of_catalog_name(capsys):
    code, report, _ = run_json(capsys, "fingerprint", "heisenberg:3")
    assert code == 0
    assert report["values"]["dim_der"] == 6
    assert report["values"]["lower_central"] == [3, 1, 0]


def test_extend_standard_heisenberg(capsys):
    code, report, _ = run_json(capsys, "extend", "--standard", "heisenberg:3")
    assert code == 0
    assert report["values"]["dim_total"] == 5
    assert report["values"]["torus_dim"] == 2
    assert report["certificates"]["rank_bound_ok"] is True


def test_verify_rank_bound_on_solvable_extension(capsys):
    code, report, _ = run_json(capsys, "verify", "rank-bound",
                               "so2_torus_extension")
    assert code == 0
    assert report["certificates"]["rank_ok"] is True
    assert report["certificates"]["codim_ok"] is True


def test_verify_rank_bound_lifts_nilpotent_sources(capsys):
    # on h3 alone the quotient by the nilradical is zero, so the command
    # must check the standard extension, where the bound is sharp
    code, report, _ = run_json(capsys, "verify", "rank-bound", "heisenberg:3")
    assert code == 0
    assert report["values"]["checked_on"] == "standard_extension"
    assert report["values"]["toric_rank"] == 2
    assert report["values"]["gen_bound"] == 2


def test_verify_rank_bound_fails_on_semisimple(capsys):
    # the bound is a theorem about solvable algebras; sl2 has a zero
    # nilradical and positive toric rank, so the certificate must go red
    code, report, _ = run_json(capsys, "verify", "rank-bound", "sl2")
    assert code == 1
    assert report["certificates"]["rank_ok"] is False
    assert report["values"]["toric_rank"] == 1
    assert report["values"]["gen_bound"] == 0


def test_verify_togo_equality(capsys):
    code, report, _ = run_json(capsys, "verify", "togo",
                               "heisenberg:3", "abelian:2")
    assert code == 0
    assert report["values"]["dim_der_sum"] == report["values"]["predicted"]
    assert report["certificates"]["equal"] is True


def test_demo_snobl_certificates(capsys):
    code, report, _ = run_json(capsys, "demo", "snobl")
    assert code == 0
    values = report["values"]
    assert values["dim"] == [9, 9]
    assert values["dim_M"] == [9, 10]
    assert values["dim_Der"] == [13, 12]
    assert values["non_isomorphic"] is True
    assert all(report["certificates"].values())


# ---------------------------------------------------------------------------
# source resolution

def test_file_source_reports_digest(capsys, tmp_path):
    from liekit import catalog
    path = tmp_path / "h3.json"
    catalog.store(catalog.get("heisenberg", 3), path)
    code, report, _ = run_json(capsys, "der", str(path))
    assert code == 0
    assert report["input"]["file"] == str(path)
    assert len(report["input"]["sha256"]) == 64
    assert report["values"]["dim"] == 6


def test_file_source_is_read_once(capsys, tmp_path, monkeypatch):
    import builtins
    import hashlib
    from liekit import catalog
    path = tmp_path / "h3.json"
    catalog.store(catalog.get("heisenberg", 3), path)
    real_open, opens = builtins.open, []

    def counting_open(file, *args, **kwargs):
        if str(file) == str(path):
            opens.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, report, _ = run_json(capsys, "info", str(path))
    assert code == 0
    assert len(opens) == 1
    assert report["input"]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


def test_file_source_that_is_not_utf8_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"name": "\xff"}')
    code, out, err = run(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert str(path) in err and "UTF-8" in err


def test_file_with_duplicate_labels_names_the_file(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"name": "bad", "dim": 2, "basis": ["a", "a"]}),
                    encoding="utf-8")
    code, out, err = run(capsys, "nilradical", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: duplicate labels\n"


@pytest.mark.parametrize("terms, k", [([[3, "0"], [3, "1"]], 3),
                                      ([[2, "1"], [2, "3"]], 2)],
                         ids=["zero-copy", "nonzero"])
def test_file_with_a_repeated_target_exits_2_one_based(capsys, tmp_path,
                                                       terms, k):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"name": "bad", "dim": 3, "basis": ["a", "b", "c"],
                                "brackets": [[1, 2, terms]]}), encoding="utf-8")
    code, out, err = run(capsys, "info", str(path))
    assert code == 2 and out == ""
    assert err == (f"error: {path}: brackets[0].terms[1]: "
                   f"duplicate target index {k}\n")


def test_catalog_name_wins_over_paths(capsys):
    code, report, _ = run_json(capsys, "info", "abelian:3")
    assert code == 0
    assert report["input"] == {"name": "abelian:3"}


# ---------------------------------------------------------------------------
# extend --by derivation files

def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_extend_by_accepts_semisimple_action(capsys, tmp_path):
    src = write_json(tmp_path, "scale.json",
                     {"matrices": [[["1", "0"], ["0", "1"]]],
                      "labels": ["t"]})
    code, report, _ = run_json(capsys, "extend", "--by", src, "abelian:2")
    assert code == 0
    assert report["values"]["dim_total"] == 3
    assert report["certificates"]["nilradical_preserved"] is True


def test_extend_by_rejects_nilradical_inflation(capsys, tmp_path):
    src = write_json(tmp_path, "nilp.json",
                     {"matrices": [[["0", "1"], ["0", "0"]]]})
    code, report, _ = run_json(capsys, "extend", "--by", src, "abelian:2")
    assert code == 1
    assert report["certificates"]["nilradical_preserved"] is False
    assert report["values"]["computed_nilradical_dim"] == 3
    assert report["values"]["expected_nilradical_dim"] == 2


def test_extend_by_bad_matrix_shape_is_input_error(capsys, tmp_path):
    src = write_json(tmp_path, "bad.json", {"matrices": [[["1", "0"]]]})
    code, out, err = run(capsys, "extend", "--by", src, "abelian:2")
    assert code == 2
    assert "2x2" in err


def test_extend_by_dependent_matrices_is_input_error(capsys, tmp_path):
    src = write_json(tmp_path, "dep.json",
                     {"matrices": [[[1, 0], [0, 1]], [[2, 0], [0, 2]]]})
    code, out, err = run(capsys, "extend", "--by", src, "abelian:2",
                         "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {src}: matrices[1] ")
    assert "Traceback" not in err
    # [A, B, A+B, C]: the first dependent matrix is the third
    a, b, c = [[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 0]]
    src = write_json(tmp_path, "dep3.json",
                     {"matrices": [a, b, [[1, 0], [0, 1]], c]})
    code, out, err = run(capsys, "extend", "--by", src, "abelian:2")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {src}: matrices[2] ")


def test_extend_by_malformed_json_is_input_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    code, out, err = run(capsys, "extend", "--by", str(path), "abelian:2")
    assert code == 2
    assert "line" in err


def test_extend_by_file_that_is_not_utf8_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"matrices": "\xff"}')
    code, out, err = run(capsys, "extend", "--by", str(path), "abelian:2")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: not UTF-8 text: ")
    assert "Traceback" not in err


def _over_the_digit_limit():
    """A JSON integer literal longer than int() converts from text."""
    return "1" * max(5000, sys.get_int_max_str_digits() + 1)


needs_digit_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python converts integer text of any length")


@needs_digit_limit
def test_extend_by_integer_past_the_digit_limit_is_input_error(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(f'{{"matrices": [[[{_over_the_digit_limit()}, 0], [0, 1]]]}}',
                    encoding="utf-8")
    code, out, err = run(capsys, "extend", "--by", str(path), "abelian:2")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and "digits" in err
    assert "Traceback" not in err


@needs_digit_limit
def test_catalog_file_with_a_dim_past_the_digit_limit_is_input_error(
        capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(f'{{"name": "long", "dim": {_over_the_digit_limit()}, '
                    f'"basis": [], "brackets": []}}', encoding="utf-8")
    code, out, err = run(capsys, "info", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and "digits" in err
    assert "Traceback" not in err


# int() refuses these digits before any builder runs
@needs_digit_limit
def test_catalog_parameter_past_the_digit_limit_is_input_error(capsys):
    code, out, err = run(capsys, "info", f"heisenberg:{_over_the_digit_limit()}")
    assert (code, out) == (2, "")
    assert err == (f"error: heisenberg: parameter has more than "
                   f"{sys.get_int_max_str_digits()} digits\n")


# Fraction builds 10^|exponent| in full, which the digit limit on int() does
# not bound: unchecked, each 12-character entry runs for minutes
@needs_digit_limit
@pytest.mark.parametrize("entry", ['"1e99999999"', "1e99999999"])
def test_extend_by_exponent_past_the_digit_limit_is_input_error(
        capsys, tmp_path, entry):
    path = tmp_path / "exp.json"
    path.write_text(f'{{"matrices": [[[1, 0], [0, {entry}]]]}}', encoding="utf-8")
    started = time.monotonic()
    code, out, err = run(capsys, "extend", "--by", str(path), "abelian:2")
    assert time.monotonic() - started < 1
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: matrices[0]: exponent exceeds "
                   f"{sys.get_int_max_str_digits()} in magnitude\n")


@needs_digit_limit
def test_catalog_file_with_an_exponent_past_the_digit_limit_is_input_error(
        capsys, tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"name": "r2", "dim": 2, "basis": ["x", "y"],
                                "brackets": [[1, 2, [[2, "1e-99999999"]]]]}),
                    encoding="utf-8")
    started = time.monotonic()
    code, out, err = run(capsys, "info", str(path))
    assert time.monotonic() - started < 1
    assert (code, out) == (2, "")
    assert err == (f"error: {path}: brackets[0].terms[0]: exponent exceeds "
                   f"{sys.get_int_max_str_digits()} in magnitude\n")


# both commands read favre7.json: info directly, the demo for its summand N7
@pytest.mark.parametrize("argv", [("info", "favre7"), ("demo", "snobl")])
def test_data_files_are_read_as_utf8(argv):
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-m", "liekit.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(Path(liekit.__file__).parents[1])),
        capture_output=True, encoding="utf-8")
    assert proc.returncode == 0, proc.stderr


# once as strings and once as JSON numbers
@pytest.mark.parametrize("a, b, c", [('"1e3"', '"-2.5e-1"', '"0.1"'),
                                     ("1e3", "-2.5e-1", "0.1")])
def test_derivation_file_rationals_are_exact(tmp_path, a, b, c):
    path = tmp_path / "exact.json"
    path.write_text(f'{{"matrices": [[[{a}, {b}], [{c}, 0]]]}}', encoding="utf-8")
    (m,), _ = _read_derivation_file(str(path), 2)
    assert m.data == [[Fraction(1000), Fraction(-1, 4)], [Fraction(1, 10), 0]]


# ---------------------------------------------------------------------------
# labels that clash in a direct sum get primes until they are free

def abelian_file(tmp_path, name, basis):
    return write_json(tmp_path, name, {"name": name, "dim": len(basis),
                                       "basis": basis, "brackets": []})


def test_togo_on_labels_x_xprime_and_x(capsys, tmp_path):
    a = abelian_file(tmp_path, "a.json", ["x", "x'"])
    b = abelian_file(tmp_path, "b.json", ["x"])
    code, report, _ = run_json(capsys, "verify", "togo", a, b)
    assert code == 0
    assert report["certificates"]["equal"] is True


def test_extend_by_generator_x_on_labels_xprime_and_x(capsys, tmp_path):
    src = abelian_file(tmp_path, "n.json", ["x'", "x"])
    by = write_json(tmp_path, "by.json", {"matrices": [[[1, 0], [0, 1]]],
                                          "labels": ["x"]})
    code, report, _ = run_json(capsys, "extend", "--by", by, src)
    assert code == 0
    assert report["values"]["basis"] == ["x", "x'", "x''"]


# ---------------------------------------------------------------------------
# error exits

def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_unknown_flag_is_usage_error(capsys):
    assert main(["der", "sl2", "--frodo"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--format", "json", "rank-bound", "heisenberg:3"],
    ["demo", "--seed", "5", "snobl"],
])
def test_options_before_a_nested_subcommand_are_usage_errors(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err


def test_options_after_a_nested_subcommand_are_used(capsys):
    code, out, _ = run(capsys, "verify", "rank-bound", "heisenberg:3",
                       "--format", "json", "--seed", "5")
    report = json.loads(out)
    assert code == 0
    assert report["command"] == "verify rank-bound"
    assert report["seed"] == 5


def test_unknown_name_is_input_error(capsys):
    code, out, err = run(capsys, "der", "nosuchalgebra")
    assert code == 2
    assert "nosuchalgebra" in err


def test_missing_parameter_is_input_error(capsys):
    code, out, err = run(capsys, "der", "abelian")
    assert code == 2
    assert "parameter" in err


def test_non_integer_parameter_is_input_error(capsys):
    code, out, err = run(capsys, "der", "abelian:two")
    assert code == 2
    assert "integer" in err


@pytest.mark.parametrize("src", ["favre7:", "r2:", "heisenberg:"])
def test_a_colon_with_no_parameter_is_input_error(capsys, src):
    # an empty parameter is not the absent one: favre7 and r2 take none
    code, out, err = run(capsys, "info", src)
    assert code == 2
    assert out == ""
    assert f"error: {src}: parameter must be an integer" in err


# each is heisenberg:3 to int(): underscores, spaces, a sign, non-ASCII digits
@pytest.mark.parametrize("param", ["0_3", " 3", "3 ", "+3", "３", "٣"])
def test_parameter_is_ascii_digits_only(capsys, param):
    code, out, err = run(capsys, "info", f"heisenberg:{param}")
    assert code == 2
    assert out == ""
    assert f"error: heisenberg:{param}: parameter must be an integer" in err


# each is a seed to int(): 10, 7 and 7
@pytest.mark.parametrize("seed", ["1_0", "\u0667", " 7"])
def test_seed_is_ascii_digits_only(capsys, seed):
    assert main(["info", "r2", "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --seed: invalid int value: {seed!r}" in captured.err


@needs_digit_limit
def test_seed_past_the_digit_limit_gives_the_limit(capsys):
    # argparse would name the converter and echo every digit
    seed = _over_the_digit_limit()
    assert main(["info", "heisenberg:3", "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "_integer" not in captured.err
    assert len(captured.err) < len(seed)
    assert (f"argument --seed: has more than {sys.get_int_max_str_digits()} digits"
            in captured.err)


def test_negative_seed_runs(capsys):
    code, report, _ = run_json(capsys, "info", "r2", "--seed", "-3")
    assert (code, report["seed"]) == (0, -3)


def test_negative_parameter_reaches_the_builder(capsys):
    code, out, err = run(capsys, "info", "heisenberg:-1")
    assert code == 2
    assert "error: heisenberg: dimension must be odd and >= 3" in err


def test_failed_internal_check_exits_3_without_a_report(capsys, monkeypatch):
    def broken(L):
        raise AssertionError("dimension bookkeeping")

    monkeypatch.setattr("liekit.cli.derivations", broken)
    code, out, err = run(capsys, "der", "heisenberg:3", "--format", "json")
    assert code == 3
    assert out == ""
    assert "error: internal check failed: dimension bookkeeping" in err
    assert "Traceback" not in err
    assert main(["der", "heisenberg:3"]) == 3


def test_failed_self_normalization_proof_exits_3(capsys, tmp_path, monkeypatch):
    # on p_line.json every candidate counts dim L = 2 mod p, so the pick's
    # H = span{x} has dim below its count and the exact normalizer decides;
    # forced to say N(h) = L, the proof fails
    src = write_json(tmp_path, "p_line.json", json_digests.P_LINE)
    normalizers = []

    def whole(L, h):
        normalizers.append(h.dim)
        return L.full_space()

    monkeypatch.setattr("liekit.structure.normalizer", whole)
    code, out, err = run(capsys, "cartan", src, "--format", "json")
    assert code == 3
    assert out == ""
    assert "error: internal check failed: proof failed: L0(ad x) not self-normalizing" in err
    assert normalizers == [1]


@pytest.mark.parametrize("src, proof", [
    # the Cartan still centralizes the subtorus left, so only the joint
    # nilpotency of the parts h - s(h) fails, h_1 itself among them
    ("heisenberg:3", "parts h - s(h) are not jointly nilpotent"),
    ("heisenberg:7", "parts h - s(h) are not jointly nilpotent"),
])
def test_a_torus_short_of_one_semisimple_part_fails_its_proof(
        capsys, monkeypatch, src, proof):
    # the cyclic pick proves the parts without jordan_chevalley; with its
    # Sylvester test off, the parts come from jordan_chevalley
    monkeypatch.setattr(structure, "_squarefree_mod_p", lambda mu: False)
    real, calls = structure.jordan_chevalley, []

    def first_part_zeroed(m):
        calls.append(m)
        jc = real(m)
        return jc._replace(s=Mat.zeros(*m.shape)) if len(calls) == 1 else jc

    monkeypatch.setattr(structure, "jordan_chevalley", first_part_zeroed)
    code, out, err = run(capsys, "torus", src, "--seed", "7", "--format", "json")
    assert code == 3
    assert out == ""
    assert f"error: internal check failed: proof failed: {proof}\n" in err


def test_a_failed_semisimple_part_proof_exits_3_through_the_torus(capsys, monkeypatch):
    # at seed 7 the toral parts s(ad h) of the Malcev splittings of R1 and
    # R2 go through Newton twice (no catalog torus command runs it); with
    # h = 0 the iterate never moves and jordan_chevalley's closing check fails
    real, newton = exactlin._derivative_inverse, []

    def counted(g):
        newton.append(g)
        return real(g)

    monkeypatch.setattr(exactlin, "_derivative_inverse", counted)
    assert run(capsys, "demo", "snobl", "--seed", "7", "--format", "json")[0] == 0
    assert len(newton) == 2
    monkeypatch.setattr(exactlin, "_derivative_inverse", lambda g: Poly.zero())
    code, out, err = run(capsys, "demo", "snobl", "--seed", "7", "--format", "json")
    assert code == 3
    assert out == ""
    assert ("error: internal check failed: proof failed: "
            "g(s) != 0 for the semisimple part s\n") in err


@pytest.mark.parametrize("seed", ["1", "7", "2022"])
def test_a_cyclic_pick_proves_the_torus_without_jordan_chevalley(
        capsys, monkeypatch, seed):
    # the picks on these Der(L) have a squarefree minimal polynomial of
    # degree dim L, so H is the torus and its basis the parts
    def refuse(m):
        raise AssertionError("jordan_chevalley called")

    monkeypatch.setattr(structure, "jordan_chevalley", refuse)
    monkeypatch.setattr(exactlin, "jordan_chevalley", refuse)
    for src in ("heisenberg:3", "heisenberg:5", "heisenberg:7", "heisenberg:9",
                "filiform:5", "filiform:8"):
        assert run(capsys, "torus", src, "--seed", seed)[0] == 0, src


@pytest.mark.parametrize("src", ["heisenberg:7", "filiform:8"])
def test_the_torus_without_the_cyclic_proof_prints_the_same_bytes(
        capsys, monkeypatch, src):
    argv = ("torus", src, "--seed", "7", "--format", "json")
    code, want, _ = run(capsys, *argv)
    assert code == 0
    real, parts = structure.jordan_chevalley, []

    def counted(m):
        parts.append(m)
        return real(m)

    monkeypatch.setattr(structure, "_squarefree_mod_p", lambda mu: False)
    monkeypatch.setattr(structure, "jordan_chevalley", counted)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == want
    assert len(parts) == json.loads(want)["values"]["dim"]   # H = T


def test_a_der_not_closed_under_commutators_fails_its_sample(capsys, monkeypatch):
    # span{E12, E21} holds the inner derivations of abelian:2 (none), but
    # its commutator diag(1, -1) leaves it
    real = structure.kernel
    outer = Subspace.span(4, [[0, 1, 0, 0], [0, 0, 1, 0]])
    monkeypatch.setattr(structure, "kernel", lambda rows, cols=None: (
        outer if cols == 4 else real(rows, cols)))
    code, out, err = run(capsys, "der", "abelian:2", "--format", "json")
    assert code == 3
    assert out == ""
    assert ("error: internal check failed: sample failed: "
            "Der(L) not closed under commutators\n") in err


def test_only_the_commands_that_read_der_build_its_table(capsys, monkeypatch):
    # Der(L)'s table is built on its first read, as the cached property
    real, built = structure._Derivations, []

    class Counted(real):
        @cached_property
        def table(self):
            built.append(self.dim)
            return real.table.func(self)
    monkeypatch.setattr(structure, "_Derivations", Counted)
    # der heisenberg:3 and fingerprint r2 run the catalog dim_der gate too;
    # the Cartan search of torus heisenberg:k reads ad x from the matrices
    for argv in (["fingerprint", "heisenberg:5"], ["fingerprint", "r2"],
                 ["der", "heisenberg:3"], ["der", "filiform:5"],
                 ["verify", "togo", "heisenberg:3", "abelian:2"],
                 ["extend", "--standard", "heisenberg:3"],
                 ["verify", "rank-bound", "heisenberg:3"],
                 *(["torus", f"heisenberg:{k}"] for k in range(3, 14, 2))):
        assert run(capsys, *argv)[0] == 0, argv
    assert built == []
    # every tr ad D of Der(favre7) is 0, so the table's series decides
    assert run(capsys, "torus", "favre7")[0] == 0
    assert built == [10]


def test_only_a_basis_the_caller_fixes_builds_a_coordinate_transform(
        capsys, monkeypatch, tmp_path):
    # a matrix algebra is its RREF span, read at the pivots; the transform
    # of _Coordinates serves change_basis and semidirect_sum's generators
    # when they are not in RREF
    real, built = liecore._Coordinates, []

    def counted(basis):
        built.append(basis.shape)
        return real(basis)
    monkeypatch.setattr(liecore, "_Coordinates", counted)
    for argv in (["torus", "heisenberg:7"], ["cartan", "filiform:8"],
                 ["nilradical", "diagonal_torus_extension:3"],
                 ["fingerprint", "heisenberg:5"]):
        assert run(capsys, *argv)[0] == 0, argv
    assert built == []
    # the rotation comes first; the RREF of the span leads with the identity
    src = write_json(tmp_path, "so2.json",
                     {"matrices": [[["0", "1"], ["-1", "0"]], [["1", "0"], ["0", "1"]]]})
    assert run(capsys, "extend", "--by", src, "abelian:2")[0] == 0
    assert built == [(2, 4)]
    liecore.change_basis(liecore.LieAlgebra(2, {(0, 1): [(1, 1)]}),
                         Mat([[1, 1], [0, 1]]))
    assert built == [(2, 4), (2, 2)]


def test_an_overcounted_der_search_reaches_the_exact_normalizer(capsys, monkeypatch):
    # every count one too high: the first candidate's H = L0(ad x) has
    # dim H < its count, no later count beats it, and the exact normalizer
    # on Der(L)'s int_ad proves N(H) = H for the same pick. The first
    # candidate of Der(heisenberg:5) is cyclic semisimple, so the Q[X] route
    # is turned off to reach the count; its bytes are the oracle
    argv = ("torus", "heisenberg:5", "--seed", "7", "--format", "json")
    code, want, _ = run(capsys, *argv)
    assert code == 0
    real_count, real_normalizer = structure.zero_multiplicity_mod_p, structure.normalizer
    normalized = []

    def normalizer(L, h):
        normalized.append(L)
        return real_normalizer(L, h)

    monkeypatch.setattr(structure, "_polynomials_first", lambda L: False)
    monkeypatch.setattr(structure, "zero_multiplicity_mod_p", lambda A: real_count(A) + 1)
    monkeypatch.setattr(structure, "normalizer", normalizer)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == want
    assert normalized and all(isinstance(L, structure._Derivations) for L in normalized)


def test_a_first_candidate_that_fails_the_cyclic_test_prints_the_same_torus(
        capsys, monkeypatch):
    # Der(heisenberg:7) at seed 7: the first candidate is cyclic semisimple
    # and takes the Q[X] route. Refused once, it is ranked by the count,
    # picked, and its refusal is kept: jordan_chevalley builds T, and the
    # bytes are those of the Q[X] route
    argv = ("torus", "heisenberg:7", "--seed", "7", "--format", "json")
    formed = []
    real_formed = structure._polynomial_cartan
    monkeypatch.setattr(structure, "_polynomial_cartan",
                        lambda L, X: formed.append(X) or real_formed(L, X))
    code, want, _ = run(capsys, *argv)
    assert code == 0 and len(formed) == 1
    real_test, real_count = structure._cyclic_semisimple, structure.zero_multiplicity_mod_p
    tested, counted, parts = [], [], []

    def refuse_first(X):
        tested.append(X)
        return len(tested) > 1 and real_test(X)

    real_jc = structure.jordan_chevalley
    monkeypatch.setattr(structure, "_cyclic_semisimple", refuse_first)
    monkeypatch.setattr(structure, "zero_multiplicity_mod_p",
                        lambda A: counted.append(A) or real_count(A))
    monkeypatch.setattr(structure, "jordan_chevalley",
                        lambda m: parts.append(m) or real_jc(m))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == want
    assert len(formed) == 1 and len(tested) == 1 and tested[0] == formed[0]
    assert counted and len(parts) == 4


@pytest.mark.parametrize("flag, want", [(False, 0), (True, 2)])
def test_one_dimensional_algebra_is_not_characteristically_nilpotent(
        capsys, tmp_path, flag, want):
    # Der = gl_1 is abelian, yet the identity is not nilpotent
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"name": "line", "dim": 1, "basis": ["e1"],
                                "brackets": [],
                                "expected": {"characteristically_nilpotent": flag}}))
    code, _, err = run(capsys, "info", str(path), "--format", "json")
    assert code == want
    if flag:
        assert "expected True, computed False" in err


def test_togo_rejects_non_nilpotent_input(capsys):
    code, out, err = run(capsys, "verify", "togo", "r2", "abelian:2")
    assert code == 2
    assert "nilpotent" in err


# ---------------------------------------------------------------------------
# output handling and determinism

def test_output_flag_writes_file_and_silences_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "split", "r2", "--format", "json",
                         "--output", str(target))
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text(encoding="utf-8"))
    assert report["values"]["dim_M"] == 2


def test_output_failure_leaves_the_old_file_and_no_temporary(capsys, tmp_path,
                                                              monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("old report\n", encoding="utf-8")

    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr("liekit.cli.os.replace", refuse)
    code, out, err = run(capsys, "info", "r2", "--output", str(target))
    assert code == 2
    assert out == ""
    assert "No space left on device" in err
    assert target.read_text(encoding="utf-8") == "old report\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_output_onto_a_directory_is_refused_and_cleaned_up(capsys, tmp_path):
    target = tmp_path / "taken"
    target.mkdir()
    code, out, _ = run(capsys, "info", "r2", "--output", str(target))
    assert code == 2
    assert out == ""
    assert target.is_dir() and not any(target.iterdir())
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_output_replaces_an_existing_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    target.write_text("old report\n", encoding="utf-8")
    code, out, _ = run(capsys, "info", "r2", "--format", "json",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text(encoding="utf-8"))["values"]["dim"] == 2
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_same_seed_gives_byte_identical_json(capsys):
    _, first, _ = run(capsys, "fingerprint", "heisenberg:5",
                      "--seed", "17", "--format", "json")
    _, second, _ = run(capsys, "fingerprint", "heisenberg:5",
                       "--seed", "17", "--format", "json")
    assert first == second


def test_seed_changes_are_reported_but_values_agree(capsys):
    _, first, _ = run_json(capsys, "fingerprint", "heisenberg:5", "--seed", "1")
    _, second, _ = run_json(capsys, "fingerprint", "heisenberg:5", "--seed", "2")
    assert first["seed"] == 1 and second["seed"] == 2
    assert first["values"] == second["values"]


def test_timing_goes_to_stderr_not_stdout(capsys):
    code, out, err = run(capsys, "der", "abelian:2")
    assert "elapsed" in err
    assert "elapsed" not in out


def test_text_and_json_carry_the_same_values(capsys):
    _, text_out, _ = run(capsys, "der", "heisenberg:3")
    _, report, _ = run_json(capsys, "der", "heisenberg:3")
    assert "values.dim: 6" in text_out
    assert report["values"]["dim"] == 6


# sha256 of the --seed 1 --format json stdout of each command; a change that
# alters any output byte (values, key order, RNG use) fails here
PINNED_JSON = {
    ("der", "heisenberg:5"):
        "bb4802a3e4afa3b1ba916f12002ba337a7482e52cef579a71f83ae89694082ef",
    ("torus", "filiform:5"):
        "3ae9bb391281d2024134d09a2a1609dbcc0bfb84fcb66ab1527d0f9e2dee90e9",
    # the pinned command with the most minpoly and Jordan-Chevalley calls
    ("torus", "heisenberg:7"):
        "f46f960c03ce486d8b5b7f2430852afaa9827ce2786d5be311da4270f05bfef8",
    # Der(L) of dimension 45: the heaviest Cartan search and Jordan-Chevalley
    ("torus", "heisenberg:9"):
        "66a7e9115172170612895d96748e142f86cf676b53b8ba6719d110cda22e5002",
    ("extend", "--standard", "heisenberg:3"):
        "b415c3531868225d83217e3d0adcfd6534d522072c1c845f5888e10ac663b0ec",
    # Der(L) of dimension 45, where the mod-p kernel check skips all but a
    # few of the ranked Cartan candidates
    ("extend", "--standard", "heisenberg:9"):
        "c7e5280f6ca4de673ba72e599faedbfd3050dcaa9bc2ba26d662399452fd0baa",
    ("split", "diagonal_torus_extension:3"):
        "11d526e8ee3c3157625b493602a434ebf496595893903d0070f3de7b6ea371e7",
    ("fingerprint", "favre7"):
        "3d97a82f1d8a134b3f87a70cd69c1af0c8ba817d7555d64f8f13780ee9f134b0",
    ("nilradical", "diagonal_torus_extension:3"):
        "d9264065bbe52d3b19c5d6960961239ab9bd600cd85271d885c51ab7545a1eaf",
    ("verify", "rank-bound", "so2_torus_extension"):
        "7da0018c6484ac3d4a72463bd6292d15b0b25088d10cd2caa0ec4e17a4b9bdf0",
    ("verify", "rank-bound", "filiform:4"):
        "05dc18d0fad033689ac2ed3af140d1b5f95670733f0e051531c2a39c0ba4232e",
    # not solvable: the toric rank is a Cartan subalgebra of L / N; exits 1
    ("verify", "rank-bound", "sl2"):
        "307ab7a3239ce33c5182c916c6d0874420a2adab5a1b18eb23d429a9e8f4a814",
    # dense Der(L) and torus matrices, written by _write_basis_change
    ("torus", "heisenberg5_dense.json"):
        "c8608e0e476c9900b971f0e42c66748a88d412d2697309812f0ef33df4a64d0b",
    # tables with denominators (bases of determinant 2 and 3)
    ("nilradical", "so2_det2.json"):
        "c7fbed2e3a516698aa6d814cccb08a4ed1e38b6fb4a738db69d185f3b88f5aa3",
    ("split", "so2_det2.json"):
        "57122da2762a02fa38217737087bd54c1821de45c0db7dec7dc61d836f5e2bad",
    ("torus", "heisenberg5_det3.json"):
        "4bbc953dd5084c1233f11b0e65c2d695ab9bc61c27d0381cf5ae921b42f9019a",
    # the Cartan search itself: semisimple, solvable and nilpotent inputs
    ("cartan", "sl2"):
        "5fc4f72a708877794ab91bb67f8632b3c56a20abf2b113b4f00fe98056a72509",
    ("cartan", "r2"):
        "4d01487e0944ac25f8561040808a1f9743ddebe5b171fb9e014e6f216f70f7fe",
    ("cartan", "so2_torus_extension"):
        "303943391dc77b9a8a76e9a8f93a441c42c66fb4b8a636f619c525aa083dcacc",
    ("cartan", "diagonal_torus_extension:3"):
        "748d8c0a3464999f301f7d50ce1885fe18399827d7e8dbae4964a36da1044868",
    ("cartan", "heisenberg:5"):
        "9691941bd3d493a7ba4cb726347ece27a1ef8781f8260c6e0b80bcf740bd2596",
    ("cartan", "so2_det2.json"):
        "0b30d15b1001f87679c9bcdbf9797e507186319b213a5a94ab9c6f29b7f029f4",
    ("cartan", "heisenberg5_det3.json"):
        "9fbb69688b3dca0773fcfe82ea4eb4a41feb43f91756a45331a0260c455f14c9",
    # one derivation with entries that a float cannot hold, written as JSON
    # numbers and as strings: both are read exactly, so the bytes agree
    ("extend", "--by", "heisenberg3_numbers.json", "heisenberg:3"):
        "05da319315dd4ebf5f11bac09a998d7b5a31369bd398beead67f34961f556cbd",
    ("extend", "--by", "heisenberg3_strings.json", "heisenberg:3"):
        "05da319315dd4ebf5f11bac09a998d7b5a31369bd398beead67f34961f556cbd",
}

# exit code of a pinned command that does not exit 0
PINNED_CODES = {("verify", "rank-bound", "sl2"): 1,
                ("extend", "--by", "plane_nilpotent.json", "abelian:2"): 1}

# file name -> (catalog name, parameter, seed, determinant of the basis)
PINNED_FILES = {
    "heisenberg5_dense.json": ("heisenberg", 5, 5, 1),
    "so2_det2.json": ("so2_torus_extension", None, 6, 2),
    "heisenberg5_det3.json": ("heisenberg", 5, 7, 3),
}


@pytest.mark.parametrize("argv", sorted(PINNED_JSON), ids=" ".join)
def test_json_output_bytes_are_pinned(capsys, tmp_path, monkeypatch, argv):
    # file sources are read relative to tmp_path, so the report names no path
    monkeypatch.chdir(tmp_path)
    for path, spec in PINNED_FILES.items():
        json_digests.write_basis_change(path, *spec)
    for path, (_, text) in json_digests.TEXT_DERIVATION_FILES.items():
        (tmp_path / path).write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, *argv, "--seed", "1", "--format", "json")
    assert code == PINNED_CODES.get(argv, 0)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_JSON[argv]


# sha256 of the --seed 1 --format text stdout: records, tuples and nested
# lists of records as the text renderer writes them, and one command of each
# kind, so that the key order of every report is pinned
PINNED_TEXT = {
    ("fingerprint", "favre7"):
        "b551394bce15183400a9a922893440a6e79d40b9a66690c20a05cb92bc56a2eb",
    ("verify", "togo", "heisenberg:3", "abelian:2"):
        "962716aa6491430b890da5374360aea39cb44b0353b5714e387adca0fed78725",
    ("demo", "snobl"):
        "b005d5dd7dd9b705daeb21d0d6d8292872ad25770557cf74f4770a659ab2d213",
    ("info", "filiform:4"):
        "6627e06719a502b6258ea4ec06786cea8c655747910f5fb39b6cd9724f77778a",
    ("der", "heisenberg:3"):
        "857408ebf12bcbe2e60efeb6661386680815e5c3c03bc8734a27b5561d8404b1",
    ("nilradical", "diagonal_torus_extension:3"):
        "f3f1f7500abb98b42dacf00e4b261f77fb682d0bcd545c650668ef47e385eba5",
    ("cartan", "sl2"):
        "58fce5edcf0ad05388aed7a65fd508038f86f078bfe4f531a2a8f660e1ca6eaf",
    ("torus", "heisenberg:3"):
        "0673239fa366b91d4fd225687db76558040156baca3956aa068ca9d273f0ea04",
    ("split", "r2"):
        "40160616926a4d5f2ac238f19255b61f3e1c25591860d37d5954486dacf6b5e2",
    ("extend", "--standard", "heisenberg:3"):
        "258386c87f87c44943872690d6d4e5614d506b8089107f3d6e0ff5116f803830",
    # one derivation file that is accepted and one that is refused (exit 1)
    ("extend", "--by", "plane_diagonal.json", "abelian:2"):
        "cf26883e22dd9341ef3c2621632859ecf7dc0817d5bd76cdb21f574817c43f9c",
    ("extend", "--by", "plane_nilpotent.json", "abelian:2"):
        "0e66de75eed6c9e21bc31a9a21fafb4edafb2085fe0d619eca365220abb0b11e",
    # both branches: the standard extension of a nilpotent source, and the
    # source itself
    ("verify", "rank-bound", "heisenberg:3"):
        "fb67776378e457b4e670564738dd7c185a0da68ee95560bc58beaf08552999c8",
    ("verify", "rank-bound", "r2"):
        "57d4b4ab483b7fea5ad0d621945942e1394b8888d51ff568780ec272af92ad61",
}


@pytest.mark.parametrize("argv", sorted(PINNED_TEXT), ids=" ".join)
def test_text_output_bytes_are_pinned(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for path, (_, mats) in json_digests.DERIVATION_FILES.items():
        (tmp_path / path).write_text(json.dumps({"matrices": mats}),
                                     encoding="utf-8")
    code, out, _ = run(capsys, *argv, "--seed", "1", "--format", "text")
    assert code == PINNED_CODES.get(argv, 0)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_TEXT[argv]


# the whole stderr of three input errors, which exit 2 before any report
PINNED_STDERR = {
    ("info", "no_such_algebra"):
        "error: no_such_algebra: No such file or directory\n",
    ("extend", "--by", "broken.json", "abelian:2"):
        "error: broken.json: line 1: Expecting property name enclosed in "
        "double quotes\n",
    ("extend", "--by", "dup.json", "abelian:2"):
        "error: dup.json: labels must be distinct\n",
}


@pytest.mark.parametrize("argv", sorted(PINNED_STDERR), ids=" ".join)
def test_input_error_stderr_is_pinned(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.json").write_text("{", encoding="utf-8")
    write_json(tmp_path, "dup.json", {"matrices": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                                      "labels": ["t", "t"]})
    for fmt in ("text", "json"):
        code, out, err = run(capsys, *argv, "--seed", "1", "--format", fmt)
        assert (code, out, err) == (2, "", PINNED_STDERR[argv])


def test_digest_tool_line_matches_the_pin():
    # exit code, stdout digest, digest of the empty stderr, argv
    argv = ("cartan", "sl2", "--seed", "1", "--format", "json")
    assert argv in json_digests.commands()
    line = json_digests.run(argv)
    empty = hashlib.sha256(b"").hexdigest()
    assert line == f"0 {PINNED_JSON[argv[:2]]} {empty} {' '.join(argv)}"
