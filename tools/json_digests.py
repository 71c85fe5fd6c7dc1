"""Digest the stdout and stderr of a fixed set of liekit commands.

Usage:

    python tools/json_digests.py ROOT > digests.txt

ROOT is a liekit checkout. Its `src/` is imported ahead of any installed
copy, and every command runs in this one process through
`liekit.cli.dispatch`. Each line is the exit code, the sha256 of stdout,
the sha256 of stderr without its `elapsed:` line, and the argv. Two
checkouts print the same lines exactly when every command prints the same
bytes and exits with the same code, so a refactor that must not change any
output is checked with

    python tools/json_digests.py PARENT > parent.txt
    python tools/json_digests.py . > change.txt
    diff parent.txt change.txt

`tools/digests.txt` holds the lines of the committed tree, as printed by
`python -W error tools/json_digests.py .`, and CI diffs its run against
it; a change that means to alter an output updates that file with it.

The set covers every subcommand, `extend --standard` and
`verify rank-bound` on the catalog sources and on seeded basis changes
(some with denominators, two dense and 7-dimensional), `torus
heisenberg:9` (a Cartan search in Der(heisenberg:9), of dimension 45),
`cartan`, `nilradical`, `split` and `fingerprint` on an algebra whose
Cartan ranking mod 2^61 - 1 counts one candidate above its exact count,
the same four and `verify rank-bound` on one where it counts every
candidate nilpotent,
`extend --by` on derivation files (one with entries of about 260 bits,
one derivation written once as JSON numbers of 20 decimal places and
once as strings, two that break the Leibniz rule and one whose span is
not bracket-closed), `verify togo` on
pairs, `demo snobl`, two input errors, two label clashes in direct sums
and a derivation file that is not UTF-8, each at seeds 1, 7 and 2022 and
with `--format json` and `--format text`. A line that starts with `3` (an
internal check failed) or `raised:` (an uncaught exception) is a bug.
Input files are written into a temporary directory, which is the working
directory while the commands run, so no report names a path. Standard
library only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
import traceback

SEEDS = (1, 7, 2022)

CATALOG = (
    "abelian:0", "abelian:1", "abelian:2", "abelian:3",
    "heisenberg:3", "heisenberg:5", "heisenberg:7",
    "filiform:3", "filiform:4", "filiform:5", "filiform:6", "filiform:7",
    "diagonal_torus_extension:1", "diagonal_torus_extension:2",
    "diagonal_torus_extension:3",
    "favre7", "r2", "sl2", "so2_torus_extension",
)

# file name -> (catalog name, parameter, seed, determinant of the basis)
BASIS_CHANGES = {
    "heisenberg5_dense.json": ("heisenberg", 5, 5, 1),
    "filiform5_det3.json": ("filiform", 5, 3, 3),
    "so2_det2.json": ("so2_torus_extension", None, 6, 2),
    "diag3_det2.json": ("diagonal_torus_extension", 3, 4, 2),
    "heisenberg5_det3.json": ("heisenberg", 5, 7, 3),
    # 7-dimensional: the Leibniz system has 147 or 145 rows in 49 columns,
    # and its rows past the first 49 cut the kernel of those 49 rows down
    # (favre7 13 -> 10, filiform:7 29 -> 13)
    "favre7_dense.json": ("favre7", None, 2, 1),
    "filiform7_dense.json": ("filiform", 7, 4, 1),
}

# one-dimensional algebras whose file asserts characteristic nilpotency
CHAR_NILPOTENT_FILES = {"dim1_not_charnil.json": False,
                        "dim1_charnil.json": True}

SINGLE = ("info", "der", "nilradical", "cartan", "torus", "split",
          "fingerprint")

# the largest Cartan search of the set: Der(heisenberg:9) has dimension 45
LARGE = ("torus", "heisenberg:9")

# [s, y] = p y, [t, y] = y, [s, z] = z for p = 2^61 - 1, the modulus of the
# Cartan ranking: ad s counts 3 mod p, above its exact count 2
P_ADVERSARIAL = {"name": "p_adversarial", "dim": 4, "basis": ["s", "t", "y", "z"],
                 "brackets": [[1, 3, [[3, str(2 ** 61 - 1)]]], [2, 3, [[3, "1"]]],
                              [1, 4, [[4, "1"]]]]}
P_ADVERSARIAL_COMMANDS = ("cartan", "nilradical", "split", "fingerprint")

# [s, y] = p y for p = 2^61 - 1, isomorphic to r2 by s -> s / p: every ad x
# is 0 mod p, so every candidate of the Cartan ranking counts dim L
P_LINE = {"name": "p_line", "dim": 2, "basis": ["s", "y"],
          "brackets": [[1, 2, [[2, str(2 ** 61 - 1)]]]]}
P_LINE_COMMANDS = (("cartan",), ("nilradical",), ("split",), ("fingerprint",),
                   ("verify", "rank-bound"))

# file name -> (source, matrices); a nilpotent action is refused (exit 1),
# and so are, with exit 2, a matrix that breaks the Leibniz rule (the first
# generator, and the second after a derivation) and a span of derivations
# that is not closed under commutators
DERIVATION_FILES = {
    "plane_identity.json": ("abelian:2", [[[1, 0], [0, 1]]]),
    "plane_diagonal.json": ("abelian:2", [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]),
    "plane_rotation.json": ("abelian:2", [[[0, -1], [1, 0]]]),
    "plane_nilpotent.json": ("abelian:2", [[[0, 1], [0, 0]]]),
    "plane_sl2.json": ("abelian:2", [[[1, 0], [0, -1]], [[0, 1], [0, 0]],
                                     [[0, 0], [1, 0]]]),
    "heisenberg3_diagonal.json": ("heisenberg:3", [[[1, 0, 0], [0, 0, 0],
                                                    [0, 0, 1]],
                                                   [[0, 0, 0], [0, 1, 0],
                                                    [0, 0, 1]]]),
    # a_i + b_i = c on p_i, q_i, z; charpoly entries of about 260 bits
    "heisenberg5_big_diagonal.json": ("heisenberg:5", [[
        [2 ** 260 + 1, 0, 0, 0, 0], [0, 5, 0, 0, 0], [0, 0, 3, 0, 0],
        [0, 0, 0, 2 ** 260 - 1, 0], [0, 0, 0, 0, 2 ** 260 + 4]]]),
    "heisenberg3_not_derivation.json": ("heisenberg:3", [[[1, 0, 0], [0, 0, 0],
                                                          [0, 0, 0]]]),
    "heisenberg3_second_not_derivation.json": ("heisenberg:3", [
        [[1, 0, 0], [0, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 0, 0], [0, 0, 0]]]),
    "plane_not_closed.json": ("abelian:2", [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]),
}

# file name -> (source, file text): diag(a, b, a + b) on heisenberg:3, with
# entries that a float cannot hold, written as JSON numbers and as strings
TEXT_DERIVATION_FILES = {
    "heisenberg3_numbers.json": ("heisenberg:3", '{"matrices": [[['
                                 '0.10000000000000000001, 0, 0], ['
                                 '0, 0.00000000000000000001, 0], ['
                                 '0, 0, 0.10000000000000000002]]]}'),
    "heisenberg3_strings.json": ("heisenberg:3", '{"matrices": [[['
                                 '"0.10000000000000000001", 0, 0], ['
                                 '0, "0.00000000000000000001", 0], ['
                                 '0, 0, "0.10000000000000000002"]]]}'),
}

TOGO_PAIRS = (("heisenberg:3", "abelian:2"), ("abelian:1", "favre7"),
              ("heisenberg:3", "heisenberg:3"), ("filiform:4", "abelian:1"),
              ("heisenberg:5", "filiform:4"))

INPUT_ERRORS = (("info", "no_such_algebra"), ("info", "r2:3"))

# abelian algebras on labels that clash in a direct sum: the second x of
# x + (x, x') and the generator x of x + (x', x) must both get a fresh label
ABELIAN_FILES = {"x_xprime.json": ["x", "x'"], "x.json": ["x"],
                 "xprime_x.json": ["x'", "x"]}

LABEL_CLASHES = (("verify", "togo", "x_xprime.json", "x.json"),
                 ("extend", "--by", "x_scale.json", "xprime_x.json"))

# a derivation file holding the byte 0xff, which is not UTF-8
NOT_UTF8 = ("extend", "--by", "not_utf8.json", "abelian:2")


def commands() -> list[tuple[str, ...]]:
    sources = (*CATALOG, *BASIS_CHANGES)
    argvs: list[tuple[str, ...]] = []
    for src in sources:
        argvs.extend((cmd, src) for cmd in SINGLE)
        argvs.append(("extend", "--standard", src))
        argvs.append(("verify", "rank-bound", src))
    argvs.append(LARGE)
    argvs.extend((cmd, "p_adversarial.json") for cmd in P_ADVERSARIAL_COMMANDS)
    argvs.extend((*cmd, "p_line.json") for cmd in P_LINE_COMMANDS)
    argvs.extend(("info", name) for name in CHAR_NILPOTENT_FILES)
    argvs.extend(("extend", "--by", name, src)
                 for name, (src, _) in DERIVATION_FILES.items())
    argvs.extend(("extend", "--by", name, src)
                 for name, (src, _) in TEXT_DERIVATION_FILES.items())
    argvs.extend(("verify", "togo", a, b) for a, b in TOGO_PAIRS)
    argvs.append(("demo", "snobl"))
    argvs.extend(INPUT_ERRORS)
    argvs.extend(LABEL_CLASHES)
    argvs.append(NOT_UTF8)
    return [(*argv, "--seed", str(seed), "--format", fmt)
            for argv in argvs for seed in SEEDS for fmt in ("json", "text")]


def write_basis_change(path: str, name: str, param: int | None, seed: int,
                       det: int) -> None:
    """A catalog algebra on a seeded integer basis of determinant det, as a
    catalog file: diag(1, ..., 1, det) and then 15 row operations, so the
    constants have denominators unless det is 1."""
    from liekit import catalog
    from liekit.exactlin import Mat
    from liekit.liecore import change_basis

    L = catalog.get(name, param).algebra
    n = L.dim
    rng = random.Random(seed)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    p[-1][-1] = det
    for _ in range(15):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        p[i] = [a + c * b for a, b in zip(p[i], p[j])]
    M = change_basis(L, Mat(p))
    catalog.store(catalog.CatalogEntry(path[:-len(".json")], (), M, {}), path)


def write_inputs() -> None:
    """Write every input file into the working directory."""
    for path, spec in BASIS_CHANGES.items():
        write_basis_change(path, *spec)
    for path, flag in CHAR_NILPOTENT_FILES.items():
        doc = {"name": path[:-len(".json")], "dim": 1, "basis": ["e1"],
               "brackets": [], "expected": {"characteristically_nilpotent": flag}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    with open("p_adversarial.json", "w", encoding="utf-8") as fh:
        json.dump(P_ADVERSARIAL, fh)
    with open("p_line.json", "w", encoding="utf-8") as fh:
        json.dump(P_LINE, fh)
    for path, (_, mats) in DERIVATION_FILES.items():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"matrices": mats}, fh)
    for path, (_, text) in TEXT_DERIVATION_FILES.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    for path, basis in ABELIAN_FILES.items():
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"name": path[:-len(".json")], "dim": len(basis),
                       "basis": basis, "brackets": []}, fh)
    with open("x_scale.json", "w", encoding="utf-8") as fh:
        json.dump({"matrices": [[[1, 0], [0, 1]]], "labels": ["x"]}, fh)
    with open("not_utf8.json", "wb") as fh:
        fh.write(b'{"matrices": "\xff"}')


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: tuple[str, ...]) -> str:
    """One output line: exit code, sha256 of stdout, sha256 of stderr
    without its `elapsed:` line, argv."""
    from liekit.cli import dispatch

    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(dispatch(list(argv))[0])
        except SystemExit as exc:   # argparse refused the argv
            code = f"exit:{exc.code}"
        except Exception as exc:   # report it and go on with the next command
            code, error = f"raised:{type(exc).__name__}", traceback.format_exc()
    sys.stderr.write(error)
    kept = "".join(line for line in err.getvalue().splitlines(keepends=True)
                   if not line.startswith("elapsed: "))
    return f"{code} {sha256(out.getvalue())} {sha256(kept)} {' '.join(argv)}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python tools/json_digests.py ROOT", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.path.abspath(argv[0]), "src"))
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_inputs()
            for cmd in commands():
                print(run(cmd), flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
