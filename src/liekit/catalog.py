"""Named example algebras, a JSON table format, and the counterexample build.

Every entry is validated before it is handed out: the structure table passes
the Jacobi check, and any expected invariants recorded for the entry (center,
derivation-algebra and torus dimensions, series profiles) are recomputed and
compared. Wrong table data fails loudly at build or load time, never
downstream.

The seven-dimensional characteristically nilpotent algebra ships as a data
file rather than code, so a corrected presentation can be swapped in without
touching the package; the nilpotency gate rejects bad replacements.
"""

from __future__ import annotations

import json
import random
import re
import sys
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple

from .exactlin import Mat
from .liecore import (
    LieAlgebra,
    LieError,
    TableError,
    center,
    derived_algebra,
    direct_sum,
    series,
    verify_structure,
)
from .extensions import extend_by_derivations
from .structure import (
    _rng,
    derivations,
    fingerprint,
    is_characteristically_nilpotent,
    maximal_torus,
    nilradical,
)

__all__ = [
    "CatalogError",
    "CatalogEntry",
    "names",
    "get",
    "load",
    "loads",
    "store",
    "dumps",
    "build_snobl_counterexample",
]


class CatalogError(LieError):
    """Unknown name, bad parameter, malformed file, or failed expectation."""


class CatalogEntry(NamedTuple):
    """A named algebra plus the invariant record it was checked against."""

    name: str
    params: tuple[int, ...]
    algebra: LieAlgebra
    expected: Mapping[str, object]

    @property
    def key(self) -> str:
        return (self.name if not self.params
                else self.name + ":" + ",".join(str(p) for p in self.params))


# ---------------------------------------------------------------------------
# expected-invariant checks (hard gates whenever a key is present)

def _check_expected(L: LieAlgebra, expected: Mapping[str, object],
                    rng: random.Random | None) -> None:
    checks: dict[str, Callable[[], object]] = {
        "dim": lambda: L.dim,
        "dim_center": lambda: center(L).dim,
        "dim_commutator": lambda: derived_algebra(L).dim,
        "dim_der": lambda: derivations(L).dim,
        "dim_nilradical": lambda: nilradical(L, rng).dim,
        "dim_torus": lambda: maximal_torus(derivations(L), rng).dim,
        "lower_central": lambda: [s.dim for s in series(L, "lower_central")],
        "derived": lambda: [s.dim for s in series(L, "derived")],
        "characteristically_nilpotent":
            lambda: is_characteristically_nilpotent(L),
        "nilpotent": lambda: L.is_nilpotent(),
        "solvable": lambda: L.is_solvable(),
    }
    for key, want in expected.items():
        if key not in checks:
            raise CatalogError(f"expected.{key}: unknown invariant name")
        got = checks[key]()
        if not _same(got, want):
            raise CatalogError(
                f"expected.{key}: expected {want!r}, computed {got!r}")


def _same(got: object, want: object) -> bool:
    """Equality that tells booleans from integers (True == 1 in Python)."""
    if isinstance(got, list) and isinstance(want, list):
        return len(got) == len(want) and all(map(_same, got, want))
    return isinstance(got, bool) == isinstance(want, bool) and got == want


def _validated(name: str, params: tuple[int, ...], L: LieAlgebra,
               expected: Mapping[str, object],
               rng: random.Random | None = None) -> CatalogEntry:
    violations = verify_structure(L)
    if violations:
        i, j, k = violations[0]
        raise CatalogError(
            f"{name}: Jacobi identity fails on basis triple "
            f"({i + 1}, {j + 1}, {k + 1})")
    _check_expected(L, expected, rng)
    return CatalogEntry(name, params, L, dict(expected))


# ---------------------------------------------------------------------------
# builders

def _abelian(n: int) -> tuple[LieAlgebra, dict]:
    if n < 0:
        raise CatalogError("abelian: dimension must be >= 0")
    L = LieAlgebra(n, {}, labels=tuple(f"e{i}" for i in range(1, n + 1)))
    return L, {"dim_center": n, "dim_der": n * n, "nilpotent": True}


def _heisenberg(m: int) -> tuple[LieAlgebra, dict]:
    if m < 3 or m % 2 == 0:
        raise CatalogError("heisenberg: dimension must be odd and >= 3")
    k = (m - 1) // 2
    table = {(i, k + i): ((2 * k, Fraction(1)),) for i in range(k)}
    labels = tuple([f"p{i}" for i in range(1, k + 1)]
                   + [f"q{i}" for i in range(1, k + 1)] + ["z"])
    L = LieAlgebra(m, table, labels=labels)
    expected = {"dim_center": 1, "dim_commutator": 1,
                "lower_central": [m, 1, 0], "nilpotent": True}
    if m == 3:
        expected["dim_der"] = 6
    return L, expected


def _filiform(n: int) -> tuple[LieAlgebra, dict]:
    if n < 3:
        raise CatalogError("filiform: dimension must be >= 3")
    table = {(0, i): ((i + 1, Fraction(1)),) for i in range(1, n - 1)}
    L = LieAlgebra(n, table, labels=tuple(f"e{i}" for i in range(1, n + 1)))
    return L, {"dim_center": 1, "lower_central": [n] + list(range(n - 2, -1, -1)),
               "nilpotent": True}


def _r2() -> tuple[LieAlgebra, dict]:
    L = LieAlgebra(2, {(0, 1): ((1, Fraction(1)),)}, labels=("x", "y"))
    return L, {"dim_center": 0, "dim_der": 2, "dim_nilradical": 1,
               "solvable": True}


def _sl2() -> tuple[LieAlgebra, dict]:
    table = {
        (0, 1): ((2, Fraction(1)),),    # [e, f] = h
        (0, 2): ((0, Fraction(-2)),),   # [e, h] = -2e
        (1, 2): ((1, Fraction(2)),),    # [f, h] = 2f
    }
    L = LieAlgebra(3, table, labels=("e", "f", "h"))
    return L, {"dim_center": 0, "dim_der": 3, "dim_nilradical": 0,
               "dim_commutator": 3}


def _favre7() -> tuple[LieAlgebra, dict]:
    # imported here, as it loads tempfile (and inspect from Python 3.12 on)
    # and only favre7 reads a package file
    from importlib.resources import files
    text = files(__package__).joinpath("data/favre7.json").read_text(encoding="utf-8")
    _, L, expected = _parse(text)
    z = center(L)
    last = [Fraction(0)] * (L.dim - 1) + [Fraction(1)]
    first = [Fraction(1)] + [Fraction(0)] * (L.dim - 1)
    if z.dim != 1 or not z.contains(last):
        raise CatalogError("favre7: center must be the span of the last "
                           "basis vector")
    if derived_algebra(L).contains(first):
        raise CatalogError("favre7: first basis vector must lie outside the "
                           "commutator ideal")
    # get() gates the expected record once; the characteristic-nilpotency
    # key is forced so the gate holds even if the data file drops it
    return L, {**expected, "characteristically_nilpotent": True}


def _so2_torus_extension() -> tuple[LieAlgebra, dict]:
    plane, _ = _abelian(2)
    rot = Mat([[0, 1], [-1, 0]])
    ident = Mat.identity(2)
    ext = extend_by_derivations(plane, [rot, ident], act_labels=("r", "s"))
    return ext.total, {"dim": 4, "dim_nilradical": 2, "solvable": True}


def _diagonal_torus_extension(n: int) -> tuple[LieAlgebra, dict]:
    if n < 1:
        raise CatalogError("diagonal_torus_extension: dimension must be >= 1")
    space, _ = _abelian(n)
    gens = [Mat([[int(r == c == i) for c in range(n)] for r in range(n)])
            for i in range(n)]
    labels = tuple(f"t{i}" for i in range(1, n + 1))
    ext = extend_by_derivations(space, gens, act_labels=labels)
    return ext.total, {"dim": 2 * n, "dim_nilradical": n, "solvable": True}


_PARAMETRIC: dict[str, Callable[[int], tuple[LieAlgebra, dict]]] = {
    "abelian": _abelian,
    "heisenberg": _heisenberg,
    "filiform": _filiform,
    "diagonal_torus_extension": _diagonal_torus_extension,
}
_FIXED: dict[str, Callable[[], tuple[LieAlgebra, dict]]] = {
    "favre7": _favre7,
    "r2": _r2,
    "sl2": _sl2,
    "so2_torus_extension": _so2_torus_extension,
}


def names() -> tuple[str, ...]:
    """All catalog names, parametric ones first."""
    return tuple(sorted(_PARAMETRIC)) + tuple(sorted(_FIXED))


def get(name: str, param: int | None = None,
        rng: random.Random | None = None) -> CatalogEntry:
    """Build a named entry; every expected invariant is recomputed and gated."""
    if name in _PARAMETRIC:
        if param is None:
            raise CatalogError(f"{name}: a dimension parameter is required")
        L, expected = _PARAMETRIC[name](param)
        return _validated(name, (param,), L, expected, rng)
    if name in _FIXED:
        if param is not None:
            raise CatalogError(f"{name}: takes no parameter")
        L, expected = _FIXED[name]()
        return _validated(name, (), L, expected, rng)
    raise CatalogError(f"unknown catalog name: {name!r}")


# ---------------------------------------------------------------------------
# serialization

def _parse_rational(text: object, where: str) -> Fraction:
    """Every rational of an input file is read here, as Fraction reads it."""
    if not isinstance(text, str):
        raise CatalogError(f"{where}: rational must be a string, got "
                           f"{type(text).__name__}")
    # Fraction builds 10^|exponent| in full: int()'s digit limit bounds it here
    exp = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()   # 0: no limit
    try:
        if exp and limit and abs(int(exp[1])) > limit:
            raise ValueError(f"exponent exceeds {limit} in magnitude")
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CatalogError(f"{where}: {exc}") from None


def _is_int(value: object) -> bool:
    """A JSON integer; booleans are ints in Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def loads(text: str) -> CatalogEntry:
    """Parse and fully validate one catalog entry from JSON text."""
    name, L, expected = _parse(text)
    return _validated(name, (), L, expected)


def _parse(text: str) -> tuple[str, LieAlgebra, dict]:
    """(name, algebra, expected record) from JSON text, not yet validated."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError as exc:   # an integer literal past the digit limit
        raise CatalogError(str(exc)) from None
    if not isinstance(raw, dict):
        raise CatalogError("top level: expected a JSON object")

    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise CatalogError("name: required non-empty string")
    dim = raw.get("dim")
    if not _is_int(dim) or dim < 0:
        raise CatalogError("dim: required non-negative integer")
    basis = raw.get("basis")
    if (not isinstance(basis, list) or len(basis) != dim
            or not all(isinstance(b, str) for b in basis)):
        raise CatalogError(f"basis: expected {dim} string labels")
    brackets = raw.get("brackets", [])
    if not isinstance(brackets, list):
        raise CatalogError("brackets: expected a list")

    table: dict[tuple[int, int], tuple] = {}
    for pos, item in enumerate(brackets):
        where = f"brackets[{pos}]"
        if (not isinstance(item, list) or len(item) != 3
                or not _is_int(item[0]) or not _is_int(item[1])
                or not isinstance(item[2], list)):
            raise CatalogError(f"{where}: expected [i, j, [[k, \"p/q\"], ...]]")
        i, j, terms = item
        if not (1 <= i < j <= dim):
            raise CatalogError(f"{where}: need 1 <= i < j <= {dim}, "
                               f"got ({i}, {j})")
        if (i - 1, j - 1) in table:
            raise CatalogError(f"{where}: duplicate pair ({i}, {j})")
        parsed = []
        targets = set()
        for tpos, term in enumerate(terms):
            twhere = f"{where}.terms[{tpos}]"
            if not isinstance(term, list) or len(term) != 2 \
                    or not _is_int(term[0]):
                raise CatalogError(f"{twhere}: expected [k, \"p/q\"]")
            k, coeff = term
            if not (1 <= k <= dim):
                raise CatalogError(f"{twhere}: index {k} outside 1..{dim}")
            if k in targets:
                raise CatalogError(f"{twhere}: duplicate target index {k}")
            targets.add(k)
            value = _parse_rational(coeff, twhere)
            if value != 0:
                parsed.append((k - 1, value))
        if parsed:
            table[(i - 1, j - 1)] = tuple(parsed)

    expected = raw.get("expected", {})
    if not isinstance(expected, dict):
        raise CatalogError("expected: expected a JSON object")
    try:
        L = LieAlgebra(dim, table, labels=tuple(basis))
    except TableError as exc:
        raise CatalogError(str(exc)) from None
    return name, L, expected


def load(path: str) -> CatalogEntry:
    """Read and validate a catalog file; errors carry the file path."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CatalogError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise CatalogError(f"{path}: not UTF-8 text: {exc.reason}") from None
    try:
        return loads(text)
    except CatalogError as exc:
        raise CatalogError(f"{path}: {exc}") from None


def dumps(entry: CatalogEntry) -> str:
    """Serialize an entry to the catalog JSON format (1-based, exact)."""
    brackets = []
    for (i, j), terms in sorted(entry.algebra.table.items()):
        row = [[k + 1, str(c)] for k, c in terms]
        brackets.append([i + 1, j + 1, row])
    doc = {
        "name": entry.name,
        "dim": entry.algebra.dim,
        "basis": list(entry.algebra.labels),
        "brackets": brackets,
        "expected": dict(entry.expected),
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def store(entry: CatalogEntry, path: str) -> None:
    """Write an entry so that load(path) reproduces it structurally."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(entry))


# ---------------------------------------------------------------------------
# the counterexample

def build_snobl_counterexample(rng: random.Random | None = None) -> dict:
    """Two non-isomorphic maximal solvable extensions over one nilradical.

    N is the direct sum of a line and the bundled characteristically
    nilpotent algebra. R1 adjoins the generator X acting as the identity on
    the line and zero on the rest; R2 adjoins X + d, where d sends the first
    basis vector of the nilpotent summand to the central one. The returned
    certificates record both distinguishing invariants (splitting dimension
    and derivation-algebra dimension) plus the full fingerprints.
    """
    rng = _rng(rng)
    n7 = get("favre7", rng=rng).algebra
    line = LieAlgebra(1, {}, labels=("Y",))
    N = direct_sum(line, n7)
    X = Mat([[int(r == c == 0) for c in range(8)] for r in range(8)])
    d = Mat([[int((r, c) == (7, 1)) for c in range(8)] for r in range(8)])

    R1 = extend_by_derivations(N, [X], act_labels=("w",), rng=rng)
    R2 = extend_by_derivations(N, [X + d], act_labels=("w",), rng=rng)
    fp1 = fingerprint(R1.total, rng=rng)
    fp2 = fingerprint(R2.total, rng=rng)

    certificates = {
        "dim": [R1.total.dim, R2.total.dim],
        "dim_M": [fp1.dim_malcev, fp2.dim_malcev],
        "dim_Der": [fp1.dim_der, fp2.dim_der],
        "fingerprints": [fp1._asdict(), fp2._asdict()],
        "non_isomorphic": fp1 != fp2,
    }
    checks = {
        "dims_are_9_9": certificates["dim"] == [9, 9],
        "splitting_dims_are_9_10": certificates["dim_M"] == [9, 10],
        "derivation_dims_differ": fp1.dim_der != fp2.dim_der,
        "non_isomorphic": certificates["non_isomorphic"],
    }
    certificates.update(checks=checks, ok=all(checks.values()))
    return {"N": N, "R1": R1, "R2": R2, "certificates": certificates}
