"""Command-line surface: run any analysis on a catalog name or a file.

The argument parser is the one table of commands. Every command is a thin
wrapper over the library: it resolves its input and runs one library
operation; the resulting report renders as text or JSON.
The JSON rendering is schema-stable and, for a fixed seed and input, byte
identical across runs; timing goes to stderr so it never perturbs output.

Exit codes:
    0   every certificate in the report is true
    1   a mathematical certificate failed (values are still reported)
    2   input or usage error
    3   an internal consistency check failed (a bug; nothing on stdout)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import sys
import time

from . import catalog
from .exactlin import Mat, rref
from .liecore import LieAlgebra, LieError, center, derived_algebra, series
from .extensions import (
    NilradicalMismatch,
    extend_by_derivations,
    malcev_split_solvable,
    rank_bound_of,
    standard_solvable_extension,
    togo_dim_check,
    verify_rank_bound,
)
from .structure import (
    DEFAULT_SEED,
    cartan_subalgebra,
    derivations,
    fingerprint,
    inner_derivations,
    maximal_torus,
    nilradical,
)

__all__ = ["main", "dispatch"]


class InputError(Exception):
    """Bad source, file, or parameter; maps to exit code 2."""


# ---------------------------------------------------------------------------
# source resolution and small renderers

class _DigitLimit(argparse.ArgumentTypeError):
    """Digits that int() refuses to convert; the message gives the limit."""


def _integer(text: str) -> int:
    """-?[0-9]+ only, as int() also takes "1_1", " 3", "+3" and non-ASCII
    digits. Past int()'s digit limit the error gives the limit, where
    argparse would name this function and echo every digit."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        return int(text)
    except ValueError:
        raise _DigitLimit(f"has more than {sys.get_int_max_str_digits()} digits") from None


def _resolve(src: str, rng: random.Random) -> tuple[LieAlgebra, dict]:
    """Catalog name (with optional ``name:param``) first, then file path."""
    name, colon, param_text = src.partition(":")
    if name in catalog.names():
        try:
            param = _integer(param_text) if colon else None
        except _DigitLimit as exc:
            raise InputError(f"{name}: parameter {exc}") from None
        except argparse.ArgumentTypeError:
            raise InputError(f"{src}: parameter must be an integer") from None
        try:
            entry = catalog.get(name, param, rng=rng)
        except catalog.CatalogError as exc:
            raise InputError(str(exc)) from None
        return entry.algebra, {"name": entry.key}
    # one read: the digest describes exactly the bytes that were parsed
    try:
        with open(src, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(f"{src}: {exc.strerror or exc}") from None
    try:
        entry = catalog.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InputError(f"{src}: not UTF-8 text: {exc.reason}") from None
    except catalog.CatalogError as exc:
        raise InputError(f"{src}: {exc}") from None
    return entry.algebra, {"file": src, "sha256": hashlib.sha256(data).hexdigest()}


def _rows(mat: Mat) -> list[list[str]]:
    return [[str(x) for x in row] for row in mat.data]


def _read_derivation_file(path: str, dim: int) -> tuple[list[Mat], list[str] | None]:
    try:
        with open(path, encoding="utf-8") as fh:
            # a number is read from its digits: a float would round it
            raw = json.load(fh, parse_float=str)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:   # an integer literal past the digit limit
        raise InputError(f"{path}: {exc}") from None
    if not isinstance(raw, dict) or not isinstance(raw.get("matrices"), list):
        raise InputError(f"{path}: expected {{\"matrices\": [...]}}")
    mats = []
    for pos, rows in enumerate(raw["matrices"]):
        where = f"{path}: matrices[{pos}]"
        if not isinstance(rows, list) or len(rows) != dim \
                or any(not isinstance(r, list) or len(r) != dim for r in rows):
            raise InputError(f"{where}: expected a {dim}x{dim} matrix")
        try:
            mats.append(Mat([[catalog._parse_rational(str(x), where) for x in r]
                             for r in rows]))
        except catalog.CatalogError as exc:
            raise InputError(str(exc)) from None
    # one column per matrix: the first non-pivot column is the first matrix
    # that depends on the ones before it
    _, piv = rref(Mat.vecs(mats, dim * dim).transpose())
    dependent = [pos for pos in range(len(mats)) if pos not in piv]
    if dependent:
        raise InputError(f"{path}: matrices[{dependent[0]}] is a linear "
                         f"combination of the matrices before it")
    labels = raw.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != len(mats) \
                or any(not isinstance(s, str) for s in labels):
            raise InputError(f"{path}: labels must name each matrix")
        if len(set(labels)) != len(labels):
            raise InputError(f"{path}: labels must be distinct")
        labels = list(labels)
    return mats, labels


# ---------------------------------------------------------------------------
# commands: each resolves its sources into report["input"] and returns
# (values, certificates)

def _cmd_info(args, rng, report):
    L, report["input"] = _resolve(args.src, rng)
    return {
        "dim": L.dim,
        "basis": list(L.labels),
        "abelian": L.is_abelian(),
        "nilpotent": L.is_nilpotent(),
        "solvable": L.is_solvable(),
        "lower_central": [s.dim for s in series(L, "lower_central")],
        "derived": [s.dim for s in series(L, "derived")],
        "dim_center": center(L).dim,
        "dim_commutator": derived_algebra(L).dim,
    }, {}


def _cmd_der(args, rng, report):
    L, report["input"] = _resolve(args.src, rng)
    der = derivations(L)
    inner = inner_derivations(L)
    return {
        "dim": der.dim,
        "dim_inner": inner.dim,
        "dim_outer": der.dim - inner.dim,
    }, {}


def _cmd_nilradical(args, rng, report):
    L, report["input"] = _resolve(args.src, rng)
    nil = nilradical(L, rng)
    return {"dim": nil.dim, "basis": _rows(nil.basis)}, {}


def _cmd_cartan(args, rng, report):
    L, report["input"] = _resolve(args.src, rng)
    h = cartan_subalgebra(L, rng)
    return {"dim": h.dim, "basis": _rows(h.basis)}, {}


def _cmd_torus(args, rng, report):
    L, report["input"] = _resolve(args.src, rng)
    torus = maximal_torus(derivations(L), rng)
    return {
        "dim": torus.dim,
        "matrices": [_rows(m) for m in torus.basis],
    }, {}


def _cmd_fingerprint(args, rng, report):
    L, report["input"] = _resolve(args.src, rng)
    return fingerprint(L, rng)._asdict(), {}


def _cmd_split(args, rng, report):
    L, report["input"] = _resolve(args.src, rng)
    res = malcev_split_solvable(L, rng)
    return {
        "dim": L.dim,
        "dim_M": res.M.dim,
        "added_dim": res.added_dim,
        "torus_dim": res.torus_part.dim,
        "already_split": res.added_dim == 0,
    }, {}


def _cmd_extend(args, rng, report):
    L, report["input"] = _resolve(args.src, rng)
    if args.standard:
        ext = standard_solvable_extension(L, rng=rng)
        extra, certs = {"torus_dim": ext.complement.dim}, {}
    else:
        mats, labels = _read_derivation_file(args.by, L.dim)
        try:
            ext = extend_by_derivations(L, mats, act_labels=labels, rng=rng)
        except NilradicalMismatch as exc:
            return {
                "dim": L.dim,
                "generators": len(mats),
                "expected_nilradical_dim": exc.expected.dim,
                "computed_nilradical_dim": exc.computed.dim,
            }, {"nilradical_preserved": False}
        extra, certs = {}, {"nilradical_preserved": True}
    bound = verify_rank_bound(ext, rng)
    return {
        "dim": L.dim,
        "dim_total": ext.total.dim,
        "added_dim": ext.total.dim - L.dim,
        **extra,
        "basis": list(ext.total.labels),
        "rank_bound": bound._asdict(),
    }, dict(certs, validated=ext.validated, rank_bound_ok=bound.ok)


def _cmd_rank_bound(args, rng, report):
    L, report["input"] = _resolve(args.src, rng)
    # on a bare nilpotent algebra the quotient by the nilradical is zero and
    # the bound holds vacuously, so check its standard extension instead
    if L.is_nilpotent():
        ext = standard_solvable_extension(L, rng=rng)
        bound = verify_rank_bound(ext, rng)
        values = dict(bound._asdict(), checked_on="standard_extension",
                      dim_total=ext.total.dim)
    else:
        bound = rank_bound_of(L, rng)
        values = dict(bound._asdict(), checked_on="input")
    certs = {"rank_ok": bound.rank_ok}
    if bound.codim_ok is not None:
        certs["codim_ok"] = bound.codim_ok
    return values, certs


def _cmd_togo(args, rng, report):
    a, ida = _resolve(args.srcA, rng)
    b, idb = _resolve(args.srcB, rng)
    report["input"] = {"a": ida, "b": idb}
    togo = togo_dim_check(a, b)
    return togo._asdict(), {"equal": togo.equal}


def _cmd_demo_snobl(args, rng, report):
    certs = catalog.build_snobl_counterexample(rng)["certificates"]
    keys = ("dim", "dim_M", "dim_Der", "non_isomorphic", "fingerprints")
    return {key: certs[key] for key in keys}, certs["checks"]


# ---------------------------------------------------------------------------
# rendering

def _scalar(value) -> str:
    if value is True or value is False or value is None:
        return json.dumps(value)
    return str(value)


def _text_lines(value, key, out):
    if isinstance(value, dict):
        for sub, item in value.items():
            _text_lines(item, f"{key}.{sub}" if key else str(sub), out)
    elif isinstance(value, (list, tuple)) and value \
            and all(isinstance(v, (list, tuple, dict)) for v in value):
        for pos, row in enumerate(value):
            _text_lines(row, f"{key}[{pos}]", out)
    else:
        if isinstance(value, (list, tuple)):
            text = "[" + ", ".join(_scalar(v) for v in value) + "]"
        else:
            text = _scalar(value)
        out.append(f"{key}: {text}")


def _write_replacing(path: str, text: str) -> None:
    """Write text to a new file beside path, then rename it onto path.

    A failed write leaves an existing file at path as it was and removes the
    temporary file; the new file gets the mode a fresh open() would give.
    """
    head, tail = os.path.split(os.path.abspath(path))
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    lines: list[str] = []
    _text_lines(report, "", lines)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the command table and dispatch

def _build_parser() -> argparse.ArgumentParser:
    """The one table of commands: each leaf parser names its handler (run)
    and the command string of its report (name)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--seed", type=_integer, default=DEFAULT_SEED,
                        help="seed for the randomized algorithms")
    common.add_argument("--output", metavar="PATH",
                        help="write the report to PATH instead of stdout")

    parser = argparse.ArgumentParser(
        prog="liekit",
        description="Exact computations with finite-dimensional Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, helptext, run in [
        ("info", "basic invariants of an algebra", _cmd_info),
        ("der", "derivation algebra dimensions", _cmd_der),
        ("nilradical", "largest nilpotent ideal", _cmd_nilradical),
        ("cartan", "a Cartan subalgebra", _cmd_cartan),
        ("torus", "maximal torus of the derivation algebra", _cmd_torus),
        ("split", "Malcev-type splitting", _cmd_split),
        ("fingerprint", "isomorphism-invariant summary", _cmd_fingerprint),
    ]:
        p = sub.add_parser(name, parents=[common], help=helptext)
        p.add_argument("src", help="catalog name (name:param) or file path")
        p.set_defaults(run=run, name=name)

    p = sub.add_parser("extend", parents=[common],
                       help="build a solvable extension")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--standard", action="store_true",
                      help="maximal torus of Der(N) acting on N")
    mode.add_argument("--by", metavar="FILE",
                      help="JSON file with derivation matrices")
    p.add_argument("src", help="catalog name (name:param) or file path")
    p.set_defaults(run=_cmd_extend, name="extend")

    p = sub.add_parser("verify", help="run a certificate check")
    vsub = p.add_subparsers(dest="check", required=True)
    v1 = vsub.add_parser("rank-bound", parents=[common])
    v1.add_argument("src")
    v1.set_defaults(run=_cmd_rank_bound, name="verify rank-bound")
    v2 = vsub.add_parser("togo", parents=[common])
    v2.add_argument("srcA")
    v2.add_argument("srcB")
    v2.set_defaults(run=_cmd_togo, name="verify togo")

    p = sub.add_parser("demo", help="reproduce a known computation")
    dsub = p.add_subparsers(dest="example", required=True)
    d1 = dsub.add_parser("snobl", parents=[common])
    d1.set_defaults(run=_cmd_demo_snobl, name="demo snobl")
    return parser


def dispatch(argv: list[str]) -> tuple[int, dict]:
    """Parse argv, run one command, and return (exit code, report)."""
    args = _build_parser().parse_args(argv)
    rng = random.Random(args.seed)

    started = time.monotonic()
    report: dict = {"command": args.name, "seed": args.seed}
    try:
        values, certs = args.run(args, rng, report)
    except (InputError, LieError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, report
    except AssertionError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3, report

    report["values"] = values
    report["certificates"] = certs
    elapsed = time.monotonic() - started
    print(f"elapsed: {elapsed:.2f}s", file=sys.stderr)

    rendered = _render(report, args.format)
    if args.output:
        try:
            _write_replacing(args.output, rendered)
        except OSError as exc:
            print(f"error: {args.output}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2, report
    else:
        sys.stdout.write(rendered)
    return (0 if all(certs.values()) else 1), report


def main(argv: list[str] | None = None) -> int:
    try:
        code, _ = dispatch(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
