"""Every internal check of liekit names its kind: a proof or a sample."""

import ast
from pathlib import Path

import liekit

KINDS = ("proof failed: ", "sample failed: ")

# the one failure to converge, which is not a check
NOT_CHECKS = {"Cartan subalgebra search failed to converge"}


def _leading_text(node):
    """The literal text a message expression starts with, or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values \
            and isinstance(node.values[0], ast.Constant):
        return node.values[0].value
    return None


def _raised_messages(tree):
    """The leading text of every AssertionError raised in tree; None for one
    raised without a literal message, or by an assert statement."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(None)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            call = isinstance(exc, ast.Call)
            func = exc.func if call else exc
            if isinstance(func, ast.Name) and func.id == "AssertionError":
                found.append(_leading_text(exc.args[0])
                             if call and exc.args else None)
    return found


def test_every_internal_check_names_its_kind():
    src = Path(liekit.__file__).parent
    unlabelled, kinds = [], set()
    for path in sorted(src.glob("*.py")):
        for text in _raised_messages(ast.parse(path.read_text(encoding="utf-8"))):
            kind = next((k for k in KINDS if text and text.startswith(k)), None)
            if kind is None:
                unlabelled.append(text)
            else:
                kinds.add(kind)
    assert sorted(unlabelled, key=str) == sorted(NOT_CHECKS)
    assert kinds == set(KINDS)


def test_the_scan_sees_unlabelled_and_unreadable_messages():
    tree = ast.parse(
        'raise AssertionError("proof failed: a")\n'
        'raise AssertionError(f"sample failed: {why}")\n'
        'raise AssertionError(f"{kind} failed: b")\n'
        'raise AssertionError("no kind")\n'
        'raise AssertionError\n'
        'assert x\n'
        'raise ValueError("not a check")\n')
    assert _raised_messages(tree) == ["proof failed: a", "sample failed: ", None,
                                      "no kind", None, None]
