"""No liekit module writes into the data view of a Mat.

A Mat holds its entries as (den, ints); data is a Fraction view built from
them on first use, so a write into it would change the view only and would
be lost to every operator.
"""

import ast
from pathlib import Path

import liekit


def _targets(node):
    """The simple targets in an assignment target, tuples unpacked."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            yield from _targets(elt)
    elif isinstance(node, ast.Starred):
        yield from _targets(node.value)
    else:
        yield node


def _data_writes(tree):
    """Line numbers of the assignments, augmented assignments and deletions
    into an item of a .data attribute, such as m.data[i][j] = x."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in (t for top in targets for t in _targets(top)):
            base = target
            while isinstance(base, ast.Subscript):
                base = base.value
            if base is not target and isinstance(base, ast.Attribute) \
                    and base.attr == "data":
                lines.append(node.lineno)
                break
    return sorted(lines)


def test_no_module_writes_into_a_data_view():
    src = Path(liekit.__file__).parent
    writes = {p.name: _data_writes(ast.parse(p.read_text(encoding="utf-8")))
              for p in sorted(src.glob("*.py"))}
    assert {name: lines for name, lines in writes.items() if lines} == {}


def test_the_check_finds_each_kind_of_write():
    code = ("m.data[0][1] = x\n"
            "m.data[0] += y\n"
            "a, m.data[1] = b\n"
            "del m.data[2]\n"
            "m.data = z\n"
            "n[m.data[0]] = 1\n"
            "m.ints[0][0] = 1\n")
    assert _data_writes(ast.parse(code)) == [1, 2, 3, 4]
