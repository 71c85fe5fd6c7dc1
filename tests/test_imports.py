"""The modules of liekit import downward only, in one fixed order, and the CLI
loads no standard module that no command uses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import liekit

ORDER = ("exactlin", "liecore", "structure", "extensions", "catalog", "cli")

# (module, top-level function, imported module) of each known upward import;
# the splitting dimension is a fingerprint invariant
KNOWN_UPWARD = {("structure", "fingerprint", "extensions")}


def _package_imports(tree):
    """(enclosing top-level function or class, or None; module) for every
    import of a liekit module in tree, relative or absolute."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, func or child.name)
            elif isinstance(child, ast.ImportFrom):
                if child.level == 1 or child.module == "liekit":
                    if child.module in (None, "liekit"):
                        found.extend((func, a.name) for a in child.names)
                    else:
                        found.append((func, child.module))
                elif (child.module or "").startswith("liekit."):
                    found.append((func, child.module.split(".")[1]))
            elif isinstance(child, ast.Import):
                found.extend((func, a.name.split(".")[1]) for a in child.names
                             if a.name.startswith("liekit."))
            else:
                visit(child, func)

    visit(tree, None)
    return found


def test_modules_import_downward_only():
    src = Path(liekit.__file__).parent
    modules = sorted(p.stem for p in src.glob("*.py") if p.stem != "__init__")
    assert sorted(ORDER) == modules   # a new module needs its place in ORDER
    upward = set()
    for name in ORDER:
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        for func, target in _package_imports(tree):
            assert target in ORDER, (name, target)
            if ORDER.index(target) >= ORDER.index(name):
                upward.add((name, func, target))
    assert upward == KNOWN_UPWARD


def test_cli_loads_neither_dataclasses_nor_inspect():
    # the modules site loaded at startup do not count
    code = ("import sys; before = set(sys.modules); import liekit.cli; "
            "print(*sorted(set(sys.modules) - before))")
    added = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(Path(liekit.__file__).parents[1])),
        capture_output=True, encoding="utf-8", check=True).stdout.split()
    assert "liekit.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)
