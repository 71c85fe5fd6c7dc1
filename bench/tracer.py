"""Outside-in tracing of liekit: wrap public functions, record nested spans.

`Tracer.install` replaces every public module-level function of the six
liekit modules, plus `LieAlgebra.bracket`, `LieAlgebra.ad` and
`Subspace.span`, with a timing wrapper. A function re-bound into another
module by ``from .x import y`` (also under an alias) is replaced there too,
so calls are traced whichever name they go through. Nothing under ``src/``
changes; the wrappers live only in the traced worker process.

A span is ``[name, parent, t0, t1, t2, extra]``: ``t0``..``t1`` is the call,
``t1``..``t2`` the time the wrapper spent computing ``extra`` afterwards
(matrix sizes, bit sizes). Spans stay in memory; the benchmark writes them
out at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable

MODULES = ("exactlin", "liecore", "structure", "extensions", "catalog", "cli")
METHODS = (("liecore", "LieAlgebra", "bracket"), ("liecore", "LieAlgebra", "ad"),
           ("exactlin", "Subspace", "span"))


def _charpoly_extra(args: tuple, result: Any) -> dict:
    return {"n3": args[0].rows ** 3}


def _rref_extra(args: tuple, result: Any) -> dict:
    m = args[0]
    bits = max((q.numerator.bit_length() + q.denominator.bit_length()
                for row in result[0].data for q in row), default=0)
    return {"cells": m.rows * m.cols, "bits_max": bits}


EXTRAS: dict[str, Callable[[tuple, Any], dict]] = {
    "exactlin.charpoly": _charpoly_extra,
    "exactlin.rref": _rref_extra,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = [-1]

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1], clock(), 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = rec[4] = clock()
            if extra is not None:
                rec[5] = extra(args, result)
                rec[4] = clock()
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target in the imported liekit package; return the names."""
        mods = [sys.modules[f"liekit.{m}"] for m in MODULES]
        replaced: dict[int, Callable] = {}
        names = []
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    replaced[id(fn)] = self.wrap(f"{short}.{fn.__qualname__}", fn)
                    names.append(f"{short}.{fn.__qualname__}")
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced and inspect.isfunction(value):
                    setattr(mod, attr, replaced[id(value)])
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"liekit.{short}"], cls_name)
            raw = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(name, raw))
            names.append(name)
        return names


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-name totals of one operation's spans.

    `<name>.calls`, `<name>.self_s` (duration minus the intervals of child
    spans, including their bookkeeping) and `<name>.incl_s` (outermost calls
    only, so recursion is not counted twice), plus the sums of the extras
    and two counters under `structure.cartan_subalgebra`: `charpoly_calls`,
    charpoly calls made directly by the Cartan search, and `picks`, the
    restrictions it made, one per useful pick from the candidate pool.
    """
    covered = [0.0] * len(spans)
    for name, parent, t0, _t1, t2, _extra in spans:
        if parent >= 0:
            covered[parent] += t2 - t0
    out: dict[str, float] = defaultdict(float)
    for idx, (name, parent, t0, t1, _t2, extra) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (t1 - t0) - covered[idx]
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][1]
        if up < 0:
            out[f"{name}.incl_s"] += t1 - t0
        for key, value in (extra or {}).items():
            full = f"{name}.{key}"
            out[full] = max(out[full], value) if key == "bits_max" else out[full] + value
        if parent >= 0 and spans[parent][0] == "structure.cartan_subalgebra":
            if name == "exactlin.charpoly":
                out["structure.cartan_subalgebra.charpoly_calls"] += 1
            elif name == "liecore.restrict":
                out["structure.cartan_subalgebra.picks"] += 1
    return dict(out)


def merge(total: dict[str, float], part: dict[str, float]) -> None:
    """Add one operation's aggregate into a run total (bit sizes take the max)."""
    for key, value in part.items():
        if key.endswith(".bits_max"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value
