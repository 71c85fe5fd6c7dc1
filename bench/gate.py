"""Per-operation correctness gate; its verdicts feed `failed` and `attempted`.

An operation fails on a wrong exit code, a certificate map other than the
expected one, a wrong oracle value, a report that differs from an earlier
run of the same argv (same --seed), a traceback or a timeout.
"""

from __future__ import annotations

import hashlib
import json

from workloads import Op


def check(op: Op, result: dict) -> list[str]:
    """Problems with one worker result; empty when the operation passed."""
    if result.get("timeout"):
        return ["timeout"]
    if result.get("traceback"):
        return ["traceback: " + result["traceback"].strip().splitlines()[-1]]
    problems = []
    if result["code"] != op.exit_code:
        said = result.get("stderr", "").strip().splitlines()[:1]
        problems.append(f"exit code {result['code']}, expected {op.exit_code}"
                        + "".join(f" ({line})" for line in said))
    output = result["output"]
    if op.certificates is None:
        if output:
            problems.append("a refused operation printed a report")
        return problems
    try:
        report = json.loads(output)
    except ValueError:
        return problems + ["output is not a JSON report"]
    certs = report.get("certificates")
    if certs != op.certificates:
        problems.append(f"certificates {certs}, expected {dict(op.certificates)}")
    values = report.get("values", {})
    for key, want in op.values.items():
        if values.get(key) != want:
            problems.append(f"values.{key} = {values.get(key)!r}, expected {want!r}")
    return problems


class Digests:
    """sha256 of each argv's first output; later outputs must match it."""

    def __init__(self) -> None:
        self.first: dict[tuple[str, ...], str] = {}

    def check(self, op: Op, result: dict) -> list[str]:
        if "output" not in result:
            return []
        digest = hashlib.sha256(result["output"].encode()).hexdigest()
        if self.first.setdefault(op.argv, digest) != digest:
            return ["output digest differs from an earlier run of the same argv"]
        return []
