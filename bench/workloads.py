"""The four workloads: each builds its operations, and writes their input
files, from the workload seed.

An operation is one `liekit` argv with its expected outcome: exit code, the
exact certificate map (None when a refusal prints no report) and a subset of
`values` that must match. The expected values are invariants of the inputs,
independent of the `--seed` a command gets, so one table serves every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import basis_change


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    exit_code: int = 0
    certificates: Mapping[str, bool] | None = field(default_factory=dict)
    values: Mapping[str, object] = field(default_factory=dict)


def _argv(rng: random.Random, *words: str) -> tuple[str, ...]:
    return (*words, "--seed", str(rng.randrange(1 << 30)), "--format", "json")


# ---------------------------------------------------------------------------
# snobl: the paper's headline, liecore-bound

SNOBL_CERTIFICATES = {"dims_are_9_9": True, "splitting_dims_are_9_10": True,
                      "derivation_dims_differ": True, "non_isomorphic": True}
SNOBL_VALUES = {"dim": [9, 9], "dim_M": [9, 10], "dim_Der": [13, 12],
                "non_isomorphic": True}


def snobl(rng: random.Random, inputs: Path) -> list[Op]:
    return [Op(_argv(rng, "demo", "snobl"), 0, SNOBL_CERTIFICATES, SNOBL_VALUES)
            for _ in range(4)]


# ---------------------------------------------------------------------------
# torus-heis7: Cartan search on Der(h7), charpoly-bound

def torus_heis7(rng: random.Random, inputs: Path) -> list[Op]:
    # one operation per pass: it takes 8 s on an unloaded host and up to 20 s
    # on a loaded one, and the runs of every workload must fit the time limit
    return [Op(_argv(rng, "torus", "heisenberg:7"), 0, {}, {"dim": 4})]


# ---------------------------------------------------------------------------
# basis-change: dense integer tables, rref- and Leibniz-system-bound

# fingerprints of the untransformed catalog algebras (isomorphism invariants)
FINGERPRINTS = {
    "filiform:6": {"dim": 6, "lower_central": [6, 4, 3, 2, 1, 0],
                   "derived": [6, 4, 0], "dim_center": 1, "dim_commutator": 4,
                   "dim_nilradical": 6, "dim_der": 11, "dim_malcev": 6},
    "favre7": {"dim": 7, "lower_central": [7, 4, 3, 2, 1, 0],
               "derived": [7, 4, 1, 0], "dim_center": 1, "dim_commutator": 4,
               "dim_nilradical": 7, "dim_der": 10, "dim_malcev": 7},
    "diagonal_torus_extension:3": {
        "dim": 6, "lower_central": [6, 3, 3], "derived": [6, 3, 0],
        "dim_center": 0, "dim_commutator": 3, "dim_nilradical": 3,
        "dim_der": 6, "dim_malcev": 6},
    "heisenberg:7": {"dim": 7, "lower_central": [7, 1, 0], "derived": [7, 1, 0],
                     "dim_center": 1, "dim_commutator": 1, "dim_nilradical": 7,
                     "dim_der": 28, "dim_malcev": 7},
    "filiform:8": {"dim": 8, "lower_central": [8, 6, 5, 4, 3, 2, 1, 0],
                   "derived": [8, 6, 0], "dim_center": 1, "dim_commutator": 6,
                   "dim_nilradical": 8, "dim_der": 15, "dim_malcev": 8},
}


def basis_change_ops(rng: random.Random, inputs: Path) -> list[Op]:
    # three basis changes of each of five algebras: at equal size the cost of
    # one table still varies with its basis change by about 15%, and with an
    # odd number of algebras the middle fifth falls inside one algebra's costs
    ops = []
    for copy in (1, 2, 3):
        for key in basis_change.BASES:
            path = inputs / f"{key.replace(':', '_')}_{copy}.json"
            path.write_text(basis_change.generate(key, rng), encoding="utf-8")
            ops.append(Op(_argv(rng, "fingerprint", path.as_posix()), 0, {},
                          FINGERPRINTS[key]))
    return ops


# ---------------------------------------------------------------------------
# cli-sweep: every subcommand on small catalog entries, catalog-gate-bound

# (command words, expected values); exit 0 and no certificates unless noted
_SWEEP_SOURCES = {
    "heisenberg:3": {"info": {"lower_central": [3, 1, 0]}, "der": {"dim": 6},
                     "nilradical": {"dim": 3}, "cartan": {"dim": 3},
                     "torus": {"dim": 2}, "fingerprint": {"dim_der": 6},
                     "split": {"dim_M": 3}},
    "filiform:5": {"info": {"lower_central": [5, 3, 2, 1, 0]}, "der": {"dim": 9},
                   "nilradical": {"dim": 5}, "cartan": {"dim": 5},
                   "torus": {"dim": 2}, "fingerprint": {"dim_der": 9},
                   "split": {"dim_M": 5}},
    "favre7": {"info": {"lower_central": [7, 4, 3, 2, 1, 0]}, "der": {"dim": 10},
               "nilradical": {"dim": 7}, "cartan": {"dim": 7},
               "torus": {"dim": 0}, "fingerprint": {"dim_der": 10},
               "split": {"dim_M": 7}},
    "r2": {"info": {"lower_central": [2, 1, 1]}, "der": {"dim": 2},
           "nilradical": {"dim": 1}, "cartan": {"dim": 1}, "torus": {"dim": 1},
           "fingerprint": {"dim_der": 2}, "split": {"dim_M": 2}},
    "diagonal_torus_extension:2": {
        "info": {"lower_central": [4, 2, 2]}, "der": {"dim": 4},
        "nilradical": {"dim": 2}, "cartan": {"dim": 2}, "torus": {"dim": 2},
        "fingerprint": {"dim_der": 4}, "split": {"dim_M": 4}},
}
_EXTEND_OK = {"validated": True, "rank_bound_ok": True}
_RANK_OK = {"rank_ok": True, "codim_ok": True}


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return path.as_posix()


def cli_sweep(rng: random.Random, inputs: Path) -> list[Op]:
    ops = [Op(_argv(rng, cmd, src), 0, {}, values)
           for src, table in _SWEEP_SOURCES.items()
           for cmd, values in table.items()]
    ops += [
        Op(_argv(rng, "cartan", "sl2"), 0, {}, {"dim": 1}),
        # designed refusal: the splitting is defined for solvable algebras
        Op(_argv(rng, "split", "sl2"), 2, None),
        Op(_argv(rng, "extend", "--standard", "heisenberg:3"), 0, _EXTEND_OK,
           {"dim_total": 5}),
        Op(_argv(rng, "extend", "--standard", "filiform:4"), 0, _EXTEND_OK,
           {"dim_total": 6}),
        Op(_argv(rng, "extend", "--standard", "favre7"), 0, _EXTEND_OK,
           {"dim_total": 7}),
        Op(_argv(rng, "verify", "rank-bound", "filiform:4"), 0, _RANK_OK,
           {"toric_rank": 2}),
        Op(_argv(rng, "verify", "rank-bound", "so2_torus_extension"), 0,
           _RANK_OK, {"toric_rank": 2}),
        Op(_argv(rng, "verify", "togo", "heisenberg:3", "abelian:2"), 0,
           {"equal": True}, {"dim_der_sum": 16}),
        Op(_argv(rng, "verify", "togo", "abelian:1", "favre7"), 0,
           {"equal": True}, {"dim_der_sum": 15}),
    ]
    # extend --by: seeded semisimple actions are accepted; a seeded nilpotent
    # action keeps the extension nilpotent and is rejected with exit 1
    a, b, c = (rng.randint(1, 5) for _ in range(3))
    diag2 = _write(inputs / "diag_abelian2.json",
                   {"matrices": [[[str(a), "0"], ["0", str(b)]]], "labels": ["t"]})
    diag3 = _write(inputs / "diag_heisenberg3.json",
                   {"matrices": [[[str(a), "0", "0"], ["0", str(b), "0"],
                                  ["0", "0", str(a + b)]]], "labels": ["t"]})
    nilp = _write(inputs / "nilpotent_abelian2.json",
                  {"matrices": [[["0", str(c)], ["0", "0"]]]})
    ops += [
        Op(_argv(rng, "extend", "--by", diag2, "abelian:2"), 0,
           {"nilradical_preserved": True, **_EXTEND_OK}, {"dim_total": 3}),
        Op(_argv(rng, "extend", "--by", diag3, "heisenberg:3"), 0,
           {"nilradical_preserved": True, **_EXTEND_OK}, {"dim_total": 4}),
        Op(_argv(rng, "extend", "--by", nilp, "abelian:2"), 1,
           {"nilradical_preserved": False}, {"computed_nilradical_dim": 3}),
    ]
    return ops


WORKLOADS: dict[str, Callable[[random.Random, Path], list[Op]]] = {
    "snobl": snobl,
    "torus-heis7": torus_heis7,
    "basis-change": basis_change_ops,
    "cli-sweep": cli_sweep,
}


def build(name: str, seed: int, inputs: Path) -> list[Op]:
    """The operations of one pass; inputs go under `inputs`."""
    inputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), inputs)
