"""Self-tests of the benchmark: python3 -m pytest bench -q (from the repo root)."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import basis_change
import calibrate
import gate
import run
import tracer
import workloads


# ---------------------------------------------------------------------------
# input generator

def jacobi_holds(table: dict, n: int) -> bool:
    """Jacobi identity on every basis triple, checked on the table directly."""
    def br(x: list[Fraction], y: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * n
        for (i, j), terms in table.items():
            coef = x[i] * y[j] - x[j] * y[i]
            if coef:
                for k, c in terms.items():
                    out[k] += coef * c
        return out

    basis = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                x, y, z = basis[i], basis[j], basis[k]
                total = [a + b + c for a, b, c in zip(
                    br(br(x, y), z), br(br(y, z), x), br(br(z, x), y))]
                if any(total):
                    return False
    return True


@pytest.mark.parametrize("key", sorted(basis_change.BASES))
def test_generator_is_deterministic_and_exact(key):
    text = basis_change.generate(key, random.Random(5))
    assert text == basis_change.generate(key, random.Random(5))
    assert text != basis_change.generate(key, random.Random(6))
    doc = json.loads(text)
    n = doc["dim"]
    table = {(i - 1, j - 1): {k - 1: Fraction(c) for k, c in terms}
             for i, j, terms in doc["brackets"]}
    assert all(c.denominator == 1 for terms in table.values() for c in terms.values())
    assert basis_change.total_bits(table) >= \
        basis_change.TARGET_BITS_PER_ENTRY * n * n * (n - 1) // 2
    assert jacobi_holds(table, n)


def test_inverse_of_a_unimodular_matrix_is_integral():
    rng = random.Random(1)
    p = [[int(r == c) for c in range(5)] for r in range(5)]
    for _ in range(20):
        p = basis_change.row_operation(p, rng)
    q = basis_change.inverse(p)
    assert [[sum(p[i][k] * q[k][j] for k in range(5)) for j in range(5)]
            for i in range(5)] == [[int(i == j) for j in range(5)] for i in range(5)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_inputs_are_byte_identical_per_seed(name, tmp_path):
    first = workloads.build(name, 3, tmp_path / "a")
    second = workloads.build(name, 3, tmp_path / "b")
    def seeds(ops):
        return [op.argv[op.argv.index("--seed") + 1] for op in ops]
    assert seeds(first) == seeds(second)
    files_a = sorted((tmp_path / "a").iterdir())
    assert [f.read_bytes() for f in files_a] == \
        [(tmp_path / "b" / f.name).read_bytes() for f in files_a]


# ---------------------------------------------------------------------------
# correctness gate

@pytest.fixture(scope="module")
def runner():
    return run.Runner()


@pytest.fixture(scope="module")
def snobl_result(runner, tmp_path_factory):
    op = workloads.build("snobl", 1, tmp_path_factory.mktemp("in"))[0]
    return op, runner.spawn([json.dumps(list(op.argv)), "0"])


def _corrupt(result: dict, edit) -> dict:
    report = json.loads(result["output"])
    edit(report)
    return dict(result, output=json.dumps(report))


def test_gate_passes_the_real_report(snobl_result):
    op, result = snobl_result
    assert gate.check(op, result) == []


def test_gate_flags_corrupted_reports(snobl_result):
    op, result = snobl_result
    wrong_der = _corrupt(result, lambda r: r["values"].update(dim_Der=[13, 13]))
    flipped = _corrupt(result, lambda r: r["certificates"].update(non_isomorphic=False))
    assert gate.check(op, wrong_der) and gate.check(op, flipped)
    assert gate.check(op, dict(result, code=1))
    assert gate.check(op, {"timeout": True}) == ["timeout"]
    assert gate.check(op, {"traceback": "Traceback ...\nAssertionError: x"})

    digests = gate.Digests()
    verdicts = [bool(gate.check(op, r) + digests.check(op, r))
                for r in (result, result, wrong_der, flipped)]
    assert sum(verdicts) / len(verdicts) == 0.5     # the fail ratio rises


def test_designed_refusals_are_not_failures(runner, tmp_path):
    ops = workloads.build("cli-sweep", 2, tmp_path)
    refusals = [op for op in ops if op.exit_code != 0]
    assert {op.argv[0] for op in refusals} == {"split", "extend"}
    for op in refusals:
        assert gate.check(op, runner.spawn([json.dumps(list(op.argv)), "0"])) == []


# ---------------------------------------------------------------------------
# tracing

def _sample_ops(tmp_path):
    sweep = workloads.build("cli-sweep", 4, tmp_path / "sweep")
    changed = workloads.build("basis-change", 4, tmp_path / "changed")
    return [op for op in sweep if op.argv[0] in ("torus", "extend")][:4] + changed[:1]


def test_traced_and_untraced_outputs_are_identical(runner, tmp_path):
    for op in _sample_ops(tmp_path):
        plain = runner.spawn([json.dumps(list(op.argv)), "0"])
        traced = runner.spawn([json.dumps(list(op.argv)), "1"])
        assert traced["spans"], op.argv
        digests = gate.Digests()
        assert digests.check(op, plain) + digests.check(op, traced) == []
        assert gate.check(op, traced) == []


def test_call_counts_repeat_exactly(runner, tmp_path):
    def counts():
        total: dict[str, float] = {}
        for op in _sample_ops(tmp_path):
            spans = runner.spawn([json.dumps(list(op.argv)), "1"])["spans"]
            tracer.merge(total, tracer.aggregate(spans))
        return {k: v for k, v in total.items() if not k.endswith("_s")}
    first = counts()
    assert first["exactlin.charpoly.calls"] > 0
    assert first == counts()


def test_self_time_excludes_children():
    spans = [["a", -1, 0.0, 10.0, 10.0, None],
             ["b", 0, 1.0, 4.0, 5.0, {"cells": 6}],
             ["a", 1, 2.0, 3.0, 3.0, None]]
    agg = tracer.aggregate(spans)
    assert agg["a.self_s"] == pytest.approx((10.0 - 4.0) + 1.0)
    assert agg["b.self_s"] == pytest.approx(2.0)
    assert agg["a.incl_s"] == pytest.approx(10.0)   # the nested call is not added
    assert agg["b.cells"] == 6


def test_every_per_layer_metric_names_a_traced_function():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    code = ("import sys; sys.path.insert(0, 'bench'); import liekit.cli, tracer;"
            "print('\\n'.join(tracer.Tracer().install()))")
    names = set(subprocess.run([sys.executable, "-c", code], cwd=run.ROOT,
                               env=run.Runner().env, capture_output=True,
                               text=True, check=True).stdout.split())
    derived = {"cli.output_bytes", "trace.overhead_s"}
    for metric in spec["per_layer"]:
        name = metric["name"]
        assert name in derived or name.rsplit(".", 1)[0] in names, name


# ---------------------------------------------------------------------------
# the runner itself

def test_band_means_take_the_middle_and_the_slowest_fifth():
    times = [float(i) for i in range(1, 48)]
    assert run.band_mean(times, 0.4, 0.6) == 24.0        # ranks 19..29
    assert run.band_mean(times, 0.8, 1.0) == 42.5        # the slowest ten
    assert run.band_mean([4.0, 1.0, 3.0, 2.0], 0.4, 0.6) == 2.5
    assert run.band_mean([7.0], 0.8, 1.0) == 7.0         # never empty


def test_calibration_leaves_out_the_slowest_samples():
    sampler = calibrate.Sampler()
    sampler.around = [1.0] * 19 + [100.0]
    assert sampler.mean() == 1.0
    sampler.around = [2.0]
    assert sampler.mean() == 2.0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "snobl",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
