"""liekit benchmark: CLI operations in fresh worker processes, one at a time.

Usage (from the repository root):
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one `liekit.cli.dispatch(argv)` call in a new interpreter,
as a CLI user runs it; a single client waits for each before starting the
next (closed loop, one worker at a time). The workload seed draws every
`--seed` and every generated input. A pass runs each of the workload's
operations once; passes repeat, with the same argvs, while the next pass
would end within S seconds, so a run measures at most S seconds or one pass.
From the second pass on, every output digest is compared against the first
run of the same argv.

Every time it reports is calibrated (see calibrate.py): the worker's wall
time scaled by how much slower than usual the host ran a fixed calibration
loop at the same time, so that the varying speed of a shared host cancels.
The raw wall-clock medians are printed on the line before the result.

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json.
With --trace 1 it runs one untraced and one traced pass of the same
operations and reports the per-layer metrics from the traced one, plus the
tracing overhead; the spans are written under .bench_out/. The last line of
stdout is the JSON result; failures are described on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import gate
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5       # import-only workers per run, on top of one per operation
OP_TIMEOUT_S = 120.0
RUN_LIMIT_S = 170.0    # no worker may run past this point of the run


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    """Spawns workers one at a time and keeps what every worker reported."""

    def __init__(self) -> None:
        self.started = _now()
        self.setups: list[float] = []
        self.raw_setups: list[float] = []
        self.maxrss_kb: list[int] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, args: list[str]) -> dict:
        timeout = min(OP_TIMEOUT_S, self.started + RUN_LIMIT_S - _now())
        spawned = _now()
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                                cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=max(timeout, 0.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"timeout": True}
        lines = out.splitlines()
        if proc.returncode != 0 or not lines:
            return {"traceback": err or f"worker exited with {proc.returncode}"}
        result = json.loads(lines[-1])
        self.raw_setups.append(result["ready"] - spawned)
        self.setups.append(self.raw_setups[-1] * calibrate.REF_S
                           / result["cal_setup_s"])
        if "op_s" in result:
            result["cal_s"] = result["op_s"] * calibrate.REF_S / result["cal_op_s"]
        self.maxrss_kb.append(result["maxrss_kb"])
        return result

    def probe(self) -> None:
        result = self.spawn(["--probe"])
        if "ready" not in result:
            raise SystemExit("worker failed to import liekit.cli:\n"
                             + result.get("traceback", "timeout"))

    def out_of_time(self) -> bool:
        return _now() - self.started >= RUN_LIMIT_S


def run_pass(runner: Runner, ops: list[workloads.Op], trace: bool,
             digests: gate.Digests, log: list[str]) -> list[dict]:
    results = []
    for op in ops:
        if runner.out_of_time():
            break
        result = runner.spawn([json.dumps(list(op.argv)), "1" if trace else "0"])
        problems = gate.check(op, result) + digests.check(op, result)
        result["argv"] = op.argv
        result["failed"] = bool(problems)
        log.extend(f"FAIL {' '.join(op.argv)}: {p}" for p in problems)
        results.append(result)
    return results


def band_mean(times: list[float], low: float, high: float) -> float:
    """Mean of the times whose rank lies between the fractions low and high.

    The band keeps at least one time. Unlike a single order statistic, its
    mean moves only by a share of the gap when two operations of a workload
    with many different commands swap ranks from one run to the next.
    """
    ordered = sorted(times)
    lo = min(math.floor(low * len(ordered)), len(ordered) - 1)
    hi = max(math.ceil(high * len(ordered)), lo + 1)
    return statistics.fmean(ordered[lo:hi])


def end_to_end(runner: Runner, results: list[dict]) -> tuple[dict, str]:
    times = [r["cal_s"] for r in results if "cal_s" in r]
    raw = [r["op_s"] for r in results if "op_s" in r]
    metrics = {
        "setup_s": statistics.median(runner.setups),
        "op_mid_s": band_mean(times, 0.4, 0.6),
        "op_tail_s": band_mean(times, 0.8, 1.0),
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": max(runner.maxrss_kb) / 1024,
    }
    note = (f"{len(times)} operations, setup_s over {len(runner.setups)} "
            f"workers; wall-clock medians: operation "
            f"{statistics.median(raw):.4g} s, set-up "
            f"{statistics.median(runner.raw_setups):.4g} s")
    return metrics, note


def per_layer(untraced: list[dict], traced: list[dict], spans_path: Path) -> dict:
    total: dict[str, float] = {}
    with spans_path.open("w", encoding="utf-8") as fh:
        for r in traced:
            spans = r.pop("spans", [])
            tracer.merge(total, tracer.aggregate(spans))
            fh.write(json.dumps({"argv": r["argv"], "spans": spans}) + "\n")
    picks = total.pop("structure.cartan_subalgebra.picks", 0)
    calls = total.pop("structure.cartan_subalgebra.charpoly_calls", 0)
    total["structure.cartan_subalgebra.charpoly_per_call"] = calls / picks if picks else 0.0
    total["cli.output_bytes"] = sum(len(r.get("output", "").encode()) for r in traced)
    total["trace.overhead_s"] = (sum(r.get("cal_s", 0.0) for r in traced)
                                 - sum(r.get("cal_s", 0.0) for r in untraced))
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "liekit" / "cli.py").is_file():
        print(f"error: no liekit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    ops = workloads.build(args.workload, args.seed,
                          OUT / f"{args.workload}-seed{args.seed}")
    runner = Runner()
    runner.probe()                      # compiles bytecode; not counted
    runner.setups.clear()
    runner.raw_setups.clear()
    runner.maxrss_kb.clear()
    for _ in range(SETUP_PROBES):
        runner.probe()

    digests, log = gate.Digests(), []
    if args.trace:
        untraced = run_pass(runner, ops, False, digests, log)
        traced = run_pass(runner, ops, True, digests, log)
        results = untraced + traced
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        values = per_layer(untraced, traced, spans_path)
        note = f"traced {len(traced)} operations; spans in {spans_path.relative_to(ROOT)}"
    else:
        results, passes = [], 0
        begun = _now()
        while True:
            pass_start = _now()
            results += run_pass(runner, ops, False, digests, log)
            passes += 1
            elapsed = _now() - begun
            if runner.out_of_time() or elapsed + (_now() - pass_start) > args.seconds:
                break
        values, note = end_to_end(runner, results)
        note += f"; {passes} passes of {len(ops)} operations in {elapsed:.1f} s"

    for line in log:
        print(line, file=sys.stderr)
    failed = sum(r["failed"] for r in results)
    print(f"{args.workload} seed {args.seed}: {note}")
    print(json.dumps({
        "correct": failed == 0 and len(results) > 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0) if args.trace
                                else values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
