"""Run one liekit CLI operation in this fresh interpreter.

Usage: python3 bench/worker.py '<argv as JSON list>' <trace 0|1>
       python3 bench/worker.py --probe

The worker imports `liekit.cli` (the set-up a CLI user pays on every call),
notes the monotonic clock, then makes one `liekit.cli.dispatch(argv)` call
with stdout and stderr captured. It prints one JSON line: the ready time,
the operation's wall time, exit code, captured report, any traceback, its
peak RSS, its calibration samples (see calibrate.py) and, when traced, its
spans. With --probe it stops after set-up and the first calibration burst.
CLOCK_MONOTONIC is system-wide, so the parent can subtract its spawn time.
The wall time excludes the calibration samples taken during the operation.
"""

import io
import json
import resource
import sys
import time
import traceback

from calibrate import Sampler


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> None:
    probe = sys.argv[1] == "--probe"
    trace = not probe and sys.argv[2] == "1"
    from liekit import cli
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ready = _now()
    sampler = Sampler()
    sampler.burst()
    result = {"ready": ready, "cal_setup_s": sampler.mean()}
    if not probe:
        argv = json.loads(sys.argv[1])
        out, err = io.StringIO(), io.StringIO()
        real_out, real_err = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        tb = None
        code = None
        sampler.start()
        started = time.perf_counter()
        try:
            code, _ = cli.dispatch(argv)
        except SystemExit as exc:   # argparse usage errors, as in cli.main
            code = int(exc.code or 0)
        except Exception:
            tb = traceback.format_exc()
        op_s = time.perf_counter() - started
        sampler.stop()
        sys.stdout, sys.stderr = real_out, real_err
        sampler.burst()
        result.update(op_s=op_s - sum(sampler.during), cal_op_s=sampler.mean(),
                      code=code, output=out.getvalue(),
                      stderr=err.getvalue(), traceback=tb)
        if tracer is not None:
            result["spans"] = tracer.spans
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
