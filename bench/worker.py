"""Benchmark worker: runs one workload's CLI command in a closed loop with
one client, in this process, and prints one JSON line with what it saw.

`run.py` starts one worker per workload, so `peak_rss_mb` is the peak of
the process that ran the command.  The package is imported before the
loop, so no execution pays for imports.  With `--trace 1` every round
runs the command once untraced and once traced; only the traced
executions record spans.
"""
from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import calib
import checks
from workloads import WORKLOADS, Workload

MIN_EXECUTIONS = 3


def execute(run, wl: Workload, config_path: Path, out: Path, seed: int) -> tuple[float, str | None]:
    """One command execution: (seconds spent in `run`, why it failed or None).

    A non-zero exit code, a raised exception and a failed output check
    each make the execution fail.
    """
    for name in wl.artifacts:
        (out / name).unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        code = run(wl.command, str(config_path), str(out), wl.seed_arg(seed))
    except Exception as exc:  # counted as a failed execution; the loop goes on
        seconds = time.perf_counter() - start
        traceback.print_exc()
        return seconds, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if code != 0:
        return seconds, f"exit code {code}"
    return seconds, checks.check(wl.name, out, seed)


def measure(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run `wl` for about `seconds` (at least MIN_EXECUTIONS executions)."""
    import numpy
    import spans
    from bachet_lottery import cli

    out = work / f"{wl.name}-out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    config_path = work / f"{wl.name}.json"
    config_path.write_text(json.dumps({"command": wl.command, **wl.config}))

    plain: list[float] = []
    passes: list[float] = []
    traced: list[float] = []
    failures: list[str] = []
    layers: list[dict] = []
    trace_spans: list[dict] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        rounds += 1
        gc.collect()
        passes.append(calib.one_pass())
        took, failure = execute(cli.run, wl, config_path, out, seed)
        if failure:
            failures.append(failure)
        else:
            plain.append(took)
        if trace:
            tracer = spans.Tracer(rounds)
            gc.collect()
            with spans.instrument(tracer):
                took, failure = execute(
                    tracer.wrap(cli.run, spans.ROOT_SPAN), wl, config_path, out, seed
                )
            trace_spans += tracer.to_json()
            if failure:
                failures.append(failure)
            else:
                traced.append(took)
                layers.append(spans.layer_metrics(tracer, out, wl.artifacts))
        elapsed = time.perf_counter() - start
        if rounds * (1 + trace) >= MIN_EXECUTIONS and elapsed * (1 + 1 / rounds) > seconds:
            break

    result = {
        "package": cli.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "samples_s": plain,
        "calib_pass_s": passes,
        "attempted": rounds * (1 + trace),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        (work / f"trace-{wl.name}.json").write_text(json.dumps(trace_spans))
        if layers and plain:
            # one whole execution, so its parts add up: the median one
            chosen = sorted(layers, key=lambda m: m["cli.run_s"])[(len(layers) - 1) // 2]
            chosen["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            result["layers"] = chosen
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True, help="scratch directory")
    args = parser.parse_args(argv)
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
