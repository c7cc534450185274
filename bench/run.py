"""Benchmark of the `bachet-game` CLI on four fixed workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  Each workload runs in a fresh worker
process as a closed loop with one client: the next `cli.run` starts when
the previous one has returned and its outputs have been checked.  With
`--trace 0` the end-to-end metrics are measured with tracing off; with
`--trace 1` the per-layer metrics come from traced executions.  Metric
names and units are those of BENCHMARK.json.  Human-readable lines come
first; the last line of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib
from spans import UNITS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
PACKAGE = ROOT / "src" / "bachet_lottery"
SETUP_SAMPLES = 8
RUN_LIMIT_S = 170.0
E2E_UNITS = {
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "failed_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def setup_samples(count: int, deadline: float) -> tuple[list[float], list[float]]:
    """Seconds for `count` fresh interpreters to finish `import bachet_lottery.cli`,
    and the calibration passes taken before each."""
    samples, passes = [], []
    for _ in range(count):
        passes += [calib.one_pass() for _ in range(5)]
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import bachet_lottery.cli"],
            env=_env(), cwd=ROOT, check=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        samples.append(time.perf_counter() - start)
    return samples, passes


def tail(samples: list[float]) -> tuple[int, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    k = len(samples) - 10
    if k < 1:
        return None
    return 100 * k // len(samples), sorted(samples)[k - 1]


def environment(wl) -> dict:
    info = {"nproc": os.cpu_count(), "cpu_model": "unknown", "l3_bytes": None}
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
    except OSError:
        cpuinfo = ""
    for line in cpuinfo.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name":
            info["cpu_model"] = value.strip()
        elif key.strip() == "cache size" and value.strip().endswith("KB"):
            info["l3_bytes"] = int(value.strip()[:-2]) * 1024
    largest = wl.largest_array()
    if info["l3_bytes"]:
        largest["times_l3_computed"] = round(largest["bytes_computed"] / info["l3_bytes"], 3)
    info["largest_array"] = largest
    info["seed_dependent"] = wl.seeded
    info["loop"] = "closed, 1 client, 1 busy core"
    return info


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Measure one workload in its own worker process."""
    wl = WORKLOADS[name]
    setup, setup_passes = [], []
    if not trace:
        # the first import may write bytecode, so it is not counted; the
        # rest come half before and half after the worker
        setup, setup_passes = setup_samples(1 + SETUP_SAMPLES // 2, deadline)
        setup = setup[1:]
    WORK.mkdir(exist_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)), "--work", str(WORK)]
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: worker did not finish in time") from exc
    sys.stderr.write(proc.stderr)
    if not trace:
        more, more_passes = setup_samples(SETUP_SAMPLES - len(setup), deadline)
        setup += more
        setup_passes += more_passes
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{name}: worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(result["package"]).resolve().is_relative_to(PACKAGE):
        raise BenchError(f"{name}: imported {result['package']}, not the checkout's package")
    samples = result["samples_s"]
    if not samples or (trace and "layers" not in result):
        raise BenchError(f"{name}: every execution failed: {result['failures'][:1]}")

    failed = len(result["failures"])
    passes = result["calib_pass_s"]
    wall = calib.scaled(calib.low_decile(samples), calib.low_decile(passes))
    env = environment(wl)
    env.update(python=result["python"], numpy=result["numpy"])
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "attempted": result["attempted"],
        "failed": failed,
        "failures": result["failures"][:5],
        "environment": env,
        "wall_samples": len(samples),
        "wall_median": statistics.median(samples),
        "wall_tail": tail(samples),
        "wall_low_decile": calib.low_decile(samples),
        "calib_low_decile": calib.low_decile(passes),
        "setup_samples": len(setup),
        "metrics": {"failed_frac": failed / result["attempted"]},
    }
    if trace:
        record["metrics"].update(result["layers"])
    else:
        record["metrics"].update(
            wall_s=wall,
            work_per_s=wl.work / wall,
            peak_rss_mb=result["peak_rss_mb"],
            setup_s=calib.scaled(statistics.median(setup), statistics.median(setup_passes)),
        )
        record["setup_median"] = statistics.median(setup)
    return record


def describe(record: dict) -> list[str]:
    wl = WORKLOADS[record["workload"]]
    lines = [
        f"workload {wl.name}: bachet-game {wl.command}, seed {record['seed']}"
        f" ({'used' if wl.seeded else 'not used'}), trace {record['trace']},"
        f" {record['attempted']} executions, {record['failed']} failed",
    ]
    units = {**E2E_UNITS, **UNITS}
    for key, value in record["metrics"].items():
        note = ""
        if key == "wall_s":
            pct = record["wall_tail"]
            note = (f"reference speed; measured over {record['wall_samples']} executions:"
                    f" p10 {record['wall_low_decile']:.6g} s (calibration pass p10"
                    f" {record['calib_low_decile']:.6g} s), median {record['wall_median']:.6g} s, "
                    + (f"p{pct[0]} {pct[1]:.6g} s" if pct else "no percentile has 10 samples above it"))
        elif key == "work_per_s":
            note = f"{wl.work} {wl.work_unit} per execution"
        elif key == "setup_s":
            note = (f"reference speed; measured median {record['setup_median']:.6g} s"
                    f" of {record['setup_samples']} fresh interpreters")
        elif key == "failed_frac":
            note = f"{record['failed']} of {record['attempted']}"
        lines.append(f"  {key:<34} {value:>16.6g} {units[key]:<6} {note}")
    for reason in record["failures"]:
        lines.append(f"  failed: {reason}")
    lines.append("environment " + json.dumps(record["environment"], sort_keys=True))
    return lines


def contract_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the bachet-game CLI.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no package source at {PACKAGE}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    try:
        wanted = contract_metrics(bool(args.trace))
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace), deadline)
                   for n in names]
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for record in records:
        print("\n".join(describe(record)))
        prefix = "" if len(records) == 1 else record["workload"] + "."
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": record["metrics"][m["name"]], "unit": m["unit"]}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
