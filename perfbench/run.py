"""The altseq benchmark: whole CLI runs, checked, timed and traced.

    python3 perfbench/run.py --workload solve --seed 42 --seconds 25 --trace 0
    python3 perfbench/run.py --all [--seed 42] [--seconds 25] [--trace 0|1]

Run from the root of a checkout. Each run starts fresh processes: several
that only import ``altseq.cli`` (``probe.py``; the median of their
spawn-to-ready times is ``setup_s``), then one (``worker.py``) that runs the workload's invocations through
``altseq.cli.main`` for about ``--seconds`` and checks every output. All
times are corrected for the slowdown of the core they ran on (``speed.py``).

With ``--trace 0`` the last line of stdout is one JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced pass instead. The line before it carries the details: per-group
times ``cmd_s.<label>``, ``failed_frac``, ``max_value_err``, nproc, Python
and numpy versions, the seed, and the first failure messages. ``--all``
runs every workload and prints a table of every metric by name and unit.
The exit code is 0 whenever a result was printed, even one with failed
checks; it is 2 when the workload could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS

HERE = Path(__file__).resolve().parent
PROBE = HERE / "probe.py"
WORKER = HERE / "worker.py"
#: Fresh import-only processes per run; their median is setup_s.
SETUP_PROBES = 11
#: Every process the benchmark starts must end well inside the 180 s limit.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The workload could not be run; no result is printed."""


def _probe(deadline: float) -> tuple[float, float]:
    """(corrected, raw) seconds from spawning an interpreter until altseq.cli
    is imported and ready. The probe reports its core's slowdown meanwhile and
    the time it spent sampling it, which is taken off."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(PROBE)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        _, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    words = line.split()
    if proc.returncode != 0 or len(words) != 3 or words[0] != "ready":
        raise BenchError(f"setup probe failed: {err.strip()}")
    raw = ready - float(words[2])
    return raw / float(words[1]), raw


def _worker(args: list[str], deadline: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)] + args, capture_output=True, text=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload did not finish in time: {args}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """(result line, details) for one run of one workload."""
    deadline = perf_counter() + DEADLINE_S
    raw_args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace)]
    if trace:
        raw = _worker(raw_args, deadline)
        values = raw["layers"]
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
    else:
        setup, setup_raw = zip(*(_probe(deadline) for _ in range(SETUP_PROBES)))
        raw = _worker(raw_args, deadline)
        cmd_s = raw["cmd_s"]
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(cmd_s.values()),
            "cmd_geomean_s": math.exp(statistics.fmean(math.log(v) for v in cmd_s.values())),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        units = {k: unit for k, (unit, _, _) in END_TO_END.items()}
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }
    details = {
        key: raw[key]
        for key in ("workload", "seed", "cli_seed", "nproc", "python", "numpy", "passes", "cmd_s",
                    "cmd_s_raw", "slowdown", "max_value_err", "failures", "layer_detail", "trace_file")
        if key in raw
    }
    details["failed_frac"] = raw["failed"] / raw["attempted"]
    if not trace:
        details["setup_s_samples"] = list(setup)
        details["setup_s_raw"] = list(setup_raw)
    return result, details


def _table(name: str, result: dict, details: dict) -> list[str]:
    rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    rows += [(f"cmd_s.{label}", v, "s") for label, v in details.get("cmd_s", {}).items()]
    rows += [(k, v, "s" if k.endswith(".s") else "ns" if ".ns_per_" in k else "count")
             for k, v in details.get("layer_detail", {}).items()]
    rows += [("failed_frac", details["failed_frac"], "frac")]
    if name == "solve":
        rows += [("max_value_err", details["max_value_err"], "abs")]
    return [f"{name:<17} {k:<38} {v!s:<24} {u}" for k, v, u in rows]


def main() -> int:
    # On SIGTERM, unwind so that subprocess.run kills the running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description="altseq benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, print a table")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload or --all")
    try:
        if args.all:
            for name in WORKLOADS:
                result, details = run_workload(name, args.seed, args.seconds, args.trace)
                print("\n".join(_table(name, result, details)), flush=True)
                for message in details["failures"]:
                    print(f"{name:<17} FAILED {message}", flush=True)
            return 0
        result, details = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
