"""Run-to-run spread of the end-to-end metrics, and the baseline file.

    python3 perfbench/spread.py --runs 10 [--workload W ...]

Runs ``run.py`` ``--runs`` times per workload, at seeds 1 to ``--runs``, and
reports for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and their distance as a
share of the median, against a third of the metric's bound. It adds one
traced run per workload at seed 42 and writes all of it to
``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import END_TO_END, RUN_SECONDS, WORKLOADS

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
BASELINE = HERE / "baseline.json"
TRACE_SEED = 42


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} seed {seed}: {proc.stderr.strip()}")
    *_, details, result = proc.stdout.strip().splitlines()
    return {"result": json.loads(result), "details": json.loads(details)}


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "steady": spread < bound / 3, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    report = {"runs": args.runs, "seconds": RUN_SECONDS, "workloads": {}}
    for name in args.workload or list(WORKLOADS):
        runs = [run_once(name, seed, 0) for seed in range(1, args.runs + 1)]
        entry = {
            "seeds": [r["details"]["seed"] for r in runs],
            "all_correct": all(r["result"]["correct"] for r in runs),
            "cmd_s_median": {
                label: statistics.median(r["details"]["cmd_s"][label] for r in runs)
                for label in runs[0]["details"]["cmd_s"]
            },
            "end_to_end": {},
            "runs": [{k: r["details"].get(k) for k in ("seed", "cmd_s", "cmd_s_raw", "slowdown",
                                                        "setup_s_raw", "passes")}
                     for r in runs],
        }
        for metric, (unit, _, bound) in END_TO_END.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            stats = summarize(values, bound)
            entry["end_to_end"][metric] = dict(stats, unit=unit)
            print(f"{name:<17} {metric:<14} median {stats['median']:<10.4g} {unit:<3} "
                  f"spread {stats['spread']:.4f} (bound/3 {bound / 3:.4f}) "
                  f"{'ok' if stats['steady'] else 'WIDE'}", flush=True)
        traced = run_once(name, TRACE_SEED, 1)
        entry["trace"] = {"seed": TRACE_SEED, "correct": traced["result"]["correct"],
                          "per_layer": {k: m["value"] for k, m in
                                        traced["result"]["metrics"].items()},
                          "detail": traced["details"].get("layer_detail", {})}
        print(f"{name:<17} all correct: {entry['all_correct']}", flush=True)
        report["workloads"][name] = entry
    BASELINE.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
