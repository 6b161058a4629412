"""Record the reference outputs the benchmark checks against.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/record_reference.py

It writes ``perfbench/reference.json`` with the payload of every solver
invocation, the fixed-horizon DP values the Monte Carlo checks compare
with, and the mean and variance of every Monte Carlo invocation at each of
``RECORDED_SEEDS`` (and at a workload's fixed seed), which later runs must
reproduce bit for bit.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import WORKLOADS
from probe import cap_threads, import_cli
from worker import invoke

REFERENCE = Path(__file__).resolve().parent / "reference.json"
#: Horizons of the finite-optimal policies the Monte Carlo workloads run.
DP_HORIZONS = (10, 1000)
#: Seeds at which Monte Carlo outputs are recorded.
RECORDED_SEEDS = range(100)


def mc_summary(payload: dict) -> list[list[float]]:
    """[mean, variance] per result row, in output order."""
    if "rows" in payload:
        return [[r["mean"], r["variance"]] for r in payload["rows"]]
    row = payload.get("result", payload)
    return [[row["mean"], row["variance"]]]


def _run(cli, argv: list[str]) -> dict:
    rc, out, err = invoke(cli, argv)
    if rc != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {rc}: {err}")
    return json.loads(out)


def main() -> int:
    cap_threads()
    cli = import_cli()
    ref = {"solver": {}, "dp_value": {}, "monte_carlo": {}}
    for w in WORKLOADS.values():
        if not w.seeded:
            for _, inv in w.invocations():
                ref["solver"][inv] = _run(cli, w.argv(inv, 0))
    for n in DP_HORIZONS:
        ref["dp_value"][str(n)] = _run(cli, ["finite", "--n", str(n), "--json"])["value"]
    fixed = {w.fixed_seed for w in WORKLOADS.values() if w.fixed_seed is not None}
    for seed in sorted(set(RECORDED_SEEDS) | fixed):
        per_seed = {}
        for w in WORKLOADS.values():
            if w.seeded and w.cli_seed(seed) == seed:
                for _, inv in w.invocations():
                    per_seed[inv] = mc_summary(_run(cli, w.argv(inv, seed)))
        ref["monte_carlo"][str(seed)] = per_seed
        print(f"seed {seed} recorded", file=sys.stderr, flush=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
