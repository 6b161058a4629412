"""One workload in one fresh, single-threaded process.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1

Runs W's invocations in-process through ``altseq.cli.main``, checks every
output, and prints one JSON line of raw results (group times, counts of
failed checks, this process's peak RSS, and with ``--trace 1`` the
per-layer metrics of a traced pass). ``altseq`` is imported from the
``src/`` directory next to this one, never from an installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from checks import Checker, load_reference, value_error
from probe import NPROC, ROOT, cap_threads, import_cli
from speed import SpeedProbe
from workloads import RUN_SECONDS, WORKLOADS

OUT_DIR = Path(__file__).resolve().parent / "out"
#: Fewest timed passes per run, so every group time is a median of at least three.
MIN_PASSES = 3
#: Most failure messages carried in the result.
MAX_REPORTED = 5


def altseq_modules():
    from altseq import _bellman, cli, finite, geometric, montecarlo, policies

    return cli, montecarlo, policies, _bellman, geometric, finite


def invoke(cli, argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI invocation in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # an uncaught error is a failed invocation, not a dead run
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


class Verdicts:
    """Counts checked invocations and failures; identical outputs are checked once."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.checker = Checker(load_reference())
        self.attempted = self.failed = 0
        self.max_value_err = 0.0
        self.messages: list[str] = []
        self._seen: dict[tuple, list[str]] = {}

    def record(self, invocation: str, result: tuple[int, str, str]) -> None:
        key = (invocation,) + result
        if key not in self._seen:
            argv = self.workload.argv(invocation, self.seed)
            problems, payload = self.checker.check(invocation, argv, *result)
            self._seen[key] = problems
            self.max_value_err = max(self.max_value_err, value_error(payload))
        self.attempted += 1
        if self._seen[key]:
            self.failed += 1
            if len(self.messages) < MAX_REPORTED:
                self.messages.append(f"{invocation}: {'; '.join(self._seen[key])}")

    def fail(self, message: str) -> None:
        """A whole-run check failed: counts as one more failed attempt."""
        self.attempted += 1
        self.failed += 1
        self.messages.append(message)


def run_list(cli, workload, seed, verdicts):
    """One pass over the workload; returns ({label: [(start, end)]}, outputs)."""
    intervals, outputs = {}, []
    for group in workload.groups:
        for _ in range(group.repeat):
            t0 = perf_counter()
            results = [invoke(cli, workload.argv(inv, seed)) for inv in group.invocations]
            intervals.setdefault(group.label, []).append((t0, perf_counter()))
            for inv, result in zip(group.invocations, results):
                verdicts.record(inv, result)
                outputs.append(result)
    return intervals, outputs


def measure(cli, workload, seed: int, seconds: float, verdicts) -> dict:
    """Timed passes until the next one would overrun `seconds` (at least
    MIN_PASSES). Group times are corrected for the core's slowdown."""
    intervals = {g.label: [] for g in workload.groups}
    first_outputs = None
    passes = 0
    with SpeedProbe() as probe:
        start = perf_counter()
        while True:
            t_pass = perf_counter()
            timings, outputs = run_list(cli, workload, seed, verdicts)
            for label, spans in timings.items():
                intervals[label].extend(spans)
            if first_outputs is None:
                first_outputs = outputs
            elif outputs != first_outputs:
                verdicts.fail(f"pass {passes + 1} output differs from pass 1")
            passes += 1
            now = perf_counter()
            if passes >= MIN_PASSES and (now - start) + (now - t_pass) > seconds:
                break
    raw = {label: [t1 - t0 - probe.busy_s(t0, t1) for t0, t1 in spans]
           for label, spans in intervals.items()}
    corrected = {label: [probe.corrected(t0, t1) for t0, t1 in spans]
                 for label, spans in intervals.items()}
    return {
        "passes": passes,
        "cmd_s": {label: statistics.median(v) for label, v in corrected.items()},
        "cmd_s_raw": {label: statistics.median(v) for label, v in raw.items()},
        "slowdown": statistics.median(probe.slowdowns),
    }


def traced_run(cli, workload, seed: int, verdicts) -> dict:
    """Untraced and traced passes, alternating: outputs must be byte-identical
    across all of them and the counts of the two traced passes must repeat
    exactly. Layer metrics come from the first traced pass; the tracing
    overhead compares pass times corrected for the core's slowdown."""
    import tracer

    tr = tracer.Tracer()
    plain, traced = [], []
    with SpeedProbe() as probe:

        def timed_pass():
            t0 = perf_counter()
            _, outputs = run_list(cli, workload, seed, verdicts)
            return probe.corrected(t0, perf_counter()), outputs

        for _ in range(2):
            plain.append(timed_pass())
            with tracer.installed(tr, altseq_modules()):
                traced.append(timed_pass() + (tr.take(),))
    reference_outputs = plain[0][1]
    if any(p[1] != reference_outputs for p in plain + traced):
        verdicts.fail("traced outputs differ from the untraced run")
    spans = traced[0][2]
    if tracer.counts(spans) != tracer.counts(traced[1][2]):
        verdicts.fail("counts of two traced passes differ")
    overhead = sum(t[0] for t in traced) / sum(p[0] for p in plain) - 1.0
    metrics, extra = tracer.layer_metrics(spans, overhead)
    trace_file = OUT_DIR / f"spans-{workload.name}-seed{seed}.json.gz"
    tracer.write_spans(trace_file, spans)
    return {"layers": metrics, "layer_detail": extra,
            "trace_file": str(trace_file.relative_to(ROOT))}


def main() -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    cap_threads()
    cli = import_cli()
    workload = WORKLOADS[args.workload]
    verdicts = Verdicts(workload, args.seed)
    if args.trace:
        result = traced_run(cli, workload, args.seed, verdicts)
    else:
        result = measure(cli, workload, args.seed, args.seconds, verdicts)
    import numpy

    result.update(
        workload=workload.name,
        seed=args.seed,
        cli_seed=workload.cli_seed(args.seed),
        attempted=verdicts.attempted,
        failed=verdicts.failed,
        failures=verdicts.messages,
        max_value_err=verdicts.max_value_err,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        nproc=NPROC,
        python=platform.python_version(),
        numpy=numpy.__version__,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
