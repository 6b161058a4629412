"""Traced runs: spans around the calls into each ``altseq`` layer.

The wrappers live here, in the benchmark, and are installed by rebinding
module and class attributes, so ``src/`` carries no tracing code. Each span
records (name, start, end, parent index, payload); the payload holds counts
taken from the call's arguments (and, for solvers, its result), never from
timing, so two traced runs of the same code give exactly equal counts.

Spans stay in memory during a run and are written out when it ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name, fn, payload=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1], None]
            stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if payload is not None:
                record[4] = payload(args, kwargs, result)
            return result

        return traced


def _bound(fn, extract):
    """Payload from the call's arguments bound to fn's signature."""
    signature = inspect.signature(fn)

    def payload(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return extract(bound.arguments, result)

    return payload


def _step_payload(args, kwargs, result):
    # step_batch(self, batch, i, x, active=None): (step index, cells, live cells)
    i, x = args[2], args[3]
    active = args[4] if len(args) > 4 else kwargs.get("active")
    live = x.size if active is None else int(np.count_nonzero(active))
    return (i, x.size, live)


def targets(altseq_modules):
    """(owner, attribute, span name, payload) for every traced boundary."""
    cli, montecarlo, policies, bellman, geometric, finite = altseq_modules
    return [
        (cli, "main", "cli.main", None),
        (montecarlo, "replicate_rng", "montecarlo.replicate_rng", None),
        (montecarlo, "run_fixed_horizon", "montecarlo.run_fixed_horizon",
         _bound(montecarlo.run_fixed_horizon,
                lambda a, r: ("fixed", a["cfg"].reps, a["cfg"].n))),
        (montecarlo, "run_geometric_horizon", "montecarlo.run_geometric_horizon",
         _bound(montecarlo.run_geometric_horizon,
                lambda a, r: ("geometric", a["cfg"].reps, 0))),
        (montecarlo, "run_offline", "montecarlo.run_offline",
         _bound(montecarlo.run_offline, lambda a, r: ("offline", a["reps"], a["n"]))),
        (montecarlo, "longest_alternating", "sequence.longest_alternating",
         lambda args, kwargs, r: len(args[0])),
        (policies.Policy, "step_batch", "policies.step_batch", _step_payload),
        (policies.ConcatenatedPolicy, "step_batch", "policies.step_batch", _step_payload),
        (policies.Policy, "new_batch", "policies.new_batch",
         lambda args, kwargs, r: args[1]),
        (policies.ConcatenatedPolicy, "new_batch", "policies.new_batch",
         lambda args, kwargs, r: args[1]),
        (bellman, "apply_flipped", "bellman.apply_flipped", None),
        (bellman, "threshold_curve", "bellman.threshold_curve", None),
        (geometric, "solve_flipped", "geometric.solve_flipped",
         _bound(geometric.solve_flipped, lambda a, r: (a["rho"], r.residual))),
        (finite, "solve_finite", "finite.solve_finite",
         _bound(finite.solve_finite, lambda a, r: (a["n"], a["grid_size"]))),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, altseq_modules):
    """Rebind every traced boundary to its wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, name, payload in targets(altseq_modules):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, payload))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def counts(spans) -> dict:
    """Work counts derived from the spans' payloads; no timing enters."""
    calls = defaultdict(int)
    cells = live = elements = draws = 0
    rows = peak_chunk_bytes = 0
    geometric_draws = defaultdict(int)
    iterations = defaultdict(int)
    residual = error_bound = 0.0
    table_bytes = 0
    solver_spans = {}
    for idx, (name, _, _, parent, payload) in enumerate(spans):
        calls[name] += 1
        if name == "policies.new_batch":
            rows = payload
        elif name == "policies.step_batch":
            i, size, n_live = payload
            cells += size
            live += n_live
            geometric_draws[parent] += n_live
            # a chunk's matrix holds one float64 column per step
            peak_chunk_bytes = max(peak_chunk_bytes, rows * i * 8)
        elif name.startswith("montecarlo.run_"):
            kind, reps, n = payload
            draws += reps * n if kind != "geometric" else reps
        elif name == "sequence.longest_alternating":
            elements += payload
        elif name == "geometric.solve_flipped":
            rho, res = payload
            solver_spans[idx] = rho
            residual = max(residual, res)
            error_bound = max(error_bound, rho / (1.0 - rho) * res)
        elif name == "bellman.apply_flipped" and parent in solver_spans:
            iterations[f"rho{solver_spans[parent]:g}"] += 1
        elif name == "finite.solve_finite":
            n, grid = payload
            # remaining, value and threshold tables: (n+1) + (n+1) + n rows
            table_bytes = max(table_bytes, (3 * n + 2) * grid * 8)
    # a geometric run draws one horizon per replicate, then one value per live cell
    draws += sum(
        n_live for parent, n_live in geometric_draws.items()
        if parent >= 0 and spans[parent][0] == "montecarlo.run_geometric_horizon"
    )
    return {
        "montecarlo.replicate_rng.calls": calls["montecarlo.replicate_rng"],
        "montecarlo.chunks": calls["policies.new_batch"],
        "montecarlo.peak_chunk_bytes": peak_chunk_bytes,
        "montecarlo.draws": draws,
        "policies.step_batch.calls": calls["policies.step_batch"],
        "policies.cells": cells,
        "policies.live_cells": live,
        "sequence.longest_alternating.calls": calls["sequence.longest_alternating"],
        "sequence.elements": elements,
        "bellman.apply_flipped.calls": calls["bellman.apply_flipped"],
        "bellman.threshold_curve.calls": calls["bellman.threshold_curve"],
        "geometric.iterations": sum(iterations.values()),
        "geometric.iterations_by_rho": dict(iterations),
        "geometric.residual": residual,
        "geometric.error_bound": error_bound,
        "finite.table_bytes": table_bytes,
    }


def times(spans) -> dict:
    """Busy and self seconds per span name; self excludes traced children."""
    busy = defaultdict(float)
    own = defaultdict(float)
    child = [0.0] * len(spans)
    for idx, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
    for idx, (name, start, end, _, _) in enumerate(spans):
        busy[name] += end - start
        own[name] += end - start - child[idx]
    return {"busy": busy, "self": own}


def layer_metrics(spans, overhead_frac: float) -> tuple[dict, dict]:
    """(per-layer metrics, extra seconds under the layers' own names)."""
    c = counts(spans)
    t = times(spans)
    busy, own = t["busy"], t["self"]
    main = busy["cli.main"]
    runs = [n for n in busy if n.startswith("montecarlo.run_")]
    seconds = {
        "montecarlo.replicate_rng.s": busy["montecarlo.replicate_rng"],
        "montecarlo.run.s": sum((busy[n] for n in runs), 0.0),
        "montecarlo.self.s": sum((own[n] for n in runs), 0.0),
        "policies.step_batch.s": busy["policies.step_batch"],
        "sequence.longest_alternating.s": busy["sequence.longest_alternating"],
        "geometric.solve_flipped.s": busy["geometric.solve_flipped"],
        "geometric.self.s": own["geometric.solve_flipped"],
    }
    extra = dict(seconds)
    extra["policies.ns_per_cell"] = _ratio(1e9 * busy["policies.step_batch"], c["policies.cells"])
    extra["sequence.ns_per_element"] = _ratio(
        1e9 * busy["sequence.longest_alternating"], c["sequence.elements"]
    )
    extra["geometric.iterations_by_rho"] = c["geometric.iterations_by_rho"]
    metrics = {
        "cli.main.s": main,
        "cli.self.s": own["cli.main"],
        "bellman.apply_flipped.s": busy["bellman.apply_flipped"],
        "bellman.apply_flipped.us_per_call": _ratio(
            1e6 * busy["bellman.apply_flipped"], c["bellman.apply_flipped.calls"]
        ),
        "bellman.threshold_curve.s": busy["bellman.threshold_curve"],
        "finite.solve_finite.s": busy["finite.solve_finite"],
        "finite.self.s": own["finite.solve_finite"],
        "policies.useful_ratio": _ratio(c["policies.live_cells"], c["policies.cells"]),
        "trace.overhead_frac": overhead_frac,
    }
    for name, value in seconds.items():
        metrics[name[: -len(".s")] + ".share"] = _ratio(value, main)
    for name, value in c.items():
        if name not in ("policies.live_cells", "geometric.iterations_by_rho"):
            metrics[name] = value
    return metrics, extra


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def write_spans(path: Path, spans) -> None:
    """Spans as {"names": [...], "spans": [[name idx, start, end, parent, payload]]}."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    base = spans[0][1] if spans else 0.0
    rows = [
        [index[n], round(s - base, 9), round(e - base, 9), p, payload]
        for n, s, e, p, payload in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))
