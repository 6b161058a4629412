"""The benchmark's workloads and metric names.

``BENCHMARK.json`` at the root of the checkout names the workloads, says
why each is there, and defines every metric with its unit, direction and
bound; this module reads them from it and keeps what the file cannot hold:
the invocations of each workload.

A workload is a list of invocation groups; each group is one or more real
``altseq`` command lines, run in-process through ``altseq.cli.main`` with
``--json`` appended (and ``--seed <seed>`` for Monte Carlo workloads). A
group's wall time is reported as ``cmd_s.<label>``.

Every workload sits on one side of a code path that a planned change would
choose from the input: the solver by rho, the stream generator by horizon
length, the simulation runner by horizon kind. Each such change therefore
has a workload that exercises it and one that bypasses it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
RUN_SECONDS = SPEC["run_seconds"]
#: End-to-end metrics, measured with tracing off, reported on every workload:
#: name -> (unit, better, bound as a share of the parent's median).
END_TO_END = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]}
#: Per-layer metrics of the traced run: name -> (unit, better). Times of
#: layers that a workload may not reach at all are given as shares of the
#: traced ``cli.main`` time, so that no time reads 0 on every run; their
#: seconds are in the run's detail line. Layer ``_bellman`` is spelt
#: ``bellman`` because a metric name must start with a letter.
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}


@dataclass(frozen=True)
class Group:
    label: str
    invocations: tuple[str, ...]
    #: Times the group runs per timed pass. Groups far shorter than the rest
    #: of their workload repeat so that their median is steady.
    repeat: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    seeded: bool
    groups: tuple[Group, ...]
    #: Seed given to the CLI in place of the run's seed, for a workload whose
    #: cost would otherwise change with the seed.
    fixed_seed: Optional[int] = None

    def cli_seed(self, seed: int) -> Optional[int]:
        if not self.seeded:
            return None
        return seed if self.fixed_seed is None else self.fixed_seed

    def argv(self, invocation: str, seed: int) -> list[str]:
        args = invocation.split()
        if self.seeded:
            args += ["--seed", str(self.cli_seed(seed))]
        return args + ["--json"]

    def invocations(self) -> list[tuple[str, str]]:
        """(group label, invocation) for one run of the list, in order."""
        return [(g.label, inv) for g in self.groups for inv in g.invocations]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "solve",
            seeded=False,
            groups=(
                Group(
                    "geometric-low",
                    (
                        "geometric --rho 0.5",
                        "geometric --rho 0.75",
                        "geometric --rho 0.9",
                    ),
                    repeat=5,
                ),
                Group("geometric-rho0.99", ("geometric --rho 0.99",)),
                Group("geometric-rho0.999", ("geometric --rho 0.999",)),
                Group("finite-n1000", ("finite --n 1000",)),
            ),
        ),
        Workload(
            "fixed_wide",
            seeded=True,
            # 50,000 replicates per pass and command, in five invocations so
            # that each run holds enough samples for a steady median.
            groups=(
                Group("compare", ("compare --n 10 --reps 10000",), repeat=5),
                Group("offline", ("offline --n 10 --reps 10000",), repeat=5),
            ),
        ),
        Workload(
            "fixed_long",
            seeded=True,
            groups=(
                Group("compare", ("compare --n 10000 --reps 200",)),
                Group("offline", ("offline --n 10000 --reps 200",)),
            ),
        ),
        Workload(
            "geometric_ragged",
            seeded=True,
            # 4096 replicates per invocation, twice per pass, so that a run
            # holds six or more samples of each command.
            groups=(
                Group(
                    "simulate-geometric-optimal",
                    ("simulate --policy geometric-optimal --rho 0.999 --reps 4096",),
                    repeat=2,
                ),
                Group(
                    "simulate-concat",
                    ("simulate --policy concat --rho 0.999 --n 50 --reps 4096",),
                    repeat=2,
                ),
            ),
            # The padded chunk, and so the run's time and peak RSS, scale with
            # the largest of the chunk's geometric horizons, whose interquartile
            # range is 16-22% of its median across seeds: more than any bound
            # allows. At seed 42 the largest of 4096 horizons is 8003 and
            # 12.8% of the stepped cells are live.
            fixed_seed=42,
        ),
    )
}
