"""Tests of the benchmark itself: its contract file, its output checks and
its tracing. Run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from probe import import_cli  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402
from worker import Verdicts, altseq_modules, invoke  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def cli():
    return import_cli()


def test_benchmark_json_meets_its_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert END_TO_END["setup_s"][2] == max(b for _, _, b in END_TO_END.values())
    # 4 + 22 runs per workload, each about run_seconds plus set-up, must fit the budget
    assert (4 + 22 * len(WORKLOADS)) * (spec["run_seconds"] + 12) < 3420


def test_closed_forms_match_the_paper():
    assert checks.xi0(0.9) == pytest.approx(0.246870, abs=1e-6)
    assert checks.geometric_value(0.9) == pytest.approx(6.048500, abs=1e-6)
    assert checks.geometric_value(0.5) == 1.5  # flat regime
    assert checks.offline_moments(10) == pytest.approx((6.8333333, 1.7055556))


def test_corrupted_output_raises_failed_frac(cli):
    solve = WORKLOADS["solve"]
    verdicts = Verdicts(solve, seed=0)
    inv = "geometric --rho 0.5"
    rc, out, err = invoke(cli, solve.argv(inv, 0))
    verdicts.record(inv, (rc, out, err))
    assert (verdicts.attempted, verdicts.failed) == (1, 0)
    payload = json.loads(out)
    assert checks.value_error(payload) == pytest.approx(5e-8, abs=1e-9)

    payload["value_numeric"] += 1e-6
    verdicts.record(inv, (rc, json.dumps(payload), err))
    assert verdicts.failed / verdicts.attempted == 0.5
    verdicts.record(inv, (3, "", "error: did not converge"))
    assert verdicts.failed / verdicts.attempted == pytest.approx(2 / 3)


def test_changed_monte_carlo_mean_fails_at_a_recorded_seed(cli):
    wide = WORKLOADS["fixed_wide"]
    inv = "offline --n 10 --reps 10000"
    rc, out, err = invoke(cli, wide.argv(inv, 0))
    checker = checks.Checker(checks.load_reference())
    assert checker.check(inv, wide.argv(inv, 0), rc, out, err)[0] == []
    payload = json.loads(out)
    # one unit in the last printed digit: still within 4 SE, but not the recorded stream
    payload["mean"] = float(f"{payload['mean'] + 1e-5:.9g}")
    payload["rate"] = payload["mean"] / 10
    problems, _ = checker.check(inv, wide.argv(inv, 0), rc, json.dumps(payload), err)
    assert len(problems) == 1 and "recorded" in problems[0]


def test_paper_checks_apply_at_unrecorded_seeds():
    checker = checks.Checker({"monte_carlo": {}, "solver": {}, "dp_value": {}})
    n, reps = 10, 50000
    mean, var = checks.offline_moments(n)
    se = math.sqrt(var / reps)
    argv = ["offline", "--n", str(n), "--reps", str(reps), "--seed", "123456", "--json"]

    def output(m):
        return json.dumps({
            "command": "offline", "config": {"n": n, "reps": reps, "seed": 123456},
            "mean": m, "variance": var, "std_error": se, "rate": m / n,
            "mean_formula": mean, "variance_formula": var,
        })

    assert checker.check("offline", argv, 0, output(mean + 3 * se), "")[0] == []
    assert checker.check("offline", argv, 0, output(mean + 5 * se), "")[0] != []


SMALL = [
    ["compare", "--n", "12", "--reps", "300", "--seed", "5", "--json"],
    ["offline", "--n", "20", "--reps", "100", "--seed", "5", "--json"],
    ["simulate", "--policy", "concat", "--rho", "0.9", "--n", "10", "--reps", "256",
     "--seed", "5", "--json"],
    ["geometric", "--rho", "0.75", "--json"],
]


def test_traced_outputs_are_identical_and_counts_repeat(cli):
    plain = [invoke(cli, argv) for argv in SMALL]
    original = cli.main
    tr = tracer.Tracer()
    runs = []
    with tracer.installed(tr, altseq_modules()):
        for _ in range(2):
            runs.append(([invoke(cli, argv) for argv in SMALL], tr.take()))
    assert cli.main is original
    assert runs[0][0] == runs[1][0] == plain
    counts = tracer.counts(runs[0][1])
    assert counts == tracer.counts(runs[1][1])

    geo = json.loads(plain[3][1])
    assert counts["montecarlo.replicate_rng.calls"] == 4 * 300 + 100 + 256
    assert counts["montecarlo.chunks"] == 4 + 1
    # compare: 4 policies x 300 x 12 cells; concat: one horizon plus one value per live cell
    live = counts["policies.live_cells"] - 4 * 300 * 12
    assert 0 < live < counts["policies.cells"] - 4 * 300 * 12
    assert counts["montecarlo.draws"] == 4 * 300 * 12 + 100 * 20 + 256 + live
    assert counts["sequence.elements"] == 100 * 20
    assert counts["geometric.iterations"] == geo["iterations"]
    assert counts["geometric.iterations_by_rho"] == {"rho0.75": geo["iterations"]}
    assert counts["bellman.apply_flipped.calls"] == geo["iterations"] + 12 + 10
    assert counts["finite.table_bytes"] == (3 * 12 + 2) * 2001 * 8

    metrics, _ = tracer.layer_metrics(runs[0][1], 0.0)
    assert set(PER_LAYER) <= set(metrics)
    assert 0 < metrics["policies.useful_ratio"] < 1
    assert 0 < metrics["cli.self.s"] < metrics["cli.main.s"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_probe_combines_the_samples_inside_an_interval():
    probe = speed.SpeedProbe()
    probe.times = [0.0, 1.0, 2.0, 3.0]
    probe.slowdowns = [1.0, 2.0, 4.0, 8.0]
    probe.busy = [0.1, 0.2, 0.3, 0.4]
    assert probe.slowdown(0.5, 2.5) == pytest.approx(2 / (1 / 2 + 1 / 4))
    assert probe.slowdown(1.2, 1.3) == pytest.approx(2 / (1 / 2 + 1 / 4))  # the neighbours
    assert probe.slowdown(9.0, 9.5) == pytest.approx(8.0)
    assert probe.busy_s(0.5, 2.5) == pytest.approx(0.2)
    assert probe.busy_s(1.2, 1.3) == 0.0
    assert probe.corrected(0.5, 2.5) == pytest.approx((2.0 - 0.2) / (8 / 3))
    with probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
        t1 = time.perf_counter()
    assert len(probe.slowdowns) >= 8 and probe.slowdown(t0, t1) > 0
    assert 0 < probe.busy_s(t0, t1) < 0.1
