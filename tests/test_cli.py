"""Front-end behavior: formats, exit codes, reproducible output."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from altseq.cli import emit_json, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_geometric_json_fields(capsys):
    code, out = run_cli(
        capsys, "geometric", "--rho", "0.9", "--grid", "1001", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "geometric"
    assert payload["config"] == {"rho": 0.9, "grid": 1001, "tol": 1e-10}
    assert payload["xi0_closed"] == pytest.approx(0.246870, abs=1e-6)
    assert payload["value_closed"] == pytest.approx(6.048500, abs=1e-6)
    assert abs(payload["value_numeric"] - payload["value_closed"]) < 5e-3
    assert abs(payload["xi0_numeric"] - payload["xi0_closed"]) < 2 / 1001
    assert payload["iterations"] > 0
    assert payload["residual"] < 1e-10
    assert "value_candidates" not in payload
    assert "error_bound" not in payload  # the default payload keeps its keys


def test_geometric_flat_regime_reports_both_candidates(capsys):
    code, out = run_cli(
        capsys, "geometric", "--rho", "0.5", "--grid", "1001", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    cands = payload["value_candidates"]
    assert cands["flat_form"] == pytest.approx(1.5, abs=1e-9)
    assert cands["threshold_form"] == pytest.approx(1.514719, abs=1e-6)
    assert abs(payload["value_numeric"] - 1.5) < 5e-3


def test_json_round_trip_is_byte_identical(capsys):
    _, out = run_cli(capsys, "geometric", "--rho", "0.8", "--grid", "501", "--json")
    assert emit_json(json.loads(out)) == out


def test_finite_verdict(capsys):
    code, out = run_cli(capsys, "finite", "--n", "100", "--grid", "1001", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["bracket_low"] == pytest.approx((2 - math.sqrt(2)) * 100)
    assert payload["bracket_high"] == pytest.approx(
        (2 - math.sqrt(2)) * 100 + 11 - 4 * math.sqrt(2)
    )
    assert payload["verdict"] == "IN"
    assert payload["bracket_low"] <= payload["value"] <= payload["bracket_high"]


def test_finite_dump_tables(tmp_path, capsys):
    path = tmp_path / "tables.csv"
    code, _ = run_cli(
        capsys, "finite", "--n", "3", "--grid", "51", "--dump-tables", str(path)
    )
    assert code == 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"stage", "y", "value", "threshold"}
    assert len(rows) == 3 * 51
    stages = {row["stage"] for row in rows}
    assert stages == {"1", "2", "3"}
    # spot rule: thresholds never fall below the state
    for row in rows:
        assert float(row["threshold"]) >= float(row["y"]) - 1e-12


def test_dump_tables_past_the_settled_stages(tmp_path, capsys):
    from altseq.finite import solve_finite

    argv = ["finite", "--n", "100", "--grid", "101", "--json"]
    path = tmp_path / "tables.csv"
    _, plain = run_cli(capsys, *argv)
    _, dumped = run_cli(capsys, *argv, "--dump-tables", str(path))
    assert json.loads(dumped)["value"] == json.loads(plain)["value"]
    sol = solve_finite(100, 101)
    assert len(sol.threshold_table) == 72  # stages 1-29 share its row 0
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100 * 101
    first = [f"{t:.9g}" for t in sol.threshold_table[0]]
    for i in range(1, 101):
        stage = rows[(i - 1) * 101 : i * 101]
        assert {row["stage"] for row in stage} == {str(i)}
        for column, curve in [("value", sol.value_row(i)),
                              ("threshold", sol.threshold_row(i))]:
            assert [row[column] for row in stage] == [f"{v:.9g}" for v in curve]
        if i <= 29:
            assert [row["threshold"] for row in stage] == first


def test_simulate_csv_schema(capsys):
    code, out = run_cli(
        capsys,
        "simulate", "--policy", "greedy", "--n", "500",
        "--reps", "100", "--seed", "7",
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 1
    row = rows[0]
    assert list(row) == [
        "policy", "horizon_kind", "horizon_param", "reps", "seed",
        "mean", "variance", "std_error", "rate",
    ]
    assert row["policy"] == "greedy"
    assert row["horizon_kind"] == "fixed"
    assert float(row["rate"]) == pytest.approx(
        float(row["mean"]) / 500, rel=1e-9
    )


def test_simulate_geometric_rate_normalization(capsys):
    code, out = run_cli(
        capsys,
        "simulate", "--policy", "geometric-optimal", "--rho", "0.8",
        "--reps", "2000", "--seed", "3", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    row = payload["result"]
    assert row["horizon_kind"] == "geometric"
    assert row["rate"] == pytest.approx(row["mean"] * 0.2, rel=1e-6)


def test_simulate_concat_needs_both_params(capsys):
    code, _ = run_cli(capsys, "simulate", "--policy", "concat", "--rho", "0.9")
    assert code == 2


def test_simulate_threshold_needs_xi(capsys):
    code, _ = run_cli(capsys, "simulate", "--policy", "threshold", "--n", "100")
    assert code == 2


def test_simulate_threshold_out_of_range_exits_2(capsys):
    argv = ["simulate", "--policy", "threshold", "--xi", "0.7", "--n", "10"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: fixed threshold must lie in [0, 1/2], got 0.7\n"
    )


def test_simulate_rejects_two_horizons(capsys):
    code, _ = run_cli(
        capsys, "simulate", "--policy", "greedy", "--n", "10", "--rho", "0.5"
    )
    assert code == 2


def test_simulate_finite_optimal_rejects_a_geometric_horizon(capsys):
    code = main(
        ["simulate", "--policy", "finite-optimal", "--n", "10", "--rho", "0.9"]
    )
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["finite-optimal", "--n", "9000", "--rho", "0.9"],
         "error: exactly one of n or rho must be given\n"),
        (["concat", "--rho", "1.5", "--n", "9000"],
         "error: discount factor must satisfy 0 < rho < 1, got 1.5\n"),
        (["finite-optimal", "--n", "9000", "--reps", "0"],
         "error: reps must be >= 1, got 0\n"),
        (["concat", "--rho", "0.9", "--n", "9000", "--seed", "-1"],
         "error: seed must fit in an unsigned 64-bit integer\n"),
    ],
    ids=["finite-optimal", "concat", "finite-optimal-reps", "concat-seed"],
)
def test_simulate_checks_the_horizon_before_solving(
    monkeypatch, capsys, argv, message
):
    import altseq.cli as cli

    def solve(*args, **kwargs):
        raise AssertionError("solved before the horizon check")

    monkeypatch.setattr(cli.finite, "solve_finite", solve)
    assert main(["simulate", "--policy", *argv]) == 2
    assert capsys.readouterr().err == message


def test_simulate_rejects_stray_xi(capsys):
    code, _ = run_cli(
        capsys, "simulate", "--policy", "greedy", "--n", "10", "--xi", "0.2"
    )
    assert code == 2


def test_compare_rows(capsys):
    code, out = run_cli(
        capsys, "compare", "--n", "400", "--reps", "80", "--seed", "11",
        "--grid", "501",
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    names = [row["policy"] for row in rows]
    assert names[0] == "greedy" and names[1] == "timid"
    assert names[2].startswith("threshold(")
    assert names[3] == "finite-optimal"
    rates = {row["policy"]: float(row["rate"]) for row in rows}
    assert rates["greedy"] == pytest.approx(0.5, abs=0.05)
    assert rates["finite-optimal"] >= rates["greedy"] - 0.02


def test_compare_notes_reduced_finite_horizon(capsys):
    code, out = run_cli(
        capsys, "compare", "--n", "1500", "--reps", "20", "--seed", "1",
        "--grid", "301", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["finite_optimal_n"] == 1000
    finite_row = payload["rows"][3]
    assert "reduced" in finite_row["policy"]
    assert finite_row["horizon_param"] == 1000


SIM_ROW_KEYS = [
    "policy", "horizon_kind", "horizon_param", "reps", "seed",
    "mean", "variance", "std_error", "rate",
]


@pytest.mark.parametrize(
    "argv, label, kind, param",
    [
        (["greedy", "--n", "20"], "greedy", "fixed", 20),
        (["timid", "--rho", "0.8"], "timid", "geometric", 0.8),
        (["geometric-optimal", "--rho", "0.8", "--n", "20"],
         "geometric-optimal(rho=0.8)", "fixed", 20),
        (["concat", "--rho", "0.8", "--n", "5"], "concat(n=5)", "geometric", 0.8),
        (["finite-optimal", "--n", "20"], "finite-optimal", "fixed", 20),
    ],
)
def test_simulate_config_describes_the_run(capsys, argv, label, kind, param):
    code, out = run_cli(
        capsys, "simulate", "--policy", *argv,
        "--reps", "30", "--seed", "4", "--grid", "101", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    config, row = payload["config"], payload["result"]
    # only the rules solved on the grid report it
    solved = {"grid": 101} if label.startswith(("concat", "finite-optimal")) else {}
    assert list(config) == SIM_ROW_KEYS[:5] + list(solved)
    assert list(row) == SIM_ROW_KEYS
    assert config == {**{key: row[key] for key in SIM_ROW_KEYS[:5]}, **solved}
    assert [config[key] for key in SIM_ROW_KEYS[:5]] == [label, kind, param, 30, 4]
    assert type(config["horizon_param"]) is type(param)


def test_compare_rows_describe_their_runs(capsys):
    code, out = run_cli(
        capsys, "compare", "--n", "20", "--reps", "30", "--seed", "4",
        "--grid", "101", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload["config"]) == ["n", "reps", "seed", "grid", "finite_optimal_n"]
    for row in payload["rows"]:
        assert list(row) == SIM_ROW_KEYS
        assert [row[key] for key in SIM_ROW_KEYS[1:5]] == ["fixed", 20, 30, 4]
        assert type(row["horizon_param"]) is int


def test_compare_runs_the_named_rules_as_simulate_does(capsys):
    run = ["--n", "30", "--reps", "200", "--seed", "9", "--json"]
    _, out = run_cli(capsys, "compare", *run)
    compared = json.loads(out)["rows"][:3]
    policies = [["greedy"], ["timid"], ["threshold", "--xi", "0.29289321881345254"]]
    for row, policy in zip(compared, policies, strict=True):
        _, out = run_cli(capsys, "simulate", "--policy", *policy, *run)
        simulated = json.loads(out)["result"]
        for key in ["mean", "variance", "std_error", "rate"]:
            assert row[key] == simulated[key], (policy[0], key)


def test_out_file_json(tmp_path, capsys):
    path = tmp_path / "result.json"
    code, out = run_cli(
        capsys, "geometric", "--rho", "0.7", "--grid", "301", "--out", str(path)
    )
    assert code == 0 and out == ""
    payload = json.loads(path.read_text())
    assert payload["rho"] == 0.7


def test_out_file_csv(tmp_path, capsys):
    path = tmp_path / "result.csv"
    code, _ = run_cli(
        capsys, "offline", "--n", "20", "--reps", "50", "--seed", "2",
        "--out", str(path),
    )
    assert code == 0
    rows = list(csv.reader(path.read_text().splitlines()))
    assert rows[0] == ["key", "value"]
    keys = {row[0] for row in rows[1:]}
    assert {"config.n", "config.reps", "config.seed", "mean"} <= keys


def test_out_extension_must_be_known(monkeypatch, tmp_path, capsys):
    import altseq.cli as cli

    def compute(*args, **kwargs):
        raise AssertionError("computed before the --out check")

    monkeypatch.setattr(cli.geometric, "solve_flipped", compute)
    monkeypatch.setattr(cli.montecarlo, "run_fixed_horizon", compute)
    path = tmp_path / "result.txt"
    code, _ = run_cli(
        capsys, "geometric", "--rho", "0.7", "--grid", "301", "--out", str(path)
    )
    assert code == 2
    code, _ = run_cli(
        capsys, "simulate", "--policy", "greedy", "--n", "5", "--out", str(path)
    )
    assert code == 2
    assert not path.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["geometric", "--rho", "0.9", "--grid", "101", "--out", "{missing}/x.json"],
        ["finite", "--n", "3", "--grid", "51", "--dump-tables", "{missing}/t.csv"],
    ],
    ids=["out", "dump-tables"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    missing = tmp_path / "missing"
    code = main([arg.format(missing=missing) for arg in argv])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_output_paths_are_checked_before_the_run(monkeypatch, tmp_path, capsys):
    import altseq.cli as cli

    def compute(*args, **kwargs):
        raise AssertionError("computed before the output paths were checked")

    monkeypatch.setattr(cli.montecarlo, "run_fixed_horizon", compute)
    monkeypatch.setattr(cli.finite, "solve_finite", compute)
    missing = tmp_path / "missing"
    argv = ["compare", "--n", "10000", "--reps", "200", "--out", f"{missing}/x.json"]
    assert main(argv) == 2
    tables = tmp_path / "t.csv"
    argv = ["finite", "--n", "3", "--dump-tables", str(tables)]
    assert main(argv + ["--out", f"{missing}/x.csv"]) == 2
    assert not tables.exists()
    assert capsys.readouterr().err.count("error: ") == 2


def test_one_file_for_out_and_dump_tables_exits_2(monkeypatch, tmp_path, capsys):
    import altseq.cli as cli

    def solve(*args, **kwargs):
        raise AssertionError("solved before the output paths were checked")

    monkeypatch.setattr(cli.finite, "solve_finite", solve)
    path = tmp_path / "x.csv"
    (tmp_path / "sub").mkdir()
    argv = ["finite", "--n", "3", "--grid", "11", "--dump-tables", str(path)]
    assert main(argv + ["--out", str(path)]) == 2
    assert not path.exists()
    path.write_bytes(b"stage,y\r\n1,0\n")
    assert main(argv + ["--out", str(tmp_path / "sub" / ".." / "x.csv")]) == 2
    assert path.read_bytes() == b"stage,y\r\n1,0\n"
    err = capsys.readouterr().err
    assert err.count("error: ") == 2
    assert "--out" in err and "--dump-tables" in err


def test_memory_error_exits_2_and_leaves_no_file(monkeypatch, tmp_path, capsys):
    import altseq.cli as cli

    def solve(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli.geometric, "solve_flipped", solve)
    path = tmp_path / "result.json"
    assert main(["geometric", "--rho", "0.9", "--out", str(path)]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 7.28 TiB\n"
    assert not path.exists()


def test_failed_run_leaves_output_files_as_they_were(tmp_path, capsys):
    new, kept = tmp_path / "new.json", tmp_path / "kept.json"
    kept.write_text("earlier result\n")
    for path in (new, kept):
        code = main(["geometric", "--rho", "0.9", "--tol", "0", "--out", str(path)])
        assert code == 2
    assert not new.exists()
    assert kept.read_text() == "earlier result\n"
    assert main(["geometric", "--rho", "0.9", "--grid", "101", "--out", str(kept)]) == 0
    assert json.loads(kept.read_text())["command"] == "geometric"


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_offline_out_of_range_seed_exits_2(capsys, seed):
    code = main(["offline", "--n", "10", "--reps", "5", "--seed", seed])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_offline_human_output_embeds_config(capsys):
    code, out = run_cli(capsys, "offline", "--n", "10", "--reps", "40", "--seed", "9")
    assert code == 0
    assert "config.n" in out and "config.seed" in out


def test_invalid_rho_exits_2(capsys):
    assert run_cli(capsys, "geometric", "--rho", "1.5")[0] == 2


def test_unknown_policy_exits_2(capsys):
    assert run_cli(capsys, "simulate", "--policy", "mystery", "--n", "5")[0] == 2


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


def test_a_one_command_parser_parses_that_command_alone(capsys):
    import altseq.cli as cli

    parser = cli.build_parser("geometric")
    assert parser.parse_args(["geometric", "--rho", "0.5"]).func is cli.cmd_geometric
    with pytest.raises(SystemExit):
        parser.parse_args(["finite", "--n", "5"])
    capsys.readouterr()


def test_main_builds_the_parser_of_its_command_only(monkeypatch, capsys):
    import altseq.cli as cli

    built, build = [], cli.build_parser

    def record(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", record)
    # argv None reads sys.argv, as the console script does
    monkeypatch.setattr(sys, "argv", ["altseq", "geometric", "--rho", "0.9", "--json"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["command"] == "geometric"
    assert main(["bogus"]) == 2 and main([]) == 2 and main(["--help"]) == 0
    assert built == ["geometric", "bogus", None, "--help"]


def test_nonconvergence_exits_3(monkeypatch, capsys):
    import altseq.cli as cli
    from altseq.geometric import ConvergenceError

    def boom(*args, **kwargs):
        raise ConvergenceError("no fixed point")

    monkeypatch.setattr(cli.geometric, "solve_flipped", boom)
    assert run_cli(capsys, "geometric", "--rho", "0.9")[0] == 3
    monkeypatch.undo()
    # the solver's own iteration cap, reached for real
    monkeypatch.setattr(cli.geometric, "_iteration_cap", lambda rho, tol: 3)
    assert run_cli(capsys, "geometric", "--rho", "0.9", "--grid", "101")[0] == 3


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "1e-15"])
def test_bad_tol_exits_2(capsys, tol):
    code = main(["geometric", "--rho", "0.9", "--tol", tol])
    assert code == 2
    assert "tol" in capsys.readouterr().err


def test_tol_above_every_update_takes_one_step(capsys):
    code, out = run_cli(capsys, "geometric", "--rho", "0.9", "--tol", "1e10", "--json")
    assert code == 0
    assert json.loads(out)["iterations"] == 1


def test_compare_checks_table_budget_first(monkeypatch, capsys):
    import altseq.cli as cli

    def allocate(*args, **kwargs):
        raise AssertionError("allocated before the budget check")

    monkeypatch.setattr(cli.montecarlo, "run_fixed_horizon", allocate)
    monkeypatch.setattr(cli.finite, "solve_finite", allocate)
    # the finite-optimal row is solved at n = 1000: 1001 x 20000 cells per table
    code = main(["compare", "--n", "5000", "--grid", "20000", "--reps", "10"])
    assert code == 2
    assert "too large" in capsys.readouterr().err


def test_compare_checks_the_grid_before_simulating(monkeypatch, capsys):
    import altseq.cli as cli

    def simulate(*args, **kwargs):
        raise AssertionError("simulated before the grid was checked")

    monkeypatch.setattr(cli.montecarlo, "run_fixed_horizon", simulate)
    code = main(["compare", "--n", "10000", "--reps", "200", "--grid", "2"])
    assert code == 2
    assert capsys.readouterr().err == "error: grid_size must be >= 3, got 2\n"


@pytest.mark.parametrize(
    "policy",
    [
        ["greedy", "--n", "5"],
        ["timid", "--n", "5"],
        ["threshold", "--xi", "0.2", "--n", "5"],
        ["geometric-optimal", "--rho", "0.9"],
        ["finite-optimal", "--n", "5"],
        ["concat", "--n", "5", "--rho", "0.9"],
    ],
    ids=lambda argv: argv[0],
)
def test_simulate_checks_the_grid_for_every_policy(capsys, policy):
    for grid in (1, 2):
        argv = ["simulate", "--policy", *policy, "--reps", "3", "--grid", str(grid)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: grid_size must be >= 3, got {grid}\n"


def test_simulate_checks_a_grid_it_does_not_read_without_building_it(monkeypatch):
    import altseq._bellman as bellman

    def build(grid_size):
        raise AssertionError(f"built a grid of {grid_size} points")

    monkeypatch.setattr(bellman, "uniform_grid", build)
    argv = ["simulate", "--policy", "greedy", "--n", "10", "--reps", "10"]
    tracemalloc.start()
    try:
        assert main([*argv, "--grid", "20000001"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**7  # the grid alone would be 160 MB


#: Runs every solver and runner once, then prints which test-only packages
#: the process loaded.
_RUNTIME_PROBE = """
import sys
from altseq.cli import main
for argv in [
    ["geometric", "--rho", "0.9", "--grid", "101"],
    ["finite", "--n", "5", "--grid", "101"],
    ["offline", "--n", "10", "--reps", "20"],
    ["simulate", "--policy", "concat", "--rho", "0.9", "--n", "5",
     "--reps", "20", "--grid", "101"],
    ["compare", "--n", "10", "--reps", "20", "--grid", "101"],
]:
    assert main(argv) == 0, argv
print(sorted({"scipy", "hypothesis", "pytest"} & set(sys.modules)))
"""


def _last_line_of_fresh_run(probe: str) -> str:
    """Runs probe in a fresh interpreter that imports altseq from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_the_runtime_needs_only_numpy():
    assert _last_line_of_fresh_run(_RUNTIME_PROBE) == "[]"


#: Imports the CLI and runs the two solver commands, then prints the
#: numpy.random modules they loaded beyond those numpy itself imports.
_SOLVER_PROBE = """
import sys
import numpy
before = {m for m in sys.modules if m.startswith("numpy.random")}
from altseq.cli import main
for argv in [
    ["geometric", "--rho", "0.9", "--grid", "101"],
    ["finite", "--n", "5", "--grid", "101"],
]:
    assert main(argv) == 0, argv
print(sorted({m for m in sys.modules if m.startswith("numpy.random")} - before))
"""


def test_the_solvers_never_import_numpy_random():
    # importing numpy.random costs about 6 MB of peak memory and tens of
    # milliseconds of start-up; only the commands that draw may pay for it
    assert _last_line_of_fresh_run(_SOLVER_PROBE) == "[]"
