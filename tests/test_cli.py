"""Front-end behavior: formats, exit codes, reproducible output."""

import csv
import json
import math

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


def test_simulate_rejects_two_horizons(capsys):
    code, _ = run_cli(
        capsys, "simulate", "--policy", "greedy", "--n", "10", "--rho", "0.5"
    )
    assert code == 2


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
    assert list(config) == SIM_ROW_KEYS[:5] + ["grid"]
    assert list(row) == SIM_ROW_KEYS
    assert config == {**{key: row[key] for key in SIM_ROW_KEYS[:5]}, "grid": 101}
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
