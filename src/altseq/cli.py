"""Command-line front end: solve, simulate, compare, emit CSV/JSON.

Exit codes: 0 success, 2 invalid arguments, 3 solver non-convergence.
JSON output rounds every float to 9 significant digits with a stable key
order, so re-parsing and re-emitting a result is byte-identical. CSV output
uses the schema policy,horizon_kind,horizon_param,reps,seed,mean,variance,
std_error,rate for simulation rows (rate is mean/n for fixed horizons and
mean*(1-rho) for geometric ones), stage,y,value,threshold for table dumps,
and key,value pairs for solver reports.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from . import finite, geometric, montecarlo
from ._bellman import DEFAULT_GRID, DEFAULT_TOL, SQRT2
from .policies import PolicyKind, PolicySpec
from .sequence import permutation_moments

DEFAULT_REPS = 100_000
DEFAULT_SEED = 42

#: compare solves the finite-optimal policy at most at this horizon; larger
#: requested horizons are simulated at the cap and flagged in the output.
FINITE_COMPARE_CAP = 1000


def _round9(obj):
    """Round floats to 9 significant digits, recursively; idempotent."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def emit_json(payload: dict) -> str:
    return json.dumps(_round9(payload), indent=2) + "\n"


def _flatten(payload: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows = []
    for key, value in payload.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for idx, item in enumerate(value):
                rows.extend(_flatten(item, prefix=f"{name}[{idx}]."))
        else:
            rows.append((name, value))
    return rows


def emit_keyvalue_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in _flatten(_round9(payload)):
        writer.writerow([key, value])
    return buf.getvalue()


SIM_CSV_HEADER = [
    "policy",
    "horizon_kind",
    "horizon_param",
    "reps",
    "seed",
    "mean",
    "variance",
    "std_error",
    "rate",
]


def emit_rows_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=SIM_CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _round9(row[k]) for k in SIM_CSV_HEADER})
    return buf.getvalue()


def _write_output(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _human_lines(payload: dict) -> str:
    rows = _flatten(_round9(payload))
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k:<{width}}  {v}\n" for k, v in rows)


def _deliver(payload: dict, args) -> None:
    """Route a key/value style result per --json and --out."""
    if args.out:
        if args.out.endswith(".json"):
            _write_output(emit_json(payload), args.out)
        elif args.out.endswith(".csv"):
            _write_output(emit_keyvalue_csv(payload), args.out)
        else:
            raise ValueError(f"--out must end in .json or .csv, got {args.out!r}")
    elif args.json:
        sys.stdout.write(emit_json(payload))
    else:
        sys.stdout.write(_human_lines(payload))


def _deliver_rows(payload: dict, rows: list[dict], args) -> None:
    """Route simulation rows: CSV keeps the fixed schema, JSON nests them."""
    if args.out:
        if args.out.endswith(".json"):
            _write_output(emit_json(payload), args.out)
        elif args.out.endswith(".csv"):
            _write_output(emit_rows_csv(rows), args.out)
        else:
            raise ValueError(f"--out must end in .json or .csv, got {args.out!r}")
    elif args.json:
        sys.stdout.write(emit_json(payload))
    else:
        sys.stdout.write(emit_rows_csv(rows))


def _rate(mean: float, horizon_kind: str, horizon_param: float) -> float:
    if horizon_kind == "fixed":
        return mean / horizon_param
    return mean * (1.0 - horizon_param)


def _sim_row(name, horizon_kind, horizon_param, reps, seed, result) -> dict:
    return {
        "policy": name,
        "horizon_kind": horizon_kind,
        "horizon_param": horizon_param,
        "reps": reps,
        "seed": seed,
        "mean": result.mean,
        "variance": result.variance,
        "std_error": result.std_error,
        "rate": _rate(result.mean, horizon_kind, horizon_param),
    }


def cmd_offline(args) -> int:
    result = montecarlo.run_offline(args.n, args.reps, args.seed)
    payload = {
        "command": "offline",
        "config": {"n": args.n, "reps": args.reps, "seed": args.seed},
        "mean": result.mean,
        "variance": result.variance,
        "std_error": result.std_error,
        "rate": result.mean / args.n,
    }
    if args.n >= 4:
        mean_formula, var_formula = permutation_moments(args.n)
        payload["mean_formula"] = mean_formula
        payload["variance_formula"] = var_formula
    _deliver(payload, args)
    return 0


def cmd_geometric(args) -> int:
    grid = geometric.solve_flipped(args.rho, args.grid, args.tol)
    xi_closed = geometric.xi0_closed(args.rho)
    payload = {
        "command": "geometric",
        "config": {
            "rho": args.rho,
            "grid": args.grid,
            "tol": args.tol,
        },
        "rho": args.rho,
        "xi0_closed": xi_closed,
        "xi0_numeric": grid.xi_estimate,
        "value_closed": geometric.value_closed(args.rho),
        "value_numeric": float(grid.values[0]),
        "residual": grid.residual,
        "iterations": grid.iterations,
    }
    if xi_closed == 0.0:
        # Below rho = 2 - sqrt(2) the two closed-form candidates differ; the
        # numeric value adjudicates, the report takes no side.
        payload["value_candidates"] = {
            "threshold_form": geometric.value_threshold_form(args.rho),
            "flat_form": geometric.value_flat_form(args.rho),
        }
    _deliver(payload, args)
    return 0


def cmd_finite(args) -> int:
    _check_table_budget(args.n, args.grid)
    sol = finite.solve_finite(args.n, args.grid)
    value = float(sol.value_table[0, 0])
    lower = (2.0 - SQRT2) * args.n
    upper = lower + 11.0 - 4.0 * SQRT2
    payload = {
        "command": "finite",
        "config": {"n": args.n, "grid": args.grid},
        "n": args.n,
        "value": value,
        "bracket_low": lower,
        "bracket_high": upper,
        "verdict": "IN" if lower <= value <= upper else "OUT",
    }
    if args.dump_tables:
        _dump_tables(sol, args.dump_tables)
        payload["tables"] = args.dump_tables
    _deliver(payload, args)
    return 0


def _dump_tables(sol, path: str) -> None:
    with open(path, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["stage", "y", "value", "threshold"])
        for i in range(1, sol.n + 1):
            values = sol.value_table[i - 1]
            thresholds = sol.threshold_table[i - 1]
            for y, v, t in zip(sol.ys, values, thresholds):
                writer.writerow(
                    [i, f"{y:.9g}", f"{v:.9g}", f"{t:.9g}"]
                )


def _check_table_budget(n: int, grid: int) -> None:
    # two (n+1) x grid float tables; refuse silly allocations up front
    if (n + 1) * grid > 20_000_000:
        raise ValueError(
            f"solution tables for n={n} at grid={grid} would be too large; "
            "reduce --n or --grid"
        )


def _build_spec(args) -> tuple[PolicySpec, str, float, str]:
    """Resolve --policy plus flags into (spec, horizon_kind, param, name)."""
    name = args.policy
    if args.xi is not None and name != "threshold":
        raise ValueError(f"--xi only applies to --policy threshold, not {name}")
    if name == "concat":
        if args.rho is None or args.n is None:
            raise ValueError(
                "concat needs --rho (horizon) and --n (block solution horizon)"
            )
        _check_table_budget(args.n, args.grid)
        sol = finite.solve_finite(args.n, args.grid)
        return (
            PolicySpec(PolicyKind.CONCATENATED, finite=sol),
            "geometric",
            args.rho,
            f"concat(n={args.n})",
        )
    if name == "geometric-optimal":
        if args.rho is None:
            raise ValueError("geometric-optimal needs --rho")
        spec = PolicySpec(PolicyKind.GEOMETRIC_OPTIMAL, rho=args.rho)
        if args.n is not None:
            return spec, "fixed", args.n, f"geometric-optimal(rho={args.rho})"
        return spec, "geometric", args.rho, f"geometric-optimal(rho={args.rho})"
    if name == "finite-optimal":
        if args.n is None or args.rho is not None:
            raise ValueError("finite-optimal needs --n and runs on fixed horizons")
        _check_table_budget(args.n, args.grid)
        sol = finite.solve_finite(args.n, args.grid)
        spec = PolicySpec(PolicyKind.FINITE_OPTIMAL, finite=sol)
        return spec, "fixed", args.n, "finite-optimal"
    if name == "threshold":
        if args.xi is None:
            raise ValueError("threshold needs --xi")
        xi = args.xi
        label = f"threshold({xi:g})"
    elif name == "greedy":
        xi, label = 0.0, "greedy"
    elif name == "timid":
        xi, label = 0.5, "timid"
    else:
        raise ValueError(f"unknown policy {name!r}")
    spec = PolicySpec(PolicyKind.FIXED_THRESHOLD, xi=xi)
    if (args.n is None) == (args.rho is None):
        raise ValueError("give exactly one horizon: --n or --rho")
    if args.n is not None:
        return spec, "fixed", args.n, label
    return spec, "geometric", args.rho, label


def cmd_simulate(args) -> int:
    spec, horizon_kind, horizon_param, label = _build_spec(args)
    if horizon_kind == "fixed":
        cfg = montecarlo.SimulationConfig(
            reps=args.reps, seed=args.seed, policy=spec, n=int(horizon_param)
        )
        result = montecarlo.run_fixed_horizon(cfg)
    else:
        cfg = montecarlo.SimulationConfig(
            reps=args.reps, seed=args.seed, policy=spec, rho=horizon_param
        )
        result = montecarlo.run_geometric_horizon(cfg)
    row = _sim_row(label, horizon_kind, horizon_param, args.reps, args.seed, result)
    payload = {
        "command": "simulate",
        "config": {
            "policy": label,
            "horizon_kind": horizon_kind,
            "horizon_param": horizon_param,
            "reps": args.reps,
            "seed": args.seed,
            "grid": args.grid,
        },
        "result": row,
    }
    _deliver_rows(payload, [row], args)
    return 0


def cmd_compare(args) -> int:
    n_finite = min(args.n, FINITE_COMPARE_CAP)
    _check_table_budget(n_finite, args.grid)
    rows = []
    xi_star = 1.0 - 1.0 / SQRT2
    for label, xi in [
        ("greedy", 0.0),
        ("timid", 0.5),
        (f"threshold({xi_star:.6f})", xi_star),
    ]:
        cfg = montecarlo.SimulationConfig(
            reps=args.reps,
            seed=args.seed,
            policy=PolicySpec(PolicyKind.FIXED_THRESHOLD, xi=xi),
            n=args.n,
        )
        result = montecarlo.run_fixed_horizon(cfg)
        rows.append(_sim_row(label, "fixed", args.n, args.reps, args.seed, result))
    sol = finite.solve_finite(n_finite, args.grid)
    cfg = montecarlo.SimulationConfig(
        reps=args.reps,
        seed=args.seed,
        policy=PolicySpec(PolicyKind.FINITE_OPTIMAL, finite=sol),
        n=n_finite,
    )
    result = montecarlo.run_fixed_horizon(cfg)
    finite_label = "finite-optimal" if n_finite == args.n else (
        f"finite-optimal(reduced n={n_finite})"
    )
    rows.append(_sim_row(finite_label, "fixed", n_finite, args.reps, args.seed, result))
    payload = {
        "command": "compare",
        "config": {
            "n": args.n,
            "reps": args.reps,
            "seed": args.seed,
            "grid": args.grid,
            "finite_optimal_n": n_finite,
        },
        "rows": rows,
    }
    _deliver_rows(payload, rows, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altseq",
        description="On-line alternating-subsequence selection: solvers and simulators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, grid=True, reps=False):
        if grid:
            p.add_argument("--grid", type=int, default=DEFAULT_GRID)
        if reps:
            p.add_argument("--reps", type=int, default=DEFAULT_REPS)
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("offline", help="offline statistic moments by simulation")
    p.add_argument("--n", type=int, required=True)
    add_common(p, grid=False, reps=True)
    p.set_defaults(func=cmd_offline)

    p = sub.add_parser("geometric", help="solve the geometric-horizon problem")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    add_common(p, reps=False)
    p.set_defaults(func=cmd_geometric)

    p = sub.add_parser("finite", help="solve the fixed-horizon problem")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dump-tables", type=str, default=None)
    add_common(p, reps=False)
    p.set_defaults(func=cmd_finite)

    p = sub.add_parser("simulate", help="Monte Carlo evaluation of one policy")
    p.add_argument(
        "--policy",
        required=True,
        choices=["greedy", "timid", "threshold", "geometric-optimal",
                 "finite-optimal", "concat"],
    )
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--xi", type=float, default=None)
    add_common(p, reps=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="benchmark policy rates at one horizon")
    p.add_argument("--n", type=int, required=True)
    add_common(p, reps=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except geometric.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
