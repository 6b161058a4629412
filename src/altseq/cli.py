"""Command-line front end: solve, simulate, compare, emit CSV/JSON.

Each command computes its result, (payload, rows) with rows None outside
simulations; _run alone checks the output path, renders and writes.
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
import os
import sys

from . import finite, geometric, montecarlo
from ._bellman import DEFAULT_GRID, DEFAULT_TOL, SQRT2, check_grid
from .policies import (
    ConcatenatedPolicy,
    FiniteOptimalPolicy,
    FixedThresholdPolicy,
    GeometricOptimalPolicy,
    Policy,
)
from .sequence import permutation_moments

DEFAULT_REPS = 100_000
DEFAULT_SEED = 42

#: compare solves the finite-optimal policy at most at this horizon; larger
#: requested horizons are simulated at the cap and flagged in the output.
FINITE_COMPARE_CAP = 1000

#: The fixed-threshold rules run by name, label -> xi; compare runs each too.
NAMED_RULES = {"greedy": 0.0, "timid": 0.5}


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
        else:
            rows.append((name, value))
    return rows


#: Simulation row columns: the first five describe the run, the rest its result.
RUN_COLUMNS = ["policy", "horizon_kind", "horizon_param", "reps", "seed"]
SIM_CSV_HEADER = RUN_COLUMNS + ["mean", "variance", "std_error", "rate"]


def _render(payload: dict, rows: list[dict] | None, form: str) -> str:
    """The result as "json", simulation "rows" CSV, key/value "csv" or "lines"."""
    if form == "json":
        return emit_json(payload)
    buf = io.StringIO()
    if form == "rows":
        writer = csv.DictWriter(buf, fieldnames=SIM_CSV_HEADER, lineterminator="\n")
        writer.writeheader()
        writer.writerows(_round9(rows))
        return buf.getvalue()
    items = _flatten(_round9(payload))
    if form == "csv":
        csv.writer(buf, lineterminator="\n").writerows([("key", "value"), *items])
        return buf.getvalue()
    width = max(len(k) for k, _ in items)
    return "".join(f"{k:<{width}}  {v}\n" for k, v in items)


def _simulate(label: str, args, policy: Policy, **horizon) -> dict:
    """Run policy (args.reps, args.seed) on its horizon's runner; returns its row."""
    cfg = montecarlo.SimulationConfig(
        reps=args.reps, seed=args.seed, policy=policy, **horizon
    )
    if cfg.n is not None:
        result = montecarlo.run_fixed_horizon(cfg)
        kind, param, rate = "fixed", cfg.n, result.mean / cfg.n
    else:
        result = montecarlo.run_geometric_horizon(cfg)
        kind, param, rate = "geometric", cfg.rho, result.mean * (1.0 - cfg.rho)
    values = [label, kind, param, cfg.reps, cfg.seed,
              result.mean, result.variance, result.std_error, rate]
    return dict(zip(SIM_CSV_HEADER, values, strict=True))


def cmd_offline(args) -> tuple[dict, list[dict] | None]:
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
    return payload, None


def cmd_geometric(args) -> tuple[dict, list[dict] | None]:
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
    return payload, None


def cmd_finite(args) -> tuple[dict, list[dict] | None]:
    finite.check_table_budget(args.n, args.grid)  # with or without --dump-tables
    value = finite.optimal_expected(args.n, args.grid)  # a sweep holding no table
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
        _dump_tables(finite.solve_finite(args.n, args.grid), args.dump_tables)
        payload["tables"] = args.dump_tables
    return payload, None


def _dump_tables(sol, path: str) -> None:
    with open(path, "w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["stage", "y", "value", "threshold"])
        for i in range(1, sol.n + 1):
            for y, v, t in zip(sol.ys, sol.value_row(i), sol.threshold_row(i)):
                writer.writerow([i, f"{y:.9g}", f"{v:.9g}", f"{t:.9g}"])


def _build_policy(args) -> tuple[Policy, str, dict]:
    """Resolve --policy plus flags into (policy, label, horizon).

    horizon holds the n and rho keywords of SimulationConfig, which checks
    that the policy suits it; the run's rules are checked before a solve.
    """
    name = args.policy
    if args.xi is not None and name != "threshold":
        raise ValueError(f"--xi only applies to --policy threshold, not {name}")
    if name == "concat":
        if args.rho is None or args.n is None:
            raise ValueError(
                "concat needs --rho (horizon) and --n (block solution horizon)"
            )
        montecarlo.check_run(args.reps, args.seed, rho=args.rho)
        policy = ConcatenatedPolicy(finite.solve_finite(args.n, args.grid))
        return policy, f"concat(n={args.n})", {"rho": args.rho}
    if name == "geometric-optimal":
        if args.rho is None:
            raise ValueError("geometric-optimal needs --rho")
        # --rho is the policy's parameter; --n, when given, is the horizon
        horizon = {"rho": args.rho} if args.n is None else {"n": args.n}
        policy = GeometricOptimalPolicy(args.rho)
        return policy, f"geometric-optimal(rho={args.rho})", horizon
    # for every other policy --n and --rho both name the horizon
    horizon = {"n": args.n, "rho": args.rho}
    if name == "finite-optimal":
        if args.n is None:
            raise ValueError("finite-optimal needs --n")
        montecarlo.check_run(args.reps, args.seed, **horizon)
        solution = finite.solve_finite(args.n, args.grid)
        return FiniteOptimalPolicy(solution), name, horizon
    if name == "threshold":
        if args.xi is None:
            raise ValueError("threshold needs --xi")
        return FixedThresholdPolicy(args.xi), f"threshold({args.xi:g})", horizon
    return FixedThresholdPolicy(NAMED_RULES[name]), name, horizon  # greedy or timid


def cmd_simulate(args) -> tuple[dict, list[dict] | None]:
    check_grid(args.grid)  # the grid rule, for every policy
    policy, label, horizon = _build_policy(args)
    row = _simulate(label, args, policy, **horizon)
    config = {key: row[key] for key in RUN_COLUMNS}
    if isinstance(policy, (FiniteOptimalPolicy, ConcatenatedPolicy)):
        config["grid"] = args.grid  # the grid it was solved on
    return {"command": "simulate", "config": config, "result": row}, [row]


def cmd_compare(args) -> tuple[dict, list[dict] | None]:
    n_finite = min(args.n, FINITE_COMPARE_CAP)
    finite.check_table_budget(n_finite, args.grid)  # refuse before any simulation
    check_grid(args.grid)  # the grid rule, also before any simulation
    xi_star = 1.0 - 1.0 / SQRT2
    finite_label = "finite-optimal" if n_finite == args.n else (
        f"finite-optimal(reduced n={n_finite})"
    )
    rules = {**NAMED_RULES, f"threshold({xi_star:.6f})": xi_star}
    rows = [
        _simulate(label, args, FixedThresholdPolicy(xi), n=args.n)
        for label, xi in rules.items()
    ]
    # solved last: no threshold row is held during the others
    policy = FiniteOptimalPolicy(finite.solve_finite(n_finite, args.grid))
    rows.append(_simulate(finite_label, args, policy, n=n_finite))
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
    return payload, rows


#: Options that several commands take, each as (flag, add_argument keywords).
_N = ("--n", {"type": int, "required": True})
_GRID = ("--grid", {"type": int, "default": DEFAULT_GRID})
_RUN = [("--reps", {"type": int, "default": DEFAULT_REPS}),
        ("--seed", {"type": int, "default": DEFAULT_SEED})]
_OUTPUT = [("--out", {}), ("--json", {"action": "store_true"})]

#: Every command once, in help order: name -> (help, handler, options).
COMMANDS = {
    "offline": ("offline statistic moments by simulation", cmd_offline,
                [_N, *_RUN, *_OUTPUT]),
    "geometric": ("solve the geometric-horizon problem", cmd_geometric, [
        ("--rho", {"type": float, "required": True}),
        ("--tol", {"type": float, "default": DEFAULT_TOL}), _GRID, *_OUTPUT]),
    "finite": ("solve the fixed-horizon problem", cmd_finite,
               [_N, ("--dump-tables", {}), _GRID, *_OUTPUT]),
    "simulate": ("Monte Carlo evaluation of one policy", cmd_simulate, [
        ("--policy", {"required": True, "choices": [
            *NAMED_RULES, "threshold", "geometric-optimal", "finite-optimal", "concat"
        ]}),
        ("--n", {"type": int}), ("--rho", {"type": float}), ("--xi", {"type": float}),
        _GRID, *_RUN, *_OUTPUT]),
    "compare": ("benchmark policy rates at one horizon", cmd_compare,
                [_N, _GRID, *_RUN, *_OUTPUT]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of command alone if it names one.

    A one-command parser still names every command in its usage line, so
    its help and errors read as the full parser's do.
    """
    parser = argparse.ArgumentParser(
        prog="altseq",
        description="On-line alternating-subsequence selection: solvers and simulators.",
    )
    names = [command] if command in COMMANDS else list(COMMANDS)
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar="{%s}" % ",".join(COMMANDS) if len(names) == 1 else None,
    )
    for name in names:
        summary, func, options = COMMANDS[name]
        p = sub.add_parser(name, help=summary)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func)
    return parser


def _run(args) -> int:
    """Run args.func, then render its result and write it to --out or stdout.

    Every output path is checked first and opened for appending: an
    unwritable path fails before any work, an existing file is not
    truncated, and a file created here is removed again if the run fails.
    """
    if args.out and not args.out.endswith((".json", ".csv")):
        raise ValueError(f"--out must end in .json or .csv, got {args.out!r}")
    paths = [p for p in (args.out, getattr(args, "dump_tables", None)) if p]
    if len(set(map(os.path.realpath, paths))) < len(paths):
        raise ValueError("--out and --dump-tables must name different files")
    created = [p for p in paths if not os.path.exists(p)]
    try:
        for path in paths:
            open(path, "a").close()
        payload, rows = args.func(args)
        if args.out.endswith(".json") if args.out else args.json:
            form = "json"
        elif rows is not None:  # simulation rows keep their CSV schema
            form = "rows"
        else:
            form = "csv" if args.out else "lines"
        text = _render(payload, rows, form)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except BaseException:
        for path in filter(os.path.exists, created):
            os.remove(path)
        raise


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)  # that command's parser alone
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _run(args)
    except geometric.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
