"""Output checks: every invocation the benchmark runs must pass all of them.

Three kinds of check, from strictest to loosest:

* solver values must equal the reference recorded at the seed commit
  within 1e-9, beyond the 9 significant digits the CLI prints;
* at the seeds whose outputs were recorded, Monte Carlo means and variances
  must equal the reference bit for bit (the seeded-stream contract);
* on any seed, the paper's closed forms must hold at the acceptance-gate
  tolerances: xi0 and the value within 5e-3, the finite verdict IN,
  finite-optimal within 4 standard errors of the DP value, geometric-optimal
  within 4 standard errors of the closed-form value, offline within 4
  standard errors of 2n/3 + 1/6, and no policy above the optimum.

The closed forms are written out here from the paper, independently of
``altseq``, so that a change to the library cannot move its own yardstick.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

SQRT2 = math.sqrt(2.0)
GRID = 2001
TOL = 1e-10
CLOSED_FORM_TOL = 5e-3
N_SE = 4.0
#: Solver fields that must match the reference; residual and iteration
#: counts belong to the method, not to the answer, and may change.
GEOMETRIC_FIELDS = ("rho", "xi0_closed", "xi0_numeric", "value_closed", "value_numeric")
FINITE_FIELDS = ("n", "value", "bracket_low", "bracket_high")


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def xi0(rho: float) -> float:
    return max(0.0, 1.0 / SQRT2 + (1.0 - SQRT2) / rho)


def geometric_value(rho: float) -> float:
    if xi0(rho) > 0.0:
        return (3.0 - 2.0 * SQRT2 - rho + rho * SQRT2) / (rho * (1.0 - rho))
    return (2.0 - rho) / (2.0 * (1.0 - rho))


def finite_bracket(n: int) -> tuple[float, float]:
    low = (2.0 - SQRT2) * n
    return low, low + 11.0 - 4.0 * SQRT2


def offline_moments(n: int) -> tuple[float, float]:
    return 2.0 * n / 3.0 + 1.0 / 6.0, 8.0 * n / 45.0 - 13.0 / 180.0


def _close(value, ref) -> bool:
    """Within 1e-9 of ref, plus one unit in ref's 9th significant digit."""
    if isinstance(ref, dict):
        return isinstance(value, dict) and value.keys() == ref.keys() and all(
            _close(value[k], ref[k]) for k in ref
        )
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return False
    digit = 10.0 ** (math.floor(math.log10(abs(ref))) - 8) if ref else 0.0
    return abs(value - ref) <= 1e-9 + digit


def _near(value: float, target: float, rel: float = 1e-8) -> bool:
    return abs(value - target) <= rel * max(abs(target), 1e-300)


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


class Checker:
    """Checks one invocation's exit code and output against the references."""

    def __init__(self, reference: dict):
        self.reference = reference

    def check(self, invocation: str, argv: list[str], rc: int, out: str, err: str):
        """Returns (problems, payload); an empty problem list is a pass."""
        if rc != 0:
            return [f"exit code {rc}: {err.strip()[-200:]}"], None
        if err:
            return [f"unexpected stderr: {err.strip()[-200:]}"], None
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"], None
        command = argv[0]
        if payload.get("command") != command:
            return [f"command field {payload.get('command')!r} != {command!r}"], payload
        try:
            problems = getattr(self, "_" + command)(invocation, argv, payload)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            problems = [f"malformed {command} output: {exc!r}"]
        return problems, payload

    def _recorded(self, invocation: str, argv: list[str]):
        seeds = self.reference["monte_carlo"]
        return seeds.get(_flag(argv, "--seed"), {}).get(invocation)

    def _geometric(self, invocation, argv, p):
        problems = []
        rho = float(_flag(argv, "--rho"))
        if p["config"] != {"rho": rho, "grid": GRID, "tol": TOL}:
            problems.append(f"config {p['config']}")
        ref = self.reference["solver"][invocation]
        for field in GEOMETRIC_FIELDS + ("value_candidates",):
            if (field in ref) != (field in p):
                problems.append(f"{field} present: {field in p}, reference: {field in ref}")
            elif field in ref and not _close(p[field], ref[field]):
                problems.append(f"{field} {p[field]} != reference {ref[field]}")
        if abs(p["xi0_numeric"] - xi0(rho)) > CLOSED_FORM_TOL:
            problems.append(f"xi0_numeric {p['xi0_numeric']} vs closed form {xi0(rho)}")
        if abs(p["value_numeric"] - geometric_value(rho)) > CLOSED_FORM_TOL:
            problems.append(
                f"value_numeric {p['value_numeric']} vs closed form {geometric_value(rho)}"
            )
        if not (0.0 <= p["residual"] < TOL and p["iterations"] >= 1):
            problems.append(f"not converged: residual {p['residual']}, {p['iterations']} it")
        return problems

    def _finite(self, invocation, argv, p):
        problems = []
        n = int(_flag(argv, "--n"))
        ref = self.reference["solver"][invocation]
        for field in FINITE_FIELDS:
            if not _close(p[field], ref[field]):
                problems.append(f"{field} {p[field]} != reference {ref[field]}")
        low, high = finite_bracket(n)
        if p["verdict"] != "IN" or not low <= p["value"] <= high:
            problems.append(f"verdict {p['verdict']}: {p['value']} vs [{low}, {high}]")
        return problems

    def _rows(self, invocation, argv, rows, recorded, kind):
        """Checks shared by every simulation row; returns problems."""
        problems = []
        reps, seed = int(_flag(argv, "--reps")), int(_flag(argv, "--seed"))
        if recorded is not None and len(recorded) != len(rows):
            problems.append(f"{len(rows)} rows, reference has {len(recorded)}")
            recorded = None
        for idx, row in enumerate(rows):
            tag = f"row {row['policy']}"
            if (row["reps"], row["seed"], row["horizon_kind"]) != (reps, seed, kind):
                problems.append(f"{tag}: config {row['reps']}, {row['seed']}, {row['horizon_kind']}")
            if not _near(row["std_error"], math.sqrt(row["variance"] / reps)):
                problems.append(f"{tag}: std_error {row['std_error']} != sqrt(variance/reps)")
            param = row["horizon_param"]
            rate = row["mean"] / param if kind == "fixed" else row["mean"] * (1.0 - param)
            if not _near(row["rate"], rate):
                problems.append(f"{tag}: rate {row['rate']} != {rate}")
            if recorded is not None and [row["mean"], row["variance"]] != recorded[idx]:
                problems.append(
                    f"{tag}: mean, variance {row['mean']}, {row['variance']} "
                    f"!= recorded {recorded[idx]} at this seed"
                )
        return problems

    def _compare(self, invocation, argv, p):
        n = int(_flag(argv, "--n"))
        rows = p["rows"]
        problems = self._rows(invocation, argv, rows, self._recorded(invocation, argv), "fixed")
        if [r["policy"].split("(")[0] for r in rows] != [
            "greedy", "timid", "threshold", "finite-optimal"
        ]:
            problems.append(f"policies {[r['policy'] for r in rows]}")
            return problems
        for row in rows:
            high = finite_bracket(int(row["horizon_param"]))[1]
            if row["mean"] > high + N_SE * row["std_error"]:
                problems.append(f"row {row['policy']}: mean {row['mean']} above optimum {high}")
        opt = rows[-1]
        n_finite = p["config"]["finite_optimal_n"]
        if n_finite != min(n, 1000) or opt["horizon_param"] != n_finite:
            problems.append(f"finite-optimal horizon {n_finite}")
        dp = self.reference["dp_value"][str(n_finite)]
        if abs(opt["mean"] - dp) > N_SE * opt["std_error"]:
            problems.append(
                f"finite-optimal mean {opt['mean']} more than {N_SE:g} SE from DP {dp}"
            )
        return problems

    def _offline(self, invocation, argv, p):
        n = int(_flag(argv, "--n"))
        row = dict(p, policy="offline", horizon_kind="fixed", horizon_param=n,
                   reps=p["config"]["reps"], seed=p["config"]["seed"])
        problems = self._rows(invocation, argv, [row], self._recorded(invocation, argv), "fixed")
        mean, var = offline_moments(n)
        if not (_near(p["mean_formula"], mean) and _near(p["variance_formula"], var)):
            problems.append(f"moment formulas {p['mean_formula']}, {p['variance_formula']}")
        if abs(p["mean"] - mean) > N_SE * p["std_error"]:
            problems.append(f"offline mean {p['mean']} more than {N_SE:g} SE from {mean}")
        return problems

    def _simulate(self, invocation, argv, p):
        row = p["result"]
        problems = self._rows(invocation, argv, [row], self._recorded(invocation, argv), "geometric")
        rho = float(_flag(argv, "--rho"))
        optimum = geometric_value(rho)
        if row["mean"] > optimum + N_SE * row["std_error"]:
            problems.append(f"mean {row['mean']} above optimum {optimum}")
        if _flag(argv, "--policy") == "geometric-optimal" and (
            abs(row["mean"] - optimum) > N_SE * row["std_error"]
        ):
            problems.append(f"mean {row['mean']} more than {N_SE:g} SE from {optimum}")
        return problems


def value_error(payload) -> float:
    """|value_numeric - value_closed| of a geometric output, else 0."""
    if not payload or payload.get("command") != "geometric":
        return 0.0
    return abs(payload["value_numeric"] - payload["value_closed"])
