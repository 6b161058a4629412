"""Set-up probe: import ``altseq.cli`` in a fresh interpreter and say when ready.

    python3 perfbench/probe.py

Imports ``altseq.cli`` from the ``src/`` directory next to this one, builds
its parser and prints ``ready <slowdown> <sampling seconds>``. ``run.py``
times the process from spawn to that line to get ``setup_s``. Before it
imports ``altseq`` it loads only ``speed``, so the time is the program's,
not the benchmark's.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

ROOT = Path(__file__).resolve().parents[1]
NPROC = len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """Cap every numeric thread pool at the cores this process may use.

    Takes effect only if called before numpy is first imported.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        if not os.environ.get(var, "").isdigit() or int(os.environ[var]) > NPROC:
            os.environ[var] = str(NPROC)


def import_cli():
    """altseq.cli from this checkout's src/; exits if the checkout has none."""
    src = ROOT / "src"
    if not (src / "altseq" / "cli.py").is_file():
        raise SystemExit(f"error: no altseq sources under {src}")
    sys.path.insert(0, str(src))
    import altseq.cli

    if Path(altseq.cli.__file__).resolve().parent != src / "altseq":
        raise SystemExit(f"error: imported altseq from {altseq.cli.__file__}, not {src}")
    return altseq.cli


def main() -> int:
    cap_threads()
    with SpeedProbe() as probe:
        t0 = perf_counter()
        import_cli().build_parser()
        t1 = perf_counter()
    print(f"ready {probe.slowdown(t0, t1)!r} {probe.busy_s(t0, t1)!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
