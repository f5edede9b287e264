"""Scan the optimizer over optimize-targets seeds: quality, misses and time.

    python3 tools/optimizer_scan.py FIRST_SEED LAST_SEED

For each seed it builds the command cycles that ``perfbench/run.py
--workload optimize-targets`` builds (the warm-up and the timed pool), runs
each command through ``wdglab.cli.main`` and grades it with the benchmark's
own check.  It prints, per seed, the opt_quality the benchmark reports (the
geometric mean over the warm-up and the first QUALITY_CYCLES timed cycles)
and every command that fails: exit code 3 is an ``InfeasibleError``.  It
ends with the median solve time of each command shape.  ``perfbench/`` is
imported, never written.
"""

from __future__ import annotations

import math
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import run  # noqa: E402  (perfbench/run.py, which also pins BLAS to one thread)
import workloads  # noqa: E402
from wdglab.cli import main as cli_main  # noqa: E402


def main(argv: list) -> int:
    first, last = (int(arg) for arg in argv)
    times, failures = defaultdict(list), 0
    for seed in range(first, last + 1):
        quality = []
        with tempfile.TemporaryDirectory() as work:
            cycles = workloads.build_cycles("optimize-targets", seed, run.POOL_CYCLES + 1, Path(work))
            for index, commands in enumerate(cycles):
                for command in commands:
                    elapsed, rc, stdout = run.run_command(cli_main, command)
                    times[command.shape].append(elapsed)
                    try:
                        result = command.check(rc, stdout)
                    except workloads.CheckFailure as exc:
                        failures += 1
                        solve_seed = command.argv[command.argv.index("--seed") + 1]
                        print(f"seed {seed} cycle {index} {command.shape} --seed {solve_seed}: {exc}")
                        continue
                    if index <= run.QUALITY_CYCLES:
                        quality.append(result)
        geomean = math.exp(statistics.fmean(map(math.log, quality))) if quality else float("nan")
        print(f"seed {seed}: opt_quality {geomean:.4f}", flush=True)
    for shape, seconds in sorted(times.items()):
        print(f"{shape}: median {statistics.median(seconds):.3f} s over {len(seconds)} commands")
    print(f"failures: {failures}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
