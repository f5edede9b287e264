"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For each workload, runs one command through ``wdglab.cli.main``, confirms
that its real output passes the check, then feeds the check a copy with
one value corrupted and confirms the check rejects it.  Exits 0 when every
corruption is caught.
"""

from __future__ import annotations

import contextlib
import json
import random
import shutil
import sys
from fractions import Fraction

from run import ROOT, SRC, run_command
import exact
import workloads

OFF = Fraction(1, 65536)


def bump_delta(stdout: str) -> str:
    doc = json.loads(stdout)
    doc["delta"] = exact.rational_text(exact.rational(doc["delta"]) + 1)
    return json.dumps(doc, indent=2) + "\n"


def bump_last_stage(stdout: str) -> str:
    lines = stdout.splitlines()
    head, _, value = lines[-1].partition(" = ")
    lines[-1] = f"{head} = {exact.rational_text(exact.rational(value) + OFF)}"
    return "\n".join(lines) + "\n"


def bump_objective(stdout: str) -> str:
    doc = json.loads(stdout)
    doc["objective"] = exact.rational_text(exact.rational(doc["objective"]) + OFF)
    return json.dumps(doc, indent=2) + "\n"


# workload -> (shape of the command to run, corruption, what it corrupts)
CASES = {
    "report-scan": ("report n=16 p=0.5", bump_delta, "delta + 1"),
    "iterate-compose": ("iterate and 64", bump_last_stage, "last stage l1 + 1/65536"),
    "optimize-targets": ("optimize maximize_l1 d=6", bump_objective, "objective + 1/65536"),
}


def main() -> int:
    sys.path.insert(0, str(SRC))
    from wdglab.cli import main as cli_main

    work_dir = ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(work_dir, ignore_errors=True)
    caught = 0
    try:
        for name, (shape, corrupt, what) in CASES.items():
            rng = random.Random(f"selftest:{name}")
            folder = work_dir / name
            folder.mkdir(parents=True)
            command = next(c for c in workloads.WORKLOADS[name](rng, folder) if c.shape == shape)
            _, rc, stdout = run_command(cli_main, command)
            command.check(rc, stdout)  # the real output must pass
            try:
                command.check(rc, corrupt(stdout))
            except workloads.CheckFailure as exc:
                caught += 1
                print(f"{name}: {what}: caught ({exc})")
            else:
                print(f"{name}: {what}: NOT caught")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()
    return 0 if caught == len(CASES) else 1


if __name__ == "__main__":
    sys.exit(main())
