"""wdglab benchmark: one closed-loop client driving ``wdglab.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` beside this
directory.  The client generates every input of the workload from the seed
into a work directory, imports the CLI (timed, as set-up), runs one excluded
warm-up cycle, then runs whole cycles of commands, each one after the
previous returns, until the commands have taken ``--seconds`` of wall time.
Each timed call follows one run of the reference kernel, and its time is
reported drift-corrected (see reference.py).  Every command's output is
checked against ``exact`` outside the timed region.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics.
With ``--trace 1`` each cycle runs twice, untraced and then traced, and the
last line carries the per-layer metrics of the traced runs.  The line before
it is a JSON object of metadata that no bound applies to.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One client and no helper threads: keep numpy's BLAS from starting a worker
# pool.  Must be set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import reference  # noqa: E402  (HERE is on sys.path when run as a script)
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 9
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
TAIL_MIN_BEYOND = 10
# Timed cycles generated ahead of timing; a longer run reuses them in order.
POOL_CYCLES = 8
# opt_quality is taken over the warm-up cycle and the first timed cycles
# only, so that it depends on the seed alone and not on how many commands fit
# in the run.
QUALITY_CYCLES = 4


def import_cli():
    """Import wdglab.cli from scratch, SETUP_REPEATS times.  Returns the
    module, and the wall and drift-corrected import times."""
    wall, corrected = [], []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "wdglab" or m.startswith("wdglab.")]:
            del sys.modules[name]
        kernel = reference.kernel_seconds()
        start = perf_counter()
        cli = importlib.import_module("wdglab.cli")
        wall.append(perf_counter() - start)
        corrected.append(reference.corrected(wall[-1], kernel))
    return cli, wall, corrected


def run_command(main, command):
    """Time one CLI call; returns (wall seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = main(command.argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback: the interpreter would exit with 1
            rc = 1
        elapsed = perf_counter() - start
    return elapsed, rc, out.getvalue()


class Tally:
    """Commands run, failures, latencies of the timed ones and answer quality.

    ``latencies`` are drift-corrected (see reference.py); ``wall`` are the
    same latencies as measured."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.latencies = []
        self.wall = []
        self.quality = []

    def timed(self, main, command, keep_quality):
        """Run ``command`` right after a reference kernel run; returns its wall time."""
        kernel = reference.kernel_seconds()
        elapsed, rc, stdout = run_command(main, command)
        self.wall.append(elapsed)
        self.latencies.append(reference.corrected(elapsed, kernel))
        self.record(command, rc, stdout, keep_quality)
        return elapsed

    def record(self, command, rc, stdout, keep_quality):
        self.attempted += 1
        try:
            quality = command.check(rc, stdout)
        except Exception as exc:  # any error in checking counts the command as failed
            self.failures.append(f"{command.shape} {command.argv}: {type(exc).__name__}: {exc}")
            return
        if keep_quality and quality is not None:
            self.quality.append(quality)


def tail(latencies):
    """Latency at the highest ladder percentile that leaves at least
    TAIL_MIN_BEYOND samples above it; returns (value, percentile, beyond).

    The percentile's sample is the first one above p% of the samples, so
    at p50 it is never below the median."""
    ordered = sorted(latencies)
    n = len(ordered)

    def rank(p):
        return min(n, math.floor(p * n / 100) + 1)

    chosen = max((p for p in TAIL_LADDER if n - rank(p) >= TAIL_MIN_BEYOND), default=TAIL_LADDER[0])
    return ordered[rank(chosen) - 1], chosen, n - rank(chosen)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def metadata(args, why, setup_wall, untraced, attempted, failures):
    import numpy

    src_lines = sum(
        len(path.read_text().splitlines()) for path in sorted((SRC / "wdglab").rglob("*.py"))
    )
    _, percentile, beyond = tail(untraced.latencies)
    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "one closed-loop client, in process",
        "timed_commands": len(untraced.latencies),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:5],
        "cmd_tail_percentile": percentile,
        "cmd_tail_samples_beyond": beyond,
        "setup_first_import_s": setup_wall[0],
        "setup_wall_s": statistics.median(setup_wall),
        "cmd_p50_wall_s": statistics.median(untraced.wall),
        "cmd_tail_wall_s": tail(untraced.wall)[0],
        "reference_s": reference.REFERENCE_S,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wdglab" / "cli.py").is_file():
        print(f"error: no wdglab package under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    why = next(w["why"] for w in declared["workloads"] if w["name"] == args.workload)
    # The benchmark never passes --threads; the variable is cleared so that
    # the CLI's own default applies, with or without that option.
    os.environ.pop("WDG_LAB_THREADS", None)
    sys.path.insert(0, str(SRC))

    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        pool = workloads.build_cycles(args.workload, args.seed, POOL_CYCLES + 1, work_dir)
        warmup, pool = pool[0], pool[1:]
        cli, setup_wall, setup_corrected = import_cli()

        untraced, traced = Tally(), Tally()
        tracer = Tracer() if args.trace else None
        traced_main = tracer.span("cli.main", cli.main) if tracer else None
        for command in warmup:
            _, rc, stdout = run_command(cli.main, command)
            untraced.record(command, rc, stdout, True)

        busy = 0.0
        cycle = 0
        while busy < args.seconds:
            commands = pool[cycle % len(pool)]
            keep_quality = cycle < QUALITY_CYCLES
            for command in commands:
                busy += untraced.timed(cli.main, command, keep_quality)
            if tracer:
                tracer.install()
                try:
                    for command in commands:
                        busy += traced.timed(traced_main, command, False)
                finally:
                    tracer.uninstall()
            cycle += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()

    attempted = untraced.attempted + traced.attempted
    failures = untraced.failures + traced.failures
    p50 = statistics.median(untraced.latencies)
    if tracer:
        metrics = tracer.metrics(len(traced.latencies))
        metrics["trace.overhead_ratio"] = statistics.median(traced.latencies) / p50 - 1
    else:
        quality = untraced.quality
        metrics = {
            "setup_s": statistics.median(setup_corrected),
            "cmd_p50_s": p50,
            "cmd_tail_s": tail(untraced.latencies)[0],
            "cmds_per_s": len(untraced.latencies) / sum(untraced.latencies),
            "pass_ratio": 1 - len(untraced.failures) / untraced.attempted,
            "peak_rss_mb": peak_rss_mb,
            # Workloads without optimize commands have no answer quality to
            # grade and report the neutral 1.
            "opt_quality": math.exp(statistics.fmean(math.log(q) for q in quality)) if quality else 1.0,
        }
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not both measured and declared")
    meta = metadata(args, why, setup_wall, untraced, attempted, failures)
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
