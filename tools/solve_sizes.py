"""Time ``maximize_l1`` on the full template as the cube grows.

    python3 tools/solve_sizes.py

Each solve has 8 distinct random target points, epsilon 1/4, seed 1 and
one chain.  It runs budget 20 000 at d = 6, 8, 12, 14, 16 and 17, then the
default budget at d = 17, and prints the wall time and objective of each.
"""

from __future__ import annotations

import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

# one BLAS thread, as in perfbench/run.py, so the times compare across runs
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wdglab import InfeasibleError, PartialFunctionSpec, maximize_l1  # noqa: E402

RUNS = [(d, 20_000) for d in (6, 8, 12, 14, 16, 17)] + [(17, None)]


def target(d: int) -> PartialFunctionSpec:
    rng = random.Random(d)
    n = d - 1
    points = [
        (tuple(1 if index >> k & 1 else -1 for k in range(n)), rng.randint(0, 1))
        for index in rng.sample(range(1 << n), 8)
    ]
    return PartialFunctionSpec(dimension=d, points=tuple(points), epsilon=Fraction(1, 4))


def main() -> int:
    for d, budget in RUNS:
        kwargs = {} if budget is None else {"budget": budget}
        start = time.perf_counter()
        try:
            objective = str(maximize_l1(target(d), seed=1, chains=1, **kwargs).objective)
        except InfeasibleError:
            objective = "infeasible"
        elapsed = time.perf_counter() - start
        label = "default" if budget is None else budget
        print(f"d = {d:2d}  budget {label}: {elapsed:6.2f} s  objective {objective}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
