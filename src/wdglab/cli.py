"""Command-line front end.

Exit codes: 0 on success, 2 for invalid input (parse or validation
failures), 3 for infeasible problems or exceeded size limits.

Assignment arguments are '+'/'-' strings with one character per
non-ancilla vertex; the ancilla coordinate is implicit and always +1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .boolfn import certificate_complexity
from .compose import AND, OR, compose as compose_graphs, iterate_compose
from .core import evaluate, f_value, format_rational, parse_assignment
from .documents import (
    _rational_field,
    optimization_summary,
    parse_function_document,
    parse_target_document,
    parse_wdg_document,
    report_document,
    serialize_report,
    serialize_wdg,
)
from .errors import (
    DocumentError,
    InfeasibleError,
    LimitExceededError,
    SizeBudgetExceededError,
    WdgError,
)
from .measurement import CsopProfile, csop_order
from .optimize import (
    MAXIMIZE,
    MINIMIZE,
    PartialFunctionSpec,
    maximize_l1,
    minimize_delta,
)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3


def _read_wdg(path: str):
    return parse_wdg_document(Path(path).read_text())


def cmd_eval(args) -> int:
    wdg = _read_wdg(args.file)
    x = parse_assignment(args.input)
    print(f"g = {format_rational(evaluate(wdg, x))}")
    print(f"f = {format_rational(f_value(wdg, x))}")
    return EXIT_OK


def cmd_report(args) -> int:
    wdg = _read_wdg(args.file)
    document = report_document(wdg)
    sys.stdout.write(serialize_report(document, plain=args.plain))
    return EXIT_OK


def cmd_compose(args) -> int:
    a = _read_wdg(args.file_a)
    b = _read_wdg(args.file_b)
    result = compose_graphs(args.mode, a, b)
    text = serialize_wdg(result.wdg)
    # the build checked the composite's summed weights against the closed form
    print(f"predicted_l1 = {format_rational(result.predicted_l1)}")
    print(f"actual_l1 = {format_rational(result.predicted_l1)}")
    Path(args.out).write_text(text)
    return EXIT_OK


def cmd_iterate(args) -> int:
    base = _read_wdg(args.file)
    stages = iterate_compose(base, args.depth, args.mode)
    # a stage that cannot be written stops the command before any output
    texts = [serialize_wdg(stage.wdg) for stage in stages]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, (stage, text) in enumerate(zip(stages, texts), start=1):
        (out_dir / f"stage_{i}.json").write_text(text)
        print(f"stage {i}: l1 = {format_rational(stage.predicted_l1)}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    spec = parse_target_document(Path(args.target).read_text())
    if args.epsilon is not None:
        spec = PartialFunctionSpec(
            dimension=spec.dimension,
            points=spec.points,
            epsilon=_rational_field(args.epsilon, "--epsilon"),
        )
    solver = maximize_l1 if args.objective == MAXIMIZE else minimize_delta
    result = solver(spec, budget=args.budget, seed=args.seed, chains=args.chains)
    summary = optimization_summary(result)
    if args.out:
        Path(args.out).write_text(serialize_wdg(result.wdg))
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_certificate(args) -> int:
    table = parse_function_document(Path(args.file).read_text())
    result = certificate_complexity(table)
    print(f"c0 = {result.c0}")
    print(f"c1 = {result.c1}")
    print(f"c = {result.c}")
    return EXIT_OK


def cmd_csop_order(args) -> int:
    try:
        dims = tuple(int(part) for part in args.dims.split(","))
    except ValueError as exc:
        raise DocumentError(f"--dims must be comma-separated integers: {exc}") from exc
    print(csop_order(CsopProfile(total_dim=args.total, projector_dims=dims)))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # Subparsers inherit this class, so every command-line error reaches
    # main() and is reported like any other invalid input.
    def error(self, message):
        raise ValueError(message)


def _int_at_least(low: int, kind: str):
    """An argparse type for ints of at least ``low``; argparse names the
    option in the message that refuses any other value."""

    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wdglab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate g and f at one input")
    p.add_argument("file", help="WDG document")
    p.add_argument("input", help="'+'/'-' string, one char per non-ancilla vertex")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="norms, extrema, and bounds for a graph")
    p.add_argument("file")
    p.add_argument("--plain", action="store_true", help="key=value lines instead of JSON")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("compose", help="AND/OR Kronecker composition of two graphs")
    p.add_argument("mode", choices=(AND, OR))
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("out", help="output WDG document path")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("iterate", help="iterated self-composition with an L1 table")
    p.add_argument("mode", choices=(AND, OR))
    p.add_argument("file")
    p.add_argument("depth", type=int)
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_iterate)

    p = sub.add_parser("optimize", help="search weights for a partial 0/1 target")
    p.add_argument("objective", choices=(MAXIMIZE, MINIMIZE))
    p.add_argument("target", help="target document")
    p.add_argument("--epsilon", help="override the document tolerance (rational)")
    p.add_argument("--budget", type=_int_at_least(1, "positive"), default=100_000)
    p.add_argument("--seed", type=_int_at_least(0, "non-negative"), default=0)
    p.add_argument("--chains", type=_int_at_least(1, "positive"), default=1)
    p.add_argument("--out", help="also write the found WDG document here")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("certificate", help="certificate complexity of a function table")
    p.add_argument("file", help="function table document")
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("csop-order", help="order of a projector dimension profile")
    p.add_argument("--dims", required=True, help="comma-separated projector dimensions")
    p.add_argument("--total", required=True, type=int, help="total space dimension")
    p.set_defaults(func=cmd_csop_order)

    return parser


def _guard_assignment_tokens(argv) -> list:
    """Insert '--' before the first bare assignment string so argparse does
    not read tokens like '-++-+' as options.  A literal '--' input must be
    escaped by the caller ('wdglab eval FILE -- --')."""
    argv = list(argv)
    for i, token in enumerate(argv):
        if token == "--":
            break
        if token and token != "--" and not set(token) - {"+", "-"}:
            argv.insert(i, "--")
            break
    return argv


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_guard_assignment_tokens(argv))
        return args.func(args)
    except (InfeasibleError, SizeBudgetExceededError, LimitExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (WdgError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
