"""Command-line interface: subcommands and their JSON or text reports.

Exit codes: 0 = verified/true, 1 = false, 2 = inconclusive, 3 = errors.
"""

from __future__ import annotations

import argparse
import json
import random
import secrets
import sys
import time

from .fastcheck import (
    MinorLoopConfig,
    get_submatrix_of_rank,
    is_rank_at_least,
    proj_dim_upper_bound,
    regular_in_codimension,
)
from .gbasis import RingPresentation, dim_quotient
from .polylinalg import DET_BAREISS, DET_COFACTOR, DET_RECURSIVE, determinant, recursive_minors
from .polyring import PolyError
from .problemfile import parse_problem_file
from .selection import choose_good_minors, parse_strategy

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INCONCLUSIVE = 2
EXIT_ERROR = 3

_ENGINES = (DET_BAREISS, DET_COFACTOR, DET_RECURSIVE)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="polyminors")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (drawn from entropy if omitted)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minors", help="full ideal of k x k minors")
    p.add_argument("file")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--det", choices=_ENGINES, default=DET_BAREISS)

    p = sub.add_parser("choose-minors", help="heuristically chosen minors")
    p.add_argument("file")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--strategy", default="StrategyDefault")
    p.add_argument("--det", choices=_ENGINES, default=DET_BAREISS)

    p = sub.add_parser("submatrix-of-rank", help="search for a submatrix of a given rank")
    p.add_argument("file")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--strategy", default="StrategyDefaultNonRandom")
    p.add_argument("--max-minors", type=float, default=None)

    p = sub.add_parser("rank-at-least", help="certify a rank lower bound")
    p.add_argument("file")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--strategy", default="StrategyDefaultNonRandom")
    p.add_argument("--max-minors", type=float, default=None)

    p = sub.add_parser("regular-in-codim", help="verify regularity in codimension n")
    p.add_argument("file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--strategy", default="StrategyDefault")
    p.add_argument("--max-minors", type=float, default=None)
    p.add_argument("--min-minors", type=int, default=None)
    p.add_argument("--det", choices=_ENGINES, default=DET_BAREISS)
    p.add_argument("--modulus", type=int, default=None)
    p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("proj-dim", help="projective dimension upper bound from a complex")
    p.add_argument("file")
    p.add_argument("--min-dimension", type=int, default=0)
    p.add_argument("--strategy", default="StrategyDefault")
    p.add_argument("--max-minors", type=float, default=None)

    p = sub.add_parser("gb-dim", help="Krull dimension of the quotient by the ideal block")
    p.add_argument("file")

    return parser


def _make_config(args, strategy_default=None) -> MinorLoopConfig:
    cfg = MinorLoopConfig()
    strategy_name = getattr(args, "strategy", None) or strategy_default
    if strategy_name:
        cfg.strategy = parse_strategy(strategy_name)
    max_minors = getattr(args, "max_minors", None)
    if max_minors is not None:
        cfg.max_minors = max_minors
    min_minors = getattr(args, "min_minors", None)
    if min_minors is not None:
        cfg.min_minors_fn = lambda m: min_minors
    det = getattr(args, "det", None)
    if det:
        cfg.det_strategy = det
    cfg.modulus = getattr(args, "modulus", None)
    cfg.verbose = getattr(args, "verbose", False)
    return cfg


def _report(args, seed, started, *, result=None, considered=None, computed=None,
            dimension=None, generators=None):
    return {
        "command": args.command,
        "seed": seed,
        "result": result,
        "considered": considered,
        "computed": computed,
        "dimension": dimension,
        "generators": generators,
        "time": round(time.time() - started, 6),
    }


def _emit(report, args):
    if args.format == "json":
        print(json.dumps(report))
        return
    for key in ("seed", "result", "considered", "computed", "dimension"):
        if report.get(key) is not None:
            print(f"{key}: {report[key]}")
    if report.get("generators"):
        print("generators:")
        for g in report["generators"]:
            print(f"  {g}")


def _need(problem, attr, what):
    value = getattr(problem, attr)
    if value is None:
        raise PolyError(f"problem file has no {what} block")
    return value


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    seed = args.seed if args.seed is not None else secrets.randbits(64)
    rng = random.Random(seed)
    started = time.time()
    try:
        problem = parse_problem_file(args.file)

        if args.command == "minors":
            M = _need(problem, "matrix", "matrix")
            minors = recursive_minors(args.size, M) if args.det == DET_RECURSIVE else [
                determinant(M.submatrix(c), args.det) for c in _all_choices(M, args.size)
            ]
            gens = [str(m) for m in minors if not m.is_zero()]
            _emit(_report(args, seed, started, result=len(gens), generators=gens), args)
            return EXIT_TRUE

        if args.command == "choose-minors":
            M = _need(problem, "matrix", "matrix")
            cfg = _make_config(args)
            ideal, stats = choose_good_minors(
                args.count, args.size, M, cfg.strategy, rng,
                points_ideal=problem.ideal, det_engine=cfg.det_strategy,
            )
            _emit(_report(args, seed, started, result=len(ideal.generators),
                          considered=stats["considered"], computed=stats["computed"],
                          generators=[str(g) for g in ideal.generators]), args)
            return EXIT_TRUE

        if args.command == "submatrix-of-rank":
            M = _need(problem, "matrix", "matrix")
            cfg = _make_config(args)
            choice = get_submatrix_of_rank(args.rank, M, cfg, rng)
            if choice is None:
                _emit(_report(args, seed, started, result=None), args)
                return EXIT_INCONCLUSIVE
            _emit(_report(args, seed, started, result=[list(choice.rows), list(choice.cols)]), args)
            return EXIT_TRUE

        if args.command == "rank-at-least":
            M = _need(problem, "matrix", "matrix")
            cfg = _make_config(args)
            ok = is_rank_at_least(args.rank, M, cfg, rng)
            _emit(_report(args, seed, started, result=ok), args)
            return EXIT_TRUE if ok else EXIT_FALSE

        if args.command == "regular-in-codim":
            ideal = _need(problem, "ideal", "ideal")
            cfg = _make_config(args)
            report = regular_in_codimension(args.n, RingPresentation(ideal), cfg, rng)
            _emit(_report(args, seed, started, result=report.result,
                          considered=report.considered, computed=report.computed,
                          dimension=report.dimension,
                          generators=[str(m) for m in report.minors]), args)
            if report.result is True:
                return EXIT_TRUE
            if report.result is False:
                return EXIT_FALSE
            return EXIT_INCONCLUSIVE

        if args.command == "proj-dim":
            complex_input = _need(problem, "complex", "complex")
            cfg = _make_config(args)
            bound = proj_dim_upper_bound(complex_input, args.min_dimension, cfg, rng)
            _emit(_report(args, seed, started, result=bound, dimension=bound), args)
            return EXIT_TRUE

        if args.command == "gb-dim":
            dim = dim_quotient(problem.ideal)
            _emit(_report(args, seed, started, result=dim, dimension=dim), args)
            return EXIT_TRUE

        raise PolyError(f"unknown command {args.command!r}")
    except (PolyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _all_choices(M, size):
    from itertools import combinations

    from .polylinalg import SubmatrixChoice

    if size < 1 or size > min(M.nrows, M.ncols):
        raise PolyError(f"minor size {size} out of range")
    return [
        SubmatrixChoice(r, c)
        for r in combinations(range(M.nrows), size)
        for c in combinations(range(M.ncols), size)
    ]


if __name__ == "__main__":
    raise SystemExit(main())
