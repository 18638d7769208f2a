"""Command-line front end: move finding, local search, exponent reports,
instance generation, and oracles.

All machine-readable output (JSON) goes to stdout; human-readable summaries
go to stderr. Exit codes: 0 success (find-move: improving move found), 1 no
improving move, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import alpha as alpha_mod
from . import dpengine, oracle
from .decomp import DepGraph
from .instance import (
    FormatError,
    Instance,
    ReductionInput,
    Tour,
    _json_fields,
    gen_negative_triangle_reduction,
    gen_random,
    instance_from_json,
    instance_to_json,
    parse_tsplib,
    tour_from_json,
    tour_to_json,
    tour_weight,
)
from .moves import matching_count, valid_pattern_count, valid_patterns


class CliError(Exception):
    pass


def _read_instance(path: str) -> Instance:
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        return instance_from_json(text)
    return parse_tsplib(text)


def _read_tour(path: str) -> Tour:
    return tour_from_json(Path(path).read_text())


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _alpha_arg(value: str | None) -> Fraction | None:
    if value is None:
        return None
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad alpha {value!r}; use a fraction like 3/4") from None


def _move_payload(k: int, res: dpengine.SolveResult) -> dict:
    payload = {"k": k, "gain": res.gain, "improving": res.improving}
    if res.move is not None:
        payload.update(res.move.to_dict())
    return payload


def cmd_find_move(args) -> int:
    inst = _read_instance(args.infile)
    tour = _read_tour(args.tour)
    a = _alpha_arg(args.alpha)
    res = dpengine.best_move(inst, tour, args.k, alpha=a, policy=args.policy)
    _emit(_move_payload(args.k, res), args.out)
    print(f"gain {res.gain} (improving: {res.improving})", file=sys.stderr)
    return 0 if res.improving else 1


def cmd_local_search(args) -> int:
    inst = _read_instance(args.infile)
    tour = _read_tour(args.tour)
    a = _alpha_arg(args.alpha)
    final, history = dpengine.local_search(
        inst,
        tour,
        args.k,
        alpha=a,
        policy=args.policy,
        max_steps=args.max_steps,
    )
    payload = {
        "k": args.k,
        "initial_weight": tour_weight(inst, tour),
        "final_weight": tour_weight(inst, final),
        "steps": [
            {"step": h.step, "gain": h.gain, "tour_weight": h.tour_weight}
            for h in history
        ],
        "tour": {"order": list(final.order)},
    }
    _emit(payload, args.out)
    print(
        f"{len(history)} improving moves, weight "
        f"{payload['initial_weight']} -> {payload['final_weight']}",
        file=sys.stderr,
    )
    return 0


def cmd_ck(args) -> int:
    result = alpha_mod.c_of_k(
        args.k, allow_large=args.allow_large_k, want_per_class=args.per_pattern
    )
    payload = {"k": args.k, "c": str(result.c), "alpha": str(result.alpha)}
    if not result.agree:
        payload["c_max_min"] = str(result.c_max_min)
        print(
            "warning: shared-alpha exponent differs from the per-pattern maximum",
            file=sys.stderr,
        )
    if args.per_pattern:
        payload["per_pattern"] = [
            {
                "interference_edges": [list(e) for e in rep.edges],
                "pattern_count": rep.pattern_count,
                "alpha": str(rep.alpha),
                "c": str(rep.c),
                "widths": list(rep.profile.t),
            }
            for rep in result.per_class
        ]
    _emit(payload, None)
    return 0


def cmd_patterns(args) -> int:
    if args.list:
        if args.k > dpengine.MAX_SOLVER_K:
            raise CliError(
                f"--list holds {valid_pattern_count(args.k):,} patterns at k={args.k};"
                f" it takes k <= {dpengine.MAX_SOLVER_K}"
            )
        payload = {
            "k": args.k,
            "valid": [
                [list(p) for p in m.pairs] for m in valid_patterns(args.k)
            ],
        }
    else:
        payload = {
            "k": args.k,
            "total": matching_count(args.k),
            "valid": valid_pattern_count(args.k),
        }
    _emit(payload, None)
    return 0


def _parse_triangle_weights(spec: str, n: int) -> ReductionInput:
    values = [int(tok) for tok in spec.split(",")]
    need = n * (n - 1) // 2
    if len(values) != need:
        raise CliError(f"--weights needs {need} entries (upper triangle, row-major)")
    mat = np.zeros((n, n), dtype=np.int64)
    it = iter(values)
    for i in range(n):
        for j in range(i + 1, n):
            mat[i, j] = mat[j, i] = next(it)
    return ReductionInput(n=n, weights=mat)


def cmd_gen(args) -> int:
    prefix = args.out_prefix
    if args.type == "random":
        inst = gen_random(args.n, args.seed, args.wmax)
        Path(f"{prefix}.instance.json").write_text(instance_to_json(inst) + "\n")
        print(f"wrote {prefix}.instance.json (n={inst.n})", file=sys.stderr)
        return 0
    if args.weights:
        reduction = _parse_triangle_weights(args.weights, args.n)
    else:
        from .instance import random_reduction_input

        reduction = random_reduction_input(args.n, args.seed, args.wmax)
    inst, tour = gen_negative_triangle_reduction(reduction, nonnegative=args.shift)
    Path(f"{prefix}.instance.json").write_text(instance_to_json(inst) + "\n")
    Path(f"{prefix}.tour.json").write_text(tour_to_json(tour) + "\n")
    print(
        f"wrote {prefix}.instance.json and {prefix}.tour.json (n={inst.n})",
        file=sys.stderr,
    )
    return 0


def cmd_oracle(args) -> int:
    if args.oracle_command == "best-move":
        inst = _read_instance(args.infile)
        tour = _read_tour(args.tour)
        res = oracle.naive_best_move(inst, tour, args.k)
        payload = res.witness.to_dict()
        payload["improving"] = res.value > 0
        _emit(payload, args.out)
        return 0 if res.value > 0 else 1
    if args.oracle_command == "treewidth":
        k, edges = _json_fields(Path(args.graph).read_text(), k=int, edges=list)
        if any(type(e) is not list or [type(v) for v in e] != [int, int] for e in edges):
            raise FormatError("'edges' must be a list of [int, int] pairs")
        g = DepGraph(k=k, edges=frozenset(tuple(e) for e in edges))
        res = oracle.treewidth_bruteforce(g)
        _emit({"width": res.value, "order": list(res.witness)}, None)
        return 0
    if args.oracle_command == "neg-triangle":
        n, weights = _json_fields(Path(args.infile).read_text(), n=int, weights=list)
        g = ReductionInput(n=n, weights=weights)
        res = oracle.has_negative_triangle(g)
        payload = {"negative_triangle": res.value}
        if res.witness:
            i, j, l, total = res.witness
            payload["witness"] = {"vertices": [i, j, l], "total": total}
        _emit(payload, None)
        return 0
    raise CliError(f"unknown oracle command {args.oracle_command!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kopt", description="k-move search for TSP tours"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_move_args(p):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--alpha", default=None, help='bucket exponent, e.g. "3/4"')
        p.add_argument("--policy", choices=("best", "first"), default="best")
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--tour", required=True)
        p.add_argument("--out", default=None)

    p = sub.add_parser("find-move", help="best (or first improving) k-move")
    add_move_args(p)
    p.set_defaults(func=cmd_find_move)

    p = sub.add_parser("local-search", help="iterate improving k-moves")
    add_move_args(p)
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(func=cmd_local_search)

    p = sub.add_parser("ck", help="runtime exponent c(k) and optimal alpha")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--per-pattern", action="store_true")
    p.add_argument("--allow-large-k", action="store_true")
    p.set_defaults(func=cmd_ck)

    p = sub.add_parser("patterns", help="count or list valid connection patterns")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_patterns)

    p = sub.add_parser("gen", help="write instance (and tour) files")
    p.add_argument("--type", choices=("random", "neg-triangle"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--wmax", type=int, default=100)
    p.add_argument("--weights", default=None, help="upper triangle, row-major")
    p.add_argument("--shift", action="store_true", help="shift weights nonnegative")
    p.add_argument("--out-prefix", default="kopt")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("oracle", help="brute-force reference computations")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = osub.add_parser("best-move")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--tour", required=True)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_oracle)
    q = osub.add_parser("treewidth")
    q.add_argument("--graph", required=True, help='JSON {"k": int, "edges": [[i,j]]}')
    q.set_defaults(func=cmd_oracle)
    q = osub.add_parser("neg-triangle")
    q.add_argument("--in", dest="infile", required=True)
    q.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (
        CliError, ValueError, OSError, KeyError, oracle.BudgetExceededError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
