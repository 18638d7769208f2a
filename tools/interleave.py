"""Interleaved A/B timing of warm best_move calls from two source trees.

    python3 tools/interleave.py PARENT_SRC CHANGE_SRC --k 5 --n 40 [--alpha A] [--tour random|J] [--reps R]

Each source path is a `src` directory that holds a `kopt` package. Both
packages are copied under names of their own into a temporary directory and
imported into one process; `kopt` imports its own modules only relatively, so
the two copies do not clash. The input is gen_random(n, 0, 10000) with
random_tour(n, 1), or, with `--tour J`, the tour that local_search(..., J),
at its default policy and alpha, reaches from that random tour (run by the
parent tree). Each tree makes one cold call; then the trees alternate warm
calls, the first of each pair switching sides, so that both see the same
drift in machine speed. Every call of both trees must give the same
(gain, embedding). The last line gives each tree's median warm time and the
ratio change / parent.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path


def load(src: Path, name: str, into: Path):
    """The `kopt` package under `src`, copied into `into` and imported as `name`."""
    package = src / "kopt"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"{src} holds no kopt package")
    shutil.copytree(package, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path, help="the parent tree's src directory")
    p.add_argument("change", type=Path, help="the changed tree's src directory")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=Fraction, default=None, help="default: best_move's")
    p.add_argument("--tour", default="random",
                   help="'random', or J: the local_search(..., J) optimum from it")
    p.add_argument("--reps", type=int, default=5, help="warm calls per tree")
    args = p.parse_args(argv)
    if args.reps < 1:
        p.error("--reps must be >= 1")
    if args.tour != "random" and not args.tour.isdigit():
        p.error("--tour must be 'random' or a k")

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            trees = [load(args.parent.resolve(), "kopt_parent", Path(tmp)),
                     load(args.change.resolve(), "kopt_change", Path(tmp))]
        finally:
            sys.path.remove(tmp)
        parent = trees[0]
        inst, tour = parent.gen_random(args.n, 0, 10000), parent.random_tour(args.n, 1)
        if args.tour != "random":
            tour = parent.local_search(inst, tour, int(args.tour))[0]
        inputs = [(kopt.Instance(n=inst.n, weights=inst.weights), kopt.Tour(tour.order))
                  for kopt in trees]

        def call(side: int) -> float:
            kopt, (inst, tour) = trees[side], inputs[side]
            start = time.perf_counter()
            res = kopt.best_move(inst, tour, args.k, alpha=args.alpha)
            took = time.perf_counter() - start
            answers[side].append((res.gain, res.embedding))
            return took

        answers: list[list] = [[], []]
        for side in (0, 1):
            call(side)  # cold: builds the class table and plans
        times: list[list[float]] = [[], []]
        for rep in range(args.reps):
            for side in (rep % 2, 1 - rep % 2):
                times[side].append(call(side))
        if answers[0] != answers[1]:
            raise SystemExit(f"the trees disagree: {answers[0][0]} against {answers[1][0]}")
    parent_s, change_s = (statistics.median(t) for t in times)
    alpha = "default" if args.alpha is None else args.alpha
    print(f"k={args.k} n={args.n} alpha={alpha} tour={args.tour} gain={answers[0][0][0]}"
          f" reps={args.reps}")
    print(f"parent {parent_s:.4f} s  change {change_s:.4f} s  ratio {change_s / parent_s:.3f}")


if __name__ == "__main__":
    main()
