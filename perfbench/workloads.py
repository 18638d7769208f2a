"""The three kopt workloads: inputs from a seed, one operation, and its checks.

Why each workload is there is in BENCHMARK.json and README.md.

An operation is one `best_move` call (move workloads) or one whole
`local_search` (search workload). The library gets only the generated
`Instance` and `Tour`, with its default alpha and threads. Checks run outside
the timed region and return a list of failure messages, empty when the result
is correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

WMAX = 10_000
ORACLE_BUDGET = 10**9


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "move" or "search"
    k: int
    n: int
    # operations in one untraced run, the cold one of each worker included;
    # worker j of W runs operations j, j+W, ... (a move repeats its one input,
    # a search takes input i for operation i)
    ops: int
    # seed -> best gain, computed once with oracle.naive_best_move; a traced
    # run recomputes it for its seed and compares
    pinned_gain: dict[int, int] = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "move-k5-n40", "move", 5, 40, 6,
            {
                0: 43891, 1: 38094, 2: 44145, 3: 37309, 4: 42866,
                5: 44174, 6: 41205, 7: 39310, 8: 41500, 9: 38829,
                10: 37517, 11: 40997, 12: 41233, 13: 43803, 14: 40668,
                15: 39116, 16: 39157, 17: 40145, 18: 39984, 19: 37499,
                20: 42406, 21: 42031, 22: 38437, 23: 40809, 24: 40517,
                25: 42854, 26: 41054, 27: 37989, 28: 39984, 29: 39504,
                30: 42393, 31: 41167, 32: 37068, 33: 41969, 34: 40910,
                35: 38538, 36: 39034, 37: 41517, 38: 39582, 39: 38012,
                40: 43792, 41: 36597, 42: 39817, 43: 37412, 44: 39406,
                45: 42723, 46: 39998, 47: 40251, 48: 40308, 49: 36381,
            },
        ),
        Workload(
            "move-k4-n64", "move", 4, 64, 7,
            {
                0: 35390, 1: 35150, 2: 34477, 3: 35851, 4: 34881,
                5: 35926, 6: 31368, 7: 35818, 8: 32545, 9: 35554,
                10: 34744, 11: 36853, 12: 34082, 13: 34253, 14: 35200,
                15: 34167, 16: 35717, 17: 35738, 18: 35959, 19: 34403,
                20: 34465, 21: 34319, 22: 34253, 23: 34239, 24: 35953,
                25: 36453, 26: 35903, 27: 33468, 28: 32654, 29: 33726,
                30: 33478, 31: 33468, 32: 36453, 33: 34624, 34: 35611,
                35: 35763, 36: 33320, 37: 34506, 38: 33812, 39: 35632,
                40: 35101, 41: 33985, 42: 34243, 43: 34235, 44: 33448,
                45: 33849, 46: 34282, 47: 35589, 48: 34970, 49: 34602,
            },
        ),
        Workload("search-k3-n100", "search", 3, 100, 28),
    )
}


class Inputs:
    """The inputs of one workload and seed: input i is an (instance, tour) pair.

    A move workload has one input, used by every operation. The search
    workload has an endless list; each entry has its own instance and start
    tour, so a run samples many instances and nothing per instance or tour can
    be reused. Input i is the same in every run with this seed.
    """

    def __init__(self, kopt, w: Workload, seed: int):
        self.kopt, self.w, self.seed = kopt, w, seed
        if w.kind == "move":
            self._only = (kopt.gen_random(w.n, seed, WMAX), kopt.random_tour(w.n, seed + 1))

    def get(self, i: int):
        if self.w.kind == "move":
            return self._only
        inst_seed, tour_seed = np.random.SeedSequence([self.seed, i]).generate_state(2)
        return (self.kopt.gen_random(self.w.n, int(inst_seed), WMAX),
                self.kopt.random_tour(self.w.n, int(tour_seed)))


def run_op(dpengine, w: Workload, inst, tour):
    # looked up on the module at call time, so a tracer's wrapper is used
    if w.kind == "move":
        return dpengine.best_move(inst, tour, w.k)
    return dpengine.local_search(inst, tour, w.k, policy="first")


def check_move(kopt, inst, tour, res) -> list[str]:
    """The move applies, and the tour weight drops by exactly its gain."""
    if res.move is None or res.gain is None:
        return ["best_move returned no move"]
    if res.move.gain != res.gain:
        return [f"move gain {res.move.gain} != result gain {res.gain}"]
    new = kopt.apply_move(inst, tour, res.move.pattern, res.embedding)
    delta = kopt.tour_weight(inst, new) - kopt.tour_weight(inst, tour)
    if delta != -res.gain:
        return [f"weight change {delta} != -gain {-res.gain}"]
    return []


def check_search(kopt, oracle, w: Workload, inst, start, out, oracle_memo) -> list[str]:
    """Weights strictly decrease step by step, the final tour carries the last
    recorded weight, and the oracle finds no improving k-move from it."""
    final, history = out
    fails = []
    weight = kopt.tour_weight(inst, start)
    for step in history:
        if step.gain <= 0 or step.tour_weight != weight - step.gain:
            fails.append(f"step {step.step}: gain {step.gain}, weight "
                         f"{weight} -> {step.tour_weight}")
        weight = step.tour_weight
    if kopt.tour_weight(inst, final) != weight:
        fails.append(f"final tour weight {kopt.tour_weight(inst, final)} != {weight}")
    key = final.order
    if key not in oracle_memo:
        oracle_memo[key] = oracle.naive_best_move(inst, final, w.k, ORACLE_BUDGET).value
    if oracle_memo[key] > 0:
        fails.append(f"final tour has an improving {w.k}-move of gain {oracle_memo[key]}")
    return fails
