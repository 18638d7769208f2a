"""Independent brute-force references for the solver, treewidth (and the
effective width under order-only edges), and the negative-triangle reduction.

These deliberately share no nontrivial code with the implementations they
check: the move search enumerates embeddings directly, the treewidth oracle
tries elimination orders with explicit fill-in (tracking, when given
order-only edges, which of them fill has not touched), and the triangle scan
is a plain loop. Budget guards are explicit; oracles either finish
exhaustively or refuse.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np

from .buckets import BucketPartition, order_edges
from .decomp import DepGraph
from .instance import Instance, Tour
from .moves import (
    ConnectionPattern,
    InvariantError,
    apply_move,
    as_kmove,
    endpoint_is_right,
    gain_partial,
    slot_of_endpoint,
    valid_pattern_count,
    valid_patterns,
)


class BudgetExceededError(RuntimeError):
    """The requested exhaustive search is larger than the given budget."""


@dataclass(frozen=True)
class OracleResult:
    """value is the oracle's answer; witness re-evaluates to it when present."""

    value: object
    witness: object


def naive_best_move(
    inst: Instance, tour: Tour, k: int, budget: int = 10**8
) -> OracleResult:
    """Maximum gain over all valid patterns and all strictly increasing
    embeddings, by direct enumeration. value: int gain; witness: KMove."""
    n = inst.n
    if n < 2 * k:
        raise ValueError(f"instance too small: need n >= {2 * k}")
    work = comb(n, k) * valid_pattern_count(k)
    if work > budget:
        raise BudgetExceededError(f"{work} candidate moves exceed budget {budget}")
    patterns = valid_patterns(k)

    order0 = np.asarray(tour.order, dtype=np.int64) - 1
    left = order0
    right = np.roll(order0, -1)
    weights = inst.weights
    removed_w = weights[left, right]

    total = comb(n, k)
    combos = np.fromiter(
        chain.from_iterable(combinations(range(n), k)), dtype=np.int64, count=total * k
    ).reshape(total, k)
    base = removed_w[combos].sum(axis=1)

    best_gain = None
    best_key = None  # (pattern index, combo row)
    for p_idx, pattern in enumerate(patterns):
        added = np.zeros(len(combos), dtype=np.int64)
        for a, b in pattern.pairs:
            sa = right if endpoint_is_right(a) else left
            sb = right if endpoint_is_right(b) else left
            va = sa[combos[:, slot_of_endpoint(a) - 1]]
            vb = sb[combos[:, slot_of_endpoint(b) - 1]]
            added += weights[va, vb]
        gains = base - added
        row = int(gains.argmax())
        gain = int(gains[row])
        if best_gain is None or gain > best_gain:
            best_gain, best_key = gain, (p_idx, row)
    p_idx, row = best_key
    pattern = patterns[p_idx]
    embedding = tuple(int(v) + 1 for v in combos[row])
    move = as_kmove(inst, tour, pattern, embedding)
    apply_move(inst, tour, pattern, embedding)
    if move.gain != best_gain:
        raise InvariantError(f"oracle witness gains {move.gain}, not {best_gain}")
    return OracleResult(value=best_gain, witness=move)


def treewidth_bruteforce(
    g: DepGraph, max_vertices: int = 8, order_only=frozenset()
) -> OracleResult:
    """Minimum over all elimination orders of the fill-aware elimination width:
    eliminating v costs its degree in the filled graph, less one when an edge
    of `order_only` that no fill has touched joins it to a remaining vertex
    (with no such edges, the treewidth).
    value: int width; witness: the lexicographically smallest optimal order."""
    k = g.k
    if k > max_vertices:
        raise BudgetExceededError(f"{k}! elimination orders is too many")
    base_adj: dict[int, set[int]] = {v: set() for v in range(1, k + 1)}
    for a, b in g.edges:
        base_adj[a].add(b)
        base_adj[b].add(a)
    base_pure = {frozenset(e) for e in order_only}
    if not base_pure <= {frozenset(e) for e in g.edges}:
        raise ValueError("order-only edges must be edges of the graph")

    best = k  # upper bound: width never exceeds k-1
    best_order: tuple[int, ...] | None = None

    def search(adj: dict[int, set[int]], pure, order: list[int], width: int):
        nonlocal best, best_order
        if not adj:
            if width < best or best_order is None:
                best, best_order = width, tuple(order)
            return
        for v in sorted(adj):
            nbrs = adj[v]
            cost = len(nbrs) - any(frozenset((v, u)) in pure for u in nbrs)
            new_width = max(width, cost)
            if new_width >= best and best_order is not None:
                continue
            rest = {
                u: (others | nbrs) - {u, v} if u in nbrs else others - {v}
                for u, others in adj.items()
                if u != v
            }
            order.append(v)
            # fill joins every two of v's neighbours
            search(rest, {e for e in pure if not e <= nbrs}, order, new_width)
            order.pop()

    search(base_adj, base_pure, [], 0)
    return OracleResult(value=best, witness=best_order)


def enumerate_b_monotone_max(
    inst: Instance,
    tour: Tour,
    m: ConnectionPattern,
    assignment: tuple[int, ...],
    part: BucketPartition,
    budget: int = 10**7,
) -> OracleResult:
    """Exhaustive maximum of the gain over all full bucket-monotone embeddings.
    value: gain or None when no such embedding exists; witness: embedding."""
    k = m.k
    slots_per_bucket: dict[int, list[int]] = {}
    for slot, b in enumerate(assignment, start=1):
        slots_per_bucket.setdefault(b, []).append(slot)

    work = 1
    for b in slots_per_bucket:
        work *= part.bucket_size(b)
    if work > budget:
        raise BudgetExceededError(f"bucket-size product {work} exceeds budget {budget}")

    # A full b-monotone embedding assigns each bucket's slots (consecutive by
    # nondecreasingness) an increasing run of indices inside that bucket.
    per_bucket_choices = []
    for b, slots in sorted(slots_per_bucket.items()):
        choices = [
            dict(zip(slots, combo))
            for combo in combinations(part.indices(b), len(slots))
        ]
        if not choices:
            return OracleResult(value=None, witness=None)
        per_bucket_choices.append(choices)

    best_gain = None
    best_emb = None

    def rec(idx: int, partial: dict[int, int]):
        nonlocal best_gain, best_emb
        if idx == len(per_bucket_choices):
            gain = gain_partial(inst, tour, m, partial)
            emb = tuple(partial[i] for i in range(1, k + 1))
            if best_gain is None or gain > best_gain or (
                gain == best_gain and emb < best_emb
            ):
                best_gain, best_emb = gain, emb
            return
        for choice in per_bucket_choices[idx]:
            partial.update(choice)
            rec(idx + 1, partial)

    rec(0, {})
    return OracleResult(value=best_gain, witness=best_emb)


def has_negative_triangle(g: Instance, max_vertices: int = 200) -> OracleResult:
    """Scan all triangles; value: bool; witness: (i, j, k, total) for the
    lexicographically first negative triangle, else None."""
    if g.n > max_vertices:
        raise BudgetExceededError(f"n={g.n} exceeds the triangle-scan bound")
    w = g.weights
    for i, j, l in combinations(range(g.n), 3):
        total = int(w[i, j]) + int(w[j, l]) + int(w[i, l])
        if total < 0:
            return OracleResult(value=True, witness=(i + 1, j + 1, l + 1, total))
    return OracleResult(value=False, witness=None)
