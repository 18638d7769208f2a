"""The kopt layers the benchmark traces, and the per-layer metrics taken from them.

Each layer function is wrapped at the module attribute where its caller looks
it up: `solve_fixed` calls `dpengine.gain_partial`, while `as_kmove` calls
`moves.gain_partial`, so both attributes carry the span `moves.gain_partial`.
A span name is `<defining layer>.<function>`. A target whose attribute no
longer exists is skipped, and its metrics read 0.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict

from tracer import ARGS, END, NAME, PARENT, RESULT, START, Target, ancestor, self_times

BYTES_PER_ENTRY = 8  # DP tables are float64

# (metric, unit, better). `.calls` is calls per operation, `.s` inclusive
# seconds per operation, `.self_s` seconds per operation outside child spans.
# `cold.*` comes from the first operation of a fresh process, when the
# pattern and decomposition caches are empty.
PER_LAYER = [
    ("dpengine.best_move.calls", "count", "lower"),
    ("dpengine.best_move.s", "s", "lower"),
    ("dpengine.best_move.self_s", "s", "lower"),
    ("dpengine.solve_fixed.calls", "count", "lower"),
    ("dpengine.solve_fixed.self_s", "s", "lower"),
    ("dpengine.solve_fixed.us_per_call", "us", "lower"),
    ("dpengine.solve_fixed.feasible_frac", "fraction", "higher"),
    ("dpengine.plans", "count", "lower"),
    ("dpengine.cells_per_plan", "cells/plan", "higher"),
    ("dpengine.table_cells", "count", "lower"),
    ("dpengine.peak_table_bytes", "B", "lower"),
    ("dpengine.TourArrays.calls", "count", "lower"),
    ("dpengine.TourArrays.s", "s", "lower"),
    ("buckets.bucket_size", "count", "lower"),
    ("buckets.bucket_count", "count", "lower"),
    ("buckets.order_edges.s", "s", "lower"),
    ("moves.valid_patterns.s", "s", "lower"),
    ("moves.gain_partial.calls", "count", "lower"),
    ("moves.gain_partial.s", "s", "lower"),
    ("moves.as_kmove.calls", "count", "lower"),
    ("moves.as_kmove.s", "s", "lower"),
    ("moves.interference_graph.s", "s", "lower"),
    ("decomp.dependence_graph.s", "s", "lower"),
    ("moves.apply_move.calls", "count", "lower"),
    ("moves.apply_move.s", "s", "lower"),
    ("instance.tour_weight.calls", "count", "lower"),
    ("instance.tour_weight.s", "s", "lower"),
    ("decomp.nice_decomposition_for.calls", "count", "lower"),
    ("decomp.nice_decomposition_for.s", "s", "lower"),
    ("decomp.treewidth_exact.calls", "count", "lower"),
    ("decomp.treewidth_exact.s", "s", "lower"),
    ("cold.moves.valid_patterns.s", "s", "lower"),
    ("cold.decomp.nice_decomposition_for.s", "s", "lower"),
    ("cold.decomp.treewidth_exact.calls", "count", "lower"),
    ("cold.decomp.treewidth_exact.s", "s", "lower"),
    ("oracle.naive_best_move.s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
]

COLD = [m for m, _, _ in PER_LAYER if m.startswith("cold.")]


def targets(dpengine, moves) -> list[Target]:
    T = Target
    return [
        T(dpengine, "local_search", "dpengine.local_search"),
        T(dpengine, "best_move", "dpengine.best_move"),
        T(dpengine, "solve_fixed", "dpengine.solve_fixed", keep_args=True, keep_result=True),
        T(dpengine, "TourArrays", "dpengine.TourArrays"),
        T(dpengine, "make_buckets", "buckets.make_buckets", keep_result=True),
        T(dpengine, "order_edges", "buckets.order_edges"),
        T(dpengine, "valid_patterns", "moves.valid_patterns"),
        T(dpengine, "interference_graph", "moves.interference_graph"),
        T(dpengine, "dependence_graph", "decomp.dependence_graph"),
        T(dpengine, "nice_decomposition_for", "decomp.nice_decomposition_for", keep_result=True),
        T(dpengine, "treewidth_exact", "decomp.treewidth_exact"),
        T(dpengine, "gain_partial", "moves.gain_partial"),
        T(dpengine, "as_kmove", "moves.as_kmove"),
        T(dpengine, "apply_move", "moves.apply_move"),
        T(dpengine, "tour_weight", "instance.tour_weight"),
        T(moves, "gain_partial", "moves.gain_partial"),
        T(moves, "as_kmove", "moves.as_kmove"),
        T(moves, "tour_weight", "instance.tour_weight"),
    ]


def bucket_choice(spans: list[list]) -> list[dict]:
    """Distinct (size, count) of the partitions `make_buckets` returned."""
    seen = []
    for s in spans:
        if s[NAME] == "buckets.make_buckets" and s[RESULT] is not None:
            part = s[RESULT]
            choice = {"size": part.size, "count": part.count}
            if choice not in seen:
                seen.append(choice)
    return seen


def _table_work(nice, sizes: tuple[int, ...]) -> tuple[int, int]:
    """(sum, max) over decomposition nodes of the product of the bag slots'
    bucket sizes: the entries the DP tables hold, computed, not measured."""
    total = peak = 0
    for t in nice.postorder():
        entries = 1
        for slot in nice.nodes[t].bag:
            entries *= sizes[slot - 1]
        total += entries
        peak = max(peak, entries)
    return total, peak


def _cell_args(signature, recorded) -> dict | None:
    """(pattern, assignment, partition, decomposition) of a recorded
    `solve_fixed` call, read by parameter name; None if they are not there."""
    if signature is None:
        return None
    try:
        a = signature.bind(*recorded[0], **recorded[1]).arguments
        return {"m": a["m"], "assignment": tuple(a["assignment"]), "part": a["part"],
                "nice": a.get("nice")}
    except (TypeError, KeyError):
        return None


def op_values(spans: list[list], solve_fixed, order_edges) -> dict[str, float]:
    """Per-layer values of one operation from its spans. `solve_fixed` and
    `order_edges` are the unwrapped kopt functions; `solve_fixed` may be None
    when the program no longer has it."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    incl: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    nice_of: dict[int, object] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        own[name] += selfs[i]
        if ancestor(spans, i, name) < 0:
            incl[name] += s[END] - s[START]
        if name == "decomp.nice_decomposition_for" and s[PARENT] >= 0:
            nice_of[s[PARENT]] = s[RESULT]

    signature = inspect.signature(solve_fixed) if solve_fixed else None
    plans = set()
    feasible = 0
    table_cells = peak_entries = 0
    work_memo: dict[tuple, tuple[int, int]] = {}
    for i, s in enumerate(spans):
        if s[NAME] != "dpengine.solve_fixed":
            continue
        if getattr(s[RESULT], "gain", None) is not None:
            feasible += 1
        a = _cell_args(signature, s[ARGS])
        if a is None:
            continue
        m, assignment, part = a["m"], a["assignment"], a["part"]
        plans.add((ancestor(spans, i, "dpengine.best_move"), m, order_edges(assignment)))
        # solve_fixed returns before the DP when a bucket holds fewer edges
        # than the slots assigned to it
        if any(assignment.count(b) > part.bucket_size(b) for b in set(assignment)):
            continue
        nice = a.get("nice") or nice_of.get(i)
        if nice is None:
            continue
        sizes = tuple(part.bucket_size(b) for b in assignment)
        key = (id(nice), sizes)
        if key not in work_memo:
            work_memo[key] = _table_work(nice, sizes)
        total, peak = work_memo[key]
        table_cells += total
        peak_entries = max(peak_entries, peak)

    cells = calls["dpengine.solve_fixed"]
    buckets = bucket_choice(spans)
    out = {
        "dpengine.solve_fixed.us_per_call":
            1e6 * incl["dpengine.solve_fixed"] / cells if cells else 0.0,
        "dpengine.solve_fixed.feasible_frac": feasible / cells if cells else 0.0,
        "dpengine.plans": len(plans),
        "dpengine.cells_per_plan": cells / len(plans) if plans else 0.0,
        "dpengine.table_cells": table_cells,
        "dpengine.peak_table_bytes": BYTES_PER_ENTRY * peak_entries,
        "buckets.bucket_size": buckets[0]["size"] if buckets else 0,
        "buckets.bucket_count": buckets[0]["count"] if buckets else 0,
    }
    for metric, _, _ in PER_LAYER:
        if metric in out or metric.startswith(("cold.", "oracle.", "trace.")):
            continue
        layer, kind = metric.rsplit(".", 1)
        if kind == "calls":
            out[metric] = calls[layer]
        elif kind == "s":
            out[metric] = incl[layer]
        elif kind == "self_s":
            out[metric] = own[layer]
    return out

