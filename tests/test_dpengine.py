"""The tree-decomposition DP solver and driver."""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from kopt.buckets import enumerate_assignments, make_buckets, order_edges
from kopt.decomp import (
    FORGET,
    INTRODUCE,
    JOIN,
    NiceNode,
    NiceTreeDecomposition,
    dependence_graph,
)
from kopt.dpengine import (
    TourArrays,
    best_move,
    local_search,
    nice_decomposition_for,
    solve_fixed,
)
from kopt.instance import (
    Instance,
    Tour,
    euclidean_instance,
    gen_random,
    random_tour,
    tour_weight,
)
from kopt.moves import (
    ConnectionPattern,
    apply_move,
    gain_partial,
    interference_graph,
    is_valid_pattern,
    valid_patterns,
)
from kopt.oracle import enumerate_b_monotone_max, naive_best_move

SQUARE = euclidean_instance([(0, 0), (10, 0), (10, 10), (0, 10)])
CROSSING = Tour((1, 3, 2, 4))
IDENTITY_2 = ConnectionPattern(2, ((1, 2), (3, 4)))
SWAP_2 = ConnectionPattern(2, ((1, 3), (2, 4)))


def solve_one(inst, tour, m, assignment, part):
    return solve_fixed(inst, tour, m, assignment, part)


def test_identity_pattern_single_bucket_gains_zero():
    inst = gen_random(8, 0, 100)
    tour = random_tour(8, 1)
    part = make_buckets(8, 1)
    res = solve_one(inst, tour, IDENTITY_2, (1, 1), part)
    assert res.gain == 0


def test_swap_pattern_uncrosses_square():
    part = make_buckets(4, 1)
    res = solve_one(SQUARE, CROSSING, SWAP_2, (1, 1), part)
    assert res.gain == 8
    assert res.embedding == (1, 3)
    new = apply_move(SQUARE, CROSSING, SWAP_2, res.embedding)
    assert tour_weight(SQUARE, new) == 40


def test_solver_returns_absent_when_bucket_too_small():
    inst = gen_random(8, 2, 100)
    tour = random_tour(8, 3)
    part = make_buckets(8, 0)  # singleton buckets
    res = solve_one(inst, tour, SWAP_2, (3, 3), part)  # two slots, one index
    assert res.gain is None and res.embedding is None and res.move is None


@pytest.mark.parametrize("k", [2, 3])
def test_solve_fixed_matches_exhaustive_enumeration(k):
    from kopt.buckets import BucketPartition

    inst = gen_random(8, 4, 100)
    tour = random_tour(8, 5)
    for size in (8, 4, 2):  # 1, 2, and 4 buckets
        part = BucketPartition(n=8, size=size)
        for m in valid_patterns(k):
            for assignment in enumerate_assignments(k, part.count):
                dp = solve_one(inst, tour, m, assignment, part)
                brute = enumerate_b_monotone_max(inst, tour, m, assignment, part)
                assert dp.gain == brute.value, (m.pairs, assignment)


def test_dp_tables_match_definitional_maxima():
    """Every table entry equals the definitional max over extensions, checked
    by exhaustive enumeration on a small instance; this validates the
    introduce, forget, and (sign-corrected) join rules independently."""
    inst = gen_random(8, 6, 100)
    tour = random_tour(8, 7)
    n = 8

    for k, m in [(2, SWAP_2), (3, ConnectionPattern(3, ((2, 5), (4, 1), (6, 3))))]:
        from kopt.buckets import BucketPartition

        part = BucketPartition(n=n, size=4)
        for assignment in enumerate_assignments(k, part.count):
            obs = order_edges(assignment)
            dep = dependence_graph(interference_graph(m), obs)
            nice = nice_decomposition_for(dep)
            reference = _reference_tables(inst, tour, m, assignment, part, nice)
            _compare_all_tables(inst, tour, m, assignment, part, nice, reference)


def _legal(inst, tour, m, assignment, part, f):
    """Key/extension legality: bucket membership, in-bag order, loop-free."""
    from kopt.buckets import check_b_monotone

    if not check_b_monotone(assignment, part, f):
        return False
    from kopt.moves import _endpoint_vertex, slot_of_endpoint

    for a, b in m.pairs:
        ia, ib = slot_of_endpoint(a), slot_of_endpoint(b)
        if ia != ib and ia in f and ib in f:
            if _endpoint_vertex(tour, a, f[ia]) == _endpoint_vertex(tour, b, f[ib]):
                return False
    return True


def _multiset_gain(inst, tour, m, f):
    from kopt.moves import _endpoint_vertex, slot_of_endpoint

    total = 0
    for i in f:
        left, right = tour.edge(f[i])
        total += inst.weight(left, right)
    for a, b in m.pairs:
        ia, ib = slot_of_endpoint(a), slot_of_endpoint(b)
        if ia in f and ib in f:
            u = _endpoint_vertex(tour, a, f[ia])
            v = _endpoint_vertex(tour, b, f[ib])
            total -= 0 if u == v else inst.weight(u, v)
    return total


def _reference_tables(inst, tour, m, assignment, part, nice):
    """Definitional DP tables by brute force: for each node, the max gain over
    legal extensions of each legal bag key to the subtree's slots."""
    subtree_slots = {}
    for t in nice.postorder():
        nd = nice.nodes[t]
        slots = set(nd.bag)
        for c in nd.children:
            slots |= subtree_slots[c]
        subtree_slots[t] = slots

    tables = {}
    for t in nice.postorder():
        nd = nice.nodes[t]
        slots = sorted(subtree_slots[t])
        bag = sorted(nd.bag)
        table = {}
        domains = [part.indices(assignment[s - 1]) for s in slots]
        for values in product(*domains):
            g = dict(zip(slots, values))
            if not _legal(inst, tour, m, assignment, part, g):
                continue
            key = tuple(g[s] for s in bag)
            gain = _multiset_gain(inst, tour, m, g)
            if key not in table or gain > table[key]:
                table[key] = gain
        tables[t] = table
    return tables


def _compare_all_tables(inst, tour, m, assignment, part, nice, reference):
    from kopt.dpengine import _Cells, _run_plan, compile_plan

    arrays = TourArrays(inst, tour)
    plan = compile_plan(m, order_edges(assignment))
    _, _, tables = _run_plan(plan, _Cells(arrays, part, [assignment]), keep_tables=True)
    for t, got in zip(nice.postorder(), tables, strict=True):
        bag = sorted(nice.nodes[t].bag)
        ref = reference[t]
        domain_lists = [list(part.indices(assignment[s - 1])) for s in bag]
        for idx in product(*[range(len(d)) for d in domain_lists]):
            key = tuple(domain_lists[ax][i] for ax, i in enumerate(idx))
            value = float(got[(0,) + idx])
            if key in ref:
                assert value == ref[key], (t, key)
            else:
                assert value == float("-inf"), (t, key, value)

    solved = solve_fixed(inst, tour, m, assignment, part, nice, arrays=arrays)
    root_ref = reference[nice.root]
    if not root_ref:
        assert solved.gain is None
    else:
        assert solved.gain == root_ref[()]
        check = gain_partial(inst, tour, m, dict(enumerate(solved.embedding, 1)))
        assert check == solved.gain


def test_join_rule_against_synthetic_decomposition():
    """A handmade decomposition with a join whose bag slot is introduced in
    both branches; the paper-literal join sign would double-count it."""
    inst = gen_random(9, 8, 100)
    tour = random_tour(9, 9)
    # valid k=3 pattern: slots 1,2 doubly interfere, slot 3 re-added
    m = ConnectionPattern(3, ((1, 3), (2, 4), (5, 6)))
    ig = interference_graph(m)
    assert ig.edges == frozenset({(1, 2)}) and ig.readded_slots == frozenset({3})

    nodes = (
        NiceNode("leaf", frozenset(), None, ()),
        NiceNode("introduce", frozenset({1}), 1, (0,)),
        NiceNode("introduce", frozenset({1, 2}), 2, (1,)),
        NiceNode("forget", frozenset({2}), 1, (2,)),
        NiceNode("leaf", frozenset(), None, ()),
        NiceNode("introduce", frozenset({2}), 2, (4,)),
        NiceNode("introduce", frozenset({2, 3}), 3, (5,)),
        NiceNode("forget", frozenset({2}), 3, (6,)),
        NiceNode("join", frozenset({2}), None, (3, 7)),
        NiceNode("forget", frozenset(), 2, (8,)),
    )
    nice = NiceTreeDecomposition(k=3, nodes=nodes, root=9)

    from kopt.buckets import BucketPartition

    for size, assignment in [(9, (1, 1, 1)), (5, (1, 1, 2)), (3, (1, 2, 3))]:
        part = BucketPartition(n=9, size=size)
        obs = order_edges(assignment)
        dep = dependence_graph(ig, obs)
        if any(not any(a in nd.bag and b in nd.bag for nd in nodes) for a, b in dep.edges):
            continue
        res = solve_fixed(inst, tour, m, assignment, part, nice)
        brute = enumerate_b_monotone_max(inst, tour, m, assignment, part)
        assert res.gain == brute.value
        if res.gain is not None:
            assert gain_partial(
                inst, tour, m, dict(enumerate(res.embedding, 1))
            ) == res.gain


def test_solve_fixed_rejects_wrong_decomposition():
    inst = gen_random(8, 10, 100)
    tour = random_tour(8, 11)
    part = make_buckets(8, 1)
    m3 = ConnectionPattern(3, ((2, 5), (4, 1), (6, 3)))  # interference 3-cycle
    dep_without_edges = dependence_graph(interference_graph(IDENTITY_2), frozenset())
    nice2 = nice_decomposition_for(dep_without_edges)
    with pytest.raises(ValueError):
        solve_fixed(inst, tour, m3, (1, 1, 1), part, nice2)
    # covers every edge of the 3-cycle, but slot 2 appears at an introduce
    # node whose child bag lacks it, so no node introduces slot 2
    skips_slot_2 = NiceTreeDecomposition(
        k=3,
        nodes=(
            NiceNode("leaf", frozenset(), None, ()),
            NiceNode("introduce", frozenset({1}), 1, (0,)),
            NiceNode("introduce", frozenset({1, 2, 3}), 3, (1,)),
            NiceNode("forget", frozenset({2, 3}), 1, (2,)),
            NiceNode("forget", frozenset({3}), 2, (3,)),
            NiceNode("forget", frozenset(), 3, (4,)),
        ),
        root=5,
    )
    with pytest.raises(ValueError, match="introduce node 2 bag rule violated"):
        solve_fixed(inst, tour, m3, (1, 1, 1), part, skips_slot_2)
    # a valid decomposition of the 3-cycle that also introduces and forgets
    # a slot 4 the pattern does not have
    has_slot_4 = NiceTreeDecomposition(
        k=3,
        nodes=(
            NiceNode("leaf", frozenset(), None, ()),
            NiceNode("introduce", frozenset({1}), 1, (0,)),
            NiceNode("introduce", frozenset({1, 2}), 2, (1,)),
            NiceNode("introduce", frozenset({1, 2, 3}), 3, (2,)),
            NiceNode("introduce", frozenset({1, 2, 3, 4}), 4, (3,)),
            NiceNode("forget", frozenset({1, 2, 3}), 4, (4,)),
            NiceNode("forget", frozenset({2, 3}), 1, (5,)),
            NiceNode("forget", frozenset({3}), 2, (6,)),
            NiceNode("forget", frozenset(), 3, (7,)),
        ),
        root=8,
    )
    with pytest.raises(ValueError, match="slot 4 is outside 1..3"):
        solve_fixed(inst, tour, m3, (1, 1, 1), part, has_slot_4)


def _instance_up_to(n, bound, seed):
    """Random symmetric weights in [-bound, bound], both ends included."""
    upper = np.triu(
        np.random.default_rng(seed).integers(-bound, bound, size=(n, n), endpoint=True), 1
    )
    upper[0, 1], upper[2, 3] = bound, -bound
    return Instance(n=n, weights=upper + upper.T)


def _k10_cell(bound, seed, dtype):
    """solve_fixed and the brute-force maximum of one k = 10 cell, whose
    tables are of `dtype`: the first valid pattern of a seeded search,
    weights up to `bound`, two buckets of 10 with five slots each."""
    from kopt.buckets import BucketPartition

    rng = random.Random(seed)
    while True:
        ends = list(range(1, 21))
        rng.shuffle(ends)
        m = ConnectionPattern(10, tuple(zip(ends[::2], ends[1::2])))
        if is_valid_pattern(m):
            break
    inst, tour = _instance_up_to(20, bound, seed), random_tour(20, seed + 1)
    part = BucketPartition(n=20, size=10)
    assignment = (1,) * 5 + (2,) * 5
    assert TourArrays(inst, tour).dtype(10) is dtype
    return (solve_fixed(inst, tour, m, assignment, part),
            enumerate_b_monotone_max(inst, tour, m, assignment, part))


def test_float64_exact_at_the_weight_bound_with_k10():
    """Weights span the whole [-2^40, 2^40] range the instance allows, and the
    gain exceeds 2^40: the float64 tables must still give the exact integer
    maximum over the cell's bucket-monotone embeddings."""
    res, brute = _k10_cell(1 << 40, 0, np.float64)
    assert res.gain == brute.value and res.gain > 1 << 40
    assert res.embedding == brute.witness


def test_float32_exact_with_k10_and_small_weights():
    """solve_fixed is not capped at MAX_SOLVER_K: at k = 10 the dtype rule
    still sends weights up to 10000 to float32, and the gain stays exact."""
    res, brute = _k10_cell(10_000, 1, np.float32)
    assert res.gain == brute.value and res.embedding == brute.witness


def _table_dtypes(inst, tour, k, part):
    """The dtypes of every table a k = len(assignment) plan builds."""
    from kopt.dpengine import _Cells, _run_plan, compile_plan

    m, a = valid_patterns(k)[-1], (1,) * k
    _, _, tables = _run_plan(
        compile_plan(m, order_edges(a)), _Cells(TourArrays(inst, tour), part, [a]),
        keep_tables=True,
    )
    return {t.dtype for t in tables}


@pytest.mark.parametrize("k", [2, 3, 4])
def test_float32_exact_at_its_weight_bound(k):
    """At the largest weight magnitude the rule sends to float32,
    (2^24 - 1) // 4k, every cell gives the brute-force gain and witness; one
    more sends every table to float64."""
    from kopt.buckets import BucketPartition
    from kopt.dpengine import FLOAT32_EXACT

    n = 2 * k + 3
    bound = (FLOAT32_EXACT - 1) // (4 * k)
    inst, tour = _instance_up_to(n, bound, k), random_tour(n, k)
    part = BucketPartition(n=n, size=k + 1)
    arrays = TourArrays(inst, tour)
    assert arrays.max_weight == bound and arrays.dtype(k) is np.float32
    assert _table_dtypes(inst, tour, k, part) == {np.dtype(np.float32)}
    above = _instance_up_to(n, bound + 1, k)
    assert TourArrays(above, tour).dtype(k) is np.float64
    assert _table_dtypes(above, tour, k, part) == {np.dtype(np.float64)}
    for m in valid_patterns(k):
        for a in enumerate_assignments(k, part.count):
            res = solve_fixed(inst, tour, m, a, part, arrays=arrays)
            brute = enumerate_b_monotone_max(inst, tour, m, a, part)
            assert (res.gain, res.embedding) == (brute.value, brute.witness), (m.pairs, a)


@pytest.mark.parametrize("seed", range(6))
def test_best_move_matches_oracle_small(seed):
    inst = gen_random(10, seed, 100)
    tour = random_tour(10, seed + 100)
    for k in (2, 3):
        assert best_move(inst, tour, k, alpha=1).gain == naive_best_move(inst, tour, k).value


def test_alpha_choice_does_not_change_the_optimum():
    for seed in range(5):
        inst = gen_random(10, seed + 50, 100)
        tour = random_tour(10, seed + 150)
        gains = {
            alpha: best_move(inst, tour, 3, alpha=alpha).gain
            for alpha in (1, Fraction(3, 4), Fraction(1, 2), 0)
        }
        assert len(set(gains.values())) == 1, gains


def test_best_move_first_policy_returns_improving_move():
    inst = gen_random(10, 60, 100)
    tour = random_tour(10, 61)
    best = best_move(inst, tour, 2, alpha=1, policy="best")
    first = best_move(inst, tour, 2, alpha=1, policy="first")
    if best.improving:
        assert first.improving
        assert first.gain <= best.gain
    else:
        assert first.gain == best.gain


def test_best_move_deterministic():
    inst = gen_random(10, 62, 100)
    tour = random_tour(10, 63)
    a = best_move(inst, tour, 3, alpha=Fraction(1, 2))
    b = best_move(inst, tour, 3, alpha=Fraction(1, 2))
    assert (a.gain, a.embedding, a.move.pattern.pairs) == (
        b.gain,
        b.embedding,
        b.move.pattern.pairs,
    )


def test_best_move_guards():
    inst = gen_random(6, 64, 100)
    tour = random_tour(6, 65)
    with pytest.raises(ValueError, match="too small"):
        best_move(inst, tour, 4, alpha=1)
    with pytest.raises(ValueError):
        best_move(inst, tour, 2, alpha=1, policy="sometimes")
    with pytest.raises(ValueError, match="k must be <= 8"):
        best_move(inst, tour, 9)
    with pytest.raises(ValueError, match="max_steps must be >= 0"):
        local_search(inst, tour, 2, max_steps=-3)


def test_local_search_square_converges_in_one_step():
    final, history = local_search(SQUARE, CROSSING, 2, alpha=1)
    assert len(history) == 1 and history[0].gain == 8
    assert tour_weight(SQUARE, final) == 40


def test_local_search_zero_steps_is_identity():
    inst = gen_random(10, 70, 100)
    tour = random_tour(10, 71)
    final, history = local_search(inst, tour, 2, alpha=1, max_steps=0)
    assert final == tour and history == ()


def test_local_search_strictly_decreasing_and_terminates_locally_optimal():
    inst = gen_random(10, 72, 100)
    tour = random_tour(10, 73)
    final, history = local_search(inst, tour, 3, alpha=1)
    weights = [tour_weight(inst, tour)] + [h.tour_weight for h in history]
    assert all(a > b for a, b in zip(weights, weights[1:]))
    assert naive_best_move(inst, final, 3).value <= 0


# ---------------------------------------------------------------------------
# The batched kernel against per-cell references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4])
def test_batched_root_values_match_exhaustive_enumeration(k):
    """Buckets of 4, 4 and 2 edges: the short last bucket is padded."""
    from kopt.buckets import BucketPartition
    from kopt.dpengine import _GroupRuns

    inst = gen_random(10, 30 + k, 100)
    tour = random_tour(10, 40 + k)
    part = BucketPartition(n=10, size=4)
    assignments = list(enumerate_assignments(k, part.count))
    arrays = TourArrays(inst, tour)
    runs = _GroupRuns(arrays, part, assignments)
    assert any(cells.batch > 1 for cells in runs.cells.values())
    for m in valid_patterns(k):
        for assignment in assignments:
            got = solve_fixed(inst, tour, m, assignment, part, arrays=arrays, runs=runs)
            brute = enumerate_b_monotone_max(inst, tour, m, assignment, part).value
            assert (got.gain, got.embedding) == (brute, None), (m.pairs, assignment)


def _reference_best_move(inst, tour, k, alpha, policy):
    """Per-cell loop over solve_fixed in canonical (pattern, assignment) order."""
    part = make_buckets(inst.n, alpha)
    best = None
    for m in valid_patterns(k):
        for assignment in enumerate_assignments(k, part.count):
            res = solve_fixed(inst, tour, m, assignment, part)
            if res.gain is None:
                continue
            if policy == "first" and res.improving:
                return res
            if best is None or res.gain > best.gain:
                best = res
    return best


REFERENCE_CASES = [
    (k, n, alpha, seed)
    for seed in range(7)
    for k, n, alpha in ((2, 8, Fraction(1, 2)), (3, 10, Fraction(1, 2)),
                        (3, 9, Fraction(2, 3)), (4, 10, Fraction(2, 3)))
] + [(5, 10, Fraction(2, 3), 0), (5, 11, Fraction(3, 4), 1)]


@pytest.mark.parametrize("k, n, alpha, seed", REFERENCE_CASES)
def test_best_move_matches_the_per_cell_reference(k, n, alpha, seed):
    assert make_buckets(n, alpha).count >= 2
    inst = gen_random(n, 500 + seed, 100)
    tour = random_tour(n, 600 + seed)
    for policy in ("best", "first"):
        got = best_move(inst, tour, k, alpha=alpha, policy=policy)
        want = _reference_best_move(inst, tour, k, alpha, policy)
        assert (got.gain, got.move.pattern, got.embedding) == (
            want.gain, want.move.pattern, want.embedding), policy


@pytest.mark.parametrize("size", [4, 2])
def test_all_cells_tie_on_equal_weights(size):
    """Every legal embedding gains 0, so the tie-break alone picks the move:
    pattern 0, its lowest feasible assignment, the solver's embedding."""
    from kopt.buckets import BucketPartition
    from kopt.instance import Instance

    n, k = 12, 3
    inst = Instance(n=n, weights=[[7] * n for _ in range(n)])
    tour = random_tour(n, 3)
    part = BucketPartition(n=n, size=size)
    alpha = Fraction(1, 2) if size == 4 else Fraction(1, 4)
    assert make_buckets(n, alpha) == part
    assignments = list(enumerate_assignments(k, part.count))
    lowest = next(a for a in assignments if max(a.count(b) for b in a) <= size)
    assert (lowest == assignments[0]) == (size == 4)
    m0 = valid_patterns(k)[0]
    want = solve_fixed(inst, tour, m0, lowest, part)
    for policy in ("best", "first"):
        got = best_move(inst, tour, k, alpha=alpha, policy=policy)
        assert got.gain == 0
        assert got.move.pattern == m0
        assert got.embedding == want.embedding
        assert part.bucket_of(got.embedding[0]) == lowest[0]


def _argmax_positions(plan, tables, row):
    """Slot -> position by argmax over full tables: walk the ops backwards,
    each node's key from its parent, and take np.argmax of each forget op's
    child slice (the op before it in postorder) at the key."""
    keys, pos = [{}], {}
    for i in range(len(plan.ops) - 1, -1, -1):
        op, key = plan.ops[i], keys.pop()
        if op[0] == FORGET:
            _, axis, slot, bag = op
            at = [row] + [key[b] for b in bag]
            at.insert(axis, slice(None))
            pos[slot] = int(np.argmax(tables[i - 1][tuple(at)]))
            keys.append({**key, slot: pos[slot]})
        elif op[0] == INTRODUCE:
            keys.append(key)
        elif op[0] == JOIN:
            keys += [key, key]
    return pos


def test_reconstruction_matches_argmax_over_full_tables():
    """_reconstruct, from the forget tables of a run that adds joins in
    place, against argmax over every table of the same batch, for k = 2..5:
    weights in 1..3 make ties, buckets of 4, 4 and 3 pad the last one, and
    the rows with no legal embedding walk all -inf lines."""
    from kopt.buckets import BucketPartition
    from kopt.dpengine import _Cells, _reconstruct, _run_plan, compile_plan

    n = 11
    part = BucketPartition(n=n, size=4)
    rows = no_embedding = joins_on_forgets = 0
    for k in (2, 3, 4, 5):
        inst, tour = gen_random(n, 70 + k, 3), random_tour(n, 80 + k)
        arrays = TourArrays(inst, tour)
        groups = {}
        for a in enumerate_assignments(k, part.count):
            groups.setdefault(order_edges(a), []).append(a)
        for m in valid_patterns(k)[:: 3 if k == 5 else 1]:
            for obs, group in groups.items():
                plan = compile_plan(m, obs)
                cells = _Cells(arrays, part, group)
                root, forgets, _ = _run_plan(plan, cells)
                _, _, tables = _run_plan(plan, cells, keep_tables=True)
                joins_on_forgets += sum(
                    op[0] == JOIN and plan.ops[plan.nice.nodes[i].children[0]][0] == FORGET
                    for i, op in enumerate(plan.ops)
                )
                for row, a in enumerate(group):
                    pos = _argmax_positions(plan, tables, row)
                    want = tuple(int(cells.dom[row, v, pos[v]]) + 1 for v in range(k))
                    got = _reconstruct(plan, _Cells(arrays, part, [a]), forgets, row)
                    assert got == want, (m.pairs, a)
                    rows += 1
                    no_embedding += root[row] == float("-inf")
    assert joins_on_forgets > 0
    assert 0 < no_embedding < rows


@pytest.mark.parametrize("max_entries", [1 << 22, 1])
def test_first_max_positions_is_argmax(monkeypatch, max_entries):
    """Ties resolve to the first position, as argmax does: the move that
    _solve_cell rebuilds from the forget tables _GroupRuns.take hands over,
    or from a run of the cell alone when the latest chunk run did not hold
    it, is argmax over the full tables of the group's batch. Past
    MAX_BATCH_ENTRIES each row is its own chunk, so only the last row's
    tables are handed over."""
    from kopt import dpengine
    from kopt.buckets import BucketPartition
    from kopt.dpengine import _Cells, _fits, _GroupRuns, _run_plan, _solve_cell, compile_plan

    monkeypatch.setattr(dpengine, "MAX_BATCH_ENTRIES", max_entries)
    n, k = 11, 4
    part = BucketPartition(n=n, size=4)
    inst, tour = gen_random(n, 90, 3), random_tour(n, 91)
    arrays = TourArrays(inst, tour)
    groups = {}
    for a in filter(lambda a: _fits(a, part), enumerate_assignments(k, part.count)):
        groups.setdefault(order_edges(a), []).append(a)
    handed = rerun = 0
    for m in valid_patterns(k):
        for obs, group in groups.items():
            plan = compile_plan(m, obs)
            cells = _Cells(arrays, part, group)
            root, _, tables = _run_plan(plan, cells, keep_tables=True)
            for row, a in enumerate(group):
                runs = _GroupRuns(arrays, part, group)
                assert runs.root_value(m, obs, plan, a) == root[row]
                kept = runs.take(m, obs, a)
                assert (kept is None) == (max_entries == 1 and row < len(group) - 1)
                handed += kept is not None
                rerun += kept is None
                got = _solve_cell(inst, tour, m, a, part, plan, arrays, kept)
                pos = _argmax_positions(plan, tables, row)
                want = tuple(int(cells.dom[row, v, pos[v]]) + 1 for v in range(k))
                assert got.gain == int(round(root[row]))
                assert got.embedding == want, (m.pairs, a)
    assert handed > 0
    assert (rerun > 0) == (max_entries == 1)


def test_chunked_batches_give_the_unchunked_answers(monkeypatch):
    from kopt import dpengine
    from kopt.buckets import BucketPartition

    inst = gen_random(12, 80, 100)
    tour = random_tour(12, 81)
    part = BucketPartition(n=12, size=3)
    assignments = list(enumerate_assignments(3, part.count))
    arrays = TourArrays(inst, tour)

    def answers():
        runs = dpengine._GroupRuns(arrays, part, assignments)
        assert max(cells.batch for cells in runs.cells.values()) > 1
        gains = [solve_fixed(inst, tour, m, a, part, arrays=arrays, runs=runs).gain
                 for m in valid_patterns(3) for a in assignments]
        moves = [best_move(inst, tour, 3, alpha=Fraction(1, 2), policy=p)
                 for p in ("best", "first")]
        return gains, [(r.gain, r.move.pattern, r.embedding) for r in moves]

    whole = answers()
    monkeypatch.setattr(dpengine, "MAX_BATCH_ENTRIES", 1)
    assert answers() == whole


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_one_position_slices_give_the_whole_tables(monkeypatch, k):
    """Every introduce-forget pair run in pieces of one position gives the
    root values and forget tables of a keep_tables run, which builds each
    table whole: weights in 1..3 make ties, buckets of 4, 4 and 3 pad the
    last one."""
    from kopt import dpengine
    from kopt.buckets import BucketPartition
    from kopt.dpengine import _Cells, _run_plan, compile_plan

    widths = []
    real_introduce = dpengine._introduce

    def introduce(op, child, cells, out, axis=1, lo=0):
        widths.append(out.shape[axis])
        return real_introduce(op, child, cells, out, axis, lo)

    monkeypatch.setattr(dpengine, "_introduce", introduce)
    monkeypatch.setattr(dpengine, "MAX_SLICE_ENTRIES", 1)
    n = 11
    part = BucketPartition(n=n, size=4)
    inst, tour = gen_random(n, 110 + k, 3), random_tour(n, 120 + k)
    arrays = TourArrays(inst, tour)
    groups = {}
    for a in enumerate_assignments(k, part.count):
        groups.setdefault(order_edges(a), []).append(a)
    for m in valid_patterns(k)[:: {5: 7, 6: 97}.get(k, 1)]:
        for obs, group in groups.items():
            plan = compile_plan(m, obs)
            cells = _Cells(arrays, part, group)
            root, forgets, _ = _run_plan(plan, cells)
            whole_root, _, tables = _run_plan(plan, cells, keep_tables=True)
            assert np.array_equal(root, whole_root)
            at_forgets = [t for op, t in zip(plan.ops, tables) if op[0] == FORGET]
            assert len(forgets) == len(at_forgets)
            for got, want in zip(forgets, at_forgets):
                assert got.dtype == want.dtype and np.array_equal(got, want)
    assert 1 in widths and part.size in widths


@pytest.mark.parametrize("k", [2, 3, 4])
def test_sliced_and_chunked_best_move_gives_the_same_move(monkeypatch, k):
    """(gain, pattern, embedding) of best_move under both policies do not
    change when every introduce-forget pair runs one position at a time, nor
    when each batch row is also its own chunk."""
    from kopt import dpengine

    n, alpha = 11, Fraction(1, 2)
    assert make_buckets(n, alpha).size == 4
    cases = [(gen_random(n, 130 + 10 * k + i, 3), random_tour(n, 140 + 10 * k + i))
             for i in range(3)]

    def answers():
        return [
            (r.gain, r.move.pattern, r.embedding)
            for inst, tour in cases for policy in ("best", "first")
            for r in [best_move(inst, tour, k, alpha=alpha, policy=policy)]
        ]

    whole = answers()
    monkeypatch.setattr(dpengine, "MAX_SLICE_ENTRIES", 1)
    assert answers() == whole
    monkeypatch.setattr(dpengine, "MAX_BATCH_ENTRIES", 1)
    assert answers() == whole


def test_k4_n64_peak_memory_stays_small():
    """One warm best_move at k = 4, n = 64, alpha = 1 (one bucket, so 64^4
    entries in each widest table) peaks under 16 MB of traced allocations:
    those tables are never built whole."""
    import tracemalloc

    inst, tour = gen_random(64, 0, 10_000), random_tour(64, 1)
    best_move(inst, tour, 4, alpha=1)
    tracemalloc.start()
    try:
        best_move(inst, tour, 4, alpha=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20


def test_warm_best_move_leaves_no_reference_cycles():
    """The winner's rebuild holds its run's tables; they are freed when
    best_move returns, not at the next garbage collection."""
    import gc

    inst, tour = gen_random(12, 99, 100), random_tour(12, 98)
    best_move(inst, tour, 3)  # fills the caches
    gc.collect()
    gc.disable()
    try:
        best_move(inst, tour, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cold_best_move_leaves_no_reference_cycles():
    """From empty caches best_move also builds every decomposition and plan,
    and that leaves nothing for a garbage-collection pass either."""
    code = (
        "import gc\n"
        "from kopt import best_move, gen_random, random_tour\n"
        "inst, tour = gen_random(100, 0, 10000), random_tour(100, 1)\n"
        "gc.collect()\n"
        "gc.disable()\n"
        "best_move(inst, tour, 3)\n"
        "print(gc.collect())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


def test_compiled_plans_are_pinned():
    """The ops and width of every plan for k = 2..5 (each valid pattern with
    each order-edge set) hash to a pinned digest, so a change to the node
    order or to op building that changes any op fails here."""
    import hashlib
    from itertools import combinations

    from kopt.dpengine import compile_plan

    digest = hashlib.sha256()
    plans = 0
    for k in range(2, 6):
        path = [(i, i + 1) for i in range(1, k)]
        subsets = [frozenset(c) for size in range(k) for c in combinations(path, size)]
        for m in valid_patterns(k):
            for obs in subsets:
                plan = compile_plan(m, obs)
                digest.update(repr((plan.ops, plan.width)).encode())
                plans += 1
    assert plans == 6564
    assert digest.hexdigest() == (
        "87fcbb7b74c7f02649e1240111ef105a89864b20dc892a640f9e186708b9d6a4"
    )


def test_compile_cache_holds_every_plan_of_a_k6_call():
    """A k=6 call compiles one plan per valid pattern and order-edge set, of
    which there are 2**5, so a second call compiles none of them again."""
    from kopt.dpengine import compile_plan
    from kopt.moves import valid_pattern_count

    assert compile_plan.cache_info().maxsize >= valid_pattern_count(6) * 2**5


def test_assignment_memory_is_bounded_before_any_assignment_is_listed(monkeypatch):
    """988,260 assignments of 3 slots to 180 buckets of 10 edges are under a
    bound on their count alone, but their cells hold 29,647,800 positions."""
    from kopt import dpengine

    def fail(*args):
        raise AssertionError("enumerate_assignments must not run")

    monkeypatch.setattr(dpengine, "enumerate_assignments", fail)
    inst, tour = gen_random(1800, 0, 10000), random_tour(1800, 1)
    with pytest.raises(ValueError, match="988,260 bucket assignments of 3 slots to 180"
                       " buckets of 10 edges hold 29,647,800 slot positions"):
        best_move(inst, tour, 3, alpha=Fraction(3, 10), policy="first")


def test_first_policy_search_runs_no_winner_again(monkeypatch):
    """One bucket: each pattern is one group run of one cell, and an
    improving winner lies in the last run, so its step calls _run_plan once
    per group run and no more. The last, non-improving step runs every
    pattern and stops there: it rebuilds no move."""
    from kopt import dpengine

    plan_runs, group_runs, steps = [], [], []
    real_run_plan, real_run, real_best = (
        dpengine._run_plan, dpengine._GroupRuns._run, dpengine._best_move)

    def run_plan(*args, **kwargs):
        plan_runs.append(args[0])
        return real_run_plan(*args, **kwargs)

    def run(self, *args):
        group_runs.append(args[0])
        return real_run(self, *args)

    def best(*args, **kwargs):
        before = len(plan_runs), len(group_runs)
        res, new = real_best(*args, **kwargs)
        steps.append((res, len(plan_runs) - before[0], len(group_runs) - before[1]))
        return res, new

    monkeypatch.setattr(dpengine, "_run_plan", run_plan)
    monkeypatch.setattr(dpengine._GroupRuns, "_run", run)
    monkeypatch.setattr(dpengine, "_best_move", best)
    inst = gen_random(12, 95, 100)
    _, history = local_search(inst, random_tour(12, 96), 3, alpha=1, policy="first")
    patterns = valid_patterns(3)
    assert history and len(steps) == len(history) + 1
    *improving, (last, last_plan_runs, last_group_runs) = steps
    for res, n_plan_runs, n_group_runs in improving:
        assert res.improving
        assert n_plan_runs == n_group_runs == patterns.index(res.move.pattern) + 1
    assert not last.improving and last.gain == 0 and last.move is None
    assert last_group_runs == len(patterns) and last_plan_runs == last_group_runs


def test_local_search_applies_each_move_once(monkeypatch):
    from kopt import dpengine

    calls = []
    real = dpengine.apply_move

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dpengine, "apply_move", counting)
    inst = gen_random(10, 90, 100)
    _, history = local_search(inst, random_tour(10, 91), 2, alpha=1)
    assert history
    assert len(calls) == len(history)  # the last, non-improving step applies none


def test_an_improving_step_checks_its_move_once(monkeypatch):
    """The winner's gain is computed by as_kmove and by apply_move's weight
    check, its KMove is built once, and apply_move sums the old and new tour
    weights; local_search adds only the start tour's weight."""
    from kopt import dpengine, moves

    counts = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counting(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)

    for module in (moves, dpengine):
        for name in ("gain_partial", "as_kmove", "apply_move", "tour_weight"):
            count(module, name)
    inst = gen_random(12, 97, 100)
    _, history = local_search(inst, random_tour(12, 98), 3, max_steps=1)
    assert len(history) == 1
    assert counts["gain_partial"] == 2
    assert counts["as_kmove"] == counts["apply_move"] == 1
    assert counts["tour_weight"] <= 1 + 2


# ---------------------------------------------------------------------------
# Answer guards survive python -O
# ---------------------------------------------------------------------------

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_optimized(code: str) -> str:
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_reconstruction_check_raises_under_python_O():
    """policy="first" with one bucket rebuilds the winner from the tables of
    the run that scored it; "best" here runs the winner again."""
    stdout = _run_optimized(
        "import sys\n"
        "assert False\n"
        "import kopt\n"
        "from kopt import dpengine, moves\n"
        "real = moves.gain_partial\n"
        "moves.gain_partial = lambda *args: real(*args) + 1\n"
        "take = dpengine._GroupRuns.take\n"
        "reused = []\n"
        "dpengine._GroupRuns.take = lambda *a: reused.append(take(*a)) or reused[-1]\n"
        "inst, tour = kopt.gen_random(10, 1, 100), kopt.random_tour(10, 2)\n"
        "for policy in ('best', 'first'):\n"
        "    try:\n"
        "        dpengine.best_move(inst, tour, 3, policy=policy)\n"
        "    except kopt.InvariantError as exc:\n"
        "        print('raised', sys.flags.optimize, reused[-1] is not None, exc)\n"
    )
    best, first = stdout.splitlines()
    assert best.startswith("raised 1 False reconstructed embedding gain")
    assert first.startswith("raised 1 True reconstructed embedding gain")


def test_oracle_anchor_subset_under_python_O():
    stdout = _run_optimized(
        "import sys\n"
        "from kopt import best_move, gen_random, naive_best_move, random_tour\n"
        "bad = []\n"
        "for k in (2, 3, 4):\n"
        "    for n in (8, 10):\n"
        "        for seed in range(3):\n"
        "            inst = gen_random(n, seed * 7 + k, 1000)\n"
        "            tour = random_tour(n, seed * 13 + n)\n"
        "            dp = best_move(inst, tour, k).gain\n"
        "            if dp != naive_best_move(inst, tour, k).value:\n"
        "                bad.append((k, n, seed))\n"
        "print(sys.flags.optimize, bad)\n"
    )
    assert stdout.strip() == "1 []"
