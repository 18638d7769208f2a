"""The tree-decomposition DP solver and driver."""

import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest

from kopt.buckets import enumerate_assignments, make_buckets, order_edges
from kopt.decomp import (
    FORGET,
    FORGET_INTO,
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
    random_reduction_input,
    random_tour,
    tour_weight,
)
from kopt.moves import (
    ConnectionPattern,
    apply_move,
    gain_partial,
    interference_graph,
    is_valid_pattern,
    pattern_classes,
    valid_patterns,
)
from kopt.oracle import enumerate_b_monotone_max, naive_best_move

SQUARE = euclidean_instance([(0, 0), (10, 0), (10, 10), (0, 10)])
CROSSING = Tour((1, 3, 2, 4))
IDENTITY_2 = ConnectionPattern(2, ((1, 2), (3, 4)))
SWAP_2 = ConnectionPattern(2, ((1, 3), (2, 4)))


def solve_one(inst, tour, m, assignment, part):
    return solve_fixed(inst, tour, m, assignment, part)


def _class_and_plan(k, obs, p):
    """Valid pattern p's class record and that class's cached plan under obs."""
    from kopt.dpengine import _class_plans, _class_table

    c = _class_table(k).class_of[p]
    return _class_table(k).classes[c], _class_plans(k, obs)[0][c]


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
    for count in (1, 2, 4):
        part = BucketPartition(n=8, count=count)
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

        part = BucketPartition(n=n, count=2)
        for assignment in enumerate_assignments(k, part.count):
            obs = order_edges(assignment)
            dep = dependence_graph(k, interference_graph(m.pairs), obs)
            nice = nice_decomposition_for(dep)
            reference = _reference_tables(inst, tour, m, assignment, part, nice)
            _compare_all_tables(inst, tour, m, assignment, part, nice, reference)


def _forget_into_chain(k, first, v, w):
    """A nice decomposition that introduces the slots `first`, forgets v
    into w, and then introduces and forgets the remaining slots in order."""
    nodes, cur = [NiceNode("leaf", frozenset(), None, ())], set()

    def add(kind, vertex, into=None):
        nodes.append(NiceNode(kind, frozenset(cur), vertex, (len(nodes) - 1,), into))

    for u in first:
        cur.add(u)
        add(INTRODUCE, u)
    cur.remove(v)
    cur.add(w)
    add(FORGET_INTO, v, w)
    for u in range(1, k + 1):
        if u not in cur and u not in first:
            cur.add(u)
            add(INTRODUCE, u)
    for u in sorted(cur):
        cur.remove(u)
        add(FORGET, u)
    return NiceTreeDecomposition(k, tuple(nodes))


def test_forget_into_tables_match_definitional_maxima():
    """Every table of plans with forget-into ops, prefix (v < w) and suffix
    (w < v) ones, against the definitional maxima: hand-built chains for
    k = 2 and 3, and the k = 5 plans whose decompositions forget a slot into
    a smaller one (at k <= 4 none does). Buckets of 3, 3, 3 and 2 pad the
    last one."""
    from kopt.buckets import BucketPartition
    from kopt.dpengine import _class_plan

    inst, tour = gen_random(11, 16, 100), random_tour(11, 17)
    part = BucketPartition(n=11, count=4)
    k3 = ConnectionPattern(3, ((1, 2), (3, 5), (4, 6)))  # interference edge (2, 3) only
    cases = [
        (IDENTITY_2, (1, 1), _forget_into_chain(2, (1,), 1, 2)),
        (IDENTITY_2, (4, 4), _forget_into_chain(2, (2,), 2, 1)),
        (k3, (2, 2, 3), _forget_into_chain(3, (1,), 1, 2)),
        (k3, (1, 1, 1), _forget_into_chain(3, (1,), 1, 2)),
        (k3, (1, 1, 1), _forget_into_chain(3, (2, 3), 2, 1)),
        (k3, (4, 4, 4), _forget_into_chain(3, (2, 3), 2, 1)),
    ]
    groups = {}
    for a in enumerate_assignments(5, part.count):
        groups.setdefault(order_edges(a), []).append(a)
    for m in valid_patterns(5):
        for obs, group in groups.items():
            nice = _class_plan(m.k, interference_graph(m.pairs), obs).nice
            if any(nd.kind == FORGET_INTO and nd.into < nd.vertex for nd in nice.nodes):
                cases += [(m, a, nice) for a in group[:2]]
    suffix = 0
    for m, assignment, nice in cases:
        suffix += any(nd.kind == FORGET_INTO and nd.into < nd.vertex for nd in nice.nodes)
        reference = _reference_tables(inst, tour, m, assignment, part, nice)
        _compare_all_tables(inst, tour, m, assignment, part, nice, reference)
    assert suffix > 10


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
    from kopt.dpengine import _Cells, _class_of_one, _compile, _run_plan

    arrays = TourArrays(inst, tour)
    plan = _compile(interference_graph(m.pairs), order_edges(assignment), nice)
    cells = _Cells(arrays, part, [assignment]).over(_class_of_one(m), 0, 1)
    _, _, tables = _run_plan(plan, cells, keep_tables=True)
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

    solved = solve_fixed(inst, tour, m, assignment, part, nice)
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
    edges = interference_graph(m.pairs)
    assert edges == ((1, 2),)

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
    nice = NiceTreeDecomposition(k=3, nodes=nodes)

    from kopt.buckets import BucketPartition

    for count, assignment in [(1, (1, 1, 1)), (2, (1, 1, 2)), (3, (1, 2, 3))]:
        part = BucketPartition(n=9, count=count)
        obs = order_edges(assignment)
        dep = dependence_graph(3, edges, obs)
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
    dep_without_edges = dependence_graph(2, interference_graph(IDENTITY_2.pairs), frozenset())
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
    )
    with pytest.raises(ValueError, match="slot 4 is outside 1..3"):
        solve_fixed(inst, tour, m3, (1, 1, 1), part, has_slot_4)


def test_solve_fixed_checks_its_assignment_before_compiling(monkeypatch):
    """A decreasing assignment is refused before any plan is compiled or run,
    and a list is read as the tuple it lists, with runs or without."""
    from kopt import dpengine

    inst, tour = gen_random(12, 0, 100), random_tour(12, 1)
    m, part = valid_patterns(3)[2], make_buckets(12, Fraction(1, 2))
    want = solve_fixed(inst, tour, m, (1, 1, 1), part)
    assert want.gain is not None
    assert solve_fixed(inst, tour, m, [1, 1, 1], part) == want
    runs = dpengine._GroupRuns(TourArrays(inst, tour), part, [(1, 1, 1)])
    assert solve_fixed(inst, tour, m, [1, 1, 1], part, runs=runs).gain == want.gain

    def fail(*args, **kwargs):
        raise AssertionError("no plan may be compiled or run")

    for name in ("_class_plan", "_compile", "_run_plan"):
        monkeypatch.setattr(dpengine, name, fail)
    with pytest.raises(ValueError, match=r"assignment \(2, 1, 3\) is not nondecreasing"):
        solve_fixed(inst, tour, m, (2, 1, 3), part)


def test_runs_refuse_a_cell_they_do_not_hold():
    """solve_fixed with runs reads every cell's gain from them: a cell whose
    assignment, pattern or decomposition they do not hold is an error, not a
    standalone run."""
    from kopt import dpengine
    from kopt.moves import InvariantError

    inst, tour = gen_random(12, 0, 100), random_tour(12, 1)
    m, part = valid_patterns(3)[2], make_buckets(12, Fraction(1, 2))
    runs = dpengine._GroupRuns(TourArrays(inst, tour), part, [(1, 1, 1)])
    nice = _class_and_plan(3, order_edges((1, 1, 1)), 2)[1].nice
    assert solve_fixed(inst, tour, m, (1, 1, 1), part, nice, runs=runs).gain is not None
    other = nice_decomposition_for(dependence_graph(m.k, interference_graph(m.pairs), frozenset()))
    assert other is not nice
    invalid = ConnectionPattern(3, ((1, 2), (3, 6), (4, 5)))
    assert not is_valid_pattern(invalid)
    for pattern, assignment, given in ((m, (1, 1, 2), None), (valid_patterns(2)[0], (1, 1), None),
                                       (invalid, (1, 1, 1), None), (m, (1, 1, 1), other)):
        with pytest.raises(InvariantError):
            solve_fixed(inst, tour, pattern, assignment, part, given, runs=runs)


def test_every_plan_runs_through_group_runs(monkeypatch):
    """_GroupRuns._run is the one caller of _run_plan, and every run reads
    its pair sides from the view _Cells.over gives: best_move under both
    policies at alpha 1/2 over buckets of 4, 4 and 3, also with each batch
    row its own chunk so that winners run again as groups of one;
    local_search; and solve_fixed over its own decomposition and over a
    caller's."""
    from kopt import dpengine
    from kopt.decomp import decomposition_from_order

    callers, alone = [], []
    real_run_plan, real_alone = dpengine._run_plan, dpengine._run_alone

    def run_plan(*args, **kwargs):
        callers.append(sys._getframe(1).f_code)
        assert args[1].sides is not None
        return real_run_plan(*args, **kwargs)

    def run_alone(*args):
        alone.append(args)
        return real_alone(*args)

    monkeypatch.setattr(dpengine, "_run_plan", run_plan)
    monkeypatch.setattr(dpengine, "_run_alone", run_alone)
    n, alpha = 11, Fraction(1, 2)
    part = make_buckets(n, alpha)
    assert [part.bucket_size(b) for b in (1, 2, 3)] == [4, 4, 3]
    inst, tour = gen_random(n, 200, 3), random_tour(n, 201)
    for max_entries in (dpengine.MAX_BATCH_ENTRIES, 1):
        monkeypatch.setattr(dpengine, "MAX_BATCH_ENTRIES", max_entries)
        for k in (3, 4):
            for policy in ("best", "first"):
                best_move(inst, tour, k, alpha=alpha, policy=policy)
    assert alone
    local_search(inst, tour, 3, alpha=alpha)
    m, a = valid_patterns(3)[-1], (1, 1, 2)
    dep = dependence_graph(m.k, interference_graph(m.pairs), order_edges(a))
    for nice in (None, decomposition_from_order(dep, (1, 2, 3))):
        before = len(callers)
        assert solve_fixed(inst, tour, m, a, part, nice).gain is not None
        assert len(callers) == before + 1
    assert set(callers) == {dpengine._GroupRuns._run.__code__}


def _instance_up_to(n, bound, seed):
    """Random symmetric weights in [-bound, bound], both ends included."""
    upper = np.triu(
        np.random.default_rng(seed).integers(-bound, bound, size=(n, n), endpoint=True), 1
    )
    upper[0, 1], upper[2, 3] = bound, -bound
    return Instance(n=n, weights=upper + upper.T)


def _k10_cell(monkeypatch, bound, seed, dtype):
    """solve_fixed and the brute-force maximum of one k = 10 cell, whose
    tables are of `dtype`: the first valid pattern of a seeded search,
    weights up to `bound`, two buckets of 10 with five slots each. Past
    MAX_SOLVER_K the pattern runs its own plan, so the solver lists no
    valid patterns."""
    from kopt import dpengine
    from kopt.buckets import BucketPartition

    def fail(k):
        raise AssertionError(f"valid_patterns({k}) must not be listed")

    monkeypatch.setattr(dpengine, "valid_patterns", fail)

    rng = random.Random(seed)
    while True:
        ends = list(range(1, 21))
        rng.shuffle(ends)
        m = ConnectionPattern(10, tuple(zip(ends[::2], ends[1::2])))
        if is_valid_pattern(m):
            break
    inst, tour = _instance_up_to(20, bound, seed), random_tour(20, seed + 1)
    part = BucketPartition(n=20, count=2)
    assignment = (1,) * 5 + (2,) * 5
    assert TourArrays(inst, tour).dtype(10) is dtype
    return (solve_fixed(inst, tour, m, assignment, part),
            enumerate_b_monotone_max(inst, tour, m, assignment, part))


def test_float64_exact_at_the_weight_bound_with_k10(monkeypatch):
    """Weights span the whole [-2^40, 2^40] range the instance allows, and the
    gain exceeds 2^40: the float64 tables must still give the exact integer
    maximum over the cell's bucket-monotone embeddings."""
    res, brute = _k10_cell(monkeypatch, 1 << 40, 0, np.float64)
    assert res.gain == brute.value and res.gain > 1 << 40
    assert res.embedding == brute.witness


def test_float32_exact_with_k10_and_small_weights(monkeypatch):
    """solve_fixed is not capped at MAX_SOLVER_K: at k = 10 the dtype rule
    still sends weights up to 10000 to float32, and the gain stays exact."""
    res, brute = _k10_cell(monkeypatch, 10_000, 1, np.float32)
    assert res.gain == brute.value and res.embedding == brute.witness


@pytest.mark.parametrize("k", [6, 7])
def test_a_standalone_solve_fixed_lists_and_groups_no_patterns(monkeypatch, k):
    """A standalone solve_fixed runs its pattern's own plan: it lists no
    valid patterns, builds no class table or class plans, and gives the gain
    and embedding of its class's run, which the brute force confirms. The
    pattern is the last of the largest class, so its sides are not the
    class's first pattern's."""
    from kopt import dpengine
    from kopt.buckets import BucketPartition

    n = 2 * k
    inst, tour = gen_random(n, k, 10000), random_tour(n, k + 1)
    part = BucketPartition(n=n, count=1)
    assignment = (1,) * k
    p = max(pattern_classes(k), key=lambda c: len(c.members)).members[-1]
    m = valid_patterns(k)[p]

    def fail(*args):
        raise AssertionError("a standalone solve_fixed must not list or group patterns")

    for name in ("valid_patterns", "pattern_classes", "_class_table", "_class_plans"):
        monkeypatch.setattr(dpengine, name, fail)
    res = solve_fixed(inst, tour, m, assignment, part)
    monkeypatch.undo()

    cls, plan = _class_and_plan(k, order_edges(assignment), p)
    assert cls.members[0] != p
    kept = dpengine._run_alone(TourArrays(inst, tour), part, plan, cls, p, assignment)
    ran = dpengine._solve_cell(inst, tour, m, plan, kept)
    brute = enumerate_b_monotone_max(inst, tour, m, assignment, part)
    assert res.gain is not None
    assert (res.gain, res.embedding) == (ran.gain, ran.embedding) == (brute.value, brute.witness)


def _table_dtypes(inst, tour, k, part):
    """The dtypes of every table a k = len(assignment) plan builds."""
    from kopt.dpengine import _Cells, _class_of_one, _class_plan, _run_plan

    m, a = valid_patterns(k)[-1], (1,) * k
    plan = _class_plan(k, interference_graph(m.pairs), order_edges(a))
    cells = _Cells(TourArrays(inst, tour), part, [a]).over(_class_of_one(m), 0, 1)
    _, _, tables = _run_plan(plan, cells, keep_tables=True)
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
    part = BucketPartition(n=n, count=3)
    arrays = TourArrays(inst, tour)
    assert arrays.max_weight == bound and arrays.dtype(k) is np.float32
    assert _table_dtypes(inst, tour, k, part) == {np.dtype(np.float32)}
    above = _instance_up_to(n, bound + 1, k)
    assert TourArrays(above, tour).dtype(k) is np.float64
    assert _table_dtypes(above, tour, k, part) == {np.dtype(np.float64)}
    for m in valid_patterns(k):
        for a in enumerate_assignments(k, part.count):
            res = solve_fixed(inst, tour, m, a, part)
            brute = enumerate_b_monotone_max(inst, tour, m, a, part)
            assert (res.gain, res.embedding) == (brute.value, brute.witness), (m.pairs, a)


def _cell_order_gains(inst, tour, k, alpha):
    """(first, best) by enumerating every strictly increasing embedding, not
    by the DP: best is the largest gain; first is the largest gain of the
    first (pattern, assignment) cell holding an improving embedding, or best
    when no cell does, which is what policy="first" returns."""
    part = make_buckets(inst.n, alpha)
    combos = np.array(list(combinations(range(inst.n), k)))
    starts = [part.bounds(j)[0] - 1 for j in range(1, part.count + 1)]  # 0-based
    cells = np.searchsorted(starts, combos, side="right")  # 1-based bucket ids
    order0 = np.asarray(tour.order) - 1
    ends = order0, np.roll(order0, -1)  # left and right vertex of each tour edge
    w = inst.weights
    removed = w[ends[0][combos], ends[1][combos]].sum(axis=1)
    per_pattern = []
    for m in valid_patterns(k):
        gains = removed.copy()
        for a, b in m.pairs:  # endpoint e is side (e - 1) % 2 of slot (e - 1) // 2
            gains -= w[ends[(a - 1) % 2][combos[:, (a - 1) // 2]],
                       ends[(b - 1) % 2][combos[:, (b - 1) // 2]]]
        per_pattern.append(gains)
    best = max(int(g.max()) for g in per_pattern)
    for gains in per_pattern:
        if (gains > 0).any():
            cell = min(map(tuple, cells[gains > 0]))
            return int(gains[(cells == cell).all(axis=1)].max()), best
    return best, best


ORACLE_CASES = [(k, 12, seed) for k in (2, 3, 4) for seed in range(3)] + [
    (5, 10, 0), (5, 10, 1), pytest.param(6, 12, 0, marks=pytest.mark.slow)]


@pytest.mark.parametrize("k, n, seed", ORACLE_CASES)
def test_best_move_gains_match_the_oracles_at_every_alpha(k, n, seed):
    """Both policies at alpha 0, 1/2, 2/3 and 1, the best gain also against
    naive_best_move. At k = 6 best_move refuses alpha 0: its 47.5 million
    cells are over MAX_CELLS."""
    inst, tour = gen_random(n, 700 + 10 * k + seed, 100), random_tour(n, 800 + 10 * k + seed)
    if k == 6:
        with pytest.raises(ValueError, match="47,523,840 cells"):
            best_move(inst, tour, k, alpha=0)
    for alpha in (0, Fraction(1, 2), Fraction(2, 3), 1)[k == 6:]:
        first, best = _cell_order_gains(inst, tour, k, alpha)
        assert best == naive_best_move(inst, tour, k).value
        got = [best_move(inst, tour, k, alpha=alpha, policy=p).gain for p in ("best", "first")]
        assert got == [best, first], alpha


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


def test_tied_moves_are_pinned():
    """The tie-break (pattern index, then assignment index, then the first
    maximum at each forget) is fixed: gain, embedding and KMove of 216
    best_move calls under both policies, and three first-improvement
    searches, hash to a pinned digest. Weights in 1..3 make ties; alpha 1
    gives one bucket, and alpha 1/2 and 2/3 give 3 or 4 buckets of 3 to 6
    edges, some padded."""
    import hashlib

    digest = hashlib.sha256()
    for k, seeds in ((3, 6), (4, 5), (5, 1)):
        for n in (11, 14, 17):
            for alpha in (1, Fraction(1, 2), Fraction(2, 3)):
                for seed in range(seeds):
                    inst = gen_random(n, 1000 * k + 10 * n + seed, 3)
                    tour = random_tour(n, 7 + seed)
                    for policy in ("best", "first"):
                        r = best_move(inst, tour, k, alpha=alpha, policy=policy)
                        digest.update(repr((r.gain, r.embedding, r.move)).encode())
    for k, n in ((3, 17), (4, 14), (5, 11)):
        inst, tour = gen_random(n, 50 + k, 3), random_tour(n, 60 + k)
        final, history = local_search(inst, tour, k, policy="first")
        digest.update(repr((final.order, history)).encode())
    assert digest.hexdigest() == (
        "c48b614cfaffc783c69db6e351f7c582d81861e14aad595bef7cd0eef391d7f4"
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
    with pytest.raises(ValueError, match="k must be >= 2"):
        best_move(inst, tour, -1)
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
    """Buckets of 4, 3 and 3 edges: the two short ones are padded."""
    from kopt.buckets import BucketPartition
    from kopt.dpengine import _GroupRuns

    inst = gen_random(10, 30 + k, 100)
    tour = random_tour(10, 40 + k)
    part = BucketPartition(n=10, count=3)
    assignments = list(enumerate_assignments(k, part.count))
    arrays = TourArrays(inst, tour)
    runs = _GroupRuns(arrays, part, assignments)
    assert any(group.cells.batch > 1 for group in runs.groups.values())
    for m in valid_patterns(k):
        for assignment in assignments:
            got = solve_fixed(inst, tour, m, assignment, part, runs=runs)
            brute = enumerate_b_monotone_max(inst, tour, m, assignment, part).value
            assert (got.gain, got.embedding) == (brute, None), (m.pairs, assignment)


@pytest.mark.parametrize("n, alpha", [
    (10, Fraction(1, 2)), (11, Fraction(2, 3)), (41, Fraction(1, 2)), (41, Fraction(2, 3)),
    (12, Fraction(1, 2)), (40, Fraction(2, 3)),
])
def test_cells_gather_each_slot_from_its_bucket_start(n, alpha):
    """Balanced buckets: each slot's row positions are its bucket's edges,
    from the bucket's first, and `pad` is -inf exactly past the bucket's
    size. The bucket count leaves a remainder at n = 10, 11 and 41, so some
    buckets are one edge short of s; at n = 12 and 40 it divides n."""
    from kopt.dpengine import _Cells

    part = make_buckets(n, alpha)
    inst, tour = gen_random(n, n, 100), random_tour(n, n + 1)
    assignments = list(enumerate_assignments(3, part.count))
    cells = _Cells(TourArrays(inst, tour), part, assignments)
    assert cells.s == part.size
    padded = 0
    for row, a in enumerate(assignments):
        for slot, b in enumerate(a):
            size = part.bucket_size(b)
            assert (cells.dom[row, slot, :size] + 1).tolist() == list(part.indices(b))
            assert (cells.pad[row, slot, :size] == 0).all()
            assert (cells.pad[row, slot, size:] == -np.inf).all()
            padded += size < part.size
    assert (padded > 0) == (n % part.count != 0)


@pytest.mark.parametrize("k, n", [(3, 10), (3, 11), (4, 10), (4, 11), (5, 11), (5, 12)])
def test_balanced_buckets_give_the_oracle_gains(k, n):
    """best_move at alpha 1/2 and 2/3 over balanced buckets, against
    naive_best_move (policy "best") and the enumeration by cell (both
    policies): at n = 10 and 11 the bucket count leaves a remainder, except
    n = 10 at 2/3 (two buckets of 5); at n = 12 it divides n."""
    inst, tour = gen_random(n, 900 + 10 * k + n, 100), random_tour(n, 950 + 10 * k + n)
    naive = naive_best_move(inst, tour, k).value
    for alpha in (Fraction(1, 2), Fraction(2, 3)):
        part = make_buckets(n, alpha)
        assert (n % part.count == 0) == (n == 12 or (n, alpha) == (10, Fraction(2, 3)))
        first, best = _cell_order_gains(inst, tour, k, alpha)
        assert best == naive
        got = [best_move(inst, tour, k, alpha=alpha, policy=p).gain for p in ("best", "first")]
        assert got == [best, first], alpha


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
    part = BucketPartition(n=n, count=n // size)
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
    child slice (the op before it in postorder) at the key. A forget-into
    op of v into w takes the argmax over v's positions before w's (after it,
    when w < v), the others set to -inf."""
    keys, pos = [{}], {}
    for i in range(len(plan.ops) - 1, -1, -1):
        op, key = plan.ops[i], keys.pop()
        if op[0] in (FORGET, FORGET_INTO):
            axis, slot, bag = op[1:4]
            child_bag = [b for b in bag if op[0] == FORGET or b != op[4]]
            at = [row] + [key[b] for b in child_bag]
            at.insert(axis, slice(None))
            line = tables[i - 1][tuple(at)]
            if op[0] == FORGET_INTO:
                w = op[4]
                keep = np.arange(len(line)) < key[w] if slot < w else np.arange(len(line)) > key[w]
                line = np.where(keep, line, -np.inf)
            pos[slot] = int(np.argmax(line))
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
    from kopt.dpengine import _Cells, _class_of_one, _class_plan, _reconstruct, _run_plan

    n = 11
    part = BucketPartition(n=n, count=3)
    rows = no_embedding = joins_on_forgets = forget_intos = 0
    for k in (2, 3, 4, 5):
        inst, tour = gen_random(n, 70 + k, 3), random_tour(n, 80 + k)
        arrays = TourArrays(inst, tour)
        groups = {}
        for a in enumerate_assignments(k, part.count):
            groups.setdefault(order_edges(a), []).append(a)
        for m in valid_patterns(k)[:: 3 if k == 5 else 1]:
            for obs, group in groups.items():
                plan = _class_plan(m.k, interference_graph(m.pairs), obs)
                cells = _Cells(arrays, part, group).over(_class_of_one(m), 0, 1)
                root, forgets, _ = _run_plan(plan, cells)
                _, _, tables = _run_plan(plan, cells, keep_tables=True)
                joins_on_forgets += sum(
                    op[0] == JOIN and plan.ops[plan.nice.nodes[i].children[0]][0] == FORGET
                    for i, op in enumerate(plan.ops)
                )
                forget_intos += sum(op[0] == FORGET_INTO for op in plan.ops)
                for row, a in enumerate(group):
                    pos = _argmax_positions(plan, tables, row)
                    want = tuple(int(cells.dom[row, v, pos[v]]) + 1 for v in range(k))
                    got = _reconstruct(plan, cells, forgets, row)
                    assert got == want, (m.pairs, a)
                    rows += 1
                    no_embedding += root[row] == float("-inf")
    assert joins_on_forgets > 0 and forget_intos > 0
    assert 0 < no_embedding < rows


@pytest.mark.parametrize("max_entries", [1 << 22, 1])
def test_first_max_positions_is_argmax(monkeypatch, max_entries):
    """Ties resolve to the first position, as argmax does: the move that
    _solve_cell rebuilds from the forget tables _GroupRuns.take hands over,
    or from a run of its group of one when the latest chunk did not run its
    pattern alone and hold it, is argmax over the full tables of the group's
    batch. Over three buckets a group runs every pattern of a class at once,
    so only a class of one pattern is handed over; past MAX_BATCH_ENTRIES
    each pattern and each row is its own chunk, so only the class's last
    pattern's last row is. The reference tables are those of the pattern's
    plan run with its class of one; the move is rebuilt from its class's
    runs."""
    from kopt import dpengine
    from kopt.buckets import BucketPartition
    from kopt.dpengine import (
        _Cells, _class_of_one, _class_plan, _fits, _GroupRuns, _run_alone, _run_plan,
        _solve_cell,
    )

    monkeypatch.setattr(dpengine, "MAX_BATCH_ENTRIES", max_entries)
    n, k = 11, 4
    part = BucketPartition(n=n, count=3)
    inst, tour = gen_random(n, 90, 3), random_tour(n, 91)
    arrays = TourArrays(inst, tour)
    groups = {}
    for a in filter(lambda a: _fits(a, part), enumerate_assignments(k, part.count)):
        groups.setdefault(order_edges(a), []).append(a)
    handed = rerun = forget_intos = 0
    for p, m in enumerate(valid_patterns(k)):
        for obs, group in groups.items():
            plan = _class_plan(m.k, interference_graph(m.pairs), obs)
            forget_intos += sum(op[0] == FORGET_INTO for op in plan.ops)
            cells = _Cells(arrays, part, group).over(_class_of_one(m), 0, 1)
            root, _, tables = _run_plan(plan, cells, keep_tables=True)
            cls, class_plan = _class_and_plan(k, obs, p)
            for row, a in enumerate(group):
                runs = _GroupRuns(arrays, part, group)
                gain = runs.gain(m, a, None)
                assert gain == (None if root[row] == float("-inf") else root[row])
                kept = runs.take(p, a)
                if max_entries == 1:
                    held = cls.members[-1] == p and row == len(group) - 1
                else:
                    held = len(cls.members) == 1
                assert (kept is not None) == held
                handed += kept is not None
                rerun += kept is None
                kept = kept or _run_alone(arrays, part, class_plan, cls, p, a)
                got = _solve_cell(inst, tour, m, class_plan, kept)
                pos = _argmax_positions(plan, tables, row)
                want = tuple(int(cells.dom[row, v, pos[v]]) + 1 for v in range(k))
                assert got.gain == int(round(root[row]))
                assert got.embedding == want, (m.pairs, a)
    assert handed > 0 and rerun > 0 and forget_intos > 0


def test_chunked_batches_give_the_unchunked_answers(monkeypatch):
    from kopt import dpengine
    from kopt.buckets import BucketPartition

    inst = gen_random(12, 80, 100)
    tour = random_tour(12, 81)
    part = BucketPartition(n=12, count=4)
    assignments = list(enumerate_assignments(3, part.count))
    arrays = TourArrays(inst, tour)

    def answers():
        runs = dpengine._GroupRuns(arrays, part, assignments)
        assert max(group.cells.batch for group in runs.groups.values()) > 1
        gains = [solve_fixed(inst, tour, m, a, part, runs=runs).gain
                 for m in valid_patterns(3) for a in assignments]
        moves = [best_move(inst, tour, 3, alpha=Fraction(1, 2), policy=p)
                 for p in ("best", "first")]
        return gains, [(r.gain, r.move.pattern, r.embedding) for r in moves]

    whole = answers()
    monkeypatch.setattr(dpengine, "MAX_BATCH_ENTRIES", 1)
    assert answers() == whole


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_one_position_slices_give_the_whole_tables(monkeypatch, k):
    """Every introduce op under a forget or forget-into op, run in pieces of
    one position, gives the root values and forget tables of a keep_tables
    run, which builds each table whole: weights in 1..3 make ties, buckets
    of 4, 4 and 3 pad the last one; weights up to 2^22 (4kW >= 2^24) run the
    same in float64. Each runs with every forget-into op's running maximum
    in position steps (MIN_STEP_SLAB = 1), so one-position pieces carry it
    from piece to piece, and with none (MIN_STEP_SLAB above any slab); both
    step kinds give equal root values and forget tables, of one dtype.
    Forget-into ops step both ways: w > v, and at k = 6, whose sampled plans
    hold some, w < v."""
    from kopt import dpengine
    from kopt.buckets import BucketPartition
    from kopt.dpengine import _Cells, _class_of_one, _class_plan, _run_plan

    # piece widths per parent: FORGET, (FORGET_INTO, w > v), or None (whole)
    widths, parent, ran = {}, [None], set()
    real_forget, real_introduce = dpengine._forget, dpengine._introduce

    def forget(op, *args):
        parent[0] = FORGET if op[0] == FORGET else (FORGET_INTO, op[4] > op[2])
        out = real_forget(op, *args)
        parent[0] = None
        return out

    def introduce(op, child, cells, out, axis=1, lo=0):
        widths.setdefault(parent[0], set()).add(out.shape[axis])
        return real_introduce(op, child, cells, out, axis, lo)

    def spy(name):
        real = getattr(dpengine, name)

        def running_max(*args):
            ran.add((name, parent[0]))
            return real(*args)

        monkeypatch.setattr(dpengine, name, running_max)

    monkeypatch.setattr(dpengine, "_forget", forget)
    monkeypatch.setattr(dpengine, "_introduce", introduce)
    spy("_max_steps")
    spy("_max_accumulate")
    monkeypatch.setattr(dpengine, "MAX_SLICE_ENTRIES", 1)
    n = 11
    part = BucketPartition(n=n, count=3)
    groups = {}
    for a in enumerate_assignments(k, part.count):
        groups.setdefault(order_edges(a), []).append(a)
    for wmax, dtype in ((3, np.float32), (1 << 22, np.float64)):
        inst, tour = gen_random(n, 110 + k, wmax), random_tour(n, 120 + k)
        arrays = TourArrays(inst, tour)
        assert arrays.dtype(k) is dtype
        for m in valid_patterns(k)[:: {5: 7, 6: 97}.get(k, 1)]:
            for obs, group in groups.items():
                plan = _class_plan(m.k, interference_graph(m.pairs), obs)
                cells = _Cells(arrays, part, group).over(_class_of_one(m), 0, 1)
                by_kind = []
                for min_step_slab in (1, 1 << 62):
                    monkeypatch.setattr(dpengine, "MIN_STEP_SLAB", min_step_slab)
                    root, forgets, _ = _run_plan(plan, cells)
                    whole_root, _, tables = _run_plan(plan, cells, keep_tables=True)
                    assert np.array_equal(root, whole_root)
                    at_forgets = [t for op, t in zip(plan.ops, tables)
                                  if op[0] in (FORGET, FORGET_INTO)]
                    assert len(forgets) == len(at_forgets)
                    for got, want in zip(forgets, at_forgets):
                        assert got.dtype == want.dtype == dtype and np.array_equal(got, want)
                    by_kind.append((root, forgets))
                (root, forgets), (acc_root, acc_forgets) = by_kind
                assert root.dtype == acc_root.dtype and np.array_equal(root, acc_root)
                for got, want in zip(forgets, acc_forgets):
                    assert got.dtype == want.dtype and np.array_equal(got, want)
    into = [(FORGET_INTO, True)] + [(FORGET_INTO, False)] * (k == 6)
    for kind in [FORGET] + into:
        assert {1, part.size} <= widths[kind], kind
    assert {(name, kind) for name in ("_max_steps", "_max_accumulate") for kind in into} <= ran


@pytest.mark.parametrize("k", [2, 3, 4])
def test_sliced_and_chunked_best_move_gives_the_same_move(monkeypatch, k):
    """(gain, pattern, embedding) of best_move under both policies do not
    change when every introduce op under a forget or forget-into op runs
    one position at a time, nor when each batch row is also its own chunk.
    Buckets of 4 at alpha 1/2, and one bucket of 11 at alpha 1, where a
    forget-into op carries its running maximum across 11 one-position
    pieces; weights in 1..3 (float32) and up to 2^22 (float64). Each runs
    with every forget-into op's running maximum in position steps
    (MIN_STEP_SLAB = 1) and with none."""
    from kopt import dpengine

    n = 11
    assert make_buckets(n, Fraction(1, 2)).size == 4 and make_buckets(n, 1).size == 11
    cases = [(gen_random(n, 130 + 10 * k + i, wmax), random_tour(n, 140 + 10 * k + i), alpha)
             for i, wmax in ((0, 3), (1, 3), (2, 1 << 22)) for alpha in (Fraction(1, 2), 1)]
    assert {TourArrays(inst, tour).dtype(k) for inst, tour, _ in cases} == {np.float32, np.float64}
    slice_entries, batch_entries = dpengine.MAX_SLICE_ENTRIES, dpengine.MAX_BATCH_ENTRIES

    def answers():
        return [
            (r.gain, r.move.pattern, r.embedding)
            for inst, tour, alpha in cases for policy in ("best", "first")
            for r in [best_move(inst, tour, k, alpha=alpha, policy=policy)]
        ]

    whole = answers()
    for min_step_slab in (1, 1 << 62):
        monkeypatch.setattr(dpengine, "MIN_STEP_SLAB", min_step_slab)
        monkeypatch.setattr(dpengine, "MAX_SLICE_ENTRIES", slice_entries)
        monkeypatch.setattr(dpengine, "MAX_BATCH_ENTRIES", batch_entries)
        assert answers() == whole
        monkeypatch.setattr(dpengine, "MAX_SLICE_ENTRIES", 1)
        assert answers() == whole
        monkeypatch.setattr(dpengine, "MAX_BATCH_ENTRIES", 1)
        assert answers() == whole


# ---------------------------------------------------------------------------
# Shape runs: the patterns of one shape as one batch
# ---------------------------------------------------------------------------


def _group_runs_made(monkeypatch) -> list:
    """Every _GroupRuns made from here on, in order."""
    from kopt import dpengine

    made, init = [], dpengine._GroupRuns.__init__

    def spy(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(dpengine._GroupRuns, "__init__", spy)
    return made


@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_shape_runs_give_every_cell_the_value_of_its_pattern_run_alone(monkeypatch, k):
    """Over more than one bucket a class run runs all patterns of a class
    as one batch. On a fresh _GroupRuns over best_move's groups, which runs
    every class exactly, every cell's gain equals the root value of its
    pattern's own plan run alone over the cell's group, and for every
    seventh pattern one cell of each group equals _run_alone. Each cell of
    best_move's own runs reads that gain or was ruled out by its bound, and
    every ruled-out cell's gain lies below best_move's; here bounds rule out
    cells at k = 4..6, and none at k = 3. Alpha 1/2, 2/3 and
    3/4 on 13 vertices (12 at k = 6), so that buckets are padded; weights in
    float32 and, with 4kW >= 2^24, in float64; MAX_BATCH_ENTRIES at its
    default, where every class runs whole, and at 1,000, which cuts classes
    into chunks of whole patterns that start past a class's first pattern
    and hold more than one. k = 6 checks every 97th pattern in 3 of the 12
    configurations, which between them take every value. Runs alone,
    best_move's winner's and this test's, each run one pattern of its
    class."""
    from kopt import dpengine
    from kopt.dpengine import _OUT, _Cells, _class_of_one, _class_plan, _GroupRuns, _run_plan

    made = _group_runs_made(monkeypatch)
    # chunks of the exact class runs, and of the runs alone
    chunks, alone, real_over, real_alone = [], [], dpengine._Cells.over, dpengine._run_alone

    def over(self, cls, lo, hi):
        chunks.append((dpengine.MAX_BATCH_ENTRIES, lo, hi, len(cls.members)))
        return real_over(self, cls, lo, hi)

    def run_alone(*args):
        before = len(chunks)
        kept = real_alone(*args)
        alone.extend(chunks[before:])
        del chunks[before:]
        return kept

    monkeypatch.setattr(dpengine._Cells, "over", over)
    monkeypatch.setattr(dpengine, "_run_alone", run_alone)
    n, step = (12, 97) if k == 6 else (13, 1)
    patterns = valid_patterns(k)
    configs = list(product(
        (dpengine.MAX_BATCH_ENTRIES, 1000),
        ((100, np.float32), (1 << 22, np.float64)),
        (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)),
    ))
    ruled_out = 0
    # k = 6 takes each value once beside others: 3 of the 12 configurations
    for max_entries, (wmax, dtype), alpha in configs[::4] if k == 6 else configs:
        monkeypatch.setattr(dpengine, "MAX_BATCH_ENTRIES", max_entries)
        inst, tour = gen_random(n, 190 + wmax, wmax), random_tour(n, 191)
        arrays = TourArrays(inst, tour)
        assert arrays.dtype(k) is dtype
        part = make_buckets(n, alpha)
        assert part.count > 1
        made.clear()
        best = best_move(inst, tour, k, alpha=alpha).gain
        runs = made[0]
        fresh = _GroupRuns(arrays, part, list(runs.where))
        for obs, group in runs.groups.items():
            assignments = [tuple(a) for a in group.cells.assignments.tolist()]
            cells = _Cells(arrays, part, assignments)
            for p in range(0, len(patterns), step):
                m = patterns[p]
                plan = _class_plan(m.k, interference_graph(m.pairs), obs)
                root = _run_plan(plan, cells.over(_class_of_one(m), 0, 1))[0]
                want = [None if v == float("-inf") else int(v) for v in root]
                assert [fresh.gain(m, a, None) for a in assignments] == want, (m, obs)
                read = group.gains[p * group.cells.batch:(p + 1) * group.cells.batch]
                assert all(got == _OUT or runs.gain(m, a, None) == gain
                           for got, a, gain in zip(read, assignments, want)), (m, obs)
                out = [gain for got, gain in zip(read, want) if got == _OUT]
                assert all(gain is None or gain < best for gain in out), (m, obs)
                ruled_out += len(out)
                if p % (7 * step) == 0:
                    row = p % len(assignments)
                    cls, class_plan = _class_and_plan(k, obs, p)
                    kept = dpengine._run_alone(arrays, part, class_plan, cls, p, assignments[row])
                    assert kept[3] == want[row]
    assert (ruled_out > 0) == (k > 3)
    cut = [(lo, hi) for entries, lo, hi, _ in chunks if entries == 1000]
    assert any(lo > 0 and hi - lo > 1 for lo, hi in cut)
    assert all((lo, hi) == (0, count) for entries, lo, hi, count in chunks if entries != 1000)
    assert alone and all(hi - lo == 1 for _, lo, hi, _ in alone)


def _run_kinds(monkeypatch) -> Counter:
    """Counts every _run_plan call from here on by kind: "bound" (a bound
    run), "class" (an exact run of several patterns) or "one" (an exact run
    of one pattern), and every _run_alone call as "alone"."""
    from kopt import dpengine

    kinds, real_run_plan, real_alone = Counter(), dpengine._run_plan, dpengine._run_alone

    def run_plan(plan, cells, **kwargs):
        bound = any(isinstance(v[0], dpengine._Best) for v in cells.sides[1])
        kinds["bound" if bound else "class" if cells.patterns > 1 else "one"] += 1
        return real_run_plan(plan, cells, **kwargs)

    def run_alone(*args):
        kinds["alone"] += 1
        return real_alone(*args)

    monkeypatch.setattr(dpengine, "_run_plan", run_plan)
    monkeypatch.setattr(dpengine, "_run_alone", run_alone)
    return kinds


def _ruled_out(runs) -> tuple[int, int]:
    """(cells ruled out, probes ruled out) in best_move's runs: a probe is a
    class of more than one member in the group with the most assignments."""
    from kopt.dpengine import _OUT, _class_table

    cells = sum(gain == _OUT for group in runs.groups.values() for gain in group.gains)
    probe = max(runs.groups.values(), key=lambda group: group.cells.batch)
    probes = sum(probe.gains[cls.members[0] * probe.cells.batch] == _OUT
                 for cls in _class_table(runs.k).classes if len(cls.members) > 1)
    return cells, probes


def test_a_warm_k5_n40_call_bounds_every_larger_class_run_and_runs_ten_exactly(monkeypatch):
    """At k = 5 on 40 vertices (four buckets of 10) the 5,760 plans of the
    fifteen order-edge groups fall into 73 classes, 1,095 (group, class)
    runs. A warm best_move runs the 21 classes of one member exactly in
    every group (315 runs) and bounds the 52 larger ones in the largest
    group, the probes. Their best gain rules out 44 probes, so it bounds the
    other 728 runs too: 780 bound runs in all, and 10 exact class runs and
    the winner's run alone. solve_fixed is still called once per cell, and
    19,674 of the 21,504 cells were ruled out."""
    from kopt import dpengine

    inst, tour = gen_random(40, 0, 10000), random_tour(40, 1)
    want = best_move(inst, tour, 5)
    made, kinds = _group_runs_made(monkeypatch), _run_kinds(monkeypatch)
    cells, real_solve_fixed = [], solve_fixed

    def count_cells(*args, **kwargs):
        cells.append(args[3])
        return real_solve_fixed(*args, **kwargs)

    monkeypatch.setattr(dpengine, "solve_fixed", count_cells)
    got = best_move(inst, tour, 5)
    assert (got.gain, got.embedding) == (want.gain, want.embedding)
    assert len(cells) == 21_504
    assert kinds == {"bound": 780, "one": 315 + 1, "class": 10, "alone": 1}
    assert _ruled_out(made[0]) == (19_674, 44)


def test_forget_into_ops_step_only_where_the_slab_is_large(monkeypatch):
    """A warm best_move at k = 4 on 64 vertices (one bucket) takes 12 of its
    48 forget-into ops' running maxima in position steps, those over slabs of
    64^2 entries, and accumulates the other 36. A k = 3 search on 100
    vertices, whose slabs hold 1 or 100 entries, steps none."""
    from kopt import dpengine

    ops, real_forget = [], dpengine._forget

    def forget(op, *args):
        if op[0] == FORGET_INTO:
            ops.append(set())
        return real_forget(op, *args)

    def spy(name):
        real = getattr(dpengine, name)

        def running_max(*args):
            ops[-1].add(name)
            return real(*args)

        monkeypatch.setattr(dpengine, name, running_max)

    inst, tour = gen_random(64, 0, 10_000), random_tour(64, 1)
    best_move(inst, tour, 4)
    monkeypatch.setattr(dpengine, "_forget", forget)
    spy("_max_steps")
    spy("_max_accumulate")
    best_move(inst, tour, 4)
    assert Counter(frozenset(names) for names in ops) == {
        frozenset({"_max_steps"}): 12, frozenset({"_max_accumulate"}): 36}
    ops.clear()
    inst, tour = gen_random(100, 0, 10_000), random_tour(100, 1)
    history = local_search(inst, tour, 3, policy="first")[1]
    assert history and ops and all(names == {"_max_accumulate"} for names in ops)


# ---------------------------------------------------------------------------
# Bounds: relaxed class runs rule out the runs that cannot hold the winner
# ---------------------------------------------------------------------------

# The three weight ranges of the bound tests on 13 vertices: ties, signs, and
# float64 tables.
BOUND_WEIGHTS = {
    "1..3": lambda seed: gen_random(13, seed, 3),
    "signed": lambda seed: random_reduction_input(13, seed, 100),
    "past 2^24": lambda seed: gen_random(13, seed, 1 << 25),
}


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_bound_runs_lie_above_every_member_in_every_cell(k):
    """Every (group, class) bound run's root is at least every member's
    gain in every cell of the group, chunked runs or not: alpha 1/2, 2/3
    and 3/4 on 13 vertices, so that buckets are padded, with weights in
    1..3, signed weights, and weights past 2^24, which make float64 tables.
    k = 6 takes 3 of the 9 configurations, each alpha and each weight range
    once."""
    from kopt.dpengine import _class_table, _GroupRuns, _relaxation

    alphas = (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
    configs = list(zip(alphas, BOUND_WEIGHTS)) if k == 6 else list(product(alphas, BOUND_WEIGHTS))
    for alpha, weights in configs:
        inst, tour = BOUND_WEIGHTS[weights](300 + k), random_tour(13, 310 + k)
        part = make_buckets(13, alpha)
        assert part.count >= 2 and 13 % part.count
        arrays = TourArrays(inst, tour)
        assert (arrays.dtype(k) is np.float64) == (weights == "past 2^24")
        runs = _GroupRuns(arrays, part, enumerate_assignments(k, part.count))
        for group in runs.groups.values():
            plans = runs._plans(group)
            for c, cls in enumerate(_class_table(k).classes):
                bound = np.array(runs._run(group, plans[c], _relaxation(cls), 0, 1))
                exact = np.array(runs._run(group, plans[c], cls, 0, len(cls.members)))
                exact = exact.reshape(len(cls.members), group.cells.batch)
                assert (exact <= bound).all(), (alpha, weights, cls.edges, group.obs)


def _bounds_patched_out(monkeypatch) -> None:
    from kopt import dpengine

    monkeypatch.setattr(dpengine._GroupRuns, "rule_out", lambda self, improving_only: None)


TIE_CASES = [
    (k, n, alpha, seed)
    for k, n in ((3, 11), (3, 14), (4, 11), (4, 14), (5, 11), (5, 13))
    for alpha in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
    for seed in range(5)
]


@pytest.mark.parametrize("max_entries", [None, 1])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_bounds_leave_every_move_as_it_was(monkeypatch, k, max_entries):
    """best_move gives the same gain, embedding and move as with the bound
    pass patched out, on 90 tie-heavy cases (weights in 1..3, over 2 to 4
    buckets), with MAX_BATCH_ENTRIES at its default and at 1, where every
    run is cut into chunks of one assignment (k = 5 there takes every fifth
    case). local_search(policy="best"), whose steps rule out bounds of at
    most 0, keeps the same history."""
    from kopt import dpengine

    if max_entries is not None:
        monkeypatch.setattr(dpengine, "MAX_BATCH_ENTRIES", max_entries)
    cases = [case for case in TIE_CASES if case[0] == k]
    if max_entries is not None and k == 5:
        cases = cases[::5]
    for _, n, alpha, seed in cases:
        assert make_buckets(n, alpha).count >= 2
        inst, tour = gen_random(n, 400 + 10 * k + seed, 3), random_tour(n, 450 + seed)
        got = best_move(inst, tour, k, alpha=alpha)
        with monkeypatch.context() as patch:
            _bounds_patched_out(patch)
            want = best_move(inst, tour, k, alpha=alpha)
        assert (got.gain, got.embedding, got.move) == (want.gain, want.embedding, want.move)
    if max_entries is None:
        for n in (11, 14):
            inst, tour = gen_random(n, 480 + k, 3), random_tour(n, 490 + k)
            got = local_search(inst, tour, k, alpha=Fraction(1, 2))
            with monkeypatch.context() as patch:
                _bounds_patched_out(patch)
                assert local_search(inst, tour, k, alpha=Fraction(1, 2)) == got
            assert got[1]


def test_probes_decide_whether_the_other_runs_are_bounded(monkeypatch):
    """k = 5 on 20 vertices: three buckets, eleven groups and 52 classes of
    more than one member. At a random tour the probes' best gain rules out
    40 of the 52 probes, so the other groups' 520 runs are bounded too. At
    the 3-opt optimum that a first-improvement search reaches from it, it
    rules out 8, and those runs run exactly."""
    from kopt.dpengine import default_alpha

    assert make_buckets(20, default_alpha(5)).count == 3
    inst, start = gen_random(20, 0, 10000), random_tour(20, 1)
    optimum = local_search(inst, start, 3, policy="first")[0]
    made, kinds = _group_runs_made(monkeypatch), _run_kinds(monkeypatch)
    for tour, bound_runs, probes in ((start, 52 + 520, 40), (optimum, 52, 8)):
        made.clear()
        kinds.clear()
        best_move(inst, tour, 5)
        assert len(made[0].groups) == 11
        assert (kinds["bound"], _ruled_out(made[0])[1]) == (bound_runs, probes)


# ---------------------------------------------------------------------------
# Blocks shared by the pattern runs of one plan group
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [3, 4, 5])
def test_shared_blocks_give_every_pattern_the_tables_of_fresh_cells(k):
    """Every pattern's run of each group over the group's memoizing cells,
    one after another, against a run over fresh cells with no memo, every
    table entry for entry: weights in 1..3 make ties, buckets of 4, 4 and 3
    pad the last one. Every stored block is read-only."""
    from kopt.buckets import BucketPartition
    from kopt.dpengine import _Cells, _class_of_one, _class_plan, _GroupRuns, _run_plan

    inst, tour = gen_random(11, 150 + k, 3), random_tour(11, 160 + k)
    part = BucketPartition(n=11, count=3)
    arrays = TourArrays(inst, tour)
    runs = _GroupRuns(arrays, part, list(enumerate_assignments(k, part.count)))
    groups = [(obs, group.cells) for obs, group in runs.groups.items() if group.cells.batch > 1]
    assert groups
    for obs, shared in groups:
        for m in valid_patterns(k):
            plan = _class_plan(m.k, interference_graph(m.pairs), obs)
            alone = _class_of_one(m)
            fresh = _Cells(arrays, part, shared.assignments)
            assert fresh.memo is None
            got = _run_plan(plan, shared.over(alone, 0, 1), keep_tables=True)
            want = _run_plan(plan, fresh.over(alone, 0, 1), keep_tables=True)
            assert np.array_equal(got[0], want[0])
            for got_tables, want_tables in zip(got[1:], want[1:]):
                assert len(got_tables) == len(want_tables)
                for g, w in zip(got_tables, want_tables):
                    assert g.dtype == w.dtype and np.array_equal(g, w)
        assert shared.memo
        assert not any(value.flags.writeable for value in shared.memo.values())


@pytest.mark.parametrize("k", [3, 4, 5])
def test_block_memo_budget_and_one_bucket_gate(monkeypatch, k):
    """With no budget left, best_move gives the same results and keeps no
    block; at one bucket no group has a memo at all."""
    from kopt import dpengine

    n, alpha = 12, Fraction(1, 2)
    assert make_buckets(n, alpha).count > 1
    inst, tour = gen_random(n, 170 + k, 100), random_tour(n, 180 + k)
    made, alone, budget = [], [], None
    init, run_alone = dpengine._GroupRuns.__init__, dpengine._run_alone

    def spy(self, *args):
        init(self, *args)
        if budget is not None:
            for group in self.groups.values():
                group.cells.budget.left = budget
        made.append(self)

    def rerun(*args):
        alone.append(args)
        return run_alone(*args)

    monkeypatch.setattr(dpengine._GroupRuns, "__init__", spy)
    monkeypatch.setattr(dpengine, "_run_alone", rerun)

    def results():
        made.clear()
        alone.clear()
        got = [best_move(inst, tour, k, alpha=alpha, policy=p) for p in ("best", "first")]
        assert len(made) == 2 + len(alone)  # a winner run again is a group of one
        return got

    def memos():
        return [group.cells.memo for runs in made for group in runs.groups.values()]

    whole = results()
    assert any(memos())
    budget = 0
    assert results() == whole
    assert not any(memos())

    budget = None
    made.clear()
    best_move(inst, tour, k, alpha=1)
    local_search(inst, tour, k, alpha=1, max_steps=2)
    assert len(made) >= 2
    assert all(memo is None for memo in memos())


def test_k4_n64_peak_memory_stays_small():
    """One warm best_move at k = 4, n = 64, alpha = 1 (one bucket) peaks
    under 16 MB of traced allocations: forget-into ops keep every table at
    64^3 entries or fewer, where the widest would hold 64^4 without them. At
    n = 160 the peak stays under 1.5 float32 tables of 160^3 entries, so a
    forget-into op's input is summed in pieces, not held whole beside its
    output."""
    import tracemalloc

    for n, bound in ((64, 16 << 20), (160, 3 * 4 * 160**3 // 2)):
        inst, tour = gen_random(n, 0, 10_000), random_tour(n, 1)
        best_move(inst, tour, 4, alpha=1)
        tracemalloc.start()
        try:
            best_move(inst, tour, 4, alpha=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, n


def test_k5_n40_peak_memory_stays_small():
    """One warm best_move at k = 5, n = 40 (four buckets of 10) peaks under
    6 MiB of traced allocations, with its bound runs' blocks in the shared
    memo beside the class runs'."""
    import tracemalloc

    inst, tour = gen_random(40, 0, 10_000), random_tour(40, 1)
    best_move(inst, tour, 5)
    tracemalloc.start()
    try:
        best_move(inst, tour, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20


def test_warm_best_move_leaves_no_reference_cycles():
    """The winner's rebuild holds its run's tables, and over more than one
    bucket the groups hold their shared blocks; both are freed when
    best_move returns, not at the next garbage collection."""
    import gc

    inst, tour = gen_random(12, 99, 100), random_tour(12, 98)
    for k, alpha in ((3, None), (4, Fraction(1, 2))):
        best_move(inst, tour, k, alpha=alpha)  # fills the caches
        gc.collect()
        gc.disable()
        try:
            best_move(inst, tour, k, alpha=alpha)
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_cold_best_move_leaves_no_reference_cycles():
    """From empty caches best_move also builds every decomposition and plan,
    and that leaves nothing for a garbage-collection pass either, at one
    bucket or at several."""
    code = (
        "import gc\n"
        "from kopt import best_move, gen_random, random_tour\n"
        "inst, tour = gen_random(100, 0, 10000), random_tour(100, 1)\n"
        "gc.collect()\n"
        "gc.disable()\n"
        "best_move(inst, tour, 3)\n"
        "print(gc.collect())\n"
        "best_move(inst, tour, 4, alpha=0.5)\n"
        "print(gc.collect())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "0"]


def _with_sides(m, plan):
    """plan's ops with m's own pair sides (from its class of one) in place of
    each block's pair count, in the order the compiler emitted them when it
    compiled each pattern's own plan: sorted by the lower slot's side, as in
    a variant, but by (higher slot's side, lower slot's side) in an introduce
    or forget-into block whose introduced slot is the block's higher slot."""
    from kopt.dpengine import _class_of_one

    alone = _class_of_one(m)
    ops = []
    for op, nd in zip(plan.ops, plan.nice.nodes, strict=True):
        if op[0] not in (INTRODUCE, FORGET_INTO, JOIN):
            ops.append(op)
            continue
        introduced = {INTRODUCE: nd.vertex, FORGET_INTO: nd.into}.get(op[0])
        blocks = []
        for slots, unary, count, *rest in op[-1]:
            pairs = alone.variants[alone.columns[slots]][0] if count else ()
            assert len(pairs) == count
            if introduced == slots[-1] + 1:
                pairs = tuple(sorted(pairs, key=lambda sides: sides[::-1]))
            blocks.append((slots, unary, pairs, *rest))
        ops.append(op[:-1] + (tuple(blocks),))
    return tuple(ops)


def test_compiled_plans_are_pinned():
    """The ops and width of every plan for k = 2..5 (each valid pattern with
    each order-edge set), with the pattern's own pair sides filled in, hash
    to a pinned digest, so a change to the node order or to op building
    that changes any op fails here. The digest is the one from when each
    pattern compiled its own plan with its sides in it."""
    import hashlib
    from itertools import combinations

    from kopt.dpengine import _class_plan

    digest = hashlib.sha256()
    plans = 0
    for k in range(2, 6):
        path = [(i, i + 1) for i in range(1, k)]
        subsets = [frozenset(c) for size in range(k) for c in combinations(path, size)]
        for m in valid_patterns(k):
            for obs in subsets:
                plan = _class_plan(m.k, interference_graph(m.pairs), obs)
                digest.update(repr((_with_sides(m, plan), plan.width)).encode())
                plans += 1
    assert plans == 6564
    assert digest.hexdigest() == (
        "75cbc5cabc508b5ccec2b91c2810fd277c1011fb55f995e545299b4201cc32fd"
    )


def test_plans_with_no_order_only_edge_are_unchanged():
    """The 1,445 plans of the test above whose order edges all carry a
    pattern pair too (every plan with no order edge among them) have nothing
    the order-edge rule can use: with their pattern's sides filled in, they
    hash to the digest they had before the rule existed."""
    import hashlib
    from itertools import combinations

    from kopt.dpengine import _class_plan

    digest = hashlib.sha256()
    plans = 0
    for k in range(2, 6):
        path = [(i, i + 1) for i in range(1, k)]
        subsets = [frozenset(c) for size in range(k) for c in combinations(path, size)]
        for m in valid_patterns(k):
            for obs in subsets:
                if obs.issubset(interference_graph(m.pairs)):
                    plan = _class_plan(m.k, interference_graph(m.pairs), obs)
                    assert all(op[0] != FORGET_INTO for op in plan.ops)
                    digest.update(repr((_with_sides(m, plan), plan.width)).encode())
                    plans += 1
    assert plans == 1445
    assert digest.hexdigest() == (
        "3e259b713082031a21341ac48e9ffc5cdf3d77f499386981a1d41f042ef4f27b"
    )


def test_compile_refuses_a_forget_into_without_a_pure_order_edge():
    """The validator cannot tell an order edge from an interference edge;
    the compiler refuses to forget a slot into one it shares a pattern pair
    with, or into one no order edge joins it to."""
    from kopt.buckets import BucketPartition
    from kopt.dpengine import _compile
    from kopt.moves import InvariantError

    inst, tour = gen_random(8, 18, 100), random_tour(8, 19)
    part = BucketPartition(n=8, count=1)
    chain = _forget_into_chain(2, (1,), 1, 2)
    assert interference_graph(SWAP_2.pairs) == ((1, 2),)
    refusal = "slots 1 and 2 must be joined by an order edge alone"
    with pytest.raises(InvariantError, match=refusal):
        solve_fixed(inst, tour, SWAP_2, (1, 1), part, chain)
    with pytest.raises(InvariantError, match=refusal):
        _compile((), frozenset(), chain)
    # the same chain is fine where the order edge is pure
    res = solve_fixed(inst, tour, IDENTITY_2, (1, 1), part, chain)
    assert res.gain == enumerate_b_monotone_max(inst, tour, IDENTITY_2, (1, 1), part).value


def test_plans_are_compiled_once_per_shape():
    """In a fresh process, a cold best_move compiles one plan per shape and
    order-edge set, and a warm one none: 1,095 plans for the 5,760 (pattern,
    order-edge set) pairs of k = 5 over four buckets of 10, and 388 for the
    3,840 patterns of k = 6 over one bucket of 24."""
    code = (
        "from kopt import best_move, dpengine, gen_random, random_tour\n"
        "compiled = []\n"
        "real = dpengine._compile\n"
        "dpengine._compile = lambda *args: compiled.append(args) or real(*args)\n"
        "for k, n, alpha in ((5, 40, None), (5, 40, None), (6, 24, 1)):\n"
        "    compiled.clear()\n"
        "    best_move(gen_random(n, 0, 10000), random_tour(n, 1), k, alpha=alpha)\n"
        "    print(len(compiled))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1095", "0", "388"]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_every_pattern_of_a_shape_runs_its_shape_plan_with_its_own_sides(k):
    """Each valid pattern's plan (_class_plan of its edges) is its class's plan, the one
    at its class id in the order-edge set's plan tuple, over the same
    decomposition object, and its row of the class's sides table gives every
    pair block as many pairs as the block declares: the pattern's own sides,
    those of its class of one. The plan tuple holds one plan per class.
    Every order-edge set for k = 2..5; the empty and the full one for k = 6."""
    from kopt.dpengine import _class_of_one, _class_plan, _class_plans, _class_table

    path = [(i, i + 1) for i in range(1, k)]
    subsets = ([frozenset(), frozenset(path)] if k == 6 else
               [frozenset(c) for size in range(k) for c in combinations(path, size)])
    table = _class_table(k)
    blocks = 0
    for obs in subsets:
        plans, whole_width = _class_plans(k, obs)
        assert len(plans) == len(table.classes) == len(pattern_classes(k))
        for p, m in enumerate(valid_patterns(k)):
            c = table.class_of[p]
            own = _class_plan(m.k, interference_graph(m.pairs), obs)
            cls, plan = table.classes[c], plans[c]
            assert own == plan and own.nice is plan.nice
            alone, i = _class_of_one(m), cls.members.index(p)
            assert alone.columns == cls.columns
            blocked = [op for op in own.ops if op[0] in (INTRODUCE, FORGET_INTO, JOIN)]
            for slots, _, count, *_ in (block for op in blocked for block in op[-1]):
                if count:
                    col = cls.columns[slots]
                    sides = cls.variants[col][cls.ids[i, col]]
                    assert len(sides) == count
                    assert sides == alone.variants[col][0]
                    blocks += 1
        assert whole_width == max(plan.whole_width for plan in plans)
    assert blocks > 0


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


def test_cell_count_is_bounded_before_any_plan_runs(monkeypatch):
    """k = 6 at alpha 0 and n = 12 has 3,840 valid patterns and 12,376
    bucket assignments: their few slot positions pass the assignment bound,
    but 47.5 million cells do not pass the cell bound. The largest call the
    tests make, k = 5 at alpha 0 and n = 10, has 768,768 cells."""
    from kopt import dpengine

    assert 384 * 2002 <= dpengine.MAX_CELLS < 3840 * 12376

    def fail(*args):
        raise AssertionError("no assignment may be listed and no plan run")

    for name in ("enumerate_assignments", "valid_patterns", "_run_plan"):
        monkeypatch.setattr(dpengine, name, fail)
    inst, tour = gen_random(12, 0, 100), random_tour(12, 1)
    with pytest.raises(ValueError, match="3,840 valid patterns times 12,376 bucket assignments"
                       " make 47,523,840 cells; at most 8,388,608"):
        best_move(inst, tour, 6, alpha=0)


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
    the run that scored it; "best" here runs the winner again, as a group of
    one whose tables a second take hands over, so each call's first take
    tells the two apart."""
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
        "    reused.clear()\n"
        "    try:\n"
        "        dpengine.best_move(inst, tour, 3, policy=policy)\n"
        "    except kopt.InvariantError as exc:\n"
        "        print('raised', sys.flags.optimize, reused[0] is not None, exc)\n"
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


def test_a_gain_above_its_bound_raises_under_python_O():
    """A run that was bounded and then runs exactly checks its gains against
    its bound. With the relaxed blocks taking each block's worst side
    variant, not its best, a gain exceeds its bound and best_move raises
    InvariantError, also under python -O."""
    stdout = _run_optimized(
        "import sys\n"
        "import numpy as np\n"
        "import kopt\n"
        "from kopt import dpengine\n"
        "def worst(slots, variants, cells):\n"
        "    return np.min([dpengine._stored((slots, (), v, 'neg_w', False), cells)\n"
        "                   for v in variants], axis=0)\n"
        "dpengine._relaxed = worst\n"
        "inst, tour = kopt.gen_random(16, 1, 100), kopt.random_tour(16, 2)\n"
        "try:\n"
        "    dpengine.best_move(inst, tour, 4, alpha=0.5)\n"
        "except kopt.InvariantError as exc:\n"
        "    print('raised', sys.flags.optimize, exc)\n"
    )
    assert stdout.startswith("raised 1 a gain of class"), stdout
