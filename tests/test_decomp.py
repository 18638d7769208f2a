"""Dependence graphs, exact treewidth, and (nice) tree decompositions."""

import random
from collections import Counter
from itertools import combinations, permutations

import pytest

from kopt import decomp
from kopt.buckets import order_edges
from kopt.decomp import (
    FORGET,
    FORGET_INTO,
    INTRODUCE,
    JOIN,
    LEAF,
    DepGraph,
    NiceNode,
    NiceTreeDecomposition,
    TreeDecomposition,
    adjacency,
    decomposition_from_order,
    dependence_graph,
    to_nice,
    treewidth,
    treewidth_exact,
    validate_decomposition,
)
from kopt.moves import ConnectionPattern, interference_graph, valid_patterns
from kopt.oracle import treewidth_bruteforce


def complete_graph(k):
    return DepGraph(k, frozenset(combinations(range(1, k + 1), 2)))


def cycle_graph(k):
    return DepGraph(k, frozenset([(i, i + 1) for i in range(1, k)] + [(1, k)]))


def path_graph(k):
    return DepGraph(k, frozenset((i, i + 1) for i in range(1, k)))


def random_graph(k, seed, p=0.5):
    rng = random.Random(seed)
    edges = [e for e in combinations(range(1, k + 1), 2) if rng.random() < p]
    return DepGraph(k, frozenset(edges))


def test_dependence_graph_union():
    m = ConnectionPattern(3, ((2, 5), (4, 1), (6, 3)))
    dep = dependence_graph(interference_graph(m), order_edges((1, 1, 1)))
    assert dep.edges == frozenset({(1, 2), (2, 3), (1, 3)})
    assert treewidth_exact(dep)[0] == 2


def test_dependence_graph_max_degree_four():
    for k in (3, 4, 5):
        for m in valid_patterns(k):
            dep = dependence_graph(interference_graph(m), order_edges((1,) * k))
            deg = {v: 0 for v in range(1, k + 1)}
            for a, b in dep.edges:
                deg[a] += 1
                deg[b] += 1
            assert max(deg.values()) <= 4


@pytest.mark.parametrize(
    "graph,expected",
    [
        (complete_graph(5), 4),
        (cycle_graph(6), 2),
        (path_graph(5), 1),
        (DepGraph(5, frozenset()), 0),
    ],
)
def test_treewidth_known_values(graph, expected):
    width, order = treewidth_exact(graph)
    assert width == expected
    assert sorted(order) == list(range(1, graph.k + 1))
    assert treewidth(adjacency(graph.k, graph.edges)) == expected


def test_treewidth_subdivided_k4_needs_fill_awareness():
    # degeneracy is 2 but treewidth is 3; a fill-blind subset DP gets this wrong
    g = DepGraph(5, frozenset([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)]))
    assert treewidth_exact(g)[0] == 3
    assert treewidth(adjacency(g.k, g.edges)) == 3


def elimination_width(g: DepGraph, order) -> int:
    nbrs = {v: set() for v in range(1, g.k + 1)}
    for a, b in g.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    width = 0
    for v in order:
        width = max(width, len(nbrs[v]))
        for u in nbrs[v]:
            nbrs[u].discard(v)
            nbrs[u].update(nbrs[v] - {u})
        del nbrs[v]
    return width


def test_returned_order_realizes_the_width():
    for seed in range(30):
        g = random_graph(6, seed)
        width, order = treewidth_exact(g)
        assert elimination_width(g, order) == width


def test_treewidth_matches_factorial_bruteforce_small():
    for k in (3, 4, 5):
        for edges in [set(), {(1, 2)}, {(1, 2), (2, 3)}]:
            g = DepGraph(k, frozenset(edges))
            assert treewidth_exact(g)[0] == treewidth_bruteforce(g).value
    for seed in range(60):
        g = random_graph(5 + seed % 3, seed)
        exact_w, exact_order = treewidth_exact(g)
        brute = treewidth_bruteforce(g)
        assert exact_w == brute.value
        assert exact_order == brute.witness  # both tie-break lexicographically


def test_treewidth_on_interference_unions_vs_bruteforce():
    # all graphs arising as interference edges plus consecutive-pair subsets, k <= 5
    path = [(i, i + 1) for i in range(1, 5)]
    seen = set()
    for m in valid_patterns(5):
        iedges = interference_graph(m).edges
        for s in range(len(path) + 1):
            for subset in combinations(path, s):
                key = iedges | frozenset(subset)
                if key in seen:
                    continue
                seen.add(key)
                g = DepGraph(5, key)
                brute = treewidth_bruteforce(g)
                # plans are built from this order, so it is pinned too
                assert treewidth_exact(g) == (brute.value, brute.witness)


def no_dp(*args):
    raise AssertionError("subset DP ran")


def test_long_cycle_reduces_past_the_dp_size_bound(monkeypatch):
    """treewidth's reductions leave no core of the 40-cycle; treewidth_exact,
    which reads its order off the table over all subsets, refuses it."""
    g = cycle_graph(40)
    monkeypatch.setattr(decomp, "_subset_table", no_dp)
    assert treewidth(adjacency(g.k, g.edges)) == 2
    with pytest.raises(ValueError, match="at most 24 vertices"):
        treewidth_exact(g)


def test_oversized_core_is_refused_before_the_dp(monkeypatch):
    monkeypatch.setattr(decomp, "_subset_dp", no_dp)
    monkeypatch.setattr(decomp, "_subset_table", no_dp)
    with pytest.raises(ValueError, match="at most 24"):
        treewidth(adjacency(25, complete_graph(25).edges))
    with pytest.raises(ValueError, match="at most 24"):
        treewidth_exact(complete_graph(25))


def test_treewidth_takes_any_sortable_labels():
    # subdivided K4 on string labels: same width as on 1..5
    edges = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "e"), ("d", "e")]
    adj = {v: set() for v in "abcde"}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    assert treewidth(adj) == 3


def test_decomposition_from_order_examples():
    tri = DepGraph(3, frozenset([(1, 2), (2, 3), (1, 3)]))
    for order in permutations((1, 2, 3)):
        d = decomposition_from_order(tri, order)
        assert d.width == 2
        assert validate_decomposition(tri, d)[0]
    p5 = path_graph(5)
    d = decomposition_from_order(p5, (1, 2, 3, 4, 5))
    assert d.width == 1
    assert validate_decomposition(p5, d)[0]


@pytest.mark.parametrize("k", range(1, 7))
def test_every_order_validates_and_matches_elimination_width(k):
    """Every order of random graphs, with no order-only edge (width equal to
    the order's elimination width) and with some (width at most that)."""
    rng = random.Random(k)
    for seed in range(12):
        g = random_graph(k, seed + 7000, p=rng.uniform(0.2, 0.9))
        only = frozenset(e for e in g.edges if rng.random() < 0.5)
        for order in permutations(range(1, k + 1)):
            want = elimination_width(g, order)
            for order_only in (frozenset(), only):
                d = decomposition_from_order(g, order, order_only)
                ok, diags = validate_decomposition(g, d)
                assert ok, diags
                assert d.width <= want
                assert d.width == want or order_only


@pytest.mark.parametrize("seed", range(50))
def test_random_orders_validate_and_match_elimination_width(seed):
    rng = random.Random(seed)
    k = rng.randint(3, 7)
    g = random_graph(k, seed + 1000, p=rng.uniform(0.2, 0.8))
    order = list(range(1, k + 1))
    rng.shuffle(order)
    d = decomposition_from_order(g, tuple(order))
    ok, diags = validate_decomposition(g, d)
    assert ok, diags
    assert d.width == elimination_width(g, order)


def test_to_nice_single_bag_chain_shape():
    g = DepGraph(2, frozenset([(1, 2)]))
    d = decomposition_from_order(g, (1, 2))
    nice = to_nice(d)
    kinds = [nice.nodes[t].kind for t in nice.postorder()]
    # ascending introduces from the empty leaf, then ascending forgets
    assert kinds == ["leaf", "introduce", "introduce", "forget", "forget"]
    verts = [nice.nodes[t].vertex for t in nice.postorder()]
    assert verts == [None, 1, 2, 1, 2]
    assert validate_decomposition(g, nice)[0]


@pytest.mark.parametrize("seed", range(50))
def test_to_nice_preserves_width_and_validates(seed):
    rng = random.Random(seed + 77)
    k = rng.randint(2, 7)
    g = random_graph(k, seed + 2000, p=rng.uniform(0.2, 0.9))
    order = list(range(1, k + 1))
    rng.shuffle(order)
    d = decomposition_from_order(g, tuple(order))
    nice = to_nice(d)
    assert nice.width == d.width
    ok, diags = validate_decomposition(g, nice)
    assert ok, diags
    # node count stays linear in k * width
    assert len(nice.nodes) <= 4 * g.k * (d.width + 2) + 4


def test_validator_names_uncovered_edge():
    g = DepGraph(3, frozenset([(1, 2), (2, 3)]))
    bad = NiceTreeDecomposition(
        k=3,
        nodes=(
            NiceNode("leaf", frozenset(), None, ()),
            NiceNode("introduce", frozenset({1}), 1, (0,)),
            NiceNode("introduce", frozenset({1, 2}), 2, (1,)),
            NiceNode("forget", frozenset({2}), 1, (2,)),
            NiceNode("introduce", frozenset({2, 3}), 3, (3,)),
            NiceNode("forget", frozenset({3}), 2, (4,)),
            NiceNode("forget", frozenset(), 3, (5,)),
        ),
        root=6,
    )
    ok, _ = validate_decomposition(g, bad)
    assert ok
    g_more = DepGraph(3, frozenset([(1, 2), (2, 3), (1, 3)]))
    ok, diags = validate_decomposition(g_more, bad)
    assert not ok
    assert any("edge (1,3)" in d for d in diags)


def test_validator_names_disconnected_vertex():
    g = DepGraph(3, frozenset([(1, 2)]))
    from kopt.decomp import TreeDecomposition

    bad = TreeDecomposition(
        k=3,
        bags=(frozenset({1, 2}), frozenset({3}), frozenset({1, 2})),
        parent=(1, 2, -1),
        root=2,
    )
    ok, diags = validate_decomposition(g, bad)
    assert not ok
    assert any("vertex 1" in d or "vertex 2" in d for d in diags)


def test_separation_property_on_produced_decompositions():
    # the separator property follows from what validate_decomposition checks
    # (see the decomp module docstring); exercise it on many real dependence
    # graphs
    for m in valid_patterns(4):
        dep = dependence_graph(interference_graph(m), order_edges((1, 1, 2, 2)))
        width, order = treewidth_exact(dep)
        nice = to_nice(decomposition_from_order(dep, order))
        ok, diags = validate_decomposition(dep, nice)
        assert ok, diags
        assert nice.width == width


def test_unconditional_width_bound():
    for k in (3, 4, 5):
        for m in valid_patterns(k):
            dep = dependence_graph(interference_graph(m), order_edges((1,) * k))
            assert treewidth_exact(dep)[0] <= k - 1


def test_join_nodes_occur_for_branching_graphs():
    g = DepGraph(4, frozenset([(1, 4), (2, 4), (3, 4)]))
    width, order = treewidth_exact(g)
    nice = to_nice(decomposition_from_order(g, order))
    assert any(nd.kind == JOIN for nd in nice.nodes)
    assert validate_decomposition(g, nice)[0]


def test_tree_decomposition_with_a_cycle_is_refused():
    # 0 -> 1 -> 0 never reaches the root: to_nice, which the validator runs,
    # would recurse along it forever
    from kopt.decomp import TreeDecomposition

    bags = (frozenset({1, 2}), frozenset({1, 2}), frozenset({2}))
    with pytest.raises(ValueError, match="bag 0 does not reach the root"):
        TreeDecomposition(k=2, bags=bags, parent=(1, 0, -1), root=2)
    with pytest.raises(ValueError, match="one parent per bag"):
        TreeDecomposition(k=2, bags=bags, parent=(2, -1), root=1)
    with pytest.raises(ValueError, match="parent\\[root\\] == -1"):
        TreeDecomposition(k=2, bags=bags, parent=(2, 2, 0), root=2)
    with pytest.raises(ValueError, match="bag 0 does not reach the root"):
        TreeDecomposition(k=2, bags=bags, parent=(-1, 2, -1), root=2)
    TreeDecomposition(k=2, bags=bags, parent=(1, 2, -1), root=2)


LEAF_0 = NiceNode("leaf", frozenset(), None, ())


@pytest.mark.parametrize(
    "nodes,root",
    [
        pytest.param(
            (
                NiceNode("introduce", frozenset({1}), 1, (1,)),
                NiceNode("forget", frozenset(), 1, (0,)),
            ),
            1,
            id="cycle",
        ),
        pytest.param(
            (
                LEAF_0,
                NiceNode("introduce", frozenset({1}), 1, (0,)),
                NiceNode("join", frozenset({1}), None, (1, 1)),
                NiceNode("forget", frozenset(), 1, (2,)),
            ),
            3,
            id="child-used-twice",
        ),
        pytest.param(
            (
                LEAF_0,
                NiceNode("introduce", frozenset({1}), 1, (0,)),
                NiceNode("forget", frozenset(), 1, (1,)),
                LEAF_0,
            ),
            2,
            id="root-not-last",
        ),
    ],
)
def test_nice_decomposition_refuses_nodes_out_of_run_order(nodes, root):
    with pytest.raises(ValueError):
        NiceTreeDecomposition(k=1, nodes=nodes, root=root)


def test_to_nice_leaves_no_reference_cycles():
    import gc

    g = DepGraph(4, frozenset([(1, 4), (2, 4), (3, 4)]))
    d = decomposition_from_order(g, treewidth_exact(g)[1])
    gc.collect()
    gc.disable()
    try:
        to_nice(d)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_validator_refuses_bag_vertices_outside_1_to_k():
    g = DepGraph(3, frozenset([(1, 2), (2, 3)]))
    d = TreeDecomposition(
        k=3, bags=(frozenset({1, 2}), frozenset({2, 3, 4})), parent=(1, -1), root=1
    )
    assert validate_decomposition(g, d) == (False, ["slot 4 is outside 1..3"])


def decomposes_by_definition(g, bags, tree_edges) -> bool:
    """Bags inside 1..k, every vertex and every edge of g in a bag, and the
    bags holding each vertex connected in the tree, by BFS."""
    k = g.k
    if any(not bag <= set(range(1, k + 1)) for bag in bags):
        return False
    if any(not any(a in bag and b in bag for bag in bags) for a, b in g.edges):
        return False
    adj = {i: [] for i in range(len(bags))}
    for p, c in tree_edges:
        adj[p].append(c)
        adj[c].append(p)
    for v in range(1, k + 1):
        holders = {i for i, bag in enumerate(bags) if v in bag}
        if not holders:
            return False
        seen = {min(holders)}
        queue = [min(holders)]
        while queue:
            u = queue.pop(0)
            for w in adj[u]:
                if w in holders and w not in seen:
                    seen.add(w)
                    queue.append(w)
        if seen != holders:
            return False
    return True


def nice_by_definition(g, nice) -> bool:
    """The node-kind rules, an empty root bag, and the definition above."""
    nodes = nice.nodes
    for nd in nodes:
        kids = [nodes[c].bag for c in nd.children]
        if nd.kind == LEAF:
            ok = not nd.bag and not kids
        elif nd.kind == INTRODUCE:
            ok = nd.vertex in nd.bag and kids == [nd.bag - {nd.vertex}]
        elif nd.kind == FORGET:
            ok = nd.vertex not in nd.bag and kids == [nd.bag | {nd.vertex}]
        else:
            ok = nd.kind == JOIN and kids == [nd.bag, nd.bag]
        if not ok:
            return False
    edges = [(i, c) for i, nd in enumerate(nodes) for c in nd.children]
    return not nodes[nice.root].bag and decomposes_by_definition(
        g, [nd.bag for nd in nodes], edges
    )


def drop_vertex(rng, bags):
    """The bags with one vertex taken out of one non-empty bag, and its index."""
    i = rng.choice([i for i, bag in enumerate(bags) if bag])
    bags = list(bags)
    bags[i] = bags[i] - {rng.choice(sorted(bags[i]))}
    return bags, i


def test_validator_agrees_with_the_definition():
    """Random decompositions from elimination orders, each against its own
    graph and another, with and without a vertex dropped from a bag, and
    their nice forms, which get a dropped vertex too."""
    rng = random.Random(5)
    verdicts = Counter()
    for seed in range(300):
        k = rng.randint(2, 7)
        g = random_graph(k, seed + 3000, p=rng.uniform(0.1, 0.9))
        order = list(range(1, k + 1))
        rng.shuffle(order)
        valid = decomposition_from_order(g, tuple(order))
        bags, _ = drop_vertex(rng, valid.bags)
        dropped = TreeDecomposition(k, tuple(bags), valid.parent, valid.root)
        for d in (valid, dropped):
            nice = to_nice(d)
            nodes = list(nice.nodes)
            bags, i = drop_vertex(rng, [nd.bag for nd in nodes])
            nodes[i] = NiceNode(nodes[i].kind, bags[i], nodes[i].vertex, nodes[i].children)
            nice_dropped = NiceTreeDecomposition(k, tuple(nodes), nice.root)
            for graph in (g, random_graph(k, seed + 4000, p=0.3)):
                ok, diags = validate_decomposition(graph, d)
                tree_edges = [(p, c) for c, p in enumerate(d.parent) if p >= 0]
                assert ok == decomposes_by_definition(graph, d.bags, tree_edges), diags
                assert ok == (not diags)
                verdicts[ok] += 1
                for n in (nice, nice_dropped):
                    ok, diags = validate_decomposition(graph, n)
                    assert ok == nice_by_definition(graph, n), diags
                    verdicts[ok] += 1
    assert min(verdicts.values()) > 500


# ---------------------------------------------------------------------------
# The order-edge rule: effective width and forget-into nodes
# ---------------------------------------------------------------------------


def effective_decomposition(g, only):
    """treewidth_exact's effective width and order, and the nice form built
    on that order, which must validate and have that width."""
    width, order = treewidth_exact(g, only)
    d = decomposition_from_order(g, order, only)
    nice = to_nice(d)
    ok, diags = validate_decomposition(g, nice)
    assert ok, diags
    assert d.width == nice.width == width
    return width, order, nice


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_effective_width_matches_bruteforce_on_every_pattern_and_order_edge_set(k):
    path = [(i, i + 1) for i in range(1, k)]
    forget_intos = 0
    for m in valid_patterns(k):
        iedges = interference_graph(m).edges
        for size in range(k):
            for obs in combinations(path, size):
                g = dependence_graph(interference_graph(m), frozenset(obs))
                only = frozenset(obs) - iedges
                brute = treewidth_bruteforce(g, order_only=only)
                width, order, nice = effective_decomposition(g, only)
                assert (width, order) == (brute.value, brute.witness), (m.pairs, obs)
                forget_intos += sum(nd.kind == FORGET_INTO for nd in nice.nodes)
    assert forget_intos > 0


def test_effective_width_matches_bruteforce_on_random_graphs():
    rng = random.Random(11)
    lowered = 0
    for seed in range(2000):
        k = rng.randint(1, 7)
        g = random_graph(k, seed + 5000, p=rng.uniform(0.1, 0.9))
        only = frozenset(e for e in g.edges if rng.random() < 0.5)
        brute = treewidth_bruteforce(g, order_only=only)
        width, order, _ = effective_decomposition(g, only)
        assert (width, order) == (brute.value, brute.witness), (g, only)
        lowered += width < treewidth_exact(g)[0]
    assert lowered > 200


def test_effective_width_is_the_treewidth_without_order_only_edges():
    """With no order-only edge nothing is pure: the oracle and the table
    over all subsets give the treewidth that treewidth's reductions and core
    DP give."""
    for seed in range(300):
        g = random_graph(1 + seed % 8, seed + 9000, p=0.2 + (seed % 7) / 10)
        tw = treewidth(adjacency(g.k, g.edges))
        assert treewidth_bruteforce(g, order_only=frozenset()).value == tw
        assert treewidth_exact(g)[0] == tw
        d = decomposition_from_order(g, treewidth_exact(g)[1], frozenset())
        assert d.into == ()


def test_one_bucket_plans_hold_at_most_three_slots_for_k_up_to_5():
    """At one bucket every order edge is present: for k = 4 and 5 the widest
    table then has n^3 entries, against n^4 without the rule."""
    for k in (4, 5):
        obs = frozenset((i, i + 1) for i in range(1, k))
        widths = Counter()
        for m in valid_patterns(k):
            ig = interference_graph(m)
            g = dependence_graph(ig, obs)
            widths[effective_decomposition(g, obs - ig.edges)[0], treewidth_exact(g)[0]] += 1
        assert max(w for w, _ in widths) == 2
        assert max(tw for _, tw in widths) == 3


def bad_forget_into(w_in_child=False, w_below=False, v_outside=False, not_an_edge=False):
    """A nice decomposition of the path 1-2-3 with a forget-into node of
    slot 1 into slot 2, broken in one way if asked."""
    g = DepGraph(3, frozenset([(2, 3)] if not_an_edge else [(1, 2), (2, 3)]))
    if w_in_child or w_below:
        first = frozenset({1, 2})
    else:
        first = frozenset({3} if v_outside else {1})
    nodes = [LEAF_0]
    cur = set()
    for v in sorted(first):
        cur.add(v)
        nodes.append(NiceNode(INTRODUCE, frozenset(cur), v, (len(nodes) - 1,)))
    if w_below:
        nodes.append(NiceNode(FORGET, frozenset({1}), 2, (len(nodes) - 1,)))
        cur = {1}
    nodes.append(NiceNode(FORGET_INTO, frozenset(cur - {1} | {2}), 1, (len(nodes) - 1,), 2))
    cur = cur - {1} | {2}
    for v in sorted({3} - cur):
        cur.add(v)
        nodes.append(NiceNode(INTRODUCE, frozenset(cur), v, (len(nodes) - 1,)))
    for v in sorted(cur):
        cur.remove(v)
        nodes.append(NiceNode(FORGET, frozenset(cur), v, (len(nodes) - 1,)))
    return g, NiceTreeDecomposition(3, tuple(nodes), len(nodes) - 1)


@pytest.mark.parametrize("fault, message", [
    (None, None),
    ("w_in_child", "forget-into node 3: slot 2 is already in its child's bag"),
    # 2 is forgotten below the node and again above it
    ("w_below", "bags containing vertex 2 are not connected in the tree"),
    ("v_outside", "forget-into node 2: slot 1 is not in its child's bag"),
    ("not_an_edge", "forget-into node 2: (1,2) is not an edge of the graph"),
])
def test_validator_refuses_a_bad_forget_into_node(fault, message):
    g, nice = bad_forget_into(**({fault: True} if fault else {}))
    ok, diags = validate_decomposition(g, nice)
    assert (ok, diags) == ((True, []) if fault is None else (False, [message]))


@pytest.mark.parametrize("build", [
    lambda g, only: treewidth_exact(g, only),
    lambda g, only: decomposition_from_order(g, (1, 2, 3), only),
], ids=["treewidth_exact", "decomposition_from_order"])
@pytest.mark.parametrize("only, message", [
    ({(1, 3)}, "order-only edges must be edges of the graph"),
    ({(1, 9)}, "vertex out of range 1..3"),
    ({(2, 2)}, "loops are not allowed"),
], ids=["not-an-edge", "out-of-range", "loop"])
def test_bad_order_only_edges_are_refused(build, only, message):
    with pytest.raises(ValueError, match=message):
        build(path_graph(3), only)
