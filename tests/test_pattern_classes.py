"""The pattern-class table (moves.pattern_classes) against valid_patterns
and both of its readers: c_of_k and the engine's class table."""

import hashlib
from itertools import combinations

import pytest

from kopt.alpha import c_of_k
from kopt.decomp import dependence_graph
from kopt.dpengine import _class_plans, _class_table, nice_decomposition_for
from kopt.moves import interference_graph, pattern_classes, valid_pattern_count, valid_patterns

CLASS_COUNTS = {2: 2, 3: 5, 4: 17, 5: 73, 6: 388, 7: 2461}


@pytest.mark.parametrize("k", sorted(CLASS_COUNTS))
def test_classes_partition_the_valid_patterns_by_interference_edges(k):
    patterns = valid_patterns(k)
    classes = pattern_classes(k)
    assert pattern_classes(k) is classes
    assert len(classes) == CLASS_COUNTS[k]
    assert [c.edges for c in classes] == sorted(c.edges for c in classes)
    found = []
    for edges, members in classes:
        assert list(edges) == sorted(edges)
        assert len(members) > 0 and list(members) == sorted(members)
        assert all(interference_graph(patterns[p].pairs) == edges for p in members)
        found += members
    assert sum(len(members) for _, members in classes) == valid_pattern_count(k)
    assert sorted(found) == list(range(len(patterns)))


@pytest.mark.parametrize("k", sorted(CLASS_COUNTS))
def test_every_shape_is_the_class_of_its_patterns(k):
    """The engine's class table gives each pattern the id of its class, and
    the plan tuple of every order-edge set holds one plan per class, at the
    class's id: under every order-edge set for k <= 5 and the empty and the
    full one past."""
    path = [(i, i + 1) for i in range(1, k)]
    subsets = ([frozenset(), frozenset(path)] if k > 5 else
               [frozenset(c) for size in range(k) for c in combinations(path, size)])
    classes = pattern_classes(k)
    table = _class_table(k)
    assert len(table.class_of) == valid_pattern_count(k)
    for c, (edges, members) in enumerate(classes):
        assert table.classes[c].edges == edges
        assert all(table.class_of[p] == c for p in members)
        assert all(list(table.classes[table.class_of[p]].members) == list(members)
                   for p in members)
    for obs in subsets:
        plans = _class_plans(k, obs)[0]
        assert len(plans) == CLASS_COUNTS[k]
        for c, (edges, members) in enumerate(classes):
            assert plans[c].nice is nice_decomposition_for(dependence_graph(k, edges, obs),
                                                           obs.difference(edges))


def test_c_of_k_reports_are_pinned():
    """c_of_k's per-class reports (edges, pattern count, widths, alpha, c)
    for k = 2..6 hash to the digest they had when c_of_k grouped the raw
    matchings itself."""
    digest = hashlib.sha256()
    for k in range(2, 7):
        res = c_of_k(k, want_per_class=True)
        rows = [(r.edges, r.pattern_count, r.profile.t, str(r.alpha), str(r.c))
                for r in res.per_class]
        digest.update(repr((k, rows)).encode())
    assert digest.hexdigest() == (
        "9492d5a0e078255fefdc68b3877abfd68373150a7153c434622bdf10e5514dd0"
    )
