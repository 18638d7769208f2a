"""Connection patterns, interference graphs, gains, and move application."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from kopt.instance import Tour, euclidean_instance, gen_random, random_tour, tour_weight
from kopt.moves import (
    ConnectionPattern,
    DegenerateMoveError,
    _valid_matchings_raw,
    apply_move,
    as_kmove,
    enumerate_matchings,
    gain_partial,
    interference_graph,
    is_valid_pattern,
    matching_count,
    pattern_classes,
    valid_pattern_count,
    valid_patterns,
)

SQUARE = euclidean_instance([(0, 0), (10, 0), (10, 10), (0, 10)])
CROSSING = Tour((1, 3, 2, 4))
IDENTITY_2 = ConnectionPattern(2, ((1, 2), (3, 4)))
SWAP_2 = ConnectionPattern(2, ((1, 3), (2, 4)))


def double_factorial_count(k):
    out = 1
    for odd in range(1, 2 * k, 2):
        out *= odd
    return out


@pytest.mark.parametrize("k,expected", [(2, 3), (3, 15), (4, 105)])
def test_matching_counts(k, expected):
    matchings = list(enumerate_matchings(k))
    assert len(matchings) == expected == double_factorial_count(k)
    assert len(set(m.pairs for m in matchings)) == expected


def test_matchings_canonical_order():
    first_three = [m.pairs for m in enumerate_matchings(2)]
    assert first_three == [
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    ]


def test_matchings_k_range_guard():
    with pytest.raises(ValueError):
        list(enumerate_matchings(1))
    with pytest.raises(ValueError):
        list(enumerate_matchings(13))


def test_k2_validity_classification():
    assert is_valid_pattern(IDENTITY_2)
    assert is_valid_pattern(SWAP_2)
    assert not is_valid_pattern(ConnectionPattern(2, ((1, 4), (2, 3))))
    assert len(valid_patterns(2)) == 2


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_valid_patterns_are_the_valid_matchings_in_order(k):
    """valid_patterns walks the valid matchings alone; the reference lists
    every matching and tests each."""
    assert valid_patterns(k) == tuple(m for m in enumerate_matchings(k) if is_valid_pattern(m))


def test_the_k8_walk_yields_every_valid_matching():
    assert sum(1 for _ in _valid_matchings_raw(8)) == valid_pattern_count(8)


@pytest.mark.parametrize("walk", [valid_patterns, pattern_classes])
def test_valid_pattern_walks_guard_k(walk):
    for k in (1, 13):
        with pytest.raises(ValueError, match="k must be in 2..12"):
            walk(k)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_valid_pattern_count_closed_form(k):
    """The counts `kopt patterns` prints without enumerating, against
    enumeration: (2k-1)!! matchings, 2^(k-1) (k-1)! of them valid."""
    total = valid = 0
    for m in enumerate_matchings(k):
        total += 1
        valid += is_valid_pattern(m)
    assert (matching_count(k), valid_pattern_count(k)) == (total, valid)


def _is_one_cycle(n, edges):
    """The multigraph on 1..n with these edges is one cycle through all n
    vertices; a doubled edge counts twice, so it closes a cycle of two."""
    nbrs = {v: [] for v in range(1, n + 1)}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    if any(len(vs) != 2 for vs in nbrs.values()):
        return False
    prev, cur, length = 1, nbrs[1][0], 1
    while cur != 1:
        a, b = nbrs[cur]
        prev, cur = cur, b if a == prev else a
        length += 1
    return length == n


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_validity_agrees_with_move_application(k):
    """Independent check: a pattern is valid iff at a spread-out embedding of
    a generic tour the tour edges minus the removed ones plus the pattern's
    added pairs form one Hamiltonian cycle, and iff apply_move succeeds."""
    n = 2 * k + 3
    inst = gen_random(n, 5, 1000)
    tour = Tour(tuple(range(1, n + 1)))
    embedding = tuple(range(1, 2 * k + 1, 2))  # spaced: no two removed edges adjacent
    kept = [tour.edge(i) for i in range(1, n + 1) if i not in embedding]
    ends = {}  # endpoint id -> vertex
    for slot, i in enumerate(embedding, 1):
        ends[2 * slot - 1], ends[2 * slot] = tour.edge(i)
    for m in enumerate_matchings(k):
        one_cycle = _is_one_cycle(n, kept + [(ends[a], ends[b]) for a, b in m.pairs])
        try:
            apply_move(inst, tour, m, embedding)
            applied = True
        except DegenerateMoveError:
            applied = False
        assert one_cycle == applied == is_valid_pattern(m), m.pairs


def _embeddings(n, k):
    """Spread out; runs of adjacent removed edges at the start, at the end and
    across edge n; and a mix of adjacent, spread out and edge n."""
    embeddings = {
        tuple(range(1, 2 * k, 2)),
        tuple(range(1, k + 1)),
        tuple(range(n - k + 1, n + 1)),
        (1,) + tuple(range(n - k + 2, n + 1)),
    }
    if k >= 3:
        embeddings.add((1, 2) + tuple(range(4, 2 * k - 2, 2)) + (n,))
    return embeddings


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_apply_move_adds_and_removes_exactly_the_moves_edges(k):
    """The new tour's edges are the old ones minus the removed edges plus the
    move's added edges, for every valid pattern on embeddings with adjacent
    removed edges and with edge n; the tour starts at the old first vertex
    and turns toward its earlier neighbour."""
    n = 2 * k + 3
    inst = gen_random(n, k, 1000)
    tour = random_tour(n, k + 10)
    pos = {v: i for i, v in enumerate(tour.order)}
    old = set(map(frozenset, tour.edges()))
    embeddings = _embeddings(n, k)
    assert any(emb[-1] == n for emb in embeddings)
    assert any(emb[i + 1] == emb[i] + 1 for emb in embeddings for i in range(k - 1))
    for m in valid_patterns(k):
        for emb in embeddings:
            move = as_kmove(inst, tour, m, emb)
            new = apply_move(inst, tour, m, emb)
            removed = {frozenset(tour.edge(i)) for i in emb}
            added = set(map(frozenset, move.added))
            assert set(map(frozenset, new.edges())) == (old - removed) | added, (m, emb)
            assert len(added) == k
            assert new.order[0] == tour.order[0]
            assert pos[new.order[1]] < pos[new.order[-1]]
            assert tour_weight(inst, new) == tour_weight(inst, tour) - move.gain


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_interference_components_are_cycles_edges_or_readds(k):
    """The fact the pattern-class table rests on, for every matching. Each
    slot has two endpoints, so its number of interference neighbours says
    what its pairs join: none, its own two endpoints (a re-added edge); one,
    both endpoints to that neighbour (a doubled edge); two, one endpoint to
    each. The edge set thus gives every pattern's pairs as (slot, slot)
    pairs, and the components are re-added slots, doubled edges or
    cycles."""
    for m in enumerate_matchings(k):
        edges = interference_graph(m.pairs)
        degree = {v: sum(v in e for e in edges) for v in range(1, k + 1)}
        assert max(degree.values()) <= 2
        given = sorted([(v, v) for v, d in degree.items() if d == 0]
                       + [e for e in edges for _ in range(3 - degree[e[0]])])
        assert given == sorted(((a + 1) // 2, (b + 1) // 2) for a, b in m.pairs), m.pairs
        seen: set[int] = set()
        for v in range(1, k + 1):
            if v in seen:
                continue
            comp, stack = {v}, [v]
            while stack:
                u = stack.pop()
                for w in (sum(e) - u for e in edges if u in e):
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            inside = [e for e in edges if e[0] in comp]
            if len(comp) == 1:
                assert (v, v) in given
            elif len(comp) == 2:
                assert given.count(inside[0]) == 2
            else:
                assert len(inside) == len(comp) and all(degree[u] == 2 for u in comp)


def test_gain_partial_empty_domain_is_zero():
    inst = gen_random(8, 1, 50)
    tour = Tour(tuple(range(1, 9)))
    assert gain_partial(inst, tour, SWAP_2, {}) == 0


def test_gain_partial_identity_full_is_zero():
    inst = gen_random(8, 2, 50)
    tour = random_tour(8, 3)
    for f in [(1, 4), (2, 7), (3, 8)]:
        assert gain_partial(inst, tour, IDENTITY_2, dict(enumerate(f, 1))) == 0


def test_gain_partial_single_slot_counts_removed_edge_only():
    inst = gen_random(6, 4, 50)
    tour = Tour(tuple(range(1, 7)))
    left, right = tour.edge(3)
    assert gain_partial(inst, tour, SWAP_2, {1: 3}) == inst.weight(left, right)


def test_apply_identity_keeps_edge_set():
    inst = gen_random(8, 5, 50)
    tour = random_tour(8, 6)
    new = apply_move(inst, tour, IDENTITY_2, (2, 5))
    assert sorted(map(frozenset, new.edges())) == sorted(map(frozenset, tour.edges()))


def test_apply_uncrosses_square():
    res = apply_move(SQUARE, CROSSING, SWAP_2, (1, 3))
    assert tour_weight(SQUARE, res) == 40
    assert tour_weight(SQUARE, CROSSING) == 48


def test_apply_move_requires_increasing_embedding():
    inst = gen_random(8, 7, 50)
    with pytest.raises(ValueError):
        apply_move(inst, Tour(tuple(range(1, 9))), SWAP_2, (3, 1))


@settings(max_examples=200, derandomize=True)
@given(st.data())
def test_apply_move_weight_delta_equals_gain(data):
    n = 10
    inst = gen_random(n, data.draw(st.integers(0, 9)), 100)
    tour = random_tour(n, data.draw(st.integers(0, 9)))
    k = data.draw(st.integers(2, 4))
    patterns = valid_patterns(k)
    m = patterns[data.draw(st.integers(0, len(patterns) - 1))]
    emb = tuple(
        sorted(
            data.draw(
                st.sets(st.integers(1, n), min_size=k, max_size=k)
            )
        )
    )
    new = apply_move(inst, tour, m, emb)
    expected = tour_weight(inst, tour) - gain_partial(inst, tour, m, dict(enumerate(emb, 1)))
    assert tour_weight(inst, new) == expected
    assert sorted(new.order) == list(range(1, n + 1))


def test_oracle_moves_reproducible_from_pattern_embedding():
    """Converse correspondence: the oracle's best (removed, added) pair is
    reproduced exactly by its (pattern, embedding) description."""
    from kopt.oracle import naive_best_move

    inst = gen_random(9, 8, 60)
    tour = random_tour(9, 9)
    move = naive_best_move(inst, tour, 3).witness
    rebuilt = as_kmove(inst, tour, move.pattern, move.embedding)
    assert rebuilt.removed == move.removed
    assert rebuilt.added == move.added
    assert rebuilt.gain == move.gain


def test_number_of_embeddings_matches_binomial():
    n, k = 9, 3
    assert sum(1 for _ in combinations(range(n), k)) == comb(n, k)
