"""Connection patterns, interference graphs, gains, and move application."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from kopt.instance import Tour, euclidean_instance, gen_random, random_tour, tour_weight
from kopt.moves import (
    ConnectionPattern,
    DegenerateMoveError,
    apply_move,
    as_kmove,
    enumerate_matchings,
    gain_partial,
    interference_graph,
    is_valid_pattern,
    matching_count,
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
def test_valid_pattern_count_closed_form(k):
    """The counts `kopt patterns` prints without enumerating, against
    enumeration: (2k-1)!! matchings, 2^(k-1) (k-1)! of them valid."""
    total = valid = 0
    for m in enumerate_matchings(k):
        total += 1
        valid += is_valid_pattern(m)
    assert (matching_count(k), valid_pattern_count(k)) == (total, valid)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_validity_agrees_with_move_application(k):
    """Independent check: a pattern is valid iff applying it at a spread-out
    embedding of a generic tour yields a Hamiltonian cycle."""
    n = 2 * k + 3
    inst = gen_random(n, 5, 1000)
    tour = Tour(tuple(range(1, n + 1)))
    embedding = tuple(range(1, 2 * k + 1, 2))  # spaced: no two removed edges adjacent
    for m in enumerate_matchings(k):
        try:
            apply_move(inst, tour, m, embedding)
            applied = True
        except DegenerateMoveError:
            applied = False
        assert applied == is_valid_pattern(m), m.pairs


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


def test_interference_identity_pattern_readds_all():
    ig = interference_graph(IDENTITY_2)
    assert ig.edges == frozenset()
    assert ig.readded_slots == frozenset({1, 2})
    assert [kind for kind, _ in ig.components()] == ["isolated", "isolated"]


def test_interference_swap_pattern_doubled_edge():
    ig = interference_graph(SWAP_2)
    assert ig.edges == frozenset({(1, 2)})
    assert ig.doubled_edges == frozenset({(1, 2)})
    assert ig.readded_slots == frozenset()


def test_interference_three_cycle():
    # valid k=3 pattern joining the slots in a 3-cycle
    m = ConnectionPattern(3, ((2, 5), (4, 1), (6, 3)))
    assert is_valid_pattern(m)
    ig = interference_graph(m)
    assert ig.edges == frozenset({(1, 2), (2, 3), (1, 3)})
    assert ig.components() == [("cycle", (1, 2, 3))]


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_interference_components_are_cycles_edges_or_readds(k):
    for m in valid_patterns(k):
        ig = interference_graph(m)
        degree = {v: 0 for v in range(1, k + 1)}
        for (a, b), count in ig.multiplicity:
            degree[a] += count
            degree[b] += count
        for slot in ig.readded_slots:
            degree[slot] += 2
        assert all(d == 2 for d in degree.values())
        for kind, vertices in ig.components():
            if kind == "isolated":
                assert vertices[0] in ig.readded_slots
            elif kind == "edge":
                assert (vertices[0], vertices[1]) in ig.doubled_edges
            else:
                assert len(vertices) >= 3


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
