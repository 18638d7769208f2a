"""Brute-force reference implementations."""

import numpy as np
import pytest

from kopt.buckets import BucketPartition
from kopt.decomp import DepGraph
from kopt.instance import (
    Instance,
    Tour,
    euclidean_instance,
    gen_random,
    random_tour,
)
from kopt.moves import ConnectionPattern
from kopt.oracle import (
    BudgetExceededError,
    enumerate_b_monotone_max,
    has_negative_triangle,
    naive_best_move,
    treewidth_bruteforce,
)

SWAP_2 = ConnectionPattern(2, ((1, 3), (2, 4)))


def test_naive_uncrosses_square():
    inst = euclidean_instance([(0, 0), (10, 0), (10, 10), (0, 10)])
    res = naive_best_move(inst, Tour((1, 3, 2, 4)), 2)
    assert res.value == 8
    assert res.witness.gain == 8


def test_naive_on_optimal_square_gains_zero():
    inst = euclidean_instance([(0, 0), (10, 0), (10, 10), (0, 10)])
    assert naive_best_move(inst, Tour((1, 2, 3, 4)), 2).value == 0


def test_naive_budget_guard():
    inst = gen_random(12, 0, 10)
    with pytest.raises(BudgetExceededError):
        naive_best_move(inst, random_tour(12, 1), 5, budget=10)


@pytest.mark.parametrize("k,n", [(8, 16), (9, 18)])
def test_naive_budget_is_checked_before_any_pattern_is_listed(monkeypatch, k, n):
    from kopt import oracle

    def fail(k):
        raise AssertionError("valid_patterns must not run")

    monkeypatch.setattr(oracle, "valid_patterns", fail)
    with pytest.raises(BudgetExceededError, match="exceed budget"):
        naive_best_move(gen_random(n, 0, 10), random_tour(n, 1), k)


def test_naive_requires_enough_vertices():
    inst = gen_random(6, 0, 10)
    with pytest.raises(ValueError):
        naive_best_move(inst, random_tour(6, 1), 4)


def test_treewidth_bruteforce_known_values():
    from itertools import combinations

    k5 = DepGraph(5, frozenset(combinations(range(1, 6), 2)))
    assert treewidth_bruteforce(k5).value == 4
    c5 = DepGraph(5, frozenset([(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]))
    assert treewidth_bruteforce(c5).value == 2
    with pytest.raises(BudgetExceededError):
        treewidth_bruteforce(DepGraph(9, frozenset()))


def test_bmonotone_enumeration_no_embedding():
    inst = gen_random(8, 3, 10)
    part = BucketPartition(n=8, count=8)
    res = enumerate_b_monotone_max(inst, random_tour(8, 4), SWAP_2, (3, 3), part)
    assert res.value is None and res.witness is None


def test_bmonotone_enumeration_single_bucket_matches_direct_max():
    from itertools import combinations

    from kopt.moves import gain_partial

    inst = gen_random(8, 5, 50)
    tour = random_tour(8, 6)
    part = BucketPartition(n=8, count=1)
    res = enumerate_b_monotone_max(inst, tour, SWAP_2, (1, 1), part)
    expected = max(
        gain_partial(inst, tour, SWAP_2, {1: a, 2: b})
        for a, b in combinations(range(1, 9), 2)
    )
    assert res.value == expected


def test_bmonotone_budget_guard():
    inst = gen_random(8, 7, 10)
    part = BucketPartition(n=8, count=1)
    with pytest.raises(BudgetExceededError):
        enumerate_b_monotone_max(inst, random_tour(8, 8), SWAP_2, (1, 1), part, budget=3)


def test_negative_triangle_witness():
    w = np.zeros((3, 3), dtype=np.int64)
    w[0, 1] = w[1, 0] = 1
    w[1, 2] = w[2, 1] = 1
    w[0, 2] = w[2, 0] = -3
    res = has_negative_triangle(Instance(3, w))
    assert res.value is True
    assert res.witness == (1, 2, 3, -1)


def test_negative_triangle_all_positive():
    w = np.full((4, 4), 7, dtype=np.int64)
    np.fill_diagonal(w, 0)
    res = has_negative_triangle(Instance(4, w))
    assert res.value is False and res.witness is None


def test_negative_triangle_budget():
    w = np.zeros((201, 201), dtype=np.int64)
    with pytest.raises(BudgetExceededError):
        has_negative_triangle(Instance(201, w))
