"""Bucket partitions, assignments, order edges, and bucket-monotonicity."""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from kopt import buckets
from kopt.buckets import (
    BucketPartition,
    ceil_rational_power,
    check_b_monotone,
    enumerate_assignments,
    make_buckets,
    order_edges,
)


def test_single_bucket_at_alpha_one():
    part = make_buckets(100, 1)
    assert part.count == 1
    assert part.bounds(1) == (1, 100)


def test_singletons_at_alpha_zero():
    part = make_buckets(10, 0)
    assert part.count == 10
    assert all(part.bounds(j) == (j, j) for j in range(1, 11))


def test_sqrt_bucketing_example():
    part = make_buckets(10, Fraction(1, 2))
    assert part.size == 4
    assert part.count == 3
    assert [part.bounds(j) for j in (1, 2, 3)] == [(1, 4), (5, 7), (8, 10)]


def test_three_quarters_default_size():
    assert ceil_rational_power(100, Fraction(3, 4)) == 32  # ceil(31.62..)
    part = make_buckets(100, Fraction(3, 4))
    assert part.count == 4  # ceil(100 / 32)
    assert [part.bucket_size(j) for j in range(1, 5)] == [25] * 4
    assert part.size == 25


def test_alpha_range_guard():
    with pytest.raises(ValueError):
        make_buckets(10, Fraction(5, 4))
    with pytest.raises(ValueError):
        make_buckets(10, -1)


@pytest.mark.parametrize("alpha", [Fraction(1, 10**12), Fraction(10**12 - 1, 10**12)])
def test_alpha_with_a_huge_denominator_is_refused_at_once(alpha, monkeypatch):
    def fail(*args):
        raise AssertionError("ceil_rational_power must not run")

    monkeypatch.setattr(buckets, "ceil_rational_power", fail)
    with pytest.raises(ValueError, match="denominator"):
        make_buckets(200, alpha)


def test_alpha_at_the_denominator_bound_still_works():
    alpha = Fraction(6667, 10000)
    assert ceil_rational_power(200, alpha) == 35  # ceil(200^0.6667)
    part = make_buckets(200, alpha)
    assert part.count == 6  # ceil(200 / 35)
    assert [part.bucket_size(j) for j in range(1, 7)] == [34, 34, 33, 33, 33, 33]
    assert part.size == 34


@pytest.mark.parametrize("alpha", [0, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
                                   Fraction(3, 4), Fraction(6667, 10000), 1])
def test_balanced_buckets_keep_the_count_and_cover_every_edge_once(alpha):
    """For n = 1..300: as many buckets as buckets of ceil(n^alpha) edges
    need, consecutive, their sizes summing to n and differing by at most one
    (the longer ones first), `size` the largest, and bucket_of the inverse
    of bounds."""
    for n in range(1, 301):
        part = make_buckets(n, alpha)
        assert part.count == -(-n // ceil_rational_power(n, Fraction(alpha)))
        sizes = [part.bucket_size(j) for j in range(1, part.count + 1)]
        assert sum(sizes) == n
        assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1
        assert part.size == max(sizes)
        owner = []
        for j in range(1, part.count + 1):
            lo, hi = part.bounds(j)
            assert lo == len(owner) + 1 and part.indices(j) == range(lo, hi + 1)
            owner += [j] * (hi - lo + 1)
        assert [part.bucket_of(i) for i in range(1, n + 1)] == owner
        if alpha == 0:
            assert sizes == [1] * n
        if alpha == 1:
            assert sizes == [n]


@pytest.mark.parametrize("n", [1, 2, 7, 10, 100, 1000])
@pytest.mark.parametrize("alpha", [0, 1, Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)])
def test_ceil_rational_power_is_exact(n, alpha):
    s = ceil_rational_power(n, Fraction(alpha))
    p, q = Fraction(alpha).numerator, Fraction(alpha).denominator
    assert s**q >= n**p
    assert s == 1 or (s - 1) ** q < n**p


@pytest.mark.parametrize(
    "k,n_b,expected",
    [(2, 2, [(1, 1), (1, 2), (2, 2)]), (3, 1, [(1, 1, 1)])],
)
def test_enumerate_assignments_small(k, n_b, expected):
    assert list(enumerate_assignments(k, n_b)) == expected


def test_enumerate_assignments_count_and_order():
    got = list(enumerate_assignments(2, 3))
    assert len(got) == comb(4, 2) == 6
    assert got == sorted(got)


def test_order_edges_examples():
    assert order_edges((1, 1, 2)) == frozenset({(1, 2)})
    assert order_edges((1, 2, 3)) == frozenset()
    assert order_edges((2, 2, 2, 2)) == frozenset({(1, 2), (2, 3), (3, 4)})


def test_check_b_monotone_cases():
    part = make_buckets(10, Fraction(1, 2))  # buckets 1-4, 5-7, 8-10
    assignment = (1, 1, 2)
    assert check_b_monotone(assignment, part, {})
    assert check_b_monotone(assignment, part, {1: 2, 2: 3, 3: 6})
    assert not check_b_monotone(assignment, part, {1: 3, 2: 3, 3: 6})  # (M2)
    assert not check_b_monotone(assignment, part, {1: 9})  # (M1)
    # order across buckets is not (M2)'s business: slot 3 below slot 1 is
    # impossible anyway per (M1), placed partial maps need not be monotone
    assert check_b_monotone(assignment, part, {2: 4, 3: 5})


def test_full_b_monotone_embeddings_are_increasing():
    part = make_buckets(9, Fraction(1, 2))
    k = 3
    for assignment in enumerate_assignments(k, part.count):
        for emb in combinations(range(1, 10), k):
            f = dict(enumerate(emb, 1))
            if check_b_monotone(assignment, part, f):
                assert list(emb) == sorted(emb)


@pytest.mark.parametrize("k,n", [(2, 8), (3, 9), (4, 12)])
def test_every_increasing_embedding_has_exactly_one_assignment(k, n):
    part = make_buckets(n, Fraction(1, 2))
    assignments = list(enumerate_assignments(k, part.count))
    for emb in combinations(range(1, n + 1), k):
        f = dict(enumerate(emb, 1))
        matching = [a for a in assignments if check_b_monotone(a, part, f)]
        assert matching == [tuple(part.bucket_of(v) for v in emb)]


def test_assignment_count_upper_bound():
    # loose sanity bound: the number of assignments with a fixed order-edge
    # set never exceeds n_b^(k - |A|)
    k, n_b = 4, 3
    by_edges = {}
    for a in enumerate_assignments(k, n_b):
        by_edges.setdefault(order_edges(a), []).append(a)
    for edges, group in by_edges.items():
        assert len(group) <= n_b ** (k - len(edges))


def test_bucket_partition_guards():
    with pytest.raises(ValueError):
        BucketPartition(n=0, count=1)
    with pytest.raises(ValueError):
        BucketPartition(n=5, count=6)
    with pytest.raises(ValueError):
        BucketPartition(n=5, count=0)
    part = BucketPartition(n=10, count=3)
    with pytest.raises(ValueError):
        part.bucket_of(11)
    with pytest.raises(ValueError):
        part.bounds(4)
