"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Everything here is exact integer / exact rational equality except the
scaling trend, which asserts a monotone ratio, not a constant.
"""

import os
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from kopt.alpha import c_of_k
from kopt.buckets import BucketPartition, enumerate_assignments
from kopt.decomp import DepGraph, treewidth_exact, validate_decomposition
from kopt.dpengine import _DECOMP_CACHE, best_move, local_search, solve_fixed
from kopt.instance import (
    gen_negative_triangle_reduction,
    gen_random,
    random_reduction_input,
    random_tour,
    tour_weight,
)
from kopt.moves import apply_move, valid_patterns
from kopt.oracle import (
    enumerate_b_monotone_max,
    has_negative_triangle,
    naive_best_move,
    treewidth_bruteforce,
)

pytestmark = pytest.mark.slow


def report(criterion: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_table_reproduction():
    expected = {
        5: (Fraction(2, 3), Fraction(11, 3)),
        6: (Fraction(3, 4), Fraction(4)),
        7: (Fraction(3, 4), Fraction(17, 4)),
    }
    times = {}
    ok = True
    for k, (alpha, c) in expected.items():
        start = time.perf_counter()
        result = c_of_k(k)
        times[k] = time.perf_counter() - start
        ok &= (result.alpha, result.c) == (alpha, c) and result.agree
        ok &= times[k] < 60.0
    detail = ", ".join(f"k={k} in {t:.1f}s" for k, t in times.items())
    report("1 Table-2 exponents k=5..7", ok, detail)


def test_criterion_1_table_reproduction_k8():
    if os.environ.get("KOPT_SKIP_K8"):
        pytest.skip("k=8 gate disabled via KOPT_SKIP_K8")
    start = time.perf_counter()
    result = c_of_k(8)
    elapsed = time.perf_counter() - start
    ok = (result.alpha, result.c) == (Fraction(2, 3), Fraction(14, 3))
    ok &= result.agree and elapsed < 7200.0
    report("1 Table-2 exponent k=8 (optional gate)", ok, f"{elapsed:.0f}s")


def test_criterion_2_oracle_equivalence_anchor():
    start = time.perf_counter()
    checked = 0
    mismatches = []
    for k in (2, 3, 4, 5):
        for n in (8, 10, 12):
            if n < 2 * k:
                continue
            for seed in range(50):
                inst = gen_random(n, seed * 7 + k, 1000)
                tour = random_tour(n, seed * 13 + n)
                dp = best_move(inst, tour, k)
                naive = naive_best_move(inst, tour, k)
                checked += 1
                if dp.gain != naive.value:
                    mismatches.append((k, n, seed, dp.gain, naive.value))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 600.0
    report(
        "2 oracle equivalence anchor",
        ok,
        f"{checked} runs, {len(mismatches)} mismatches, {elapsed:.0f}s",
    )


def test_criterion_3_definitional_dp_correctness():
    n = 8
    checked = 0
    mismatches = 0
    for k in (2, 3):
        inst = gen_random(n, 21 + k, 500)
        tour = random_tour(n, 23 + k)
        for count in (1, 2, 4):
            part = BucketPartition(n=n, count=count)
            for m in valid_patterns(k):
                for assignment in enumerate_assignments(k, part.count):
                    dp = solve_fixed(inst, tour, m, assignment, part)
                    brute = enumerate_b_monotone_max(inst, tour, m, assignment, part)
                    checked += 1
                    if dp.gain != brute.value:
                        mismatches += 1
    report(
        "3 definitional DP correctness",
        mismatches == 0,
        f"{checked} (pattern, assignment) cells, {mismatches} mismatches",
    )


def test_criterion_4_reduction_round_trip():
    agreements = 0
    dp_agreements = 0
    total = 100
    for seed in range(total):
        n = 3 + seed % 6
        g = random_reduction_input(n, seed, 10)
        inst, tour = gen_negative_triangle_reduction(g)
        triangle = has_negative_triangle(g).value
        naive_gain = naive_best_move(inst, tour, 4).value
        if (naive_gain > 0) == triangle:
            agreements += 1
        dp_gain = best_move(inst, tour, 4, alpha=Fraction(3, 4)).gain
        if dp_gain == naive_gain:
            dp_agreements += 1
    ok = agreements == total and dp_agreements == total
    report(
        "4 reduction round-trip",
        ok,
        f"{agreements}/{total} triangle agreements, {dp_agreements}/{total} dp matches",
    )


def test_criterion_5_treewidth_correctness():
    import random as pyrandom

    checked = 0
    mismatches = 0
    # fixed families
    cases = [
        (DepGraph(5, frozenset(combinations(range(1, 6), 2))), 4),
        (DepGraph(5, frozenset()), 0),
    ]
    for k in (3, 4, 5, 6, 7):
        cases.append(
            (DepGraph(k, frozenset([(i, i + 1) for i in range(1, k)] + [(1, k)])), 2)
        )
        cases.append((DepGraph(k, frozenset((i, i + 1) for i in range(1, k))), 1))
    for g, want in cases:
        checked += 1
        if treewidth_exact(g)[0] != want or treewidth_bruteforce(g).value != want:
            mismatches += 1
    # 1000 random graphs on at most 7 vertices
    for seed in range(1000):
        rng = pyrandom.Random(seed)
        k = rng.randint(1, 7)
        p = rng.uniform(0.15, 0.85)
        edges = frozenset(
            e for e in combinations(range(1, k + 1), 2) if rng.random() < p
        )
        g = DepGraph(k, edges)
        checked += 1
        if treewidth_exact(g)[0] != treewidth_bruteforce(g).value:
            mismatches += 1
    report(
        "5 treewidth exact vs brute force",
        mismatches == 0,
        f"{checked} graphs, {mismatches} mismatches",
    )


def test_criterion_6_structural_invariants():
    problems = []

    # every reported move applies with weight delta exactly -gain
    for seed in range(10):
        inst = gen_random(12, 100 + seed, 500)
        tour = random_tour(12, 200 + seed)
        for k in (2, 3, 4):
            res = best_move(inst, tour, k)
            new = apply_move(inst, tour, res.move.pattern, res.embedding)
            if tour_weight(inst, new) != tour_weight(inst, tour) - res.gain:
                problems.append(f"weight delta mismatch k={k} seed={seed}")

    # local search: strictly decreasing, terminates at an oracle-certified optimum
    for seed in range(5):
        for k in (2, 3, 4):
            inst = gen_random(12, 300 + seed, 500)
            tour = random_tour(12, 400 + seed)
            final, history = local_search(inst, tour, k)
            weights = [tour_weight(inst, tour)] + [h.tour_weight for h in history]
            if any(a <= b for a, b in zip(weights, weights[1:])):
                problems.append(f"non-decreasing step k={k} seed={seed}")
            if naive_best_move(inst, final, k).value > 0:
                problems.append(f"not locally optimal k={k} seed={seed}")

    # every decomposition produced along the way validates
    bad_decomps = 0
    for (k, edges, _), nice in list(_DECOMP_CACHE.items()):
        ok, _ = validate_decomposition(DepGraph(k, edges), nice)
        if not ok:
            bad_decomps += 1
    if bad_decomps:
        problems.append(f"{bad_decomps} invalid cached decompositions")

    report(
        "6 structural invariants",
        not problems,
        f"{len(_DECOMP_CACHE)} decompositions validated; " + (
            "; ".join(problems) if problems else "all moves and searches verified"
        ),
    )


def test_criterion_7_scaling_trend():
    sizes = (40, 60, 80, 100)
    ratios = {}
    for n in sizes:
        inst = gen_random(n, 17, 10_000)
        tour = random_tour(n, 18)
        start = time.perf_counter()
        dp = best_move(inst, tour, 4, alpha=Fraction(2, 3), policy="best")
        dp_time = time.perf_counter() - start
        start = time.perf_counter()
        naive = naive_best_move(inst, tour, 4, budget=10**9)
        naive_time = time.perf_counter() - start
        assert dp.gain == naive.value
        ratios[n] = naive_time / dp_time
    # naive should grow visibly faster: monotone trend over the span
    ok = ratios[100] > ratios[40]
    detail = ", ".join(f"n={n}: naive/dp={r:.2f}" for n, r in ratios.items())
    report("7 scaling trend (dp vs naive, k=4)", ok, detail)
