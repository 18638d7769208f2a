"""Width profiles, optimal bucket exponents, and c(k)."""

from fractions import Fraction
from itertools import combinations

import pytest

from kopt.alpha import (
    MAX_PROFILE_K,
    WidthProfile,
    c_of_k,
    consecutive_pairs,
    optimal_alpha,
    width_profile,
)
from kopt.decomp import DepGraph
from kopt.dpengine import default_alpha
from kopt.moves import ConnectionPattern, interference_graph, valid_patterns
from kopt.oracle import treewidth_bruteforce


def brute_profile(iedges, k):
    """Independent profile via the factorial treewidth oracle."""
    path = consecutive_pairs(k)
    t = []
    for s in range(k):
        best = 0
        for subset in combinations(path, s):
            g = DepGraph(k, frozenset(iedges) | frozenset(subset))
            best = max(best, treewidth_bruteforce(g).value)
        t.append(best + 1)
    return tuple(t)


def test_profile_identity_pattern_k2():
    # the identity pattern re-adds both edges: no interference edges at all
    m = ConnectionPattern(2, ((1, 2), (3, 4)))
    assert interference_graph(m.pairs) == ()
    prof = width_profile(interference_graph(m.pairs), m.k)
    assert prof.t == brute_profile(frozenset(), 2) == (1, 2)


def test_profile_swap_pattern_k2():
    # the crossing-reconnect pattern has the doubled {1,2} interference edge
    m = ConnectionPattern(2, ((1, 3), (2, 4)))
    prof = width_profile(interference_graph(m.pairs), m.k)
    assert prof.t == brute_profile(frozenset({(1, 2)}), 2) == (2, 2)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_profiles_match_bruteforce_all_patterns(k):
    seen = set()
    for m in valid_patterns(k):
        iedges = interference_graph(m.pairs)
        if iedges in seen:
            continue
        seen.add(iedges)
        assert width_profile(iedges, k).t == brute_profile(iedges, k)


def test_profiles_nondecreasing_and_bounded_k5():
    for m in valid_patterns(5):
        t = width_profile(interference_graph(m.pairs), 5).t
        assert all(t[s] <= t[s + 1] for s in range(4))
        assert all(v <= 4 for v in t)
        assert t[0] <= 3 and t[1] <= 3


def test_width_profile_refuses_k_past_its_bound():
    with pytest.raises(ValueError, match=f"width profiles support k <= {MAX_PROFILE_K}"):
        width_profile((), MAX_PROFILE_K + 1)


def test_optimal_alpha_k5_worst_case():
    # a five-cycle interference class reaching width 3 at two added order edges
    result = c_of_k(5)
    assert (result.alpha, result.c) == (Fraction(2, 3), Fraction(11, 3))


@pytest.mark.parametrize("k", [5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_default_alpha_is_the_computed_optimum(k):
    assert default_alpha(k) == c_of_k(k).alpha


def test_optimal_alpha_degenerate_profile():
    # t[s] = k for every s: bucketing cannot help, every alpha gives c = k;
    # the largest optimal alpha (one big bucket) is reported
    k = 4
    sol = optimal_alpha(WidthProfile(k=k, t=(k,) * k))
    assert sol.c == Fraction(k)
    assert sol.alpha == Fraction(1)


def test_optimal_alpha_unique_minimum():
    # lines 5-2a and 3+a cross at a=2/3 with value 11/3
    sol = optimal_alpha(WidthProfile(k=5, t=(3, 3, 4, 4, 4)))
    assert sol == type(sol)(alpha=Fraction(2, 3), c=Fraction(11, 3))


def test_c_of_k_small_values():
    assert c_of_k(2).c <= 2
    r3 = c_of_k(3)
    assert r3.agree
    r4 = c_of_k(4)
    assert (r4.alpha, r4.c) == (Fraction(2, 3), Fraction(10, 3))


def test_c_of_k_agreement_and_sanity_bounds():
    for k in (2, 3, 4, 5):
        r = c_of_k(k)
        assert r.agree  # shared alpha achieves the per-pattern max-min
        # never worse than the trivial strategies alpha = 0 and alpha = 1
        assert r.c <= k
        assert r.c <= Fraction(k) / 3 + 1 + 1  # single-bucket cost is t[k-1] <= k


def test_c_of_k_refuses_large_k_without_flag():
    with pytest.raises(ValueError, match="allow_large"):
        c_of_k(9)


def test_c_of_k_per_class_report():
    r = c_of_k(3, want_per_class=True)
    assert r.per_class
    assert sum(rep.pattern_count for rep in r.per_class) == r.valid_patterns
    assert max(rep.c for rep in r.per_class) == r.c_max_min
    for rep in r.per_class:
        assert rep.c <= r.c  # per-class optimum never beats the shared alpha value


def test_c_of_k_range_guard():
    with pytest.raises(ValueError):
        c_of_k(11)
    with pytest.raises(ValueError):
        c_of_k(1)
