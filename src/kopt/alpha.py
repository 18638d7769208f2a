"""Optimal bucket exponents and runtime exponents c(k) for the k-move solver.

For a connection pattern with interference edges I and order-edge subsets
A of the consecutive-pair set, bucketed search costs about
n^((1-alpha)(k-|A|)) * n^(alpha (tw(I u A) + 1)) per subset class. The best
exponent is the min over alpha in [0,1] of the upper envelope of these affine
functions, and the overall exponent c(k) maximizes that over all valid
patterns. Everything here is exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .decomp import adjacency, treewidth
from .moves import (
    ConnectionPattern,
    _interference_raw,
    _is_valid_raw,
    _matchings_raw,
    interference_graph,
)

MAX_PROFILE_K = 10


def consecutive_pairs(k: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i + 1) for i in range(1, k))


@dataclass(frozen=True)
class WidthProfile:
    """t[s] = max over order-edge subsets A of size s of tw(I u A) + 1."""

    k: int
    t: tuple[int, ...]

    def __post_init__(self):
        if len(self.t) != self.k:
            raise ValueError("profile needs one entry per subset size 0..k-1")
        if any(not (1 <= v <= self.k) for v in self.t):
            raise ValueError("profile entries must lie in 1..k")


def width_profile_from_edges(iedges, k: int) -> WidthProfile:
    path = consecutive_pairs(k)
    iedges = frozenset(iedges)
    t = []
    for s in range(k):
        best = 0
        for subset in combinations(path, s):
            width = treewidth(adjacency(k, iedges | frozenset(subset)))
            if width > best:
                best = width
        t.append(best + 1)
    return WidthProfile(k=k, t=tuple(t))


def width_profile(m: ConnectionPattern) -> WidthProfile:
    if m.k > MAX_PROFILE_K:
        raise ValueError(f"width profiles support k <= {MAX_PROFILE_K}")
    return width_profile_from_edges(interference_graph(m).edges, m.k)


@dataclass(frozen=True)
class AlphaSolution:
    alpha: Fraction
    c: Fraction


def _envelope(lines: list[tuple[Fraction, Fraction]], a: Fraction) -> Fraction:
    return max(b + m * a for b, m in lines)


def optimal_alpha(profile: WidthProfile) -> AlphaSolution:
    """Exact minimizer of the envelope of the k cost lines over alpha in [0,1].

    The minimum can be attained on an interval; the largest optimal alpha is
    returned because bigger buckets mean fewer bucket assignments and hence
    less bookkeeping overhead at an equal exponent.
    """
    k = profile.k
    # value at alpha: (k-s) + alpha * (t[s] - (k-s))
    lines = [
        (Fraction(k - s), Fraction(profile.t[s] - (k - s))) for s in range(k)
    ]
    candidates = {Fraction(0), Fraction(1)}
    for (b1, m1), (b2, m2) in combinations(lines, 2):
        if m1 != m2:
            x = Fraction(b2 - b1, m1 - m2)
            if 0 <= x <= 1:
                candidates.add(x)
    best_value = None
    best_alpha = None
    for a in sorted(candidates):
        val = _envelope(lines, a)
        if best_value is None or val <= best_value:
            best_value, best_alpha = val, a
    return AlphaSolution(alpha=best_alpha, c=best_value)


@dataclass(frozen=True)
class InterferenceClassReport:
    edges: tuple[tuple[int, int], ...]
    pattern_count: int
    example_pattern: tuple[tuple[int, int], ...]
    profile: WidthProfile
    alpha: Fraction
    c: Fraction


@dataclass(frozen=True)
class CofKResult:
    k: int
    c: Fraction
    alpha: Fraction
    c_max_min: Fraction
    agree: bool
    total_patterns: int
    valid_patterns: int
    per_class: tuple[InterferenceClassReport, ...] | None


def estimate_large_k_cost(k: int) -> str:
    total = 1
    for odd in range(1, 2 * k, 2):
        total *= odd
    return (
        f"k={k} means enumerating {total:,} matchings and profiling each "
        f"interference class over 2^{k - 1} subsets; expect minutes to hours"
    )


def c_of_k(
    k: int, allow_large: bool = False, want_per_class: bool = False
) -> CofKResult:
    """Exponent c(k), the shared bucket exponent alpha achieving it, and
    (optionally) per-interference-class optima.

    Patterns sharing an interference edge set share their width profile, so
    profiles are computed once per distinct edge set.
    """
    if not (2 <= k <= MAX_PROFILE_K):
        raise ValueError(f"k must be in 2..{MAX_PROFILE_K}")
    if k >= 9 and not allow_large:
        raise ValueError("refusing k >= 9 without allow_large: " + estimate_large_k_cost(k))

    groups: dict[tuple[tuple[int, int], ...], list] = {}
    total = 0
    valid = 0
    for pairs in _matchings_raw(tuple(range(1, 2 * k + 1))):
        total += 1
        if not _is_valid_raw(pairs, k):
            continue
        valid += 1
        counts, _ = _interference_raw(pairs)
        key = tuple(sorted(counts))
        entry = groups.get(key)
        if entry is None:
            groups[key] = [1, pairs]
        else:
            entry[0] += 1

    per_class = []
    aggregate = [0] * k
    c_max_min = None
    for key in sorted(groups):
        count, example = groups[key]
        profile = width_profile_from_edges(key, k)
        sol = optimal_alpha(profile)
        if c_max_min is None or sol.c > c_max_min:
            c_max_min = sol.c
        for s in range(k):
            aggregate[s] = max(aggregate[s], profile.t[s])
        if want_per_class:
            per_class.append(
                InterferenceClassReport(
                    edges=key,
                    pattern_count=count,
                    example_pattern=example,
                    profile=profile,
                    alpha=sol.alpha,
                    c=sol.c,
                )
            )

    global_sol = optimal_alpha(WidthProfile(k=k, t=tuple(aggregate)))
    return CofKResult(
        k=k,
        c=global_sol.c,
        alpha=global_sol.alpha,
        c_max_min=c_max_min,
        agree=global_sol.c == c_max_min,
        total_patterns=total,
        valid_patterns=valid,
        per_class=tuple(per_class) if want_per_class else None,
    )
