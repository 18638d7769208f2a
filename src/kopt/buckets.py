"""Interval buckets over tour-edge indices and nondecreasing bucket assignments."""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement


def ceil_rational_power(n: int, alpha: Fraction) -> int:
    """Smallest integer s with s >= n**alpha, computed exactly.

    Float arithmetic only seeds the search; the result is certified with
    integer comparisons (s is minimal with s**q >= n**p).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p, q = alpha.numerator, alpha.denominator
    if p == 0:
        return 1
    target = n**p
    s = max(1, round(float(n) ** (p / q)))
    while s**q >= target:
        s -= 1
        if s == 0:
            break
    s += 1
    while s**q < target:
        s += 1
    return s


@dataclass(frozen=True)
class BucketPartition:
    """Partition of [n] into consecutive intervals of a fixed size (last may be short)."""

    n: int
    size: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not (1 <= self.size <= self.n):
            raise ValueError("bucket size must be in 1..n")

    @property
    def count(self) -> int:
        return -(-self.n // self.size)

    def bucket_of(self, index: int) -> int:
        """Bucket id (1-based) holding tour-edge index `index` (1-based)."""
        if not (1 <= index <= self.n):
            raise ValueError(f"index out of range 1..{self.n}")
        return (index - 1) // self.size + 1

    def bounds(self, j: int) -> tuple[int, int]:
        """Inclusive 1-based (lo, hi) of bucket j."""
        if not (1 <= j <= self.count):
            raise ValueError(f"bucket id out of range 1..{self.count}")
        return (j - 1) * self.size + 1, min(j * self.size, self.n)

    def indices(self, j: int) -> range:
        lo, hi = self.bounds(j)
        return range(lo, hi + 1)

    def bucket_size(self, j: int) -> int:
        lo, hi = self.bounds(j)
        return hi - lo + 1


# ceil_rational_power(n, p/q) compares q-th powers: 2 ** 10**12 at
# alpha = 1e-12, and seconds of work at denominators near 10^6
MAX_ALPHA_DENOMINATOR = 10**4


def make_buckets(n: int, alpha) -> BucketPartition:
    """Buckets of size ceil(n**alpha); alpha=1 gives one bucket, alpha=0 singletons."""
    alpha = Fraction(alpha)
    if not (0 <= alpha <= 1):
        raise ValueError("alpha must lie in [0, 1]")
    if alpha.denominator > MAX_ALPHA_DENOMINATOR:
        raise ValueError(
            f"alpha {alpha} has denominator {alpha.denominator};"
            f" at most {MAX_ALPHA_DENOMINATOR} is allowed"
        )
    return BucketPartition(n=n, size=ceil_rational_power(n, alpha))


def enumerate_assignments(k: int, n_buckets: int) -> Iterator[tuple[int, ...]]:
    """All nondecreasing maps [k] -> [n_buckets], lexicographically."""
    if k < 1 or n_buckets < 1:
        raise ValueError("k and n_buckets must be >= 1")
    return combinations_with_replacement(range(1, n_buckets + 1), k)


def order_edges(assignment: tuple[int, ...]) -> frozenset[tuple[int, int]]:
    """Consecutive slot pairs forced into the same bucket (their tour order is
    not already implied by bucket order)."""
    return frozenset(
        (i, i + 1)
        for i in range(1, len(assignment))
        if assignment[i - 1] == assignment[i]
    )


def check_b_monotone(
    assignment: tuple[int, ...], part: BucketPartition, f: Mapping[int, int]
) -> bool:
    """Check (M1) each placed slot lies in its bucket and (M2) placed
    same-bucket consecutive slots appear in increasing order."""
    for i, value in f.items():
        if not (1 <= i <= len(assignment)):
            raise ValueError(f"slot {i} out of range")
        if part.bucket_of(value) != assignment[i - 1]:
            return False
    for i, j in order_edges(assignment):
        if i in f and j in f and f[i] >= f[j]:
            return False
    return True
