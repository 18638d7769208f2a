"""Connection patterns, embeddings, and k-move mechanics.

A k-move removes k tour edges and adds k graph edges. Rather than listing the
added edges directly, a move is described by an embedding f mapping move slots
1..k to tour-edge indices (strictly increasing for a full move) together with
a connection pattern: a perfect matching on the 2k endpoint ids, where removed
edge j owns endpoint ids 2j-1 (its left endpoint) and 2j (its right endpoint).
"""

from __future__ import annotations

import math
from array import array
from collections import defaultdict
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import NamedTuple

from .instance import Instance, Tour, tour_weight

MAX_PATTERN_K = 12


class DegenerateMoveError(RuntimeError):
    """The (pattern, embedding) pair does not describe a genuine k-move."""


class InvariantError(RuntimeError):
    """A check that guards an answer failed: the solver or an oracle disagrees
    with itself. Raised, not asserted, so that `python -O` keeps it."""


def slot_of_endpoint(e: int) -> int:
    """Move slot owning endpoint id e (1-based)."""
    return (e + 1) // 2


def endpoint_is_right(e: int) -> bool:
    return e % 2 == 0


@dataclass(frozen=True)
class ConnectionPattern:
    """Perfect matching on the endpoint ids [2k] of the k removed edges."""

    k: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = tuple(sorted((min(a, b), max(a, b)) for a, b in self.pairs))
        object.__setattr__(self, "pairs", norm)
        flat = [e for pair in norm for e in pair]
        if sorted(flat) != list(range(1, 2 * self.k + 1)):
            raise ValueError("pairs must form a perfect matching on 1..2k")


def _matchings_raw(items: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings of `items`, smallest element paired with each
    larger partner, recursively (deterministic canonical order)."""
    if not items:
        yield ()
        return
    first = items[0]
    rest = items[1:]
    for i, partner in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for tail in _matchings_raw(remaining):
            yield ((first, partner),) + tail


def enumerate_matchings(k: int) -> Iterator[ConnectionPattern]:
    """All (2k-1)!! perfect matchings on [2k] in canonical order."""
    if not (2 <= k <= MAX_PATTERN_K):
        raise ValueError(f"k must be in 2..{MAX_PATTERN_K}")
    for pairs in _matchings_raw(tuple(range(1, 2 * k + 1))):
        yield ConnectionPattern(k, pairs)


def matching_count(k: int) -> int:
    """(2k-1)!!, the number of perfect matchings on [2k], without listing them."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return math.prod(range(1, 2 * k, 2))


def valid_pattern_count(k: int) -> int:
    """2^(k-1) (k-1)!, the number of valid patterns, without listing them: a
    valid pattern strings the k tour segments into one cycle, which has
    (k-1)! orders after the first segment and 2^(k-1) orientations."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return 2 ** (k - 1) * math.factorial(k - 1)


def _segment_entries(pairs, k: int) -> list[int]:
    """The endpoints at which the segment walk enters the tour segments, in
    walk order.

    The removed edges cut the tour into k segments: segment j < k runs from
    endpoint 2j to 2j+1, the wrap segment from 2k to 1. The walk leaves the
    wrap segment at endpoint 1, follows the pattern pair there into a segment,
    crosses it to its other endpoint (e ^ 1) and follows the pair there, until
    a pair leads back to 2k. It always stops: it follows the one cycle through
    endpoint 1 of the pattern pairs and segments. The pattern is valid iff the
    walk enters all k - 1 other segments.
    """
    partner = {a: b for pair in pairs for a, b in (pair, pair[::-1])}
    entries = []
    e = partner[1]
    while e != 2 * k:
        entries.append(e)
        e = partner[e ^ 1]
    return entries


def is_valid_pattern(m: ConnectionPattern) -> bool:
    """True iff applying the pattern always reconnects the tour into one cycle."""
    return len(_segment_entries(m.pairs, m.k)) == m.k - 1


def _valid_matchings_raw(k: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The valid raw k-matchings in _matchings_raw's order, walking no
    invalid one. The tour segments join endpoint 2j to 2j+1 (j < k) and 2k
    to 1, so they and the pairs chosen so far make chains. A pattern is
    valid iff its pairs and the segments make one cycle, so a pair that
    joins the two ends of one chain is skipped unless it is the last. No
    partial matching is a dead end: while two or more pairs are left, the
    smallest free endpoint has two partners or more that leave its chain
    open."""
    end = [0] * (2 * k + 1)
    for e in range(2, 2 * k, 2):
        end[e], end[e + 1] = e + 1, e
    end[1], end[2 * k] = 2 * k, 1
    return _chain_walk(tuple(range(1, 2 * k + 1)), end, [])


def _chain_walk(
    free: tuple[int, ...], end: list[int], pairs: list[tuple[int, int]]
) -> Iterator[tuple[tuple[int, int], ...]]:
    """_valid_matchings_raw's walk from `pairs` over the endpoints `free`;
    `end[e]` is the other end of free endpoint e's chain. Each step joins
    two chains and undoes it on return."""
    if not free:
        yield tuple(pairs)
        return
    a, rest = free[0], free[1:]
    for i, b in enumerate(rest):
        if end[a] == b and len(rest) > 1:
            continue  # closes a cycle before the last pair
        ea, eb = end[a], end[b]
        end[ea], end[eb] = eb, ea
        pairs.append((a, b))
        yield from _chain_walk(rest[:i] + rest[i + 1:], end, pairs)
        pairs.pop()
        end[ea], end[eb] = a, b


@lru_cache(maxsize=8)
def valid_patterns(k: int) -> tuple[ConnectionPattern, ...]:
    """All valid connection patterns in canonical enumeration order; cached,
    so every call with the same k returns the same tuple."""
    if not (2 <= k <= MAX_PATTERN_K):
        raise ValueError(f"k must be in 2..{MAX_PATTERN_K}")
    return tuple(ConnectionPattern(k, pairs) for pairs in _valid_matchings_raw(k))


def interference_graph(pairs) -> tuple[tuple[int, int], ...]:
    """The interference class of the pattern with these pairs: the sorted
    (lo, hi) slot pairs, lo < hi, that its pairs join, the graph on move
    slots that identifies the two endpoint ids of each slot. A pair within
    one slot re-adds that removed edge and adds no edge; two pairs between
    the same two slots make one edge. Each pattern pair (a, b) has a < b, so
    its slots come in order. The edges fix the rest (pattern_classes)."""
    joined = {((a + 1) // 2, (b + 1) // 2) for a, b in pairs}
    return tuple(sorted(edge for edge in joined if edge[0] != edge[1]))


class PatternClass(NamedTuple):
    """The valid k-patterns of one interference edge set: the edges, sorted,
    and the patterns' indices in valid_patterns(k), ascending."""

    edges: tuple[tuple[int, int], ...]
    members: array


@lru_cache(maxsize=8)
def pattern_classes(k: int) -> tuple[PatternClass, ...]:
    """The valid k-patterns grouped by interference edge set, ordered by
    edges, from one walk of the valid raw matchings in valid_patterns' order
    that builds no ConnectionPattern; cached.

    An edge set fixes which slots every pattern pair joins, so patterns of
    one class differ only in the sides of their pairs. Each slot has two
    endpoints: a slot with no interference neighbour pairs its own two, a
    slot with one neighbour pairs both with it (a doubled edge), and a slot
    with two neighbours pairs one endpoint with each.
    """
    if not (2 <= k <= MAX_PATTERN_K):
        raise ValueError(f"k must be in 2..{MAX_PATTERN_K}")
    found: defaultdict[tuple[tuple[int, int], ...], array] = defaultdict(partial(array, "i"))
    for index, pairs in enumerate(_valid_matchings_raw(k)):
        found[interference_graph(pairs)].append(index)
    return tuple(PatternClass(edges, found[edges]) for edges in sorted(found))


# ---------------------------------------------------------------------------
# Gains and move application
# ---------------------------------------------------------------------------

def _endpoint_vertex(tour: Tour, endpoint: int, edge_index: int) -> int:
    left, right = tour.edge(edge_index)
    return right if endpoint_is_right(endpoint) else left


def gain_partial(
    inst: Instance, tour: Tour, m: ConnectionPattern, f: Mapping[int, int]
) -> int:
    """Gain of a partial embedding: removed-edge weight minus the weight of
    added edges whose both endpoint slots are placed.

    Sums run over placed slots and over realized pattern pairs, so that on any
    injective (in particular any full increasing) embedding this equals the
    set-based gain of the corresponding move.
    """
    total = 0
    for i in f:
        left, right = tour.edge(f[i])
        total += inst.weight(left, right)
    for a, b in m.pairs:
        ia, ib = slot_of_endpoint(a), slot_of_endpoint(b)
        if ia in f and ib in f:
            u = _endpoint_vertex(tour, a, f[ia])
            v = _endpoint_vertex(tour, b, f[ib])
            if u == v:
                raise DegenerateMoveError(
                    f"pattern pair {(a, b)} collapses to a loop at vertex {u}"
                )
            total -= inst.weight(u, v)
    return total


@dataclass(frozen=True)
class KMove:
    """A concrete k-move: removed tour-edge indices, added vertex pairs, gain."""

    k: int
    removed: tuple[int, ...]
    added: tuple[tuple[int, int], ...]
    gain: int
    pattern: ConnectionPattern
    embedding: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "removed": list(self.removed),
            "added": [list(p) for p in self.added],
            "gain": self.gain,
            "pattern": [list(p) for p in self.pattern.pairs],
            "embedding": list(self.embedding),
        }


def _check_full_embedding(m: ConnectionPattern, f) -> tuple[int, ...]:
    emb = tuple(int(f[i]) for i in range(1, m.k + 1))
    if any(emb[i] >= emb[i + 1] for i in range(m.k - 1)):
        raise ValueError("full embedding must be strictly increasing")
    return emb


def as_kmove(inst: Instance, tour: Tour, m: ConnectionPattern, f) -> KMove:
    """Materialize the (pattern, embedding) pair as an explicit k-move."""
    emb = _check_full_embedding(m, f if isinstance(f, Mapping) else dict(enumerate(f, 1)))
    fmap = dict(enumerate(emb, 1))
    added = []
    for a, b in m.pairs:
        u = _endpoint_vertex(tour, a, fmap[slot_of_endpoint(a)])
        v = _endpoint_vertex(tour, b, fmap[slot_of_endpoint(b)])
        if u == v:
            raise DegenerateMoveError("added edge collapses to a loop")
        added.append((min(u, v), max(u, v)))
    if len(set(added)) != len(added):
        raise DegenerateMoveError("two pattern pairs map to the same added edge")
    return KMove(
        k=m.k,
        removed=emb,
        added=tuple(sorted(added)),
        gain=gain_partial(inst, tour, m, fmap),
        pattern=m,
        embedding=emb,
    )


def apply_move(inst: Instance, tour: Tour, m: ConnectionPattern, f) -> Tour:
    """Apply the k-move and return the new tour.

    The new tour is the segment walk of `_segment_entries`, the walk that
    also decides validity: it takes the wrap segment (from 2k through w_n,
    w_1 to 1), then each segment it enters, forward if it enters at the even
    endpoint and reversed if at the odd one. A walk that enters fewer than
    k - 1 segments (a loop or a doubled added edge seals segments off) raises
    DegenerateMoveError, as does a weight drop that is not gain_partial's.
    The new sequence starts at the old first vertex and proceeds toward the
    neighbor that came earlier in the old tour.
    """
    n, k = tour.n, m.k
    emb = _check_full_embedding(m, f if isinstance(f, Mapping) else dict(enumerate(f, 1)))
    if n < 2 * k:
        raise DegenerateMoveError(f"instance too small: need n >= {2 * k}")
    if emb[0] < 1 or emb[-1] > n:
        raise ValueError(f"edge index out of range 1..{n}")
    order = tour.order
    segments = [order[a:b] for a, b in zip(emb, emb[1:])]  # segment j at j - 1
    entries = _segment_entries(m.pairs, k)
    if len(entries) < k - 1:
        raise DegenerateMoveError("move splits the tour into several cycles")
    walk = list(order[emb[-1]:] + order[: emb[0]])
    for e in entries:
        segment = segments[e // 2 - 1]
        walk += segment if e % 2 == 0 else segment[::-1]

    start = n - emb[-1]  # w_1's place in the wrap segment
    walk = walk[start:] + walk[:start]
    if order.index(walk[-1]) < order.index(walk[1]):
        walk[1:] = walk[:0:-1]
    new_tour = Tour(tuple(walk))
    gain = gain_partial(inst, tour, m, dict(enumerate(emb, 1)))
    if tour_weight(inst, new_tour) != tour_weight(inst, tour) - gain:
        raise DegenerateMoveError("weight change disagrees with the computed gain")
    return new_tour
