"""Connection patterns, embeddings, and k-move mechanics.

A k-move removes k tour edges and adds k graph edges. Rather than listing the
added edges directly, a move is described by an embedding f mapping move slots
1..k to tour-edge indices (strictly increasing for a full move) together with
a connection pattern: a perfect matching on the 2k endpoint ids, where removed
edge j owns endpoint ids 2j-1 (its left endpoint) and 2j (its right endpoint).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import lru_cache

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


def _segment_class(e: int, k: int) -> int:
    """Class of endpoint e under the identification 2i ~ (2i+1) mod 2k.

    Class i consists of {2i, 2i+1} for i < k and class k of {2k, 1}; these are
    the endpoints of the tour segment between consecutive removed edges.
    """
    return k if e == 1 else e // 2


def _is_valid_raw(pairs, k: int) -> bool:
    # Contract segment classes; valid iff loop-free and the k class nodes form
    # one connected (hence single, since 2-regular) cycle.
    parent = list(range(k + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = 0
    for a, b in pairs:
        ca, cb = _segment_class(a, k), _segment_class(b, k)
        if ca == cb:
            return False
        ra, rb = find(ca), find(cb)
        if ra != rb:
            parent[ra] = rb
            merges += 1
    return merges == k - 1


def is_valid_pattern(m: ConnectionPattern) -> bool:
    """True iff applying the pattern always reconnects the tour into one cycle."""
    return _is_valid_raw(m.pairs, m.k)


@lru_cache(maxsize=8)
def _valid_patterns_cached(k: int) -> tuple[ConnectionPattern, ...]:
    return tuple(m for m in enumerate_matchings(k) if is_valid_pattern(m))


def valid_patterns(k: int) -> list[ConnectionPattern]:
    """All valid connection patterns in canonical enumeration order."""
    return list(_valid_patterns_cached(k))


def _interference_raw(pairs) -> tuple[Counter, set[int]]:
    counts: Counter = Counter()
    readded: set[int] = set()
    for a, b in pairs:
        i, j = slot_of_endpoint(a), slot_of_endpoint(b)
        if i == j:
            readded.add(i)
        else:
            counts[(min(i, j), max(i, j))] += 1
    return counts, readded


@dataclass(frozen=True)
class InterferenceGraph:
    """Graph on move slots recording which removed edges are joined by added edges.

    Obtained from the pattern by identifying the two endpoint ids of each slot.
    A pair joining both endpoints of one slot re-adds that removed edge; such
    slots are listed in `readded_slots` and stay isolated in the simple edge
    set. Components of the simple graph are cycles, single (doubled) edges, or
    isolated re-added slots.
    """

    k: int
    edges: frozenset[tuple[int, int]]
    multiplicity: tuple[tuple[tuple[int, int], int], ...]
    readded_slots: frozenset[int]

    @property
    def doubled_edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(e for e, c in self.multiplicity if c == 2)

    def components(self) -> list[tuple[str, tuple[int, ...]]]:
        """(kind, sorted vertices) per connected component of the simple graph;
        kind is one of 'cycle', 'edge', 'isolated'."""
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.k + 1)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        seen: set[int] = set()
        comps = []
        for v in range(1, self.k + 1):
            if v in seen:
                continue
            stack, comp = [v], set()
            while stack:
                u = stack.pop()
                if u in comp:
                    continue
                comp.add(u)
                stack.extend(adj[u] - comp)
            seen |= comp
            if len(comp) == 1:
                kind = "isolated"
            elif len(comp) == 2:
                kind = "edge"
            else:
                kind = "cycle"
            comps.append((kind, tuple(sorted(comp))))
        return comps


def interference_graph(m: ConnectionPattern) -> InterferenceGraph:
    counts, readded = _interference_raw(m.pairs)
    return InterferenceGraph(
        k=m.k,
        edges=frozenset(counts),
        multiplicity=tuple(sorted(counts.items())),
        readded_slots=frozenset(readded),
    )


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

    The removed edges cut the tour into k segments: segment j < k runs from
    endpoint 2j to 2j+1, the wrap segment from 2k through w_n, w_1 to 1. The
    walk takes the wrap segment, then follows the pattern pair at its current
    endpoint into the next segment, forward if it enters at the even endpoint
    and reversed if at the odd one, until a pair leads back to 2k. A walk that
    closes before taking all k segments (a loop or a doubled added edge seals
    segments off) raises DegenerateMoveError, as does a weight drop that is
    not gain_partial's. The new sequence starts at the old first vertex and
    proceeds toward the neighbor that came earlier in the old tour.
    """
    n, k = tour.n, m.k
    emb = _check_full_embedding(m, f if isinstance(f, Mapping) else dict(enumerate(f, 1)))
    if n < 2 * k:
        raise DegenerateMoveError(f"instance too small: need n >= {2 * k}")
    if emb[0] < 1 or emb[-1] > n:
        raise ValueError(f"edge index out of range 1..{n}")
    order = tour.order
    segments = [order[a:b] for a, b in zip(emb, emb[1:])]  # segment j at j - 1
    partner = {a: b for pair in m.pairs for a, b in (pair, pair[::-1])}
    walk = list(order[emb[-1]:] + order[: emb[0]])
    e = partner[1]
    while e != 2 * k:
        segment = segments[e // 2 - 1]
        walk += segment if e % 2 == 0 else segment[::-1]
        e = partner[e ^ 1]  # the segment's other endpoint
    if len(walk) < n:  # some segments were never reached
        raise DegenerateMoveError("move splits the tour into several cycles")

    start = n - emb[-1]  # w_1's place in the wrap segment
    walk = walk[start:] + walk[:start]
    if order.index(walk[-1]) < order.index(walk[1]):
        walk[1:] = walk[:0:-1]
    new_tour = Tour(tuple(walk))
    gain = gain_partial(inst, tour, m, dict(enumerate(emb, 1)))
    if tour_weight(inst, new_tour) != tour_weight(inst, tour) - gain:
        raise DegenerateMoveError("weight change disagrees with the computed gain")
    return new_tour
