"""Dependence graphs, exact treewidth, and (nice) tree decompositions.

`treewidth` is the one width routine. While the smallest degree d in the graph
is at most 2, it eliminates the smallest vertex v of that degree: v goes, and
its neighbours become adjacent. Then tw(G) = max(d, tw(G')) for the graph G'
left. Eliminating v first costs d, so tw(G) <= max(d, tw(G')). G' is a minor
of G (v merges into a neighbour), so tw(G') <= tw(G). And tw(G) >= d, since a
graph of minimum degree 1 has an edge and one of minimum degree 2 a cycle.
That is why a degree-2 vertex is contracted only once no vertex has degree
below 2: inside a path it would count 2 for a graph of width 1. The core left
has minimum degree 3, and an exact subset DP gives its width. Cores of more
than MAX_TW_VERTICES vertices are refused before the DP runs.

`treewidth_exact` builds the lexicographically smallest optimal elimination
order on top of it. Let G_S be the graph left after eliminating the set S: u
and w are adjacent in G_S when a path joins them whose inner vertices all lie
in S, whatever order S was eliminated in. So eliminating v after S costs v's
degree in G_S, and the best width for eliminating the rest is h[S] = tw(G_S).
The next vertex of the order is thus the smallest v of degree at most tw(G)
in G_S with tw(G_{S+v}) <= tw(G).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .moves import InterferenceGraph, InvariantError

MAX_TW_VERTICES = 24


def _normalize_edges(edges, k: int) -> frozenset[tuple[int, int]]:
    norm = set()
    for a, b in edges:
        if a == b:
            raise ValueError("loops are not allowed")
        if not (1 <= a <= k and 1 <= b <= k):
            raise ValueError(f"vertex out of range 1..{k}")
        norm.add((min(a, b), max(a, b)))
    return frozenset(norm)


@dataclass(frozen=True)
class DepGraph:
    """Graph on move slots whose edges are order dependencies plus interference
    dependencies; the DP runs over a tree decomposition of this graph."""

    k: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "edges", _normalize_edges(self.edges, self.k))


def adjacency(k: int, edges) -> dict[int, set[int]]:
    """Neighbour sets of the vertices 1..k."""
    adj: dict[int, set[int]] = {v: set() for v in range(1, k + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def dependence_graph(interference: InterferenceGraph, order_edge_set) -> DepGraph:
    """Union of interference edges and order edges (parallel edges collapse)."""
    return DepGraph(k=interference.k, edges=interference.edges | frozenset(order_edge_set))


# ---------------------------------------------------------------------------
# Exact treewidth: safe reductions, then a subset DP on the core
# ---------------------------------------------------------------------------

def _elimination_cost(adj: list[int], eliminated: int, v: int) -> int:
    """Back-degree of eliminating v after `eliminated`: vertices outside the
    eliminated set adjacent to v directly or through eliminated vertices."""
    comp = 1 << v
    reach = adj[v]
    frontier = reach & eliminated & ~comp
    while frontier:
        comp |= frontier
        grow = 0
        f = frontier
        while f:
            low = f & -f
            grow |= adj[low.bit_length() - 1]
            f ^= low
        reach |= grow
        frontier = reach & eliminated & ~comp
    return (reach & ~eliminated & ~(1 << v)).bit_count()


@cache
def _subset_dp(n: int, edges: frozenset[tuple[int, int]]) -> int:
    """Treewidth of the graph on 0..n-1, from h[S] = best width for
    eliminating the remaining vertices once S is eliminated, filled in from
    the largest S down to h[0]."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    full = (1 << n) - 1
    h = {full: 0}
    for size in range(n - 1, -1, -1):
        for combo in combinations(range(n), size):
            s = 0
            for v in combo:
                s |= 1 << v
            rest = full & ~s
            best = n  # width never exceeds n-1; n acts as +infinity
            r = rest
            while r:
                low = r & -r
                v = low.bit_length() - 1
                r ^= low
                val = _elimination_cost(adj, s, v)
                sub = h[s | low]
                if sub > val:
                    val = sub
                if val < best:
                    best = val
            h[s] = best
    return h[0]


def _eliminate(adj: dict, v) -> None:
    """Remove v from `adj` in place and make its neighbours a clique."""
    nbrs = adj.pop(v)
    for u in nbrs:
        adj[u].discard(v)
        adj[u] |= nbrs - {u}


def treewidth(adj: dict) -> int:
    """Exact treewidth of the graph with neighbour sets `adj` (symmetric, no
    loops, sortable labels), by the reductions in the module docstring.

    Raises ValueError when the core left has more than MAX_TW_VERTICES
    vertices."""
    adj = {v: set(nbrs) for v, nbrs in adj.items()}
    lb = 0
    while adj:
        degree, v = min((len(nbrs), v) for v, nbrs in adj.items())
        if degree > 2:
            break
        lb = max(lb, degree)
        _eliminate(adj, v)
    if not adj:
        return lb
    if len(adj) > MAX_TW_VERTICES:
        raise ValueError(f"treewidth DP supports cores of at most {MAX_TW_VERTICES} vertices")
    labels = {v: i for i, v in enumerate(sorted(adj))}
    core_edges = frozenset(
        (labels[a], labels[b]) for a in adj for b in adj[a] if labels[a] < labels[b]
    )
    return max(lb, _subset_dp(len(adj), core_edges))


def treewidth_exact(g: DepGraph) -> tuple[int, tuple[int, ...]]:
    """Exact treewidth plus the lexicographically smallest optimal elimination
    order, so downstream decompositions are deterministic.

    The order is built greedily from `treewidth` as the module docstring
    describes: next comes the smallest vertex whose degree in the current
    graph is at most the width and whose elimination leaves a graph of width
    at most the width.
    """
    adj = adjacency(g.k, g.edges)
    width = treewidth(adj)
    order = []
    while adj:
        for v in sorted(adj):
            if len(adj[v]) > width:
                continue
            rest = {u: set(nbrs) for u, nbrs in adj.items()}
            _eliminate(rest, v)
            if treewidth(rest) <= width:
                order.append(v)
                adj = rest
                break
        else:
            raise InvariantError(f"no vertex continues an optimal order after {order}")
    return width, tuple(order)


# ---------------------------------------------------------------------------
# Tree decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeDecomposition:
    """Rooted tree of bags; parent[root] == -1."""

    k: int
    bags: tuple[frozenset[int], ...]
    parent: tuple[int, ...]
    root: int

    def __post_init__(self):
        n = len(self.bags)
        if len(self.parent) != n or not 0 <= self.root < n or self.parent[self.root] != -1:
            raise ValueError("need one parent per bag, and parent[root] == -1")
        for i in range(n):
            v, steps = i, 0
            while v != self.root:
                v, steps = self.parent[v], steps + 1
                if not 0 <= v < n or steps >= n:  # a second root, or a cycle
                    raise ValueError(f"bag {i} does not reach the root in under {n} steps")

    @property
    def width(self) -> int:
        return max(len(b) for b in self.bags) - 1

    def children(self) -> list[list[int]]:
        ch: list[list[int]] = [[] for _ in self.bags]
        for i, p in enumerate(self.parent):
            if p >= 0:
                ch[p].append(i)
        return ch

    def tree_edges(self) -> list[tuple[int, int]]:
        return [(p, i) for i, p in enumerate(self.parent) if p >= 0]


def decomposition_from_order(g: DepGraph, order: tuple[int, ...]) -> TreeDecomposition:
    """Standard fill-in construction; the width equals the order's elimination width."""
    if sorted(order) != list(range(1, g.k + 1)):
        raise ValueError("order must be a permutation of 1..k")
    nbrs = adjacency(g.k, g.edges)
    position = {v: i for i, v in enumerate(order)}
    bags: list[frozenset[int]] = []
    later_sets: list[set[int]] = []
    for v in order:
        later = {u for u in nbrs[v] if position[u] > position[v]}
        bags.append(frozenset({v} | later))
        later_sets.append(later)
        for u in later:
            nbrs[u].discard(v)
            nbrs[u].update(later - {u})
    parent = [-1] * g.k
    for i in range(g.k - 1):
        later = later_sets[i]
        if later:
            anchor = min(later, key=position.__getitem__)
            parent[i] = position[anchor]
        else:
            parent[i] = i + 1
    return TreeDecomposition(k=g.k, bags=tuple(bags), parent=tuple(parent), root=g.k - 1)


LEAF, INTRODUCE, FORGET, JOIN = "leaf", "introduce", "forget", "join"


@dataclass(frozen=True)
class NiceNode:
    kind: str
    bag: frozenset[int]
    vertex: int | None
    children: tuple[int, ...]


@dataclass(frozen=True)
class NiceTreeDecomposition:
    """Rooted decomposition whose nodes are leaf/introduce/forget/join and whose
    root and leaf bags are empty, listed in run order.

    A bottom-up pass over the list keeps a stack of the tops of the runs it
    has finished. Each node's `children` are, in order, the tops of the runs
    just before it: the node pops them and pushes itself. The root is last,
    the one entry left. The constructor replays that stack and raises
    ValueError on a node list that breaks it, such as one with a cycle."""

    k: int
    nodes: tuple[NiceNode, ...]
    root: int

    def __post_init__(self):
        stack: list[int] = []
        for i, nd in enumerate(self.nodes):
            cut = len(stack) - len(nd.children)
            if cut < 0 or tuple(stack[cut:]) != tuple(nd.children):
                raise ValueError(
                    f"node {i}'s children {nd.children} are not the tops of the runs before it"
                )
            del stack[cut:]
            stack.append(i)
        if stack != [self.root]:
            raise ValueError("the root must be the last node, above all the others")

    @property
    def width(self) -> int:
        return max(len(nd.bag) for nd in self.nodes) - 1

    def postorder(self) -> range:
        """Node indices in run order, children before parents: every node."""
        return range(len(self.nodes))


class _NiceBuilder:
    """Lays out the nice decomposition of `d` in run order."""

    def __init__(self, d: TreeDecomposition):
        self.d = d
        self.kids = d.children()
        self.nodes: list[NiceNode] = []

    def add(self, kind, bag, vertex, children) -> int:
        self.nodes.append(NiceNode(kind, frozenset(bag), vertex, tuple(children)))
        return len(self.nodes) - 1

    def chain_from_empty(self, bag: frozenset[int]) -> int:
        top = self.add(LEAF, frozenset(), None, ())
        cur: set[int] = set()
        for v in sorted(bag):
            cur.add(v)
            top = self.add(INTRODUCE, frozenset(cur), v, (top,))
        return top

    def adapt(self, top: int, from_bag: frozenset[int], to_bag: frozenset[int]) -> int:
        cur = set(from_bag)
        for v in sorted(from_bag - to_bag):
            cur.remove(v)
            top = self.add(FORGET, frozenset(cur), v, (top,))
        for v in sorted(to_bag - from_bag):
            cur.add(v)
            top = self.add(INTRODUCE, frozenset(cur), v, (top,))
        return top

    def build(self, orig: int) -> int:
        """Lay out the subtree of bag `orig`, its children last first, each
        adapted to `orig`'s bag, then the joins; return its top node."""
        bag = self.d.bags[orig]
        tops = [
            self.adapt(self.build(kid), self.d.bags[kid], bag)
            for kid in reversed(self.kids[orig])
        ]
        if not tops:
            return self.chain_from_empty(bag)
        top = tops.pop()  # the first child's
        for other in reversed(tops):
            top = self.add(JOIN, bag, None, (other, top))
        return top


def to_nice(d: TreeDecomposition) -> NiceTreeDecomposition:
    """Convert to a nice decomposition of equal width with O(k * width) nodes."""
    builder = _NiceBuilder(d)
    top = builder.adapt(builder.build(d.root), d.bags[d.root], frozenset())
    return NiceTreeDecomposition(k=d.k, nodes=tuple(builder.nodes), root=top)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _decomposition_parts(d):
    if isinstance(d, NiceTreeDecomposition):
        bags = [nd.bag for nd in d.nodes]
        edges = [(i, c) for i, nd in enumerate(d.nodes) for c in nd.children]
        return bags, edges, d
    bags = list(d.bags)
    return bags, d.tree_edges(), None


def validate_decomposition(g: DepGraph, d) -> tuple[bool, list[str]]:
    """Check the bag cover/edge/connectivity conditions, the separator property
    of every tree edge, and (for nice decompositions) the node-kind rules.

    Returns (ok, diagnostics); diagnostics name each offending vertex or edge.
    """
    bags, tree_edges, nice = _decomposition_parts(d)
    diags: list[str] = []
    nodes = range(len(bags))

    covered = set().union(*bags) if bags else set()
    for v in range(1, g.k + 1):
        if v not in covered:
            diags.append(f"vertex {v} appears in no bag")
    for a, b in g.edges:
        if not any(a in bag and b in bag for bag in bags):
            diags.append(f"edge ({a},{b}) is contained in no bag")

    adj: dict[int, list[int]] = {i: [] for i in nodes}
    for p, c in tree_edges:
        adj[p].append(c)
        adj[c].append(p)
    for v in range(1, g.k + 1):
        holding = [i for i in nodes if v in bags[i]]
        if not holding:
            continue
        seen = {holding[0]}
        stack = [holding[0]]
        holding_set = set(holding)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in holding_set and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != holding_set:
            diags.append(f"bags containing vertex {v} are not connected in the tree")

    # separator property: removing a tree edge splits the vertex sets so that
    # their intersection lies inside the shared bag intersection
    children_map: dict[int, list[int]] = {i: [] for i in nodes}
    for p, c in tree_edges:
        children_map[p].append(c)

    def subtree_union(c: int) -> set[int]:
        out: set[int] = set()
        stack = [c]
        while stack:
            u = stack.pop()
            out |= bags[u]
            stack.extend(children_map[u])
        return out

    for p, c in tree_edges:
        below = subtree_union(c)
        above = set()
        reach = {c}
        stack = [p]
        while stack:
            u = stack.pop()
            if u in reach:
                continue
            reach.add(u)
            above |= bags[u]
            stack.extend(w for w in adj[u] if w not in reach)
        overlap = below & above
        allowed = bags[p] & bags[c]
        if not overlap <= allowed:
            diags.append(
                f"tree edge ({p},{c}) separator violated by vertices "
                f"{sorted(overlap - allowed)}"
            )
        sep = allowed
        for a, b in g.edges:
            if a in below - sep and b in above - sep or b in below - sep and a in above - sep:
                diags.append(f"edge ({a},{b}) crosses the separation at tree edge ({p},{c})")

    if nice is not None:
        for i, nd in enumerate(nice.nodes):
            if nd.kind == LEAF:
                if nd.bag or nd.children:
                    diags.append(f"leaf node {i} must have an empty bag and no children")
            elif nd.kind == INTRODUCE:
                if len(nd.children) != 1:
                    diags.append(f"introduce node {i} must have one child")
                else:
                    child = nice.nodes[nd.children[0]]
                    if nd.vertex not in nd.bag or child.bag != nd.bag - {nd.vertex}:
                        diags.append(f"introduce node {i} bag rule violated")
            elif nd.kind == FORGET:
                if len(nd.children) != 1:
                    diags.append(f"forget node {i} must have one child")
                else:
                    child = nice.nodes[nd.children[0]]
                    if nd.vertex in nd.bag or child.bag != nd.bag | {nd.vertex}:
                        diags.append(f"forget node {i} bag rule violated")
            elif nd.kind == JOIN:
                if len(nd.children) != 2 or any(
                    nice.nodes[c].bag != nd.bag for c in nd.children
                ):
                    diags.append(f"join node {i} must have two children with equal bags")
            else:
                diags.append(f"node {i} has unknown kind {nd.kind!r}")
        if nice.nodes[nice.root].bag:
            diags.append("root bag must be empty")

    return not diags, diags
