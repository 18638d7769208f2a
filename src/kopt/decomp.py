"""Dependence graphs, exact treewidth, and (nice) tree decompositions.

`treewidth` gives the treewidth of a graph on any labels. While the smallest
degree d in the graph is at most 2, it eliminates the smallest vertex v of
that degree: v goes, and its neighbours become adjacent. Then
tw(G) = max(d, tw(G')) for the graph G' left. Eliminating v first costs d, so
tw(G) <= max(d, tw(G')). G' is a minor of G (v merges into a neighbour), so
tw(G') <= tw(G). And tw(G) >= d, since a graph of minimum degree 1 has an
edge and one of minimum degree 2 a cycle. That is why a degree-2 vertex is
contracted only once no vertex has degree below 2: inside a path it would
count 2 for a graph of width 1. The core left has minimum degree 3, and an
exact subset DP gives its width. Cores of more than MAX_TW_VERTICES vertices
are refused before the DP runs.

`treewidth_exact(g, order_only)` reads an elimination order of least
effective width, the lexicographically smallest, off one table. Let G_S be
the graph left after eliminating the set S: u and w are adjacent in G_S when
a path joins them whose inner vertices all lie in S, whatever order S was
eliminated in. An order edge v-w puts slot v before slot w (or after it) in
one bucket. Say v is eliminated after S and that edge is its only tie to w:
no interference edge joins them (the caller names such edges `order_only`),
and no fill edge does, as no path between them runs inside S. Then the DP
builds no table over v, w and v's other neighbours: it sums v's other terms
into a table over v and the rest, and a running maximum along v's axis makes
that a table over w and the rest (see dpengine). So eliminating v after S
costs its degree in G_S, less one when such a pure order edge leaves it, and
both depend on S alone; `_reach` walks them on bitmasks. The best width for
eliminating the rest once S is eliminated, h[S], is the least over v outside
S of max(cost(S, v), h[S + v]), and `_subset_table` fills it in from the
full set down to h[{}], the effective width. With no order-only edge nothing
is pure and h[{}] is the treewidth. The order walks the table from S = {}:
its next vertex is the smallest v outside S with cost(S, v) and h[S + v]
both at most the width. The table runs over all 2^k sets, with no reductions
first, so graphs of more than MAX_TW_VERTICES vertices are refused; the
dependence graphs of the solver have at most 8.

`decomposition_from_order(g, order, order_only)` gives each v the bag of v
and its neighbours in G_S, S the vertices before v in the order, less the
smallest w that a pure order edge joins to v, and hangs it below the bag of
the first of those neighbours to go. `to_nice` puts a forget-into node where
w is left out, which forgets v and introduces w at once. No bag below it
holds w, since such a bag would come from a path from v to w through
eliminated vertices. So no bag holds both v and w, and the nice form
decomposes g less its forget-into edges.

`validate_decomposition` checks the nice form, where the definition (every
slot and every edge in a bag, the bags holding a slot connected) comes down
to counting. `to_nice` keeps each bag of a TreeDecomposition and puts
between two adjacent bags only bags inside one of them that hold their
intersection, so it decomposes g exactly when the original does. The
constructor makes the nodes a tree. Given the kind rules and an empty root
bag, the top of a connected run of nodes holding slot v is not the root, and
its parent forgets v (a forget or forget-into node), since join and
introduce nodes hold their children's bags and a forget-into node all of its
child's bag but the slot it forgets; the child of each node that forgets v
tops such a run. So v is forgotten exactly once when the bags holding it are
present and connected. An edge in some bag lies in an introduce node's bag,
or in a forget-into node's bag with the slot it brings in as one end: on the
way down to an empty leaf, the first node whose child lacks an end of it
introduces that end. The separator property follows: a slot on both sides of
a tree edge lies in both its bags, by connectivity, and an edge of g with
one end only below and the other only above it would lie in no bag. A
forget-into edge v-w is the exception the DP needs: it must be an edge of g,
v lies only below the node, and w nowhere below it. The kind rule keeps w out
of the child's bag; a bag further below holding w would top a run whose
parent forgets w, and w, in the node's bag and not the root's, is forgotten
again above, so the count refuses it. That no interference
edge joins v and w is not the graph's to tell; dpengine's compiler checks it
against the pattern.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache

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
# Exact width: a subset DP, and treewidth's reductions before it
# ---------------------------------------------------------------------------

def _masks(n: int, edges) -> list[int]:
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _graph_masks(g: DepGraph, order_only) -> tuple[list[int], list[int]]:
    """Neighbour bitmasks of g (vertex v at bit v - 1) and of `order_only`,
    which must be edges of g."""
    order_only = _normalize_edges(order_only, g.k)
    if not order_only <= g.edges:
        raise ValueError("order-only edges must be edges of the graph")
    return (_masks(g.k, ((a - 1, b - 1) for a, b in g.edges)),
            _masks(g.k, ((a - 1, b - 1) for a, b in order_only)))


def _reach(adj: list[int], only: list[int], eliminated: int, v: int) -> tuple[int, int]:
    """(later, pure) for eliminating v after `eliminated`: the vertices
    outside the eliminated set adjacent to v directly or through eliminated
    vertices, and those of them joined to v by an order-only edge (`only`)
    that no path through eliminated vertices doubles."""
    comp = 1 << v
    reach = adj[v]
    through = 0  # the neighbours of the eliminated vertices v reaches
    frontier = reach & eliminated
    while frontier:
        comp |= frontier
        f = frontier
        while f:
            low = f & -f
            through |= adj[low.bit_length() - 1]
            f ^= low
        reach |= through
        frontier = reach & eliminated & ~comp
    return reach & ~eliminated & ~comp, only[v] & ~eliminated & ~through


def _elimination_cost(adj: list[int], only: list[int], eliminated: int, v: int) -> int:
    """v's degree in the graph left after `eliminated`, less one when a pure
    order edge leaves it."""
    later, pure = _reach(adj, only, eliminated, v)
    return later.bit_count() - (pure != 0)


def _subset_table(adj: list[int], only: list[int]) -> list[int]:
    """h[S] for every set S of the vertices 0..n-1, filled in from the full
    set down to h[0], the width: every superset of S is a larger number."""
    n = len(adj)
    full = (1 << n) - 1
    h = [0] * (full + 1)
    for s in range(full - 1, -1, -1):
        best = n  # width never exceeds n-1; n acts as +infinity
        r = full & ~s
        while r:
            low = r & -r
            r ^= low
            val = _elimination_cost(adj, only, s, low.bit_length() - 1)
            sub = h[s | low]
            if sub > val:
                val = sub
            if val < best:
                best = val
        h[s] = best
    return h


@cache
def _subset_dp(n: int, edges: frozenset[tuple[int, int]]) -> int:
    """Treewidth of the graph on 0..n-1."""
    return _subset_table(_masks(n, edges), [0] * n)[0]


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


def treewidth_exact(g: DepGraph, order_only=frozenset()) -> tuple[int, tuple[int, ...]]:
    """The effective width of g under the order-edge rule, `order_only` being
    the edges of g that are order edges and nothing else (with none, the
    treewidth), and the lexicographically smallest elimination order of that
    width, so downstream decompositions are deterministic. Both are read off
    the subset table as the module docstring describes.

    Raises ValueError for a graph of more than MAX_TW_VERTICES vertices."""
    adj, only = _graph_masks(g, order_only)
    if g.k > MAX_TW_VERTICES:
        raise ValueError(f"treewidth_exact supports at most {MAX_TW_VERTICES} vertices")
    h = _subset_table(adj, only)
    width, s, order = h[0], 0, []
    while len(order) < g.k:
        v = next((v for v in range(g.k) if not s >> v & 1
                  and _elimination_cost(adj, only, s, v) <= width
                  and h[s | 1 << v] <= width), None)
        if v is None:
            raise InvariantError(f"no vertex continues an optimal order after {order}")
        order.append(v + 1)
        s |= 1 << v
    return width, tuple(order)


# ---------------------------------------------------------------------------
# Tree decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeDecomposition:
    """Rooted tree of bags; parent[root] == -1. `into` is empty, or holds per
    bag None or (v, w): the bag's slot v leaves on the way to its parent
    through a forget-into node that brings in w, which the bag lacks."""

    k: int
    bags: tuple[frozenset[int], ...]
    parent: tuple[int, ...]
    root: int
    into: tuple[tuple[int, int] | None, ...] = ()

    def __post_init__(self):
        n = len(self.bags)
        if len(self.parent) != n or not 0 <= self.root < n or self.parent[self.root] != -1:
            raise ValueError("need one parent per bag, and parent[root] == -1")
        if self.into and len(self.into) != n:
            raise ValueError("need no `into` entries, or one per bag")
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


def decomposition_from_order(
    g: DepGraph, order: tuple[int, ...], order_only=frozenset()
) -> TreeDecomposition:
    """Standard fill-in construction; the width equals the order's elimination
    width. With `order_only` (edges of g that are order edges alone), a slot
    joined to a later neighbour w by such an edge that no fill has joined
    again leaves its bag through a forget-into node into w (the smallest such
    w), and its bag lacks w: the width is then the order's effective width."""
    if sorted(order) != list(range(1, g.k + 1)):
        raise ValueError("order must be a permutation of 1..k")
    adj, only = _graph_masks(g, order_only)
    position = {v - 1: i for i, v in enumerate(order)}
    bags: list[frozenset[int]] = []
    parent: list[int] = []
    into: list[tuple[int, int] | None] = []
    eliminated = 0
    for i, v in enumerate(order):
        later, pure = _reach(adj, only, eliminated, v - 1)
        w = pure & -pure  # the smallest
        bag = (later | 1 << (v - 1)) & ~w
        bags.append(frozenset(u + 1 for u in range(g.k) if bag >> u & 1))
        into.append((v, w.bit_length()) if w else None)
        parent.append(min((position[u] for u in range(g.k) if later >> u & 1),
                          default=i + 1 if i + 1 < g.k else -1))
        eliminated |= 1 << (v - 1)
    return TreeDecomposition(
        k=g.k, bags=tuple(bags), parent=tuple(parent), root=g.k - 1,
        into=tuple(into) if any(into) else (),
    )


LEAF, INTRODUCE, FORGET, JOIN = "leaf", "introduce", "forget", "join"
FORGET_INTO = "forget-into"


@dataclass(frozen=True)
class NiceNode:
    """`vertex` is the slot an introduce, forget or forget-into node adds or
    drops; `into` is the slot a forget-into node brings in."""

    kind: str
    bag: frozenset[int]
    vertex: int | None
    children: tuple[int, ...]
    into: int | None = None


@dataclass(frozen=True)
class NiceTreeDecomposition:
    """Rooted decomposition whose nodes are leaf/introduce/forget/forget-into/
    join and whose root and leaf bags are empty, listed in run order.

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
        self.into = d.into or (None,) * len(d.bags)
        self.nodes: list[NiceNode] = []

    def add(self, kind, bag, vertex, children, into=None) -> int:
        self.nodes.append(NiceNode(kind, frozenset(bag), vertex, tuple(children), into))
        return len(self.nodes) - 1

    def chain_from_empty(self, bag: frozenset[int]) -> int:
        top = self.add(LEAF, frozenset(), None, ())
        cur: set[int] = set()
        for v in sorted(bag):
            cur.add(v)
            top = self.add(INTRODUCE, frozenset(cur), v, (top,))
        return top

    def adapt(self, top: int, from_bag: frozenset[int], to_bag: frozenset[int],
              into: tuple[int, int] | None = None) -> int:
        """Forget and introduce slots from `from_bag` up to `to_bag`; with
        `into` = (v, w), v leaves last, through a forget-into node bringing in w."""
        cur = set(from_bag)
        v, w = into or (None, None)
        for u in sorted(from_bag - to_bag - {v}):
            cur.remove(u)
            top = self.add(FORGET, frozenset(cur), u, (top,))
        if into:
            cur.remove(v)
            cur.add(w)
            top = self.add(FORGET_INTO, frozenset(cur), v, (top,), w)
        for u in sorted(to_bag - cur):
            cur.add(u)
            top = self.add(INTRODUCE, frozenset(cur), u, (top,))
        return top

    def build(self, orig: int) -> int:
        """Lay out the subtree of bag `orig`, its children last first, each
        adapted to `orig`'s bag, then the joins; return its top node."""
        bag = self.d.bags[orig]
        tops = [
            self.adapt(self.build(kid), self.d.bags[kid], bag, self.into[kid])
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

def validate_decomposition(g: DepGraph, d) -> tuple[bool, list[str]]:
    """Check that the nice decomposition `d`, or `to_nice(d)` for a
    TreeDecomposition, decomposes g: the node-kind rules (for a forget-into
    node of v into w also that v-w is an edge of g and that its child's bag
    lacks w), then (as they rest on those rules) an empty root bag, bags
    inside 1..k, one forget or forget-into node per slot, and every edge of g
    in an introduce node's bag or joining a forget-into node's two slots. The
    module docstring shows why these suffice.

    Returns (ok, diagnostics); diagnostics name each offending node, slot or
    edge."""
    nice = to_nice(d) if isinstance(d, TreeDecomposition) else d
    nodes = nice.nodes
    diags: list[str] = []
    for i, nd in enumerate(nodes):
        kids = [nodes[c].bag for c in nd.children]
        if nd.kind == LEAF:
            if nd.bag or kids:
                diags.append(f"leaf node {i} must have an empty bag and no children")
        elif nd.kind in (INTRODUCE, FORGET):
            # the node's bag holds an introduced vertex, its child's a forgotten one
            if len(kids) != 1:
                diags.append(f"{nd.kind} node {i} must have one child")
            elif kids[0] != nd.bag ^ {nd.vertex} or (nd.kind == FORGET) == (nd.vertex in nd.bag):
                diags.append(f"{nd.kind} node {i} bag rule violated")
        elif nd.kind == FORGET_INTO:
            v, w = nd.vertex, nd.into
            if len(kids) != 1:
                diags.append(f"forget-into node {i} must have one child")
            elif v not in kids[0]:
                diags.append(f"forget-into node {i}: slot {v} is not in its child's bag")
            elif w in kids[0]:
                diags.append(f"forget-into node {i}: slot {w} is already in its child's bag")
            elif nd.bag != kids[0] - {v} | {w}:
                diags.append(f"forget-into node {i} bag rule violated")
            elif (min(v, w), max(v, w)) not in g.edges:
                diags.append(f"forget-into node {i}: ({v},{w}) is not an edge of the graph")
        elif nd.kind == JOIN:
            if kids != [nd.bag, nd.bag]:
                diags.append(f"join node {i} must have two children with equal bags")
        else:
            diags.append(f"node {i} has unknown kind {nd.kind!r}")
    if diags:
        return False, diags

    if nodes[nice.root].bag:
        diags.append("root bag must be empty")
    stray = set().union(*(nd.bag for nd in nodes)) - set(range(1, g.k + 1))
    diags += [f"slot {v} is outside 1..{g.k}" for v in sorted(stray)]
    forgets = Counter(nd.vertex for nd in nodes if nd.kind in (FORGET, FORGET_INTO))
    for v in range(1, g.k + 1):
        if not forgets[v]:
            diags.append(f"vertex {v} appears in no bag")
        elif forgets[v] > 1:
            diags.append(f"bags containing vertex {v} are not connected in the tree")
    covered = {frozenset((nd.vertex, nd.into)) for nd in nodes if nd.kind == FORGET_INTO}
    covered |= {frozenset((u, nd.vertex if nd.kind == INTRODUCE else nd.into))
                for nd in nodes if nd.kind in (INTRODUCE, FORGET_INTO) for u in nd.bag}
    diags += [f"edge ({a},{b}) is contained in no bag"
              for a, b in sorted(g.edges) if frozenset((a, b)) not in covered]
    return not diags, diags
