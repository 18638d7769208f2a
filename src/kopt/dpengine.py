"""Maximum-gain k-move search: compiled DP plans over nice tree decompositions.

For a fixed connection pattern and bucket assignment (a *cell*) the solver
finds a bucket-monotone embedding of maximum gain by dynamic programming over
a nice tree decomposition of the dependence graph (order edges plus
interference edges). That DP depends only on the pattern's interference
class and the assignment's order-edge set, so many cells share it; the
pattern decides only its pair sides, which endpoint of each removed edge its
added edges use.

- **Plans.** `_compile` turns the DP of one interference class
  (`moves.pattern_classes`) and order-edge set into a flat list of leaf,
  introduce, forget and join ops with precomputed table axes, run as a stack
  machine. The nice decomposition lists its nodes in the order they run, and
  op i runs node i. Each introduce op carries, per bag neighbour of the
  introduced slot, the number of pattern pairs (the class fixes it), the
  self-loop mask and the order edge between the two slots; each join op
  carries its correction terms. No op holds a pair's sides. Plans do not
  depend on the tour; equal ops are one shared object, so a plan costs
  little more than its op list. `_class_table(k)` holds each class's
  members and sides table (`_Class`): per slot pair the distinct sides its
  pairs take, and each member's variant index per slot pair. It also maps
  each valid pattern to its index and class id. Per order-edge set only the
  plans are cached, by class id (`_class_plans`), and every run takes a
  (plan, class) pair. A standalone `solve_fixed` runs its pattern's class
  plan with a class of its own (`_class_of_one`), over the same cached
  decomposition, so it lists no patterns and gives the same gain and
  embedding. A cold k = 5 call over four buckets of 10 compiles 1,095 plans
  for 5,760 (pattern, order-edge set) pairs; k = 6 over three buckets of 8,
  6,208 for 61,440.
- **Batch axis.** Every plan runs through `_GroupRuns`, over a group of
  fitting assignments that share an order-edge set. `best_move` still visits
  every cell through `solve_fixed`, which finds the cell's group and row with
  one dict lookup. Over more than one bucket, tables are small and Python
  dispatch sets the time, so a (group, class) run, made for the first of its
  cells asked for, or under policy="best" by the bound pass before the cells
  are asked for (Bounds), runs all of the class's patterns at once, and every
  cell of those patterns reads its gain from that run. Its rows are then
  (pattern, assignment) pairs, pattern-major. A term over the assignments
  alone, such as a one-slot term, is added through a (P, B, s, ...) view of
  the table, so it broadcasts along the patterns, and so is a pair block whose
  sides all of the run's patterns share; a pair block whose sides differ
  stacks each pattern's value from the group's memo. At one bucket a group is
  one assignment with s^w-entry tables, and a run holds the requested pattern
  alone: batching there made a policy="first" search pay for patterns it never
  reached. Every chunk of every run reads its patterns' sides through
  `_Cells.over`. A standalone `solve_fixed` call, and a winner that the latest
  chunk did not run alone, run as a group of one, so chunks, shared blocks and
  the memory bound below hold for every run.
  Every table has shape `(R, s, ..., s)`: axis 0 runs over the run's rows,
  and each bag slot has one axis over `s = part.size` positions, the
  largest bucket's size: position j of a slot in bucket b is the tour edge j
  after b's first.
- **Bounds.** best_move needs only the winning cell, so under
  policy="best" over more than one bucket a (group, class) run is bounded
  before it runs (`_GroupRuns.rule_out`). A bound run runs the class's plan
  once over the group's assignments, one row each, as a class of one member
  whose sides are relaxed (`_relaxation`): every pair block takes,
  at each position pair, the largest of its added-edge terms over the
  class's side variants, and every join correction subtracts exactly that
  value, so that a term counted in both children of a join counts once.
  Every member's objective is then, embedding by embedding and term by
  term, at most the bound's, so the bound's root is at least every
  member's gain in every cell. A run is ruled out when its bound lies
  strictly below a gain already found, or, under improving_only, is at
  most 0; its cells read no gain, and since their gains lie below the
  winner's, every gain, move and tie-break stays the same. A run bounded
  and then run exactly raises InvariantError if a gain exceeds its bound.
  Classes of one member run exactly, as cheaply as their bound. Every
  larger class is bounded first in the group with the most assignments,
  its probe, and the probes run best first while their bound reaches the
  best gain. The other groups' runs are bounded only where that gain rules
  out half of the probes or more; else each runs exactly, unbounded, at the
  first request for one of its cells. Measured at k = 5..7, it ruled out
  77-100% of the probes at random tours, but 10-22% at 3- and 5-opt
  optima (61% at a k = 7, n = 14 4-opt optimum), where bounding every run
  made a k = 5, n = 40 call 25% slower. At one bucket a group is one
  assignment and a bound run costs as much as one member's run: k = 4,
  n = 64 at a 3-opt optimum took 0.034 s with bounds, 0.029 s without.
  policy="first" stops at the first improving cell in pattern order, so
  bounding the runs it never reaches would only add work.
- **Order edges by running maxima.** Where the decomposition forgets slot v
  into slot w (decomp: their order edge is v's only tie to w), the
  forget-into op takes the table over v and the rest, which holds all of v's
  other terms, and turns v's axis into w's: at w's position j it holds the
  maximum over v's positions i < j (i > j when w < v), -inf at j = 0, a
  running maximum shifted by one position. This is exact: the order term is
  0 or -inf, no other term holds both v and w, and both slots lie in one
  bucket, where positions compare as the tour edges do, so max over i of
  T(i, rest) + [i < j] is max over i < j of T(i, rest). Then w's terms are
  added as an introduce op adds them. The step builds no table over v and w
  together, so a k = 4 or 5 plan at one bucket holds at most 3 slots in a
  table where it held 4, and it adds no terms, so the dtype bound below
  holds. The running maximum is taken one of two ways, by the slab, the
  entries at one position of v's axis. From MIN_STEP_SLAB (2^10) entries up
  it takes one np.maximum per position, since np.maximum.accumulate walks
  the axis with a strided inner loop: on a (1, 64, 64, 64) float32 table
  along axis 1, 1.4 ms against 0.13 ms for the 63 steps (0.36 ms along axis
  2). k = 4 one-bucket tables and k = 5 class runs have such slabs. Below
  it, as on the k = 3 one-bucket tables (slabs of 1 or s entries), one
  accumulate call costs less than a Python step per position. Max is exact,
  so both ways give the same tables.
- **Padding.** The buckets are balanced (buckets.make_buckets): each holds
  s or s - 1 edges. A bucket of s - 1 is padded to `s` positions, and the
  padded position's entries are -inf, as are loops and order violations.
  When the bucket count divides n nothing is padded.
- **In place.** All terms between the introduced slot and one bag neighbour
  are folded into one `(B, s, s)` block that is added to the table in place;
  a join adds into its first child's table in place, unless that table is a
  kept forget output.
- **Shared blocks.** A two-slot block's `(B, s, s)` value depends on the
  block's terms and on the group's cells, not on the pattern. Over more
  than one bucket each group's cells memoize these values, keyed by the
  block's terms (slots, unary, pairs, matrix, order; the op's index is
  applied to the stored array as a view), so all of the group's class runs
  gather each block once, with each pattern's own pair sides. Stored arrays
  are read-only, which checks that no op writes into a block: introduce ops
  sum into fresh buffers and joins add blocks into their tables. One budget
  of `MAX_BATCH_ENTRIES` entries serves every group of one best_move call;
  past it, and in chunked runs, a block is computed as before. At one
  bucket there is no memo: the one cell's blocks hold s^2 entries beside
  tables of s^3, so sharing saves no work, and keeping them made a warm
  k = 3, n = 100 call slower (11-14 ms, not 8-9 ms) by where the heap put
  them: with glibc's mmap threshold pinned, both took the same time.
- **Sliced pairs.** An introduce op whose parent is a forget or forget-into
  op never builds its table whole when it holds more than
  `MAX_SLICE_ENTRIES` entries. One routine, `_forget`, sums it in pieces
  along the forgotten slot's axis into one reused buffer. A forget op folds
  each piece's maximum into its output; a forget-into op walks the pieces in
  w's order and carries the running maximum from each into the next, by
  steps or accumulate as its slab decides (a piece changes the number of
  positions, not the slab). A table that fits runs the same code as one
  piece.
- **Chunks.** The batch axis is cut into chunks of whole patterns so that no
  table holds more than `MAX_BATCH_ENTRIES` entries; a pattern that does not
  fit alone is cut into chunks of assignments, down to one cell's table when
  that is larger. A plan whose one cell needs a table of more than
  `MAX_TABLE_BYTES`, counted from the widest table it builds whole, is
  refused before it runs, and `best_move` refuses the whole request before
  any plan runs: the class plans of each order-edge set carry the widest of
  them, which does not depend on the tour.
- **Check once.** Root values give every cell's gain. A run of one pattern
  keeps the tables its forget ops output, and a run of several keeps none.
  A group run holds on to its last chunk's cells and forget tables, when
  that chunk ran one pattern, until the next run starts. A forget-into op's
  kept table has its full bag width, one slot more than a forget op's
  output over the same input. The winning cell's embedding is rebuilt
  top-down from those tables, at the cell's row: at each forget op, the
  child's table is summed again along the forgotten slot only, from the
  kept forget tables below it and the lines of the blocks in between (with
  the run's pair sides), and the slot takes its first maximum: at a
  forget-into op, its first maximum among the positions before w's chosen
  one (after it, when w < v), the one that gave w's entry its value. When
  the winner lies in that last chunk nothing runs again; otherwise, as
  always when its class ran several patterns at once, its pattern runs
  alone once more over its group of one. Its embedding is turned into a
  `KMove` once, whose gain must equal the root value, and applied once
  through `apply_move`, which builds the new tour from the move's k
  segments and checks its weight. The tests, not the runs, check each
  pattern's row of its class's sides table against its own sides
  (`_class_of_one`).

-inf marks assignments with no legal completion. Every other table entry,
and every partial sum the kernel forms, is an integer sum of at most 4k
weights: a full assignment has 2k terms (one removed edge per slot and k
added edges), and a join holds both children's, so up to 4k, before its
correction takes the shared ones out. With W the largest weight magnitude,
every such sum is at most 4k * W in magnitude. Tables are float32 when
4k * W < 2^24, the range where float32 holds every integer, and float64
otherwise, where W <= 2^40 keeps 4k * W below 2^53 for every k < 2048.
Either way the arithmetic is exact, so the order of the additions does not
matter and both dtypes give the same answers.
"""

from __future__ import annotations

import copy
import math
import operator
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache

import numpy as np

from .buckets import BucketPartition, enumerate_assignments, make_buckets, order_edges
from .decomp import (
    FORGET,
    FORGET_INTO,
    INTRODUCE,
    JOIN,
    LEAF,
    DepGraph,
    NiceTreeDecomposition,
    decomposition_from_order,
    dependence_graph,
    treewidth_exact,
    validate_decomposition,
)
from .instance import MAX_TABLE_BYTES, Instance, Tour, tour_weight
# gain_partial is unused here but stays bound: perfbench/layers.py traces it
from .moves import (
    ConnectionPattern,
    InvariantError,
    KMove,
    apply_move,
    as_kmove,
    endpoint_is_right,
    gain_partial,
    interference_graph,
    pattern_classes,
    slot_of_endpoint,
    valid_pattern_count,
    valid_patterns,
)

NEG_INF = float("-inf")
# valid_patterns(k) is held in memory: 645,120 patterns at k=8, 10.3 million
# at k=9
MAX_SOLVER_K = 8
# Largest batched table, in entries (16 MB in float32, 32 MB in float64); a
# single cell whose table is larger runs alone.
MAX_BATCH_ENTRIES = 1 << 22
# Largest piece of an introduce op's table that the forget op above it
# reduces at once, in entries (or one position of the forgotten slot, when
# that is larger).
MAX_SLICE_ENTRIES = 1 << 20
# Smallest slab (the entries at one position of the forgotten axis) whose
# running maximum a forget-into op takes in position steps, one np.maximum
# per position; a smaller slab runs np.maximum.accumulate, whose strided inner
# loop costs little there. Timed in float32 at s = 10..100 positions, the
# steps win from slabs of 250-400 entries along table axis 1 and of 400-1,000
# along a later axis; below them accumulate wins, by 20-40x at slab 1.
MIN_STEP_SLAB = 1 << 10
# float32 holds every integer of magnitude up to 2^24, and no larger range
FLOAT32_EXACT = 1 << 24
# Most slot positions best_move lists: bucket assignments times k times the
# largest bucket's size s. Each assignment's cells hold k * s entries in each
# of six arrays, built for every group before any runs. Requests just under it
# peaked at 0.66 GB RSS (k = 2..7 at s = 1, k = 2..8 at s = 10).
MAX_ASSIGNMENT_ENTRIES = 2_000_000
# Most cells, valid patterns times bucket assignments, that best_move visits.
# Each passes through solve_fixed, about 1 us when it needs no run (k = 5,
# alpha 0, n = 10: 768,768 cells in 0.85 s, runs included), and keeps an
# 8-byte gain until the call returns, so a call at the bound spends about 9 s
# and 67 MB on that alone.
MAX_CELLS = 1 << 23


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a maximum-gain search; gain is None when no bucket-monotone
    embedding exists at all."""

    gain: int | None
    embedding: tuple[int, ...] | None
    move: KMove | None

    @property
    def improving(self) -> bool:
        return self.gain is not None and self.gain > 0


class TourArrays:
    """Vertex/weight lookups for one (instance, tour) pair; the weight
    matrices are built once per table dtype, when first asked for."""

    def __init__(self, inst: Instance, tour: Tour):
        if inst.n != tour.n:
            raise ValueError("tour and instance sizes differ")
        self.n = inst.n
        order0 = np.asarray(tour.order, dtype=np.int64) - 1
        self.left_vertex = order0
        self.right_vertex = np.roll(order0, -1)
        self.weights = inst.weights
        self.max_weight = int(np.abs(inst.weights).max(initial=0))
        self._matrices: dict[type, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def dtype(self, k: int) -> type:
        """The dtype of k-slot tables: float32 when 4k times the largest
        weight magnitude is below 2^24, so that every entry and partial sum is
        exact in it (see the module docstring), else float64."""
        return np.float32 if 4 * k * self.max_weight < FLOAT32_EXACT else np.float64

    def matrices(self, dtype: type) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(wf, neg_w, removed_w) in `dtype`: the weights; their negations,
        the added-edge terms of introduce ops, with -inf on the diagonal since
        a loop (u == v) is illegal; and the weight of each tour edge."""
        got = self._matrices.get(dtype)
        if got is None:
            wf = self.weights.astype(dtype)
            neg_w = -wf
            np.fill_diagonal(neg_w, NEG_INF)
            got = self._matrices[dtype] = wf, neg_w, wf[self.left_vertex, self.right_vertex]
        return got


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

# A plan runs as a stack machine, op i running node i of the nice
# decomposition, whose nodes are listed in run order: a leaf pushes a table,
# introduce and forget ops replace the top table, and a join pops two. Ops
# hold no node ids, so an op depends only on its bag and its terms, and equal
# ops are one shared object in every plan; node i's children name op i's
# inputs.
#   (LEAF,)
#   (INTRODUCE, bag size, index placing the child's table, blocks)
#   (FORGET, axis of the forgotten slot, slot, the remaining bag: the op's
#   table slots in axis order)
#   (FORGET_INTO, axis of the forgotten slot v, v, the op's table slots in
#   axis order, the slot w it brings in, w's blocks)
#   (JOIN, blocks)
# A block is the sum of all terms of one op that involve the same one or two
# bag slots: (slots, unary, pairs, matrix, order, index)
# slots: 0-based slots in table-axis order; unary: (block dim, _Cells
#   attribute) per one-slot term; pairs: how many pattern pairs join the two
#   slots, looked up in the _Cells weight matrix `matrix` ("neg_w" or "wf")
#   at the sides that the run's sides table gives them (_Cells.over);
#   order: the order edge slots[0] < slots[1] holds; index: places the
#   block's (batch, slot positions...) array on the op's table axes.
# Slots are 1-based in the op constructors' arguments and 0-based in ops.


@dataclass(frozen=True, slots=True)
class Plan:
    """The DP of one (interference class, order-edge set) as a flat op list,
    compiled from the nice decomposition `nice`: op i runs node i, so
    `nice.nodes[i].children` are the ops whose tables op i takes, in stack
    order. `width` is the largest table's slot count, the largest bag size,
    as every table is over one node's bag: one cell's largest table has
    s**width entries. `whole_width` is the slot count of the largest table
    that is built whole: an introduce op under a forget op is summed in
    pieces of at most MAX_SLICE_ENTRIES entries or the forget's output."""

    k: int
    ops: tuple[tuple, ...]
    width: int
    nice: NiceTreeDecomposition
    whole_width: int


_DECOMP_CACHE: dict[
    tuple[int, frozenset[tuple[int, int]], frozenset[tuple[int, int]]], NiceTreeDecomposition
] = {}


def nice_decomposition_for(dep: DepGraph, order_only=frozenset()) -> NiceTreeDecomposition:
    """Nice decomposition of the dependence graph of least effective width,
    its edges `order_only` being order edges and nothing else, cached by
    both edge sets and validated once on construction."""
    key = (dep.k, dep.edges, frozenset(order_only))
    cached = _DECOMP_CACHE.get(key)
    if cached is not None:
        return cached
    _, order = treewidth_exact(dep, order_only)
    nice = decomposition_from_order(dep, order, order_only)
    ok, diags = validate_decomposition(dep, nice)
    if not ok:
        raise InvariantError(f"invalid decomposition produced: {diags}")
    _DECOMP_CACHE[key] = nice
    return nice


def _block(bag: tuple[int, ...], slots, unary, pairs: int, matrix: str, order: bool) -> tuple:
    index = (slice(None),) + tuple(slice(None) if b in slots else None for b in bag)
    return tuple(s - 1 for s in slots), tuple(unary), pairs, matrix, order, index


@cache
def _introduce_op(bag: tuple[int, ...], i: int, paired, self_paired: bool, ordered) -> tuple:
    """Slot i joins `bag`: its removed edge, the added edges it realizes with
    bag slots (`paired`: (slot, pair count) each), their loops, and its order
    edges with the `ordered` bag slots."""
    realized = sum(count for _, count in paired) + self_paired
    if realized > 2:
        raise InvariantError(f"slot {i} realizes {realized} added edges; at most two exist")
    counts = dict(paired)
    unary_src = "pad" if self_paired else "gain_in"
    blocks = []
    for nb in sorted(set(counts) | set(ordered)):
        unary = [] if blocks else [(0 if i < nb else 1, unary_src)]
        blocks.append(
            _block(bag, sorted((i, nb)), unary, counts.get(nb, 0), "neg_w", nb in ordered)
        )
    if not blocks:
        blocks.append(_block(bag, (i,), [(0, unary_src)], 0, "neg_w", False))
    place = (slice(None),) + tuple(None if b == i else slice(None) for b in bag)
    return INTRODUCE, len(bag), place, tuple(blocks)


@cache
def _forget_op(child_bag: tuple[int, ...], v: int) -> tuple:
    bag = tuple(b - 1 for b in child_bag if b != v)
    return FORGET, 1 + child_bag.index(v), v - 1, bag


@cache
def _forget_into_op(child_bag: tuple[int, ...], v: int, w: int, paired, self_paired: bool,
                    ordered) -> tuple:
    """Slot v leaves `child_bag` through its order edge with w, whose axis
    its own becomes, and w joins the bag as _introduce_op has it join."""
    bag = tuple(sorted(set(child_bag) - {v} | {w}))
    blocks = _introduce_op(bag, w, paired, self_paired, ordered)[3]
    return FORGET_INTO, 1 + child_bag.index(v), v - 1, tuple(b - 1 for b in bag), w - 1, blocks


@cache
def _join_op(bag: tuple[int, ...], inside, unpaired) -> tuple:
    """Take the bag's gain, counted in both children, out once: the removed
    edges of the `unpaired` slots (a re-added edge cancels its own) and the
    added edges `inside` the bag (((lo, hi), pair count) each)."""
    pending = list(unpaired)
    blocks = []
    for (lo, hi), count in inside:
        unary = [(dim, "neg_rem") for dim, s in enumerate((lo, hi)) if s in pending]
        pending = [s for s in pending if s not in (lo, hi)]
        blocks.append(_block(bag, (lo, hi), unary, count, "wf", False))
    for s in pending:
        blocks.append(_block(bag, (s,), [(0, "neg_rem")], 0, "wf", False))
    return JOIN, tuple(blocks)


_LEAF_OP = (LEAF,)
# the ops whose output tables _run_plan keeps for _reconstruct
_FORGETS = (FORGET, FORGET_INTO)


def _compile(
    edges: tuple[tuple[int, int], ...], obs: frozenset[tuple[int, int]],
    nice: NiceTreeDecomposition,
) -> Plan:
    """The plan of the interference class `edges` (sorted (lo, hi) slot
    pairs) and order-edge set obs over `nice`, which its callers have
    validated as a decomposition of their dependence graph. The class fixes
    how many pattern pairs join two slots (moves.pattern_classes): a slot
    with no neighbour pairs its own endpoints, two slots that are each
    other's only neighbour are joined by two pairs, and every other edge by
    one."""
    neighbours: dict[int, list[int]] = {}
    for i, j in edges:
        neighbours.setdefault(i, []).append(j)
        neighbours.setdefault(j, []).append(i)
    counts = {(i, j): 2 if len(neighbours[i]) == len(neighbours[j]) == 1 else 1
              for i, j in edges}
    nodes = nice.nodes

    def introduced(i: int, bag: tuple[int, ...]) -> tuple:
        """_introduce_op's terms of slot i joining `bag`."""
        paired = tuple((j, counts[min(i, j), max(i, j)])
                       for j in neighbours.get(i, ()) if j in bag)
        ordered = tuple(j for j in (i - 1, i + 1) if j in bag and (min(i, j), max(i, j)) in obs)
        return paired, i not in neighbours, ordered

    ops: list[tuple] = []
    for nd in nodes:
        bag = tuple(sorted(nd.bag))
        if nd.kind == LEAF:
            ops.append(_LEAF_OP)
        elif nd.kind == INTRODUCE:
            ops.append(_introduce_op(bag, nd.vertex, *introduced(nd.vertex, bag)))
        elif nd.kind == FORGET:
            ops.append(_forget_op(tuple(sorted(nodes[nd.children[0]].bag)), nd.vertex))
        elif nd.kind == FORGET_INTO:
            v, w = nd.vertex, nd.into
            edge = min(v, w), max(v, w)
            if edge not in obs or edge in counts:
                raise InvariantError(f"slots {v} and {w} must be joined by an order edge alone"
                                     " to forget one into the other")
            child_bag = tuple(sorted(nodes[nd.children[0]].bag))
            ops.append(_forget_into_op(child_bag, v, w, *introduced(w, bag)))
        else:  # JOIN
            inside = tuple((e, n) for e, n in counts.items() if e[0] in bag and e[1] in bag)
            unpaired = tuple(s for s in bag if s in neighbours)
            ops.append(_join_op(bag, inside, unpaired))
    whole_width = max(
        len(op[3]) if op[0] in _FORGETS
        else op[1] if op[0] == INTRODUCE and up[0] not in _FORGETS else 0
        for op, up in zip(ops, ops[1:] + [_LEAF_OP])
    )
    return Plan(nice.k, tuple(ops), nice.width + 1, nice, whole_width)


def _class_plan(
    k: int, edges: tuple[tuple[int, int], ...], obs: frozenset[tuple[int, int]]
) -> Plan:
    """_compile's plan over the cached decomposition of least width; every
    pattern of the class runs it with its own pair sides."""
    return _compile(edges, obs, nice_decomposition_for(dependence_graph(k, edges, obs),
                                                       obs.difference(edges)))


def _pattern_sides(edges: tuple[tuple[int, int], ...], patterns) -> tuple:
    """The sides table of `patterns`, all of the interference class `edges`:
    the columns, each slot pair (0-based, lo < hi) that the class's pattern
    pairs join, mapped to its index; per column the distinct sides its pairs
    take, each a sorted tuple of (side at lo, side at hi); and a read-only
    (patterns, columns) int8 array, each pattern's variant index in each
    column."""
    columns = {(i - 1, j - 1): c for c, (i, j) in enumerate(edges)}
    rows = []
    for m in patterns:
        sides: list[list[tuple[bool, bool]]] = [[] for _ in columns]
        for a, b in m.pairs:
            sa, sb = slot_of_endpoint(a), slot_of_endpoint(b)
            if sa != sb:
                sides[columns[sa - 1, sb - 1]].append((endpoint_is_right(a), endpoint_is_right(b)))
        rows.append([tuple(sorted(got)) for got in sides])
    variants = tuple(tuple(dict.fromkeys(got)) for got in zip(*rows))
    ids = np.array([[v.index(x) for v, x in zip(variants, row)] for row in rows], np.int8)
    ids.flags.writeable = False
    return columns, variants, ids


@dataclass(frozen=True, slots=True)
class _Class:
    """An interference class of k (moves.pattern_classes): its sorted
    `edges`, its `members`, their indices in valid_patterns(k), ascending,
    or (None,) for a class of one member that has none: a pattern run on its
    own (_class_of_one) or a class's relaxation (_relaxation); and their
    sides table as _pattern_sides gives it. Every member runs the class's
    plan with its own row of `ids`."""

    edges: tuple[tuple[int, int], ...]
    members: array | tuple
    columns: dict[tuple[int, int], int]
    variants: tuple
    ids: np.ndarray


def _class_of_one(m: ConnectionPattern) -> _Class:
    """Pattern m's class with m alone in it: how a standalone solve_fixed
    runs m, with no index in valid_patterns."""
    edges = interference_graph(m.pairs)
    return _Class(edges, (None,), *_pattern_sides(edges, [m]))


@dataclass(frozen=True, slots=True)
class _Best:
    """A relaxed pair side (_relaxation): at each position pair of its two
    slots, the largest added-edge terms that any of `variants`, the class's
    sides there, gives (_relaxed)."""

    variants: tuple


def _relaxation(cls: _Class) -> _Class:
    """Class `cls` relaxed into one member, whose run is the class's bound
    run: at each slot pair its one side variant is the best of the class's
    (_Best). Every introduce op adds that best term, and every join
    correction subtracts exactly it, so the root bounds every member's gain
    in every cell (module docstring, Bounds)."""
    ids = np.zeros((1, len(cls.columns)), np.int8)
    ids.flags.writeable = False
    return _Class(cls.edges, (None,), cls.columns, tuple((_Best(v),) for v in cls.variants), ids)


@dataclass(frozen=True, slots=True)
class _ClassTable:
    """The classes of k by class id, in pattern_classes' order; `class_of`,
    each valid pattern's class id; and `index`, each valid pattern's index
    in valid_patterns(k)."""

    classes: tuple[_Class, ...]
    class_of: array
    index: dict[ConnectionPattern, int]


@lru_cache(maxsize=MAX_SOLVER_K)
def _class_table(k: int) -> _ClassTable:
    """The class table of k. Classes do not depend on the order edges, so
    every order-edge set shares it."""
    patterns = valid_patterns(k)
    classes, class_of = [], array("i", [0]) * len(patterns)
    for c, (edges, members) in enumerate(pattern_classes(k)):
        classes.append(_Class(edges, members,
                              *_pattern_sides(edges, [patterns[p] for p in members])))
        for p in members:
            class_of[p] = c
    return _ClassTable(tuple(classes), class_of, {m: p for p, m in enumerate(patterns)})


# A best_move call reads one plan tuple per order-edge set: at most 2^(k - 1).
@lru_cache(maxsize=1 << (MAX_SOLVER_K - 1))
def _class_plans(k: int, obs: frozenset[tuple[int, int]]) -> tuple[tuple[Plan, ...], int]:
    """Each class's plan under obs, by class id, and the largest whole_width
    of them, which does not depend on the tour."""
    plans = tuple(_class_plan(k, cls.edges, obs) for cls in _class_table(k).classes)
    return plans, max(plan.whole_width for plan in plans)


# ---------------------------------------------------------------------------
# Running plans over a batch of cells
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _order_mask(s: int, dtype: type) -> np.ndarray:
    """(1, s, s): 0 where the first position is before the second, else -inf."""
    mask = np.full((1, s, s), NEG_INF, dtype)
    mask[0][np.triu_indices(s, 1)] = 0
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=64)
def _bucket_spans(part: BucketPartition) -> tuple[np.ndarray, np.ndarray]:
    """Each bucket's first tour-edge index, 0-based, and size, in bucket
    order."""
    lo, hi = np.array([part.bounds(j) for j in range(1, part.count + 1)]).T
    starts, sizes = lo - 1, hi - lo + 1
    starts.flags.writeable = sizes.flags.writeable = False
    return starts, sizes


@dataclass(slots=True)
class _Budget:
    """Entries that the shared-block memos of one best_move call may still
    store."""

    left: int


class _Cells:
    """Bucket assignments gathered over one tour: axis 0 is the batch, axis 1
    the slot, axis 2 the position inside the slot's bucket, counted from the
    bucket's first edge and padded to s (`pad` is -inf past its size). Every
    array is in the dtype of the assignments' k (TourArrays.dtype).

    With a `budget` the cells keep a memo of their two-slot block values,
    keyed by the block's terms, while the budget lasts; else `memo` is None.

    A plan runs over the view `over` gives, which adds its patterns' count
    and pair sides: the batch is then `patterns` times the assignments,
    pattern-major. A bound run is the view of a class's relaxation
    (_relaxation)."""

    def __init__(
        self, arrays: TourArrays, part: BucketPartition, assignments, budget: _Budget | None = None
    ):
        self.arrays, self.part = arrays, part
        self.assignments = np.asarray(assignments, dtype=np.int64)
        self.dtype = arrays.dtype(self.assignments.shape[1])
        self.wf, self.neg_w, removed_w = arrays.matrices(self.dtype)
        s = part.size
        starts, sizes = _bucket_spans(part)
        buckets = self.assignments[:, :, None] - 1
        at = np.arange(s)
        dom = starts[buckets] + at
        valid = at < sizes[buckets]
        dom = np.minimum(dom, arrays.n - 1)
        rem = removed_w[dom]
        self.s = s
        self.dom = dom
        self.side = (arrays.left_vertex[dom], arrays.right_vertex[dom])
        self.pad = np.where(valid, self.dtype(0), self.dtype(NEG_INF))
        self.gain_in = rem + self.pad
        self.neg_rem = -rem
        self.budget = budget
        self.memo: dict[tuple, np.ndarray] | None = None if budget is None else {}
        self.batch = len(self.assignments)

    def rows(self, lo: int, hi: int) -> _Cells:
        return _Cells(self.arrays, self.part, self.assignments[lo:hi])

    def over(self, cls: _Class, lo: int, hi: int) -> _Cells:
        """These cells under members lo..hi-1 of class `cls`: row p * B + b
        is the class's member lo + p at assignment b. The memo is shared.
        `sides` holds the class's columns and variants, the members' rows of
        its ids, and per column their one variant index, or None where they
        differ."""
        run = copy.copy(self)
        ids = cls.ids[lo:hi]
        same = ids[0].tolist()
        if hi - lo > 1:
            same = [v if agree else None
                    for v, agree in zip(same, (ids == ids[:1]).all(axis=0).tolist())]
        run.patterns, run.sides = hi - lo, (cls.columns, cls.variants, ids, same)
        run.batch = run.patterns * self.batch
        return run


def _block_value(block: tuple, cells: _Cells) -> np.ndarray:
    """The block's terms summed over the batch, placed on the op's table axes.
    A term over the cells' assignments alone has their rows, (B, ...), and
    holds for every pattern of the run. A pair block whose sides differ
    between the run's patterns stacks each pattern's value, one row per
    batch row."""
    slots, unary, count, matrix, order, index = block
    if len(slots) == 1:
        return getattr(cells, unary[0][1])[:, slots[0]][index]
    if not count:
        return _stored((slots, unary, (), matrix, order), cells)[index]
    columns, variants, ids, same = cells.sides
    col = columns[slots]
    if same[col] is not None:
        return _stored((slots, unary, variants[col][same[col]], matrix, order), cells)[index]
    values = np.stack([_stored((slots, unary, v, matrix, order), cells) for v in variants[col]])
    return values[ids[:, col]].reshape(-1, *values.shape[2:])[index]


def _stored(key: tuple, cells: _Cells) -> np.ndarray:
    """A two-slot block's value (key: its slots, unary, pair sides, matrix
    and order), looked up in, or stored read-only into, the cells' memo when
    they have one."""
    memo = cells.memo
    if memo is None:
        return _pair_value(key, cells)
    value = memo.get(key)
    if value is None:
        value = _pair_value(key, cells)
        if value.size <= cells.budget.left:
            cells.budget.left -= value.size
            value.flags.writeable = False
            memo[key] = value
    return value


def _relaxed(slots: tuple[int, int], variants: tuple, cells: _Cells) -> np.ndarray:
    """(B, s, s): at each position pair of the two slots, the largest sum of
    added-edge terms (neg_w) that any of the class's pair-side `variants`
    gives there."""
    return np.max([_stored((slots, (), v, "neg_w", False), cells) for v in variants], axis=0)


def _pair_value(key: tuple, cells: _Cells) -> np.ndarray:
    """A two-slot block's terms (key as _stored's) summed over the cells'
    assignments: (B, s, s), or (1, s, s) for an order edge alone. Relaxed
    `pairs` (_Best) give an introduce op (neg_w) _relaxed's value, and a
    join's correction (wf) its negation, 0 where it is -inf, since the table
    there is -inf already."""
    slots, unary, pairs, matrix, order = key
    a, b = slots
    value = _order_mask(cells.s, cells.dtype) if order else None
    if isinstance(pairs, _Best):
        best = _relaxed(slots, pairs.variants, cells)
        terms = [best if matrix == "neg_w" else np.where(best == NEG_INF, 0, -best)]
    else:
        mat = getattr(cells, matrix)
        terms = [mat[cells.side[ra][:, a, :, None], cells.side[rb][:, b, None, :]]
                 for ra, rb in pairs]
    for w in terms:
        value = w if value is None else value + w
    for dim, src in unary:
        u = getattr(cells, src)[:, slots[dim]]
        u = u[:, :, None] if dim == 0 else u[:, None, :]
        value = u if value is None else value + u
    return value


def _block_line(block: tuple, cells: _Cells, row: int, pos: dict[int, int], v: int | None):
    """The block's terms for batch row `row` at the positions `pos`: a vector
    over slot v's positions if the block holds v, else a scalar. Pairs take
    the sides of the run's one pattern, as in _block_value."""
    slots, unary, count, matrix, order, _ = block
    pairs = ()
    if count:
        columns, variants, _, same = cells.sides
        col = columns[slots]
        pairs = variants[col][same[col]]
    at = [slice(None) if b == v else pos[b] for b in slots]
    value = _order_mask(cells.s, cells.dtype)[(0, *at)] if order else 0
    mat = getattr(cells, matrix)
    for ra, rb in pairs:
        ends = cells.side[ra][row, slots[0], at[0]], cells.side[rb][row, slots[1], at[1]]
        value = value + mat[ends]
    for dim, src in unary:
        value = value + getattr(cells, src)[row, slots[dim], at[dim]]
    return value


def _along(axis: int, lo: int, hi: int) -> tuple:
    return (slice(None),) * axis + (slice(lo, hi),)


def _by_pattern(patterns: int, *arrays: np.ndarray) -> list[np.ndarray]:
    """Arrays with the first one's rows as (pattern, assignment, ...) views,
    so that a term over the assignments alone broadcasts along the
    patterns."""
    rows = arrays[0].shape[0]
    return [a.reshape(patterns, -1, *a.shape[1:]) if a.shape[0] == rows else a for a in arrays]


def _add(table: np.ndarray, term: np.ndarray, patterns: int) -> None:
    if patterns > 1:
        table, term = _by_pattern(patterns, table, term)
    table += term


def _introduce(
    op: tuple, child: np.ndarray, cells: _Cells, out: np.ndarray, axis: int = 1, lo: int = 0
) -> np.ndarray:
    """Sum the table of introduce op `op` over its child's table into `out`,
    which holds positions lo.. of table axis `axis`: all of them, or a piece."""
    _, _, place, blocks = op
    size = out.shape[axis]
    terms = [child[place]] + [_block_value(block, cells) for block in blocks]
    if size < cells.s:
        # a term of size 1 along the axis (broadcast) is the same in every piece
        cut = _along(axis, lo, lo + size)
        terms = [t if t.shape[axis] == 1 else t[cut] for t in terms]
    into = out
    if cells.patterns > 1:
        into, *terms = _by_pattern(cells.patterns, out, *terms)
    np.add(terms[0], terms[1], out=into)
    for t in terms[2:]:
        into += t
    return out


def _max_accumulate(piece: np.ndarray, run: np.ndarray, axis: int, lo: int, m: int) -> None:
    """Positions lo + 1 .. lo + m of `run` along `axis`: the running maximum
    of its position lo and the piece's first m positions, by one
    np.maximum.accumulate and, past the first piece, one np.maximum that
    carries position lo in."""
    to = _along(axis, lo + 1, lo + 1 + m)
    np.maximum.accumulate(piece[_along(axis, 0, m)], axis=axis, out=run[to])
    if lo:
        np.maximum(run[to], run[_along(axis, lo, lo + 1)], out=run[to])


def _max_steps(piece: np.ndarray, run: np.ndarray, axis: int, lo: int, m: int) -> None:
    """The same positions of `run` in m steps: position j + 1 is the maximum
    of position j and the piece's position j - lo, one slab at a time.
    Position lo is -inf in the first piece and the previous piece's last
    position after it."""
    at = (slice(None),) * axis
    for j in range(lo, lo + m):
        np.maximum(run[at + (j,)], piece[at + (j - lo,)], out=run[at + (j + 1,)])


def _forget(
    op: tuple, below: tuple | None, child: np.ndarray, cells: _Cells, kept: list | None
) -> np.ndarray:
    """The output of forget or forget-into op `op` over the table of introduce
    op `below` on `child`, or over `child` when `below` is None. The introduce
    op's table is summed in pieces along the forgotten slot's axis, of at most
    MAX_SLICE_ENTRIES entries (or one position, if that holds more), into one
    reused buffer; `child`, or a table appended to `kept`, is one piece. A
    forget op folds each piece's maximum into its output. A forget-into op
    turns slot v's axis into w's, at each position of w the maximum over v's
    positions before it (after it, when w < v) or -inf: it walks the pieces in
    w's order, extends the running maximum over each, and adds w's terms. Where
    the slab, the entries at one position of the axis, holds MIN_STEP_SLAB or
    more, the running maximum takes one np.maximum per position
    (`_max_steps`): numpy's accumulate walks the axis with a strided inner
    loop, up to 10x slower on a 64^3 table. On smaller slabs that loop is
    cheap and one call beats a Python step per position
    (`_max_accumulate`). Both give the same entries."""
    kind, axis = op[0], op[1]
    s = cells.s
    shape = list(child.shape) if below is None else [cells.batch] + [s] * below[1]
    slab = math.prod(shape) // s  # entries at one position of the axis
    width = s if kept is not None or below is None else min(s, max(1, MAX_SLICE_ENTRIES // slab))
    out = run = flip = None
    if kind == FORGET_INTO:
        out = np.empty(shape, cells.dtype)
        # a suffix maximum (w < v) is a prefix maximum along the reversed axis
        flip = (slice(None),) * axis + (slice(None, None, -1),) if op[4] < op[2] else None
        run = out if flip is None else out[flip]
        run[_along(axis, 0, 1)] = NEG_INF
    shape[axis] = width
    buf = None if below is None else np.empty(shape, cells.dtype)
    for lo in range(0, s, width):  # lo, hi: the piece's positions in w's order
        hi = min(s, lo + width)
        at = lo if flip is None else s - hi  # its first position along the axis
        if below is None:  # a table already whole is one piece
            piece = child
        else:
            piece = buf if hi - lo == width else buf[_along(axis, 0, hi - lo)]
            _introduce(below, child, cells, piece, axis, at)
            if kept is not None:
                kept.append(piece)
        if run is None:
            best = piece.max(axis=axis)
            out = best if out is None else np.maximum(out, best, out=out)
            continue
        m = min(s - 1, hi) - lo  # v's positions lo.. give w's lo + 1..; w has no position s
        in_w_order = piece if flip is None else piece[flip]
        (_max_steps if slab >= MIN_STEP_SLAB else _max_accumulate)(in_w_order, run, axis, lo, m)
    for block in op[5] if run is not None else ():
        _add(out, _block_value(block, cells), cells.patterns)
    return out


def _run_plan(
    plan: Plan, cells: _Cells, *, keep_tables: bool = False
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """The root values over the batch, the forget ops' output tables, from
    which _reconstruct rebuilds an embedding, and every op's table (if
    keep_tables, which tests use to compare every node's table), both in op
    order. A run of several patterns keeps no forget tables, since no
    embedding is rebuilt from it. A join adds into its first child's table
    unless that table is kept. Every forget and forget-into op runs through
    _forget, with the introduce op below it when there is one."""
    B, s, ops, dtype, nodes = cells.batch, cells.s, plan.ops, cells.dtype, plan.nice.nodes
    keep_forgets = cells.patterns == 1
    stack: list[np.ndarray] = []
    forgets: list[np.ndarray] = []
    kept: list[np.ndarray] = []
    for i, op in enumerate(ops):
        kind = op[0]
        if kind == INTRODUCE:
            if i + 1 < len(ops) and ops[i + 1][0] in _FORGETS:
                continue  # the forget op runs it
            table = _introduce(op, stack.pop(), cells, np.empty((B,) + (s,) * op[1], dtype))
        elif kind in _FORGETS:
            below = ops[i - 1] if ops[i - 1][0] == INTRODUCE else None
            table = _forget(op, below, stack.pop(), cells, kept if keep_tables else None)
            if keep_forgets:
                forgets.append(table)
        elif kind == JOIN:
            other, table = stack.pop(), stack.pop()
            if keep_tables or keep_forgets and ops[nodes[i].children[0]][0] in _FORGETS:
                table = table + other
            else:
                table += other
            del other
            for block in op[1]:
                _add(table, _block_value(block, cells), cells.patterns)
        else:
            table = np.zeros(B, dtype)
        stack.append(table)
        if keep_tables:
            kept.append(table)
    (root,) = stack
    return root, forgets, kept


def _reconstruct(
    plan: Plan, cells: _Cells, forgets: list[np.ndarray], row: int
) -> tuple[int, ...]:
    """The embedding of batch row `row` of the run over `cells` that kept
    the forget tables `forgets`. Top-down, each forget op's child table is
    rebuilt along the forgotten slot only, at the positions already chosen:
    the kept forget tables below it plus the lines of the blocks of the
    introduce and join ops in between, each op visited once. The slot takes
    the vector's first maximum, argmax's tie rule."""
    ops, nodes = plan.ops, plan.nice.nodes
    tables = dict(zip((i for i, op in enumerate(ops) if op[0] in _FORGETS), forgets))
    pos: dict[int, int] = {}
    todo: list[int | None] = [None]  # forget ops whose child table is still to rebuild
    while todo:
        i = todo.pop()
        v = None if i is None else ops[i][2]  # None: the root, which forgets no slot
        line, below = 0, [len(ops) - 1 if i is None else nodes[i].children[0]]
        while below:  # the table at `pos`, as a vector over v if its bag holds v
            j = below.pop()
            op = ops[j]
            if op[0] in _FORGETS:
                todo.append(j)
                key = tuple(slice(None) if b == v else pos[b] for b in op[3])
                line = line + tables[j][(row, *key)]
                continue
            below += reversed(nodes[j].children)
            for block in () if op[0] == LEAF else op[-1]:  # introduce and join blocks
                line = line + _block_line(block, cells, row, pos, v)
        if i is None:
            continue
        line = np.broadcast_to(line, (cells.s,))
        if ops[i][0] == FORGET_INTO:  # v's positions before w's (after it, when w < v)
            w = ops[i][4]
            before = np.arange(cells.s) < pos[w] if v < w else np.arange(cells.s) > pos[w]
            line = np.where(before, line, NEG_INF)
        pos[v] = int(np.argmax(line))
    return tuple(int(cells.dom[row, v, pos[v]]) + 1 for v in range(plan.k))


def _fits(assignment: tuple[int, ...], part: BucketPartition) -> bool:
    """No bucket is assigned more slots than it has edges."""
    return all(assignment.count(b) <= part.bucket_size(b) for b in set(assignment))


def _check_table_bytes(s: int, width: int, dtype: type) -> None:
    """ValueError if one cell's table over `width` slots of s positions
    holds more than MAX_TABLE_BYTES."""
    entries = s**width
    size = entries * np.dtype(dtype).itemsize
    if size > MAX_TABLE_BYTES:
        raise ValueError(f"one cell's DP table holds {s}^{width} = {entries:,} entries,"
                         f" {size:,} bytes; at most {MAX_TABLE_BYTES:,} fit in memory (a"
                         " smaller alpha makes smaller buckets)")


# A group's gains are int64: _NONE where a cell has no embedding, _UNRUN where
# its pattern has not run yet, _OUT where its (group, class) run was ruled out
# (_GroupRuns.rule_out). Gains are below 2^53 (module docstring).
_NONE, _UNRUN, _OUT = -(1 << 63), (1 << 63) - 1, (1 << 63) - 2


def _gains(root: np.ndarray) -> array:
    """Root values as gains, _NONE where a value is -inf. The values are
    exact integers (module docstring), so the cast is exact."""
    return array("q", [_NONE if v == NEG_INF else int(v) for v in root.tolist()])


def solve_fixed(
    inst: Instance,
    tour: Tour,
    m: ConnectionPattern,
    assignment: tuple[int, ...],
    part: BucketPartition,
    nice: NiceTreeDecomposition | None = None,
    *,
    runs: _GroupRuns | None = None,
) -> SolveResult:
    """Maximum gain over bucket-monotone embeddings for one pattern and one
    nondecreasing bucket assignment (a sequence of ints), checked before any
    plan is compiled. The pattern runs its class plan with its own pair
    sides, alone on the cell as a group of one, over the caller's
    decomposition `nice` if given. The embedding is rebuilt from that run's
    forget tables and re-verified against the direct gain computation.

    With `runs` (best_move's batched runs over this tour and partition) the
    result carries no embedding or move, and the cell's gain is read from the
    run of its group and class; the runs must hold the cell (_GroupRuns.gain).
    A cell whose run best_move's bounds ruled out reads no gain, as one with
    no embedding does.
    """
    if runs is not None:
        return SolveResult(runs.gain(m, tuple(assignment), nice), None, None)
    assignment = tuple(map(operator.index, assignment))
    if len(assignment) != m.k:
        raise ValueError("assignment length must equal k")
    if list(assignment) != sorted(assignment):
        raise ValueError(f"assignment {assignment} is not nondecreasing")
    if part.n != tour.n:
        raise ValueError("bucket partition does not match the tour size")
    obs, cls = order_edges(assignment), _class_of_one(m)
    plan = _class_plan(m.k, cls.edges, obs)
    if nice is not None and nice is not plan.nice:
        if nice.k != m.k:
            raise ValueError("decomposition is for a different k")
        ok, diags = validate_decomposition(dependence_graph(m.k, cls.edges, obs), nice)
        if not ok:
            raise ValueError(f"invalid decomposition: {'; '.join(diags)}")
        plan = _compile(cls.edges, obs, nice)
    kept = _run_alone(TourArrays(inst, tour), part, plan, cls, None, assignment)
    return _solve_cell(inst, tour, m, plan, kept)


def _solve_cell(
    inst: Instance, tour: Tour, m: ConnectionPattern, plan: Plan, kept: tuple | None
) -> SolveResult:
    """The move of the cell that `kept` (take's hand-over: the run's cells
    and forget tables, the cell's row in them and its gain) holds, or no move
    when `kept` is None (the assignment does not fit) or the gain is None.
    The embedding is made into a KMove, whose gain must equal the table's."""
    if kept is None or kept[3] is None:
        return SolveResult(None, None, None)
    cells, forgets, row, gain = kept
    embedding = _reconstruct(plan, cells, forgets, row)
    move = as_kmove(inst, tour, m, embedding)
    if move.gain != gain:
        raise InvariantError(f"reconstructed embedding gain {move.gain} != table gain {gain}")
    return SolveResult(gain, embedding, move)


class _Group:
    """The fitting assignments of one order-edge set: their cells, their
    class plans by class id and the gains of every cell over them,
    pattern-major, both made at first use."""

    __slots__ = ("obs", "cells", "plans", "gains")

    def __init__(self, obs: frozenset[tuple[int, int]], cells: _Cells):
        self.obs, self.cells = obs, cells
        self.plans: tuple[Plan, ...] | None = None
        self.gains: array | None = None


class _GroupRuns:
    """Gains of the cells over one tour and partition, computed one plan
    group at a time. The assignments, nondecreasing tuples over `part`, are
    grouped by order-edge set; one that does not fit has no embedding.
    The first request for a cell runs its group: over more than one bucket,
    under every pattern of the cell's class at once, rows pattern-major;
    at one bucket, where a group is one assignment with s^w-entry tables,
    under the cell's pattern alone. Every later cell of those patterns reads
    its gain from that run. Under policy="best" over more than one bucket,
    rule_out first runs or rules out the runs of classes of one member and
    the probes (module docstring, Bounds); where it bounds the other runs
    too it runs or rules out every run, else the other groups' runs of
    larger classes are left to the first request for one of their cells,
    which runs them unbounded. The cells and forget tables of the latest chunk are kept,
    when it ran one pattern, until the next chunk starts.

    Over more than one bucket each group's cells memoize their two-slot
    blocks for every unchunked run, within one budget of MAX_BATCH_ENTRIES
    entries for all groups."""

    def __init__(self, arrays: TourArrays, part: BucketPartition, assignments):
        assignments = list(assignments)
        self.k = len(assignments[0]) if assignments else 0
        found: dict[frozenset[tuple[int, int]], list[tuple[int, ...]]] = {}
        self.where: dict[tuple[int, ...], tuple[_Group | None, int]] = {}
        for assignment in map(tuple, assignments):
            if _fits(assignment, part):
                found.setdefault(order_edges(assignment), []).append(assignment)
            else:
                self.where[assignment] = None, -1
        budget = _Budget(MAX_BATCH_ENTRIES) if part.count > 1 else None
        self.groups = {obs: _Group(obs, _Cells(arrays, part, group, budget))
                       for obs, group in found.items()}
        for obs, group in found.items():
            self.where.update((a, (self.groups[obs], row)) for row, a in enumerate(group))
        self.pattern: ConnectionPattern | None = None
        self.index: int | None = None  # of self.pattern in valid_patterns(k)
        self.class_id: int | None = None  # of self.pattern
        self.last: tuple | None = None  # (group, pattern index, first row, cells, forget tables)

    def gain(self, m: ConnectionPattern, assignment: tuple, nice) -> int | None:
        """The cell's gain, None if it has no embedding or its run was ruled
        out. The runs must hold the cell, else InvariantError: its
        assignment is one of theirs, m a valid pattern of theirs, and
        `nice`, if given, its plan's decomposition."""
        held = self.where.get(assignment)
        if m is not self.pattern:
            table = _class_table(self.k)
            self.pattern, self.index = m, table.index.get(m)
            self.class_id = None if self.index is None else table.class_of[self.index]
        p = self.index
        if held is None or p is None:
            raise InvariantError(f"the runs hold no cell of pattern {m.pairs} at {assignment}")
        group, row = held
        if group is None:
            return None
        plan = self._plans(group)[self.class_id]
        if nice is not None and nice is not plan.nice:
            raise InvariantError(f"the cell of pattern {m.pairs} at {assignment} runs another"
                                 " decomposition")
        at = p * group.cells.batch + row
        if group.gains is None or group.gains[at] == _UNRUN:
            self._fill(group, self.class_id, p)
        gain = group.gains[at]
        return None if gain in (_NONE, _OUT) else gain

    def _plans(self, group: _Group) -> tuple[Plan, ...]:
        """The group's class plans by class id, looked up at first use."""
        if group.plans is None:
            group.plans = _class_plans(self.k, group.obs)[0]
        return group.plans

    def _store(self, group: _Group, members, gains: array) -> None:
        """Stores `gains`, pattern-major, as the group's gains of `members`."""
        batch = group.cells.batch
        if group.gains is None:
            group.gains = array("q", [_UNRUN]) * (valid_pattern_count(self.k) * batch)
        for i, q in enumerate(members):
            group.gains[q * batch:(q + 1) * batch] = gains[i * batch:(i + 1) * batch]

    def _fill(self, group: _Group, c: int, p: int, bound: array | None = None) -> array:
        """Runs pattern p, a member of class c, over the group through the
        class's plan, with the rest of its class over more than one bucket,
        and stores and returns their gains. With `bound`, the class's bound
        run over the group (assignment-major, as gains), no gain may exceed
        the bound at its assignment: InvariantError if one does."""
        cls, batch = _class_table(self.k).classes[c], group.cells.batch
        one = group.cells.part.count == 1  # a run of pattern p alone
        start = cls.members.index(p) if one else 0
        stop = start + 1 if one else len(cls.members)
        gains = self._run(group, self._plans(group)[c], cls, start, stop)
        if bound is not None:
            exact = np.frombuffer(gains, np.int64).reshape(-1, batch)
            if (exact > np.frombuffer(bound, np.int64)).any():
                raise InvariantError(f"a gain of class {cls.edges} exceeds its bound")
        self._store(group, cls.members[start:stop], gains)
        return gains

    def rule_out(self, improving_only: bool) -> None:
        """Rules out, under policy="best" over more than one bucket, the
        (group, class) runs whose bound (_Cells.bound) lies strictly below a
        gain already found, or, with improving_only, is at most 0; a
        ruled-out cell reads no gain (module docstring, Bounds). Classes of
        one member run exactly; every larger class is bounded first in the
        group with the most assignments, its probe. Where the probes' best
        gain rules out half of them or more, the remaining runs are bounded
        too, so every run has run or been ruled out when this returns; else
        the other groups' runs of larger classes stay unrun, and the first
        request for one of their cells runs its run exactly, unbounded."""
        classes = _class_table(self.k).classes
        groups = list(self.groups.values())
        bar = 1 if improving_only else NEG_INF  # a run whose bound is below it cannot win
        large = []
        for c, cls in enumerate(classes):
            if len(cls.members) > 1:
                large.append(c)
                continue
            for group in groups:
                bar = max(bar, max(self._fill(group, c, cls.members[0])))
        probe = max(groups, key=lambda group: group.cells.batch)
        bar, out = self._walk([(probe, c) for c in large], bar)
        if 2 * out >= len(large):
            self._walk([(group, c) for group in groups if group is not probe for c in large], bar)

    def _walk(self, runs: list[tuple[_Group, int]], bar) -> tuple:
        """Bounds each (group, class id) run of `runs` and takes them best
        first: a run runs exactly while its bound reaches `bar`, the best
        gain so far, which it raises; the first that falls short, and every
        one after it, is ruled out. Returns the bar and how many were ruled
        out."""
        classes = _class_table(self.k).classes
        bounds = [self._run(group, self._plans(group)[c], _relaxation(classes[c]), 0, 1)
                  for group, c in runs]
        tops = [max(bound) for bound in bounds]
        order = sorted(range(len(runs)), key=lambda i: -tops[i])
        for n, i in enumerate(order):
            if tops[i] < bar:
                for group, c in (runs[j] for j in order[n:]):
                    members = classes[c].members
                    self._store(group, members,
                                array("q", [_OUT]) * (len(members) * group.cells.batch))
                return bar, len(order) - n
            group, c = runs[i]
            bar = max(bar, max(self._fill(group, c, classes[c].members[0], bounds[i])))
        return bar, 0

    def _run(self, group: _Group, plan: Plan, cls: _Class, start: int, stop: int) -> array:
        """Gains of the group's cells under members start..stop-1 of `cls`,
        through `plan`, the class's, pattern-major; under a class's
        relaxation, its bound run's root values. Chunks hold whole patterns,
        so that no table holds more than MAX_BATCH_ENTRIES entries; a
        pattern that does not fit alone is cut into chunks of assignments.
        The last chunk's cells and forget tables stay in self.last if it ran
        one pattern."""
        cells = group.cells
        count, batch = stop - start, cells.batch
        fit = max(1, MAX_BATCH_ENTRIES // cells.s**plan.width)  # rows of one chunk
        per, step = (fit // batch, batch) if fit >= batch else (1, fit)
        gains = array("q")
        for lo in range(start, stop, per):
            hi = min(stop, lo + per)
            for first in range(0, batch, step):
                self.last = None  # free the previous chunk's tables first
                rows = cells if step == batch else cells.rows(first, first + step)
                rows = rows.over(cls, lo, hi)
                root, forgets, _ = _run_plan(plan, rows)
                gains += _gains(root)
                if hi - lo == 1:
                    self.last = group, cls.members[lo], first, rows, forgets
        if len(gains) != count * batch:
            raise InvariantError(f"{len(gains)} gains from a run of {count} x {batch} cells")
        return gains

    def take(self, p: int, assignment) -> tuple | None:
        """(cells, forget tables, row, gain) of the cell of pattern index p
        if the latest chunk ran that pattern alone and held the cell, else
        None; the tables are dropped either way."""
        last, self.last = self.last, None
        group, row = self.where.get(assignment, (None, -1))
        if last is None or group is None:
            return None
        ran, index, first, cells, forgets = last
        if ran is not group or index != p or row < first:
            return None
        gain = group.gains[p * group.cells.batch + row]
        return cells, forgets, row - first, None if gain == _NONE else gain


def _run_alone(
    arrays: TourArrays, part: BucketPartition, plan: Plan, cls: _Class, p: int | None,
    assignment: tuple,
) -> tuple | None:
    """take's hand-over for one cell, from a run of member p of `cls` alone,
    through `plan`, the class's, over the cell's group of one; None if the
    assignment does not fit. A plan whose one cell needs a table of more
    than MAX_TABLE_BYTES raises ValueError before it runs."""
    runs = _GroupRuns(arrays, part, [assignment])
    group, _ = runs.where[assignment]
    if group is None:
        return None
    _check_table_bytes(group.cells.s, plan.whole_width, group.cells.dtype)
    i = cls.members.index(p)
    (gain,) = runs._run(group, plan, cls, i, i + 1)
    _, _, _, cells, forgets = runs.last
    return cells, forgets, 0, None if gain == _NONE else gain


def default_alpha(k: int) -> Fraction:
    """Per-k bucket exponents: the computed optima for k = 5..8, and a single
    bucket for k <= 4 where bucketing buys nothing at practical sizes."""
    # c_of_k(4).alpha is 2/3, with exponent 10/3, but c_of_k prices every
    # order edge as a table axis. The engine runs order edges by running
    # maxima, so at one bucket no k = 4 table holds more than 3 slots, and
    # alpha 1 costs n^3.
    table = {
        5: Fraction(2, 3),
        6: Fraction(3, 4),
        7: Fraction(3, 4),
        8: Fraction(2, 3),
    }
    return table.get(k, Fraction(1))


def _best_move(
    inst: Instance, tour: Tour, k: int, alpha, policy: str, *, improving_only: bool = False
) -> tuple[SolveResult, Tour]:
    """best_move's search plus the tour its move produces, verified by
    apply_move. With improving_only, a best gain that is not positive comes
    back at once, with no move and the tour unchanged."""
    if policy not in ("best", "first"):
        raise ValueError("policy must be 'best' or 'first'")
    if not 2 <= k <= MAX_SOLVER_K:
        raise ValueError("k must be >= 2" if k < 2 else f"k must be <= {MAX_SOLVER_K}")
    if inst.n < 2 * k:
        raise ValueError(f"instance too small: need n >= {2 * k}")
    alpha = default_alpha(k) if alpha is None else Fraction(alpha)
    part = make_buckets(inst.n, alpha)
    count = math.comb(part.count + k - 1, k)
    entries = count * k * part.size
    if entries > MAX_ASSIGNMENT_ENTRIES:
        sizes = part.size if part.n % part.count == 0 else f"{part.size - 1} or {part.size}"
        raise ValueError(f"{count:,} bucket assignments of {k} slots to {part.count}"
                         f" buckets of {sizes} edges hold {entries:,} slot positions;"
                         f" at most {MAX_ASSIGNMENT_ENTRIES:,} fit in memory")
    pattern_count = valid_pattern_count(k)
    if pattern_count * count > MAX_CELLS:
        raise ValueError(f"{pattern_count:,} valid patterns times {count:,} bucket assignments"
                         f" make {pattern_count * count:,} cells; at most {MAX_CELLS:,} are"
                         " searched")
    arrays = TourArrays(inst, tour)
    patterns, table = valid_patterns(k), _class_table(k)
    assignments = list(enumerate_assignments(k, part.count))
    obs_of = [order_edges(a) for a in assignments]
    runs = _GroupRuns(arrays, part, assignments)
    plans = {obs: _class_plans(k, obs) for obs in dict.fromkeys(obs_of)}
    _check_table_bytes(part.size, max((plans[obs][1] for obs in runs.groups), default=0),
                       arrays.dtype(k))
    plans_of = [plans[obs][0] for obs in obs_of]
    if policy == "best" and part.count > 1:
        runs.rule_out(improving_only)

    # canonical order: a later cell wins only with a strictly larger gain
    best: tuple[int, int, int] | None = None  # (gain, pattern idx, assignment idx)
    for p_idx, pattern in enumerate(patterns):
        c = table.class_of[p_idx]
        for a_idx, assignment in enumerate(assignments):
            # each call names its cell's decomposition, from which the
            # benchmark's tracer (perfbench/layers.py) sizes the cell's tables
            nice = plans_of[a_idx][c].nice
            gain = solve_fixed(inst, tour, pattern, assignment, part, nice, runs=runs).gain
            if gain is not None and (best is None or gain > best[0]):
                best = (gain, p_idx, a_idx)
                if policy == "first" and gain > 0:
                    break
        if policy == "first" and best is not None and best[0] > 0:
            break
    if best is None:
        raise InvariantError("some bucket assignment always admits an embedding")

    gain, p_idx, a_idx = best
    if improving_only and gain <= 0:
        return SolveResult(gain, None, None), tour
    m, assignment, c = patterns[p_idx], assignments[a_idx], table.class_of[p_idx]
    plan = plans_of[a_idx][c]
    res = _solve_cell(
        inst, tour, m, plan,
        runs.take(p_idx, assignment)
        or _run_alone(arrays, part, plan, table.classes[c], p_idx, assignment),
    )
    if res.gain != gain:
        raise InvariantError(f"winning cell re-solved to gain {res.gain}, not {gain}")
    return res, apply_move(inst, tour, m, res.embedding)


def best_move(
    inst: Instance,
    tour: Tour,
    k: int,
    alpha=None,
    policy: str = "best",
) -> SolveResult:
    """Best k-move over all valid patterns and all bucket assignments.

    Every cell goes through solve_fixed in canonical (pattern, assignment)
    order, but the DP runs per plan group, the fitting assignments that
    share an order-edge set, chunked by MAX_BATCH_ENTRIES, and every
    pattern of a class runs that class's one plan with its own pair sides.
    Over more than one bucket the first cell of a group and class runs every
    pattern of the class over the whole group in one batch; at one bucket it
    runs its own pattern alone. policy="best" returns the maximum-gain move
    (ties broken by pattern index, then assignment index, then the solver's
    canonical embedding); over more than one bucket it first bounds the
    (group, class) runs and runs exactly only those whose bound reaches the
    best gain found so far, and the cells of the runs it ruled out read no
    gain (module docstring, Bounds). "first" returns the first improving
    cell in that same order, and (group, class) pairs not reached by then
    never run. The
    returned cell's embedding is rebuilt from the forget tables of the last
    chunk when that chunk ran the cell's pattern alone and held the cell, as
    an improving cell under policy="first" with one bucket always does, else
    from one more run of its pattern alone over its group of one. Its KMove
    is built once, and its gain must equal the cell's; apply_move then
    builds the new tour once and checks its weight. A request of more than
    MAX_CELLS cells, whose assignments hold more than MAX_ASSIGNMENT_ENTRIES
    slot positions, or one of whose plans needs a table of more than
    MAX_TABLE_BYTES for one cell raises ValueError before any plan runs.
    """
    return _best_move(inst, tour, k, alpha, policy)[0]


@dataclass(frozen=True)
class SearchStep:
    step: int
    gain: int
    tour_weight: int


def local_search(
    inst: Instance,
    tour: Tour,
    k: int,
    alpha=None,
    policy: str = "best",
    max_steps: int | None = None,
) -> tuple[Tour, tuple[SearchStep, ...]]:
    """Repeatedly apply improving k-moves until none exists (or max_steps,
    which must not be negative).

    The weight strictly decreases every step; with integer weights this
    terminates. History records each applied move's gain and the running
    weight.
    """
    if max_steps is not None and max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, not {max_steps}")
    history: list[SearchStep] = []
    current = tour
    weight = tour_weight(inst, current)
    step = 0
    while max_steps is None or step < max_steps:
        res, new = _best_move(inst, current, k, alpha, policy, improving_only=True)
        if not res.improving:
            break
        # apply_move has checked the new weight, and res.improving its decrease
        current, weight = new, weight - res.gain
        step += 1
        history.append(SearchStep(step=step, gain=res.gain, tour_weight=weight))
    return current, tuple(history)
