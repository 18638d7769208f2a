"""Maximum-gain k-move search: compiled DP plans over nice tree decompositions.

For a fixed connection pattern and bucket assignment (a *cell*) the solver
finds a bucket-monotone embedding of maximum gain by dynamic programming over
a nice tree decomposition of the dependence graph (order edges plus
interference edges). That DP depends only on the pattern and the
assignment's order-edge set, not on which buckets the cell uses, so many
cells share it.

- **Plans.** `compile_plan(pattern, order_edges)` turns one such DP into a
  flat list of leaf, introduce, forget and join ops with precomputed table
  axes, run as a stack machine. The nice decomposition lists its nodes in
  the order they run, and op i runs node i. Each introduce op carries, per
  bag neighbour of the introduced slot, the pattern pairs, self-loop mask
  and order edge between the two slots; each join op carries its correction
  terms. Plans are cached and do not depend on the tour; equal ops are one
  shared object, so a cached plan costs little more than its op list.
- **Batch axis.** Every plan runs through `_GroupRuns`, over a group of
  fitting assignments that share an order-edge set. `best_move` still visits
  every cell through `solve_fixed`: the first cell of a (pattern, group)
  asked for runs the pattern's plan once over the whole group, and the
  group's other cells read their root values from that run. A standalone
  `solve_fixed` call, and a winner that the latest run did not hold, run as
  a group of one, so chunks, shared blocks and the memory bound below hold
  for every run. Every table has shape `(B, s, ..., s)`: axis 0 runs over
  the group's assignments, and each bag slot has one axis over
  `s = part.size` positions, the largest bucket's size: position j of a
  slot in bucket b is the tour edge j after b's first.
- **Order edges by running maxima.** Where the decomposition forgets slot v
  into slot w (decomp: their order edge is v's only tie to w), the
  forget-into op takes the table over v and the rest, which holds all of v's
  other terms, and turns v's axis into w's: at w's position j it holds the
  maximum over v's positions i < j (i > j when w < v), -inf at j = 0, by
  np.maximum.accumulate and a shift of one position. This is exact: the
  order term is 0 or -inf, no other term holds both v and w, and both slots
  lie in one bucket, where positions compare as the tour edges do, so
  max over i of T(i, rest) + [i < j] is max over i < j of T(i, rest). Then
  w's terms are added as an introduce op adds them. The step builds no table
  over v and w together, so a k = 4 or 5 plan at one bucket holds at most 3
  slots in a table where it held 4, and it adds no terms, so the dtype bound
  below holds.
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
  applied to the stored array as a view), so all of the group's pattern runs
  gather each block once. Stored arrays are read-only, which checks that no
  op writes into a block: introduce ops sum into fresh buffers and joins add
  blocks into their tables. One budget of `MAX_BATCH_ENTRIES` entries serves
  every group of one best_move call; past it, and in chunked runs, a block
  is computed as before. At one bucket there is no memo: the one cell's
  blocks hold s^2 entries beside tables of s^3, so sharing saves no work,
  and keeping them made a warm k = 3, n = 100 call slower (11-14 ms, not
  8-9 ms) by where the heap put them: with glibc's mmap threshold pinned,
  both took the same time.
- **Sliced pairs.** An introduce op whose parent is a forget op never builds
  its table whole when it holds more than `MAX_SLICE_ENTRIES` entries. It is
  summed in pieces along the axis the forget removes, each piece into one
  reused buffer, and each piece's maximum is folded into the forget's output.
  A table that fits runs the same code as one piece. An introduce op under a
  forget-into op is not sliced: its table is built whole.
- **Chunks.** The batch axis is cut into chunks so that no table holds more
  than `MAX_BATCH_ENTRIES` entries, or one cell's table when that is larger.
  A plan whose one cell needs a table of more than `MAX_TABLE_BYTES`, counted
  from the widest table it builds whole, is refused before it runs.
- **Check once.** Root values give every cell's gain. Each run keeps the
  tables its forget ops output, and a group run holds on to its last chunk's
  cells and forget tables until the next run starts. A forget-into op's kept
  table has its full bag width, one slot more than a forget op's output over
  the same input. The winning cell's embedding is rebuilt top-down from
  those tables, at the cell's row: at each forget op, the child's table is
  summed again along the forgotten slot only, from the kept forget tables
  below it and the lines of the blocks in between, and the slot takes its
  first maximum: at a forget-into op, its first maximum among the positions
  before w's chosen one (after it, when w < v), the one that gave w's entry
  its value. When the winner lies in that last chunk nothing runs again;
  otherwise its group of one runs once. Its embedding is turned into a
  `KMove` once, whose gain must equal the root value, and applied once
  through `apply_move`, which builds the new tour from the move's k segments
  and checks its weight.

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

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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
    to_nice,
    treewidth_exact,
    validate_decomposition,
)
from .instance import Instance, Tour, tour_weight
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
# float32 holds every integer of magnitude up to 2^24, and no larger range
FLOAT32_EXACT = 1 << 24
# Most slot positions best_move lists: bucket assignments times k times the
# largest bucket's size s. Each assignment's cells hold k * s entries in each
# of six arrays, built for every group before any runs. Requests just under it
# peaked at 0.66 GB RSS (k = 2..7 at s = 1, k = 2..8 at s = 10).
MAX_ASSIGNMENT_ENTRIES = 2_000_000
# Most cells, valid patterns times bucket assignments, that best_move visits.
# Each passes through solve_fixed, about 5 us when it needs no run (k = 5,
# alpha 0, n = 10: 768,768 cells in 3.6 s), so a call at the bound spends
# 40 s on that alone.
MAX_CELLS = 1 << 23
# Largest table one cell's plan builds whole, in bytes: 2^26 float32 or 2^25
# float64 entries. A k = 4 plan keeps two such tables at once (a forget-into
# op's input and output), and at alpha 1 peaked at 534 MB RSS for n = 400
# (400^3 float32 entries) and 551 MB for n = 320 in float64.
MAX_TABLE_BYTES = 1 << 28


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
#   attribute) per one-slot term; pairs: (side of slots[0], side of slots[1])
#   per pattern pair, looked up in the _Cells weight matrix `matrix` ("neg_w"
#   or "wf");
#   order: the order edge slots[0] < slots[1] holds; index: places the
#   block's (batch, slot positions...) array on the op's table axes.
# Slots are 1-based in the op constructors' arguments and 0-based in ops.

# Entries in each cache of compiled plans and ops. One k=6 call compiles at
# most valid_pattern_count(6) * 2**5 = 122,880 plans (2**5 order-edge sets),
# so a second call finds them all; a k=7 call compiles more than it holds.
COMPILE_CACHE_SIZE = 1 << 17


@dataclass(frozen=True, slots=True)
class Plan:
    """The DP of one (pattern, order-edge set) as a flat op list, compiled
    from the nice decomposition `nice`: op i runs node i, so
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


def _pattern_pairs_info(m: ConnectionPattern) -> tuple[tuple[int, bool, int, bool], ...]:
    """(slot_a, right_a, slot_b, right_b) per matching pair."""
    return tuple(
        (
            slot_of_endpoint(a),
            endpoint_is_right(a),
            slot_of_endpoint(b),
            endpoint_is_right(b),
        )
        for a, b in m.pairs
    )


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
    nice = to_nice(decomposition_from_order(dep, order, order_only))
    ok, diags = validate_decomposition(dep, nice)
    if not ok:
        raise InvariantError(f"invalid decomposition produced: {diags}")
    _DECOMP_CACHE[key] = nice
    return nice


def _block(bag: tuple[int, ...], slots, unary, pairs, matrix: str, order: bool) -> tuple:
    index = (slice(None),) + tuple(slice(None) if b in slots else None for b in bag)
    return tuple(s - 1 for s in slots), tuple(unary), tuple(pairs), matrix, order, index


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def _introduce_op(
    bag: tuple[int, ...], i: int, touching, self_paired: bool, ordered
) -> tuple:
    """Slot i joins `bag`: its removed edge, the added edges `touching` it
    realizes with bag slots ((slot, side of i, side of slot) each), their
    loops, and its order edges with the `ordered` bag slots."""
    realized = len(touching) + self_paired
    if realized > 2:
        raise InvariantError(f"slot {i} realizes {realized} added edges; at most two exist")
    per_nb: dict[int, list[tuple[bool, bool]]] = {}
    for nb, ri, rnb in touching:
        # sides in slot order, which is table-axis order
        per_nb.setdefault(nb, []).append((ri, rnb) if i < nb else (rnb, ri))
    unary_src = "pad" if self_paired else "gain_in"
    blocks = []
    for nb in sorted(set(per_nb) | set(ordered)):
        unary = [] if blocks else [(0 if i < nb else 1, unary_src)]
        blocks.append(
            _block(bag, sorted((i, nb)), unary, per_nb.get(nb, ()), "neg_w", nb in ordered)
        )
    if not blocks:
        blocks.append(_block(bag, (i,), [(0, unary_src)], (), "neg_w", False))
    place = (slice(None),) + tuple(None if b == i else slice(None) for b in bag)
    return INTRODUCE, len(bag), place, tuple(blocks)


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def _forget_op(child_bag: tuple[int, ...], v: int) -> tuple:
    bag = tuple(b - 1 for b in child_bag if b != v)
    return FORGET, 1 + child_bag.index(v), v - 1, bag


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def _forget_into_op(child_bag: tuple[int, ...], v: int, w: int, touching, self_paired: bool,
                    ordered) -> tuple:
    """Slot v leaves `child_bag` through its order edge with w, whose axis
    its own becomes, and w joins the bag as _introduce_op has it join."""
    bag = tuple(sorted(set(child_bag) - {v} | {w}))
    blocks = _introduce_op(bag, w, touching, self_paired, ordered)[3]
    return FORGET_INTO, 1 + child_bag.index(v), v - 1, tuple(b - 1 for b in bag), w - 1, blocks


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def _join_op(bag: tuple[int, ...], inside, unpaired) -> tuple:
    """Take the bag's gain, counted in both children, out once: the removed
    edges of the `unpaired` slots (a re-added edge cancels its own) and the
    added edges `inside` the bag ((lo, side, hi, side) each)."""
    per_pair: dict[tuple[int, int], list[tuple[bool, bool]]] = {}
    for lo, rlo, hi, rhi in inside:
        per_pair.setdefault((lo, hi), []).append((rlo, rhi))
    pending = list(unpaired)
    blocks = []
    for (lo, hi), pairs in sorted(per_pair.items()):
        unary = [(dim, "neg_rem") for dim, s in enumerate((lo, hi)) if s in pending]
        pending = [s for s in pending if s not in (lo, hi)]
        blocks.append(_block(bag, (lo, hi), unary, pairs, "wf", False))
    for s in pending:
        blocks.append(_block(bag, (s,), [(0, "neg_rem")], (), "wf", False))
    return JOIN, tuple(blocks)


_LEAF_OP = (LEAF,)
# the ops whose output tables _run_plan keeps for _reconstruct
_FORGETS = (FORGET, FORGET_INTO)


def _compile(
    m: ConnectionPattern, obs: frozenset[tuple[int, int]], nice: NiceTreeDecomposition
) -> Plan:
    """The plan of pattern m and order-edge set obs over `nice`, which its
    callers have validated as a decomposition of their dependence graph."""
    pairs_info = _pattern_pairs_info(m)
    self_paired = {sa for sa, _, sb, _ in pairs_info if sa == sb}
    # each added edge between two slots, from both ends, and in slot order
    from_slot: dict[int, list[tuple[int, bool, bool]]] = {}
    ordered_pairs = []
    for sa, ra, sb, rb in pairs_info:
        if sa != sb:
            from_slot.setdefault(sa, []).append((sb, ra, rb))
            from_slot.setdefault(sb, []).append((sa, rb, ra))
            ordered_pairs.append((sa, ra, sb, rb) if sa < sb else (sb, rb, sa, ra))
    nodes = nice.nodes

    def introduced(i: int, bag: tuple[int, ...]) -> tuple:
        """_introduce_op's terms of slot i joining `bag`."""
        touching = tuple(sorted(p for p in from_slot.get(i, ()) if p[0] in bag))
        ordered = tuple(j for j in (i - 1, i + 1) if j in bag and (min(i, j), max(i, j)) in obs)
        return touching, i in self_paired, ordered

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
            if (min(v, w), max(v, w)) not in obs or any(p[0] == w for p in from_slot.get(v, ())):
                raise InvariantError(f"slots {v} and {w} must be joined by an order edge alone"
                                     " to forget one into the other")
            child_bag = tuple(sorted(nodes[nd.children[0]].bag))
            ops.append(_forget_into_op(child_bag, v, w, *introduced(w, bag)))
        else:  # JOIN
            inside = tuple(sorted(p for p in ordered_pairs if p[0] in bag and p[2] in bag))
            unpaired = tuple(s for s in bag if s not in self_paired)
            ops.append(_join_op(bag, inside, unpaired))
    whole_width = max(
        len(op[3]) if op[0] in _FORGETS else op[1] if op[0] == INTRODUCE and up[0] != FORGET else 0
        for op, up in zip(ops, ops[1:] + [_LEAF_OP])
    )
    return Plan(m.k, tuple(ops), nice.width + 1, nice, whole_width)


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def compile_plan(m: ConnectionPattern, obs: frozenset[tuple[int, int]]) -> Plan:
    """The DP plan of every cell with pattern m and order-edge set obs, over
    the cached width-optimal nice decomposition of its dependence graph."""
    ig = interference_graph(m)
    dep = dependence_graph(ig, obs)
    return _compile(m, obs, nice_decomposition_for(dep, obs - ig.edges))


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
    keyed by the block's terms, while the budget lasts; else `memo` is None."""

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

    @property
    def batch(self) -> int:
        return len(self.assignments)

    def rows(self, lo: int, hi: int) -> _Cells:
        return _Cells(self.arrays, self.part, self.assignments[lo:hi])


def _block_value(block: tuple, cells: _Cells) -> np.ndarray:
    """The block's terms summed over the batch, placed on the op's table axes.
    A two-slot block's value is looked up in, or stored read-only into, the
    cells' memo when they have one."""
    slots, unary, pairs, matrix, order, index = block
    if len(slots) == 1:
        return getattr(cells, unary[0][1])[:, slots[0]][index]
    memo = cells.memo
    if memo is None:
        return _pair_value(block, cells)[index]
    key = block[:5]
    value = memo.get(key)
    if value is None:
        value = _pair_value(block, cells)
        if value.size <= cells.budget.left:
            cells.budget.left -= value.size
            value.flags.writeable = False
            memo[key] = value
    return value[index]


def _pair_value(block: tuple, cells: _Cells) -> np.ndarray:
    """A two-slot block's terms summed over the batch: (B, s, s), or
    (1, s, s) for an order edge alone."""
    slots, unary, pairs, matrix, order, _ = block
    a, b = slots
    mat = getattr(cells, matrix)
    value = _order_mask(cells.s, cells.dtype) if order else None
    for ra, rb in pairs:
        w = mat[cells.side[ra][:, a, :, None], cells.side[rb][:, b, None, :]]
        value = w if value is None else value + w
    for dim, src in unary:
        u = getattr(cells, src)[:, slots[dim]]
        u = u[:, :, None] if dim == 0 else u[:, None, :]
        value = u if value is None else value + u
    return value


def _block_line(block: tuple, cells: _Cells, row: int, pos: dict[int, int], v: int | None):
    """The block's terms for batch row `row` at the positions `pos`: a vector
    over slot v's positions if the block holds v, else a scalar."""
    slots, unary, pairs, matrix, order, _ = block
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
    np.add(terms[0], terms[1], out=out)
    for t in terms[2:]:
        out += t
    return out


def _introduce_forget(
    op: tuple, axis: int, child: np.ndarray, cells: _Cells, kept: list | None
) -> np.ndarray:
    """The forget op's output: the table of introduce op `op` maximized over
    table axis `axis`. The table is summed in pieces along that axis, each of
    at most MAX_SLICE_ENTRIES entries (or one position, if that holds more),
    into one buffer, and each piece's maximum is folded into the output. With
    `kept` the table is one piece, appended to `kept`."""
    s, ndim = cells.s, op[1]
    slab = cells.batch * s ** (ndim - 1)  # entries at one position of the axis
    width = s if kept is not None else min(s, max(1, MAX_SLICE_ENTRIES // slab))
    shape = [cells.batch] + [s] * ndim
    shape[axis] = width
    buf = np.empty(shape, cells.dtype)
    out = None
    for lo in range(0, s, width):
        piece = buf if lo + width <= s else buf[_along(axis, 0, s - lo)]
        _introduce(op, child, cells, piece, axis, lo)
        if kept is not None:
            kept.append(piece)
        best = piece.max(axis=axis)
        if out is None:
            out = best
        else:
            np.maximum(out, best, out=out)
    return out


def _forget_into(op: tuple, child: np.ndarray, cells: _Cells) -> np.ndarray:
    """Slot v's axis of the child table becomes slot w's: at each position
    of w, the maximum over v's positions before it (after it, when w < v),
    -inf if there are none. Then w's terms are added, as an introduce op
    adds them."""
    _, axis, v, _, w, blocks = op
    out = np.empty_like(child)
    if w < v:  # a suffix maximum is a prefix maximum along the reversed axis
        flip = (slice(None),) * axis + (slice(None, None, -1),)
        child, rev = child[flip], out[flip]
    else:
        rev = out
    rev[_along(axis, 0, 1)] = NEG_INF
    np.maximum.accumulate(child[_along(axis, 0, cells.s - 1)], axis=axis,
                          out=rev[_along(axis, 1, cells.s)])
    for block in blocks:
        out += _block_value(block, cells)
    return out


def _run_plan(
    plan: Plan, cells: _Cells, *, keep_tables: bool = False
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """The root values over the batch, the forget ops' output tables, from
    which _reconstruct rebuilds an embedding, and every op's table (if
    keep_tables, which tests use to compare every node's table), both in op
    order. A join adds into its first child's table unless that table is
    kept. An introduce op below a forget op runs with it, through
    _introduce_forget."""
    B, s, ops, dtype, nodes = cells.batch, cells.s, plan.ops, cells.dtype, plan.nice.nodes
    stack: list[np.ndarray] = []
    forgets: list[np.ndarray] = []
    kept: list[np.ndarray] = []
    for i, op in enumerate(ops):
        kind = op[0]
        if kind == INTRODUCE:
            if i + 1 < len(ops) and ops[i + 1][0] == FORGET:
                continue  # the forget op runs it
            table = _introduce(op, stack.pop(), cells, np.empty((B,) + (s,) * op[1], dtype))
        elif kind == FORGET:
            axis = op[1]
            if ops[i - 1][0] == INTRODUCE:
                table = _introduce_forget(
                    ops[i - 1], axis, stack.pop(), cells, kept if keep_tables else None
                )
            else:
                table = stack.pop().max(axis=axis)
            forgets.append(table)
        elif kind == FORGET_INTO:
            table = _forget_into(op, stack.pop(), cells)
            forgets.append(table)
        elif kind == JOIN:
            other, table = stack.pop(), stack.pop()
            if keep_tables or ops[nodes[i].children[0]][0] in _FORGETS:
                table = table + other
            else:
                table += other
            del other
            for block in op[1]:
                table += _block_value(block, cells)
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
    plan is compiled: the compiled plan run on the cell as a group of one.
    The embedding is rebuilt from that run's forget tables and re-verified
    against the direct gain computation.

    With `runs` (best_move's batched runs over this tour and partition) the
    gain is the cell's root value in the batched run of its plan group, and
    the result carries no embedding or move.
    """
    k = m.k
    assignment = tuple(map(operator.index, assignment))  # hashable: _GroupRuns.row's key
    if len(assignment) != k:
        raise ValueError("assignment length must equal k")
    if list(assignment) != sorted(assignment):
        raise ValueError(f"assignment {assignment} is not nondecreasing")
    if part.n != tour.n:
        raise ValueError("bucket partition does not match the tour size")
    obs = order_edges(assignment)
    plan = compile_plan(m, obs)
    if nice is not None and nice is not plan.nice:
        if nice.k != k:
            raise ValueError("decomposition is for a different k")
        ok, diags = validate_decomposition(dependence_graph(interference_graph(m), obs), nice)
        if not ok:
            raise ValueError(f"invalid decomposition: {'; '.join(diags)}")
        plan = _compile(m, obs, nice)

    if runs is not None:
        value = runs.root_value(m, obs, plan, assignment)
        return SolveResult(None if value == NEG_INF else int(round(value)), None, None)
    return _solve_cell(
        inst, tour, m, plan, _run_alone(TourArrays(inst, tour), part, m, obs, plan, assignment)
    )


def _solve_cell(
    inst: Instance, tour: Tour, m: ConnectionPattern, plan: Plan, kept: tuple | None
) -> SolveResult:
    """The move of the cell that `kept` (take's hand-over: the run's cells
    and forget tables, the cell's row in them and its root value) holds, or
    no move when `kept` is None (the assignment does not fit) or the root
    value is -inf. The embedding is made into a KMove, whose gain must equal
    the root value."""
    if kept is None or kept[3] == NEG_INF:
        return SolveResult(None, None, None)
    cells, forgets, row, root_val = kept
    gain = int(round(root_val))
    embedding = _reconstruct(plan, cells, forgets, row)
    move = as_kmove(inst, tour, m, embedding)
    if move.gain != gain:
        raise InvariantError(f"reconstructed embedding gain {move.gain} != table gain {gain}")
    return SolveResult(gain, embedding, move)


class _GroupRuns:
    """Root values of the cells over one tour and partition, computed one
    plan group at a time: the first request for a cell runs every fitting
    assignment that shares its pattern and order-edge set in one batch, in
    chunks of the batch axis. An assignment that does not fit has root value
    -inf. The cells and forget tables of the latest chunk run are kept,
    tagged with its pattern, order-edge set and first row, until the next
    run starts.

    Over more than one bucket each group's cells memoize their two-slot
    blocks for every pattern's unchunked run, within one budget of
    MAX_BATCH_ENTRIES entries for all groups."""

    def __init__(self, arrays: TourArrays, part: BucketPartition, assignments):
        groups: dict[frozenset[tuple[int, int]], list[tuple[int, ...]]] = {}
        for assignment in assignments:
            if _fits(assignment, part):
                groups.setdefault(order_edges(assignment), []).append(assignment)
        budget = _Budget(MAX_BATCH_ENTRIES) if part.count > 1 else None
        self.cells = {obs: _Cells(arrays, part, group, budget) for obs, group in groups.items()}
        self.row = {a: i for group in groups.values() for i, a in enumerate(group)}
        self.pattern: ConnectionPattern | None = None
        self.values: dict[frozenset[tuple[int, int]], list[float]] = {}  # of self.pattern
        self.last: tuple | None = None  # (pattern, obs, first row, cells, forget tables)

    def root_value(self, m: ConnectionPattern, obs, plan: Plan, assignment) -> float:
        row = self.row.get(assignment)
        if row is None:
            return NEG_INF
        if m is not self.pattern:
            self.pattern, self.values = m, {}
        values = self.values.get(obs)
        if values is None:
            values = self.values[obs] = self._run(m, obs, plan)
        return values[row]

    def _run(self, m: ConnectionPattern, obs, plan: Plan) -> list[float]:
        """Root values of the group's cells; the last chunk's cells and
        forget tables stay in self.last. A plan whose one cell needs a table
        of more than MAX_TABLE_BYTES raises ValueError before it runs."""
        cells = self.cells[obs]
        entries = cells.s**plan.whole_width
        size = entries * np.dtype(cells.dtype).itemsize
        if size > MAX_TABLE_BYTES:
            raise ValueError(f"one cell's DP table holds {cells.s}^{plan.whole_width} ="
                             f" {entries:,} entries, {size:,} bytes; at most"
                             f" {MAX_TABLE_BYTES:,} fit in memory (a smaller alpha makes"
                             " smaller buckets)")
        chunk = max(1, MAX_BATCH_ENTRIES // cells.s**plan.width)
        values: list[float] = []
        for lo in range(0, cells.batch, chunk):
            self.last = None  # free the previous run's tables first
            rows = cells if chunk >= cells.batch else cells.rows(lo, lo + chunk)
            root, forgets, _ = _run_plan(plan, rows)
            values += root.tolist()
            self.last = m, obs, lo, rows, forgets
        return values

    def take(self, m: ConnectionPattern, obs, assignment) -> tuple | None:
        """(cells, forget tables, row, root value) of the cell if the latest
        run held it, else None; the tables are dropped either way."""
        last, self.last = self.last, None
        row = self.row.get(assignment)
        if last is None or row is None:
            return None
        pattern, last_obs, lo, cells, forgets = last
        if pattern is not m or last_obs != obs or row < lo:
            return None
        return cells, forgets, row - lo, self.values[obs][row]


def _run_alone(
    arrays: TourArrays, part: BucketPartition, m: ConnectionPattern, obs, plan: Plan, assignment
) -> tuple | None:
    """take's hand-over for one cell, from a run of its group of one; None
    if the assignment does not fit."""
    runs = _GroupRuns(arrays, part, [assignment])
    runs.root_value(m, obs, plan, assignment)
    return runs.take(m, obs, assignment)


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
    if k > MAX_SOLVER_K:
        raise ValueError(f"k must be <= {MAX_SOLVER_K}")
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
    patterns = valid_patterns(k)
    assignments = list(enumerate_assignments(k, part.count))
    obs_of = [order_edges(a) for a in assignments]
    runs = _GroupRuns(arrays, part, assignments)

    # canonical order: a later cell wins only with a strictly larger gain
    best: tuple[int, int, int] | None = None  # (gain, pattern idx, assignment idx)
    for p_idx, pattern in enumerate(patterns):
        for a_idx, assignment in enumerate(assignments):
            # each call names its cell's decomposition, from which the
            # benchmark's tracer (perfbench/layers.py) sizes the cell's tables
            nice = compile_plan(pattern, obs_of[a_idx]).nice
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
    m, assignment, obs = patterns[p_idx], assignments[a_idx], obs_of[a_idx]
    plan = compile_plan(m, obs)
    res = _solve_cell(
        inst, tour, m, plan,
        runs.take(m, obs, assignment) or _run_alone(arrays, part, m, obs, plan, assignment),
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
    order, but the DP runs per plan group: the first cell of a group of
    fitting assignments that share an order-edge set runs the pattern's
    compiled plan over the whole group in one batch, chunked by
    MAX_BATCH_ENTRIES. policy="best" returns the maximum-gain move (ties
    broken by pattern index, then assignment index, then the solver's
    canonical embedding); "first" returns the first improving cell in that
    same order, and groups not reached by then never run. The returned
    cell's embedding is rebuilt from the forget tables of the last chunk run
    when the cell lies in it, as an improving cell under policy="first" with
    one bucket always does, else from one more run of that cell as a group
    of one. Its KMove is built once, and its gain must equal the cell's;
    apply_move then builds the new tour once and checks its weight. A
    request of more than MAX_CELLS cells, or whose assignments hold more
    than MAX_ASSIGNMENT_ENTRIES slot positions, raises ValueError before any
    plan runs, and so does a plan whose one cell needs a table of more than
    MAX_TABLE_BYTES, before that plan runs.
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
