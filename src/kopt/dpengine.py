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
- **Batch axis.** `best_move` still visits every cell through `solve_fixed`,
  but groups the feasible assignments by order-edge set: the first cell of a
  (pattern, group) asked for runs the pattern's plan once over the whole
  group, and the group's other cells read their root values from that run.
  Every table has shape `(B, s, ..., s)`: axis 0 runs over the group's
  assignments, and each bag slot has one axis over the `s = part.size`
  positions of its bucket.
- **Padding.** The short last bucket is padded to `s` positions whose
  entries are -inf, as are loops and order violations.
- **In place.** All terms between the introduced slot and one bag neighbour
  are folded into one `(B, s, s)` block that is added to the table in place;
  a join adds into its first child's table in place, unless that table is a
  kept forget output.
- **Sliced pairs.** An introduce op whose parent is a forget op never builds
  its table whole when it holds more than `MAX_SLICE_ENTRIES` entries. It is
  summed in pieces along the axis the forget removes, each piece into one
  reused buffer, and each piece's maximum is folded into the forget's output.
  A table that fits runs the same code as one piece.
- **Chunks.** The batch axis is cut into chunks so that no table holds more
  than `MAX_BATCH_ENTRIES` entries, or one cell's table when that is larger.
- **Check once.** Root values give every cell's gain. Each run keeps the
  tables its forget ops output, and a group run holds on to its last chunk's
  until the next run starts. The winning cell's embedding is rebuilt top-down
  from those tables: at each forget op, the child's table is summed again
  along the forgotten slot only, from the kept forget tables below it and the
  lines of the blocks in between, and the slot takes its first maximum. When
  the winner lies in that last chunk nothing runs again; otherwise it is run
  once alone. Its embedding is turned into a `KMove` once, whose gain must
  equal the root value, and applied once through `apply_move`, which builds
  the new tour from the move's k segments and checks its weight.

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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .buckets import BucketPartition, enumerate_assignments, make_buckets, order_edges
from .decomp import (
    FORGET,
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
# bucket size s. Each assignment's cells hold k * s entries in each of six
# arrays, built for every group before any runs. Requests just under it
# peaked at 0.66 GB RSS (k = 2..7 at s = 1, k = 2..8 at s = 10).
MAX_ASSIGNMENT_ENTRIES = 2_000_000


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
    order. `width` is the largest bag size, so one cell's largest table has
    s**width entries."""

    k: int
    ops: tuple[tuple, ...]
    width: int
    nice: NiceTreeDecomposition


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


_DECOMP_CACHE: dict[tuple[int, frozenset[tuple[int, int]]], NiceTreeDecomposition] = {}


def nice_decomposition_for(dep: DepGraph) -> NiceTreeDecomposition:
    """Width-optimal nice decomposition of the dependence graph, cached by edge
    set and validated once on construction."""
    key = (dep.k, dep.edges)
    cached = _DECOMP_CACHE.get(key)
    if cached is not None:
        return cached
    _, order = treewidth_exact(dep)
    nice = to_nice(decomposition_from_order(dep, order))
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
    ops: list[tuple] = []
    for nd in nodes:
        bag = tuple(sorted(nd.bag))
        if nd.kind == LEAF:
            ops.append(_LEAF_OP)
        elif nd.kind == INTRODUCE:
            i = nd.vertex
            touching = tuple(sorted(p for p in from_slot.get(i, ()) if p[0] in bag))
            ordered = tuple(
                j for j in (i - 1, i + 1) if j in bag and (min(i, j), max(i, j)) in obs
            )
            ops.append(_introduce_op(bag, i, touching, i in self_paired, ordered))
        elif nd.kind == FORGET:
            ops.append(_forget_op(tuple(sorted(nodes[nd.children[0]].bag)), nd.vertex))
        else:  # JOIN
            inside = tuple(sorted(p for p in ordered_pairs if p[0] in bag and p[2] in bag))
            unpaired = tuple(s for s in bag if s not in self_paired)
            ops.append(_join_op(bag, inside, unpaired))
    return Plan(m.k, tuple(ops), nice.width + 1, nice)


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def compile_plan(m: ConnectionPattern, obs: frozenset[tuple[int, int]]) -> Plan:
    """The DP plan of every cell with pattern m and order-edge set obs, over
    the cached width-optimal nice decomposition of its dependence graph."""
    dep = dependence_graph(interference_graph(m), obs)
    return _compile(m, obs, nice_decomposition_for(dep))


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


class _Cells:
    """Bucket assignments gathered over one tour: axis 0 is the batch, axis 1
    the slot, axis 2 the position inside the slot's bucket, padded to s. Every
    array is in the dtype of the assignments' k (TourArrays.dtype)."""

    def __init__(self, arrays: TourArrays, part: BucketPartition, assignments):
        self.arrays, self.part = arrays, part
        self.assignments = np.asarray(assignments, dtype=np.int64)
        self.dtype = arrays.dtype(self.assignments.shape[1])
        self.wf, self.neg_w, removed_w = arrays.matrices(self.dtype)
        s = part.size
        dom = (self.assignments[:, :, None] - 1) * s + np.arange(s)
        valid = dom < arrays.n
        dom = np.minimum(dom, arrays.n - 1)
        rem = removed_w[dom]
        self.s = s
        self.dom = dom
        self.side = (arrays.left_vertex[dom], arrays.right_vertex[dom])
        self.pad = np.where(valid, self.dtype(0), self.dtype(NEG_INF))
        self.gain_in = rem + self.pad
        self.neg_rem = -rem

    @property
    def batch(self) -> int:
        return len(self.assignments)

    def rows(self, lo: int, hi: int) -> _Cells:
        return _Cells(self.arrays, self.part, self.assignments[lo:hi])


def _block_value(block: tuple, cells: _Cells) -> np.ndarray:
    """The block's terms summed over the batch, placed on the op's table axes."""
    slots, unary, pairs, matrix, order, index = block
    if len(slots) == 1:
        return getattr(cells, unary[0][1])[:, slots[0]][index]
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
    return value[index]


def _block_line(block: tuple, cells: _Cells, pos: dict[int, int], v: int | None):
    """The block's terms for batch row 0 at the positions `pos`: a vector
    over slot v's positions if the block holds v, else a scalar."""
    slots, unary, pairs, matrix, order, _ = block
    at = [slice(None) if b == v else pos[b] for b in slots]
    value = _order_mask(cells.s, cells.dtype)[(0, *at)] if order else 0
    mat = getattr(cells, matrix)
    for ra, rb in pairs:
        ends = cells.side[ra][0, slots[0], at[0]], cells.side[rb][0, slots[1], at[1]]
        value = value + mat[ends]
    for dim, src in unary:
        value = value + getattr(cells, src)[0, slots[dim], at[dim]]
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
        elif kind == JOIN:
            other, table = stack.pop(), stack.pop()
            if keep_tables or ops[nodes[i].children[0]][0] == FORGET:
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
    """The embedding of batch row `row` of the run that kept the forget
    tables `forgets`; `cells` holds that row's assignment alone. Top-down,
    each forget op's child table is rebuilt along the forgotten slot only, at
    the positions already chosen: the kept forget tables below it plus the
    lines of the blocks of the introduce and join ops in between, each op
    visited once. The slot takes the vector's first maximum, argmax's tie
    rule."""
    ops, nodes = plan.ops, plan.nice.nodes
    table_of = dict(zip((i for i, op in enumerate(ops) if op[0] == FORGET), forgets))
    pos: dict[int, int] = {}
    todo: list[int] = []  # forget ops whose child table is still to rebuild

    def along(i: int, v: int | None):
        """Op i's table at `pos`, as a vector over slot v if its bag holds v."""
        op = ops[i]
        if op[0] == FORGET:
            todo.append(i)
            key = tuple(slice(None) if b == v else pos[b] for b in op[3])
            return table_of[i][(row, *key)]
        value = 0
        for c in nodes[i].children:
            value = value + along(c, v)
        for block in () if op[0] == LEAF else op[-1]:  # introduce and join blocks
            value = value + _block_line(block, cells, pos, v)
        return value

    along(len(ops) - 1, None)  # queues the topmost forget ops
    while todo:
        i = todo.pop()
        v = ops[i][2]
        line = np.broadcast_to(along(nodes[i].children[0], v), (cells.s,))
        pos[v] = int(np.argmax(line))
    along = None  # a closure that calls itself: unbound, its tables go now, not at a gc pass
    return tuple(int(cells.dom[0, v, pos[v]]) + 1 for v in range(plan.k))


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
    arrays: TourArrays | None = None,
    runs: _GroupRuns | None = None,
) -> SolveResult:
    """Maximum gain over bucket-monotone embeddings for one pattern and one
    bucket assignment: the compiled plan run on a batch of one with its
    forget tables kept. The embedding is rebuilt from those tables and
    re-verified against the direct gain computation.

    With `runs` (best_move's batched runs over this tour and partition) the
    gain is the cell's root value in the batched run of its plan group, and
    the result carries no embedding or move.
    """
    k = m.k
    if len(assignment) != k:
        raise ValueError("assignment length must equal k")
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
    if not _fits(assignment, part):
        return SolveResult(None, None, None)
    return _solve_cell(inst, tour, m, assignment, part, plan, arrays or TourArrays(inst, tour))


def _solve_cell(
    inst: Instance,
    tour: Tour,
    m: ConnectionPattern,
    assignment: tuple[int, ...],
    part: BucketPartition,
    plan: Plan,
    arrays: TourArrays,
    kept: tuple[list[np.ndarray], int, float] | None = None,
) -> SolveResult:
    """One fitting cell's move, its embedding rebuilt from `kept` (the forget
    tables of a run that held the cell, its row in them and its root value)
    or else from a run of the cell alone; the embedding is made into a KMove,
    whose gain must equal the root value."""
    cells = _Cells(arrays, part, [assignment])
    if kept is None:
        root, forgets, _ = _run_plan(plan, cells)
        kept = forgets, 0, float(root[0])
    forgets, row, root_val = kept
    if root_val == NEG_INF:
        return SolveResult(None, None, None)
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
    -inf. The forget tables of the latest chunk run are kept, tagged with its
    pattern, order-edge set and first row, until the next run starts."""

    def __init__(self, arrays: TourArrays, part: BucketPartition, assignments):
        groups: dict[frozenset[tuple[int, int]], list[tuple[int, ...]]] = {}
        for assignment in assignments:
            if _fits(assignment, part):
                groups.setdefault(order_edges(assignment), []).append(assignment)
        self.cells = {obs: _Cells(arrays, part, group) for obs, group in groups.items()}
        self.row = {a: i for group in groups.values() for i, a in enumerate(group)}
        self.pattern: ConnectionPattern | None = None
        self.values: dict[frozenset[tuple[int, int]], list[float]] = {}  # of self.pattern
        self.last: tuple | None = None  # (pattern, obs, first row, forget tables)

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
        """Root values of the group's cells; the last chunk's forget tables
        stay in self.last."""
        cells = self.cells[obs]
        chunk = max(1, MAX_BATCH_ENTRIES // cells.s**plan.width)
        values: list[float] = []
        for lo in range(0, cells.batch, chunk):
            self.last = None  # free the previous run's tables first
            rows = cells if chunk >= cells.batch else cells.rows(lo, lo + chunk)
            root, forgets, _ = _run_plan(plan, rows)
            values += root.tolist()
            self.last = m, obs, lo, forgets
        return values

    def take(self, m: ConnectionPattern, obs, assignment) -> tuple | None:
        """(forget tables, row, root value) of the cell if the latest run
        held it, else None; the tables are dropped either way."""
        last, self.last = self.last, None
        row = self.row.get(assignment)
        if last is None or row is None:
            return None
        pattern, last_obs, lo, forgets = last
        if pattern is not m or last_obs != obs or row < lo:
            return None
        return forgets, row - lo, self.values[obs][row]


def default_alpha(k: int) -> Fraction:
    """Per-k bucket exponents: the computed optima for k = 5..8, and a single
    bucket for k <= 4 where bucketing buys nothing at practical sizes."""
    # c_of_k(4).alpha is 2/3, but k <= 4 stays at 1 until the benchmark's
    # move-k4-n64 workload is re-pinned for it (ROADMAP items 1 and 5).
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
        raise ValueError(f"{count:,} bucket assignments of {k} slots to {part.count}"
                         f" buckets of {part.size} edges hold {entries:,} slot positions;"
                         f" at most {MAX_ASSIGNMENT_ENTRIES:,} fit in memory")
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
            gain = solve_fixed(
                inst, tour, pattern, assignment, part, nice, arrays=arrays, runs=runs
            ).gain
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
    res = _solve_cell(
        inst, tour, m, assignment, part, compile_plan(m, obs), arrays,
        runs.take(m, obs, assignment),
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
    one bucket always does, else from one more run of that cell alone. Its
    KMove is built once, and its gain must equal the cell's; apply_move then
    builds the new tour once and checks its weight.
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
