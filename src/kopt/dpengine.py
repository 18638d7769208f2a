"""Maximum-gain k-move search: compiled DP plans over nice tree decompositions.

For a fixed connection pattern and bucket assignment (a *cell*) the solver
finds a bucket-monotone embedding of maximum gain by dynamic programming over
a nice tree decomposition of the dependence graph (order edges plus
interference edges). That DP depends only on the pattern and the
assignment's order-edge set, not on which buckets the cell uses, so many
cells share it.

- **Plans.** `compile_plan(pattern, order_edges)` turns one such DP into a
  flat list of leaf, introduce, forget and join ops with precomputed table
  axes, run as a stack machine in postorder. Each introduce op carries, per
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
  joins add their corrections to a child's table in place.
- **Chunks.** The batch axis is cut into chunks so that no table holds more
  than `MAX_BATCH_ENTRIES` entries, or one cell's table when that is larger.
- **Check once.** Root values give every cell's gain. Only the winning cell
  is run again, with a batch of one and argmax data kept; its embedding is
  reconstructed, checked against `gain_partial`, turned into a `KMove`, and
  applied once through `apply_move`.

Tables are float64; -inf marks assignments with no legal completion. Weights
are bounded by 2^40 and table values sum only O(k) of them, so float64
arithmetic is exact and the order of the additions does not matter.
"""

from __future__ import annotations

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
MAX_SOLVER_K = 10
# Largest batched table, in entries (32 MB of float64); a single cell whose
# table is larger runs alone.
MAX_BATCH_ENTRIES = 1 << 22


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
    """Vertex/weight lookups for one (instance, tour) pair."""

    def __init__(self, inst: Instance, tour: Tour):
        if inst.n != tour.n:
            raise ValueError("tour and instance sizes differ")
        self.n = inst.n
        order0 = np.asarray(tour.order, dtype=np.int64) - 1
        self.left_vertex = order0
        self.right_vertex = np.roll(order0, -1)
        self.wf = inst.weights.astype(np.float64)
        # added-edge terms of introduce ops; a loop (u == v) is illegal
        self.neg_w = -self.wf
        np.fill_diagonal(self.neg_w, NEG_INF)
        self.removed_w = self.wf[self.left_vertex, self.right_vertex]


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

# A plan runs as a stack machine over the nice decomposition's nodes in
# postorder: a leaf pushes a table, introduce and forget ops replace the top
# table, and a join pops two. Ops hold no node ids, so an op depends only on
# its bag and its terms, and equal ops are one shared object in every plan.
#   (LEAF,)
#   (INTRODUCE, bag size, index placing the child's table, blocks)
#   (FORGET, axis of the forgotten slot, slot, the remaining bag)
#   (JOIN, blocks)
# A block is the sum of all terms of one op that involve the same one or two
# bag slots: (slots, unary, pairs, matrix, order, index)
# slots: 0-based slots in table-axis order; unary: (block dim, _Cells
#   attribute) per one-slot term; pairs: (side of slots[0], side of slots[1])
#   per pattern pair, looked up in the TourArrays `matrix` ("neg_w" or "wf");
#   order: the order edge slots[0] < slots[1] holds; index: places the
#   block's (batch, slot positions...) array on the op's table axes.
# Slots are 1-based in the op constructors' arguments and 0-based in ops.

COMPILE_CACHE_SIZE = 1 << 14  # entries in each cache of compiled plans and ops


@dataclass(frozen=True, slots=True)
class Plan:
    """The DP of one (pattern, order-edge set) as a flat op list, compiled
    from the nice decomposition `nice`; `width` is the largest bag size, so
    one cell's largest table has s**width entries."""

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
    forgotten: list[int] = []
    for t in nice.postorder():
        nd = nodes[t]
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
            forgotten.append(nd.vertex)
            ops.append(_forget_op(tuple(sorted(nodes[nd.children[0]].bag)), nd.vertex))
        elif nd.kind == JOIN:
            inside = tuple(sorted(p for p in ordered_pairs if p[0] in bag and p[2] in bag))
            unpaired = tuple(s for s in bag if s not in self_paired)
            ops.append(_join_op(bag, inside, unpaired))
        else:
            raise InvariantError(f"unknown node kind {nd.kind!r}")
    if sorted(forgotten) != list(range(1, m.k + 1)):
        raise InvariantError("every slot must be forgotten exactly once")
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
def _order_mask(s: int) -> np.ndarray:
    """(1, s, s): 0 where the first position is before the second, else -inf."""
    mask = np.full((1, s, s), NEG_INF)
    mask[0][np.triu_indices(s, 1)] = 0.0
    mask.flags.writeable = False
    return mask


class _Cells:
    """Bucket assignments gathered over one tour: axis 0 is the batch, axis 1
    the slot, axis 2 the position inside the slot's bucket, padded to s."""

    def __init__(self, arrays: TourArrays, part: BucketPartition, assignments):
        self.arrays, self.part = arrays, part
        self.assignments = np.asarray(assignments, dtype=np.int64)
        s = part.size
        dom = (self.assignments[:, :, None] - 1) * s + np.arange(s)
        valid = dom < arrays.n
        dom = np.minimum(dom, arrays.n - 1)
        rem = arrays.removed_w[dom]
        self.s = s
        self.dom = dom
        self.side = (arrays.left_vertex[dom], arrays.right_vertex[dom])
        self.pad = np.where(valid, 0.0, NEG_INF)
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
    mat = getattr(cells.arrays, matrix)
    value = _order_mask(cells.s) if order else None
    for ra, rb in pairs:
        w = mat[cells.side[ra][:, a, :, None], cells.side[rb][:, b, None, :]]
        value = w if value is None else value + w
    for dim, src in unary:
        u = getattr(cells, src)[:, slots[dim]]
        u = u[:, :, None] if dim == 0 else u[:, None, :]
        value = u if value is None else value + u
    return value[index]


def _first_max_positions(child: np.ndarray, table: np.ndarray, axis: int) -> np.ndarray:
    """child.argmax(axis), given table = child.max(axis). argmax copies all of
    child when `axis` is not the last one, so past MAX_BATCH_ENTRIES entries
    the positions are found slice by slice, with temporaries the size of
    table."""
    if child.size <= MAX_BATCH_ENTRIES:
        return child.argmax(axis=axis)
    pos = np.zeros(table.shape, dtype=np.intp)
    index = [slice(None)] * child.ndim
    for j in range(child.shape[axis] - 1, -1, -1):
        index[axis] = j
        pos[child[tuple(index)] == table] = j
    return pos


def _run_plan(
    plan: Plan, cells: _Cells, *, want_args: bool = False, keep_tables: bool = False
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """The root values over the batch, the forget ops' argmax arrays (if
    want_args) and every op's table in postorder (if keep_tables, which tests
    use to compare every node's table). Without keep_tables a join adds into
    its first child's table."""
    B, s = cells.batch, cells.s
    stack: list[np.ndarray] = []
    args: list[np.ndarray] = []
    kept: list[np.ndarray] = []
    for op in plan.ops:
        kind = op[0]
        if kind == INTRODUCE:
            _, ndim, place, blocks = op
            table = np.empty((B,) + (s,) * ndim)
            np.add(stack.pop()[place], _block_value(blocks[0], cells), out=table)
            for block in blocks[1:]:
                table += _block_value(block, cells)
        elif kind == FORGET:
            child = stack.pop()
            table = child.max(axis=op[1])
            if want_args:
                args.append(_first_max_positions(child, table, op[1]))
            del child  # free it before the next op allocates
        elif kind == JOIN:
            other, table = stack.pop(), stack.pop()
            if keep_tables:
                table = table + other
            else:
                table += other
            del other
            for block in op[1]:
                table += _block_value(block, cells)
        else:
            table = np.zeros(B)
        stack.append(table)
        if keep_tables:
            kept.append(table)
    (root,) = stack
    return root, args, kept


def _plan_gains(plan: Plan, cells: _Cells) -> np.ndarray:
    """Root value of every cell in the batch, in chunks of the batch axis."""
    chunk = max(1, MAX_BATCH_ENTRIES // cells.s**plan.width)
    if chunk >= cells.batch:
        return _run_plan(plan, cells)[0]
    return np.concatenate([
        _run_plan(plan, cells.rows(lo, lo + chunk))[0]
        for lo in range(0, cells.batch, chunk)
    ])


def _reconstruct(plan: Plan, cells: _Cells, args: list[np.ndarray]) -> tuple[int, ...]:
    """Run the plan backwards for batch row 0: every node's key (slot ->
    position) comes from its parent, and each slot's position from the argmax
    array of its unique forget op."""
    keys: list[dict[int, int]] = [{}]
    emb: dict[int, int] = {}
    for op in reversed(plan.ops):
        kind = op[0]
        key = keys.pop()
        if kind == FORGET:
            _, _, slot, bag = op
            pos = int(args.pop()[(0,) + tuple(key[b] for b in bag)])
            emb[slot] = int(cells.dom[0, slot, pos]) + 1
            keys.append({**key, slot: pos})
        elif kind == INTRODUCE:
            keys.append(key)
        elif kind == JOIN:
            keys += [key, key]
    return tuple(emb[i] for i in range(plan.k))


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
    bucket assignment: the compiled plan run on a batch of one with argmax
    data kept. The embedding is reconstructed and re-verified against the
    direct gain computation.

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
        dep = dependence_graph(interference_graph(m), obs)
        bags = [nd.bag for nd in nice.nodes]
        if set().union(*bags) != set(range(1, k + 1)) or any(
            not any(a in bag and b in bag for bag in bags) for a, b in dep.edges
        ):
            raise ValueError("decomposition does not cover the dependence graph")
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
) -> SolveResult:
    """One fitting cell run alone with argmax data kept, its embedding
    reconstructed, checked against gain_partial and made into a KMove."""
    cells = _Cells(arrays, part, [assignment])
    root, args, _ = _run_plan(plan, cells, want_args=True)
    root_val = float(root[0])
    if root_val == NEG_INF:
        return SolveResult(None, None, None)
    gain = int(round(root_val))
    embedding = _reconstruct(plan, cells, args)
    check = gain_partial(inst, tour, m, dict(enumerate(embedding, 1)))
    if check != gain:
        raise InvariantError(f"reconstructed embedding gain {check} != table gain {gain}")
    return SolveResult(gain, embedding, as_kmove(inst, tour, m, embedding))


class _GroupRuns:
    """Root values of the cells over one tour and partition, computed one
    plan group at a time: the first request for a cell runs every fitting
    assignment that shares its pattern and order-edge set in one batch. An
    assignment that does not fit has root value -inf."""

    def __init__(self, arrays: TourArrays, part: BucketPartition, assignments):
        groups: dict[frozenset[tuple[int, int]], list[tuple[int, ...]]] = {}
        for assignment in assignments:
            if _fits(assignment, part):
                groups.setdefault(order_edges(assignment), []).append(assignment)
        self.cells = {obs: _Cells(arrays, part, group) for obs, group in groups.items()}
        self.row = {a: i for group in groups.values() for i, a in enumerate(group)}
        self.pattern: ConnectionPattern | None = None
        self.values: dict[frozenset[tuple[int, int]], list[float]] = {}  # of self.pattern

    def root_value(self, m: ConnectionPattern, obs, plan: Plan, assignment) -> float:
        row = self.row.get(assignment)
        if row is None:
            return NEG_INF
        if m is not self.pattern:
            self.pattern, self.values = m, {}
        values = self.values.get(obs)
        if values is None:
            values = self.values[obs] = _plan_gains(plan, self.cells[obs]).tolist()
        return values[row]


def default_alpha(k: int) -> Fraction:
    """Per-k bucket exponents: the computed optima for k = 5..10, and a single
    bucket for k <= 4 where bucketing buys nothing at practical sizes."""
    table = {
        5: Fraction(2, 3),
        6: Fraction(3, 4),
        7: Fraction(3, 4),
        8: Fraction(2, 3),
        9: Fraction(4, 5),
        10: Fraction(4, 5),
    }
    return table.get(k, Fraction(1))


def _best_move(
    inst: Instance, tour: Tour, k: int, alpha, policy: str
) -> tuple[SolveResult, Tour]:
    """best_move's search plus the tour its move produces, verified by
    apply_move."""
    if policy not in ("best", "first"):
        raise ValueError("policy must be 'best' or 'first'")
    if k > MAX_SOLVER_K:
        raise ValueError(f"k must be <= {MAX_SOLVER_K}")
    if inst.n < 2 * k:
        raise ValueError(f"instance too small: need n >= {2 * k}")
    alpha = default_alpha(k) if alpha is None else Fraction(alpha)
    part = make_buckets(inst.n, alpha)
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
    m, assignment = patterns[p_idx], assignments[a_idx]
    res = _solve_cell(
        inst, tour, m, assignment, part, compile_plan(m, obs_of[a_idx]), arrays
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
    same order, and groups not reached by then never run. Only the returned
    cell is run again with argmax data; its move is checked against
    gain_partial once and re-validated through apply_move once.
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
    """Repeatedly apply improving k-moves until none exists (or max_steps).

    The weight strictly decreases every step; with integer weights this
    terminates. History records each applied move's gain and the running
    weight.
    """
    history: list[SearchStep] = []
    current = tour
    weight = tour_weight(inst, current)
    step = 0
    while max_steps is None or step < max_steps:
        res, new = _best_move(inst, current, k, alpha, policy)
        if not res.improving:
            break
        after = tour_weight(inst, new)
        if not after < weight or after != weight - res.gain:
            raise InvariantError(
                f"step of gain {res.gain} took the tour weight from {weight} to {after}"
            )
        current, weight = new, after
        step += 1
        history.append(SearchStep(step=step, gain=res.gain, tour_weight=after))
    return current, tuple(history)
