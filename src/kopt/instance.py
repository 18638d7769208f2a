"""Weighted TSP instances, tours, file formats, and instance generators."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# Any sum of ~4k weights must stay well inside int64 (and float64 exactness).
MAX_ABS_WEIGHT = 1 << 40

KIND_EXPLICIT = "explicit-matrix"
KIND_EUCLIDEAN = "euclidean-2d"


class FormatError(ValueError):
    """Malformed instance/tour input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _as_weight_matrix(weights, n: int) -> np.ndarray:
    raw = np.asarray(weights)
    if raw.shape != (n, n):
        raise ValueError(f"weight matrix must be {n}x{n}, got {raw.shape}")
    if raw.dtype.kind not in "iu":
        raise ValueError(
            f"weights must be integers of magnitude <= 2^40, got {raw.dtype} entries"
        )
    # bound the raw values before the cast: a uint64 entry would wrap, and
    # abs(-2^63) overflows back to -2^63
    if (raw > MAX_ABS_WEIGHT).any() or (raw < -MAX_ABS_WEIGHT).any():
        raise ValueError("weight magnitude exceeds the 2^40 overflow guard")
    mat = np.array(raw, dtype=np.int64)
    if not np.array_equal(mat, mat.T):
        raise ValueError("weight matrix must be symmetric")
    np.fill_diagonal(mat, 0)
    mat.flags.writeable = False
    return mat


@dataclass(frozen=True, eq=False)
class Instance:
    """Complete weighted graph on vertices 1..n with O(1) symmetric weight lookup.

    Weights are 64-bit signed integers; Euclidean inputs are rounded to
    integers at parse time. Instances are immutable and safe to share.
    """

    n: int
    weights: np.ndarray = field(repr=False)
    kind: str = KIND_EXPLICIT
    coords: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("n must be >= 3")
        if self.kind not in (KIND_EXPLICIT, KIND_EUCLIDEAN):
            raise ValueError(f"unknown instance kind {self.kind!r}")
        object.__setattr__(self, "weights", _as_weight_matrix(self.weights, self.n))
        if self.kind == KIND_EUCLIDEAN:
            if self.coords is None or len(self.coords) != self.n:
                raise ValueError("euclidean instance needs one coordinate pair per vertex")
            object.__setattr__(
                self, "coords", tuple((float(x), float(y)) for x, y in self.coords)
            )
        elif self.coords is not None:
            raise ValueError("coords only make sense for euclidean instances")

    def weight(self, u: int, v: int) -> int:
        """Weight of edge {u, v}; u and v are 1-based and must differ."""
        if u == v:
            raise ValueError("no loops: u and v must differ")
        if not (1 <= u <= self.n and 1 <= v <= self.n):
            raise ValueError(f"vertex out of range 1..{self.n}")
        return int(self.weights[u - 1, v - 1])

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.n == other.n
            and self.kind == other.kind
            and self.coords == other.coords
            and np.array_equal(self.weights, other.weights)
        )


@dataclass(frozen=True)
class Tour:
    """Cyclic vertex order w_1..w_n; tour edge e_i joins w_i to w_{i+1} (e_n wraps).

    The left endpoint of e_i is w_i and the right endpoint w_{i+1}; for e_n
    they are w_n and w_1.
    """

    order: tuple[int, ...]

    def __post_init__(self):
        order = tuple(int(v) for v in self.order)
        object.__setattr__(self, "order", order)
        n = len(order)
        if n < 3:
            raise ValueError("a tour needs at least 3 vertices")
        if sorted(order) != list(range(1, n + 1)):
            raise ValueError("tour must be a permutation of 1..n")

    @property
    def n(self) -> int:
        return len(self.order)

    def edge(self, i: int) -> tuple[int, int]:
        """(left, right) endpoints of tour edge e_i, 1-based."""
        if not (1 <= i <= self.n):
            raise ValueError(f"edge index out of range 1..{self.n}")
        return self.order[i - 1], self.order[i % self.n]

    def edges(self) -> list[tuple[int, int]]:
        return [self.edge(i) for i in range(1, self.n + 1)]


def tour_weight(inst: Instance, tour: Tour) -> int:
    """Total weight of the tour's n edges."""
    if tour.n != inst.n:
        raise ValueError("tour and instance sizes differ")
    idx = np.asarray(tour.order, dtype=np.int64) - 1
    return int(inst.weights[idx, np.roll(idx, -1)].sum())


# ---------------------------------------------------------------------------
# TSPLIB subset (TYPE: TSP with EUC_2D or EXPLICIT/FULL_MATRIX)
# ---------------------------------------------------------------------------

def _nint(x: float) -> int:
    """TSPLIB integer rounding (round half up)."""
    return int(math.floor(x + 0.5))


def euclidean_instance(coords) -> Instance:
    """Instance from 2D points; distances rounded with the TSPLIB convention."""
    pts = [(float(x), float(y)) for x, y in coords]
    n = len(pts)
    mat = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            d = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
            mat[i, j] = mat[j, i] = _nint(d)
    return Instance(n=n, weights=mat, kind=KIND_EUCLIDEAN, coords=tuple(pts))


def parse_tsplib(text: str) -> Instance:
    """Parse the supported TSPLIB subset; malformed input raises FormatError."""
    lines = text.splitlines()
    header: dict[str, str] = {}
    header_lines: dict[str, int] = {}
    coords: dict[int, tuple[float, float]] | None = None
    matrix_values: list[int] | None = None

    def dimension(at_line: int) -> int:
        if "DIMENSION" not in header:
            raise FormatError("DIMENSION must appear before any data section", at_line)
        raw = header["DIMENSION"]
        try:
            n = int(raw)
        except ValueError:
            raise FormatError(
                f"malformed numeric field in DIMENSION: {raw!r}", header_lines["DIMENSION"]
            ) from None
        if n < 3:
            raise FormatError("n must be >= 3", header_lines["DIMENSION"])
        return n

    pos = 0
    while pos < len(lines):
        lineno = pos + 1
        stripped = lines[pos].strip()
        pos += 1
        if not stripped:
            continue
        upper = stripped.upper()
        if upper == "EOF":
            break
        if upper == "NODE_COORD_SECTION":
            n = dimension(lineno)
            coords = {}
            for _ in range(n):
                if pos >= len(lines):
                    raise FormatError(
                        f"DIMENSION mismatch: expected {n} coordinate lines", lineno
                    )
                lineno = pos + 1
                parts = lines[pos].split()
                pos += 1
                if len(parts) != 3:
                    raise FormatError(f"malformed coordinate line: {lines[pos-1]!r}", lineno)
                try:
                    idx = int(parts[0])
                    x, y = float(parts[1]), float(parts[2])
                except ValueError:
                    raise FormatError(
                        f"malformed numeric field: {lines[pos-1]!r}", lineno
                    ) from None
                if not (1 <= idx <= n) or idx in coords:
                    raise FormatError(f"bad or repeated node index {idx}", lineno)
                coords[idx] = (x, y)
            continue
        if upper == "EDGE_WEIGHT_SECTION":
            n = dimension(lineno)
            needed = n * n
            matrix_values = []
            while len(matrix_values) < needed and pos < len(lines):
                candidate = lines[pos].strip()
                if not candidate or candidate.upper() == "EOF":
                    break
                lineno = pos + 1
                pos += 1
                for tok in candidate.split():
                    try:
                        matrix_values.append(int(tok))
                    except ValueError:
                        raise FormatError(
                            f"malformed numeric field: {tok!r}", lineno
                        ) from None
            if len(matrix_values) != needed:
                raise FormatError(
                    f"DIMENSION mismatch: expected {needed} matrix entries, "
                    f"got {len(matrix_values)}",
                    lineno,
                )
            continue
        if ":" in stripped:
            key, _, value = stripped.partition(":")
            key = key.strip().upper()
            header[key] = value.strip()
            header_lines[key] = lineno
            continue
        raise FormatError(f"unrecognized line: {stripped!r}", lineno)

    if header.get("TYPE", "").upper() not in ("TSP", ""):
        raise FormatError(
            f"unsupported TYPE {header['TYPE']!r} (only TSP)", header_lines.get("TYPE")
        )
    n = dimension(len(lines))
    ewt = header.get("EDGE_WEIGHT_TYPE", "").upper()
    if ewt == "EUC_2D":
        if coords is None or len(coords) != n:
            raise FormatError("EUC_2D instance is missing its NODE_COORD_SECTION", None)
        return euclidean_instance([coords[i] for i in range(1, n + 1)])
    if ewt == "EXPLICIT":
        fmt = header.get("EDGE_WEIGHT_FORMAT", "").upper()
        if fmt != "FULL_MATRIX":
            raise FormatError(
                f"unsupported EDGE_WEIGHT_FORMAT {fmt or '(missing)'!r} (only FULL_MATRIX)",
                header_lines.get("EDGE_WEIGHT_FORMAT"),
            )
        if matrix_values is None:
            raise FormatError("EXPLICIT instance is missing its EDGE_WEIGHT_SECTION", None)
        mat = np.array(matrix_values, dtype=np.int64).reshape(n, n)
        if not np.array_equal(mat, mat.T):
            raise FormatError("FULL_MATRIX entries are not symmetric", None)
        return Instance(n=n, weights=mat)
    raise FormatError(
        f"unsupported EDGE_WEIGHT_TYPE {ewt or '(missing)'!r}",
        header_lines.get("EDGE_WEIGHT_TYPE"),
    )


def write_tsplib(inst: Instance, name: str = "kopt") -> str:
    """Render an instance in the supported TSPLIB subset (round-trips exactly)."""
    out = [f"NAME : {name}", "TYPE : TSP", f"DIMENSION : {inst.n}"]
    if inst.kind == KIND_EUCLIDEAN:
        out.append("EDGE_WEIGHT_TYPE : EUC_2D")
        out.append("NODE_COORD_SECTION")
        for i, (x, y) in enumerate(inst.coords, start=1):
            out.append(f"{i} {x!r} {y!r}")
    else:
        out.append("EDGE_WEIGHT_TYPE : EXPLICIT")
        out.append("EDGE_WEIGHT_FORMAT : FULL_MATRIX")
        out.append("EDGE_WEIGHT_SECTION")
        for row in inst.weights:
            out.append(" ".join(str(int(v)) for v in row))
    out.append("EOF")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------

def instance_to_json(inst: Instance) -> str:
    """{"n": int, "weights": [[int]]} with bit-exact integers."""
    return json.dumps({"n": inst.n, "weights": inst.weights.tolist()})


def _json_fields(text: str, **types: type) -> list:
    """The named fields of a JSON object, each checked to have its type."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise FormatError(f"expected a JSON object, got {type(data).__name__}")
    values = []
    for key, kind in types.items():
        if key not in data:
            raise FormatError(f"missing key {key!r}")
        if type(data[key]) is not kind:
            raise FormatError(
                f"{key!r} must be {kind.__name__}, got {type(data[key]).__name__}"
            )
        values.append(data[key])
    return values


def instance_from_json(text: str) -> Instance:
    n, weights = _json_fields(text, n=int, weights=list)
    return Instance(n=n, weights=weights)


def tour_to_json(tour: Tour) -> str:
    """{"order": [int]} with 1-based vertices."""
    return json.dumps({"order": list(tour.order)})


def tour_from_json(text: str) -> Tour:
    (order,) = _json_fields(text, order=list)
    if any(type(v) is not int for v in order):
        raise FormatError("tour entries must be integers")
    return Tour(tuple(order))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_random(n: int, seed: int, wmax: int) -> Instance:
    """Random symmetric instance with weights uniform in [1, wmax]; deterministic per seed."""
    if n < 5:
        raise ValueError("n must be >= 5")
    if wmax < 1:
        raise ValueError("wmax must be >= 1")
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(1, wmax + 1, size=(n, n), dtype=np.int64), 1)
    upper += upper.T
    return Instance(n=n, weights=upper)


def random_tour(n: int, seed: int) -> Tour:
    rng = np.random.default_rng(seed)
    return Tour(tuple(int(v) + 1 for v in rng.permutation(n)))


def random_reduction_input(n: int, seed: int, wmax: int) -> Instance:
    """Random symmetric weights uniform in [-wmax, wmax], an input to the
    negative-triangle reduction; deterministic per seed."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(-wmax, wmax + 1, size=(n, n), dtype=np.int64), 1)
    upper += upper.T
    return Instance(n=n, weights=upper)


def gen_negative_triangle_reduction(
    g: Instance, nonnegative: bool = False
) -> tuple[Instance, Tour]:
    """Build the 4n-vertex instance + start tour whose improving 4-moves are
    exactly the negative triangles of g (whose weights may be negative).

    Vertex ids: a_i = 2i-1, b_i = 2i, a'_i = 2n+2i-1, b'_i = 2n+2i (1-based).
    With `nonnegative`, every off-diagonal weight is shifted up by the same
    constant, which shifts removed and added edge sets of any 4-move alike and
    so preserves gains.
    """
    n = g.n
    w_max = int(np.abs(g.weights).max())
    m1 = 5 * w_max + 1
    m2 = 21 * m1 + 1
    peak = 2 * m2 if nonnegative else m2
    if peak > MAX_ABS_WEIGHT:
        raise ValueError("reduction would exceed the 2^40 overflow guard; shrink W")

    def a(i):  # 1-based
        return 2 * i - 1

    def b(i):
        return 2 * i

    def ap(i):
        return 2 * n + 2 * i - 1

    def bp(i):
        return 2 * n + 2 * i

    size = 4 * n
    mat = np.full((size, size), m2, dtype=np.int64)

    def put(u, v, val):
        mat[u - 1, v - 1] = val
        mat[v - 1, u - 1] = val

    for i in range(1, n + 1):
        put(a(i), bp(i), 0)
        put(a(i), b(i), m1)
        put(ap(i), bp(i), -3 * m1)
        for j in range(i + 1, n + 1):
            put(a(i), b(j), g.weight(i, j))
            put(ap(j), b(i), g.weight(i, j))
    for i in range(1, n):
        put(b(i), a(i + 1), -m2)
        put(bp(i), ap(i + 1), -m2)
    put(a(1), ap(1), -m2)
    put(b(n), bp(n), -m2)
    if nonnegative:
        mat = mat + m2
    np.fill_diagonal(mat, 0)

    order = []
    for i in range(1, n + 1):
        order.extend((a(i), b(i)))
    for i in range(n, 0, -1):
        order.extend((bp(i), ap(i)))
    return Instance(n=size, weights=mat), Tour(tuple(order))
