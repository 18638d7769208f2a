"""Instance representation, file formats, and generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kopt.instance import (
    FormatError,
    Instance,
    Tour,
    euclidean_instance,
    gen_negative_triangle_reduction,
    gen_random,
    instance_from_json,
    instance_to_json,
    parse_tsplib,
    random_reduction_input,
    tour_from_json,
    tour_to_json,
    tour_weight,
    write_tsplib,
)
from kopt.oracle import has_negative_triangle, naive_best_move

TRIANGLE_345 = """NAME : triangle
TYPE : TSP
DIMENSION : 3
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0 0
2 3 0
3 0 4
EOF
"""


def test_parse_345_triangle():
    inst = parse_tsplib(TRIANGLE_345)
    assert inst.n == 3
    assert inst.weight(1, 2) == 3
    assert inst.weight(1, 3) == 4
    assert inst.weight(2, 3) == 5


def test_parse_rejects_n_below_3():
    text = (
        "TYPE : TSP\nDIMENSION : 2\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
        "EDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 7\n7 0\nEOF\n"
    )
    with pytest.raises(FormatError, match="n must be >= 3"):
        parse_tsplib(text)


def test_parse_rounding_convention():
    # sqrt(2) rounds down to 1 under the round-half-up integer convention
    inst = euclidean_instance([(0, 0), (1, 1), (5, 5)])
    assert inst.weight(1, 2) == 1
    # and x.5 rounds up
    inst2 = euclidean_instance([(0, 0), (1.5, 0), (0, 5)])
    assert inst2.weight(1, 2) == 2


def test_parse_errors_carry_line_numbers():
    bad_numeric = (
        "TYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
        "EDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1 2\n1 0 oops\n2 3 0\n"
    )
    with pytest.raises(FormatError, match="line 7.*oops"):
        parse_tsplib(bad_numeric)
    with pytest.raises(FormatError, match="unsupported EDGE_WEIGHT_TYPE"):
        parse_tsplib("TYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : GEO\nEOF\n")
    with pytest.raises(FormatError, match="unsupported EDGE_WEIGHT_FORMAT"):
        parse_tsplib(
            "TYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
            "EDGE_WEIGHT_FORMAT : UPPER_ROW\nEOF\n"
        )
    with pytest.raises(FormatError, match="DIMENSION mismatch"):
        parse_tsplib(
            "TYPE : TSP\nDIMENSION : 3\nEDGE_WEIGHT_TYPE : EXPLICIT\n"
            "EDGE_WEIGHT_FORMAT : FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1\nEOF\n"
        )


@pytest.mark.parametrize("kind", ["euclidean", "explicit"])
def test_tsplib_round_trip(kind):
    if kind == "euclidean":
        inst = euclidean_instance([(0.0, 0.0), (3.5, 1.25), (-2.0, 4.0), (1.0, 1.0)])
    else:
        inst = gen_random(6, 7, 50)
    again = parse_tsplib(write_tsplib(inst))
    assert again == inst


def test_json_round_trip():
    inst = gen_random(7, 3, 99)
    assert instance_from_json(instance_to_json(inst)) == inst
    tour = Tour((3, 1, 2, 5, 4, 7, 6))
    assert tour_from_json(tour_to_json(tour)) == tour


@pytest.mark.parametrize(
    "load,text",
    [
        (instance_from_json, "[3, [[0, 1, 2], [1, 0, 3], [2, 3, 0]]]"),
        (instance_from_json, '{"n": 3, "weights": "0 1 2 1 0 3 2 3 0"}'),
        (tour_from_json, '{"order": [2.5, 1, 3]}'),
        (tour_from_json, '{"order": [2.0, 1, 3]}'),
        (tour_from_json, '{"order": ["2", 1, 3]}'),
        (tour_from_json, '{"order": [true, 2, 3]}'),
    ],
)
def test_json_loaders_reject_malformed_documents(load, text):
    with pytest.raises(FormatError):
        load(text)


@pytest.mark.parametrize(
    "weights",
    [
        [[0, 1.5, 2], [1.5, 0, 3], [2, 3, 0]],
        [[0, 1.0, 2], [1.0, 0, 3], [2, 3, 0]],
        np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]], dtype=np.float64),
        [[0, 1 << 70, 2], [1 << 70, 0, 3], [2, 3, 0]],
    ],
    ids=["fraction", "integral-float", "float-array", "beyond-int64"],
)
def test_non_integer_weights_rejected_not_truncated(weights):
    with pytest.raises(ValueError, match="integers"):
        Instance(n=3, weights=weights)


def test_edge_weight_contract():
    inst = gen_random(6, 0, 10)
    assert inst.weight(2, 5) == inst.weight(5, 2)
    with pytest.raises(ValueError):
        inst.weight(3, 3)


def test_tour_weight_triangle():
    inst = parse_tsplib(TRIANGLE_345)
    assert tour_weight(inst, Tour((1, 2, 3))) == 12


def test_crossing_tour_strictly_heavier_on_scaled_square():
    # unit square rounds the diagonal down to the side length; a 10x square
    # keeps the diagonal strictly longer after rounding
    inst = euclidean_instance([(0, 0), (10, 0), (10, 10), (0, 10)])
    assert tour_weight(inst, Tour((1, 3, 2, 4))) > tour_weight(inst, Tour((1, 2, 3, 4)))


@settings(max_examples=30, derandomize=True)
@given(st.integers(0, 10_000), st.integers(0, 7), st.booleans())
def test_tour_weight_rotation_reversal_invariant(seed, shift, flip):
    inst = gen_random(8, seed % 50, 100)
    base = list(range(1, 9))
    rng = np.random.default_rng(seed)
    rng.shuffle(base)
    rotated = base[shift:] + base[:shift]
    if flip:
        rotated = rotated[::-1]
    assert tour_weight(inst, Tour(tuple(base))) == tour_weight(inst, Tour(tuple(rotated)))


def test_tour_must_be_permutation():
    with pytest.raises(ValueError):
        Tour((1, 2, 2, 4))


def test_gen_random_determinism_and_guards():
    a = gen_random(8, 42, 100)
    b = gen_random(8, 42, 100)
    assert a == b
    c = gen_random(8, 43, 100)
    assert not np.array_equal(a.weights, c.weights)
    with pytest.raises(ValueError):
        gen_random(4, 42, 100)


@pytest.mark.parametrize("make,low", [(gen_random, 1), (random_reduction_input, -100)])
def test_random_weights_are_one_draw_mirrored(make, low):
    for n, seed in ((5, 0), (12, 3), (50, 7)):
        draw = np.random.default_rng(seed).integers(low, 101, size=(n, n), dtype=np.int64)
        upper = np.triu(draw, 1)
        assert np.array_equal(make(n, seed, 100).weights, upper + upper.T)


@pytest.mark.parametrize("make", [gen_random, random_reduction_input])
def test_random_weights_peak_below_two_and_a_half_matrices(make):
    import tracemalloc

    n = 1000
    tracemalloc.start()
    try:
        make(n, 0, 10000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * np.dtype(np.int64).itemsize


def test_reduction_m1_m2_constants():
    w = np.zeros((3, 3), dtype=np.int64)
    w[0, 1] = w[1, 0] = 3
    w[1, 2] = w[2, 1] = -3
    w[0, 2] = w[2, 0] = 2
    inst, tour = gen_negative_triangle_reduction(Instance(3, w))
    # W = 3 gives M1 = 16 and M2 = 337
    assert inst.weight(1, 2) == 16      # (a_1, b_1) = M1
    assert inst.weight(7, 8) == -48     # (a_1', b_1') = -3 M1
    assert inst.weight(1, 3) == 337     # "otherwise" = M2
    assert inst.weight(2, 3) == -337    # (b_1, a_2) = -M2
    assert inst.weight(1, 8) == 0       # (a_1, b_1')
    assert inst.weight(1, 4) == 3       # (a_1, b_2) = w(v_1, v_2)
    assert inst.weight(9, 2) == 3       # (a_2', b_1) = w(v_1, v_2)
    assert inst.n == 12 and tour.n == 12


def test_reduction_negative_triangle_gives_improving_4_move():
    w = np.zeros((3, 3), dtype=np.int64)
    w[0, 1] = w[1, 0] = 1
    w[1, 2] = w[2, 1] = 1
    w[0, 2] = w[2, 0] = -3
    inst, tour = gen_negative_triangle_reduction(Instance(3, w))
    assert naive_best_move(inst, tour, 4).value > 0


def test_reduction_all_positive_has_no_improving_4_move():
    w = np.full((3, 3), 5, dtype=np.int64)
    np.fill_diagonal(w, 0)
    inst, tour = gen_negative_triangle_reduction(Instance(3, w))
    assert naive_best_move(inst, tour, 4).value <= 0


def test_reduction_shift_preserves_gains_and_nonnegativity():
    g = random_reduction_input(4, 11, 8)
    raw_inst, raw_tour = gen_negative_triangle_reduction(g)
    pos_inst, pos_tour = gen_negative_triangle_reduction(g, nonnegative=True)
    assert pos_tour == raw_tour
    off_diag = pos_inst.weights[~np.eye(pos_inst.n, dtype=bool)]
    assert off_diag.min() >= 0
    assert naive_best_move(raw_inst, raw_tour, 4).value == naive_best_move(
        pos_inst, pos_tour, 4
    ).value


@pytest.mark.parametrize("seed", range(10))
def test_reduction_soundness_small(seed):
    n = 3 + seed % 5
    g = random_reduction_input(n, seed, 9)
    inst, tour = gen_negative_triangle_reduction(g)
    assert (naive_best_move(inst, tour, 4).value > 0) == has_negative_triangle(g).value


def test_reduction_overflow_guard():
    big = np.zeros((3, 3), dtype=np.int64)
    big[0, 1] = big[1, 0] = (1 << 40) // 4
    with pytest.raises(ValueError, match="overflow"):
        gen_negative_triangle_reduction(Instance(3, big))


def test_weight_magnitude_guard():
    w = np.zeros((3, 3), dtype=np.int64)
    w[0, 1] = w[1, 0] = (1 << 40) + 1
    with pytest.raises(ValueError, match="overflow guard"):
        Instance(n=3, weights=w)


def _symmetric(value, dtype=None):
    w = [[0, value, 2], [value, 0, 3], [2, 3, 0]]
    return w if dtype is None else np.array(w, dtype=dtype)


@pytest.mark.parametrize(
    "weights",
    [
        _symmetric(-(1 << 40) - 1),
        _symmetric(-(1 << 63)),
        _symmetric(1 << 63, np.uint64),
        _symmetric((1 << 64) - 3, np.uint64),
        _symmetric(1 << 63),
        _symmetric((1 << 64) - 3),
    ],
    ids=[
        "below-minus-2^40", "int64-min", "uint64-2^63", "uint64-2^64-3",
        "list-2^63", "list-2^64-3",
    ],
)
def test_weight_magnitude_guard_does_not_wrap(weights):
    # int64-min defeats an abs() check and uint64 entries wrap on a cast to
    # int64; both must fail rather than load as a different instance
    with pytest.raises(ValueError, match=r"2\^40"):
        Instance(n=3, weights=weights)
