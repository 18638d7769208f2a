"""Tests of the benchmark's own code: tracer, layer counts, checks and compare."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import kopt  # noqa: E402
from kopt import buckets, dpengine, moves, oracle  # noqa: E402

import compare  # noqa: E402
import layers  # noqa: E402
from probe import REFERENCE_S, SpeedProbe  # noqa: E402
from tracer import END, Tracer, self_times  # noqa: E402
from workloads import (  # noqa: E402
    ORACLE_BUDGET,
    WORKLOADS,
    Inputs,
    Workload,
    check_move,
    check_search,
    run_op,
)

TINY = Workload("tiny", "move", 3, 12, 1)


def traced(w: Workload, seed: int = 0) -> dict:
    inst, tour = Inputs(kopt, w, seed).get(1)
    tracer = Tracer()
    with tracer.installed(layers.targets(dpengine, moves)):
        run_op(dpengine, w, inst, tour)
    return layers.op_values(tracer.take(), dpengine.solve_fixed, buckets.order_edges)


def test_tiny_move_counts_eight_cells_and_plans():
    v = traced(TINY)
    assert v["dpengine.solve_fixed.calls"] == 8
    assert v["dpengine.plans"] == 8
    assert v["dpengine.cells_per_plan"] == 1
    assert v["dpengine.best_move.calls"] == 1
    assert (v["buckets.bucket_size"], v["buckets.bucket_count"]) == (12, 1)
    assert v["dpengine.table_cells"] > 0
    assert v["dpengine.peak_table_bytes"] % layers.BYTES_PER_ENTRY == 0


COUNTS = [
    "dpengine.solve_fixed.calls",
    "dpengine.plans",
    "dpengine.table_cells",
    "dpengine.peak_table_bytes",
    "dpengine.solve_fixed.feasible_frac",
    "moves.gain_partial.calls",
    "moves.as_kmove.calls",
    "moves.apply_move.calls",
    "instance.tour_weight.calls",
]


@pytest.mark.slow
@pytest.mark.parametrize(
    "name, cells, plans",
    [("move-k5-n40", 21504, 5760), ("move-k4-n64", 48, 48)],
)
def test_move_counts_repeat_exactly(name, cells, plans):
    first, second = traced(WORKLOADS[name]), traced(WORKLOADS[name])
    assert first["dpengine.solve_fixed.calls"] == cells
    assert first["dpengine.plans"] == plans
    assert {m: first[m] for m in COUNTS} == {m: second[m] for m in COUNTS}


def test_every_attribute_restored_when_an_operation_raises():
    targets = layers.targets(dpengine, moves)
    before = {(t.module.__name__, t.attr): getattr(t.module, t.attr) for t in targets}
    inst = kopt.gen_random(12, 0, 100)
    wrong_size = kopt.random_tour(13, 1)
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.installed(targets) as wrapped:
            assert len(wrapped) == len(targets)
            assert dpengine.best_move is not before[("kopt.dpengine", "best_move")]
            dpengine.best_move(inst, wrong_size, 3)
    after = {(t.module.__name__, t.attr): getattr(t.module, t.attr) for t in targets}
    assert all(after[key] is before[key] for key in before)
    spans = tracer.take()
    assert [s[0] for s in spans][:1] == ["dpengine.best_move"]
    assert all(s[END] >= s[1] for s in spans)


def test_missing_attribute_is_skipped():
    class Module:
        pass

    mod = Module()
    tracer = Tracer()
    target = layers.Target(mod, "absent", "x.absent")
    with tracer.installed([target]) as wrapped:
        assert wrapped == []
    assert not hasattr(mod, "absent")


def test_self_time_subtracts_children():
    spans = [
        ["a", 0.0, 10.0, -1, None, None],
        ["b", 1.0, 4.0, 0, None, None],
        ["c", 5.0, 6.0, 0, None, None],
        ["d", 2.0, 3.0, 1, None, None],
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_probe_times_its_loop_and_stops():
    with SpeedProbe() as probe:
        pass
    assert probe.loop_s and not probe._thread.is_alive()
    probe.loop_s = [2 * REFERENCE_S, 6 * REFERENCE_S]
    assert probe.factor() == 0.25


def test_checks_catch_a_wrong_move_and_a_wrong_search():
    inst, tour = Inputs(kopt, TINY, 0).get(1)
    res = dpengine.best_move(inst, tour, 3)
    assert check_move(kopt, inst, tour, res) == []
    assert check_move(kopt, inst, tour, dataclasses.replace(res, gain=res.gain + 1))

    search = Workload("tiny-search", "search", 3, 12, 1)
    inst, start = Inputs(kopt, search, 0).get(1)
    final, history = dpengine.local_search(inst, start, 3, policy="first")
    assert check_search(kopt, oracle, search, inst, start, (final, history), {}) == []
    assert check_search(kopt, oracle, search, inst, start, (start, ()), {})


@pytest.mark.slow
@pytest.mark.parametrize("name", ["move-k4-n64", "move-k5-n40"])
def test_pinned_gain_matches_the_oracle(name):
    w = WORKLOADS[name]
    got = oracle.naive_best_move(*Inputs(kopt, w, 0).get(0), w.k, ORACLE_BUDGET).value
    assert got == w.pinned_gain[0]


def test_search_inputs_depend_only_on_seed_and_index():
    w = WORKLOADS["search-k3-n100"]
    a, b = Inputs(kopt, w, 3).get(5), Inputs(kopt, w, 3).get(5)
    assert a[0] == b[0] and a[1] == b[1]
    for other in (Inputs(kopt, w, 3).get(6), Inputs(kopt, w, 4).get(5)):
        assert other[0] != a[0] and other[1] != a[1]


@pytest.mark.parametrize("seconds, visited", [
    (1000.0, list(range(1, 28, 2))),  # the worker's whole share of inputs
    (0.0, [1, 3]),  # --seconds caps a slow program after one warm search
])
def test_search_worker_times_a_fixed_list_of_inputs(seconds, visited, capsys):
    import worker

    run = worker.Run({"workload": "search-k3-n100", "seed": 0, "seconds": seconds,
                      "trace": 0, "index": 1, "workers": 2, "oracle": False})
    got = []

    def op(i):
        got.append(i)
        return None, None, None, 0.5  # no result, so nothing to check

    run.op = op
    run.untraced()
    assert got == visited
    assert capsys.readouterr().out == "ready\n"


def test_benchmark_json_lists_the_workloads_and_layer_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in layers.PER_LAYER]
    assert spec["paths"] == [HERE.name]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "move-k4-n64",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def record(workload, seed, value, name="op_s_p50"):
    return {"workload": workload, "trace": 0, "seed": seed,
            "result": {"failed": 0, "metrics": {name: {"value": value, "unit": "s"}}}}


def test_compare_verdicts():
    m = {"name": "op_s_p50", "unit": "s", "better": "lower", "bound": 0.1}
    steady = {s: 1.0 + 0.001 * s for s in range(10)}
    assert compare.verdict(m, steady, {s: v * 1.5 for s, v in steady.items()}) == "worse"
    assert compare.verdict(m, steady, dict(steady)) == "within bound"
    assert compare.verdict(m, steady, {s: v * 0.8 for s, v in steady.items()}).startswith(
        "better")
    wide = {s: 1.0 + 0.1 * s for s in range(10)}
    assert compare.verdict(m, steady, wide) == "unresolved"


def test_compare_report_prints_one_row_per_metric(tmp_path, capsys):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    paths = []
    for side, scale in (("parent", 1.0), ("change", 2.0)):
        path = tmp_path / f"{side}.jsonl"
        path.write_text("".join(json.dumps(record("move-k4-n64", s, scale * (1 + s / 100)))
                                + "\n" for s in range(5)))
        paths.append(str(path))
    compare.report(paths, spec)
    out = capsys.readouterr().out
    assert "move-k4-n64" in out
    row = next(line for line in out.splitlines() if "op_s_p50" in line)
    assert "ratio 2.000x of" in row and row.endswith("worse")
