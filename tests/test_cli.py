"""Command-line interface flows and file formats."""

import json

import pytest

from kopt.cli import main
from kopt.instance import (
    Tour,
    euclidean_instance,
    gen_random,
    instance_to_json,
    random_tour,
    tour_to_json,
)


def write_pair(tmp_path, inst, tour):
    ipath = tmp_path / "inst.json"
    tpath = tmp_path / "tour.json"
    ipath.write_text(instance_to_json(inst))
    tpath.write_text(tour_to_json(tour))
    return str(ipath), str(tpath)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_find_move_exit_1_on_local_optimum(tmp_path, capsys):
    inst = euclidean_instance([(0, 0), (10, 0), (10, 10), (0, 10)])
    ipath, tpath = write_pair(tmp_path, inst, Tour((1, 2, 3, 4)))
    code, out = run(
        capsys, ["find-move", "--k", "2", "--in", ipath, "--tour", tpath]
    )
    payload = json.loads(out)
    assert code == 1
    assert payload["gain"] <= 0
    assert payload["improving"] is False


def test_find_move_bad_input_exit_2(tmp_path, capsys):
    ipath = tmp_path / "inst.json"
    ipath.write_text('{"n": 2, "weights": [[0, 1], [1, 0]]}')
    tpath = tmp_path / "tour.json"
    tpath.write_text('{"order": [1, 2]}')
    code, _ = run(capsys, ["find-move", "--k", "2", "--in", str(ipath), "--tour", str(tpath)])
    assert code == 2


def test_find_move_refuses_too_many_bucket_assignments(tmp_path, capsys, monkeypatch):
    from kopt import dpengine

    def fail(*args):
        raise AssertionError("enumerate_assignments must not run")

    monkeypatch.setattr(dpengine, "enumerate_assignments", fail)
    ipath, tpath = write_pair(tmp_path, gen_random(200, 0, 100), random_tour(200, 1))
    code = main(["find-move", "--k", "5", "--alpha", "0", "--in", ipath, "--tour", tpath])
    assert code == 2
    assert "2,802,350,040 bucket assignments of 5 slots to 200 buckets" in capsys.readouterr().err


def test_find_move_refuses_too_many_cells(tmp_path, capsys, monkeypatch):
    from kopt import dpengine

    def fail(*args):
        raise AssertionError("no plan may run")

    monkeypatch.setattr(dpengine, "_run_plan", fail)
    ipath, tpath = write_pair(tmp_path, gen_random(12, 0, 100), random_tour(12, 1))
    code = main(["find-move", "--k", "6", "--alpha", "0", "--in", ipath, "--tour", tpath])
    assert code == 2
    assert "3,840 valid patterns times 12,376 bucket assignments make 47,523,840 cells" in (
        capsys.readouterr().err)


def test_a_table_too_large_for_memory_is_refused_before_it_runs(tmp_path, capsys, monkeypatch):
    """k = 4 at alpha 1: the plans that build at most s^2 entries whole run,
    and the first whose forget-into op builds s^3 entries whole is refused,
    exit 2 with one error line naming the numbers (n = 100 under a bound of
    one byte less than that table). k = 3 on 400 vertices is not refused
    under the real bound: its 3-slot tables are summed in slices, so it
    builds at most 400^2 entries whole. With no bytes to spare, find-move,
    local-search and solve_fixed each refuse their first plan before
    _run_plan is called."""
    from kopt import dpengine
    from kopt.buckets import make_buckets
    from kopt.moves import valid_patterns

    def lines(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err.splitlines()

    small = write_pair(tmp_path, gen_random(400, 1, 10000), random_tour(400, 2))
    code, out, err = lines(["find-move", "--k", "3", "--in", small[0], "--tour", small[1]])
    assert code in (0, 1) and json.loads(out)["gain"] is not None
    assert not any(line.startswith("error:") for line in err)

    runs = []
    real = dpengine._run_plan
    monkeypatch.setattr(dpengine, "_run_plan", lambda *a, **kw: runs.append(a) or real(*a, **kw))
    monkeypatch.setattr(dpengine, "MAX_TABLE_BYTES", 4 * 100**3 - 1)
    ipath, tpath = write_pair(tmp_path, gen_random(100, 0, 10000), random_tour(100, 1))
    code, out, err = lines(["find-move", "--k", "4", "--alpha", "1", "--in", ipath,
                            "--tour", tpath])
    assert (code, out, len(err)) == (2, "", 1)
    assert err[0].startswith("error: one cell's DP table holds 100^3 = 1,000,000 entries,"
                             " 4,000,000 bytes; at most 3,999,999 fit in memory")
    assert runs and max(plan.whole_width for plan, _ in runs) == 2

    def fail(*args, **kwargs):
        raise AssertionError("no plan may run")

    monkeypatch.setattr(dpengine, "_run_plan", fail)
    monkeypatch.setattr(dpengine, "MAX_TABLE_BYTES", 0)
    ipath, tpath = write_pair(tmp_path, gen_random(12, 3, 100), random_tour(12, 4))
    for command in ("find-move", "local-search"):
        code, out, err = lines([command, "--k", "3", "--in", ipath, "--tour", tpath])
        assert (code, out, len(err)) == (2, "", 1) and "fit in memory" in err[0]
    with pytest.raises(ValueError, match="at most 0 fit in memory"):
        dpengine.solve_fixed(gen_random(12, 3, 100), random_tour(12, 4), valid_patterns(3)[0],
                             (1, 1, 1), make_buckets(12, 1))


def test_oracle_best_move_refuses_its_budget_before_listing_patterns(
    tmp_path, capsys, monkeypatch
):
    from kopt import oracle

    def fail(k):
        raise AssertionError("valid_patterns must not run")

    monkeypatch.setattr(oracle, "valid_patterns", fail)
    ipath, tpath = write_pair(tmp_path, gen_random(16, 0, 100), random_tour(16, 1))
    code = main(["oracle", "best-move", "--k", "8", "--in", ipath, "--tour", tpath])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: 8302694400 candidate moves exceed budget 100000000\n"
    )


def test_local_search_zero_steps_outputs_input_tour(tmp_path, capsys):
    inst = gen_random(10, 7, 100)
    tour = random_tour(10, 8)
    ipath, tpath = write_pair(tmp_path, inst, tour)
    code, out = run(
        capsys,
        [
            "local-search",
            "--k",
            "3",
            "--max-steps",
            "0",
            "--in",
            ipath,
            "--tour",
            tpath,
        ],
    )
    payload = json.loads(out)
    assert code == 0
    assert tuple(payload["tour"]["order"]) == tour.order
    assert payload["steps"] == []


def test_local_search_improves_crossing_square(tmp_path, capsys):
    inst = euclidean_instance([(0, 0), (10, 0), (10, 10), (0, 10)])
    ipath, tpath = write_pair(tmp_path, inst, Tour((1, 3, 2, 4)))
    code, out = run(
        capsys, ["local-search", "--k", "2", "--in", ipath, "--tour", tpath]
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["final_weight"] == 40
    assert [s["gain"] for s in payload["steps"]] == [8]


@pytest.mark.parametrize(
    "k,expected",
    [(5, {"c": "11/3", "alpha": "2/3"}), (2, {"c": "2", "alpha": "1"})],
)
def test_ck_json(capsys, k, expected):
    code, out = run(capsys, ["ck", "--k", str(k)])
    payload = json.loads(out)
    assert code == 0
    assert payload["k"] == k
    assert payload["c"] == expected["c"]
    assert payload["alpha"] == expected["alpha"]


def test_ck_refuses_large_k(capsys):
    code, _ = run(capsys, ["ck", "--k", "9"])
    assert code == 2


def test_ck_per_pattern(capsys):
    code, out = run(capsys, ["ck", "--k", "3", "--per-pattern"])
    assert code == 0
    payload = json.loads(out)
    assert payload["per_pattern"]
    assert sum(rep["pattern_count"] for rep in payload["per_pattern"]) == 8


def test_patterns_counts(capsys):
    # at k=12, (23)!! matchings: counted from closed forms, not enumerated
    for k, total, valid in ((4, 105, 48), (12, 316234143225, 81749606400)):
        code, out = run(capsys, ["patterns", "--k", str(k)])
        assert code == 0
        assert json.loads(out) == {"k": k, "total": total, "valid": valid}


def test_gen_random_deterministic(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for prefix in (a, b):
        code, _ = run(
            capsys,
            [
                "gen",
                "--type",
                "random",
                "--n",
                "10",
                "--seed",
                "1",
                "--out-prefix",
                str(prefix),
            ],
        )
        assert code == 0
    assert (tmp_path / "a.instance.json").read_text() == (
        tmp_path / "b.instance.json"
    ).read_text()


def test_gen_neg_triangle_writes_both_files(tmp_path, capsys):
    prefix = tmp_path / "redu"
    code, _ = run(
        capsys,
        [
            "gen",
            "--type",
            "neg-triangle",
            "--n",
            "3",
            "--weights",
            "1,1,-3",
            "--out-prefix",
            str(prefix),
        ],
    )
    assert code == 0
    inst = json.loads((tmp_path / "redu.instance.json").read_text())
    tour = json.loads((tmp_path / "redu.tour.json").read_text())
    assert inst["n"] == 12
    assert len(tour["order"]) == 12


def test_gen_rejects_bad_sizes(capsys):
    code, _ = run(
        capsys, ["gen", "--type", "random", "--n", "3", "--out-prefix", "x"]
    )
    assert code == 2


def test_oracle_neg_triangle(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 3, "weights": [[0, 1, -3], [1, 0, 1], [-3, 1, 0]]}))
    code, out = run(capsys, ["oracle", "neg-triangle", "--in", str(path)])
    payload = json.loads(out)
    assert code == 0
    assert payload["negative_triangle"] is True
    assert payload["witness"]["vertices"] == [1, 2, 3]


def test_oracle_treewidth(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(
        json.dumps({"k": 5, "edges": [[a, b] for a in range(1, 6) for b in range(a + 1, 6)]})
    )
    code, out = run(capsys, ["oracle", "treewidth", "--graph", str(path)])
    assert code == 0
    assert json.loads(out)["width"] == 4


@pytest.mark.parametrize("k,n,seed", [(2, 9, 9), (3, 10, 5)], ids=["k2", "k3"])
def test_oracle_best_move_matches_find_move(tmp_path, capsys, k, n, seed):
    inst = gen_random(n, seed, 100)
    tour = random_tour(n, seed + 1)
    ipath, tpath = write_pair(tmp_path, inst, tour)
    move_args = ["--k", str(k), "--in", ipath, "--tour", tpath]
    code_dp, out_dp = run(capsys, ["find-move", *move_args])
    code_or, out_or = run(capsys, ["oracle", "best-move", *move_args])
    dp, orc = json.loads(out_dp), json.loads(out_or)
    assert dp["gain"] == orc["gain"]
    assert dp["improving"] == orc["improving"]
    assert code_dp == code_or == (0 if dp["improving"] else 1)
    for key in ("k", "removed", "added", "gain", "pattern", "embedding"):
        assert key in dp and key in orc


@pytest.mark.parametrize("command", ["find-move", "local-search"])
def test_move_commands_reject_mode(tmp_path, command):
    ipath, tpath = write_pair(tmp_path, gen_random(8, 1, 100), random_tour(8, 2))
    argv = [command, "--k", "2", "--mode", "naive", "--in", ipath, "--tour", tpath]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


SQUARE_TOUR = '{"order": [1, 2, 3, 4]}'
SQUARE = instance_to_json(euclidean_instance([(0, 0), (10, 0), (10, 10), (0, 10)]))


@pytest.mark.parametrize(
    "command,files",
    [
        pytest.param(
            ["oracle", "best-move", "--k", "5"],
            {"--in": instance_to_json(gen_random(200, 0, 100)),
             "--tour": tour_to_json(random_tour(200, 1))},
            id="oracle-best-move-over-budget",
        ),
        pytest.param(
            ["oracle", "treewidth"],
            {"--graph": json.dumps({"k": 9, "edges": [[1, 2]]})},
            id="oracle-treewidth-over-budget",
        ),
        pytest.param(
            ["oracle", "treewidth"],
            {"--graph": "[[1, 2], [2, 3]]"},
            id="graph-not-an-object",
        ),
        pytest.param(
            ["oracle", "treewidth"],
            {"--graph": json.dumps({"k": 3.7, "edges": [[1, 2]]})},
            id="graph-k-not-an-integer",
        ),
        pytest.param(
            ["oracle", "treewidth"],
            {"--graph": json.dumps({"k": 3, "edges": [[1, 2.5]]})},
            id="graph-edge-not-an-integer-pair",
        ),
        pytest.param(
            ["oracle", "neg-triangle"],
            {"--in": json.dumps({"weights": [[0, 1, -3], [1, 0, 1], [-3, 1, 0]]})},
            id="reduction-input-missing-key",
        ),
        pytest.param(
            ["oracle", "neg-triangle"],
            {"--in": json.dumps({"n": 3.0, "weights": [[0, 1, -3], [1, 0, 1], [-3, 1, 0]]})},
            id="reduction-input-n-not-an-integer",
        ),
        pytest.param(
            ["oracle", "neg-triangle"],
            {"--in": json.dumps({"n": 3, "weights": [[0, 1.5, -3], [1.5, 0, 1], [-3, 1, 0]]})},
            id="reduction-input-weight-not-an-integer",
        ),
        pytest.param(
            ["find-move", "--k", "2"],
            {"--in": SQUARE, "--tour": '{"order": 5}'},
            id="tour-order-not-a-list",
        ),
        pytest.param(
            ["find-move", "--k", "2"],
            {"--in": SQUARE, "--tour": "[1, 2, 3, 4]"},
            id="tour-not-an-object",
        ),
        pytest.param(
            ["find-move", "--k", "2"],
            {"--in": SQUARE, "--tour": '{"tour": [1, 2, 3, 4]}'},
            id="tour-missing-key",
        ),
        pytest.param(
            ["find-move", "--k", "2"],
            {"--in": SQUARE, "--tour": '{"order": [2.5, 1, 3, 4]}'},
            id="tour-entry-not-an-integer",
        ),
        pytest.param(
            ["find-move", "--k", "2"],
            {"--in": '{"n": 4}', "--tour": SQUARE_TOUR},
            id="instance-missing-key",
        ),
        pytest.param(
            ["find-move", "--k", "2"],
            {"--in": SQUARE.replace('"n": 4', '"n": 4.5'), "--tour": SQUARE_TOUR},
            id="instance-field-of-wrong-type",
        ),
        pytest.param(
            ["find-move", "--k", "2"],
            {"--in": SQUARE.replace("10,", "10.5,"), "--tour": SQUARE_TOUR},
            id="instance-weight-not-an-integer",
        ),
        pytest.param(
            ["local-search", "--k", "2", "--max-steps", "-3"],
            {"--in": SQUARE, "--tour": SQUARE_TOUR},
            id="negative-max-steps",
        ),
        pytest.param(["patterns", "--k", "9", "--list"], {}, id="pattern-list-beyond-solver-k"),
    ],
)
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, command, files):
    argv = list(command)
    for i, (flag, text) in enumerate(files.items()):
        path = tmp_path / f"input{i}.json"
        path.write_text(text)
        argv += [flag, str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_package_exports_only_the_entry_points():
    import kopt

    assert sorted(kopt.__all__) == [
        "Instance",
        "InvariantError",
        "Tour",
        "apply_move",
        "best_move",
        "gen_random",
        "local_search",
        "naive_best_move",
        "random_tour",
        "tour_weight",
    ]
    for name in kopt.__all__:
        assert getattr(kopt, name) is not None


def test_tsplib_input_accepted(tmp_path, capsys):
    from kopt.instance import write_tsplib

    inst = euclidean_instance([(0, 0), (10, 0), (10, 10), (0, 10), (5, 20)])
    ipath = tmp_path / "inst.tsp"
    ipath.write_text(write_tsplib(inst))
    tpath = tmp_path / "tour.json"
    tpath.write_text(tour_to_json(Tour((1, 3, 2, 4, 5))))
    code, out = run(
        capsys, ["find-move", "--k", "2", "--in", str(ipath), "--tour", str(tpath)]
    )
    assert code in (0, 1)
    assert "gain" in json.loads(out)
