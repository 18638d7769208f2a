"""One workload process: set up, run a cold operation, then warm operations.

Started by run.py with one JSON argument:
    {"workload", "seed", "seconds", "trace", "index", "workers", "oracle"}
It prints "ready" once the cold operation has returned (run.py times set-up
up to that line), and a JSON object with its samples as its last line.

Untraced, a run's operations 0 .. ops - 1 (`Workload.ops`) are dealt
round-robin: worker `index` of `workers` runs index, index+workers, ... in
order, back to back, and the first is its cold operation. A move operation
repeats the workload's one input; search operation i takes search input i. So
every run times the same operations whatever the program's speed; `seconds`
only caps a worker's warm time, for a much slower program. A SpeedProbe runs
beside the warm operations, and their times are also reported scaled to the
probe's reference speed. Traced, each input is run once untraced and once
traced, in passes over a fixed list of inputs, until `seconds` have passed,
so that counts repeat exactly between runs.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

import numpy as np

import layers
from probe import SpeedProbe
from tracer import Target, Tracer
from workloads import ORACLE_BUDGET, WORKLOADS, Inputs, check_move, check_search, run_op

TRACED_SEARCHES = 3  # inputs 1..3; input 0 is the cold operation


class Run:
    def __init__(self, cfg: dict):
        import kopt
        from kopt import buckets, dpengine, moves, oracle

        self.kopt, self.dpengine, self.moves, self.oracle = kopt, dpengine, moves, oracle
        self.order_edges = buckets.order_edges
        self.cfg = cfg
        self.w = WORKLOADS[cfg["workload"]]
        self.inputs = Inputs(kopt, self.w, cfg["seed"])
        self.ops: list[dict] = []  # per attempted operation: {"gain", "ok"}
        self.failures: list[str] = []
        self.oracle_memo: dict = {}
        self.oracle_s: float | None = None

    def op(self, i: int):
        """One operation on input i; returns (instance, tour, result or None,
        seconds)."""
        inst, tour = self.inputs.get(i)
        start = time.perf_counter()
        try:
            out = run_op(self.dpengine, self.w, inst, tour)
        except Exception as exc:  # a failing operation must not stop the run
            self.ops.append({"gain": None, "ok": False})
            self.failures.append(f"op on input {i} raised {exc!r}")
            return inst, tour, None, time.perf_counter() - start
        return inst, tour, out, time.perf_counter() - start

    def check(self, inst, tour, out) -> None:
        """Check one returned result; run.py compares move gains with the
        expected gain."""
        if out is None:
            return
        gain = None
        try:
            if self.w.kind == "move":
                gain = out.gain
                fails = check_move(self.kopt, inst, tour, out)
            else:
                start = time.perf_counter()
                known = len(self.oracle_memo)
                fails = check_search(self.kopt, self.oracle, self.w, inst,
                                     tour, out, self.oracle_memo)
                if self.oracle_s is None and len(self.oracle_memo) > known:
                    self.oracle_s = time.perf_counter() - start
        except Exception as exc:
            fails = [f"check raised {exc!r}"]
        self.ops.append({"gain": gain, "ok": not fails})
        self.failures.extend(fails)

    def move_oracle(self) -> int:
        start = time.perf_counter()
        value = self.oracle.naive_best_move(*self.inputs.get(0), self.w.k, ORACLE_BUDGET).value
        self.oracle_s = time.perf_counter() - start
        return value

    def untraced(self) -> dict:
        spy = Tracer()
        make_buckets = Target(self.dpengine, "make_buckets", "buckets.make_buckets",
                              keep_result=True)
        index, workers = self.cfg["index"], self.cfg["workers"]
        with spy.installed([make_buckets]):
            cold = self.op(index)
        print("ready", flush=True)
        buckets = layers.bucket_choice(spy.take())

        done = []
        deadline = time.perf_counter() + self.cfg["seconds"]
        with SpeedProbe() as probe:
            for i in range(index + workers, self.w.ops, workers):
                if done and time.perf_counter() >= deadline:
                    break
                done.append(self.op(i))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        for res in [cold] + done:
            self.check(*res[:3])
        op_s = [s for _, _, out, s in done if out is not None]
        return {
            "op_s": op_s,
            "op_scaled_s": [s * probe.factor() for s in op_s],
            "rss_mb": rss_mb,
            "buckets": buckets,
        }

    def traced(self) -> dict:
        tracer = Tracer()
        targets = layers.targets(self.dpengine, self.moves)
        solve_fixed = getattr(self.dpengine, "solve_fixed", None)

        def traced_op(i):
            with tracer.installed(targets):
                res = self.op(i)
            spans = tracer.take()
            return res, layers.op_values(spans, solve_fixed, self.order_edges), spans

        cold, cold_values, cold_spans = traced_op(0)
        print("ready", flush=True)
        self.check(*cold[:3])
        buckets = layers.bucket_choice(cold_spans)
        del cold_spans

        plain_s, traced_s, values = [], [], []
        indices = [0] if self.w.kind == "move" else range(1, 1 + TRACED_SEARCHES)
        deadline = time.perf_counter() + self.cfg["seconds"]
        while not values or time.perf_counter() < deadline:
            for i in indices:
                res = self.op(i)
                plain_s.append(res[-1])
                self.check(*res[:3])
                res, v, _ = traced_op(i)
                traced_s.append(res[-1])
                values.append(v)
                self.check(*res[:3])

        metrics = {m: statistics.fmean(v[m] for v in values) for m in values[0]}
        metrics.update({f"cold.{m}": v for m, v in cold_values.items()
                        if f"cold.{m}" in layers.COLD})
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_s) / statistics.median(plain_s) - 1)
        return {"layers": metrics, "buckets": buckets}

    def main(self) -> dict:
        if self.cfg["trace"]:
            threads = int(os.environ.get("KOPT_THREADS") or 1)
            if threads > 1:
                raise SystemExit("tracing needs one solver thread: unset KOPT_THREADS")
            out = self.traced()
        else:
            out = self.untraced()
        oracle_gain = None
        if self.w.kind == "move" and self.cfg["oracle"]:
            oracle_gain = self.move_oracle()
        if self.cfg["trace"]:
            out["layers"]["oracle.naive_best_move.s"] = self.oracle_s
        out.update(
            ops=self.ops,
            failures=self.failures,
            oracle_gain=oracle_gain,
            env={
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "kopt_file": self.kopt.__file__,
                "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)),
                "KOPT_THREADS": os.environ.get("KOPT_THREADS"),
            },
        )
        return out


if __name__ == "__main__":
    result = Run(json.loads(sys.argv[1])).main()
    print(json.dumps(result))
