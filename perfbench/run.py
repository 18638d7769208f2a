"""kopt benchmark: one workload per call, each operation checked for correctness.

    python3 perfbench/run.py --workload move-k5-n40 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --sweep 1-10 --trace 0 --out parent.jsonl
    python3 perfbench/run.py --compare parent.jsonl change.jsonl

A run starts fresh worker processes one after another, never two at once.
Untraced, each of two workers sets up (process start, import, inputs, one
cold operation) and then runs its fixed share of the run's warm operations
(--seconds only caps a worker's warm time).
Set-up time and peak memory are medians over the workers, operation time the
median over all their warm operations, each scaled to a reference machine
speed (probe.py); the raw wall times are in the samples line. Traced, one
worker reports the per-layer metrics. The last stdout line is the result object:
    {"correct", "attempted", "failed", "metrics"}
Lines before it give the environment and the samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh processes per untraced run: each gives one set-up sample.
WORKERS = 2
# A run is killed after SLACK_S + WORKERS * --seconds, 170 s at the default
# 30 s. Each worker measures for at most --seconds; the slack covers set-up,
# cold operations, the last operation a worker starts in time, the checks and
# one oracle call (an untraced move-k5-n40 run takes about 70 s, 90 s with
# the oracle).
SLACK_S = 110.0

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_worker(cfg: dict, deadline: float) -> tuple[float, dict]:
    """Start one worker; return (set-up seconds, its result object)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or code != 0 or not rest:
        raise RuntimeError(f"a {cfg['workload']} worker failed with exit code {code}")
    return setup_s, json.loads(rest[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[workload]
    pinned = w.pinned_gain.get(seed)
    workers = 1 if trace else WORKERS
    deadline = time.perf_counter() + SLACK_S + WORKERS * seconds
    setups, outs = [], []
    for index in range(workers):
        cfg = {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "index": index, "workers": workers,
            # one oracle call per run, in the last worker, after its timing
            "oracle": index == workers - 1 and (trace or pinned is None),
        }
        setup_s, out = run_worker(cfg, deadline)
        setups.append(setup_s)
        outs.append(out)

    failures = [f for out in outs for f in out["failures"]]
    ops = [op for out in outs for op in out["ops"]]
    # a move's gain must equal the pinned gain and the oracle's, where known;
    # when the two disagree, every operation fails
    expected = {g for g in (pinned, outs[-1]["oracle_gain"]) if g is not None}
    if w.kind == "move":
        failures += [f"gain {op['gain']} != expected {sorted(expected)}"
                     for op in ops if op["ok"] and {op["gain"]} != expected]
    attempted = len(ops)
    failed = sum(not op["ok"] or (w.kind == "move" and {op["gain"]} != expected)
                 for op in ops)

    op_s = [s for out in outs for s in out.get("op_s", [])]
    op_scaled_s = [s for out in outs for s in out.get("op_scaled_s", [])]
    if trace:
        metrics = {name: {"value": outs[0]["layers"][name], "unit": unit}
                   for name, unit in ((m["name"], m["unit"]) for m in spec()["per_layer"])}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_s_p50": statistics.median(op_scaled_s) if op_scaled_s else 0.0,
            "peak_rss_mb": statistics.median(out["rss_mb"] for out in outs),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec()["end_to_end"]}
    env = dict(outs[0]["env"], commit=commit(), source_digest=source_digest(),
               buckets=outs[0]["buckets"])
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env,
        "samples": {"setup_s": setups, "op_s": op_s, "op_scaled_s": op_scaled_s,
                    "rss_mb": [out["rss_mb"] for out in outs if "rss_mb" in out]},
        "failed_frac": failed / attempted,
        "failures": failures[:5],
        "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def sweep(workloads: list[str], seeds: list[int], seconds: float, trace: int, out: str):
    """Run this script once per (workload, seed), one after another."""
    for workload in workloads:
        for seed in seeds:
            subprocess.run([sys.executable, __file__, "--workload", workload, "--seed",
                            str(seed), "--seconds", str(seconds), "--trace", str(trace),
                            "--out", out], check=True, stdout=subprocess.DEVNULL)
    import compare

    compare.report([out], spec())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append each run's record to this JSON-lines file")
    p.add_argument("--sweep", metavar="SEEDS", help="seed range such as 1-10")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = p.parse_args(argv)
    # exit through the finally blocks, which stop a running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if args.compare:
        import compare

        compare.report(args.compare, spec())
        return 0
    if not (SRC / "kopt" / "__init__.py").is_file():
        print(f"no kopt sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        p.error("--seed must be >= 0")
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    workloads = args.workload or sorted(WORKLOADS)
    if args.sweep:
        if not args.out:
            p.error("--sweep needs --out")
        sweep(workloads, parse_seeds(args.sweep), seconds, args.trace, args.out)
        return 0
    if len(workloads) != 1:
        p.error("give exactly one --workload")

    record = measure(workloads[0], args.seed, seconds, bool(args.trace))
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps({"env": record["env"]}))
    print(json.dumps({"samples": record["samples"], "failed_frac": record["failed_frac"],
                      "failures": record["failures"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
