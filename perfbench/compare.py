"""Summarise one result set, or compare two, from run.py's JSON-lines records.

One file: each workload's metrics as median, quartiles and spread, where the
spread is the distance between the first and third quartile over the median.
Two files (parent, change): one row per workload and metric with the parent
median, the change median and their ratio with its base. An end-to-end metric
is "unresolved" when either side's spread is wider than its bound, unless every
change run beats every parent run.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path: str) -> dict[tuple[str, int], list[dict]]:
    """(workload, trace) -> records, in file order."""
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def stats(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def metric_defs(spec: dict) -> dict[str, dict]:
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def values_of(records: list[dict], name: str) -> dict[int, float]:
    """seed -> value; the last record wins when a seed repeats."""
    return {r["seed"]: r["result"]["metrics"][name]["value"] for r in records
            if name in r["result"]["metrics"]}


def verdict(m: dict, parent: dict[int, float], change: dict[int, float]) -> str:
    if "bound" not in m:
        return ""
    lower = m["better"] == "lower"
    p_med, _, _, p_spread = stats(list(parent.values()))
    c_med, _, _, c_spread = stats(list(change.values()))

    def better(a, b):
        return a < b if lower else a > b

    if all(better(c, p) for c in change.values() for p in parent.values()):
        return "better (every run)"
    if max(p_spread, c_spread) > m["bound"]:
        return "unresolved"
    worse_by = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    if worse_by > m["bound"]:
        return "worse"
    pairs = [s for s in parent if s in change]
    wins = sum(better(change[s], parent[s]) for s in pairs)
    _, p_q1, p_q3, _ = stats(list(parent.values()))
    if pairs and wins >= 0.9 * len(pairs) and abs(c_med - p_med) > p_q3 - p_q1:
        return "better"
    return "within bound"


def report(paths: list[str], spec: dict) -> None:
    defs = metric_defs(spec)
    sets = [load(p) for p in paths]
    for key in sorted(set().union(*sets)):
        workload, trace = key
        print(f"\n== {workload} (trace {trace}) ==")
        groups = [s.get(key, []) for s in sets]
        names = sorted({n for g in groups for r in g for n in r["result"]["metrics"]})
        failed = [sum(r["result"]["failed"] for r in g) for g in groups]
        print("runs " + " / ".join(str(len(g)) for g in groups)
              + ", failed operations " + " / ".join(map(str, failed)))
        for name in names:
            m = defs.get(name, {"name": name})
            unit = m.get("unit", "")
            vals = [values_of(g, name) for g in groups]
            if len(paths) == 1:
                med, q1, q3, spread = stats(list(vals[0].values()))
                flag = ""
                if "bound" in m:
                    flag = ("steady" if spread < m["bound"] / 3 else
                            "within bound" if spread <= m["bound"] else "TOO WIDE")
                print(f"  {name:40s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}"
                      f"  spread {spread:.3f}  n={len(vals[0])}  {flag}")
                continue
            if not vals[0] or not vals[1]:
                print(f"  {name:40s} missing on one side")
                continue
            (p_med, _, _, p_spread), (c_med, _, _, c_spread) = (
                stats(list(v.values())) for v in vals)
            ratio = f"{c_med / p_med:.3f}x of {p_med:.6g} {unit}" if p_med else "n/a"
            print(f"  {name:40s} parent {p_med:.6g}  change {c_med:.6g}  ratio {ratio}"
                  f"  spread {p_spread:.3f}/{c_spread:.3f}  {verdict(m, *vals)}")
