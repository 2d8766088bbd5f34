"""Compare benchmark records of two commits, on one host only.

    python3 perfbench/compare.py --base A.json [A2.json ...] --new B.json [...]

Each file holds a record written by ``run.py --out``, or a JSON list of
them (as ``baseline.json`` does).  Records are grouped by workload and
trace mode; for each metric the median over each side's records is
shown, and an end-to-end metric that got worse by more than its bound
in ``BENCHMARK.json`` is flagged.

Timings from different hosts say nothing about the code, so the
comparison is refused (exit 2) unless every record carries the same
host fingerprint.  Exit 1 means some metric got worse beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


class HostMismatch(ValueError):
    """The records were measured on hosts with different fingerprints."""


def load(paths: List[str]) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        records.extend(data if isinstance(data, list) else [data])
    return records


def check_same_host(records: List[Dict[str, Any]]) -> None:
    hosts = {json.dumps(r["host"], sort_keys=True) for r in records}
    if len(hosts) > 1:
        raise HostMismatch(
            "refusing to compare records from different hosts: "
            + "; ".join(sorted(hosts)))


def _medians(records: List[Dict[str, Any]]) -> Dict[Tuple, Dict[str, float]]:
    groups: Dict[Tuple, Dict[str, List[float]]] = {}
    for r in records:
        metrics = r["result"]["metrics"]
        group = groups.setdefault((r["workload"], r["trace"]), {})
        for name, m in metrics.items():
            group.setdefault(name, []).append(m["value"])
    return {key: {name: statistics.median(vals) for name, vals in g.items()}
            for key, g in groups.items()}


def compare(base: List[Dict[str, Any]], new: List[Dict[str, Any]],
            bounds: Dict[str, Tuple[str, float]]) -> Tuple[List[str], int]:
    """Report lines and the number of metrics worse beyond their bound.

    ``bounds`` maps an end-to-end metric to ``(better, bound)``.
    Raises :class:`HostMismatch` when the fingerprints differ.
    """
    check_same_host(base + new)
    base_m, new_m = _medians(base), _medians(new)
    lines, worse = [], 0
    for key in sorted(set(base_m) & set(new_m)):
        lines.append(f"{key[0]} (trace={key[1]})")
        for name in sorted(set(base_m[key]) & set(new_m[key])):
            b, n = base_m[key][name], new_m[key][name]
            change = (n - b) / b if b else 0.0
            verdict = ""
            if name in bounds:
                better, bound = bounds[name]
                loss = change if better == "lower" else -change
                verdict = "WORSE" if loss > bound else "ok"
                worse += verdict == "WORSE"
            lines.append(f"  {name:36s} {b:12.6g} -> {n:12.6g} "
                         f"{change:+8.1%} {verdict}")
    return lines, worse


def load_bounds(path: str) -> Dict[str, Tuple[str, float]]:
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    bounds = load_bounds(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    try:
        lines, worse = compare(load(args.base), load(args.new), bounds)
    except HostMismatch as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
