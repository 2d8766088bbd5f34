"""Benchmark: host cost of simulating the paper's two connection regimes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--out FILE]

Run it from the repository root.  Each repetition sets up and simulates
the workload's job in a fresh interpreter (``rep.py``).  With ``--trace 0`` repetitions run
back to back until ``--seconds`` have passed (at least two) and the
end-to-end metrics are their medians; a workload with ``jobs`` above one
runs that many jobs per repetition, after one set-up, and ``wall_s`` and
``events_per_s`` are medians over all of them.  With ``--trace 1`` one
untraced and one traced repetition of a single job run, and the
per-layer metrics come from the traced one.
Every repetition's simulated outputs are checked against the outputs
pinned in ``workloads.py``; a mismatch or a ``JobError`` counts as a
failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` also
writes the full record (seed, host fingerprint, every repetition) for
``compare.py``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import layers
from workloads import WORKLOADS, Workload, check_outputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: a run must end within this many seconds, whatever --seconds says
RUN_DEADLINE_S = 170.0

#: untraced repetitions per run, however long they take: a median of
#: one sample would be one repetition's noise
MIN_REPS = 2

MB = 1024 * 1024

#: name -> (unit, better), measured with tracing off
END_TO_END = {
    "wall_s": ("s", "lower"),
    "events_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "result_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better), measured by the traced run
PER_LAYER: Dict[str, tuple] = {}
for _layer in layers.ALL_LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.share"] = ("fraction", "lower")
PER_LAYER.update({
    "mpi.device_checks": ("count", "lower"),
    "mpi.blocking_waits": ("count", "lower"),
    "mpi.device_checks_per_msg": ("1/msg", "lower"),
    "mpi.conn_checks_per_msg": ("1/msg", "lower"),
    "mpi.credit_checks_per_msg": ("1/msg", "lower"),
    "mpi.progress_ratio": ("fraction", "higher"),
    "mpi.credit_msgs": ("count", "lower"),
    "sim.events": ("count", "lower"),
    "sim.timeouts": ("count", "lower"),
    "via.post_sends": ("count", "lower"),
    "via.cq_polls": ("count", "lower"),
    "via.cq_hit_ratio": ("fraction", "higher"),
    "via.vis_created": ("count", "lower"),
    "via.connect_polls_per_conn": ("1/conn", "lower"),
    "fabric.packets": ("count", "lower"),
    "memory.buffer_acquires": ("count", "lower"),
    "memory.registrations": ("count", "lower"),
    "memory.pinned_peak_mb": ("MB", "lower"),
    "memory.host_bytes_per_pinned_byte": ("ratio", "lower"),
    "cluster.build_s": ("s", "lower"),
    "analysis.analyze_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
})


def host_fingerprint() -> Dict[str, Any]:
    """What makes timings from two hosts incomparable."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, "cpu_count": os.cpu_count(),
            "python": platform.python_version()}


def run_rep(workload: Workload, seed: int, trace: bool,
            timeout_s: float, jobs: int = 1) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; its JSON report."""
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", workload.name, "--seed", str(seed),
           "--jobs", str(jobs)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition timed out after {timeout_s:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"repetition exited {proc.returncode}: "
                         + " | ".join(tail)}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rep_problems(workload: Workload, seed: int, rep: Dict[str, Any],
                 reference: Optional[Dict[str, Any]]) -> List[str]:
    if rep.get("error"):
        return [rep["error"]]
    return check_outputs(workload, seed, rep["outputs"], reference)


def end_to_end_metrics(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over the repetitions that ran, and over all their jobs."""
    timed = [r for r in reps if r.get("events")]
    jobs = [(r["events"], w) for r in timed for w in r["job_wall_s"]]
    return {
        "wall_s": statistics.median(w for _, w in jobs),
        "events_per_s": statistics.median(e / w for e, w in jobs),
        "setup_s": statistics.median(r["setup_s"] for r in timed),
        "result_s": statistics.median(
            r["setup_s"] + r["wall_s"] for r in timed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }


def per_layer_metrics(untraced: Dict[str, Any],
                      traced: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of a traced repetition and its untraced twin."""
    self_s = traced["layers"]
    total = sum(self_s.values())
    counts, res, outputs = traced["counts"], traced["resources"], traced["outputs"]
    post_sends = counts["post_sends"]

    def per(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: Dict[str, float] = {}
    for layer in layers.ALL_LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = per(self_s[layer], total)
    pinned_mb = outputs["pinned_peak_bytes"] / MB
    metrics.update({
        "mpi.device_checks": res["device_checks"],
        "mpi.blocking_waits": res["blocking_waits"],
        "mpi.device_checks_per_msg": per(res["device_checks"], post_sends),
        "mpi.conn_checks_per_msg": per(counts["conn_checks"], post_sends),
        "mpi.credit_checks_per_msg": per(counts["credit_checks"], post_sends),
        "mpi.progress_ratio": per(counts["progress_passes"], counts["passes"]),
        "mpi.credit_msgs": counts["credit_msgs"],
        "sim.events": traced["events"],
        "sim.timeouts": counts["timeouts"],
        "via.post_sends": post_sends,
        "via.cq_polls": counts["cq_polls"],
        "via.cq_hit_ratio": per(counts["cq_hits"], counts["cq_polls"]),
        "via.vis_created": res["vis_created"],
        "via.connect_polls_per_conn": per(counts["connect_polls"],
                                          outputs["total_connections"]),
        "fabric.packets": counts["packets"],
        "memory.buffer_acquires": counts["buffer_acquires"],
        "memory.registrations": counts["registrations"],
        "memory.pinned_peak_mb": pinned_mb,
        "memory.host_bytes_per_pinned_byte": per(untraced["peak_rss_mb"],
                                                 pinned_mb),
        "cluster.build_s": counts["build_s"],
        "analysis.analyze_s": counts["analyze_s"],
        "trace.overhead": per(traced["setup_s"] + traced["wall_s"],
                              untraced["setup_s"] + untraced["wall_s"]),
    })
    return metrics


def run(workload: Workload, seed: int, seconds: float,
        trace: bool) -> Dict[str, Any]:
    """Run the repetitions and check them; the full record."""
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    reps: List[Dict[str, Any]] = []
    if trace:
        for traced in (False, True):
            reps.append(run_rep(workload, seed, traced,
                                deadline - time.perf_counter()))
            if reps[-1].get("error"):
                break
    else:
        last_s = 0.0
        while len(reps) < MIN_REPS or time.perf_counter() - start < seconds:
            now = time.perf_counter()
            if reps and now + last_s > deadline:
                break
            reps.append(run_rep(workload, seed, False, deadline - now,
                                workload.jobs))
            last_s = time.perf_counter() - now
            if reps[-1].get("error"):
                break
    problems: List[List[str]] = []
    for rep in reps:
        reference = reps[0].get("outputs") if rep is not reps[0] else None
        problems.append(rep_problems(workload, seed, rep, reference))
    failed = sum(1 for p in problems if p)
    metrics: Optional[Dict[str, float]] = None
    if any(r.get("events") for r in reps):
        if not trace:
            metrics = end_to_end_metrics(reps)
        elif len(reps) == 2 and "layers" in reps[1]:
            metrics = per_layer_metrics(*reps)
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "host": host_fingerprint(), "reps": reps,
        "problems": problems,
        "result": {"correct": failed == 0 and metrics is not None,
                   "attempted": len(reps), "failed": failed,
                   "metrics": metrics},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Host cost of simulating on-demand and static "
                    "connection management, end to end and per layer.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full record here (JSON)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # byte-compile up front: a fresh checkout would otherwise charge
    # compilation to the first repetition's set-up
    compileall.compile_dir(os.path.join(SRC, "repro"), quiet=1)

    workload = WORKLOADS[args.workload]
    record = run(workload, args.seed, args.seconds, bool(args.trace))
    result = record["result"]
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"repetitions={result['attempted']} host={json.dumps(record['host'])}")
    for i, problem in enumerate(record["problems"]):
        for line in problem:
            print(f"FAILED repetition {i}: {line}")
    if result["metrics"] is None:
        print("perfbench: no repetition produced metrics", file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    result["metrics"] = {name: {"value": result["metrics"][name],
                                "unit": units[name][0]} for name in units}
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
