"""One repetition of a benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/rep.py --workload NAME --seed N
                                            [--jobs J] [--trace]

Builds the workload's rank program (plus, under the ``predicted``
mechanism, its comm graph), runs the job ``J`` times through ``run_job`` and
prints one JSON object: host timings, peak RSS and the simulated
outputs.  With
``--trace`` the whole repetition runs under cProfile with the counting
wrappers of ``layers.py`` installed, and the object also carries the
per-layer self times and work counters.

A fresh interpreter per repetition means the analyzer's per-process
cache and ``ru_maxrss`` start empty, as in every sweep worker and CLI
call.  ``run.py`` starts it; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

# imported before the clock starts: interpreter and numpy start-up are
# not part of the measured set-up
import numpy  # noqa: F401

import layers
from workloads import WORKLOADS, Workload


def simulate(workload: Workload, seed: int, jobs: int = 1) -> dict:
    """Set up once and run the job ``jobs`` times; timings and outputs.

    ``wall_s`` is the median of the jobs' times (each in ``job_wall_s``).
    Every job must simulate what the first did; the outputs reported are
    the first job's.
    """
    t0 = time.perf_counter()
    from repro.cluster.job import JobError, run_job
    from repro.cluster.spec import ClusterSpec
    from repro.mpi.config import MpiConfig
    from repro.via.profiles import profile_by_name
    from repro.workloads.registry import build_program

    program = build_program(workload.kernel, workload.npb_class)
    if workload.connection == "predicted":
        from repro.analysis.comm import predicted_peers_for

        config = MpiConfig(
            connection="predicted",
            predicted_peers=predicted_peers_for(
                workload.kernel, workload.nprocs,
                npb_class=workload.npb_class),
        )
    else:
        config = MpiConfig(connection=workload.connection)
    spec = ClusterSpec(nodes=workload.nodes, ppn=workload.ppn,
                       profile=profile_by_name("clan"), seed=seed)
    t1 = time.perf_counter()
    out = {"setup_s": t1 - t0, "wall_s": 0.0, "job_wall_s": [],
           "error": None, "events": 0, "outputs": {}, "resources": None}
    for job in range(jobs):
        t1 = time.perf_counter()
        try:
            res = run_job(spec, workload.nprocs, program, config=config)
        except JobError as exc:
            out["error"] = f"job {job}: JobError: {exc}"
            break
        out["job_wall_s"].append(time.perf_counter() - t1)
        r = res.resources
        outputs = {
            "events": res.events_processed,
            "sim_time_us": res.total_time_us,
            "total_connections": r.total_connections,
            "avg_vis": r.avg_vis,
            "pinned_peak_bytes": r.total_pinned_peak_bytes,
            "dropped_messages": res.dropped_messages,
        }
        if job == 0:
            out["events"] = res.events_processed
            out["outputs"] = outputs
            out["resources"] = {
                "device_checks": sum(p.device_checks for p in r.per_process),
                "blocking_waits": sum(p.blocking_waits
                                      for p in r.per_process),
                "vis_created": sum(p.vis_created for p in r.per_process),
            }
        elif outputs != out["outputs"]:
            out["error"] = (f"job {job} simulated {outputs}, job 0 "
                            f"simulated {out['outputs']}")
            break
        del res
    if out["job_wall_s"]:
        out["wall_s"] = statistics.median(out["job_wall_s"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.trace:
        with layers.Tracer() as tracer:
            out = simulate(workload, args.seed, args.jobs)
        out.update(tracer.report())
    else:
        out = simulate(workload, args.seed, args.jobs)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
