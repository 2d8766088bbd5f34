"""The benchmark's workloads and the simulated outputs pinned for them.

Each workload is one simulated job on the cLAN profile, chosen to load a
different layer of the simulator (see README.md for the reasons).  The
seed is the ``ClusterSpec`` seed: it drives the ±0.5% compute jitter of
every rank, so a different seed simulates a slightly different timeline
of the same job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

#: the seed whose outputs are pinned below
DEFAULT_SEED = 0

#: outputs that do not depend on the seed: checked on every seed
SEED_INVARIANT = ("total_connections", "avg_vis", "pinned_peak_bytes",
                  "dropped_messages")

#: every simulated output a repetition reports; pinned for DEFAULT_SEED
OUTPUT_KEYS = ("events", "sim_time_us") + SEED_INVARIANT


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kernel: str
    npb_class: str
    nprocs: int
    nodes: int
    ppn: int
    connection: str
    #: simulated outputs of DEFAULT_SEED (OUTPUT_KEYS)
    pinned: Dict[str, Any]
    #: ``run_job`` calls per untraced repetition, after its one set-up;
    #: more than one where a single job is too short to time steadily
    jobs: int = 1


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="cg32-ondemand",
        why=("data-path steady state: ~50k small eager messages on 160 "
             "lazily opened connections load the MPI progress loop and engine"),
        kernel="cg", npb_class="S", nprocs=32, nodes=8, ppn=4,
        connection="ondemand",
        pinned={
            "events": 469417,
            "sim_time_us": 28561.156953229656,
            "total_connections": 160,
            "avg_vis": 5.0,
            "pinned_peak_bytes": 19200000,
            "dropped_messages": 0,
        },
    ),
    Workload(
        name="init128-static",
        why=("static full mesh in MPI_Init: 16,256 connections through the VIA "
             "agent, provider and pinned buffer pools, with an idle data path"),
        kernel="barrier", npb_class="S", nprocs=128, nodes=32, ppn=4,
        connection="static-p2p",
        pinned={
            "events": 197517,
            "sim_time_us": 91640.0,
            "total_connections": 16256,
            "avg_vis": 127.0,
            "pinned_peak_bytes": 1950720000,
            "dropped_messages": 0,
        },
    ),
    Workload(
        name="cg16-predicted",
        why=("comm-graph analysis paid cold in set-up, then four short "
             "predicted runs: the only workload that exercises the analysis "
             "layer"),
        kernel="cg", npb_class="S", nprocs=16, nodes=4, ppn=4,
        connection="predicted",
        pinned={
            "events": 186917,
            "sim_time_us": 25603.704001323513,
            "total_connections": 64,
            "avg_vis": 4.0,
            "pinned_peak_bytes": 7680000,
            "dropped_messages": 0,
        },
        # a ~3 s job after ~12 s of analysis: one job per repetition
        # would time too little of the run to be steady
        jobs=4,
    ),
)}


def check_outputs(workload: Workload, seed: int, outputs: Dict[str, Any],
                  reference: Optional[Dict[str, Any]] = None) -> List[str]:
    """Problems with one repetition's simulated outputs; empty if correct.

    The outputs must match the pinned ones (all of them on the default
    seed, the seed-invariant ones on any other) and, when given, agree
    exactly with ``reference``: the same run's first repetition.
    """
    pinned = workload.pinned
    problems = []
    keys = OUTPUT_KEYS if seed == DEFAULT_SEED else SEED_INVARIANT
    for key in keys:
        if outputs.get(key) != pinned[key]:
            problems.append(f"{key} = {outputs.get(key)!r}, "
                            f"pinned {pinned[key]!r}")
    if reference is not None and outputs != reference:
        problems.append(f"simulated {outputs}, the first repetition "
                        f"simulated {reference}")
    return problems
