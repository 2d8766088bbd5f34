"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

They run small jobs, not the benchmark's workloads.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re

import pytest

import compare
import layers
import rep
import run
from workloads import DEFAULT_SEED, SEED_INVARIANT, WORKLOADS, check_outputs

NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: a job small enough for a test: CG class S on 4 ranks, on demand
TINY = dataclasses.replace(
    WORKLOADS["cg32-ondemand"], name="tiny", nprocs=4, nodes=2, ppn=2)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def tiny_runs():
    plain = rep.simulate(TINY, DEFAULT_SEED)
    with layers.Tracer() as tracer:
        traced = rep.simulate(TINY, DEFAULT_SEED)
    traced.update(tracer.report())
    plain["peak_rss_mb"] = traced["peak_rss_mb"] = 100.0
    return plain, traced


def test_names_are_plain(spec):
    names = (list(WORKLOADS) + list(run.END_TO_END) + list(run.PER_LAYER)
             + [w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    for name in names:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64


def test_benchmark_json_matches_the_runner(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == run.PER_LAYER


def test_pinned_outputs_pass_and_perturbed_ones_fail():
    workload = WORKLOADS["init128-static"]
    outputs = dict(workload.pinned)
    assert check_outputs(workload, DEFAULT_SEED, outputs) == []
    for key in workload.pinned:
        bad = dict(outputs, **{key: outputs[key] + 1})
        assert check_outputs(workload, DEFAULT_SEED, bad), key
        # the pins themselves perturbed: the true outputs must now fail
        moved = dataclasses.replace(workload, pinned=bad)
        assert check_outputs(moved, DEFAULT_SEED, outputs), key


def test_other_seeds_check_invariants_and_agreement():
    workload = WORKLOADS["cg32-ondemand"]
    outputs = dict(workload.pinned, events=1, sim_time_us=2.0)
    assert check_outputs(workload, 5, outputs) == []
    assert check_outputs(workload, 5, outputs, reference=dict(outputs)) == []
    assert check_outputs(workload, 5, outputs,
                         reference=dict(outputs, events=2))
    for key in SEED_INVARIANT:
        assert check_outputs(workload, 5, dict(outputs, **{key: -1})), key


def test_failed_repetition_counts_as_failed_operation():
    workload = WORKLOADS["cg32-ondemand"]
    assert run.rep_problems(workload, DEFAULT_SEED,
                            {"error": "JobError: deadlocked"}, None)


def test_traced_run_leaves_simulation_unchanged(tiny_runs):
    plain, traced = tiny_runs
    assert plain["outputs"] == traced["outputs"]
    assert plain["resources"] == traced["resources"]
    from repro.mpi.adi import AbstractDevice
    from repro.via.provider import ViaProvider

    # the wrappers are gone again
    assert "[counted]" not in AbstractDevice.device_check.__code__.co_name
    assert "[counted]" not in ViaProvider.poll_recv_cq.__code__.co_name


def test_jobs_after_one_set_up_are_all_timed_and_checked():
    out = rep.simulate(TINY, DEFAULT_SEED, jobs=2)
    assert out["error"] is None
    assert len(out["job_wall_s"]) == 2
    assert min(out["job_wall_s"]) <= out["wall_s"] <= max(out["job_wall_s"])
    # the second job simulated exactly what the first did
    assert out["outputs"]["events"] == out["events"] > 0
    out["peak_rss_mb"] = 100.0
    single = dict(out, job_wall_s=[4.0], wall_s=4.0, setup_s=1.0)
    double = dict(out, job_wall_s=[1.0, 3.0], wall_s=2.0, setup_s=3.0)
    metrics = run.end_to_end_metrics([single, double])
    # medians over all three jobs, but set-up and result per repetition
    assert metrics["wall_s"] == 3.0
    assert metrics["events_per_s"] == out["events"] / 3.0
    assert metrics["setup_s"] == 2.0
    assert metrics["result_s"] == 5.0


def test_layer_shares_sum_to_one(tiny_runs):
    plain, traced = tiny_runs
    metrics = run.per_layer_metrics(plain, traced)
    assert set(metrics) == set(run.PER_LAYER)
    shares = [metrics[f"{layer}.share"] for layer in layers.ALL_LAYERS]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert metrics["mpi.share"] > metrics["analysis.share"] == 0.0
    assert metrics["analysis.analyze_s"] == 0
    assert metrics["sim.events"] == plain["events"]
    # the device_check wrapper sees every pass the ADI counts, plus the
    # teardown passes after the resource snapshot
    assert traced["counts"]["passes"] >= metrics["mpi.device_checks"] > 0


def test_fold_charges_builtins_to_the_calling_layer():
    mpi = ("/x/src/repro/mpi/adi.py", 1, "device_check")
    sim = ("/x/src/repro/sim/engine.py", 1, "run")
    builtin = ("~", 0, "<built-in method builtins.len>")
    numpy_fn = ("/x/site-packages/numpy/core/fromnumeric.py", 1, "sum")
    stats = {
        mpi: (1, 1, 2.0, 9.0, {}),
        sim: (1, 1, 1.0, 9.0, {}),
        numpy_fn: (1, 1, 0.5, 1.0, {mpi: (1, 1, 0.5, 1.0)}),
        builtin: (4, 4, 4.0, 4.0, {sim: (1, 1, 1.0, 1.0),
                                   numpy_fn: (3, 3, 3.0, 3.0)}),
    }
    folded = layers.fold_layers(stats)
    assert folded["sim"] == pytest.approx(2.0)
    assert folded["mpi"] == pytest.approx(5.5)
    assert sum(folded.values()) == pytest.approx(7.5)


def test_compare_refuses_different_hosts():
    def record(host, wall):
        return {"workload": "w", "trace": 0, "host": host,
                "result": {"metrics": {"wall_s": {"value": wall, "unit": "s"}}}}

    host = run.host_fingerprint()
    other = dict(host, cpu_count=host["cpu_count"] + 1)
    bounds = {"wall_s": ("lower", 0.1)}
    with pytest.raises(compare.HostMismatch):
        compare.compare([record(host, 1.0)], [record(other, 1.0)], bounds)
    _, worse = compare.compare([record(host, 1.0)], [record(host, 1.05)], bounds)
    assert worse == 0
    _, worse = compare.compare([record(host, 1.0)], [record(host, 1.2)], bounds)
    assert worse == 1
