"""Unit tests for the static communication-graph analyzer
(:mod:`repro.analysis.comm`): every REPROC diagnostic fires on a known-bad
synthetic kernel, the NPB kernels analyze clean, and the predicted graph
has the structural properties the runtime relies on."""

import json
import textwrap
import time

import pytest

from repro.analysis import (
    COMM_KERNELS,
    analyze_kernel,
    analyze_source,
    predicted_peers_for,
    predicted_vi_demand,
)
from repro.analysis.__main__ import main as analysis_main

NPB = ("cg", "mg", "is", "ep", "sp", "ft", "lu")


def analyze(code, nprocs, factory="make"):
    """Analyze a dedented synthetic rank program (wrapped in a factory,
    matching the registered-kernel convention: factory() -> program)."""
    source = "def make():\n" + textwrap.indent(
        textwrap.dedent(code).strip() + "\nreturn kernel\n", "    ")
    return analyze_source(source, factory, nprocs)


class TestDiagnostics:
    def test_clean_ring_has_no_diagnostics(self):
        graph = analyze("""
            import numpy as np
            def kernel(mpi):
                right = (mpi.rank + 1) % mpi.size
                left = (mpi.rank - 1) % mpi.size
                buf = np.empty(4)
                yield from mpi.sendrecv(np.zeros(4), right, buf, left)
        """, nprocs=4)
        assert graph.ok
        assert graph.max_degree == 2
        assert graph.peers[0] == (1, 3)

    def test_reproc01_unmatched_send(self):
        graph = analyze("""
            import numpy as np
            def kernel(mpi):
                if mpi.rank == 0:
                    yield from mpi.send(np.zeros(4), 1)
                yield from mpi.barrier()
        """, nprocs=2)
        codes = {d.code for d in graph.diagnostics}
        assert "REPROC01" in codes

    def test_reproc02_deadlock_cycle(self):
        # everyone blocking-receives from the left before sending right:
        # the classic head-to-head ring deadlock
        graph = analyze("""
            import numpy as np
            def kernel(mpi):
                left = (mpi.rank - 1) % mpi.size
                right = (mpi.rank + 1) % mpi.size
                buf = np.empty(4)
                yield from mpi.recv(buf, left)
                yield from mpi.send(np.zeros(4), right)
        """, nprocs=4)
        codes = {d.code for d in graph.diagnostics}
        assert "REPROC02" in codes

    def test_reproc03_rank_out_of_range(self):
        graph = analyze("""
            import numpy as np
            def kernel(mpi):
                if mpi.rank == 0:
                    yield from mpi.send(np.zeros(4), mpi.size)
                yield from mpi.barrier()
        """, nprocs=4)
        codes = {d.code for d in graph.diagnostics}
        assert "REPROC03" in codes

    def test_reproc04_dynamic_destination_widens(self):
        graph = analyze("""
            import numpy as np
            def kernel(mpi, peers=None):
                dest = hash(str(mpi.rank)) % mpi.size
                yield from mpi.send(np.zeros(4), dest)
                buf = np.empty(4)
                yield from mpi.recv(buf, mpi.ANY_SOURCE)
        """, nprocs=4)
        codes = {d.code for d in graph.diagnostics}
        assert "REPROC04" in codes
        # soundness: widened ranks get the full mesh
        assert graph.widened_ranks
        for rank in graph.widened_ranks:
            assert len(graph.peers[rank]) == graph.nprocs - 1


class TestNpbKernels:
    @pytest.mark.parametrize("kernel", NPB)
    def test_analyzes_clean_at_np4(self, kernel):
        graph = analyze_kernel(kernel, 4)
        assert graph.ok, [d.format() for d in graph.diagnostics]
        assert 0 < graph.max_degree <= 3

    def test_registry_covers_cluster_kernels(self):
        from repro.cluster.workload import CLUSTER_KERNELS

        assert set(CLUSTER_KERNELS) <= set(COMM_KERNELS)

    def test_cg_degree_well_below_full_mesh_at_np16(self):
        # the paper's Table-2 story: CG needs ~4-5 VIs, not 15
        graph = analyze_kernel("cg", 16)
        assert graph.ok
        assert graph.max_degree <= 5
        assert graph.avg_degree < 6

    @pytest.mark.parametrize("kernel,max_degree", [("cg", 6), ("mg", 63)])
    def test_np64_analysis_within_budget(self, kernel, max_degree):
        # the matcher is linear in live sends per destination; a quadratic
        # regression takes minutes here
        start = time.perf_counter()
        graph = analyze_kernel(kernel, 64)
        elapsed = time.perf_counter() - start
        assert elapsed < 15.0, f"analyze_kernel({kernel!r}, 64): {elapsed:.1f}s"
        assert graph.ok, [d.format() for d in graph.diagnostics]
        assert graph.max_degree <= max_degree

    def test_ep_is_collective_only(self):
        graph = analyze_kernel("ep", 8)
        assert graph.ok
        assert graph.collectives  # allreduce tree edges only
        assert graph.max_degree <= 3  # log2(8)


class TestGraphProperties:
    def test_peers_are_symmetric_and_self_free(self):
        for kernel in ("cg", "mg", "lu", "ring", "alltoall"):
            graph = analyze_kernel(kernel, 4)
            for rank, peers in enumerate(graph.peers):
                assert rank not in peers
                for p in peers:
                    assert rank in graph.peers[p], (kernel, rank, p)

    def test_predicted_helpers_agree_with_graph(self):
        graph = analyze_kernel("mg", 4)
        assert predicted_peers_for("mg", 4) == graph.peers
        assert predicted_vi_demand("mg", 4) == graph.max_degree

    def test_as_dict_round_trips_through_json(self):
        graph = analyze_kernel("pingpong", 2)
        doc = json.loads(graph.to_json())
        assert doc["version"] == 1
        assert doc["kernel"] == "pingpong"
        assert doc["ok"] is True
        assert doc["peers"] == [[1], [0]]

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            analyze_kernel("nope", 4)
        with pytest.raises(ValueError):
            analyze_kernel("cg", 0)


class TestCommCli:
    def test_comm_subcommand_clean_kernel_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "graph.json"
        rc = analysis_main(["comm", "pingpong", "--nprocs", "2",
                            "--json", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["max_degree"] == 1
        assert "pingpong" in capsys.readouterr().out

    def test_comm_subcommand_diagnostics_exit_one(self, capsys):
        # samrai draws peers from an rng: genuinely unresolvable (REPROC04)
        rc = analysis_main(["comm", "samrai", "--nprocs", "4", "-q"])
        assert rc == 1
        assert "REPROC04" in capsys.readouterr().out
