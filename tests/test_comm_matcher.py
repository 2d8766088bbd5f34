"""Differential tests of the comm analyzer's matching simulation.

``_match_events`` indexes in-flight sends per destination.  The oracle
below is the original brute-force matcher, which scans every
``(src, dst, tag)`` key ever seen on each receive; the two must report
the same REPROC01/REPROC02 diagnostics on any per-rank event stream, and
every registered kernel must still produce the graph pinned in
``tests/golden/commgraphs_np4.json``.
"""

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

import pytest
from hypothesis import HealthCheck, example, find, given, settings
from hypothesis import strategies as st

from repro.analysis import COMM_KERNELS, analyze_kernel
from repro.analysis.comm import _find_cycle, _match_events, _sim_ops
from repro.analysis.commgraph import CollEvent, CommDiagnostic, MsgEvent

PINNED = Path(__file__).parent / "golden" / "commgraphs_np4.json"

COLL_KINDS = ("barrier", "allreduce", "allgather", "alltoall", "alltoallv",
              "bcast", "reduce", "gather", "scatter")


def oracle_match_events(per_rank, size) -> List[CommDiagnostic]:
    """The brute-force matcher: one global in-flight dict whose drained
    keys are never deleted, scanned and sorted on every receive."""
    ops = [_sim_ops(events, rank, size)
           for rank, events in enumerate(per_rank)]
    ptr = [0] * size
    flight: Dict[Tuple[int, int, Any], int] = {}
    seq = 0
    order: Dict[Tuple[int, int, Any], int] = {}

    def try_recv(dst: int, src: Optional[int], tag: Any) -> bool:
        candidates = []
        for (fsrc, fdst, ftag), count in flight.items():
            if count <= 0 or fdst != dst:
                continue
            if src is not None and fsrc != src:
                continue
            if tag is not None:
                if ftag is not None and ftag != tag:
                    continue
            else:
                if isinstance(ftag, tuple):
                    continue
            candidates.append((order[(fsrc, fdst, ftag)], (fsrc, fdst, ftag)))
        if not candidates:
            return False
        candidates.sort()
        key = candidates[0][1]
        flight[key] -= 1
        return True

    progressed = True
    while progressed:
        progressed = False
        for rank in range(size):
            while ptr[rank] < len(ops[rank]):
                op, peer, tag, _line = ops[rank][ptr[rank]]
                if op == "send":
                    if peer is None:
                        ptr[rank] += 1
                        continue
                    key = (rank, peer, tag)
                    flight[key] = flight.get(key, 0) + 1
                    if key not in order:
                        order[key] = seq
                        seq += 1
                    ptr[rank] += 1
                    progressed = True
                    continue
                if try_recv(rank, peer, tag):
                    ptr[rank] += 1
                    progressed = True
                    continue
                break

    diags: List[CommDiagnostic] = []
    stuck = [r for r in range(size) if ptr[r] < len(ops[r])]
    if stuck:
        waits: Dict[int, Optional[int]] = {}
        lines: Dict[int, Optional[int]] = {}
        for r in stuck:
            _op, peer, _tag, line = ops[r][ptr[r]]
            waits[r] = peer
            lines[r] = line
        cycle_ranks = _find_cycle(waits)
        if cycle_ranks:
            path = " -> ".join(str(r) for r in cycle_ranks)
            diags.append(CommDiagnostic(
                code="REPROC02",
                message=f"wait-for deadlock cycle: {path}",
                rank=cycle_ranks[0], line=lines.get(cycle_ranks[0])))
        for r in stuck:
            if cycle_ranks and r in cycle_ranks:
                continue
            peer = waits[r]
            who = "any source" if peer is None else f"rank {peer}"
            diags.append(CommDiagnostic(
                code="REPROC01",
                message=f"recv from {who} is never satisfied",
                rank=r, line=lines[r]))
    else:
        leftovers = sorted(
            (src, dst) for (src, dst, _tag), count in flight.items()
            if count > 0)
        seen: Set[Tuple[int, int]] = set()
        for src, dst in leftovers:
            if (src, dst) in seen:
                continue
            seen.add((src, dst))
            diags.append(CommDiagnostic(
                code="REPROC01",
                message=f"send from rank {src} to rank {dst} "
                        "is never received",
                rank=src, line=None))
    return diags


# ------------------------------------------------------------------------
# event-stream generator
# ------------------------------------------------------------------------

def _send(peer, tag, line):
    return MsgEvent(op="send", peer=peer, wildcard=False, tag=tag,
                    nbytes=8, certain=True, line=line)


def _recv(peer, tag, line):
    """``peer=None`` is ANY_SOURCE, ``tag=None`` is ANY_TAG."""
    return MsgEvent(op="recv", peer=peer, wildcard=peer is None, tag=tag,
                    nbytes=8, certain=True, line=line)


@st.composite
def programs(draw):
    """Per-rank event streams built from global actions.

    Matched messages appended in action order never block on their own;
    wildcard receives can steal another message, and stray operations,
    partial collectives and adjacent swaps add unreceived sends, unsatisfied
    receives and wait-for cycles.
    """
    size = draw(st.integers(1, 5))
    ranks = st.integers(0, size - 1)
    tags = st.sampled_from((0, 1, 2))
    streams: List[List[Any]] = [[] for _ in range(size)]
    line = 0
    for action in draw(st.lists(st.sampled_from(
            ("msg", "msg", "msg", "coll", "send", "recv", "probe", "swap")),
            max_size=14)):
        line += 1
        if action == "msg":
            src, dst, tag = draw(ranks), draw(ranks), draw(tags)
            streams[src].append(
                _send(dst, draw(st.sampled_from((tag, None))), line))
            streams[dst].append(_recv(draw(st.sampled_from((src, None))),
                                      draw(st.sampled_from((tag, None))),
                                      line))
        elif action == "coll":
            kind = draw(st.sampled_from(COLL_KINDS))
            root = draw(ranks)
            skip = draw(st.one_of(st.none(), ranks))
            for rank in range(size):
                if rank != skip:
                    streams[rank].append(CollEvent(
                        kind=kind, root=root, nbytes=8, certain=True,
                        line=line))
        elif action == "send":
            # a stray send: to a live rank, out of range, or to an
            # unknown destination (skipped by the matcher)
            peer = draw(st.one_of(ranks, st.sampled_from((size, size + 3, -1)),
                                  st.none()))
            streams[draw(ranks)].append(
                _send(peer, draw(st.one_of(tags, st.none())), line))
        elif action == "recv":
            peer = draw(st.one_of(ranks, st.none(), st.just(size)))
            streams[draw(ranks)].append(
                _recv(peer, draw(st.one_of(tags, st.none())), line))
        elif action == "probe":
            streams[draw(ranks)].append(MsgEvent(
                op="probe", peer=draw(ranks), wildcard=False, tag=None,
                nbytes=None, certain=True, line=line))
        else:
            stream = streams[draw(ranks)]
            if len(stream) >= 2:
                i = draw(st.integers(0, len(stream) - 2))
                stream[i], stream[i + 1] = stream[i + 1], stream[i]
    return size, streams


# a wildcard receive takes the live key inserted first, even when that
# key drained and refilled after a younger key: rank 0's (0, 2, 0) beats
# rank 1's (1, 2, 1) although rank 1 sent after the refill's first drain
_TIE_BREAK = (3, [
    [_send(2, 0, 1), _recv(2, 5, 2), _send(2, 0, 3), _send(2, 9, 4)],
    [_send(2, 1, 5)],
    [_recv(0, 0, 6), _send(0, 5, 7), _recv(0, 9, 8), _recv(None, None, 9),
     _recv(1, 0, 10)],
])


def test_wildcard_takes_first_inserted_live_key():
    size, streams = _TIE_BREAK
    # the first wildcard must take rank 0's refilled message, leaving
    # rank 1's tag-1 send for the final receive — which wants tag 0, so
    # rank 2 is stuck on it
    diags = _match_events(streams, size)
    assert [(d.code, d.rank, d.line) for d in diags] == \
        [("REPROC01", 2, 10)]
    assert diags == oracle_match_events(streams, size)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(program=programs())
@example(program=_TIE_BREAK)
def test_indexed_matcher_agrees_with_brute_force(program):
    size, streams = program
    assert _match_events(streams, size) == oracle_match_events(streams, size)


def _messages(program) -> List[str]:
    size, streams = program
    return [f"{d.code} {d.message}"
            for d in oracle_match_events(streams, size)]


def _has(program, pred) -> bool:
    return any(pred(e) for stream in program[1] for e in stream)


def _stray_send(program):
    return lambda e: (isinstance(e, MsgEvent) and e.op == "send"
                      and e.peer is not None and e.peer >= program[0])


@pytest.mark.parametrize("outcome", [
    pytest.param(lambda p: not _messages(p) and any(p[1]), id="clean"),
    pytest.param(lambda p: any("REPROC02" in m for m in _messages(p)),
                 id="deadlock"),
    pytest.param(lambda p: any("never received" in m for m in _messages(p)),
                 id="unreceived-send"),
    pytest.param(lambda p: any("never satisfied" in m for m in _messages(p)),
                 id="unsatisfied-recv"),
    pytest.param(lambda p: _has(p, lambda e: isinstance(e, CollEvent))
                 and _has(p, _stray_send(p)) and _messages(p),
                 id="collective-and-stray"),
    pytest.param(lambda p: _has(p, lambda e: isinstance(e, MsgEvent)
                                and e.op == "recv" and e.wildcard
                                and e.tag is None)
                 and _has(p, lambda e: isinstance(e, MsgEvent)
                          and e.op == "send" and e.tag is None),
                 id="wildcards-and-untagged"),
])
def test_generator_reaches_every_outcome(outcome):
    # the property above is only as strong as the streams it sees
    find(programs(), outcome,
         settings=settings(max_examples=2000, database=None, deadline=None))


def test_every_registered_kernel_matches_pinned_graph():
    pinned = json.loads(PINNED.read_text())
    assert sorted(pinned) == sorted(COMM_KERNELS)
    for kernel in COMM_KERNELS:
        graph = json.loads(analyze_kernel(kernel, 4).to_json())
        assert graph == pinned[kernel], kernel
