"""Per-layer numbers of a traced repetition.

A :class:`Tracer` profiles a repetition with cProfile and, for the few
counters cProfile cannot give, wraps simulator methods from outside:

* ``AbstractDevice.device_check`` — which passes made progress;
* ``ViaProvider.poll_send_cq``/``poll_recv_cq`` — which polls returned a
  descriptor;
* ``CreditHeader.__init__`` — explicit credit messages (its dataclass
  ``__init__`` has no source file cProfile could key it by).

Every other counter is a call count read from the profile.  Layers are
the ``repro.<pkg>`` packages.  Self time of C builtins, numpy and the
standard library is charged to the nearest calling simulator package,
so the layers' self times add up to the whole traced time.  A wrapper's
code object is relabelled with the wrapped method's file and name, so
the profile charges its own cost to the wrapped method's layer.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
from typing import Any, Callable, Dict, List, Tuple

#: the ``repro.<pkg>`` packages reported as layers; the rest is "other"
LAYERS = ("sim", "mpi", "via", "fabric", "memory", "apps", "cluster",
          "analysis")
ALL_LAYERS = LAYERS + ("other",)

#: counters read as call counts from the profile: (file, function)
CALL_COUNTS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "conn_checks": (("repro/mpi/channel.py", "is_connected"),),
    "credit_checks": (("repro/mpi/channel.py", "should_send_explicit_credits"),),
    "timeouts": (("repro/sim/engine.py", "timeout"),),
    "post_sends": (("repro/via/provider.py", "post_send"),
                   ("repro/via/provider.py", "post_rdma_write")),
    "connect_polls": (("repro/via/provider.py", "connect_peer_done"),),
    "packets": (("repro/fabric/network.py", "send"),),
    "buffer_acquires": (("repro/memory/buffer_pool.py", "acquire"),),
    "registrations": (("repro/memory/registry.py", "register"),),
}

#: functions whose cumulative (inclusive) time is reported
CUMULATIVE = {
    "build_s": ("repro/cluster/build.py", "build_cluster"),
    "analyze_s": ("repro/analysis/comm.py", "predicted_peers_for"),
}

Func = Tuple[str, int, str]


def layer_of(filename: str) -> str:
    """The ``repro.<pkg>`` layer a source file belongs to, or "other"."""
    path = filename.replace(os.sep, "/")
    at = path.rfind("/repro/")
    if at < 0:
        return "other"
    pkg = path[at + len("/repro/"):].split("/", 1)[0]
    return pkg if pkg in LAYERS else "other"


def _is_simulator(filename: str) -> bool:
    return "/repro/" in filename.replace(os.sep, "/")


_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _is_benchmark(filename: str) -> bool:
    # builtins are filed under "~", so no abspath() here
    return os.path.dirname(filename) == _BENCH_DIR


def fold_layers(stats: Dict[Func, tuple]) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats.stats`` table.

    A simulator function's self time goes to its own layer and a
    benchmark function's to "other".  Any other function (builtin,
    numpy, standard library) splits its self time over its callers in
    proportion to the self time each caller's calls cost, recursively,
    until a simulator or benchmark frame takes it.
    """
    memo: Dict[Func, Dict[str, float]] = {}

    def shares(func: Func, visiting: frozenset) -> Dict[str, float]:
        if func in memo:
            return memo[func]
        filename = func[0]
        if _is_simulator(filename):
            result = {layer_of(filename): 1.0}
        elif _is_benchmark(filename) or func in visiting or func not in stats:
            result = {"other": 1.0}
        else:
            callers = stats[func][4]
            weights = {c: v[2] for c, v in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: v[1] for c, v in callers.items()}
                total = sum(weights.values())
            result = {}
            if total <= 0:
                result = {"other": 1.0}
            for caller, weight in weights.items():
                if weight <= 0:
                    continue
                for layer, frac in shares(caller, visiting | {func}).items():
                    result[layer] = result.get(layer, 0.0) + frac * weight / total
        memo[func] = result
        return result

    folded = {layer: 0.0 for layer in ALL_LAYERS}
    for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if tt > 0:
            for layer, frac in shares(func, frozenset()).items():
                folded[layer] += tt * frac
    return folded


def _find(stats: Dict[Func, tuple], file_suffix: str, name: str) -> List[tuple]:
    return [entry for (filename, _line, fname), entry in stats.items()
            if fname == name
            and filename.replace(os.sep, "/").endswith(file_suffix)]


def call_count(stats: Dict[Func, tuple], file_suffix: str, name: str) -> int:
    """Calls of a function in a profile (0 if never called)."""
    return sum(entry[1] for entry in _find(stats, file_suffix, name))


def cumulative_s(stats: Dict[Func, tuple], file_suffix: str, name: str) -> float:
    return sum(entry[3] for entry in _find(stats, file_suffix, name))


def _relabel(wrapper: Callable, target: Callable, owner: type) -> Callable:
    """Give ``wrapper`` the file and name of ``target`` in profiles."""
    filename = sys.modules[owner.__module__].__file__
    wrapper.__code__ = wrapper.__code__.replace(
        co_filename=filename, co_name=f"{target.__name__}[counted]")
    return wrapper


class Tracer:
    """Profile a block and count what the simulator did inside it.

    The simulator classes are patched on entry and restored on exit;
    the wrappers only count, so the simulation is unchanged.
    """

    def __init__(self) -> None:
        self.counts = {"passes": 0, "progress_passes": 0, "cq_polls": 0,
                       "cq_hits": 0, "credit_msgs": 0}
        self.profile = cProfile.Profile()
        self._patched: List[Tuple[type, str, Any]] = []
        self.stats: Dict[Func, tuple] = {}

    def _patch(self, owner: type, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr]
        wrapper = _relabel(make(original), original, owner)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        from repro.mpi.adi import AbstractDevice
        from repro.mpi.headers import CreditHeader
        from repro.via.provider import ViaProvider

        counts = self.counts

        def count_passes(original):
            def device_check(self):
                progressed = yield from original(self)
                counts["passes"] += 1
                if progressed:
                    counts["progress_passes"] += 1
                return progressed
            return device_check

        def count_polls(original):
            def poll(self):
                desc = original(self)
                counts["cq_polls"] += 1
                if desc is not None:
                    counts["cq_hits"] += 1
                return desc
            return poll

        def count_inits(original):
            def init(self, *args, **kwargs):
                counts["credit_msgs"] += 1
                original(self, *args, **kwargs)
            return init

        self._patch(AbstractDevice, "device_check", count_passes)
        self._patch(ViaProvider, "poll_send_cq", count_polls)
        self._patch(ViaProvider, "poll_recv_cq", count_polls)
        self._patch(CreditHeader, "__init__", count_inits)
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        self.stats = pstats.Stats(self.profile).stats

    def report(self) -> Dict[str, Any]:
        """Self seconds per layer and the raw counters, JSON-ready."""
        stats = self.stats
        counts = dict(self.counts)
        for key, funcs in CALL_COUNTS.items():
            counts[key] = sum(call_count(stats, f, n) for f, n in funcs)
        for key, (f, n) in CUMULATIVE.items():
            counts[key] = cumulative_s(stats, f, n)
        return {"layers": fold_layers(stats), "counts": counts}
