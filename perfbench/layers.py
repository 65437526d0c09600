"""Per-layer instrumentation for the traced run.

Two instruments, both installed from the benchmark's own files by
rebinding public functions of the layers and removed afterwards:

* :class:`WorkCounters` hooks ``Simulator.run`` only (one wrapper call
  per simulation) and adds up exact, deterministic work counters read off
  each finished machine: events, ops, hits, directory requests, messages
  by class, SAM allocations.  It also times the event loop, which gives
  host time per event.
* :class:`Tracer` wraps the public entry points of every layer and
  records, per span name, the call count and self time (the span's
  duration minus what its child spans cover).  A traced fs-apps round
  makes millions of spans, so they are aggregated as they close rather
  than kept one by one.

Neither instrument may change behaviour: the run compares stats digests
and counters between a counted round and a traced round.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro.check import diff, fuzz, refmodel, replay
from repro.coherence.directory import DirectorySlice
from repro.coherence.l1_controller import L1Controller
from repro.common.statkeys import (CORE_CHK_MISSES, CORE_HITS, CORE_MISSES,
                                   CORE_WRITEBACKS, SLICE_CHK_FAIL,
                                   SLICE_CHK_PASS, SLICE_LLC_DATA_ACCESSES,
                                   SLICE_MEMORY_FETCHES,
                                   SLICE_PRIVATIZATION_ABORTS,
                                   SLICE_PRIVATIZATIONS, SLICE_RECALLS,
                                   SLICE_REQUESTS)
from repro.core.fsdetect import FalseSharingDetector
from repro.core.sam import SamEntry
from repro.cpu.core import InOrderCore
from repro.interconnect.message import MessageClass
from repro.interconnect.network import Network
from repro.memsys.cache_array import CacheArray
from repro.system import builder, snapshot
from repro.system.simulator import Simulator
from repro.workloads import trace as trace_codec
from repro.workloads.registry import REGISTRY
from repro.workloads.base import Workload

_clock = time.perf_counter


class _Patches:
    """Attribute rebinding with undo."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def method(self, cls, attr: str, wrapper) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper(cls.__dict__[attr]))

    def function(self, module, attr: str, wrapper) -> None:
        """Rebind ``module.attr`` and every ``repro`` module that imported
        it by name."""
        original = getattr(module, attr)
        wrapped = wrapper(original)
        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("repro")
                    and vars(mod).get(attr) is original):
                self._undo.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ------------------------------------------------------------ work counters


def machine_counters(machine) -> Dict[str, int]:
    """Exact work counters of one machine (cumulative since it was built,
    snapshot history included)."""
    c: Dict[str, int] = defaultdict(int)
    c["events.executed"] = machine.queue.executed
    for core in machine.cores:
        c["cpu.ops"] += core.ops_executed
        c["cpu.mem_ops"] += core.mem_ops
        c["cpu.mem_stall_cycles"] += getattr(core, "mem_stall_cycles", 0)
    for l1 in machine.l1s:
        c["l1.hits"] += l1.stats[CORE_HITS]
        c["l1.misses"] += l1.stats[CORE_MISSES] + l1.stats[CORE_CHK_MISSES]
        c["l1.writebacks"] += l1.stats[CORE_WRITEBACKS]
    for sl in machine.slices:
        c["dir.requests"] += sl.stats[SLICE_REQUESTS]
        c["dir.recalls"] += sl.stats[SLICE_RECALLS]
        c["dir.llc_data_accesses"] += sl.stats[SLICE_LLC_DATA_ACCESSES]
        c["dir.memory_fetches"] += sl.stats[SLICE_MEMORY_FETCHES]
        c["fs.privatizations"] += sl.stats[SLICE_PRIVATIZATIONS]
        c["fs.privatization_aborts"] += sl.stats[SLICE_PRIVATIZATION_ABORTS]
        c["fs.chk_pass"] += sl.stats[SLICE_CHK_PASS]
        c["fs.chk_fail"] += sl.stats[SLICE_CHK_FAIL]
        if sl.detector is not None:
            c["sam.allocations"] += sl.detector.sam.allocations
            c["sam.valid_replacements"] += \
                sl.detector.sam.valid_replacements
    net = machine.network.stats
    by_class = net.count
    for mclass in MessageClass:
        c[f"net.msgs.{mclass.value}"] = by_class.get(mclass, 0)
    c["net.bytes"] = net.total_bytes
    c["mem.reads"] = machine.memory.reads
    c["mem.writes"] = machine.memory.writes
    return c


class WorkCounters:
    """Sums, over every ``Simulator.run``, the counters that run added
    (a resumed snapshot only counts work done after the restore), and the
    host time spent inside ``Simulator.run``."""

    def __init__(self) -> None:
        self.totals: Dict[str, int] = defaultdict(int)
        self.loop_s = 0.0
        self._patches = _Patches()

    def install(self) -> None:
        self._patches.method(Simulator, "run", self._wrap_run)

    def uninstall(self) -> None:
        self._patches.undo()

    def _wrap_run(self, run):
        @functools.wraps(run)
        def counted(sim, *args, **kwargs):
            before = machine_counters(sim.machine)
            start = _clock()
            try:
                return run(sim, *args, **kwargs)
            finally:
                self.loop_s += _clock() - start
                after = machine_counters(sim.machine)
                for key, value in after.items():
                    self.totals[key] += value - before.get(key, 0)
        return counted


# ------------------------------------------------------------------ tracer


class Tracer:
    """Aggregated spans: per name, call count and self time."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        #: Extra counts recorded at span boundaries.
        self.counts: Dict[str, int] = defaultdict(int)
        # Child time accumulated by the open spans, innermost last.
        self._stack: List[float] = [0.0]
        self._patches = _Patches()

    def span(self, name: str) -> Callable:
        """Decorator factory: time calls of a function as span ``name``."""
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        stack = self._stack

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack.append(0.0)
                start = _clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = _clock() - start
                    children = stack.pop()
                    stack[-1] += elapsed
                    self_s[name] += elapsed - children
                    total_s[name] += elapsed
                    calls[name] += 1
            return traced
        return wrap

    def install(self) -> None:
        p, span = self._patches, self.span
        p.method(Simulator, "run", span("loop"))
        p.method(L1Controller, "access", span("l1.access"))
        p.method(L1Controller, "handle_message", span("l1.handle_message"))
        p.method(DirectorySlice, "handle_message", span("dir.handle_message"))
        p.method(SamEntry, "update_from_md", span("sam.update_from_md"))
        p.method(SamEntry, "check_read", span("sam.check"))
        p.method(SamEntry, "check_write", span("sam.check"))
        p.method(FalseSharingDetector, "ingest_md", span("fsdetect.ingest_md"))
        p.method(FalseSharingDetector, "classify", span("fsdetect.classify"))
        p.method(Network, "send", span("net.send"))
        for attr in ("lookup", "peek", "fill", "choose_victim", "invalidate"):
            p.method(CacheArray, attr, span("memsys.cache_array"))
        p.function(builder, "build_machine", span("system.build"))
        verifiers = {cls for wl in REGISTRY.values() for cls in wl.__mro__
                     if issubclass(cls, Workload) and "verify" in vars(cls)}
        for cls in verifiers:
            p.method(cls, "verify", span("system.verify"))
        p.function(snapshot, "take_snapshot", span("snapshot.take"))
        p.function(snapshot, "restore_snapshot", span("snapshot.restore"))
        p.method(builder.Machine, "attach_programs", self._wrap_attach)
        p.method(InOrderCore, "rebind_program", self._wrap_rebind)
        p.function(trace_codec, "_decode_ops", self._wrap_decode)
        p.function(diff, "run_differential", span("check.differential"))
        p.function(refmodel, "run_reference", span("check.refmodel"))
        p.method(replay.PrefixReplayCache, "ref_run", span("check.refmodel"))
        p.method(replay.PrefixReplayCache, "lookup", self._wrap_lookup)
        p.function(fuzz, "shrink_schedule", self._wrap_shrink)

    def uninstall(self) -> None:
        self._patches.undo()

    # -- wrappers that also count -------------------------------------------

    def _wrap_attach(self, attach):
        @functools.wraps(attach)
        def traced(machine, *args, **kwargs):
            attach(machine, *args, **kwargs)
            for core in machine.cores:
                core.program = _TimedProgram(self, core.program)
        return traced

    def _wrap_rebind(self, rebind):
        @functools.wraps(rebind)
        def traced(core, program):
            rebind(core, program)
            if core.program is not None:
                core.program = _TimedProgram(self, core.program)
        return traced

    def _wrap_decode(self, decode):
        timed = self.span("trace.decode")(decode)

        @functools.wraps(decode)
        def traced(payload, n_ops, prev_addr):
            self.counts["trace.decoded_ops"] += n_ops
            return timed(payload, n_ops, prev_addr)
        return traced

    def _wrap_lookup(self, lookup):
        @functools.wraps(lookup)
        def traced(cache, *args, **kwargs):
            found = lookup(cache, *args, **kwargs)
            self.counts["check.replay.lookups"] += 1
            self.counts["check.replay.hits"] += found is not None
            return found
        return traced

    def _wrap_shrink(self, shrink):
        @functools.wraps(shrink)
        def traced(schedule, fails, *args, **kwargs):
            def counted(candidate):
                self.counts["check.shrink.evals"] += 1
                return fails(candidate)
            return shrink(schedule, counted, *args, **kwargs)
        return traced


class _TimedProgram:
    """A thread program whose every resume is a ``workloads.supply`` span
    (op generation, and trace decoding nested under it)."""

    __slots__ = ("send",)

    def __init__(self, tracer: Tracer, program) -> None:
        self.send = tracer.span("workloads.supply")(program.send)

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)


# ------------------------------------------------------------ the metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(counted: WorkCounters, tracer: Tracer,
                  counted_wall_s: float, traced_wall_s: float,
                  engine_overhead_s: float) -> Dict[str, float]:
    """The per-layer metrics by name (their units are in BENCHMARK.json),
    all but ``mem.replay_growth_mb``, which ``run.py`` measures."""
    c, t = counted.totals, tracer
    m: Dict[str, float] = {
        "events.executed": c["events.executed"],
        "events.per_op": _ratio(c["events.executed"], c["cpu.ops"]),
        "events.host_us_per_event": 1e6 * _ratio(counted.loop_s,
                                                 c["events.executed"]),
        "loop.self_s": t.self_s["loop"],
    }
    for key in ("cpu.ops", "cpu.mem_ops", "cpu.mem_stall_cycles"):
        m[key] = c[key]
    for name in ("l1.access", "l1.handle_message", "dir.handle_message",
                 "sam.update_from_md", "sam.check", "net.send",
                 "snapshot.take", "snapshot.restore"):
        m[f"{name}.calls"] = t.calls[name]
        m[f"{name}.self_s"] = t.self_s[name]
    m["l1.hits"] = c["l1.hits"]
    m["l1.misses"] = c["l1.misses"]
    m["l1.hit_ratio"] = _ratio(c["l1.hits"], c["l1.hits"] + c["l1.misses"])
    m["l1.writebacks"] = c["l1.writebacks"]
    for key in ("dir.requests", "dir.recalls", "dir.llc_data_accesses",
                "dir.memory_fetches", "sam.allocations",
                "sam.valid_replacements", "fs.privatizations",
                "fs.privatization_aborts"):
        m[key] = c[key]
    m["fsdetect.ingest_md.self_s"] = t.self_s["fsdetect.ingest_md"]
    m["fsdetect.classify.calls"] = t.calls["fsdetect.classify"]
    m["fs.chk_pass_ratio"] = _ratio(c["fs.chk_pass"],
                                    c["fs.chk_pass"] + c["fs.chk_fail"])
    for mclass in MessageClass:
        m[f"net.msgs.{mclass.value}"] = c[f"net.msgs.{mclass.value}"]
    m["net.bytes"] = c["net.bytes"]
    m["memsys.cache_array.self_s"] = t.self_s["memsys.cache_array"]
    m["mem.reads"] = c["mem.reads"]
    m["mem.writes"] = c["mem.writes"]
    m["workloads.supply.self_s"] = t.self_s["workloads.supply"]
    m["trace.decode_ops_per_s"] = _ratio(t.counts["trace.decoded_ops"],
                                         t.total_s["trace.decode"])
    m["system.build.calls"] = t.calls["system.build"]
    m["system.build_s"] = t.total_s["system.build"]
    m["system.verify_s"] = t.total_s["system.verify"]
    m["engine.overhead_s"] = engine_overhead_s
    m["check.refmodel.self_s"] = t.self_s["check.refmodel"]
    m["check.differential.calls"] = t.calls["check.differential"]
    m["check.shrink.evals"] = t.counts["check.shrink.evals"]
    m["check.replay.hit_ratio"] = _ratio(t.counts["check.replay.hits"],
                                         t.counts["check.replay.lookups"])
    m["tracing.overhead_ratio"] = _ratio(traced_wall_s, counted_wall_s)
    return m
