"""The benchmark's three workloads, driven through public ``repro`` entry
points.

A workload's constructor is its set-up (everything before the timed
body: trace synthesis and verification, expected-digest load, spec
construction) and ``round`` is one unit of timed work.  The timed body
repeats rounds, and every round re-executes exactly the same simulations,
so two rounds of one process must produce identical digests.

A round returns a :class:`Round`: simulated ops retired, units attempted
and failed (with a reason per failure), and the digests that pin its
outputs.  The default seed's digests are committed in ``expected.json``;
on any other seed they are printed so two commits can be diffed.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import time
from dataclasses import dataclass, field
from typing import Dict, List

DEFAULT_SEED = 0
EXPECTED_PATH = pathlib.Path(__file__).resolve().parent / "expected.json"

#: fs-apps runs the Table III false-sharing apps at this workload scale:
#: one round (8 apps x 3 modes) takes about 4 s on one host core, so a
#: run medians over several rounds.
FS_SCALE = 0.25

#: trace-replay's trace: each thread's private working set (2048 lines,
#: 128 KB) is four times the 32 KB L1 and reuse is loose (locality 0.5),
#: so about 45% of accesses miss and the directory, network and cache
#: arrays do the work; SAM/PAM stay idle under MESI.
TRACE_OPS_PER_THREAD = 15_000
TRACE_PRIVATE_LINES = 2048
TRACE_LOCALITY = 0.5

#: diff-campaign: schedules per round (all three families, 3 modes each
#: plus the atomic reference), then the full mutation-escape sweep.
DIFF_ITERATIONS = 51
DIFF_LENGTH = 80
MAX_SHRUNK_OPS = 10


@dataclass
class Round:
    """Outcome of one round of a workload.  A unit is one checked output:
    a verified run, a replay, a schedule, a mutation hunt."""

    ops: int = 0
    attempted: int = 0
    #: Failed unit -> reason (one entry per unit, first reason kept).
    failures: Dict[str, str] = field(default_factory=dict)
    #: Unit -> digest of its output.
    digests: Dict[str, str] = field(default_factory=dict)
    #: Engine wall time not spent inside ``execute_spec`` (seconds).
    engine_overhead_s: float = 0.0
    #: fs-apps only: geomean over the apps of MESI / FSLite cycles.
    fslite_speedup: float = 0.0

    def fail(self, unit: str, reason: str) -> None:
        self.failures.setdefault(unit, reason)


def load_expected(workload: str, seed: int) -> Dict[str, str]:
    """Committed digests of ``workload`` at the default seed; empty for
    any other seed, whose outputs are printed rather than checked."""
    if seed != DEFAULT_SEED:
        return {}
    return json.loads(EXPECTED_PATH.read_text())[workload]


def _run_batch(specs, out: Round, units: List[str]):
    """Run ``specs`` cold and serial through the engine.  A spec that
    raises (after the engine's retry) stops the batch; it and every spec
    left unrun are failed units."""
    from repro.harness.engine import Engine, EngineError

    engine = Engine(jobs=1, cache_dir=None)
    start = time.perf_counter()
    try:
        records = engine.run_many(specs)
    except EngineError as exc:
        done = exc.partial or {}
        records = [done.get(spec) for spec in specs]
        for unit, record in zip(units, records):
            if record is None:
                out.fail(unit, f"did not complete: {exc}")
    wall = time.perf_counter() - start
    out.engine_overhead_s = wall - sum(engine.timings.values())
    return records


def _retired_ops(record) -> int:
    return sum(core["ops"] for core in record.stats.extra["core_stats"])


class FsApps:
    """The paper's Fig 14 sweep: the 8 false-sharing apps under MESI,
    FSDetect and FSLite, cold, each run verified."""

    name = "fs-apps"

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        from repro.coherence.states import ProtocolMode
        from repro.harness.runner import RunSpec
        from repro.workloads.registry import FS_WORKLOADS

        self.expected = load_expected(self.name, seed)
        self.specs = [RunSpec(tag=tag, mode=mode, scale=FS_SCALE, seed=seed,
                              verify=True)
                      for tag in FS_WORKLOADS for mode in ProtocolMode]

    def round(self) -> Round:
        from repro.coherence.states import ProtocolMode
        from repro.harness.export import record_stats_digest

        out = Round(attempted=len(self.specs))
        units = [f"{spec.tag}/{spec.mode.value}" for spec in self.specs]
        records = _run_batch(self.specs, out, units)
        cycles = {}
        for spec, unit, record in zip(self.specs, units, records):
            if record is None:
                continue
            out.ops += _retired_ops(record)
            out.digests[unit] = record_stats_digest(record)
            cycles[(spec.tag, spec.mode)] = record.cycles
        ratios = [cycles[(tag, ProtocolMode.MESI)]
                  / cycles[(tag, ProtocolMode.FSLITE)]
                  for tag in dict.fromkeys(spec.tag for spec in self.specs)
                  if (tag, ProtocolMode.MESI) in cycles
                  and (tag, ProtocolMode.FSLITE) in cycles]
        if ratios:
            out.fslite_speedup = math.exp(
                sum(math.log(r) for r in ratios) / len(ratios))
        return out


def trace_profile(seed: int, ops_per_thread: int = TRACE_OPS_PER_THREAD):
    from repro.workloads.trace import SharingProfile

    return SharingProfile(num_threads=4, ops_per_thread=ops_per_thread,
                          private_lines=TRACE_PRIVATE_LINES,
                          locality=TRACE_LOCALITY, seed=seed)


class TraceReplay:
    """Streamed MESI replay of one trace synthesized from a seeded
    sharing profile."""

    name = "trace-replay"

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        from repro.coherence.states import ProtocolMode
        from repro.workloads.trace import (synthesize_trace, trace_spec,
                                           verify_trace)

        self.expected = load_expected(self.name, seed)
        path = workdir / "replay.rtrace"
        synthesize_trace(trace_profile(seed), path)
        self.info = verify_trace(path)
        self.spec = trace_spec(path, mode=ProtocolMode.MESI)

    def round(self) -> Round:
        from repro.harness.export import record_stats_digest

        out = Round(attempted=2)
        out.digests["trace"] = self.info.digest
        (record,) = _run_batch([self.spec], out, ["replay/mesi"])
        if record is not None:
            out.ops = _retired_ops(record)
            out.digests["replay/mesi"] = record_stats_digest(record)
            if out.ops != self.info.total_ops:
                out.fail("replay/mesi",
                         f"retired {out.ops} ops of the trace's "
                         f"{self.info.total_ops}")
        return out


class DiffCampaign:
    """Differential campaign over seeded schedules, then the mutation
    escape sweep (every seeded protocol bug caught and shrunk)."""

    name = "diff-campaign"

    def __init__(self, seed: int, workdir: pathlib.Path) -> None:
        import repro.check.diff  # noqa: F401 - import is part of set-up

        self.seed = seed
        self.expected = load_expected(self.name, seed)

    def round(self) -> Round:
        from repro.check.diff import diff_campaign, mutation_escape_sweep
        from repro.coherence.states import ProtocolMode

        modes = len(ProtocolMode)
        campaign = diff_campaign(iterations=DIFF_ITERATIONS, seed=self.seed,
                                 length=DIFF_LENGTH)
        sweep = mutation_escape_sweep(seed=self.seed)
        out = Round(attempted=DIFF_ITERATIONS + len(sweep) + 1)
        # Schedule ops x modes run; ddmin candidates are not counted, so
        # faster shrinking shows as higher throughput.
        out.ops = campaign.iterations * DIFF_LENGTH * modes
        for finding in campaign.findings:
            out.fail(f"schedule/{finding.case_seed}",
                     f"clean {finding.family} schedule diverged: "
                     f"{finding.detail.splitlines()[0]}")
        outcome = {"blocks_compared": campaign.blocks_compared,
                   "findings": [[f.case_seed, repr(f.shrunk)]
                                for f in campaign.findings],
                   "sweep": {}}
        for name, escape in sorted(sweep.items()):
            out.ops += escape.attempts * len(escape.schedule)
            if not escape.caught:
                out.fail(f"mutation/{name}", "escaped the oracle")
            elif len(escape.shrunk) > MAX_SHRUNK_OPS:
                out.fail(f"mutation/{name}",
                         f"shrunk only to {len(escape.shrunk)} ops")
            outcome["sweep"][name] = [escape.caught, escape.attempts,
                                      escape.case_seed, repr(escape.shrunk)]
        text = json.dumps(outcome, sort_keys=True)
        out.digests["outcome"] = hashlib.sha256(text.encode()).hexdigest()
        return out


WORKLOADS = {cls.name: cls for cls in (FsApps, TraceReplay, DiffCampaign)}
