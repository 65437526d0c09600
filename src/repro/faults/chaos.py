"""Chaos campaign: fault injection with the sanitizer as oracle.

Each campaign case pairs a random fuzz schedule (families from
:mod:`repro.check.fuzz`) with a :func:`~repro.faults.plan.family_plan`
preset and runs it twice on the stress-prone fuzz machine: once fault-free
(the *twin*) and once with a :class:`~repro.faults.injector.FaultInjector`
attached.  :func:`run_chaos_case` is the fuzzer's one schedule runner
(:func:`repro.check.fuzz.execute_schedule`) with a fault plan, so the
faulted run is judged exactly as the fuzzer judges schedules:

1. the run itself (invariant violations, protocol errors, deadlocks,
   in-program load assertions),
2. the sanitizer's final full pass, and
3. the flushed memory image against the schedule's reference values
   (faults may never corrupt data — only detection accuracy).

:func:`chaos_campaign` feeds its cases to the fuzzer's one campaign loop
(:func:`repro.check.fuzz.run_campaign`).  A surviving case yields a
:class:`~repro.faults.degradation.DegradationReport` against its twin; a
failing case has its fired-fault list converted to a scripted plan,
ddmin-shrunk with :func:`~repro.check.fuzz.shrink_schedule` (fault events
are just another shrinkable list), and rendered as a ready-to-paste pytest
repro.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.check.fuzz import (
    FAMILIES,
    CampaignResult,
    Case,
    FuzzOp,
    FuzzReport,
    execute_schedule,
    fuzz_config,
    run_campaign,
    seeded_schedules,
)
from repro.coherence.states import ProtocolMode
from repro.common.config import SystemConfig
from repro.faults.degradation import DegradationReport
from repro.faults.plan import CHAOS_FAMILIES, FaultPlan, family_plan


def chaos_config(num_threads: int = 4,
                 shrunken_sam: bool = False) -> SystemConfig:
    """The fuzzer's stress machine, optionally with a 2-entry SAM so
    resource-pressure campaigns exercise SAM displacement constantly."""
    config = fuzz_config(num_threads)
    if shrunken_sam:
        config = config.with_protocol(sam_sets=1, sam_ways=2)
    return config


def run_chaos_case(
    schedule: List[FuzzOp],
    mode: ProtocolMode = ProtocolMode.FSLITE,
    plan: Optional[FaultPlan] = None,
    num_threads: int = 4,
    config: Optional[SystemConfig] = None,
    shrunken_sam: bool = False,
    sanitize: bool = True,
    mutation: Optional[str] = None,
    max_events: int = 5_000_000,
    differential: bool = False,
    replay=None,
) -> FuzzReport:
    """Execute one schedule under ``plan`` (None = fault-free twin) with
    :func:`repro.check.fuzz.execute_schedule`; never raises for protocol
    failures.  The report carries the run's stats and fired faults.

    With ``differential`` the atomic reference model additionally judges
    the final state (:func:`repro.check.diff.differential_check`).  Verdict
    and counter checks stay off — faults may legitimately corrupt detection
    accuracy — but memory bytes, the metadata subset property and mode
    purity must survive arbitrary fault injection (the paper's claim that
    faults degrade detection, never correctness).

    ``replay`` (a :class:`repro.check.replay.PrefixReplayCache`) is
    honoured only for fault-free or *scripted* plans — rate-based plans
    consume injector RNG the cache's guards do not model.  Scripted-replay
    shrinking (same schedule, varying fault script) resumes from the
    deepest checkpoint whose decided-fault prefix matches the candidate
    script; results are bit-for-bit identical to a cold run.
    """
    config = config or chaos_config(num_threads, shrunken_sam=shrunken_sam)
    return execute_schedule(
        schedule, mode, num_threads, config, mutation=mutation,
        sanitize=sanitize, plan=plan, differential=differential,
        check_verdicts=False, check_counters=False, max_events=max_events,
        replay=replay).report


# -------------------------------------------------------------- campaign


@dataclass
class ChaosCase:
    """One surviving campaign case and its degradation measurement."""

    index: int
    case_seed: int
    fault_family: str
    schedule_family: str
    mode: ProtocolMode
    report: DegradationReport


def chaos_campaign(
    iterations: int = 18,
    seed: int = 0,
    modes: Optional[List[ProtocolMode]] = None,
    fault_families: Optional[List[str]] = None,
    num_threads: int = 4,
    num_lines: int = 3,
    length: int = 80,
    intensity: float = 1.0,
    mutation: Optional[str] = None,
    differential: bool = False,
    shrink: bool = True,
    shrink_budget: int = 250,
    progress: Optional[Callable[[int, str, ProtocolMode, FuzzReport],
                                None]] = None,
) -> CampaignResult:
    """Run ``iterations`` (schedule, fault plan) cases through
    :func:`repro.check.fuzz.run_campaign`; every failure is shrunk to a
    minimal fired-fault script and rendered as a pytest repro.

    Fully deterministic for a given ``seed`` and parameter set.  Fault
    families rotate fastest, then protocol modes, then schedule families;
    resource-pressure cases additionally run with a shrunken (2-entry)
    SAM so displacement pressure is constant.
    """
    modes = modes or list(ProtocolMode)
    fault_families = fault_families or list(CHAOS_FAMILIES)
    result = CampaignResult(iterations)

    def cases():
        for index, case_seed, family, schedule in seeded_schedules(
                seed, iterations, FAMILIES, len(fault_families) * len(modes),
                num_threads, num_lines, length):
            fault_family = fault_families[index % len(fault_families)]
            mode = modes[(index // len(fault_families)) % len(modes)]
            shrunken_sam = fault_family == "pressure"
            plan = family_plan(fault_family, seed=case_seed,
                               intensity=intensity)
            yield Case(case_seed, family, schedule, run_chaos_case, dict(
                mode=mode, plan=plan, num_threads=num_threads,
                shrunken_sam=shrunken_sam, mutation=mutation,
                differential=differential),
                chaos_config(num_threads, shrunken_sam=shrunken_sam),
                fault_family=fault_family)

    def on_probe(index: int, case: Case, report: FuzzReport) -> None:
        mode = case.call["mode"]
        if progress is not None:
            progress(index, case.fault_family, mode, report)
        if report.ok:
            result.cases.append(ChaosCase(
                index=index, case_seed=case.case_seed,
                fault_family=case.fault_family, schedule_family=case.family,
                mode=mode, report=DegradationReport.from_stats(
                    report.stats, case.twin.stats, report.fired_by_kind())))

    return run_campaign(result, cases(), shrink, shrink_budget, on_probe)
