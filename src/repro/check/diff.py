"""Differential conformance harness: detailed simulator vs atomic model.

The driver replays one schedule on both machines and compares everything
the paper makes claims about:

* **memory** — the detailed machine's flushed final image must equal the
  atomic model's byte-for-byte (FSLite's SAM byte-merge must reconstruct
  exactly what a conventional machine produces);
* **verdicts** — every flagged/privatized block must be one at least two
  cores really accessed (IC > 0 requires a second requesting core, so a
  single-core flag is unsound);
* **mode purity** — FSDetect is stats-only: zero privatizations, no PRV
  states anywhere, none of the privatization message vocabulary on the
  wire; baseline MESI additionally sends no metadata messages;
* **metadata** — SAM last-writers/readers and PAM read/write bits must be
  sub-approximations of the ground-truth access sets (detection hardware
  may forget accesses, never invent them);
* **counters** — FC/IC within ``counter_max``, HC within
  ``hysteresis_max`` (the 7-/2-bit fields of Figure 5c).

On top of the per-mode checks, :func:`run_differential` adds the
*metamorphic cross-mode* oracle: baseline vs FSDetect vs FSLite replay the
identical op stream, so their final memory images must agree byte-for-byte
regardless of how detection or privatization interleaved the traffic.

Each mode runs on the fuzzer's one schedule runner
(:func:`repro.check.fuzz.execute_schedule`).  :func:`diff_campaign` drives
seeded random campaigns through the fuzzer's one campaign loop
(:func:`repro.check.fuzz.run_campaign`, ddmin shrinking — every
sub-schedule is a valid program, and the atomic reference recomputes its
expected outcome from scratch), and :func:`hunt_mutation_escape`, a
hunting run of the same loop, demonstrates the oracle has teeth: each
seeded protocol mutation of :mod:`repro.check.mutations` is caught by the
differential comparison *alone* — no sanitizer, no embedded load
assertions — and shrunk to a handful of ops.

CLI: ``python -m repro diff`` (``--smoke`` is the CI gate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.check.fuzz import (
    FAMILIES,
    Case,
    CampaignResult,
    FuzzFailure,
    FuzzOp,
    execute_schedule,
    fuzz_config,
    run_campaign,
    schedule_to_ops,
    seeded_schedules,
)
from repro.check.mutations import MUTATIONS, mutation_context
from repro.check.refmodel import RefResult, run_programs_atomic, run_reference
from repro.coherence.states import DirState, L1State, ProtocolMode
from repro.common.config import SystemConfig
from repro.common.errors import ReproError
from repro.common.statkeys import SLICE_PRIVATIZATIONS
from repro.interconnect.message import FSLITE_TYPES, MessageType
from repro.system.builder import Machine, build_machine
from repro.system.simulator import Simulator, flush_machine_memory

#: Message types only the FSLite privatization engine may ever send.
PRV_TYPES = frozenset(FSLITE_TYPES - {MessageType.REP_MD,
                                      MessageType.PHANTOM_MD})


@dataclass
class Divergence:
    """One disagreement between the detailed machine and the reference."""

    kind: str  # memory | verdict | mode-purity | sam | pam | counter |
    #          # cross-mode | run | workload-verify
    mode: Optional[ProtocolMode]
    block: Optional[int]
    detail: str

    def describe(self) -> str:
        where = f" block {self.block:#x}" if self.block is not None else ""
        mode = f" [{self.mode.value}]" if self.mode is not None else ""
        return f"{self.kind}{mode}{where}: {self.detail}"


@dataclass
class DiffReport:
    """Outcome of one differential comparison."""

    divergences: List[Divergence] = field(default_factory=list)
    blocks_compared: int = 0
    modes_run: List[ProtocolMode] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    @property
    def failure(self) -> Optional[FuzzFailure]:
        """The divergences as one failure (stage ``differential``, kind of
        the first), or None when there are none."""
        if self.ok:
            return None
        return FuzzFailure("differential", self.divergences[0].kind,
                           self.describe())

    def describe(self) -> str:
        if self.ok:
            return (f"no divergence over {self.blocks_compared} block(s), "
                    f"modes {[m.value for m in self.modes_run]}")
        return "\n".join(d.describe() for d in self.divergences)


# ------------------------------------------------------------ per-machine


def differential_check(
    machine: Machine,
    ref: RefResult,
    image=None,
    check_memory: bool = True,
    check_verdicts: bool = True,
    check_mode_purity: bool = True,
    check_metadata: bool = True,
    check_counters: bool = True,
) -> DiffReport:
    """Compare one finished detailed machine against the atomic reference.

    Pure post-run inspection: reads the machine's caches, SAM/PAM tables,
    counters and network accounting, never perturbing them, so it can be
    layered onto any existing run (the fuzzer's, the chaos driver's, a
    hand-built one).  Under fault injection disable ``check_verdicts`` and
    ``check_counters``: faults may legitimately corrupt detection accuracy
    and counter state — but never memory or the metadata subset property.
    """
    mode = machine.mode
    report = DiffReport(modes_run=[mode])
    out = report.divergences
    if image is None:
        image = flush_machine_memory(machine)

    if check_memory:
        for block in ref.blocks():
            want = ref.image.get(block)
            got = bytes(image.get(block))
            report.blocks_compared += 1
            if got != want:
                byte = next(i for i in range(len(want)) if got[i] != want[i])
                out.append(Divergence(
                    "memory", mode, block,
                    f"byte {byte}: machine {got[byte]:#04x} != "
                    f"reference {want[byte]:#04x}"))

    detectors = [sl.detector for sl in machine.slices
                 if sl.detector is not None]

    if check_verdicts:
        multi = ref.multi_core_blocks()
        for detector in detectors:
            for rep in detector.reports:
                if rep.block_addr not in multi:
                    out.append(Divergence(
                        "verdict", mode, rep.block_addr,
                        f"flagged (privatized={rep.privatized}) but only "
                        f"one core ever accessed the block"))
        for sl in machine.slices:
            for addr, line in sl.llc.items():
                if line.state == DirState.PRV and addr not in multi:
                    out.append(Divergence(
                        "verdict", mode, addr,
                        "left privatized but single-core"))

    if check_mode_purity and mode is not ProtocolMode.FSLITE:
        stats = machine.network.stats
        forbidden = (FSLITE_TYPES if mode is ProtocolMode.MESI
                     else PRV_TYPES)
        for mtype in sorted(forbidden, key=lambda t: t.value):
            count = stats.count_of_type(mtype)
            if count:
                out.append(Divergence(
                    "mode-purity", mode, None,
                    f"{count} {mtype.name} message(s) under "
                    f"{mode.value}"))
        privatizations = sum(sl.stats.get(SLICE_PRIVATIZATIONS, 0)
                             for sl in machine.slices)
        if privatizations:
            out.append(Divergence(
                "mode-purity", mode, None,
                f"{privatizations} privatization(s) under {mode.value}"))
        for l1 in machine.l1s:
            for addr, line in l1.cache.items():
                if line.state == L1State.PRV:
                    out.append(Divergence(
                        "mode-purity", mode, addr,
                        f"L1[{l1.core_id}] line in PRV under "
                        f"{mode.value}"))
        for sl in machine.slices:
            for addr, line in sl.llc.items():
                if line.state == DirState.PRV:
                    out.append(Divergence(
                        "mode-purity", mode, addr,
                        f"directory entry in PRV under {mode.value}"))

    if check_metadata:
        for detector in detectors:
            for block in detector.sam.resident_blocks():
                entry = detector.sam.peek(block)
                truth = ref.truth.get(block)
                for granule, writer in enumerate(entry.last_writer_map()):
                    if writer is None:
                        pass
                    elif truth is None or writer not in truth.writers[granule]:
                        out.append(Divergence(
                            "sam", mode, block,
                            f"granule {granule}: SAM last writer "
                            f"{writer} never wrote it"))
                    true_readers = (truth.readers[granule]
                                    if truth is not None else set())
                    bogus = entry.reader_cores(granule) - true_readers
                    if bogus:
                        out.append(Divergence(
                            "sam", mode, block,
                            f"granule {granule}: SAM readers {sorted(bogus)} "
                            f"never read it"))
        for l1 in machine.l1s:
            core = l1.core_id
            for block in l1.pam.resident_blocks():
                entry = l1.pam.get(block)
                truth = ref.truth.get(block)
                true_r = truth.read_bits.get(core, 0) if truth else 0
                true_w = truth.write_bits.get(core, 0) if truth else 0
                if entry.write_bits & ~true_w:
                    out.append(Divergence(
                        "pam", mode, block,
                        f"core {core}: PAM write bits "
                        f"{entry.write_bits:#x} not within true writes "
                        f"{true_w:#x}"))
                if entry.read_bits & ~true_r:
                    out.append(Divergence(
                        "pam", mode, block,
                        f"core {core}: PAM read bits "
                        f"{entry.read_bits:#x} not within true reads "
                        f"{true_r:#x}"))

    if check_counters:
        for detector in detectors:
            for block, meta in sorted(detector.counter_metas().items()):
                if not 0 <= meta.fc <= meta.counter_max:
                    out.append(Divergence(
                        "counter", mode, block,
                        f"FC={meta.fc} outside [0, {meta.counter_max}]"))
                if not 0 <= meta.ic <= meta.counter_max:
                    out.append(Divergence(
                        "counter", mode, block,
                        f"IC={meta.ic} outside [0, {meta.counter_max}]"))
                if not 0 <= meta.hc <= meta.hysteresis_max:
                    out.append(Divergence(
                        "counter", mode, block,
                        f"HC={meta.hc} outside [0, {meta.hysteresis_max}]"))
    return report


# ------------------------------------------------------------- cross-mode


def run_differential(
    schedule: List[FuzzOp],
    modes: Optional[List[ProtocolMode]] = None,
    num_threads: int = 4,
    config: Optional[SystemConfig] = None,
    mutation: Optional[str] = None,
    sanitize: bool = False,
    check_verdicts: bool = True,
    check_counters: bool = True,
    max_events: int = 5_000_000,
    replay=None,
) -> DiffReport:
    """Replay one schedule on every requested mode and on the atomic
    reference; compare each machine against the reference and the modes
    against each other (metamorphic: same op stream, so the final images
    must agree byte-for-byte).

    Each mode runs :func:`repro.check.fuzz.execute_schedule` with
    assertion-free programs, so the differential oracle (and the sanitizer,
    if ``sanitize``) is the only judge.  The reference executes the
    *unmutated* specification even when ``mutation`` is set — that is the
    point: the mutated detailed machine must diverge from it.  ``replay``
    resumes from / records into a
    :class:`repro.check.replay.PrefixReplayCache` (bit-for-bit neutral).
    """
    modes = list(modes or ProtocolMode)
    config = config or fuzz_config(num_threads)
    # One translation serves the reference and every mode: they execute
    # the same footprint by construction (mutations rewrite protocol
    # behaviour, never the schedule translation).
    flat, _ = schedule_to_ops(schedule, num_threads, config,
                              check_loads=False)
    if replay is not None:
        ref = replay.ref_run(schedule, num_threads, config, flat=flat)
    else:
        ref = run_reference(schedule, num_threads, config, flat=flat)
    report = DiffReport(modes_run=list(modes))
    images: List[Tuple[ProtocolMode, object]] = []
    for mode in modes:
        run = execute_schedule(
            schedule, mode, num_threads, config, mutation=mutation,
            sanitize=sanitize, check_loads=False, differential=True,
            reference=ref, check_verdicts=check_verdicts,
            check_counters=check_counters, max_events=max_events,
            replay=replay, flat=flat)
        if run.diff is None:
            report.divergences.append(Divergence(
                "run", mode, None, run.report.failure.describe()))
            continue
        report.divergences.extend(run.diff.divergences)
        report.blocks_compared += run.diff.blocks_compared
        images.append((mode, run.image))
    if len(images) >= 2:
        base_mode, base_image = images[0]
        for mode, image in images[1:]:
            for block in ref.blocks():
                a = bytes(base_image.get(block))
                b = bytes(image.get(block))
                if a != b:
                    byte = next(i for i in range(len(a)) if a[i] != b[i])
                    report.divergences.append(Divergence(
                        "cross-mode", mode, block,
                        f"byte {byte}: {mode.value} {b[byte]:#04x} != "
                        f"{base_mode.value} {a[byte]:#04x}"))
    return report


# --------------------------------------------------------------- campaign


def diff_campaign(
    iterations: int = 30,
    seed: int = 0,
    modes: Optional[List[ProtocolMode]] = None,
    families: Optional[List[str]] = None,
    num_threads: int = 4,
    num_lines: int = 3,
    length: int = 80,
    mutation: Optional[str] = None,
    shrink: bool = True,
    shrink_budget: int = 400,
    progress: Optional[Callable[[int, str, DiffReport], None]] = None,
) -> CampaignResult:
    """Run ``iterations`` random schedules through the full differential
    oracle (:func:`run_differential`: every mode, cross-mode metamorphic
    comparison); shrink and render any divergence
    (:func:`repro.check.fuzz.run_campaign`).  Fully deterministic for a
    given ``seed``."""
    modes = list(modes or ProtocolMode)
    families = list(families or FAMILIES)
    config = fuzz_config(num_threads)
    result = CampaignResult(iterations)

    def cases():
        for _, case_seed, family, schedule in seeded_schedules(
                seed, iterations, families, num_threads=num_threads,
                num_lines=num_lines, length=length):
            yield Case(case_seed, family, schedule, run_differential, dict(
                modes=modes, num_threads=num_threads, mutation=mutation),
                config)

    def on_probe(index: int, case: Case, report: DiffReport) -> None:
        result.blocks_compared += report.blocks_compared
        if progress is not None:
            progress(index, case.family, report)

    return run_campaign(result, cases(), shrink, shrink_budget, on_probe)


# ------------------------------------------------------- mutation escapes


#: Where each seeded protocol bug is most readily provoked: the schedule
#: family that exercises the broken mechanism and the single mode to run.
MUTATION_PROBES: Dict[str, Tuple[str, ProtocolMode]] = {
    "merge-drop-granule": ("mixed", ProtocolMode.FSLITE),
    "chk-write-always-passes": ("mixed", ProtocolMode.FSLITE),
    "pam-reads-count-as-writes": ("disjoint", ProtocolMode.FSDETECT),
    "sam-drops-writes": ("disjoint", ProtocolMode.FSLITE),
}

COUNTER_MUTATION = "counters-never-saturate"


def counter_probe_config() -> SystemConfig:
    """A single-core machine with 2-bit-sized counters and the periodic
    metadata reset disabled, so the *only* thing bounding FC is the
    saturation reset the mutation removes."""
    return fuzz_config(1).with_protocol(
        counter_max=3, tau_r1=1, tau_r2=3, use_metadata_reset=False)


def counter_probe_schedule() -> List[FuzzOp]:
    """Seven ops that make one block's FC reach 4: load, evict (re-fetch
    pressure), three times over, then a final load.  Each post-eviction
    load is an LLC GET, so FC counts 4 — past ``counter_max=3`` unless the
    saturation reset fires."""
    ops: List[FuzzOp] = []
    for _ in range(3):
        ops.append(FuzzOp(0, "load", 0, 0, 8))
        ops.append(FuzzOp(0, "evict", 0))
    ops.append(FuzzOp(0, "load", 0, 0, 8))
    return ops


@dataclass
class MutationEscape:
    """Did the differential oracle alone catch one seeded protocol bug?"""

    mutation: str
    caught: bool
    mode: Optional[ProtocolMode] = None
    family: Optional[str] = None
    case_seed: Optional[int] = None
    attempts: int = 0
    detail: str = ""
    schedule: List[FuzzOp] = field(default_factory=list)
    shrunk: List[FuzzOp] = field(default_factory=list)


def hunt_mutation_escape(
    mutation: str,
    seed: int = 0,
    max_attempts: int = 40,
    num_threads: int = 4,
    length: int = 60,
    shrink: bool = True,
    shrink_budget: int = 400,
) -> MutationEscape:
    """Find (and shrink) a schedule on which the differential oracle alone
    — no sanitizer, no in-program load assertions — catches ``mutation``.

    A hunting :func:`repro.check.fuzz.run_campaign` over up to
    ``max_attempts`` seeded schedules; deterministic for a given ``seed``.
    The counter mutation needs its own probe: under the default 7-bit
    ``counter_max`` no ≤10-op schedule can overflow a counter, so it runs
    on :func:`counter_probe_config`.
    """
    if mutation == COUNTER_MUTATION:
        config = counter_probe_config()
        mode, family, threads = ProtocolMode.FSDETECT, "n/a", 1
        schedules = [(0, 0, family, counter_probe_schedule())]
        max_attempts = 1
    else:
        family, mode = MUTATION_PROBES[mutation]
        threads = num_threads
        config = fuzz_config(threads)
        schedules = seeded_schedules(seed, max_attempts, [family],
                                     num_threads=threads, length=length)
    cases = (Case(case_seed, family, schedule, run_differential, dict(
        modes=[mode], num_threads=threads, mutation=mutation), config)
        for _, case_seed, family, schedule in schedules)
    attempts = 0

    def on_probe(index: int, case: Case, report: DiffReport) -> None:
        nonlocal attempts
        attempts = index + 1

    result = run_campaign(CampaignResult(max_attempts), cases, shrink,
                          shrink_budget, on_probe, hunt=True)
    escape = MutationEscape(mutation=mutation, caught=not result.ok,
                            mode=mode, family=family, attempts=attempts)
    if result.findings:
        finding = result.findings[0]
        escape.case_seed = finding.case_seed
        escape.detail = finding.detail
        escape.schedule = finding.schedule
        escape.shrunk = finding.shrunk
    return escape


def mutation_escape_sweep(
    seed: int = 0,
    shrink_budget: int = 400,
    progress: Optional[Callable[[MutationEscape], None]] = None,
) -> Dict[str, MutationEscape]:
    """Hunt every seeded mutation; the CI gate demands each is caught and
    shrunk to at most 10 ops."""
    out: Dict[str, MutationEscape] = {}
    for name in sorted(MUTATIONS):
        escape = hunt_mutation_escape(name, seed=seed,
                                      shrink_budget=shrink_budget)
        out[name] = escape
        if progress is not None:
            progress(escape)
    return out


# ------------------------------------------------------- workload level


def diff_workload(spec, compare_bytes: bool = True) -> DiffReport:
    """Differential check of one harness :class:`~repro.harness.runner.
    RunSpec`: execute it on the detailed machine and drive the same
    workload's generator programs on the atomic machine (fair round-robin).

    Workload schedules race by design, so only two comparisons are sound:

    * the workload's own :meth:`verify` must accept the atomic execution
      (the reference is a valid outcome of the program), and
    * granules only ever touched by a single core must match byte-for-byte
      (their final content is interleaving-independent).
    """
    from repro.harness.runner import execute_spec_with_machine
    from repro.workloads.registry import make_workload

    record, machine = execute_spec_with_machine(spec)
    workload = make_workload(spec.tag, num_threads=spec.num_threads,
                             scale=spec.scale, layout=spec.layout,
                             seed=spec.seed)
    atomic = run_programs_atomic(workload.programs(), spec.config)
    report = DiffReport(modes_run=[spec.mode])
    try:
        workload.verify(atomic.image())
    except ReproError as exc:
        report.divergences.append(Divergence(
            "workload-verify", spec.mode, None, str(exc)))
    if compare_bytes:
        _compare_single_accessor_granules(
            report, atomic, flush_machine_memory(machine), spec.mode)
    return report


def _compare_single_accessor_granules(report: DiffReport, atomic, image,
                                      mode: ProtocolMode) -> None:
    """Byte equality on the granules only one core ever touched: their
    final content is interleaving-independent, so the check is sound on
    programs whose other granules race."""
    gran = atomic.granularity
    reference = atomic.image()
    for block in atomic.blocks():
        pairs = atomic.single_accessor_granules(block)
        if not pairs:
            continue
        want = reference.get(block)
        got = bytes(image.get(block))
        report.blocks_compared += 1
        for granule, core in pairs:
            lo, hi = granule * gran, (granule + 1) * gran
            if got[lo:hi] != want[lo:hi]:
                report.divergences.append(Divergence(
                    "memory", mode, block,
                    f"single-accessor granule {granule} (core {core}): "
                    f"machine {got[lo:hi].hex()} != reference "
                    f"{want[lo:hi].hex()}"))


def diff_trace(
    path,
    modes: Optional[List[ProtocolMode]] = None,
    config: Optional[SystemConfig] = None,
    mutation: Optional[str] = None,
    check_verdicts: bool = True,
    check_counters: bool = True,
    max_events: int = 5_000_000,
) -> DiffReport:
    """Differential check of a replayed ``.rtrace`` trace: stream the trace
    through the detailed machine under every requested mode and drive the
    same per-thread op streams on the atomic reference (fair round-robin).

    A trace froze value-dependent control flow under its capture
    interleaving, so replays under other modes/timings may interleave racy
    granules differently — full-image equality against the reference is
    *not* a sound oracle here (unlike fuzz schedules).  What is sound on
    any trace, and what this checks per mode:

    * verdicts, mode purity, SAM/PAM metadata subsetting and counter
      bounds — all derived from the access *sets*, which are identical in
      every interleaving of the same op streams;
    * byte equality on granules only one core ever touched (their final
      content is interleaving-independent), mirroring
      :func:`diff_workload`.

    As with :func:`run_differential`, the reference always executes the
    unmutated specification; a seeded ``mutation`` must diverge from it.
    """
    from repro.workloads.trace import TracePrograms, TraceWorkload, \
        trace_info

    info = trace_info(path)
    modes = list(modes or ProtocolMode)
    config = config or fuzz_config(info.num_threads)
    if config.block_size != info.block_size:
        raise ReproError(
            f"{info.path}: trace line size {info.block_size}B does not "
            f"match config.block_size={config.block_size}B")
    atomic = run_programs_atomic(TraceWorkload(path).programs(), config)
    ref = RefResult(machine=atomic)
    report = DiffReport(modes_run=list(modes))
    factory = TracePrograms(info.path, info.digest, info.num_threads,
                            info.block_size)
    for mode in modes:
        with mutation_context(mutation):
            machine = build_machine(config, mode)
            machine.attach_programs(program_factory=factory)
            try:
                Simulator(machine, max_events=max_events).run()
            except (ReproError, AssertionError) as exc:
                report.divergences.append(Divergence(
                    "run", mode, None,
                    f"{type(exc).__name__}: {exc}"))
                continue
        image = flush_machine_memory(machine)
        per_mode = differential_check(
            machine, ref, image=image, check_memory=False,
            check_verdicts=check_verdicts, check_counters=check_counters)
        report.divergences.extend(per_mode.divergences)
        _compare_single_accessor_granules(report, atomic, image, mode)
    return report
