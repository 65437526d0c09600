"""Random protocol tester, the one schedule runner, and the one campaign
core shared by ``repro fuzz``, ``repro diff`` and ``repro chaos``.

Generates randomized per-line load/store/RMW/evict schedules and runs them
on a deliberately stress-prone machine (tiny caches, tiny SAM, τP = 1) with
the online sanitizer attached.  :func:`execute_schedule` is the only runner
of that machine; it judges a schedule through four failure channels:

1. the run itself (invariant violations, protocol errors, deadlocks, and
   in-program load-value assertions),
2. the sanitizer's final full pass (``check_all``),
3. the flushed final memory image against a reference computed from the
   schedule alone, and
4. (opt-in, ``differential=True``) a full differential comparison against
   the atomic reference model of :mod:`repro.check.refmodel`.

:func:`run_schedule`, :func:`repro.check.diff.run_differential` and
:func:`repro.faults.chaos.run_chaos_case` are parameterizations of it.

Reference values are computable for *any* sub-schedule because schedules
are built from single-writer slots (each thread owns one 8-byte slot per
line) plus commutative fetch-adds on shared words — which is what makes
delta-debugging (:func:`shrink_schedule`) sound: every subset of a
schedule is itself a valid program with a known expected outcome.

Schedule families:

* ``disjoint`` — threads touch only their own slots of shared lines: pure
  false sharing, the FSLite privatization fast path.
* ``shared``   — threads fetch-add shared words: pure true sharing, which
  must *not* privatize incorrectly.
* ``mixed``    — both in the same lines: privatization attempts keep
  colliding with true sharing (abort/terminate churn).

:func:`run_campaign` is the one campaign loop (generate a :class:`Case`,
run it, shrink a failure, render it): :func:`fuzz_campaign`,
:func:`repro.check.diff.diff_campaign`,
:func:`repro.check.diff.hunt_mutation_escape` and
:func:`repro.faults.chaos.chaos_campaign` each feed it their cases.  A
failing case becomes a :class:`Finding` whose ready-to-paste pytest repro
(:func:`render_pytest_repro`) makes the exact runner call the campaign made.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple)

from repro.check.mutations import mutation_context
from repro.check.sanitizer import InvariantViolation, Sanitizer
from repro.coherence.states import ProtocolMode
from repro.common.config import CacheConfig, SystemConfig
from repro.common.errors import ReproError
from repro.cpu.ops import Op, compute, fetch_add, load, store
from repro.system.builder import Machine, build_machine
from repro.system.simulator import MemoryImage, Simulator, flush_machine_memory
from repro.system.stats import SimStats

#: Base address of the fuzzed lines (arbitrary, away from zero).
BASE = 0x40000
SLOT = 8  # bytes per thread slot / shared word


@dataclass(frozen=True)
class FuzzOp:
    """One schedule element, executed by thread ``tid`` in list order.

    ``kind``:

    * ``"load"`` / ``"store"`` / ``"rmw"`` — an access of ``size`` bytes at
      ``offset`` within line ``line`` (``rmw`` is a fetch-add of
      ``value``; ``store`` writes ``value``).
    * ``"evict"`` — pressure loads to conflict-mapped private lines that
      force ``line`` out of the thread's L1.
    * ``"pause"`` — ``value`` compute cycles (perturbs message timing).
    """

    tid: int
    kind: str
    line: int = 0
    offset: int = 0
    size: int = 8
    value: int = 0


@dataclass
class FuzzFailure:
    """Why a schedule failed."""

    stage: str  # "invariant" | "run" | "final-image" | "differential"
    kind: str   # exception class name, or "mismatch"
    detail: str

    def describe(self) -> str:
        return f"[{self.stage}/{self.kind}] {self.detail}"


@dataclass
class FuzzReport:
    """Outcome of one schedule execution (:func:`execute_schedule`)."""

    ok: bool
    failure: Optional[FuzzFailure] = None
    cycles: int = 0
    stats: Optional[SimStats] = None
    #: Faults the injector fired (:class:`repro.faults.injector.FiredFault`).
    fired: list = field(default_factory=list)

    def fired_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for fault in self.fired:
            out[fault.kind] = out.get(fault.kind, 0) + 1
        return out


# --------------------------------------------------------------- machine


def fuzz_config(num_threads: int = 4) -> SystemConfig:
    """A stress-prone machine: 2-way 1 KB L1s, a 4-entry SAM and τP = 1,
    so privatization, conflict aborts, SAM/LLC evictions and terminations
    all happen within a handful of operations."""
    return SystemConfig(
        num_cores=num_threads,
        l1=CacheConfig(size_bytes=1024, associativity=2),
        llc=CacheConfig(size_bytes=16 * 1024, associativity=4,
                        tag_latency=2, data_latency=8),
        num_llc_slices=2,
        network_latency=8,
        memory_latency=60,
    ).with_protocol(
        tau_p=1, sam_sets=2, sam_ways=2,
    ).with_sanitizer(enabled=True, sweep_interval=512)


def shared_offsets(num_threads: int, block_size: int = 64) -> List[int]:
    """Word offsets not owned by any thread (true-sharing targets)."""
    return list(range(SLOT * num_threads, block_size, SLOT))


# ------------------------------------------------------------ generation


def make_schedule(
    family: str,
    rng: random.Random,
    num_threads: int = 4,
    num_lines: int = 3,
    length: int = 80,
    block_size: int = 64,
) -> List[FuzzOp]:
    """Generate a random schedule of ``length`` ops in ``family``."""
    if family not in ("disjoint", "shared", "mixed"):
        raise ValueError(f"unknown fuzz family {family!r}")
    shared = shared_offsets(num_threads, block_size)
    ops: List[FuzzOp] = []
    for _ in range(length):
        tid = rng.randrange(num_threads)
        line = rng.randrange(num_lines)
        if family == "shared":
            kind = rng.choices(["rmw", "load", "pause"],
                               weights=[6, 2, 1])[0]
        else:
            kind = rng.choices(["store", "load", "rmw", "evict", "pause"],
                               weights=[5, 4, 2, 2, 1])[0]
        on_shared = (family == "shared"
                     or (family == "mixed" and kind in ("load", "rmw")
                         and rng.random() < 0.4))
        if kind == "pause":
            ops.append(FuzzOp(tid, "pause", value=rng.randrange(1, 24)))
        elif kind == "evict":
            ops.append(FuzzOp(tid, "evict", line=line))
        elif on_shared:
            offset = rng.choice(shared)
            if kind == "rmw":
                ops.append(FuzzOp(tid, "rmw", line, offset, SLOT,
                                  rng.randrange(1, 1 << 16)))
            else:
                ops.append(FuzzOp(tid, "load", line, offset, SLOT))
        else:
            size = rng.choice((1, 2, 4, 8))
            offset = SLOT * tid + size * rng.randrange(SLOT // size)
            if kind == "store":
                value = rng.randrange(1 << (8 * size))
                ops.append(FuzzOp(tid, "store", line, offset, size, value))
            elif kind == "rmw":
                ops.append(FuzzOp(tid, "rmw", line, offset, size,
                                  rng.randrange(1, 256)))
            else:
                ops.append(FuzzOp(tid, "load", line, offset, size))
    return ops


# ------------------------------------------------------------- execution


def _is_shared(op: FuzzOp, num_threads: int) -> bool:
    return op.offset >= SLOT * num_threads


def schedule_to_ops(
    schedule: List[FuzzOp],
    num_threads: int,
    config: SystemConfig,
    check_loads: bool = True,
) -> Tuple[List[Tuple[int, Op, Optional[int], str]],
           List[Tuple[int, int, str]]]:
    """Translate a schedule into one flat ``(tid, op, expected, label)``
    stream in schedule order, plus the expected final image, modelling
    single-writer slots exactly and shared words as sums.

    This is the single schedule→:class:`Op` translation: the detailed
    simulator's thread programs (:func:`execute_schedule`) and the atomic
    reference model (:mod:`repro.check.refmodel`) both consume it, so the
    two machines execute the *same* operation footprint by construction.

    ``check_loads=False`` suppresses the expected values of loads and RMWs
    (every ``expected`` is None), producing assertion-free programs for
    differential runs that must be judged by an external oracle only.  The
    :class:`Op` stream is identical either way.

    Returns ``(flat, expectations)`` where each expectation is
    ``(addr, want_value, label)`` for one 8-byte word.
    """
    block = config.block_size
    set_span = config.l1.num_sets * block
    model: Dict[int, bytearray] = {}
    shared_total: Dict[Tuple[int, int], int] = {}
    evict_seq: Dict[Tuple[int, int], int] = {}
    flat: List[Tuple[int, Op, Optional[int], str]] = []

    def line_model(line: int) -> bytearray:
        if line not in model:
            model[line] = bytearray(block)
        return model[line]

    # Labels are *thread-local* (t2#5 = thread 2's 6th schedule element):
    # dropping another thread's op never re-labels this thread's, which is
    # what lets the prefix-replay cache (repro.check.replay) treat a
    # thread's translated item list as a pure function of that thread's
    # own sub-schedule.
    per_thread_index: Dict[int, int] = {}
    for fop in schedule:
        j = per_thread_index.get(fop.tid, 0)
        per_thread_index[fop.tid] = j + 1
        label = f"t{fop.tid}#{j} {fop.kind}"
        if fop.kind == "pause":
            flat.append((fop.tid, compute(fop.value), None, label))
            continue
        if fop.kind == "evict":
            # Loads to never-written private lines that conflict-map to the
            # same L1 set as the target line; enough of them displace it.
            seq = evict_seq.get((fop.tid, fop.line), 0)
            evict_seq[(fop.tid, fop.line)] = seq + 1
            base = BASE + fop.line * block
            ways = config.l1.associativity
            for k in range(ways):
                slot = 1 + (fop.tid * 64 + seq) * ways + k
                addr = base + slot * set_span
                flat.append((fop.tid, load(addr, size=SLOT),
                             0 if check_loads else None,
                             f"{label} pressure#{k}"))
            continue
        addr = BASE + fop.line * block + fop.offset
        data = line_model(fop.line)
        lo, hi = fop.offset, fop.offset + fop.size
        if fop.kind == "store":
            data[lo:hi] = fop.value.to_bytes(fop.size, "little")
            flat.append((fop.tid, store(addr, fop.value, size=fop.size),
                         None, label))
        elif fop.kind == "rmw":
            if _is_shared(fop, num_threads):
                key = (fop.line, fop.offset)
                shared_total[key] = shared_total.get(key, 0) + fop.value
                flat.append((fop.tid,
                             fetch_add(addr, fop.value, size=fop.size),
                             None, label))
            else:
                old = int.from_bytes(data[lo:hi], "little")
                new = (old + fop.value) & ((1 << (8 * fop.size)) - 1)
                data[lo:hi] = new.to_bytes(fop.size, "little")
                flat.append((fop.tid,
                             fetch_add(addr, fop.value, size=fop.size),
                             old if check_loads else None, label))
        else:  # load
            if check_loads and not _is_shared(fop, num_threads):
                expected = int.from_bytes(data[lo:hi], "little")
            else:
                expected = None  # racing adds: value not predictable
            flat.append((fop.tid, load(addr, size=fop.size), expected,
                         label))

    expectations: List[Tuple[int, int, str]] = []
    for line, data in sorted(model.items()):
        base = BASE + line * block
        for off in range(0, block, SLOT):
            key = (line, off)
            if key in shared_total:
                want = shared_total[key] & ((1 << (8 * SLOT)) - 1)
            else:
                want = int.from_bytes(data[off:off + SLOT], "little")
            expectations.append(
                (base + off, want, f"line {line} offset {off}"))
    return flat, expectations


def _schedule_program(items):
    """One thread's generator over translated ``(op, expected, label)``
    items (module-level so :class:`_SchedulePrograms` pickles)."""
    for op, expected, label in items:
        result = yield op
        if expected is not None and result != expected:
            raise AssertionError(
                f"{label}: loaded {result:#x}, expected {expected:#x}")


class _SchedulePrograms:
    """Picklable program factory over per-thread translated item lists.

    Machines attached through this factory snapshot/restore cleanly; the
    replay cache passes a factory built over the *candidate* item lists
    when restoring a shared-prefix checkpoint."""

    __slots__ = ("per_thread",)

    def __init__(self, per_thread) -> None:
        self.per_thread = per_thread

    def __call__(self):
        return [_schedule_program(items) for items in self.per_thread]

    def __getstate__(self):
        return self.per_thread

    def __setstate__(self, state):
        self.per_thread = state


def _translate(
    schedule: List[FuzzOp],
    num_threads: int,
    config: SystemConfig,
    check_loads: bool = True,
    flat=None,
) -> Tuple[List[List[Tuple[Op, Optional[int], str]]],
           List[Tuple[int, int, str]]]:
    """Per-thread translated item lists plus the expected final image
    (empty when given ``flat``, the schedule's pre-translated stream)."""
    expectations: List[Tuple[int, int, str]] = []
    if flat is None:
        flat, expectations = schedule_to_ops(
            schedule, num_threads, config, check_loads=check_loads)
    per_thread: List[List[Tuple[Op, Optional[int], str]]] = [
        [] for _ in range(num_threads)]
    for tid, op, expected, label in flat:
        per_thread[tid].append((op, expected, label))
    return per_thread, expectations


class ScheduleRun(NamedTuple):
    """What one :func:`execute_schedule` call leaves behind."""

    machine: Machine
    report: FuzzReport
    #: The flushed final memory image (None when the run itself failed).
    image: Optional[MemoryImage] = None
    #: The differential comparison (None unless one ran).
    diff: Optional["DiffReport"] = None


def execute_schedule(
    schedule: List[FuzzOp],
    mode: ProtocolMode,
    num_threads: int,
    config: SystemConfig,
    mutation: Optional[str] = None,
    sanitize: bool = True,
    check_loads: bool = True,
    plan=None,
    differential: bool = False,
    reference=None,
    check_verdicts: bool = True,
    check_counters: bool = True,
    max_events: int = 5_000_000,
    replay=None,
    flat=None,
) -> ScheduleRun:
    """Run one schedule on the fuzz machine and judge it; never raises for
    protocol failures.  The one runner behind :func:`run_schedule`,
    :func:`repro.check.diff.run_differential` and
    :func:`repro.faults.chaos.run_chaos_case`.

    Translates the schedule; resumes from or records into the ``replay``
    cache (:class:`repro.check.replay.PrefixReplayCache`, bit-for-bit
    neutral; dropped for unscripted fault plans, whose injector RNG its
    guards do not model); builds the machine and attaches a
    :class:`~repro.faults.injector.FaultInjector` for ``plan``, then the
    sanitizer, so a state fault is judged at the same delivery; runs it
    through the four failure channels of the module doc, flushing memory
    once.  ``differential`` compares against ``reference`` (computed here
    when None).  ``check_loads=False`` runs assertion-free programs (same
    op stream) and skips the expected-image check, so only the sanitizer
    and the differential oracle judge; ``flat`` is that stream
    pre-translated, for callers that share one translation.
    """
    if replay is not None and plan is not None and plan.script is None:
        replay = None
    with mutation_context(mutation):
        per_thread, expectations = _translate(
            schedule, num_threads, config, check_loads=check_loads,
            flat=flat)
        factory = _SchedulePrograms(per_thread)
        machine = None
        resume = False
        checkpoint_every = on_checkpoint = None
        if replay is not None:
            from repro.check.replay import (
                CheckpointHook,
                fault_script_set,
                thread_keys,
            )

            keys = thread_keys(per_thread)
            script = fault_script_set(plan)
            plan_key = ((plan.delay_cycles, plan.state_period)
                        if plan is not None else None)
            context = (mode.value, num_threads, bool(sanitize), mutation,
                       bool(check_loads), plan_key,
                       replay.config_key(config))
            hit = replay.lookup(context, keys, fault_script=script)
            if hit is not None:
                machine = replay.restore(hit, factory)
                resume = True
                restored = machine.extras.get("injector")
                if restored is not None:
                    # The snapshot carries the script it was recorded
                    # under; swap in the candidate's (the decided prefix
                    # is identical by the guard, the future differs).
                    restored.plan = plan
                    restored._script = {(e.kind, e.opportunity)
                                        for e in plan.script}
            if replay.should_record(context, resumed=resume):
                checkpoint_every = replay.checkpoint_every
                on_checkpoint = CheckpointHook(replay, context, keys,
                                               fault_script=script)
        if machine is None:
            machine = build_machine(config, mode)
            machine.attach_programs(program_factory=factory)
            if plan is not None:
                from repro.faults.injector import FaultInjector

                machine.extras["injector"] = \
                    FaultInjector(machine, plan).attach()
            if sanitize:
                machine.extras["sanitizer"] = Sanitizer(machine).attach()
        injector = machine.extras.get("injector")
        sanitizer = machine.extras.get("sanitizer")
        report = FuzzReport(False)
        try:
            result = Simulator(machine, max_events=max_events).run(
                resume=resume, checkpoint_every=checkpoint_every,
                on_checkpoint=on_checkpoint)
            if sanitizer is not None:
                sanitizer.check_all()
        except InvariantViolation as exc:
            report.failure = FuzzFailure(
                "invariant", type(exc).__name__, str(exc))
        except (ReproError, AssertionError) as exc:
            report.failure = FuzzFailure("run", type(exc).__name__, str(exc))
        finally:
            if sanitizer is not None:
                sanitizer.detach()
            if injector is not None:
                report.fired = list(injector.fired)
                injector.detach()
        if report.failure is not None:
            return ScheduleRun(machine, report)
        report.cycles, report.stats = result.cycles, result.stats
        image = flush_machine_memory(machine)
        if check_loads:
            for addr, want, label in expectations:
                base = addr & ~(config.block_size - 1)
                data = image.get(base, bytes(config.block_size))
                off = addr - base
                got = int.from_bytes(data[off:off + SLOT], "little")
                if got != want:
                    report.failure = FuzzFailure(
                        "final-image", "mismatch",
                        f"{label}: final value {got:#x}, expected {want:#x}")
                    return ScheduleRun(machine, report, image)
        diff = None
        if differential:
            # Imported lazily: repro.check.diff imports this module.
            from repro.check.diff import differential_check
            from repro.check.refmodel import run_reference

            if reference is None:
                reference = (
                    replay.ref_run(schedule, num_threads, config)
                    if replay is not None
                    else run_reference(schedule, num_threads, config))
            diff = differential_check(machine, reference, image=image,
                                      check_verdicts=check_verdicts,
                                      check_counters=check_counters)
            if diff.divergences:
                first = diff.divergences[0]
                report.failure = FuzzFailure(
                    "differential", first.kind, first.describe())
        report.ok = report.failure is None
        return ScheduleRun(machine, report, image, diff)


def run_schedule(
    schedule: List[FuzzOp],
    mode: ProtocolMode = ProtocolMode.FSLITE,
    num_threads: int = 4,
    config: Optional[SystemConfig] = None,
    sanitize: bool = True,
    mutation: Optional[str] = None,
    max_events: int = 5_000_000,
    differential: bool = False,
    check_loads: bool = True,
    replay=None,
) -> FuzzReport:
    """Execute one schedule on the fuzz machine (:func:`execute_schedule`)
    and return its report; never raises for protocol failures.

    ``differential=True`` adds the full differential comparison against
    the atomic reference model; a divergence fails the report with stage
    ``"differential"``.  ``replay`` (a
    :class:`repro.check.replay.PrefixReplayCache`) resumes from memoized
    snapshots — shrink loops pass one cache per session; one-shot callers
    leave it None.
    """
    return execute_schedule(
        schedule, mode, num_threads, config or fuzz_config(num_threads),
        mutation=mutation, sanitize=sanitize, check_loads=check_loads,
        differential=differential, max_events=max_events,
        replay=replay).report


# ------------------------------------------------------------- shrinking


def shrink_schedule(
    schedule: List[FuzzOp],
    still_fails: Callable[[List[FuzzOp]], bool],
    budget: int = 400,
) -> List[FuzzOp]:
    """Delta-debug ``schedule`` to a locally minimal failing sub-schedule.

    ``still_fails`` must be deterministic; dropping elements preserves each
    thread's relative order, so every candidate is a valid program. Runs
    classic ddmin, then a greedy one-at-a-time pass, within ``budget``
    evaluations.
    """
    runs = 0

    def fails(candidate: List[FuzzOp]) -> bool:
        nonlocal runs
        runs += 1
        return still_fails(candidate)

    current = list(schedule)
    chunks = 2
    while len(current) >= 2 and runs < budget:
        size = max(1, len(current) // chunks)
        reduced = False
        # Scan back-to-front: dropping a tail chunk leaves the candidate
        # sharing the base's entire prefix, so replay caches resume deep
        # instead of re-simulating from cycle zero.
        starts = range(((len(current) - 1) // size) * size, -1, -size)
        for start in starts:
            candidate = current[:start] + current[start + size:]
            if not candidate or runs >= budget:
                continue
            if fails(candidate):
                current = candidate
                chunks = max(chunks - 1, 2)
                reduced = True
                break
        if not reduced:
            if chunks >= len(current):
                break
            chunks = min(len(current), chunks * 2)
    # Greedy single-op minimization until a fixed point.
    improved = True
    while improved and runs < budget:
        improved = False
        for index in range(len(current) - 1, -1, -1):
            if runs >= budget:
                break
            candidate = current[:index] + current[index + 1:]
            if candidate and fails(candidate):
                current = candidate
                improved = True
    return current


# ------------------------------------------------------------- rendering


def render_schedule(schedule: List[FuzzOp], indent: str = "        ") -> str:
    lines = []
    for op in schedule:
        args = [str(op.tid), repr(op.kind)]
        for name in ("line", "offset", "size", "value"):
            default = FuzzOp.__dataclass_fields__[name].default
            got = getattr(op, name)
            if got != default:
                args.append(f"{name}={got}")
        lines.append(f"{indent}FuzzOp({', '.join(args)}),")
    return "\n".join(lines)


def _source(value) -> str:
    """Python source for one runner argument."""
    if isinstance(value, ProtocolMode):
        return f"ProtocolMode.{value.name}"
    if isinstance(value, list):
        return f"[{', '.join(_source(item) for item in value)}]"
    return repr(value)


def render_pytest_repro(
    schedule: List[FuzzOp],
    runner: Callable,
    call: Dict[str, object],
    failure: FuzzFailure,
    case_seed: Optional[int] = None,
) -> str:
    """Render ``runner(schedule, **call)`` as a ready-to-paste pytest case.

    The call is rendered argument for argument, so the repro runs exactly
    what the campaign ran.  The generated test asserts the call *passes*,
    so it fails while the reproduced bug exists and goes green once it is
    fixed.
    """
    verb = runner.__module__.rsplit(".", 1)[-1]
    name_bits = [m.value for m in call.get("modes") or [call["mode"]]]
    if call.get("mutation"):
        name_bits.append(call["mutation"].replace("-", "_"))
    if case_seed is not None:
        name_bits.append(f"seed{case_seed}")
    imports = {"repro.check.fuzz": {"FuzzOp"},
               "repro.coherence.states": {"ProtocolMode"}}
    imports.setdefault(runner.__module__, set()).add(runner.__name__)
    if call.get("plan") is not None:
        imports["repro.faults"] = {"FaultEvent", "FaultPlan"}
    import_lines = "\n".join(f"from {module} import {', '.join(sorted(names))}"
                             for module, names in sorted(imports.items()))
    args = "".join(f"        {name}={_source(value)},\n"
                   for name, value in call.items())
    return f'''# Shrunk from a failing {verb} case.
# Failure: {failure.stage}/{failure.kind}
{import_lines}


def test_{verb}_repro_{"_".join(name_bits)}():
    schedule = [
{render_schedule(schedule)}
    ]
    report = {runner.__name__}(
        schedule,
{args}    )
    assert report.ok, report.failure.describe()
'''


# -------------------------------------------------------------- campaign


FAMILIES = ("disjoint", "shared", "mixed")


def seeded_schedules(
    seed: int,
    count: int,
    families: List[str],
    stride: int = 1,
    num_threads: int = 4,
    num_lines: int = 3,
    length: int = 80,
) -> Iterator[Tuple[int, int, str, List[FuzzOp]]]:
    """``(index, case_seed, family, schedule)`` for the first ``count``
    cases of the campaign seeded ``seed``; the schedule family rotates
    through ``families`` every ``stride`` cases."""
    rng = random.Random(seed)
    for index in range(count):
        case_seed = rng.randrange(1 << 32)
        family = families[(index // stride) % len(families)]
        yield index, case_seed, family, make_schedule(
            family, random.Random(case_seed), num_threads=num_threads,
            num_lines=num_lines, length=length)


@dataclass
class Case:
    """One campaign case: a generated schedule and the exact runner call
    to make on it — the call a failure's repro renders verbatim."""

    case_seed: int
    family: str
    schedule: List[FuzzOp]
    #: :func:`run_schedule`, :func:`repro.check.diff.run_differential` or
    #: :func:`repro.faults.chaos.run_chaos_case`.
    runner: Callable
    #: The runner's keyword arguments after the schedule.
    call: Dict[str, object]
    #: The machine config ``call`` builds, made once for every run.
    config: SystemConfig
    fault_family: Optional[str] = None
    #: The fault-free twin's report (faulted cases; set by the loop).
    twin: Optional[FuzzReport] = None

    @property
    def faulted(self) -> bool:
        return self.call.get("plan") is not None

    def at(self, candidate: Optional[list]
           ) -> Tuple[List[FuzzOp], Dict[str, object]]:
        """The runner call on a shrink ``candidate`` (None: the case as
        generated): a sub-schedule, or for a faulted case a sub-script of
        its fired fault events."""
        if candidate is None:
            return self.schedule, self.call
        if self.faulted:
            return self.schedule, {**self.call, "plan": replace(
                self.call["plan"], script=tuple(candidate))}
        return candidate, self.call

    def run(self, candidate: Optional[list] = None, replay=None, **override):
        schedule, call = self.at(candidate)
        return self.runner(schedule, config=self.config, replay=replay,
                           **{**call, **override})


@dataclass
class Finding:
    """One failing campaign case, shrunk and rendered."""

    case_seed: int
    family: str
    schedule: List[FuzzOp]
    #: The minimal failing schedule — or, for a faulted case, fault script.
    shrunk: list
    failure: FuzzFailure
    runner: Callable
    #: The runner call the repro makes (on ``shrunk`` or ``schedule``).
    call: Dict[str, object]
    fault_family: Optional[str] = None
    fired: list = field(default_factory=list)

    @property
    def mode(self) -> Optional[ProtocolMode]:
        return self.call.get("mode")

    @property
    def mutation(self) -> Optional[str]:
        return self.call.get("mutation")

    @property
    def plan(self):
        return self.call.get("plan")

    @property
    def detail(self) -> str:
        return self.failure.detail

    @property
    def repro_source(self) -> str:
        schedule = self.schedule if self.plan is not None else self.shrunk
        return render_pytest_repro(schedule, self.runner, self.call,
                                   self.failure, self.case_seed)

    def describe(self) -> str:
        modes = self.call.get("modes") or [self.mode]
        where = f"{'+'.join(m.value for m in modes)}/{self.family}"
        if self.fault_family is not None:
            where += f" under {self.fault_family} faults"
        if self.mutation:
            where += f" +{self.mutation}"
        if self.plan is not None:
            shrunk = (f"{len(self.fired)} fault(s) fired, script shrunk to "
                      f"{len(self.shrunk)} event(s)")
        elif self.fault_family is not None:
            shrunk = "fault-free twin failed: plain protocol bug"
        else:
            shrunk = (f"schedule: {len(self.schedule)} op(s), shrunk to "
                      f"{len(self.shrunk)}")
        return (f"case seed {self.case_seed}: {where}\n"
                f"  {self.failure.describe()}\n  {shrunk}")


@dataclass
class CampaignResult:
    iterations: int
    findings: List[Finding] = field(default_factory=list)
    #: Differential campaigns: reference block comparisons made.
    blocks_compared: int = 0
    #: Chaos campaigns: surviving cases and their degradation.
    cases: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def family_fired(self) -> Dict[str, int]:
        """Total effective faults per fault family across surviving cases."""
        from repro.faults.plan import CHAOS_FAMILIES

        out = dict.fromkeys(CHAOS_FAMILIES, 0)
        for case in self.cases:
            out[case.fault_family] += case.report.total_fired
        return out

    def family_degraded(self) -> Dict[str, bool]:
        """Per fault family: did some case fire faults *and* measure a
        nonzero degradation delta vs its twin?  (The acceptance check that
        injection is real, not vacuous.)"""
        from repro.faults.plan import CHAOS_FAMILIES

        out = dict.fromkeys(CHAOS_FAMILIES, False)
        for case in self.cases:
            if case.report.degraded:
                out[case.fault_family] = True
        return out


def run_campaign(
    result: CampaignResult,
    cases: Iterable[Case],
    shrink: bool = True,
    shrink_budget: int = 400,
    on_probe: Optional[Callable[[int, Case, object], None]] = None,
    hunt: bool = False,
) -> CampaignResult:
    """The one campaign loop behind fuzz, diff, chaos and the mutation
    hunt: probe each case; shrink a failure through a prefix-replay
    session (:func:`repro.check.replay.shrink_evaluator`); record it as a
    :class:`Finding` whose repro renders the exact runner call.

    A faulted case runs its fault-free twin first.  A failing twin is a
    plain protocol bug, reported unshrunk and without a fault plan.
    Otherwise what shrinks is the faulted run's fired-fault list, as a
    scripted plan, once a scripted replay is seen to fail too.

    ``hunt`` is for cases expected to fail: the probe runs inside the
    replay session, so its checkpoints anchor the shrink, and the loop
    stops at the first finding.  Fully deterministic: the replay cache
    never changes a verdict, only wall clock.
    """
    from repro.check.replay import PrefixReplayCache, shrink_evaluator

    for index, case in enumerate(cases):
        # Fault-script candidates all run the full fixed schedule, so an
        # anchoring re-run pays at any script length and replays the
        # script whole (truncating it would change its meaning).
        anchoring = (dict(min_anchor=0, anchor_fraction=1.0)
                     if case.faulted else {})
        evaluate = shrink_evaluator(PrefixReplayCache(), case.run,
                                    **anchoring)

        def fails(candidate: list) -> bool:
            return bool(candidate) and not evaluate(candidate).ok

        call, twin_failed = case.call, False
        if case.faulted:
            case.twin = report = case.run(plan=None)
            twin_failed = not report.ok
            if twin_failed:
                call = {**call, "plan": None}
        if not twin_failed:
            report = evaluate(case.schedule) if hunt else case.run()
        if on_probe is not None:
            on_probe(index, case, report)
        if report.ok:
            continue
        subject = ([fault.event() for fault in report.fired]
                   if call.get("plan") is not None else case.schedule)
        # A faulted failure shrinks only once its scripted replay is seen
        # to fail too (the probe ran the rate-driven plan).
        shrinkable = not twin_failed and (not case.faulted or fails(subject))
        shrunk = subject
        if shrink and shrinkable:
            shrunk = shrink_schedule(subject, fails, budget=shrink_budget)
        final = report if shrunk == subject else evaluate(shrunk)
        if shrinkable:
            call = case.at(shrunk)[1]
        result.findings.append(Finding(
            case_seed=case.case_seed, family=case.family,
            schedule=case.schedule, shrunk=shrunk, failure=final.failure,
            runner=case.runner, call=call, fault_family=case.fault_family,
            fired=report.fired if case.faulted else []))
        if hunt:
            break
    return result


def fuzz_campaign(
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
    differential: bool = False,
    progress: Optional[Callable[[int, str, ProtocolMode, FuzzReport],
                                None]] = None,
) -> CampaignResult:
    """Run ``iterations`` random schedules through :func:`run_schedule`;
    shrink and render any failure (:func:`run_campaign`).

    ``differential=True`` adds the atomic-reference-model oracle to every
    run (including shrink re-executions).  Fully deterministic for a given
    ``seed`` and parameter set.
    """
    modes = modes or list(ProtocolMode)
    families = families or list(FAMILIES)
    config = fuzz_config(num_threads)

    def cases():
        for index, case_seed, family, schedule in seeded_schedules(
                seed, iterations, families, num_threads=num_threads,
                num_lines=num_lines, length=length):
            mode = modes[(index // len(families)) % len(modes)]
            yield Case(case_seed, family, schedule, run_schedule, dict(
                mode=mode, num_threads=num_threads, mutation=mutation,
                differential=differential), config)

    def on_probe(index: int, case: Case, report: FuzzReport) -> None:
        if progress is not None:
            progress(index, case.family, case.call["mode"], report)

    return run_campaign(CampaignResult(iterations), cases(), shrink,
                        shrink_budget, on_probe)
