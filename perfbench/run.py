"""Host-performance benchmark of the simulator.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fs-apps --seed 0 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each was chosen):
``fs-apps``, ``trace-replay`` and ``diff-campaign``.

``--trace 0`` measures the end-to-end metrics with no instrumentation:
set-up is timed in fresh interpreters (median of several), then rounds of
the workload repeat for ``--seconds``; throughput is the lower quartile
over rounds and peak RSS is the high-water mark over the timed rounds
only.
``--trace 1`` runs one counted round and one traced round instead (so
``--seconds`` does not apply) and reports the per-layer metrics.  Every
round's outputs are checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is imported from ``src/`` of this checkout and
nowhere else; without it the benchmark exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Fresh interpreters timed per run for ``setup_s``.
SETUP_SAMPLES = 3
#: Ops per thread of the short trace in the memory-growth self-check; the
#: long trace is four times longer.
GROWTH_OPS_PER_THREAD = 6_250


class BenchError(Exception):
    """The benchmark cannot run here."""


def _import_repro():
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise BenchError(f"cannot import repro from {SRC}: {exc}") from exc
    origin = pathlib.Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise BenchError(f"repro was imported from {origin}, not {SRC}")


def _metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


# ------------------------------------------------------------ memory


def reset_peak_rss() -> None:
    """Reset this process's resident-set high-water mark (Linux)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """Resident-set high-water mark since the last reset, in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError("no VmHWM in /proc/self/status")


# ------------------------------------------------------------- phases


def setup_seconds(args) -> float:
    """Wall time of one fresh interpreter doing the workload's set-up:
    interpreter start, imports, then everything the workload does before
    its timed body.  The child reports when its set-up ended on the
    system-wide monotonic clock, so the figure does not include the
    child's exit nor the parent's polling for it."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    start = time.monotonic()
    child = subprocess.run(cmd, check=True, capture_output=True, text=True,
                           timeout=170)
    return float(child.stdout.split()[-1]) - start


def timed_rounds(workload, seconds: float):
    """Repeat rounds while another round of median length still fits in
    ``seconds``; returns the rounds and their wall times."""
    rounds, times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(workload.round())
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return rounds, times


def check_digests(workload, rounds) -> None:
    """Every round must reproduce the committed digests (default seed) or
    the first round's (any seed); a mismatch fails that unit."""
    first = rounds[0].digests
    for rnd in rounds:
        for unit, digest in rnd.digests.items():
            want = (workload.expected.get(unit) if workload.expected
                    else first.get(unit))
            if digest != want:
                rnd.fail(unit, f"digest {digest[:16]} != expected "
                               f"{(want or 'none')[:16]}")


def replay_growth(seed: int, workdir: pathlib.Path):
    """Self-check of the memory metric: peak RSS over a replay of a trace
    and of one four times longer.  Returns (streamed growth in MB, whether
    the metric rose for the in-memory replay, whose op lists are held for
    the whole run and so must grow)."""
    from repro.coherence.states import ProtocolMode
    from repro.harness.engine import Engine
    from repro.workloads.trace import read_trace, synthesize_trace, trace_spec

    from workloads import trace_profile

    peaks = {}
    for length, per_thread in (("short", GROWTH_OPS_PER_THREAD),
                               ("long", 4 * GROWTH_OPS_PER_THREAD)):
        path = workdir / f"growth_{length}.rtrace"
        synthesize_trace(trace_profile(seed, per_thread), path)
        spec = trace_spec(path, mode=ProtocolMode.MESI)
        for variant in ("streamed", "in-memory"):
            reset_peak_rss()
            held = read_trace(path) if variant == "in-memory" else None
            Engine(jobs=1, cache_dir=None).run_one(spec)
            peaks[(length, variant)] = peak_rss_mb()
            del held
    streamed = peaks[("long", "streamed")] - peaks[("short", "streamed")]
    rose = peaks[("long", "in-memory")] > peaks[("short", "in-memory")]
    return streamed, rose


# -------------------------------------------------------------- runs


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_run(args, workload, end_to_end):
    setup = statistics.median(setup_seconds(args)
                              for _ in range(SETUP_SAMPLES))
    reset_peak_rss()
    rounds, times = timed_rounds(workload, args.seconds)
    peak = peak_rss_mb()
    check_digests(workload, rounds)
    rates = [r.ops / t for r, t in zip(rounds, times)]
    values = {
        # The lower quartile, not the median: on a shared host whose speed
        # jumps between levels for seconds at a time, the median of a run
        # flips between those levels from one run to the next, while three
        # rounds in four reach the lower quartile.
        "sim_ops_per_s": (statistics.quantiles(rates, n=4,
                                               method="inclusive")[0]
                          if len(rates) > 1 else rates[0]),
        "setup_s": setup,
        "peak_rss_mb": peak,
    }
    print(f"{workload.name}: {len(rounds)} round(s) in {sum(times):.2f} s, "
          f"ops/s per round: " + " ".join(f"{r:.0f}" for r in rates))
    if rounds[0].fslite_speedup:
        print(f"{workload.name}: fslite_speedup "
              f"{rounds[0].fslite_speedup:.4f} x (simulated, geomean of "
              f"MESI/FSLite cycles)")
    metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
               for m in end_to_end}
    return rounds, metrics


def instrumented_round(workload, *instruments):
    """One round with ``instruments`` installed; returns (round, wall s)."""
    for instrument in instruments:
        instrument.install()
    try:
        start = time.perf_counter()
        rnd = workload.round()
        return rnd, time.perf_counter() - start
    finally:
        for instrument in reversed(instruments):
            instrument.uninstall()


def print_shares(tracer, wall: float) -> None:
    """Each span's self time as a share of the traced round's wall time."""
    outside = wall - sum(tracer.self_s.values())
    rows = [*tracer.self_s.items(), ("(outside spans)", outside)]
    for name, self_s in sorted(rows, key=lambda kv: -kv[1]):
        if self_s > 0:
            print(f"share {name:22s} {self_s:8.3f} s "
                  f"{100 * self_s / wall:5.1f}%")


def traced_run(args, workload, per_layer, workdir):
    from layers import Tracer, WorkCounters, layer_metrics

    counted, tracer, recount = WorkCounters(), Tracer(), WorkCounters()
    base, counted_wall = instrumented_round(workload, counted)
    traced, traced_wall = instrumented_round(workload, recount, tracer)
    rounds = [base, traced]
    check_digests(workload, rounds)
    traced.attempted += 1
    if recount.totals != counted.totals:
        differing = sorted(k for k in counted.totals
                           if counted.totals[k] != recount.totals.get(k))
        traced.fail("work-counters",
                    f"tracing changed counters: {', '.join(differing)}")

    values = layer_metrics(counted, tracer, counted_wall, traced_wall,
                           base.engine_overhead_s)
    values["mem.replay_growth_mb"] = 0.0
    if workload.name == "trace-replay":
        traced.attempted += 1
        growth, rose = replay_growth(args.seed, workdir)
        values["mem.replay_growth_mb"] = growth
        if not rose:
            traced.fail("memory-growth", "peak_rss_mb did not rise for an "
                        "in-memory replay four times longer")
    print(f"{workload.name}: counted round {counted_wall:.2f} s, traced "
          f"round {traced_wall:.2f} s")
    print_shares(tracer, traced_wall)
    metrics = {m["name"]: _metric(values[m["name"]], m["unit"])
               for m in per_layer}
    return rounds, metrics


def run(args, workdir: pathlib.Path) -> dict:
    from workloads import WORKLOADS

    end_to_end, per_layer = _metric_specs()
    workload = WORKLOADS[args.workload](args.seed, workdir)
    if args.trace:
        rounds, metrics = traced_run(args, workload, per_layer, workdir)
    else:
        rounds, metrics = end_to_end_run(args, workload, end_to_end)
    for unit, digest in sorted(rounds[0].digests.items()):
        print(f"digest {workload.name} seed={args.seed} {unit} {digest}")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    for rnd in rounds:
        for unit, reason in sorted(rnd.failures.items()):
            print(f"FAILED {workload.name} {unit}: {reason}", file=sys.stderr)
    print(f"{workload.name}: units_failed {failed} of units_attempted "
          f"{attempted}")
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fs-apps", "trace-replay", "diff-campaign"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the workload's set-up and exit (used to "
                             "time set-up in a fresh interpreter)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        _import_repro()
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workroot = ROOT / ".perfbench_work"
    workdir = workroot / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            WORKLOADS[args.workload](args.seed, workdir)
            print(time.monotonic())
            return 0
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
