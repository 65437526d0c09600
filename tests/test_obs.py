"""Tests of the observability layer (:mod:`repro.obs`).

Covers the observer attach/detach protocol, the metrics registry/sampler,
the episode tracker's lifecycle recording (golden span structure for a toy
false-sharing workload with a conflict termination), the Chrome-trace
exporter, the harness threading (``RunSpec.obs`` → ``extra["obs"]``), and
the ``repro trace`` / ``repro run --obs`` CLI verbs.
"""

import json

import pytest

from repro.coherence.states import DirState, ProtocolMode
from repro.cpu.ops import compute, fetch_add, store
from repro.obs import (
    EpisodeTracker,
    MetricsRegistry,
    MetricsSampler,
    Observer,
    chrome_trace,
    trace_from_record,
    write_chrome_trace,
)
from repro.system.builder import build_machine
from repro.system.simulator import Simulator

from _helpers import small_config

LINE = 0x10000


def build_small(mode=ProtocolMode.FSLITE):
    return build_machine(small_config(), mode)


def conflict_workload_programs():
    """Privatize on disjoint 8-byte slots, then force a byte conflict."""
    def worker(tid):
        def prog():
            for i in range(150):
                yield store(LINE + 8 * tid, i + 1, size=8)
                yield compute(2)
            yield fetch_add(LINE, 1, size=8)  # everyone hits slot 0
            for i in range(20):
                yield store(LINE + 8 * tid, 999, size=8)
                yield compute(2)
        return prog()
    return [worker(t) for t in range(4)]


def run_observed(programs, mode=ProtocolMode.FSLITE, period=500):
    machine = build_small(mode)
    machine.attach_programs(programs)
    tracker = EpisodeTracker(machine).attach()
    sampler = MetricsSampler(machine, period=period).attach()
    result = Simulator(machine).run()
    tracker.finish(result.cycles)
    sampler.finish(result.cycles)
    tracker.detach()
    sampler.detach()
    return result, machine, tracker, sampler


class TestObserverProtocol:
    def test_attach_registers_only_defined_callbacks(self):
        machine = build_small()

        class SendOnly(Observer):
            def on_send(self, msg):
                pass

        obs = SendOnly(machine).attach()
        assert len(machine.network.post_send_hooks) == 1
        assert machine.network.post_deliver_hooks == []
        obs.detach()
        assert machine.network.post_send_hooks == []

    def test_double_attach_rejected_detach_idempotent(self):
        machine = build_small()
        obs = Observer(machine).attach()
        with pytest.raises(RuntimeError, match="already attached"):
            obs.attach()
        obs.detach()
        obs.detach()  # no-op
        obs.attach()  # reattachable after detach
        obs.detach()

    def test_context_manager(self):
        machine = build_small()

        class Counting(Observer):
            sends = 0

            def on_send(self, msg):
                self.sends += 1

        with Counting(machine):
            assert machine.network._hooked
        assert not machine.network._hooked

    def test_multiple_observers_coexist(self):
        machine = build_small()
        a = EpisodeTracker(machine).attach()
        b = MetricsSampler(machine).attach()
        assert machine.network._hooked
        a.detach()
        assert machine.network._hooked  # b still there
        b.detach()
        assert not machine.network._hooked

    def test_machine_attach_observer_checks_identity(self):
        machine = build_small()
        other = build_small()
        obs = EpisodeTracker(other)
        with pytest.raises(ValueError, match="different machine"):
            machine.attach_observer(obs)
        attached = machine.attach_observer(EpisodeTracker(machine))
        assert attached.attached
        attached.detach()

    def test_failed_on_attach_rolls_back_hooks(self):
        machine = build_small()

        class Exploding(Observer):
            def on_send(self, msg):
                pass

            def on_attach(self, machine):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            Exploding(machine).attach()
        assert machine.network.post_send_hooks == []
        assert not machine.network._hooked


class TestMetricsRegistry:
    def test_counter_gauge_and_series(self):
        reg = MetricsRegistry()
        box = {"v": 0}
        reg.counter("c", lambda: box["v"])
        reg.gauge("g", lambda: 42)
        owned = reg.counter("own")
        owned.inc(3)
        reg.sample(10)
        box["v"] = 7
        reg.sample(20)
        assert reg.series == [
            {"cycle": 10, "c": 0, "g": 42, "own": 3},
            {"cycle": 20, "c": 7, "g": 42, "own": 3},
        ]
        assert reg.kind_of("c") == "counter"
        assert reg.kind_of("g") == "gauge"

    def test_duplicate_name_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x", lambda: 0)
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x", lambda: 0)

    def test_sampler_rejects_bad_period(self):
        machine = build_small()
        with pytest.raises(ValueError, match="period"):
            MetricsSampler(machine, period=0)

    def test_sampler_series_is_cycle_ordered_and_monotonic(self):
        _, _, _, sampler = run_observed(conflict_workload_programs())
        series = sampler.registry.series
        assert len(series) >= 3
        cycles = [row["cycle"] for row in series]
        assert cycles == sorted(cycles)
        assert len(set(cycles)) == len(cycles)
        # Counters are monotonic along the series.
        for name in ("network.msgs_total", "l1.misses", "dir.terminations"):
            values = [row[name] for row in series]
            assert values == sorted(values)
        # The final row reflects end-of-run totals.
        assert series[-1]["dir.privatizations"] >= 1

    def test_sampler_to_dict_carries_period(self):
        machine = build_small()
        sampler = MetricsSampler(machine, period=123)
        assert sampler.to_dict()["sample_period"] == 123


class TestEpisodeTracker:
    def test_conflict_episode_golden_lifecycle(self):
        result, machine, tracker, _ = run_observed(
            conflict_workload_programs())
        # One privatization episode on the toy line, conflict-terminated.
        eps = [e for e in tracker.episodes if e.block_addr == LINE]
        assert len(eps) == 1
        ep = eps[0].to_dict()
        assert ep["kind"] == "privatization"
        assert ep["termination_cause"] == "conflict"
        assert not ep["aborted"]
        assert ep["sharers"] == [0, 1, 2, 3]
        # Span ordering: counting -> flag -> established -> end.
        assert ep["counting_since"] <= ep["flag_cycle"]
        assert ep["flag_cycle"] < ep["established_cycle"] < ep["end_cycle"]
        kinds = [e["kind"] for e in ep["events"]]
        assert kinds[0] == "flag"
        assert kinds[1] == "prv_init"
        assert kinds[2] == "prv_established"
        assert kinds[-2] == "term_start"
        assert kinds[-1] == "term_end"
        # All four cores contributed slots to the final byte merge.
        assert sorted(ep["merge_summary"]) == ["0", "1", "2", "3"]
        # The burst contains the FSLite vocabulary.
        for name in ("TR_PRV", "DATA_PRV", "INV_PRV"):
            assert ep["messages"].get(name, 0) >= 1

    def test_episodes_agree_with_fsreport_and_counters(self):
        result, _, tracker, _ = run_observed(conflict_workload_programs())
        flagged = sorted({e.block_addr for e in tracker.episodes
                          if e.flag_cycle is not None})
        assert flagged == sorted({r.block_addr
                                  for r in result.stats.reports})
        stat_terms = {c: n for c, n in result.stats.terminations.items()
                      if n}
        assert tracker.termination_histogram() == stat_terms

    def test_fsdetect_episode_is_detection_only(self):
        result, _, tracker, _ = run_observed(
            conflict_workload_programs(), mode=ProtocolMode.FSDETECT)
        assert result.stats.privatizations == 0
        flagged = [e for e in tracker.episodes if e.flag_cycle is not None]
        assert flagged
        assert all(e.kind == "detection" for e in flagged)
        assert all(e.termination_cause == "report" for e in flagged)
        assert all(e.end_cycle == e.flag_cycle for e in flagged)

    def test_open_episode_closed_at_finish(self):
        def writer(tid):
            def prog():
                for i in range(300):
                    yield store(LINE + 8 * tid, i + 1, size=8)
                    yield compute(2)
            return prog()
        result, machine, tracker, _ = run_observed(
            [writer(t) for t in range(4)])
        line = machine.home_slice(LINE).llc.peek(LINE)
        assert line.state == DirState.PRV  # episode survives the run
        ep = [e for e in tracker.episodes if e.block_addr == LINE][0]
        assert ep.termination_cause is None
        assert ep.end_cycle == result.cycles
        assert ep.events[-1].kind == "end_of_run"

    def test_second_tracker_rejected(self):
        machine = build_small()
        first = EpisodeTracker(machine).attach()
        with pytest.raises(RuntimeError, match="already has an episode"):
            EpisodeTracker(machine).attach()
        first.detach()
        assert all(sl.obs is None for sl in machine.slices)


class TestPerfettoExport:
    def payload(self):
        result, _, tracker, sampler = run_observed(
            conflict_workload_programs())
        return {
            "meta": {"cycles": result.cycles, "num_cores": 4},
            "episodes": tracker.to_dict()["episodes"],
            "metrics": sampler.to_dict(),
        }

    def test_chrome_trace_structure(self):
        trace = chrome_trace(self.payload())
        events = trace["traceEvents"]
        assert trace["otherData"]["num_cores"] == 4
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C"} <= phases
        spans = [e for e in events if e["ph"] == "X"]
        assert any("conflict" in s["name"] for s in spans)
        for span in spans:
            assert span["dur"] >= 1
            assert span["args"]["block"].startswith("0x")
        counters = [e for e in events if e["ph"] == "C"]
        assert {c["name"] for c in counters} >= {"network.msgs_total",
                                                "dir.privatizations"}

    def test_trace_is_json_serializable_and_loadable(self, tmp_path):
        trace = chrome_trace(self.payload())
        out = tmp_path / "trace.json"
        write_chrome_trace(out, trace)
        again = json.loads(out.read_text())
        assert again["traceEvents"] == trace["traceEvents"]

    def test_trace_from_record_requires_obs(self):
        from repro.harness.runner import RunSpec, execute_spec

        record = execute_spec(RunSpec(tag="ww", scale=0.1))
        with pytest.raises(ValueError, match="no observability data"):
            trace_from_record(record)


class TestHarnessThreading:
    def test_execute_spec_obs_payload_matches_report(self):
        from repro.common.config import ObsConfig
        from repro.harness.runner import RunSpec, execute_spec

        spec = RunSpec(tag="ww", mode=ProtocolMode.FSLITE, scale=0.1,
                       obs=ObsConfig(sample_period=200))
        record = execute_spec(spec)
        payload = record.extra["obs"]
        assert payload["meta"]["cycles"] == record.cycles
        assert payload["meta"]["sample_period"] == 200
        flagged = sorted({e["block_addr"] for e in payload["episodes"]
                          if e["flag_cycle"] is not None})
        assert flagged == sorted({r.block_addr
                                  for r in record.stats.reports})
        assert payload["metrics"]["series"]
        trace = trace_from_record(record)
        assert trace["traceEvents"]

    def test_obs_does_not_change_results_or_digests(self):
        from repro.common.config import ObsConfig
        from repro.harness.export import record_stats_digest
        from repro.harness.runner import RunSpec, execute_spec

        plain_spec = RunSpec(tag="rw", mode=ProtocolMode.FSLITE, scale=0.1)
        obs_spec = RunSpec(tag="rw", mode=ProtocolMode.FSLITE, scale=0.1,
                           obs=ObsConfig(sample_period=100))
        plain, observed = execute_spec(plain_spec), execute_spec(obs_spec)
        # Observation is free of simulation side effects...
        assert observed.cycles == plain.cycles
        assert record_stats_digest(observed) == record_stats_digest(plain)
        # ...but the obs field is part of the spec identity (cache key),
        # while specs without it keep their historical digests.
        assert obs_spec.digest() != plain_spec.digest()
        assert "obs" not in plain_spec.to_dict()

    def test_obs_spec_roundtrip(self):
        from repro.common.config import ObsConfig
        from repro.harness.runner import RunSpec

        spec = RunSpec(tag="ww", obs=ObsConfig(metrics=False,
                                               sample_period=77))
        again = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec
        assert again.digest() == spec.digest()

    def test_obs_record_replays_from_engine_cache(self, tmp_path):
        from repro.common.config import ObsConfig
        from repro.harness.engine import Engine
        from repro.harness.runner import RunSpec

        spec = RunSpec(tag="ww", mode=ProtocolMode.FSLITE, scale=0.1,
                       obs=ObsConfig())
        first = Engine(cache_dir=tmp_path).run_one(spec)
        second_engine = Engine(cache_dir=tmp_path)
        second = second_engine.run_one(spec)
        assert second_engine.stats["cache_hits"] == 1
        assert second.extra["obs"] == first.extra["obs"]
        assert (trace_from_record(second)["traceEvents"]
                == trace_from_record(first)["traceEvents"])


class TestCli:
    def test_trace_smoke(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "smoke.json"
        assert main(["trace", "--smoke", "--no-cache",
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "episode(s)" in printed
        trace = json.loads(out.read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert spans, "smoke trace has no episode spans"
        instants = {e["name"].split()[0]
                    for e in trace["traceEvents"] if e["ph"] == "i"}
        assert "flag" in instants

    def test_trace_experiment_target_and_unknown_target(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "fig.json"
        assert main(["trace", "fig14", "--smoke", "--no-cache",
                     "--out", str(out)]) == 0
        assert main(["trace", "no-such-thing"]) == 2

    def test_run_obs_out(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "run.json"
        assert main(["run", "ww", "--protocol", "fslite", "--scale", "0.1",
                     "--no-cache", "--obs-out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "obs" in printed
        assert json.loads(out.read_text())["traceEvents"]
