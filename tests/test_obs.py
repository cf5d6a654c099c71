"""repro.obs: probe network, deterministic sampling, timeline exports.

Covers the observability contract end to end: probes attach only when
declared (``SystemBuilder.observe``), captures and triggers behave like
the tracer's migScope semantics, the sampled metric series is identical
across engine modes (activity-driven/always-tick), and
the VCD / Perfetto / JSON-lines exports are pure functions of the run
(pinned by golden fingerprints).
"""

import hashlib
import io
import json

import pytest

from repro.api import scenarios
from repro.api.builder import BuilderError, SystemBuilder
from repro.ip.traffic import ConstantBitRateTraffic
from repro.obs import MetricsSampler, ObsError, Probe
from repro.sim.clock import always_tick

GOLDEN_VCD_SHA = \
    "cf2deac4cbed7778775e9e48f53021bfdf29af97ea900a889c0f91a519aecf5d"
GOLDEN_VCD_SIGNALS = 68
GOLDEN_PERFETTO_SHA = \
    "9e52cd1c47c16359f3460536d9d37c09676816f7b3869e743d2b9e5fddaf24ea"
GOLDEN_PERFETTO_EVENTS = 3924


def _small_builder(observe=True, **observe_kwargs):
    builder = (SystemBuilder("obs_unit")
               .mesh(1, 2)
               .add_master("cpu", router=(0, 0),
                           pattern=ConstantBitRateTraffic(
                               period_cycles=12, burst_words=4, write=True),
                           max_transactions=20)
               .add_memory("mem", router=(0, 1), words=4096)
               .connect("cpu", "mem", gt=True, slots=2))
    if observe:
        builder.observe(**observe_kwargs)
    return builder


def _run_obs_tour(**params):
    system = scenarios.build("obs_tour", **params)
    cycles = system.run_until_idle(max_flit_cycles=400000)
    assert cycles < 400000
    return system


class _FakeProbe(Probe):
    """A probe over one mutable value, for unit tests."""

    def __init__(self, capture_depth=4):
        super().__init__("fake", capture_depth)
        self.value = 0
        self._add_reader("v", lambda cycle: self.value, signal=True)
        self._add_reader("total", lambda cycle: cycle, signal=False)


# ---------------------------------------------------------------------------
# Declaration: observe() is opt-in, validated, and otherwise absent
# ---------------------------------------------------------------------------
class TestObserveDeclaration:
    def test_no_observe_means_no_obs(self):
        system = _small_builder(observe=False).build()
        assert system.obs is None
        report = system.report()
        assert "metrics" not in report and "captures" not in report

    def test_observe_attaches_probe_network(self):
        system = _small_builder().build()
        assert system.obs is not None
        names = {probe.name for probe in system.obs}
        # Links, routers and NIs are all covered by default.
        assert any(name.startswith("link.") for name in names)
        assert "router.R(0, 0)" in names and "router.R(0, 1)" in names
        assert "ni.cpu" in names and "ni.mem" in names
        assert "faults" in names

    def test_target_selection(self):
        system = (_small_builder(observe=False)
                  .observe("links").build())
        kinds = {probe.kind for probe in system.obs}
        assert kinds == {"link"}

    def test_unknown_target_rejected(self):
        with pytest.raises(BuilderError, match="unknown observe target"):
            _small_builder(observe=False).observe("caches")

    def test_bad_knobs_rejected(self):
        with pytest.raises(BuilderError, match="period"):
            _small_builder(observe=False).observe(period=0)
        with pytest.raises(BuilderError, match="capture_depth"):
            _small_builder(observe=False).observe(capture_depth=0)
        with pytest.raises(BuilderError, match="series_cap"):
            _small_builder(observe=False).observe(series_cap=1)

    def test_probe_lookup(self):
        system = _small_builder().build()
        assert system.obs.probe("ni.cpu").kind == "ni"
        with pytest.raises(ObsError, match="unknown probe"):
            system.obs.probe("ni.nope")


# ---------------------------------------------------------------------------
# Probe captures: change detection, ring bound, armed trigger
# ---------------------------------------------------------------------------
class TestProbeCaptures:
    def test_captures_only_changes(self):
        probe = _FakeProbe()
        sink = [[], []]
        for cycle in range(4):
            probe.sample(cycle, sink)
        probe.value = 7
        probe.sample(4, sink)
        records = probe.captures()
        # Initial value plus one transition; steady cycles capture nothing.
        assert [(r["cycle"], r["value"], r["prev"]) for r in records] == \
            [(0, 0, None), (4, 7, 0)]
        # Non-signal readers still feed the series columns.
        assert sink[1] == [0, 1, 2, 3, 4]

    def test_capture_ring_is_bounded(self):
        probe = _FakeProbe(capture_depth=3)
        sink = [[], []]
        for cycle in range(10):
            probe.value = cycle
            probe.sample(cycle, sink)
        records = probe.captures()
        assert len(records) == 3
        assert [r["cycle"] for r in records] == [7, 8, 9]

    def test_armed_probe_discards_until_trigger(self):
        probe = _FakeProbe()
        probe.arm(lambda record: record.value >= 5)
        sink = [[], []]
        for cycle in range(8):
            probe.value = cycle
            probe.sample(cycle, sink)
        assert [r["value"] for r in probe.captures()] == [5, 6, 7]
        probe.disarm()
        assert probe.triggered

    def test_disabled_probe_is_inert(self):
        probe = _FakeProbe()
        probe.enabled = False
        sink = [[], []]
        probe.sample(0, sink)
        assert sink == [[], []] and probe.captures() == []

    def test_bad_capture_depth(self):
        with pytest.raises(ObsError, match="capture_depth"):
            _FakeProbe(capture_depth=0)


# ---------------------------------------------------------------------------
# Sampler: stride grid, bounded memory via decimation
# ---------------------------------------------------------------------------
class TestMetricsSampler:
    def test_samples_on_the_stride_grid(self):
        probe = _FakeProbe()
        sampler = MetricsSampler([probe], period=4, series_cap=64)
        for cycle in range(17):
            sampler.tick(cycle)
        assert sampler.cycles == [0, 4, 8, 12, 16]
        assert sampler.metric_names == ["fake.v", "fake.total"]
        assert sampler.column("fake.total") == [0, 4, 8, 12, 16]

    def test_decimation_doubles_stride_and_keeps_grid(self):
        probe = _FakeProbe()
        sampler = MetricsSampler([probe], period=2, series_cap=4)
        for cycle in range(41):
            probe.value = cycle
            sampler.tick(cycle)
        # Overflowing the cap three times doubles the stride each time
        # (2 -> 4 -> 8 -> 16); retained rows always sit on the final grid.
        assert sampler.stride == 16
        assert sampler.decimations == 3
        assert all(cycle % 16 == 0 for cycle in sampler.cycles)
        assert len(sampler.cycles) <= 4 + 1
        # Columns stay row-aligned with the cycles index.
        assert sampler.column("fake.v") == sampler.cycles
        assert sampler.samples_taken == 9

    def test_disabled_probe_contributes_none_rows(self):
        probe = _FakeProbe()
        sampler = MetricsSampler([probe], period=2, series_cap=16)
        sampler.tick(0)
        probe.enabled = False
        sampler.tick(2)
        assert sampler.column("fake.v") == [0, None]

    def test_disabled_sampler_is_idle(self):
        sampler = MetricsSampler([], period=8)
        assert not sampler.is_idle() and sampler.is_quiescent()
        sampler.enabled = False
        assert sampler.is_idle()
        sampler.tick(0)
        assert sampler.cycles == []

    def test_unknown_column_raises_with_known_names(self):
        sampler = MetricsSampler([_FakeProbe()], period=2)
        with pytest.raises(ObsError, match="fake.v"):
            sampler.column("nope")

    def test_bad_knobs(self):
        with pytest.raises(ObsError):
            MetricsSampler([], period=0)
        with pytest.raises(ObsError):
            MetricsSampler([], period=4, series_cap=1)


# ---------------------------------------------------------------------------
# Determinism: series identical in every engine mode; obs changes nothing
# ---------------------------------------------------------------------------
class TestObsDeterminism:
    def _golden(self):
        system = _run_obs_tour()
        return (json.dumps(system.obs.series(), sort_keys=True),
                json.dumps(system.obs.captures(), sort_keys=True),
                json.dumps(system.fingerprint(), sort_keys=True))

    def test_series_identical_activity_vs_always_tick(self):
        base = self._golden()
        with always_tick():
            assert self._golden() == base

    def test_observing_does_not_change_results(self):
        def fingerprint(observe):
            system = _small_builder(observe=observe).build()
            system.run_until_idle()
            return json.dumps(system.fingerprint(), sort_keys=True)

        assert fingerprint(True) == fingerprint(False)


# ---------------------------------------------------------------------------
# Report and structured exports
# ---------------------------------------------------------------------------
class TestReportAndExports:
    def test_report_ties_everything_together(self):
        system = _run_obs_tour()
        report = system.report()
        assert report["system"] == "obs_tour"
        assert report["now_ps"] == system.sim.now
        assert set(report["counters"]) == set(system.kernels)
        assert report["health"]["retries"] > 0
        assert report["metrics"]["cycles"]
        fault_records = report["captures"]["faults"]
        assert [r["signal"] for r in fault_records] == \
            ["transient_start", "transient_end"]
        assert fault_records[0]["cycle"] == 40
        json.dumps(report, sort_keys=True)  # fully serialisable

    def test_dump_jsonl(self):
        system = _run_obs_tour()
        buffer = io.StringIO()
        count = system.obs.dump_jsonl(buffer)
        lines = buffer.getvalue().splitlines()
        assert count == len(lines) > 0
        for line in lines:
            record = json.loads(line)
            assert {"component", "cycle", "signal", "value",
                    "prev"} <= set(record)

    def test_fault_probe_records_window_edges(self):
        system = _run_obs_tour()
        records = system.obs.probe("faults").captures()
        assert records[0]["value"]["drop_probability"] == pytest.approx(0.3)


# ---------------------------------------------------------------------------
# Waveform (VCD) export
# ---------------------------------------------------------------------------
class TestVcdExport:
    def test_vcd_parses_and_matches_golden(self):
        system = _run_obs_tour(traced=True)
        buffer = io.StringIO()
        signals = system.obs.write_vcd(buffer)
        text = buffer.getvalue()
        assert signals == GOLDEN_VCD_SIGNALS
        assert text.count("$var ") == signals
        assert "$timescale 1ps $end" in text
        assert "$dumpvars" in text
        # Timestamps are cycle * flit period, strictly increasing.
        stamps = [int(line[1:]) for line in text.splitlines()
                  if line.startswith("#")]
        period = system.obs.flit_period_ps
        assert stamps == sorted(stamps)
        assert all(stamp % period == 0 for stamp in stamps)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_VCD_SHA

    def test_vcd_signal_subset(self):
        system = _run_obs_tour()
        buffer = io.StringIO()
        count = system.obs.write_vcd(buffer, signals=["ni.cpu.slot_owner"])
        assert count == 1
        assert "slot_owner" in buffer.getvalue()


# ---------------------------------------------------------------------------
# Chrome/Perfetto trace_event export
# ---------------------------------------------------------------------------
class TestPerfettoExport:
    def test_perfetto_parses_and_matches_golden(self):
        system = _run_obs_tour(traced=True)
        events = system.tracer.events
        trace = system.obs.perfetto(events)
        assert trace["displayTimeUnit"] == "ns"
        rows = trace["traceEvents"]
        assert len(rows) == GOLDEN_PERFETTO_EVENTS
        spans = [row for row in rows if row.get("ph") == "X"]
        formed = [e for e in events if e.kind == "packet_formed"]
        delivered = [e for e in events if e.kind == "packet_delivered"]
        # Every delivered packet reconstructs one inject->deliver span.
        assert len(spans) == len(delivered) > 0
        assert len(formed) >= len(delivered)
        for span in spans:
            assert span["dur"] >= 0
            assert span["args"]["hops"] >= 0
        blob = json.dumps(trace, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == \
            GOLDEN_PERFETTO_SHA

    def test_packet_ids_are_run_local(self):
        # The export depends only on the events passed in, not on the
        # process-global packet counter: two identical runs export
        # identically even though their raw packet ids differ.
        def export():
            system = _run_obs_tour(traced=True)
            return json.dumps(system.obs.perfetto(system.tracer.events),
                              sort_keys=True)

        assert export() == export()

    def test_write_perfetto_to_path(self, tmp_path):
        system = _run_obs_tour(traced=True)
        target = tmp_path / "trace.json"
        count = system.obs.write_perfetto(system.tracer.events, str(target))
        with open(target) as handle:
            trace = json.load(handle)
        assert count == len(trace["traceEvents"])
