"""Tier-1 smoke test of the ledger: every workload and every metric that
``BENCHMARK.json`` names is produced, with its unit, and the simulated side
of the benchmark repeats exactly."""

import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as ledger   # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_contract_is_within_its_limits():
    contract = ledger.load_contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [spec["name"] for key in ("workloads", "end_to_end", "per_layer")
             for spec in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for spec in contract["end_to_end"]:
        assert set(spec) == {"name", "unit", "better", "bound"}
        assert 0 < spec["bound"] <= 0.25
    for spec in contract["per_layer"]:
        assert set(spec) == {"name", "unit", "better"}
    for spec in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(spec["unit"])
        assert spec["better"] in ("lower", "higher")
    setup = next(s for s in contract["end_to_end"] if s["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(s["bound"] for s in contract["end_to_end"])
    assert [w["name"] for w in contract["workloads"]] == [
        w.name for w in ledger.WORKLOADS]


def test_smoke_run_names_every_metric_and_repeats_exactly():
    contract = ledger.load_contract()
    first = ledger.smoke()
    # The test has three seconds.  The repeat covers every workload end to
    # end but the traced pass of one only; every traced pass already builds
    # its plain and traced regimes alike and compares their fingerprints.
    again = ledger.smoke(traces=(0,))
    again["gt_stream"].update(
        ledger.smoke(workloads=[ledger.by_name("gt_stream")],
                     traces=(1,))["gt_stream"])
    assert set(first) == {w["name"] for w in contract["workloads"]}
    for name, by_trace in first.items():
        for trace, record in by_trace.items():
            assert record["failed"] == 0, (name, record["notes"])
            assert record["attempted"] >= 1
            # Raises if the names differ from BENCHMARK.json's.
            line = json.loads(ledger.result_line(record, contract))
            assert line["correct"] is True
            specs = ledger.metric_specs(contract, bool(trace))
            for metric, found in line["metrics"].items():
                assert found["unit"] == specs[metric]["unit"]
            repeat = again[name].get(trace)
            if repeat is None:
                continue
            assert record["fingerprint"] == repeat["fingerprint"]
            for metric, found in line["metrics"].items():
                if ledger.time_base(found["unit"]) == "simulated":
                    assert found["value"] == repeat["metrics"][metric], metric
