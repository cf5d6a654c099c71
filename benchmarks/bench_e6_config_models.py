"""E6 — Section 3: centralized versus distributed configuration.

The paper opts for centralized configuration for small NoCs (around 10
routers) because it is simpler and cheaper, while acknowledging it can become
a bottleneck for large NoCs.  The timed configuration model reproduces that
trade-off: total configuration time and register-write counts for both models
as the NoC (and the number of connections to open) grows.
"""

import pytest

from benchmarks.helpers import print_table
from repro.config.manager import ConfigJob, DistributedConfigurationModel
from repro.config.slot_allocation import SlotRequest


def make_jobs(num_connections, hops, num_slots, slots_per_connection=1):
    jobs = []
    for index in range(num_connections):
        # Spread connections over disjoint paths so the comparison isolates
        # the configuration mechanism rather than slot exhaustion.
        links = [(f"r{index}_{h}", f"r{index}_{h + 1}") for h in range(hops)]
        jobs.append(ConfigJob(
            name=f"conn{index}",
            slot_requests=[SlotRequest(f"ni{index}", 0, slots_per_connection,
                                       links)],
            register_writes=8))
    return jobs


def config_rows():
    model = DistributedConfigurationModel(num_slots=16)
    rows = []
    for routers, connections in ((4, 6), (9, 14), (16, 24), (36, 54)):
        hops = max(2, int(routers ** 0.5))
        jobs = make_jobs(connections, hops, 16)
        central = model.run_centralized(jobs)
        rows.append({"routers": routers, "connections": connections,
                     **central.as_row()})
        for ports in (2, 4):
            distributed = model.run_distributed(jobs, ports=ports)
            rows.append({"routers": routers, "connections": connections,
                         **distributed.as_row()})
    return rows


def test_e6_centralized_vs_distributed_configuration():
    rows = config_rows()
    print_table("E6: configuration time and cost vs NoC size", rows)
    by_size = {}
    for row in rows:
        by_size.setdefault(row["routers"], {})[
            (row["model"], row["ports"])] = row
    # Centralized always needs fewer register writes (no router slot tables).
    for size, models in by_size.items():
        central = models[("centralized", 1)]
        for key, row in models.items():
            if key[0] == "distributed":
                assert row["register_writes"] > central["register_writes"], size
    # For the largest NoC, distributing configuration over 4 ports is faster
    # than the centralized module (the bottleneck the paper warns about).
    largest = by_size[36]
    assert largest[("distributed", 4)]["cycles"] < \
        largest[("centralized", 1)]["cycles"]
    # Centralized configuration never fails or conflicts.
    assert all(models[("centralized", 1)]["conflicts"] == 0
               for models in by_size.values())
