"""E11 — Figures 3/4: narrowcast shell (shared address space over several
memories) and slave-side multi-connection arbitration.

A single master sees one contiguous address space; the narrowcast shell
splits it over 2/4 memory slaves while keeping responses in transaction
order.  The benchmark reports correctness, the per-memory distribution of
accesses and the transaction latency as the number of slaves grows.
"""

import pytest

from benchmarks.helpers import print_table
from repro.api import scenarios
from repro.protocol.transactions import Transaction


def measure(num_slaves):
    range_words = 256
    system = scenarios.build("narrowcast", num_slaves=num_slaves,
                             range_words=range_words, cols=2)
    master = system.master("master")
    # Interleaved writes and read-back over the whole shared address space.
    values = {}
    for index in range(24):
        slave = index % num_slaves
        address = slave * range_words * 4 + (index // num_slaves) * 8
        values[address] = [index + 1, index + 2]
        master.issue(Transaction.write(address, values[address]))
    for address in values:
        master.issue(Transaction.read(address, length=2))
    system.run_until_idle(60000)
    reads = [t for t in master.completed if t.is_read]
    correct = all(t.response.read_data == values[t.address] for t in reads)
    ordered = [t.address for t in master.completed][:24] == list(values)
    per_memory = [system.memory(f"ni_s{i}").memory.writes
                  for i in range(num_slaves)]
    return {
        "slaves": num_slaves,
        "transactions": len(master.completed),
        "read_back_correct": correct,
        "in_order": ordered,
        "writes_per_memory": tuple(per_memory),
        "mean_latency": master.latency_summary()["mean"],
    }


def narrowcast_rows():
    return [measure(n) for n in (1, 2, 4)]


def test_e11_narrowcast_shared_address_space():
    rows = narrowcast_rows()
    print_table("E11: narrowcast connections over 1/2/4 memories", rows)
    assert all(row["read_back_correct"] for row in rows)
    assert all(row["in_order"] for row in rows)
    # The address space really is split: with N slaves every memory sees an
    # equal share of the writes.
    for row in rows:
        writes = row["writes_per_memory"]
        assert max(writes) - min(writes) <= 2
