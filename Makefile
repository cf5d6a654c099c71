PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-all bench bench-quick census check examples lint

test:            ## fast test tier (tier-1 minus slow; includes the E1-E14 benchmarks)
	$(PYTHON) -m pytest -q -m "not slow"

lint:            ## reprolint (scripts/reprolint.py): static contract checks over src/repro
	$(PYTHON) scripts/reprolint.py src/repro

examples:        ## run every example as a smoke test
	@for example in examples/*.py; do \
		echo "== $$example"; \
		$(PYTHON) $$example > /dev/null || exit 1; \
	done; echo "examples: OK"

test-all:        ## full test suite including slow equivalence runs
	$(PYTHON) -m pytest -q

bench:           ## the performance ledger of BENCHMARK.json (~4 min, all five workloads)
	$(PYTHON) benchmarks/ledger/run.py

bench-quick:     ## ledger smoke: every workload and metric in a few seconds
	$(PYTHON) benchmarks/ledger/run.py --smoke

census:          ## Python calls + bytecodes, then retained KiB, per flit cycle on dense_grid (exact, ~20 s)
	$(PYTHON) scripts/census.py --ledger dense_grid --segments 2 --bytecodes
	$(PYTHON) scripts/census.py --ledger dense_grid --segments 2 --memory --top 8

check:           ## lint + fast tests + examples + fault/obs/tick-gating smokes (CI gate)
	bash scripts/check.sh
