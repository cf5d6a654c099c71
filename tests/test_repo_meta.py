"""Repo-tooling invariants that scripts alone can't be trusted to keep:
the lint gate stays wired into ``make check`` and CI, deleted layers stay
deleted, and the package imports nothing beyond the standard library.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_check_sh_runs_reprolint():
    text = (REPO_ROOT / "scripts" / "check.sh").read_text(encoding="utf-8")
    assert "python scripts/reprolint.py src/repro" in text, (
        "scripts/check.sh no longer runs reprolint; the static contract "
        "gate would be silently dropped from make check")


def test_ci_runs_reprolint():
    text = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8")
    assert "run: make check" in text, (
        ".github/workflows/ci.yml no longer runs make check, whose first "
        "step is reprolint")


#: Names of the burst-batching layer, the per-component dense recheck, the
#: idle-skip-only regime, the clock-level dense window, the testbench wrapper
#: layer, the superseded perf harness, the kernel's observation-only
#: idleness, the per-flit helper calls of the flit's path, the lint
#: framework inside the package and the one producer of several
#: transactions per cycle, deleted together with everything that kept them
#: exact.
_DELETED_NAMES = ("send_burst", "push_run", "BurstBarrier", "CounterColumn",
                  "unbatched", "_gate_recheck",
                  # Links are wires, and crossing one is one step
                  # (Link.send delivers into the sink's arrival queue): the
                  # idioms that clocked a link by itself, the commit phase
                  # of a clock edge and the link's registers stay gone.
                  "add_component(link", "add_component(in_link",
                  "Link.is_idle", "Link.next_action_cycle",
                  "LinkCommit", "post_tick", "_commit_edge",
                  "_post_tick_components", "link.take(", "link._stage",
                  "link._incoming",
                  "._consecutive_slots(",
                  # One scheduler (every clock runs in a ClockGroup), two
                  # regimes (default, always_tick()): the idle-skip-only
                  # regime, its switches and the self-scheduling clock's
                  # bookkeeping stay gone.
                  "ungated(", "set_default_tick_gating", "gating_default",
                  "tick_gating", "set_default_idle_skip", "_gates_standing",
                  "_dense_window_active", "_next_edge_time",
                  "remove_component",
                  # Blocked components sleep on a wake hook, so every edge
                  # re-gates: the clock-level dense window stays gone.
                  "_DENSE_RECHECK_SPAN", "_dense_recheck",
                  # One front door (scenarios.build), one ledger
                  # (benchmarks/ledger), one meaning of "auto" routing: the
                  # wrapper layer, the perf harness with its tracked report
                  # and the seed-era functional routing API stay gone.
                  "repro.testbench", "build_point_to_point(",
                  "build_gt_be_mix(", "build_narrowcast(",
                  "build_config_system(", "run_perf", "BENCH_PERF",
                  "run_once(", "compute_route(", "xy_route(",
                  # A reserved TDM slot nobody uses is accounted from the
                  # clock, so a kernel with reservations is idle like any
                  # other: its second idleness predicate stays gone (the
                  # obs sampler keeps its own ``is_quiescent``).
                  "kernel.is_quiescent", "NIKernel.is_quiescent",
                  # The flit's path reads the route, the time and the
                  # staged flit inline: the helpers that cost a call per
                  # flit (or per word) stay gone from production code.
                  "Router._take_route", "_take_route(", "_be_head_output",
                  "HardwareFifo._now", "self._now()",
                  # reprolint is one tool beside the model
                  # (scripts/reprolint.py): the package, its baseline file,
                  # rule registry, JSON report, file-level suppression and
                  # the rules whose contracts named tests check stay gone —
                  # also from suppression comments.
                  "repro.analysis.lint", "reprolint_baseline",
                  "--write-baseline", "--no-baseline", "disable-file",
                  "register_rule", "BaselineEntry", "render_json",
                  "det-float-cycles", "wake-impure-is-idle",
                  "wake-slot-version", "hot-missing-slots", "ctr-raw-reset",
                  # Shipped patterns yield one transaction per active cycle
                  # (the ``arrivals_before`` contract); the unused helper
                  # that chained several patterns into one cycle stays gone.
                  "merge_patterns",
                  # ``src/repro`` holds what something runs: the bus-signal
                  # and address-map modules nothing imported, the builder
                  # knobs nothing set and the helper functions only their
                  # own unit tests called stay gone (distinctive spellings
                  # only; the short accessors are held by the reachability
                  # test below).
                  "repro.protocol.axi", "repro.protocol.dtl",
                  "repro.protocol.mmio", "repro.config.address_map",
                  "ConfigAddressMap", "MMIORegisterFile",
                  "dtl_to_transaction", "transaction_to_axi", "with_sim(",
                  "fault_plan(", "router_slot_tables", "links_on_route", "attach_points", "decode_ctrl",
                  "available_arbiters(")


def _tree_texts(*directories):
    """(repo-relative path, text) of every file under ``directories`` and of
    ``benchmarks/*.py`` (the ledger stays outside), this file excepted."""
    paths = [path for directory in directories
             for path in (REPO_ROOT / directory).rglob("*")]
    paths += (REPO_ROOT / "benchmarks").glob("*.py")
    this_file = Path(__file__).resolve()
    for path in sorted(paths):
        if path.is_file() and path.suffix != ".pyc" and path != this_file:
            yield (path.relative_to(REPO_ROOT),
                   path.read_text(encoding="utf-8", errors="replace"))


def test_deleted_engine_names_stay_deleted():
    """One per-flit pipeline, one phase per clock edge, one clock scheduler,
    one front door, one ledger: nothing may quietly reintroduce a name of the
    removed batching layer or of the idle-skip-only regime (a second data
    path or a third regime would need another axis in every equivalence
    suite), put a link back on a clock, give a clock its own edge loop, or
    bring back a wrapper beside ``scenarios.build`` or a harness beside
    ``benchmarks/ledger`` (which stays outside this scan)."""
    offenders = [f"{path}: {name}"
                 for path, text in _tree_texts("src", "scripts", "examples",
                                               "tests")
                 for name in _DELETED_NAMES if name in text]
    assert not offenders, offenders


#: Public names nothing under ``src/``, ``examples/``, ``benchmarks/`` or
#: ``scripts/`` uses, with the reason each is kept.
_UNUSED_BUT_KEPT = {
    "run_cycles": "documented API (PERFORMANCE.md: its ps-based contract); "
                  "the unit tests of hand-built clocked components drive it",
}


def test_every_public_name_is_used_by_something_that_runs():
    """Every public top-level class or function defined under ``src/repro``
    is named, somewhere other than on its own ``def`` / ``class`` line, in a
    file that runs: ``src/`` (a package ``__init__`` re-export is not a
    use), ``examples/``, ``benchmarks/`` or ``scripts/``.  A name only its
    own unit tests call is a second program to maintain; it goes, with the
    assertions that exercised it."""
    running = {path: path.read_text(encoding="utf-8").splitlines()
               for directory in ("src", "examples", "benchmarks", "scripts")
               for path in (REPO_ROOT / directory).rglob("*.py")
               if path.name != "__init__.py"}
    unused = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (not isinstance(node, (ast.ClassDef, ast.FunctionDef))
                    or node.name.startswith("_")):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            if not any(word.search(line)
                       for other, lines in running.items()
                       for number, line in enumerate(lines, 1)
                       if (other, number) != (path, node.lineno)):
                unused.append(node.name)
    assert sorted(unused) == sorted(_UNUSED_BUT_KEPT), unused


def test_importing_the_package_loads_only_the_standard_library():
    """README: "no dependencies beyond the standard library".  A fresh
    interpreter that imported ``repro.api`` holds no third-party module —
    and few modules at all: the import is the floor under every ledger
    child, example and test session (172 modules; 536 when the graphs came
    from networkx)."""
    probe = ("import json, sys; import repro.api; "
             "print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    loaded = json.loads(subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        capture_output=True, text=True).stdout)
    allowed = set(sys.stdlib_module_names) | {
        "repro", "__main__",
        # Injected by site-packages' .pth files / the site module, not by us.
        "_distutils_hack", "sitecustomize", "usercustomize"}
    foreign = sorted({name.partition(".")[0] for name in loaded} - allowed)
    assert not foreign, foreign
    assert len(loaded) <= 200, len(loaded)


def test_networkx_is_a_test_oracle_only():
    """One implementation (``repro.network.graph``); networkx is what
    ``tests/test_graph.py`` compares it with, nothing that runs."""
    offenders = [str(path)
                 for path, text in _tree_texts("src", "scripts", "examples")
                 if "networkx" in text]
    assert not offenders, offenders
    setup = (REPO_ROOT / "setup.py").read_text(encoding="utf-8")
    assert "install_requires=[]" in setup
    assert setup.count("networkx") == 1  # extras_require["test"]
