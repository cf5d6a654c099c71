"""Repo-tooling invariants that scripts alone can't be trusted to keep.

The BENCH_PERF.json staleness gate in scripts/check.sh only watches the
paths listed in its hand-maintained ``ENGINE_PATHS`` array.  A new
``src/repro`` subpackage that never gets added there could change engine
behaviour without the gate demanding a benchmark refresh.  check.sh now
self-checks this at run time; this test enforces the same invariant from
pytest so it fails in ``make test`` too, and additionally pins the shell
array to the actual directory listing so the two can't drift apart.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _engine_paths_from_check_sh() -> set:
    text = (REPO_ROOT / "scripts" / "check.sh").read_text(encoding="utf-8")
    match = re.search(r"ENGINE_PATHS=\((?P<body>[^)]*)\)", text)
    assert match, "ENGINE_PATHS array not found in scripts/check.sh"
    return set(match.group("body").split())


def _repro_subpackages() -> set:
    src = REPO_ROOT / "src" / "repro"
    return {f"src/repro/{child.name}" for child in src.iterdir()
            if child.is_dir() and child.name != "__pycache__"}


def test_engine_paths_cover_every_repro_subpackage():
    engine_paths = _engine_paths_from_check_sh()
    missing = sorted(_repro_subpackages() - engine_paths)
    assert not missing, (
        f"scripts/check.sh ENGINE_PATHS misses {missing}; the BENCH_PERF "
        "staleness gate would silently ignore engine changes there — add "
        "the package(s) to the array")


def test_engine_paths_exist():
    """The converse: every listed path must exist, so a rename can't leave
    a dangling entry that watches nothing."""
    for entry in sorted(_engine_paths_from_check_sh()):
        assert (REPO_ROOT / entry).exists(), (
            f"ENGINE_PATHS entry {entry} does not exist in the tree")


def test_check_sh_runs_reprolint():
    text = (REPO_ROOT / "scripts" / "check.sh").read_text(encoding="utf-8")
    assert "repro.analysis.lint" in text, (
        "scripts/check.sh no longer runs reprolint; the static contract "
        "gate would be silently dropped from make check")


def test_ci_runs_reprolint():
    text = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8")
    assert "make lint" in text or "repro.analysis.lint" in text, (
        ".github/workflows/ci.yml no longer runs reprolint")


#: Names of the burst-batching layer, the per-component dense recheck and
#: the idle-skip-only regime, deleted together with everything that kept
#: them exact.
_DELETED_NAMES = ("send_burst", "push_run", "BurstBarrier", "CounterColumn",
                  "unbatched", "_gate_recheck",
                  # Links are wires committed by one LinkCommit per NoC: the
                  # idioms that clocked a link by itself stay gone too.
                  "add_component(link", "add_component(in_link",
                  "link.post_tick(", "Link.is_idle", "Link.next_action_cycle",
                  "._consecutive_slots(",
                  # One scheduler (every clock runs in a ClockGroup), two
                  # regimes (default, always_tick()): the idle-skip-only
                  # regime, its switches and the self-scheduling clock's
                  # bookkeeping stay gone.
                  "ungated(", "set_default_tick_gating", "gating_default",
                  "tick_gating", "set_default_idle_skip", "_gates_standing",
                  "_dense_window_active", "_next_edge_time",
                  "remove_component")


def test_deleted_engine_names_stay_deleted():
    """One per-flit pipeline, one commit per NoC, one clock scheduler:
    nothing may quietly reintroduce a name of the removed batching layer or
    of the idle-skip-only regime (a second data path or a third regime
    would need another axis in every equivalence suite), put a link back on
    a clock, or give a clock its own edge loop."""
    this_file = Path(__file__).resolve()
    offenders = []
    for directory in ("src", "scripts", "examples", "benchmarks/perf",
                      "tests"):
        for path in sorted((REPO_ROOT / directory).rglob("*")):
            if (not path.is_file() or path.suffix == ".pyc"
                    or path == this_file):
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            offenders += [f"{path.relative_to(REPO_ROOT)}: {name}"
                          for name in _DELETED_NAMES if name in text]
    assert not offenders, offenders
