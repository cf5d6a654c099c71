"""reprolint: positive/negative fixtures per rule, suppressions, baseline
round-trip, CLI exit codes, and the shipped-tree cleanliness gate.

Every rule id has a minimal violating snippet and a minimal compliant
snippet; fixtures are linted with ``select=[rule_id]`` so unrelated rules
(fixture mode applies all of them) cannot blur the result.  The
"broken snippet" tests at the bottom are the ``make check`` gate
demonstration required by the issue: introducing a determinism or
wake-protocol violation makes the analyzer (and therefore check.sh, which
runs it first) fail.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import (
    Baseline,
    BaselineEntry,
    LintError,
    all_rules,
    lint_paths,
    lint_source,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def rule_ids(source: str, select=None) -> set:
    report = lint_source(textwrap.dedent(source), select=select)
    return {violation.rule_id for violation in report.violations}


# ---------------------------------------------------------------------------
# Fixtures: (rule_id, violating snippet, compliant snippet)
# ---------------------------------------------------------------------------

FIXTURES = [
    (
        "det-wall-clock",
        """
        import time

        def stamp():
            return time.time()
        """,
        """
        def stamp(sim):
            return sim.now
        """,
    ),
    (
        "det-module-random",
        """
        import random

        def jitter():
            return random.randint(0, 7)
        """,
        """
        import random

        def jitter(seed):
            return random.Random(seed).randint(0, 7)
        """,
    ),
    (
        "det-unordered-iter",
        """
        def drain(pending: set):
            ready = {1, 2, 3}
            for index in ready:
                yield index
        """,
        """
        def drain(pending):
            ready = {1: None, 2: None, 3: None}
            for index in ready:
                yield index
        """,
    ),
    (
        "det-float-cycles",
        """
        def schedule(words):
            delay_ps = words / 3
            return delay_ps
        """,
        """
        def schedule(words):
            delay_ps = words // 3
            return delay_ps
        """,
    ),
    (
        "wake-mutate-no-notify",
        """
        class Producer:
            def is_idle(self):
                return not self.queue

            def submit_word(self, word):
                self.queue.append(word)
        """,
        """
        class Producer:
            def is_idle(self):
                return not self.queue

            def submit_word(self, word):
                self.queue.append(word)
                self.notify_active()
        """,
    ),
    (
        "wake-impure-is-idle",
        """
        class Lazy:
            def is_idle(self):
                self.polls += 1
                return not self.queue
        """,
        """
        class Lazy:
            def is_idle(self):
                return not self.queue
        """,
    ),
    (
        "gate-next-action-consistent",
        """
        class Gated:
            def next_action_cycle(self, cycle):
                self.queries += 1
                return cycle + 4
        """,
        """
        class Gated:
            def is_idle(self):
                return not self.pending

            def next_action_cycle(self, cycle):
                if not self.pending:
                    return cycle + 4
                return cycle + 1
        """,
    ),
    (
        "wake-slot-version",
        """
        class Table:
            def __init__(self):
                self.version = 0
                self.entries = {}

            def reserve(self, slot, owner):
                self.entries[slot] = owner
        """,
        """
        class Table:
            def __init__(self):
                self.version = 0
                self.entries = {}

            def reserve(self, slot, owner):
                self.entries[slot] = owner
                self.version += 1
        """,
    ),
    (
        "hot-missing-slots",
        """
        class Flit:
            def __init__(self, packet, index):
                self.packet = packet
                self.index = index
        """,
        """
        class Flit:
            __slots__ = ("packet", "index")

            def __init__(self, packet, index):
                self.packet = packet
                self.index = index
        """,
    ),
    (
        "hot-alloc-in-tick",
        """
        class Router:
            def tick(self, cycle):
                for port in sorted(self.ports):
                    self._forward(port)
        """,
        """
        class Router:
            def tick(self, cycle):
                for port in self.port_order:
                    self._forward(port)
        """,
    ),
    (
        "ctr-registry-rebind",
        """
        class Component:
            def __init__(self, stats):
                self.stats = stats

            def reset_stats(self, stats):
                self.stats = stats
        """,
        """
        class Component:
            def __init__(self, stats):
                self.stats = stats
        """,
    ),
    (
        "ctr-uncached-counter",
        """
        class Component:
            def tick(self, cycle):
                self.stats.counter("flits").increment()
        """,
        """
        class Component:
            def __init__(self, stats):
                self.stats = stats
                self._ctr_flits = stats.counter("flits")

            def tick(self, cycle):
                self._ctr_flits.value += 1
        """,
    ),
    (
        "ctr-raw-reset",
        """
        def clear_window(ctr):
            ctr.value = 0
        """,
        """
        def clear_window(ctr):
            ctr.reset()
        """,
    ),
    (
        "obs-hot-disabled",
        """
        class BufferProbe:
            def sample(self, cycle, sink):
                sink.append({"cycle": cycle, "depth": len(self.queue)})
        """,
        """
        class BufferProbe:
            def sample(self, cycle, sink):
                if not self.enabled:
                    return
                sink.append(len(self.queue))
        """,
    ),
]

ALL_RULE_IDS = sorted(rule for rule, _, _ in FIXTURES)


def test_every_registered_rule_has_a_fixture():
    assert sorted(all_rules()) == ALL_RULE_IDS


@pytest.mark.parametrize("rule_id,violating,compliant", FIXTURES,
                         ids=[f[0] for f in FIXTURES])
def test_rule_fixtures(rule_id, violating, compliant):
    assert rule_id in rule_ids(violating, select=[rule_id]), \
        f"{rule_id} missed its violating fixture"
    assert rule_ids(compliant, select=[rule_id]) == set(), \
        f"{rule_id} flagged its compliant fixture"


@pytest.mark.parametrize("rule_id,violating,_", FIXTURES,
                         ids=[f[0] for f in FIXTURES])
def test_violating_fixture_fails_via_cli(rule_id, violating, _, tmp_path):
    """`python -m repro.analysis.lint` exits nonzero on each rule's
    violating fixture (acceptance criterion)."""
    fixture = tmp_path / "fixture.py"
    fixture.write_text(textwrap.dedent(violating), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", str(fixture),
         "--no-baseline", "--select", rule_id],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert result.returncode == 1, result.stdout + result.stderr
    assert rule_id in result.stdout


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------

def test_same_line_suppression():
    source = """
    import time

    def stamp():
        return time.time()  # reprolint: disable=det-wall-clock
    """
    report = lint_source(textwrap.dedent(source),
                         select=["det-wall-clock"])
    assert report.ok
    assert report.inline_suppressed == 1


def test_suppression_is_rule_specific():
    source = """
    import time

    def stamp():
        return time.time()  # reprolint: disable=det-module-random
    """
    assert "det-wall-clock" in rule_ids(source, select=["det-wall-clock"])


def test_disable_all_on_line():
    source = """
    import time

    def stamp():
        return time.time()  # reprolint: disable=all
    """
    assert rule_ids(source) == set()


def test_file_level_suppression():
    source = """
    # reprolint: disable-file=det-wall-clock
    import time

    def stamp():
        return time.time()

    def stamp2():
        return time.monotonic()
    """
    report = lint_source(textwrap.dedent(source),
                         select=["det-wall-clock"])
    assert report.ok
    assert report.inline_suppressed == 2


def test_multiple_ids_one_comment():
    source = """
    import time

    def stamp():
        delay_ps = time.time() / 2  # reprolint: disable=det-wall-clock, det-float-cycles
        return delay_ps
    """
    assert rule_ids(source,
                    select=["det-wall-clock", "det-float-cycles"]) == set()


# ---------------------------------------------------------------------------
# Baseline round-trip
# ---------------------------------------------------------------------------

def test_baseline_round_trip(tmp_path):
    bad = tmp_path / "offender.py"
    bad.write_text(textwrap.dedent("""
        import time

        def stamp():
            return time.time()
        """), encoding="utf-8")

    raw = lint_paths([str(bad)], select=["det-wall-clock"])
    assert len(raw.violations) == 1

    baseline = Baseline.from_violations(raw.violations, reason="reviewed")
    baseline_path = tmp_path / "baseline.json"
    baseline.save(baseline_path)

    reloaded = Baseline.load(baseline_path)
    assert [entry.to_dict() for entry in reloaded.entries] == \
        [entry.to_dict() for entry in baseline.entries]

    gated = lint_paths([str(bad)], select=["det-wall-clock"],
                       baseline=reloaded)
    assert gated.ok
    assert gated.baseline_suppressed == 1


def test_baseline_count_bounds_absorption(tmp_path):
    bad = tmp_path / "offender.py"
    bad.write_text(textwrap.dedent("""
        import time

        def stamp():
            a = time.time()
            b = time.time()
            return a + b
        """), encoding="utf-8")
    baseline = Baseline(entries=[BaselineEntry(
        rule="det-wall-clock", path=str(bad), symbol="stamp", count=1)])
    report = lint_paths([str(bad)], select=["det-wall-clock"],
                        baseline=baseline)
    assert report.baseline_suppressed == 1
    assert len(report.violations) == 1  # the surplus is still reported


def test_baseline_matches_on_path_suffix(tmp_path):
    nested = tmp_path / "deep" / "nested"
    nested.mkdir(parents=True)
    bad = nested / "offender.py"
    bad.write_text("import time\nnow = time.time()\n", encoding="utf-8")
    baseline = Baseline(entries=[BaselineEntry(
        rule="det-wall-clock", path="nested/offender.py",
        symbol="<module>")])
    report = lint_paths([str(bad)], select=["det-wall-clock"],
                        baseline=baseline)
    assert report.ok


def test_malformed_baseline_rejected(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text('{"entries": [{"path": "x.py"}]}', encoding="utf-8")
    with pytest.raises(LintError):
        Baseline.load(path)


# ---------------------------------------------------------------------------
# Engine / CLI behaviour
# ---------------------------------------------------------------------------

def test_unknown_rule_id_rejected():
    with pytest.raises(LintError):
        lint_source("x = 1", select=["no-such-rule"])


def test_parse_error_is_reported(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    report = lint_paths([str(bad)])
    assert [v.rule_id for v in report.violations] == ["parse-error"]


def test_json_format_cli(tmp_path):
    fixture = tmp_path / "fixture.py"
    fixture.write_text("import time\nnow = time.time()\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", str(fixture),
         "--no-baseline", "--format", "json"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["ok"] is False
    assert payload["counts_by_rule"]["det-wall-clock"] == 1
    assert payload["violations"][0]["rule"] == "det-wall-clock"


def test_cli_usage_error_exit_code(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint",
         str(tmp_path / "does-not-exist"), "--no-baseline"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert result.returncode == 2


def test_write_baseline_cli(tmp_path):
    fixture = tmp_path / "fixture.py"
    fixture.write_text("import time\nnow = time.time()\n", encoding="utf-8")
    out = tmp_path / "new_baseline.json"
    write = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", str(fixture),
         "--no-baseline", "--write-baseline", str(out)],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert write.returncode == 0, write.stdout + write.stderr
    gated = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", str(fixture),
         "--baseline", str(out)],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert gated.returncode == 0, gated.stdout + gated.stderr


# ---------------------------------------------------------------------------
# The shipped tree and the check-gate demonstration
# ---------------------------------------------------------------------------

def test_shipped_tree_is_clean():
    """`python -m repro.analysis.lint src/repro` exits 0 (acceptance)."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", "src/repro",
         "--baseline", "reprolint_baseline.json"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert result.returncode == 0, result.stdout + result.stderr


def test_introduced_determinism_violation_fails_the_gate():
    """check.sh runs reprolint first, so a wall-clock read added to any
    engine module turns `make check` red.  Demonstrated on a snippet
    equivalent to such an edit."""
    broken = """
    import time

    class Router:
        def tick(self, cycle):
            self.last_seen = time.time()
    """
    assert "det-wall-clock" in rule_ids(broken, select=["det-wall-clock"])


def test_introduced_wake_violation_fails_the_gate():
    """The PR 7 negative control, statically: a component that grows a
    producer method without a wake hook is caught at lint time instead of
    stranding flits at run time."""
    broken = """
    class SneakyQueue:
        def is_idle(self):
            return not self._words

        def push_words(self, words):
            self._words.extend(words)
    """
    assert "wake-mutate-no-notify" in rule_ids(
        broken, select=["wake-mutate-no-notify"])


def test_shipped_baseline_entries_all_have_reasons():
    baseline = Baseline.load(REPO_ROOT / "reprolint_baseline.json")
    assert baseline.entries, "baseline should carry the reviewed exceptions"
    for entry in baseline.entries:
        assert entry.reason.strip(), \
            f"baseline entry {entry.key()} has no recorded reason"
