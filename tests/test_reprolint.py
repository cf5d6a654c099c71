"""reprolint (``scripts/reprolint.py``): positive/negative fixtures per
rule, per-line suppressions, CLI exit codes, and the shipped-tree
cleanliness gate.

Every rule id has a minimal violating snippet and a minimal compliant
snippet; fixtures are linted with ``select=[rule_id]`` so unrelated rules
(fixture mode applies all of them) cannot blur the result.  The
"broken snippet" tests at the bottom are the ``make check`` gate
demonstration required by the issue: introducing a determinism or
wake-protocol violation makes the analyzer (and therefore check.sh, which
runs it first) fail.
"""

import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from reprolint import LintError, all_rules, lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parent.parent
CLI = [sys.executable, str(REPO_ROOT / "scripts" / "reprolint.py")]


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


def test_performance_md_tabulates_exactly_the_rules():
    text = (REPO_ROOT / "PERFORMANCE.md").read_text(encoding="utf-8")
    section = text.split("## Static contract checking", 1)[1]
    table = section.split("### Checked dynamically instead", 1)[0]
    assert sorted(re.findall(r"^\| `([a-z\-]+)`", table, re.M)) == ALL_RULE_IDS


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
    """`scripts/reprolint.py` exits nonzero on each rule's violating
    fixture (acceptance criterion)."""
    fixture = tmp_path / "fixture.py"
    fixture.write_text(textwrap.dedent(violating), encoding="utf-8")
    result = subprocess.run(
        CLI + [str(fixture), "--select", rule_id],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert result.returncode == 1, result.stdout + result.stderr
    assert rule_id in result.stdout


def test_impure_is_idle_is_flagged_by_the_gate_rule():
    """The purity half of ``gate-next-action-consistent`` covers both
    engine probes, ``is_idle`` as well as ``next_action_cycle``."""
    impure = """
    class Lazy:
        def is_idle(self):
            self.polls += 1
            return not self.queue
    """
    pure = """
    class Lazy:
        def is_idle(self):
            return not self.queue
    """
    select = ["gate-next-action-consistent"]
    assert rule_ids(impure, select=select) == set(select)
    assert rule_ids(pure, select=select) == set()


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


def test_multiple_ids_one_comment():
    source = """
    import random
    import time

    def stamp():
        return time.time() + random.random()  # reprolint: disable=det-wall-clock, det-module-random
    """
    assert rule_ids(source,
                    select=["det-wall-clock", "det-module-random"]) == set()


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


def test_cli_usage_error_exit_code(tmp_path):
    result = subprocess.run(
        CLI + [str(tmp_path / "does-not-exist")],
        capture_output=True, text=True, cwd=REPO_ROOT)
    assert result.returncode == 2


# ---------------------------------------------------------------------------
# The shipped tree and the check-gate demonstration
# ---------------------------------------------------------------------------

def test_shipped_tree_is_clean():
    """`scripts/reprolint.py src/repro` exits 0 (acceptance)."""
    result = subprocess.run(
        CLI + ["src/repro"], capture_output=True, text=True, cwd=REPO_ROOT)
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


def test_shipped_suppressions_are_few_and_all_have_reasons():
    """Every inline suppression in the shipped tree sits right under a
    comment saying why the contract holds anyway, and there are no more
    than the five reviewed ones."""
    suppressed = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for index, line in enumerate(lines):
            if "reprolint: disable" in line:
                suppressed.append(f"{path.name}:{index + 1}")
                above = lines[index - 1].strip()
                assert above.startswith("#") and len(above) > 20, \
                    f"{suppressed[-1]}: suppression without a reason above it"
    assert 0 < len(suppressed) <= 5, suppressed
