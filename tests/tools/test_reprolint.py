"""reprolint rule and framework tests.

Each rule gets at least one positive fixture (violation reported) and one
negative fixture (clean code passes); the framework tests cover pragmas,
rule selection, output formats, exit codes, and — most importantly — that
the live tree lints clean, which is the gate CI enforces.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from tools.reprolint import all_rules, lint_paths
from tools.reprolint.pragmas import PragmaIndex

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Fixture path that makes the module count as repro.core (rule scoping).
CORE = "src/repro/core/fixture_mod.py"
BENCH = "benchmarks/bench_fixture.py"


def lint_snippet(
    tmp_path: Path,
    code: str,
    relpath: str = CORE,
    select: list[str] | None = None,
) -> list:
    """Write *code* under a mirrored repo layout and lint it."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(code))
    return lint_paths([tmp_path], select=select).findings


def rule_ids(findings: list) -> list[str]:
    return [finding.rule_id for finding in findings]


# ----------------------------------------------------------------------
# R001 unregistered-matcher
# ----------------------------------------------------------------------
class TestR001:
    def test_unregistered_matcher_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            class OrphanMatcher:
                name = "orphan"
            """,
            select=["R001"],
        )
        assert rule_ids(findings) == ["R001"]
        assert "OrphanMatcher" in findings[0].message

    def test_registered_matcher_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def register_algorithm(name, factory):
                ...

            class GoodMatcher:
                name = "good"

            register_algorithm("good", GoodMatcher)
            """,
            select=["R001"],
        )
        assert findings == []

    def test_registration_may_live_in_another_module(
        self, tmp_path: Path
    ) -> None:
        lint_snippet(
            tmp_path,
            """
            class RemoteMatcher:
                name = "remote"
            """,
            select=["R001"],
        )
        (tmp_path / "src/repro/core/wiring.py").write_text(
            "register_algorithm('remote', "
            "lambda q, c, g: RemoteMatcher(q, c, g))\n"
        )
        assert lint_paths([tmp_path], select=["R001"]).findings == []

    def test_protocol_class_exempt(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            from typing import Protocol

            class Matcher(Protocol):
                name: str
            """,
            select=["R001"],
        )
        assert findings == []

    def test_outside_matcher_packages_exempt(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            class HelperMatcher:
                name = "helper"
            """,
            relpath="src/repro/experiments/fixture_mod.py",
            select=["R001"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R002 swallowed-exception
# ----------------------------------------------------------------------
class TestR002:
    def test_bare_except_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def search():
                try:
                    work()
                except:
                    recover()
            """,
            select=["R002"],
        )
        assert rule_ids(findings) == ["R002"]

    def test_swallowing_broad_except_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            try:
                work()
            except Exception:
                pass
            """,
            select=["R002"],
        )
        assert rule_ids(findings) == ["R002"]

    def test_narrow_or_handled_except_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            try:
                work()
            except ValueError:
                pass
            except Exception as exc:
                raise RuntimeError("wrapped") from exc
            """,
            select=["R002"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R003 frozen-plan-mutation
# ----------------------------------------------------------------------
class TestR003:
    def test_object_setattr_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def tweak(tcq, order):
                object.__setattr__(tcq, "order", order)
            """,
            select=["R003"],
        )
        assert rule_ids(findings) == ["R003"]

    def test_attribute_write_through_plan_name_flagged(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def tweak(self):
                self.tcq.order = ()
            """,
            select=["R003"],
        )
        assert rule_ids(findings) == ["R003"]

    def test_setattr_call_on_plan_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def tweak(tcf):
                setattr(tcf, "edges", frozenset())
            """,
            select=["R003"],
        )
        assert rule_ids(findings) == ["R003"]

    def test_post_init_escape_hatch_allowed(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class TCQ:
                order: tuple

                def __post_init__(self):
                    object.__setattr__(self, "order", tuple(self.order))
            """,
            select=["R003"],
        )
        assert findings == []

    def test_building_a_plan_is_not_mutation(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def build(order):
                tcq = make_tcq(order)
                local = list(tcq.order)
                local[0] = 1
                return tcq
            """,
            select=["R003"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R004 unguarded-recursion
# ----------------------------------------------------------------------
class TestR004:
    def test_unguarded_recursive_dfs_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def dfs(pos):
                if pos == 0:
                    return
                dfs(pos - 1)
            """,
            select=["R004"],
        )
        assert rule_ids(findings) == ["R004"]

    def test_deadline_guard_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            import time

            def dfs(pos, deadline):
                if deadline is not None and time.monotonic() > deadline:
                    return
                dfs(pos - 1, deadline)
            """,
            select=["R004"],
        )
        assert findings == []

    def test_non_search_recursion_exempt(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def fold(items):
                if not items:
                    return 0
                return items[0] + fold(items[1:])
            """,
            select=["R004"],
        )
        assert findings == []

    def test_non_recursive_search_exempt(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def search(items):
                return [item for item in items if item]
            """,
            select=["R004"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R005 all-mismatch
# ----------------------------------------------------------------------
class TestR005:
    def test_public_def_missing_from_all_flagged(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            __all__ = ["listed"]

            def listed():
                ...

            def unlisted():
                ...
            """,
            select=["R005"],
        )
        assert rule_ids(findings) == ["R005"]
        assert "unlisted" in findings[0].message

    def test_phantom_all_entry_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            __all__ = ["ghost"]
            """,
            select=["R005"],
        )
        assert rule_ids(findings) == ["R005"]
        assert "ghost" in findings[0].message

    def test_missing_all_with_public_defs_flagged(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def exposed():
                ...
            """,
            select=["R005"],
        )
        assert rule_ids(findings) == ["R005"]

    def test_consistent_all_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            from os import getcwd

            __all__ = ["CONST", "exposed", "getcwd"]

            CONST = 1

            def exposed():
                ...

            def _private():
                ...
            """,
            select=["R005"],
        )
        assert findings == []

    def test_benchmarks_exempt(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def run_bench():
                ...
            """,
            relpath=BENCH,
            select=["R005"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R006 missing-annotations
# ----------------------------------------------------------------------
class TestR006:
    def test_unannotated_public_function_flagged(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            __all__ = ["combine"]

            def combine(a, b: int, **options):
                return a
            """,
            select=["R006"],
        )
        assert rule_ids(findings) == ["R006"]
        message = findings[0].message
        assert "a" in message and "**options" in message and "return" in message

    def test_unannotated_public_method_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            __all__ = ["Thing"]

            class Thing:
                def value(self):
                    return 1
            """,
            select=["R006"],
        )
        assert rule_ids(findings) == ["R006"]

    def test_fully_annotated_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            from typing import Any

            __all__ = ["Thing", "combine"]

            def combine(a: int, b: int = 0, **options: Any) -> int:
                return a + b

            class Thing:
                def value(self) -> int:
                    return 1

                def _helper(self, raw):
                    return raw
            """,
            select=["R006"],
        )
        assert findings == []

    def test_private_and_nested_functions_exempt(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            __all__ = ["outer"]

            def outer() -> None:
                def inner(x):
                    return x
                inner(1)

            def _private(x):
                return x
            """,
            select=["R006"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R007 bench-imports-tests
# ----------------------------------------------------------------------
class TestR007:
    def test_bench_importing_tests_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            from tests.core.test_match import helper
            import tests.graphs
            """,
            relpath=BENCH,
            select=["R007"],
        )
        assert rule_ids(findings) == ["R007", "R007"]

    def test_bench_importing_repro_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            from repro.datasets import toy
            """,
            relpath=BENCH,
            select=["R007"],
        )
        assert findings == []

    def test_rule_scoped_to_benchmarks(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            import tests.helpers
            """,
            relpath="src/repro/core/fixture_mod.py",
            select=["R007"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R008 float-timestamp-eq
# ----------------------------------------------------------------------
class TestR008:
    def test_float_literal_equality_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def check(t):
                return t == 3.5
            """,
            select=["R008"],
        )
        assert rule_ids(findings) == ["R008"]

    def test_float_coercion_equality_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def check(t, other):
                return float(t) != other
            """,
            select=["R008"],
        )
        assert rule_ids(findings) == ["R008"]

    def test_integer_and_window_compares_pass(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def check(t, lo, hi):
                return t == 3 or lo <= t <= hi or t >= 0.0
            """,
            select=["R008"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R009 service-unbudgeted-run
# ----------------------------------------------------------------------
SERVICE = "src/repro/service/fixture_mod.py"


class TestR009:
    def test_unbudgeted_run_in_service_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def execute(matcher, stats):
                return list(matcher.run(limit=None, stats=stats))
            """,
            relpath=SERVICE,
            select=["R009"],
        )
        assert rule_ids(findings) == ["R009"]
        assert "deadline" in findings[0].message

    def test_unbudgeted_find_matches_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            from repro.core import find_matches

            def execute(query, tc, graph):
                return find_matches(query, tc, graph)
            """,
            relpath=SERVICE,
            select=["R009"],
        )
        assert rule_ids(findings) == ["R009"]

    def test_unbudgeted_run_prepared_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            from repro.core import run_prepared

            def execute(matcher):
                return run_prepared(matcher, limit=5)
            """,
            relpath=SERVICE,
            select=["R009"],
        )
        assert rule_ids(findings) == ["R009"]
        assert "run_prepared()" in findings[0].message

    def test_run_prepared_with_deadline_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            from repro.core import run_prepared

            def execute(matcher, deadline):
                return run_prepared(matcher, limit=5, deadline=deadline)
            """,
            relpath=SERVICE,
            select=["R009"],
        )
        assert findings == []

    def test_deadline_keyword_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def execute(matcher, stats, deadline):
                return list(matcher.run(stats=stats, deadline=deadline))
            """,
            relpath=SERVICE,
            select=["R009"],
        )
        assert findings == []

    def test_explicit_unbounded_deadline_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def execute(matcher, stats):
                return list(matcher.run(stats=stats, deadline=None))
            """,
            relpath=SERVICE,
            select=["R009"],
        )
        assert findings == []

    def test_time_budget_keyword_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            from repro.core import find_matches

            def execute(query, tc, graph, budget):
                return find_matches(query, tc, graph, time_budget=budget)
            """,
            relpath=SERVICE,
            select=["R009"],
        )
        assert findings == []

    def test_kwargs_splat_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            from repro.core import find_matches

            def execute(query, tc, graph, **kwargs):
                return find_matches(query, tc, graph, **kwargs)
            """,
            relpath=SERVICE,
            select=["R009"],
        )
        assert findings == []

    def test_rule_scoped_to_service_package(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def execute(matcher, stats):
                return list(matcher.run(limit=None, stats=stats))
            """,
            relpath=CORE,
            select=["R009"],
        )
        assert findings == []

    def test_pragma_disables(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def execute(matcher, stats):
                return list(
                    matcher.run(stats=stats)  # reprolint: disable=R009
                )
            """,
            relpath=SERVICE,
            select=["R009"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R010 span-not-context-managed
# ----------------------------------------------------------------------
class TestR010:
    def test_bare_span_call_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def run(tracer):
                tracer.span("enumerate")
            """,
            select=["R010"],
        )
        assert rule_ids(findings) == ["R010"]
        assert "with" in findings[0].message

    def test_assigned_span_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def run(tracer):
                sp = tracer.span("prepare", algorithm="x")
                sp.annotate(matches=1)
            """,
            select=["R010"],
        )
        assert rule_ids(findings) == ["R010"]

    def test_with_statement_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def run(tracer):
                with tracer.span("enumerate") as sp:
                    sp.annotate(matches=1)
            """,
            select=["R010"],
        )
        assert findings == []

    def test_multi_item_with_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def run(tracer, other):
                with tracer.span("a"), other.span("b"):
                    pass
            """,
            select=["R010"],
        )
        assert findings == []

    def test_exit_stack_enter_context_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            import contextlib

            def run(tracer):
                with contextlib.ExitStack() as stack:
                    stack.enter_context(tracer.span("enumerate"))
            """,
            select=["R010"],
        )
        assert findings == []

    def test_obs_package_exempt(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def helper(tracer):
                return tracer.span("internal")
            """,
            relpath="src/repro/obs/fixture_mod.py",
            select=["R010"],
        )
        assert findings == []

    def test_pragma_disables(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def run(tracer):
                sp = tracer.span("x")  # reprolint: disable=R010
                return sp
            """,
            select=["R010"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R011 graph-private-access
# ----------------------------------------------------------------------
class TestR011:
    def test_dict_adjacency_access_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def neighbours(graph, u):
                return list(graph._out[u])
            """,
            select=["R011"],
        )
        assert rule_ids(findings) == ["R011"]
        assert "_out" in findings[0].message

    def test_csr_plane_access_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def raw_times(snapshot):
                return snapshot._out_times
            """,
            select=["R011"],
        )
        assert rule_ids(findings) == ["R011"]

    def test_accessor_api_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def neighbours(graph, u):
                return [(v, list(ts)) for v, ts in graph.out_items(u)]
            """,
            select=["R011"],
        )
        assert findings == []

    def test_graphs_package_exempt(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def compile_rows(graph):
                return [graph._out[u] for u in graph.vertices()]
            """,
            relpath="src/repro/graphs/fixture_mod.py",
            select=["R011"],
        )
        assert findings == []

    def test_pragma_disables(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def poke(graph, u):
                return graph._in[u]  # reprolint: disable=R011
            """,
            select=["R011"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R012 timestamp-expand-then-filter
# ----------------------------------------------------------------------
class TestR012:
    def test_gap_filter_over_full_run_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def expand(graph, c, u, v, base):
                out = []
                for t in graph.timestamps(u, v):
                    if 0 <= t - base <= c.gap:
                        out.append(t)
                return out
            """,
            select=["R012"],
        )
        assert rule_ids(findings) == ["R012"]
        assert "timestamps" in findings[0].message

    def test_is_satisfied_filter_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def expand(graph, constraint, u, v, other):
                kept = []
                for t in graph.timestamps_with_label(u, v, 3):
                    if constraint.is_satisfied(other, t):
                        kept.append(t)
                return kept
            """,
            select=["R012"],
        )
        assert rule_ids(findings) == ["R012"]

    def test_windowed_accessor_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def expand(graph, c, u, v, lo, hi, base):
                out = []
                for t in graph.timestamps_in_window(u, v, lo, hi):
                    if 0 <= t - base <= c.gap:
                        out.append(t)
                return out
            """,
            select=["R012"],
        )
        assert findings == []

    def test_unfiltered_full_scan_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def total(graph, u, v):
                count = 0
                for t in graph.timestamps(u, v):
                    count += t
                return count
            """,
            select=["R012"],
        )
        assert findings == []

    def test_pragma_disables(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def oracle(graph, c, u, v, base):
                kept = []
                for t in graph.timestamps(u, v):  # reprolint: disable=R012
                    if 0 <= t - base <= c.gap:
                        kept.append(t)
                return kept
            """,
            select=["R012"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# framework: pragmas, selection, output, exit codes, live tree
# ----------------------------------------------------------------------
class TestPragmas:
    def test_line_pragma_suppresses_named_rule(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def check(t):
                return t == 3.5  # reprolint: disable=R008
            """,
            select=["R008"],
        )
        assert findings == []

    def test_line_pragma_is_rule_specific(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def check(t):
                return t == 3.5  # reprolint: disable=R002
            """,
            select=["R008"],
        )
        assert rule_ids(findings) == ["R008"]

    def test_file_pragma_suppresses_everywhere(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            # reprolint: disable-file=R008

            def check(t):
                return t == 3.5

            def check2(t):
                return t == 7.25
            """,
            select=["R008"],
        )
        assert findings == []

    def test_pragma_index_parsing(self) -> None:
        index = PragmaIndex.from_source(
            "x = 1  # reprolint: disable=R001, R002\n"
            "# reprolint: disable-file=R009\n"
            "y = 2  # reprolint: disable\n"
        )
        assert index.is_disabled("R001", 1)
        assert index.is_disabled("R002", 1)
        assert not index.is_disabled("R003", 1)
        assert index.is_disabled("R009", 99)  # file-wide
        assert index.is_disabled("R777", 3)  # blanket disable on line 3


class TestFramework:
    def test_every_rule_has_id_name_description(self) -> None:
        rules = all_rules()
        assert len(rules) >= 8
        for rule_id, cls in rules.items():
            assert rule_id == cls.id
            assert cls.name
            assert cls.description

    def test_select_and_ignore(self, tmp_path: Path) -> None:
        code = """
        def check(t):
            return t == 3.5
        """
        assert lint_snippet(tmp_path, code, select=["R002"]) == []
        result = lint_paths([tmp_path], ignore=["R008", "R005", "R006"])
        assert result.findings == []

    def test_unknown_rule_id_raises(self, tmp_path: Path) -> None:
        try:
            lint_paths([tmp_path], select=["R999"])
        except ValueError as exc:
            assert "R999" in str(exc)
        else:
            raise AssertionError("expected ValueError for unknown rule id")

    def test_unparseable_file_is_an_error(self, tmp_path: Path) -> None:
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        result = lint_paths([tmp_path])
        assert result.errors and "broken.py" in result.errors[0]


class TestCli:
    def run_cli(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "tools.reprolint", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )

    def test_violation_exits_nonzero_with_json(self, tmp_path: Path) -> None:
        target = tmp_path / "src/repro/core/bad.py"
        target.parent.mkdir(parents=True)
        target.write_text("def check(t):\n    return t == 3.5\n")
        proc = self.run_cli(str(tmp_path), "--select", "R008", "--format",
                            "json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["files_scanned"] == 1
        assert [f["rule_id"] for f in payload["findings"]] == ["R008"]

    def test_clean_tree_exits_zero(self, tmp_path: Path) -> None:
        target = tmp_path / "src/repro/core/good.py"
        target.parent.mkdir(parents=True)
        target.write_text('__all__: list = []\n')
        proc = self.run_cli(str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_nonexistent_path_is_usage_error(self, tmp_path: Path) -> None:
        # A typo'd path must not report a vacuous "0 files scanned, clean".
        proc = self.run_cli(str(tmp_path / "no/such/dir"))
        assert proc.returncode == 2
        assert "do not exist" in proc.stderr

    def test_list_rules(self) -> None:
        proc = self.run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in all_rules():
            assert rule_id in proc.stdout


# ----------------------------------------------------------------------
# R013 lock-discipline
# ----------------------------------------------------------------------
class TestR013:
    def test_unguarded_read_of_guarded_attr_flagged(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def put(self, k, v):
                    with self._lock:
                        self._entries[k] = v

                def get(self, k):
                    return self._entries.get(k)
            """,
            select=["R013"],
        )
        assert rule_ids(findings) == ["R013"]
        assert "_entries" in findings[0].message
        assert "_lock" in findings[0].message

    def test_unguarded_write_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def put(self, k, v):
                    with self._lock:
                        self._entries[k] = v

                def clear(self):
                    self._entries = {}
            """,
            select=["R013"],
        )
        assert rule_ids(findings) == ["R013"]
        assert "write to" in findings[0].message

    def test_fully_guarded_class_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def put(self, k, v):
                    with self._lock:
                        self._entries[k] = v

                def get(self, k):
                    with self._lock:
                        return self._entries.get(k)
            """,
            select=["R013"],
        )
        assert findings == []

    def test_helper_called_only_under_lock_inherits_it(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}
                    self.capacity = 4

                def put(self, k, v):
                    with self._lock:
                        self._entries[k] = v
                        self._trim()

                def get(self, k):
                    with self._lock:
                        return self._entries.get(k)

                def _trim(self):
                    while len(self._entries) > self.capacity:
                        self._entries.popitem()
            """,
            select=["R013"],
        )
        assert findings == []

    def test_helper_also_called_without_lock_is_flagged(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def put(self, k, v):
                    with self._lock:
                        self._entries[k] = v
                        self._trim()

                def reset(self):
                    self._trim()

                def _trim(self):
                    self._entries.popitem()
            """,
            select=["R013"],
        )
        # _trim's bare access no longer inherits the lock: one call site
        # (reset) runs without it.
        assert rule_ids(findings) == ["R013"]

    def test_guarded_by_pragma_waives_site(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = {}

                def put(self, k, v):
                    with self._lock:
                        self._entries[k] = v

                def peek(self, k):
                    return self._entries.get(k)  # reprolint: guarded-by(_lock)
            """,
            select=["R013"],
        )
        assert findings == []

    def test_construction_only_attr_is_free_to_read_bare(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._started = 1.0
                    self._counters = {}

                def inc(self, name):
                    with self._lock:
                        self._counters[name] = 1
                        if self._started:
                            pass

                def uptime(self):
                    return self._started
            """,
            select=["R013"],
        )
        # _started is never mutated after __init__: immutable-after-publish.
        assert findings == []


# ----------------------------------------------------------------------
# R014 frozen-state-write
# ----------------------------------------------------------------------
class TestR014:
    def test_frozen_dataclass_self_write_flagged(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Plan:
                steps: tuple = ()

                def tweak(self):
                    self.steps = (1,)
            """,
            select=["R014"],
        )
        assert rule_ids(findings) == ["R014"]
        assert "Plan" in findings[0].message

    def test_write_through_frozen_local_flagged(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Plan:
                steps: tuple = ()

            def build():
                plan = Plan()
                plan.steps = (1,)
                return plan
            """,
            select=["R014"],
        )
        assert rule_ids(findings) == ["R014"]

    def test_inplace_mutation_of_frozen_field_flagged(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Plan:
                steps: list = None

            def grow():
                plan = Plan(steps=[])
                plan.steps.append(1)
            """,
            select=["R014"],
        )
        assert rule_ids(findings) == ["R014"]
        assert "in-place" in findings[0].message

    def test_write_through_frozen_typed_attribute_flagged(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Plan:
                steps: tuple = ()

            class Service:
                def __init__(self):
                    self.plan_obj = Plan()

                def rewrite(self):
                    self.plan_obj.steps = (2,)
            """,
            select=["R014"],
        )
        assert rule_ids(findings) == ["R014"]

    def test_graph_snapshot_is_frozen_by_contract(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            class GraphSnapshot:
                def __init__(self):
                    self._labels = ()

                def relabel(self):
                    self._labels = ("A",)
            """,
            relpath="src/repro/graphs/fixture_snap.py",
            select=["R014"],
        )
        assert rule_ids(findings) == ["R014"]

    def test_construction_and_factories_are_exempt(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            class GraphSnapshot:
                def __init__(self):
                    self._labels = ()
                    self._init_views()

                def _init_views(self):
                    self._views = ()

                def __setstate__(self, state):
                    self._labels = state["labels"]
            """,
            relpath="src/repro/graphs/fixture_snap.py",
            select=["R014"],
        )
        assert findings == []

    def test_frozen_subclass_inherits_frozenness(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Plan:
                steps: tuple = ()

            class FancyPlan(Plan):
                def tweak(self):
                    self.steps = (3,)
            """,
            select=["R014"],
        )
        assert rule_ids(findings) == ["R014"]


# ----------------------------------------------------------------------
# R015 lock-ordering
# ----------------------------------------------------------------------
class TestR015:
    def test_abba_nesting_in_one_class_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            import threading

            class Pool:
                def __init__(self):
                    self._queue_lock = threading.Lock()
                    self._state_lock = threading.Lock()

                def submit(self):
                    with self._queue_lock:
                        with self._state_lock:
                            pass

                def drain(self):
                    with self._state_lock:
                        with self._queue_lock:
                            pass
            """,
            select=["R015"],
        )
        assert rule_ids(findings) == ["R015", "R015"]
        assert "cycle" in findings[0].message

    def test_consistent_order_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            import threading

            class Pool:
                def __init__(self):
                    self._queue_lock = threading.Lock()
                    self._state_lock = threading.Lock()

                def submit(self):
                    with self._queue_lock:
                        with self._state_lock:
                            pass

                def drain(self):
                    with self._queue_lock:
                        with self._state_lock:
                            pass
            """,
            select=["R015"],
        )
        assert findings == []

    def test_cross_class_call_cycle_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            import threading

            class Front:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.store = Store()

                def handle(self):
                    with self._lock:
                        self.store.flush()

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.front = Front()

                def flush(self):
                    with self._lock:
                        pass

                def notify(self):
                    with self._lock:
                        self.front.handle()
            """,
            select=["R015"],
        )
        assert len(findings) >= 2
        assert all(f.rule_id == "R015" for f in findings)

    def test_one_way_cross_class_call_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            import threading

            class Front:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.store = Store()

                def handle(self):
                    with self._lock:
                        self.store.flush()

            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                def flush(self):
                    with self._lock:
                        pass
            """,
            select=["R015"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R016 shared-mutable-state
# ----------------------------------------------------------------------
class TestR016:
    def test_module_global_mutated_from_function_flagged(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            _CACHE: dict = {}

            def remember(key, value):
                _CACHE[key] = value
            """,
            select=["R016"],
        )
        assert rule_ids(findings) == ["R016"]
        assert "_CACHE" in findings[0].message

    def test_mutation_under_module_lock_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            import threading

            _LOCK = threading.Lock()
            _CACHE: dict = {}

            def remember(key, value):
                with _LOCK:
                    _CACHE[key] = value

            def forget(key):
                with _LOCK:
                    _CACHE.pop(key, None)
            """,
            select=["R016"],
        )
        assert findings == []

    def test_import_time_only_registry_passes(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            _REGISTRY: dict = {}

            def lookup(name):
                return _REGISTRY[name]
            """,
            select=["R016"],
        )
        assert findings == []

    def test_mutable_default_argument_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def collect(item, acc=[]):
                acc.append(item)
                return acc
            """,
            select=["R016"],
        )
        assert rule_ids(findings) == ["R016"]
        assert "default" in findings[0].message

    def test_mutable_class_attr_written_through_self_flagged(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            class Queue:
                items = []

                def add(self, x):
                    self.items.append(x)
            """,
            select=["R016"],
        )
        assert rule_ids(findings) == ["R016"]
        assert "every instance shares" in findings[0].message

    def test_pragma_on_binding_line_suppresses(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            _REGISTRY: dict = {}  # reprolint: disable=R016

            def register(name, factory):
                _REGISTRY[name] = factory
            """,
            select=["R016"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R017 snapshot-recompile-in-loop
# ----------------------------------------------------------------------
class TestR017:
    def test_freeze_in_for_body_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def replay(graph, edges):
                for u, v, t in edges:
                    graph.add_edge(u, v, t)
                    graph.freeze()
            """,
            select=["R017"],
        )
        assert rule_ids(findings) == ["R017"]
        assert "freeze()" in findings[0].message

    def test_compile_snapshot_in_while_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def poll(graph, queue):
                while queue:
                    queue.pop()
                    snap = compile_snapshot(graph)
            """,
            select=["R017"],
        )
        assert rule_ids(findings) == ["R017"]
        assert "compile_snapshot()" in findings[0].message

    def test_nested_function_in_loop_body_flagged(
        self, tmp_path: Path
    ) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def build(graphs):
                for graph in graphs:
                    def thunk():
                        return graph.freeze()
                    yield thunk
            """,
            select=["R017"],
        )
        assert rule_ids(findings) == ["R017"]

    def test_hoisted_and_orelse_calls_pass(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def replay(graph, edges):
                for u, v, t in edges:
                    graph.add_edge(u, v, t)
                else:
                    graph.freeze()
                snap = compile_snapshot(graph)
                return snap
            """,
            select=["R017"],
        )
        assert findings == []

    def test_other_calls_in_loops_pass(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def replay(graph, edges):
                for u, v, t in edges:
                    graph.add_edge(u, v, t)
                    graph.describe()
            """,
            select=["R017"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def baseline(graph, edges):
                for u, v, t in edges:
                    graph.add_edge(u, v, t)
                    graph.freeze()  # reprolint: disable=R017 -- baseline
            """,
            select=["R017"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R019 sink-protocol-bypass
# ----------------------------------------------------------------------
class TestR019:
    def test_matches_append_in_matcher_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def enumerate_all(matcher, ctx):
                matches = []
                for match in matcher.run(ctx):
                    matches.append(match)
                return matches
            """,
            select=["R019"],
        )
        assert rule_ids(findings) == ["R019"]
        assert "sink.accept" in findings[0].message

    def test_self_matches_attribute_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            class Matcher:
                def _emit(self, match):
                    self._matches.append(match)
            """,
            select=["R019"],
        )
        assert rule_ids(findings) == ["R019"]

    def test_sink_accept_and_other_lists_pass(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def emit(sink, match, order):
                sink.accept(match)
                order.append(match)
            """,
            select=["R019"],
        )
        assert findings == []

    def test_sinks_module_is_exempt(self, tmp_path: Path) -> None:
        # The sink implementation is the one place allowed to accumulate.
        findings = lint_snippet(
            tmp_path,
            """
            class CollectSink:
                def accept(self, match):
                    self.matches.append(match)
            """,
            relpath="src/repro/core/sinks.py",
            select=["R019"],
        )
        assert findings == []

    def test_out_of_scope_module_passes(self, tmp_path: Path) -> None:
        # Result plumbing outside the matcher packages is not a matcher.
        findings = lint_snippet(
            tmp_path,
            """
            def collect(result):
                matches = []
                matches.append(result)
                return matches
            """,
            relpath="src/repro/service/fixture_mod.py",
            select=["R019"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def oracle(matcher, ctx):
                matches = []
                for match in matcher.run(ctx):
                    matches.append(match)  # reprolint: disable=R019
                return matches
            """,
            select=["R019"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# R020 codegen-confinement
# ----------------------------------------------------------------------
class TestR020:
    def test_exec_outside_codegen_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def run_snippet(snippet):
                namespace = {}
                exec(snippet, namespace)
                return namespace
            """,
            select=["R020"],
        )
        assert rule_ids(findings) == ["R020"]
        assert "repro.core.codegen" in findings[0].message

    def test_compile_and_eval_flagged(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def build(source):
                code = compile(source, "<x>", "exec")
                return eval("1 + 1"), code
            """,
            select=["R020"],
        )
        assert rule_ids(findings) == ["R020", "R020"]

    def test_flagged_everywhere_not_just_core(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def hot_patch(body):
                exec(body)
            """,
            relpath="src/repro/service/fixture_mod.py",
            select=["R020"],
        )
        assert rule_ids(findings) == ["R020"]

    def test_codegen_module_is_exempt(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def finish(source, ns):
                code = compile(source, "<repro-codegen>", "exec")
                exec(code, ns)
                return ns["_enumerate"]
            """,
            relpath="src/repro/core/codegen.py",
            select=["R020"],
        )
        assert findings == []

    def test_method_compile_calls_pass(self, tmp_path: Path) -> None:
        # re.compile / snapshot.compile are attribute lookups, not the
        # dynamic-execution builtins.
        findings = lint_snippet(
            tmp_path,
            """
            import re

            def prepare(graph):
                pattern = re.compile("a+")
                graph.compile()
                return pattern
            """,
            select=["R020"],
        )
        assert findings == []

    def test_pragma_suppresses(self, tmp_path: Path) -> None:
        findings = lint_snippet(
            tmp_path,
            """
            def sandbox(snippet):
                exec(snippet)  # reprolint: disable=R020 -- interactive sandbox
            """,
            select=["R020"],
        )
        assert findings == []


# ----------------------------------------------------------------------
# guarded-by pragma parsing + inventory
# ----------------------------------------------------------------------
class TestGuardedByPragma:
    def test_guarded_by_parses_lock_name(self) -> None:
        index = PragmaIndex.from_source(
            "x = self._n  # reprolint: guarded-by(_lock)\n"
        )
        assert index.guarded_by(1) == frozenset({"_lock"})
        assert index.guarded_by(2) == frozenset()

    def test_guarded_by_wildcard(self) -> None:
        index = PragmaIndex.from_source(
            "x = self._n  # reprolint: guarded-by(*)\n"
        )
        assert "*" in index.guarded_by(1)

    def test_guarded_by_does_not_disable_rules(self) -> None:
        index = PragmaIndex.from_source(
            "x = self._n  # reprolint: guarded-by(_lock)\n"
        )
        assert not index.is_disabled("R013", 1)

    def test_entries_inventory_records_every_pragma(self) -> None:
        index = PragmaIndex.from_source(
            "a = 1  # reprolint: disable=R001\n"
            "# reprolint: disable-file=R002\n"
            "b = 2  # reprolint: guarded-by(_lock)\n"
        )
        kinds = [entry.kind for entry in index.entries]
        assert kinds == ["disable", "disable-file", "guarded-by"]
        assert index.entries[2].values == ("_lock",)


# ----------------------------------------------------------------------
# findings-baseline ratchet
# ----------------------------------------------------------------------
class TestBaseline:
    CODE = "def check(t):\n    return t == 3.5\n"

    def write_bad(self, tmp_path: Path) -> Path:
        target = tmp_path / "src/repro/core/bad.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.CODE)
        return target

    def run_cli(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "tools.reprolint", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )

    def test_update_then_rerun_is_clean(self, tmp_path: Path) -> None:
        self.write_bad(tmp_path)
        baseline = tmp_path / "baseline.json"
        proc = self.run_cli(
            str(tmp_path), "--select", "R008",
            "--baseline", str(baseline), "--update-baseline",
        )
        assert proc.returncode == 0, proc.stderr
        assert baseline.exists()
        proc = self.run_cli(
            str(tmp_path), "--select", "R008", "--baseline", str(baseline)
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "1 baselined" in proc.stderr

    def test_new_finding_fails_despite_baseline(self, tmp_path: Path) -> None:
        target = self.write_bad(tmp_path)
        baseline = tmp_path / "baseline.json"
        self.run_cli(
            str(tmp_path), "--select", "R008",
            "--baseline", str(baseline), "--update-baseline",
        )
        # A *second* instance of the same violation is a new finding.
        target.write_text(self.CODE + "\ndef check2(t):\n    return t == 3.5\n")
        proc = self.run_cli(
            str(tmp_path), "--select", "R008", "--baseline", str(baseline)
        )
        assert proc.returncode == 1
        assert "R008" in proc.stdout

    def test_missing_baseline_file_means_empty(self, tmp_path: Path) -> None:
        self.write_bad(tmp_path)
        proc = self.run_cli(
            str(tmp_path), "--select", "R008",
            "--baseline", str(tmp_path / "nope.json"),
        )
        assert proc.returncode == 1

    def test_json_output_reports_pragma_inventory(
        self, tmp_path: Path
    ) -> None:
        target = tmp_path / "src/repro/core/mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(
            "x = 1  # reprolint: disable=R008\n"
            "__all__: list = []\n"
        )
        proc = self.run_cli(str(tmp_path), "--format", "json")
        payload = json.loads(proc.stdout)
        (path,) = payload["pragmas"]
        assert payload["pragmas"][path][0]["kind"] == "disable"
        assert payload["pragmas"][path][0]["values"] == ["R008"]


class TestLiveTree:
    """The acceptance gate: the real tree (including tools/) lints clean."""

    def test_src_benchmarks_and_tools_are_clean(self) -> None:
        result = lint_paths(
            [
                REPO_ROOT / "src" / "repro",
                REPO_ROOT / "benchmarks",
                REPO_ROOT / "tools",
            ]
        )
        formatted = "\n".join(f.format() for f in result.findings)
        assert result.findings == [], f"live tree has findings:\n{formatted}"
        assert result.errors == []
        assert result.files_scanned > 50
