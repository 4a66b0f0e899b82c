"""The interprocedural dataflow pass: symbols, call graph, taint, R11-R14."""

import os

import pytest

import repro
from repro.analysis import analyze_paths, default_rules
from repro.analysis.dataflow import build_engine
from repro.analysis.dataflow.callgraph import CallGraph, resolve_call
from repro.analysis.dataflow.symbols import build_project, module_name_for
from repro.analysis.dataflow.taint import (
    ENTROPY,
    UNORDERED,
    WALLCLOCK,
    WORKER,
)

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "taintpkg")
REPRO_PKG = os.path.dirname(os.path.abspath(repro.__file__))


def deep_findings(paths):
    """The deep rules R11-R14 alone over ``paths``."""
    return analyze_paths(paths, default_rules(("--deep",)))


@pytest.fixture(scope="module")
def fixture_engine():
    return build_engine([FIXTURE])


@pytest.fixture(scope="module")
def fixture_findings():
    return deep_findings([FIXTURE])


@pytest.fixture(scope="module")
def repo_engine():
    return build_engine([REPRO_PKG])


# -- symbol table ----------------------------------------------------------

class TestSymbols:
    def test_module_names_follow_packages(self):
        path = os.path.join(FIXTURE, "model.py")
        assert module_name_for(path) == "taintpkg.model"

    def test_project_collects_modules_and_functions(self, fixture_engine):
        project = fixture_engine.project
        names = set(project.modules)
        assert {"taintpkg.model", "taintpkg.clock", "taintpkg.helpers",
                "taintpkg.keys", "taintpkg.usage",
                "taintpkg.clean"} <= names
        assert "taintpkg.helpers.make_probe" in project.functions
        assert project.functions["taintpkg.helpers.consume"].is_generator
        assert not project.functions[
            "taintpkg.helpers.make_probe"].is_generator

    def test_import_aliases_expand(self, fixture_engine):
        project = fixture_engine.project
        model = project.modules["taintpkg.model"]
        assert project.expand(model, "jitter") == "taintpkg.clock.jitter"

    def test_syntax_error_becomes_parse_error(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        findings = deep_findings([str(bad)])
        assert [f.code for f in findings] == ["E0"]


# -- call graph ------------------------------------------------------------

class TestCallGraph:
    def test_cross_module_calls_resolve(self, fixture_engine):
        graph = CallGraph(fixture_engine.project)
        assert "taintpkg.clock.jitter" in graph.callees(
            "taintpkg.model.schedule")
        assert "taintpkg.helpers.make_probe" in graph.callees(
            "taintpkg.helpers.chained_probe")

    def test_external_calls_keep_dotted_names(self, fixture_engine):
        project = fixture_engine.project
        stamp = project.functions["taintpkg.clock.stamp"]
        graph = CallGraph(project)
        assert "time.time" in graph.external["taintpkg.clock.stamp"]
        del stamp

    def test_resolution_repr_modes(self, fixture_engine):
        import ast

        project = fixture_engine.project
        caller = project.functions["taintpkg.model.schedule"]
        calls = [node for node in ast.walk(caller.node)
                 if isinstance(node, ast.Call)]
        resolved = [resolve_call(project, caller, call) for call in calls]
        assert any(r.resolved for r in resolved)

    def test_repo_wide_resolution_spans_all_modules(self, repo_engine):
        """`--deep` must see across every src/repro module."""
        project = repo_engine.project
        graph = CallGraph(project)
        cross = graph.cross_module_edges()
        assert len(project.modules) > 50
        assert len(cross) > 100
        touched = {caller.rsplit(".", 2)[0] for caller, _ in cross} | \
                  {callee.rsplit(".", 2)[0] for _, callee in cross}
        # Every top-level repro subpackage participates in resolved
        # cross-module edges.
        prefixes = {name.split(".")[1] for name in touched
                    if name.startswith("repro.")}
        for package in ("simulation", "obs", "experiments", "middleware",
                        "core", "analysis"):
            assert package in prefixes, package


# -- taint summaries -------------------------------------------------------

class TestTaint:
    def test_sources_taint_returns(self, fixture_engine):
        summary = fixture_engine.summary("taintpkg.clock.stamp")
        assert WALLCLOCK in summary.returns_taint

    def test_taint_propagates_through_calls(self, fixture_engine):
        summary = fixture_engine.summary("taintpkg.clock.jitter")
        assert WALLCLOCK in summary.returns_taint
        assert ENTROPY in fixture_engine.summary(
            "taintpkg.clock.token").returns_taint
        assert WORKER in fixture_engine.summary(
            "taintpkg.clock.worker_rank").returns_taint

    def test_event_helpers_summarized(self, fixture_engine):
        assert fixture_engine.summary(
            "taintpkg.helpers.make_probe").returns_event
        assert fixture_engine.summary(
            "taintpkg.helpers.chained_probe").returns_event

    def test_reseed_param_detected(self, fixture_engine):
        assert "rng" in fixture_engine.summary(
            "taintpkg.helpers.reseed").reseed_params

    def test_setlike_crosses_call_boundary(self, fixture_engine):
        assert "labels" in fixture_engine.summary(
            "taintpkg.keys.emit_labels").setlike_params

    def test_repo_event_factories_summarized(self, repo_engine):
        assert repo_engine.summary(
            "repro.simulation.resources.Resource.request").returns_event
        assert repo_engine.summary(
            "repro.simulation.resources.Store.put").returns_event

    def test_sorted_launders_unordered(self, fixture_engine):
        findings = deep_findings([FIXTURE])
        sorted_lines = [f for f in findings
                        if f.code == "R14" and "emit_sorted" in f.message]
        assert sorted_lines == []

    def test_lattice_kind_labels(self):
        assert {WALLCLOCK, ENTROPY, WORKER, UNORDERED} == {
            "wall-clock", "entropy", "worker-identity",
            "unordered-iteration"}


# -- the deep rules, golden fixture findings -------------------------------

#: (basename, line, code) for every expected fixture finding.
GOLDEN = [
    ("helpers.py", 13, "R12"),
    ("keys.py", 6, "R14"),
    ("model.py", 11, "R11"),
    ("model.py", 15, "R11"),
    ("model.py", 19, "R11"),
    ("model.py", 23, "R13"),
    ("model.py", 28, "R13"),
    ("model.py", 34, "R12"),
    ("model.py", 39, "R12"),
    ("model.py", 44, "R12"),
    ("usage.py", 16, "R12"),
]


class TestDeepRules:
    def test_golden_fixture_findings(self, fixture_findings):
        got = [(os.path.basename(f.path), f.line, f.code)
               for f in fixture_findings]
        assert got == GOLDEN

    def test_r11_covers_all_three_host_taints(self, fixture_findings):
        kinds = {f.message.split(" carries ")[1].split(" taint")[0]
                 for f in fixture_findings if f.code == "R11"}
        assert kinds == {"wall-clock", "entropy", "worker-identity"}

    def test_r13_resolves_through_call_graph(self, fixture_findings):
        chained = [f for f in fixture_findings
                   if f.code == "R13" and "chained_probe" in f.message]
        assert len(chained) == 1

    def test_clean_module_is_silent(self, fixture_findings):
        assert not any(os.path.basename(f.path) == "clean.py"
                       for f in fixture_findings)

    def test_suppression_comment_respected(self, fixture_findings):
        # clean.py's rng.seed(9) carries a justified disable=R12; the
        # stream still reaches it (usage.calibrate), so without the
        # comment it would be reported like helpers.py:13.
        assert not any("clean.py" in f.path for f in fixture_findings)

    def test_repro_package_is_deep_clean(self):
        findings = deep_findings([REPRO_PKG])
        assert findings == [], [f.format() for f in findings]

    def test_findings_are_deterministic(self):
        first = deep_findings([FIXTURE])
        second = deep_findings([FIXTURE])
        assert [f.to_dict() for f in first] == \
               [f.to_dict() for f in second]
