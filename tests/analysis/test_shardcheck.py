"""The shard-affinity pass: model, rules R15-R19, inventory, CLI."""

import json
import os

import pytest

import repro
from repro.analysis import analyze_paths, default_rules
from repro.analysis.cli import main as simlint_main
from repro.analysis.sarif import render_sarif
from repro.analysis.shard.inventory import render_inventory
from repro.analysis.state import (
    GLOBAL,
    HOST,
    LOCAL,
    SHARED,
    SITE,
    build_state_model,
    family_of_module,
)

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "shardpkg")
REPRO_PKG = os.path.dirname(os.path.abspath(repro.__file__))


def shard_family():
    return default_rules(("--shard",))


@pytest.fixture(scope="module")
def fixture_model():
    return build_state_model([FIXTURE])


@pytest.fixture(scope="module")
def fixture_findings():
    return analyze_paths([FIXTURE], shard_family())


def _at(findings, code, filename):
    return [(f.line, f.col) for f in findings
            if f.code == code and f.path.endswith(filename)]


def _lines(findings, code, filename):
    return [line for line, _col in _at(findings, code, filename)]


# -- entity families -------------------------------------------------------

class TestFamilies:
    def test_host_components(self):
        for name in ("repro.hardware.cpu", "repro.guestos.kernel",
                     "repro.vmm.monitor", "repro.storage.pvfs",
                     "shardpkg.hardware"):
            assert family_of_module(name) == HOST

    def test_site_components(self):
        assert family_of_module("repro.middleware.gram") == SITE
        assert family_of_module("shardpkg.middleware") == SITE

    def test_site_wins_over_host_and_shared(self):
        # dhcp pins gridnet.dhcp to the site family even though the
        # rest of gridnet is shared.
        assert family_of_module("repro.gridnet.dhcp") == SITE
        assert family_of_module("repro.gridnet.flows") == SHARED

    def test_everything_else_is_shared(self):
        for name in ("repro.simulation.kernel", "repro.obs.metrics",
                     "shardpkg.stats", "shardpkg.clean"):
            assert family_of_module(name) == SHARED


# -- the model -------------------------------------------------------------

class TestModel:
    def test_mutated_module_global_is_process_global(self, fixture_model):
        loc = fixture_model.locations[("shardpkg.stats", "_LIVE_WORLDS")]
        assert loc.affinity == GLOBAL
        assert [m.kind for m in loc.mutations] == ["append"]

    def test_read_only_table_stays_local(self, fixture_model):
        loc = fixture_model.locations[("shardpkg.stats", "_UNITS")]
        assert loc.affinity == LOCAL and not loc.mutations

    def test_global_rebinding_promotes_immutable_binding(
            self, fixture_model):
        loc = fixture_model.locations[("shardpkg.stats",
                                       "_ACTIVE_WORLD")]
        assert loc.kind == "binding" and loc.affinity == GLOBAL

    def test_class_level_counter_tracked_through_next(
            self, fixture_model):
        loc = fixture_model.locations[("shardpkg.stats",
                                       "RunningTotal._ids")]
        assert loc.kind == "counter"
        assert [m.kind for m in loc.mutations] == ["next"]

    def test_cache_sites_with_bounds_and_frozen(self, fixture_model):
        sites = {s.function.qualname: s for s in fixture_model.cache_sites
                 if "shardpkg" in s.function.module.name}
        assert sites["shardpkg.stats.slow_phi"].explicit_unbounded
        assert sites["shardpkg.stats.slow_psi"].explicit_unbounded
        helper = sites["shardpkg.stats.bounded_helper"]
        assert helper.bounded and helper.maxsize == 256
        assert not sites["shardpkg.stats.Sampler.scaled"].frozen_dataclass
        assert sites["shardpkg.stats.CostTable.cost"].frozen_dataclass

    def test_self_writes_counted_per_class(self, fixture_model):
        writes = fixture_model.self_writes
        assert writes["shardpkg.hardware.Machine"] >= 4
        assert writes["shardpkg.middleware.GramService"] >= 4


# -- the rules over the fixture --------------------------------------------

class TestRulesOnFixture:
    def test_r15_positives(self, fixture_findings):
        assert _lines(fixture_findings, "R15", "stats.py") == [9, 18]
        # A heap filled only through heapq.heappush is written too.
        assert _lines(fixture_findings, "R15", "timers.py") == [6]

    def test_r15_skips_cache_named_and_suppressed(self, fixture_findings):
        # _SHARE_CACHE (line 21) is R17's; _DEBUG_SINKS (15) and
        # RunningTotal._ids (86) carry justifications.
        lines = _lines(fixture_findings, "R15", "stats.py")
        for suppressed in (15, 21, 86):
            assert suppressed not in lines

    def test_r16_positives_both_directions(self, fixture_findings):
        assert _lines(fixture_findings, "R16", "hardware.py") == [24, 26]
        assert _lines(fixture_findings, "R16", "middleware.py") == [20, 22]

    def test_r16_suppressed_and_negatives(self, fixture_findings):
        assert 31 not in _lines(fixture_findings, "R16", "hardware.py")
        assert 26 not in _lines(fixture_findings, "R16", "middleware.py")
        # Shared-family orchestration mutating both sides: silent.
        assert not _at(fixture_findings, "R16", "clean.py")

    def test_r17_positives(self, fixture_findings):
        assert _lines(fixture_findings, "R17", "stats.py") == \
            [21, 43, 49, 67]

    def test_r17_sanctioned_patterns_silent(self, fixture_findings):
        lines = _lines(fixture_findings, "R17", "stats.py")
        assert 57 not in lines  # bounded lru_cache on a function
        assert 76 not in lines  # bounded lru_cache on frozen dataclass

    def test_r18_positives_and_negatives(self, fixture_findings):
        assert _lines(fixture_findings, "R18", "stats.py") == [83, 96]
        flagged = {f.message.split()[0]
                   for f in fixture_findings if f.code == "R18"}
        assert "MergeableTotal" not in flagged
        assert "InheritedTotal" not in flagged  # merge via base class
        assert "QuietLog" not in flagged        # suppressed

    def test_r19_positives(self, fixture_findings):
        assert _lines(fixture_findings, "R19", "hardware.py") == [28, 36]

    def test_r19_suppressed_and_shared_negatives(self, fixture_findings):
        assert 32 not in _lines(fixture_findings, "R19", "hardware.py")
        assert not _at(fixture_findings, "R19", "clean.py")

    def test_total_finding_count_is_pinned(self, fixture_findings):
        # Every positive above, nothing else: 3 R15 + 4 R16 + 4 R17 +
        # 2 R18 + 2 R19.
        assert len(fixture_findings) == 15


# -- the installed package is clean ----------------------------------------

class TestRepoIsClean:
    def test_src_repro_has_zero_unsuppressed_findings(self):
        assert analyze_paths([REPRO_PKG], shard_family()) == []


# -- inventory -------------------------------------------------------------

class TestInventory:
    def test_rendering_is_deterministic(self, fixture_model):
        assert render_inventory(fixture_model) == \
            render_inventory(fixture_model)

    def test_sections_and_statuses(self, fixture_model):
        text = render_inventory(fixture_model)
        assert "## Process-global mutable state (R15)" in text
        assert "## Process-wide caches (R17)" in text
        assert "## Shard-crossing edges (R16/R19)" in text
        assert "## Non-mergeable accumulators (R18)" in text
        # Suppressed positives appear as justified, open ones as OPEN.
        assert "OPEN" in text and "justified" in text

    def test_sanctioned_cache_listed_as_ok(self, fixture_model):
        text = render_inventory(fixture_model)
        assert "shardpkg.stats.CostTable.cost()" in text
        assert "frozen-dataclass method" in text

    def test_committed_repo_inventory_is_current(self, monkeypatch):
        # make lint regenerates docs/shard-safety.md; the
        # committed file must match a fresh rendering byte-for-byte.
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        committed = os.path.join(repo_root, "docs", "shard-safety.md")
        if not os.path.exists(committed):
            pytest.skip("inventory not generated yet")
        monkeypatch.chdir(repo_root)
        model = build_state_model([os.path.join(repo_root, "src",
                                                "repro")])
        rendered = render_inventory(model)
        with open(committed, encoding="utf-8") as handle:
            assert handle.read() == rendered


# -- registry, SARIF and CLI ----------------------------------------------

class TestIntegration:
    def test_registry_exposes_r15_to_r19_in_order(self):
        codes = [rule.code for rule in shard_family()]
        assert codes == ["R15", "R16", "R17", "R18", "R19"]

    def test_sarif_includes_shard_rules(self, fixture_findings):
        document = json.loads(render_sarif(fixture_findings,
                                           shard_family()))
        driver = document["runs"][0]["tool"]["driver"]
        assert [r["id"] for r in driver["rules"]] == \
            ["R15", "R16", "R17", "R18", "R19"]
        assert len(document["runs"][0]["results"]) == 15

    def test_cli_shard_flag(self, capsys):
        assert simlint_main(["--shard", FIXTURE]) == 1
        out = capsys.readouterr().out
        assert "simlint: 15 findings" in out

    def test_cli_shard_inventory_writes_file(self, tmp_path, capsys):
        target = tmp_path / "inventory.md"
        simlint_main(["--shard-inventory", str(target), FIXTURE])
        capsys.readouterr()
        assert target.read_text().startswith("# Shard-safety inventory")

    def test_cli_select_narrows_to_one_rule(self, capsys):
        assert simlint_main(["--shard", "--select", "R18", FIXTURE]) == 1
        out = capsys.readouterr().out
        assert "R18" in out and "R16" not in out

    def test_cli_list_rules_mentions_shard_rules(self, capsys):
        simlint_main(["--shard", "--list-rules"])
        out = capsys.readouterr().out
        for code in ("R15", "R16", "R17", "R18", "R19"):
            assert code in out
        # Once each, between the per-file rules, in code order.
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == ["R%d" % n for n in range(1, 11)] + \
            ["R%d" % n for n in range(15, 22)]
