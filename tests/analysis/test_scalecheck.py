"""The growth-dimension pass: model, rules R22-R26, inventory, CLI."""

import json
import os

import pytest

import repro
from repro.analysis import analyze_paths, default_rules
from repro.analysis.cli import main as simlint_main
from repro.analysis.sarif import render_sarif
from repro.analysis.scale.inventory import render_inventory
from repro.analysis.state import (
    BOUNDED,
    PER_HOST,
    PER_SITE,
    POPULATION,
    build_state_model,
    dim_order,
)

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "fixtures", "scalepkg")
REPRO_PKG = os.path.dirname(os.path.abspath(repro.__file__))


def scale_family():
    return default_rules(("--scale",))


@pytest.fixture(scope="module")
def fixture_model():
    return build_state_model([FIXTURE])


@pytest.fixture(scope="module")
def fixture_findings():
    return analyze_paths([FIXTURE], scale_family())


def _at(findings, code, filename):
    return [(f.line, f.col) for f in findings
            if f.code == code and f.path.endswith(filename)]


def _lines(findings, code, filename):
    return [line for line, _col in _at(findings, code, filename)]


def _collection(model, owner, name):
    return model.locations[(owner, name)]


# -- the lattice -----------------------------------------------------------

class TestLattice:
    def test_dimensions_are_totally_ordered(self):
        assert dim_order(BOUNDED) < dim_order(PER_HOST) \
            < dim_order(PER_SITE) < dim_order(POPULATION)

    def test_population_is_the_per_session_dimension(self):
        assert POPULATION == "per-session"


# -- the model -------------------------------------------------------------

class TestModel:
    def test_name_and_payload_promote_to_population(self, fixture_model):
        coll = _collection(fixture_model,
                           "scalepkg.sessions.Frontend", "sessions")
        assert coll.dimension == POPULATION and coll.kind == "list"

    def test_host_and_site_names_stay_below_population(
            self, fixture_model):
        registry = "scalepkg.registry.Registry"
        assert _collection(fixture_model, registry,
                           "hosts").dimension == PER_HOST
        assert _collection(fixture_model, registry,
                           "sites").dimension == PER_SITE

    def test_config_table_without_growth_is_bounded(self, fixture_model):
        coll = _collection(fixture_model,
                           "scalepkg.registry.Registry", "_units")
        assert coll.dimension == BOUNDED and not coll.grows

    def test_hot_growth_without_eviction_promotes(self, fixture_model):
        # ``entries`` has no population-shaped name or payload; growing
        # per event with no shrink anywhere is what promotes it.
        coll = _collection(fixture_model,
                           "scalepkg.registry.Ledger", "entries")
        assert coll.dimension == POPULATION
        assert "no eviction" in coll.why

    def test_bounded_deque_ring_is_not_tracked(self, fixture_model):
        assert ("scalepkg.registry.Window",
                "recent_sessions") not in fixture_model.locations

    def test_swap_drain_reinit_counts_as_shrink(self, fixture_model):
        coll = _collection(fixture_model,
                           "scalepkg.sessions.Frontend", "batch")
        assert [s.kind for s in coll.shrinks] == ["reset"]

    def test_full_slice_store_counts_as_prune(self, fixture_model):
        coll = _collection(fixture_model,
                           "scalepkg.sessions.Frontend", "finished")
        assert "prune" in [s.kind for s in coll.shrinks]

    def test_eviction_in_nested_def_is_seen(self, fixture_model):
        coll = _collection(fixture_model,
                           "scalepkg.registry.Spool", "pending_jobs")
        assert [s.kind for s in coll.shrinks] == ["pop"]
        assert coll.shrinks[0].function.name == "fetch"

    def test_heap_push_and_pop_are_grow_and_shrink(self, fixture_model):
        coll = _collection(fixture_model,
                           "scalepkg.kernel.Simulation", "_queue")
        assert [s.kind for s in coll.grows] == ["heappush"]
        assert [s.kind for s in coll.shrinks] == ["heappop"]
        assert coll.dimension == BOUNDED

    def test_generators_and_drains_seed_the_hot_set(self, fixture_model):
        hot = fixture_model.hot
        assert hot["scalepkg.sessions.Frontend.submit"] \
            == "simulation process (generator)"
        assert hot["scalepkg.kernel.Simulation.step"] \
            == "kernel drain method"
        assert "scalepkg.kernel.FastSimulation.step" \
            in fixture_model.kernel_hot  # subclass inherits the drain

    def test_name_based_closure_reaches_called_methods(
            self, fixture_model):
        reason = fixture_model.hot["scalepkg.sessions.Frontend.lookup"]
        assert "scalepkg.sessions.Frontend.drive" in reason
        assert "scalepkg.sessions.Frontend.audit" not in \
            fixture_model.hot


# -- the rules over the fixture --------------------------------------------

class TestRulesOnFixture:
    def test_r22_positives(self, fixture_findings):
        assert _lines(fixture_findings, "R22", "sessions.py") == [40, 47]

    def test_r22_cold_scan_and_sub_population_scan_silent(
            self, fixture_findings):
        # audit() is cold; broadcast() iterates per-host state.
        lines = _lines(fixture_findings, "R22", "sessions.py")
        assert 51 not in lines
        assert not _at(fixture_findings, "R22", "registry.py")

    def test_r23_positives(self, fixture_findings):
        assert _lines(fixture_findings, "R23", "sessions.py") == [3, 16]
        assert _lines(fixture_findings, "R23", "registry.py") == [42]

    def test_r23_evicted_and_suppressed_silent(self, fixture_findings):
        lines = _lines(fixture_findings, "R23", "sessions.py")
        # outcomes (17) is suppressed; finished (18) has remove/prune;
        # batch (19) has the swap-drain re-init; _by_name (21) has pop.
        for silent in (17, 18, 19, 21):
            assert silent not in lines
        # pending_jobs' eviction lives in a nested def (registry.py:55).
        assert _lines(fixture_findings, "R23", "registry.py") == [42]

    def test_r24_positives(self, fixture_findings):
        assert _lines(fixture_findings, "R24", "sessions.py") == [61, 75]

    def test_r24_dict_probe_and_suppressed_silent(self, fixture_findings):
        lines = _lines(fixture_findings, "R24", "sessions.py")
        assert 63 not in lines  # dict membership is O(1)
        assert 69 not in lines  # suppressed teardown probe

    def test_r25_positive_groups_sites_per_function(
            self, fixture_findings):
        findings = [f for f in fixture_findings if f.code == "R25"]
        assert _lines(fixture_findings, "R25", "kernel.py") == [21]
        assert "1 more site(s)" in findings[0].message

    def test_r25_hoisted_and_suppressed_silent(self, fixture_findings):
        lines = _lines(fixture_findings, "R25", "kernel.py")
        assert 18 not in lines  # hoisted out of the loop
        assert 33 not in lines  # suppressed in FastSimulation.step

    def test_r26_positive(self, fixture_findings):
        assert _lines(fixture_findings, "R26", "sessions.py") == [88]

    def test_r26_guarded_and_suppressed_silent(self, fixture_findings):
        lines = _lines(fixture_findings, "R26", "sessions.py")
        assert 90 not in lines  # behind ``if ... is None``
        assert 91 not in lines  # suppressed

    def test_total_finding_count_is_pinned(self, fixture_findings):
        # Every positive above, nothing else: 2 R22 + 3 R23 + 2 R24 +
        # 1 R25 + 1 R26.
        assert len(fixture_findings) == 9


# -- the installed package is clean ----------------------------------------

class TestRepoIsClean:
    def test_src_repro_has_zero_unsuppressed_findings(self):
        assert analyze_paths([REPRO_PKG], scale_family()) == []


# -- inventory -------------------------------------------------------------

class TestInventory:
    def test_rendering_is_deterministic(self, fixture_model):
        assert render_inventory(fixture_model) == \
            render_inventory(fixture_model)

    def test_sections_and_statuses(self, fixture_model):
        text = render_inventory(fixture_model)
        assert "## Growth dimensions" in text
        assert "## Collections that scale with the scenario" in text
        for code in ("R22", "R23", "R24", "R25", "R26"):
            assert "(%s)" % code in text
        # Suppressed positives appear as justified, open ones as OPEN.
        assert "OPEN" in text and "justified" in text

    def test_dimension_rows_carry_provenance(self, fixture_model):
        text = render_inventory(fixture_model)
        assert "`Frontend.sessions`" in text
        assert "per-session" in text and "per-host" in text

    def test_committed_repo_inventory_is_current(self, monkeypatch):
        # make lint regenerates docs/scale-readiness.md; the
        # committed file must match a fresh rendering byte-for-byte.
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        committed = os.path.join(repo_root, "docs", "scale-readiness.md")
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
    def test_registry_exposes_r22_to_r26_in_order(self):
        codes = [rule.code for rule in scale_family()]
        assert codes == ["R22", "R23", "R24", "R25", "R26"]

    def test_sarif_includes_scale_rules(self, fixture_findings):
        document = json.loads(render_sarif(fixture_findings,
                                           scale_family()))
        driver = document["runs"][0]["tool"]["driver"]
        assert [r["id"] for r in driver["rules"]] == \
            ["R22", "R23", "R24", "R25", "R26"]
        assert len(document["runs"][0]["results"]) == 9

    def test_cli_scale_flag(self, capsys):
        assert simlint_main(["--scale", FIXTURE]) == 1
        out = capsys.readouterr().out
        assert "simlint: 9 findings" in out

    def test_cli_scale_inventory_writes_file(self, tmp_path, capsys):
        target = tmp_path / "inventory.md"
        simlint_main(["--scale-inventory", str(target), FIXTURE])
        capsys.readouterr()
        assert target.read_text().startswith(
            "# Scale-readiness inventory")

    def test_cli_select_narrows_to_one_rule(self, capsys):
        assert simlint_main(["--scale", "--select", "R23", FIXTURE]) == 1
        out = capsys.readouterr().out
        assert "R23" in out and "R24" not in out

    def test_cli_list_rules_mentions_scale_rules(self, capsys):
        simlint_main(["--scale", "--list-rules"])
        out = capsys.readouterr().out
        for code in ("R22", "R23", "R24", "R25", "R26"):
            assert code in out
        # Once each, after the per-file rules, in code order.
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == ["R%d" % n for n in range(1, 11)] + \
            ["R%d" % n for n in range(20, 27)]
