"""``--explain R<id>``: the cards rendered from rule docstrings."""

import pytest

from repro.analysis import default_rules
from repro.analysis.cli import explain_rule
from repro.analysis.cli import main as simlint_main

FAMILIES = ("per-file", "--deep", "--shard", "--scale")


def _active_rules():
    return default_rules(FAMILIES)


def all_rule_codes():
    return ["E0"] + [rule.code for rule in _active_rules()]


class TestCatalogue:
    def test_every_registered_rule_is_documented(self):
        # Cards render from docstrings; both spellings find the card.
        for rule in _active_rules():
            assert explain_rule(rule.code) == explain_rule(rule.name)

    def test_catalogue_covers_e0_through_r26(self):
        assert all_rule_codes() == ["E0"] + \
            ["R%d" % n for n in range(1, 27)]

    def test_documented_names_match_the_implementations(self):
        for rule in _active_rules():
            header = explain_rule(rule.code).splitlines()[0]
            assert header == "%s  %s  [%s pass]" % (rule.code, rule.name,
                                                    rule.family)
            assert rule.family in FAMILIES

    def test_every_doc_has_all_sections(self):
        for code in all_rule_codes():
            text = explain_rule(code)
            for heading in ("Summary:", "Why it matters:",
                            "Fix pattern:", "Suppression:",
                            "See: docs/static_analysis.md"):
                assert heading in text, (code, heading)


class TestLookup:
    def test_lookup_by_code_is_case_insensitive(self):
        assert explain_rule("r22") == explain_rule("R22")

    def test_lookup_by_name(self):
        assert explain_rule("unbounded-growth-container") == \
            explain_rule("R23")

    def test_header_names_code_name_and_pass(self):
        header = explain_rule("R25").splitlines()[0]
        assert "R25" in header and "per-event-allocation" in header
        assert "--scale pass" in header

    def test_unknown_rule_raises(self):
        with pytest.raises(KeyError):
            explain_rule("R99")


class TestCli:
    def test_explain_prints_and_exits_zero(self, capsys):
        assert simlint_main(["--explain", "R26"]) == 0
        out = capsys.readouterr().out
        assert "rebuild-in-hot-path" in out and "Fix pattern:" in out

    def test_explain_by_name(self, capsys):
        assert simlint_main(["--explain", "per-event-linear-scan"]) == 0
        assert "R22" in capsys.readouterr().out

    def test_explain_unknown_rule_exits_two(self, capsys):
        assert simlint_main(["--explain", "R99"]) == 2
        err = capsys.readouterr().err
        assert "unknown rule" in err and "--list-rules" in err

    def test_explain_wins_over_analysis_flags(self, capsys):
        # --explain short-circuits: no tree is analyzed.
        assert simlint_main(["--explain", "R1", "--scale",
                             "no/such/path"]) == 0
        assert "global-random" in capsys.readouterr().out
