"""The simlint engine: findings, rule plugins, suppression, the analyzer.

The engine is deliberately self-contained (stdlib ``ast`` only) so it can
lint the simulation stack without importing it.  A :class:`Rule` declares
the AST node types it cares about (``interests``); the :class:`Analyzer`
walks each module exactly once (:attr:`RuleContext.nodes`) and
dispatches nodes to interested rules.
Rules that need whole-module context (e.g. tracking which local names
hold sets) implement :meth:`Rule.check_module` instead of — or in
addition to — the per-node hook.

Suppression mirrors the classic lint idiom::

    self.rng = random.Random(0)  # simlint: disable=R1  calibration-only

disables the named rule(s) on that line only, and a line anywhere in the
file reading ``# simlint: disable-file=R2`` disables a rule for the whole
module.  Codes ("R1") and slugs ("global-random") are both accepted.
"""

from __future__ import annotations

import ast
import os
import re
import tokenize
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional, Set,
                    Tuple, Type)

__all__ = [
    "Finding",
    "Rule",
    "RuleContext",
    "Analyzer",
    "analyze_source",
    "analyze_paths",
    "dotted_name",
]

#: Rule code used for files that do not parse.
PARSE_ERROR = "E0"

_SUPPRESS_RE = re.compile(r"#\s*simlint:\s*disable=([\w\-,\s]+)")
_SUPPRESS_FILE_RE = re.compile(r"#\s*simlint:\s*disable-file=([\w\-,\s]+)")


class Finding:
    """One rule violation at one source location."""

    def __init__(self, path: str, line: int, col: int, code: str,
                 name: str, message: str):
        self.path = path
        self.line = line
        self.col = col
        self.code = code
        self.name = name
        self.message = message

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "name": self.name,
            "message": self.message,
        }

    def format(self) -> str:
        """The one-line text rendering the CLI prints."""
        return "%s:%d:%d: %s[%s] %s" % (self.path, self.line, self.col,
                                        self.code, self.name, self.message)

    def __repr__(self) -> str:
        return "<Finding %s %s:%d>" % (self.code, self.path, self.line)


class RuleContext:
    """Per-module facts shared by every rule while one file is analyzed."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        #: Every node of the module in ``ast.walk`` order, built by the
        #: one walk that also fills the parent map; rules read this list
        #: instead of walking the module again.
        self.nodes: List[ast.AST] = [tree]
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in self.nodes:
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
                self.nodes.append(child)
        self._generator_cache: Dict[ast.AST, bool] = {}  # simlint: disable=R23  one entry per function node in the analyzed file, freed with the context

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """The nearest FunctionDef/AsyncFunctionDef containing ``node``."""
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self.parents.get(current)
        return None

    def is_generator(self, func: ast.AST) -> bool:
        """True if ``func`` contains a yield of its own (a sim process)."""
        if func not in self._generator_cache:
            self._generator_cache[func] = _has_own_yield(func)
        return self._generator_cache[func]

    def in_simulation_process(self, node: ast.AST) -> bool:
        """True when ``node`` sits inside a generator function."""
        func = self.enclosing_function(node)
        return func is not None and self.is_generator(func)


def _has_own_yield(func: ast.AST) -> bool:
    """Does ``func`` yield, not counting nested function bodies?"""
    todo: List[ast.AST] = list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue  # a nested def's yields belong to the nested def
        todo.extend(ast.iter_child_nodes(node))
    return False


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, or None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class Rule:
    """Base class for simlint rules (the plugin interface).

    Subclasses set ``code`` (stable "R<n>" identifier used in suppression
    comments and CI baselines), ``name`` (human slug) and either
    ``interests`` + :meth:`check` for per-node rules or
    :meth:`check_module` for whole-module analyses.
    """

    code: str = "R0"
    name: str = "abstract-rule"
    #: AST node classes this rule wants to see (per-node dispatch).
    interests: Tuple[Type[ast.AST], ...] = ()

    def check(self, node: ast.AST,
              ctx: RuleContext) -> Iterator[Finding]:  # pragma: no cover
        """Yield findings for one node of an interested type."""
        return iter(())

    def check_module(self, tree: ast.Module,
                     ctx: RuleContext) -> Iterator[Finding]:
        """Yield findings needing whole-module context (default: none)."""
        return iter(())

    def finding(self, ctx: RuleContext, node: ast.AST,
                message: str) -> Finding:
        """Build a Finding for ``node`` attributed to this rule."""
        return Finding(ctx.path, getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0) + 1,
                       self.code, self.name, message)

    def __repr__(self) -> str:
        return "<Rule %s %s>" % (self.code, self.name)


def _parse_suppressions(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Map line number -> suppressed tokens, plus file-wide tokens."""
    per_line: Dict[int, Set[str]] = {}
    whole_file: Set[str] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_FILE_RE.search(line)
        if match:
            whole_file.update(_tokens(match.group(1)))
            continue
        match = _SUPPRESS_RE.search(line)
        if match:
            per_line.setdefault(lineno, set()).update(_tokens(match.group(1)))
    return per_line, whole_file


def _tokens(spec: str) -> Set[str]:
    # "R1, R4  justifying comment" -> {"r1", "r4"}: the first word of
    # each comma-separated chunk is the code; the rest is prose.
    return {token.split()[0].lower() for token in spec.split(",")
            if token.split()}


class Analyzer:
    """Runs a rule set over source text, files, or directory trees."""

    def __init__(self, rules: Optional[Iterable[Rule]] = None):
        if rules is None:
            from repro.analysis.rules import default_rules
            rules = default_rules()
        self.rules: List[Rule] = sorted(rules, key=lambda rule: rule.code)
        self._dispatch: Dict[Type[ast.AST], List[Rule]] = {}
        for rule in self.rules:
            for node_type in rule.interests:
                self._dispatch.setdefault(node_type, []).append(rule)

    # -- single module -------------------------------------------------------

    def analyze_source(self, source: str, path: str = "<string>",
                       tree: Optional[ast.Module] = None) -> List[Finding]:
        """Lint one module's source text (``tree``: its parse, if known)."""
        if tree is None:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as exc:
                return [Finding(path, exc.lineno or 1,
                                (exc.offset or 0) + 1, PARSE_ERROR,
                                "parse-error",
                                "file does not parse: %s" % exc.msg)]
        ctx = RuleContext(path, source, tree)
        findings: List[Finding] = []
        for node in ctx.nodes:
            for rule in self._dispatch.get(type(node), ()):
                findings.extend(rule.check(node, ctx))
        for rule in self.rules:
            findings.extend(rule.check_module(tree, ctx))
        per_line, whole_file = _parse_suppressions(source)
        findings = [f for f in findings
                    if not _suppressed(f, per_line, whole_file)]
        findings.sort(key=lambda f: f.sort_key)
        return findings

    def analyze_file(self, path: str) -> List[Finding]:
        """Lint one file on disk."""
        with tokenize.open(path) as handle:
            source = handle.read()
        return self.analyze_source(source, path=path)

    # -- trees ---------------------------------------------------------------

    def analyze_paths(self, paths: Iterable[str],
                      parsed: Optional[Mapping[str, Tuple[str, ast.Module]]]
                      = None) -> List[Finding]:
        """Lint files and/or directory trees (``.py`` files, sorted walk).

        ``parsed`` maps a file path to its ``(source, tree)`` when
        another pass has already read and parsed it; those files are
        linted from that tree instead of being parsed again.
        """
        parsed = parsed or {}
        files: List[str] = []
        for path in paths:
            if os.path.isdir(path):
                for directory, dirnames, filenames in os.walk(path):
                    dirnames.sort()
                    files.extend(os.path.join(directory, filename)
                                 for filename in sorted(filenames)
                                 if filename.endswith(".py"))
            else:
                files.append(path)
        findings: List[Finding] = []
        for path in files:
            if path in parsed:
                source, tree = parsed[path]
                findings.extend(self.analyze_source(source, path, tree))
            else:
                findings.extend(self.analyze_file(path))
        findings.sort(key=lambda f: f.sort_key)
        return findings


def _suppressed(finding: Finding, per_line: Dict[int, Set[str]],
                whole_file: Set[str]) -> bool:
    identifiers = {finding.code.lower(), finding.name.lower()}
    if identifiers & whole_file:
        return True
    return bool(identifiers & per_line.get(finding.line, set()))


def analyze_source(source: str, path: str = "<string>",
                   rules: Optional[Iterable[Rule]] = None) -> List[Finding]:
    """Convenience: lint source text with the default (or given) rules."""
    return Analyzer(rules).analyze_source(source, path=path)


def analyze_paths(paths: Iterable[str],
                  rules: Optional[Iterable[Rule]] = None) -> List[Finding]:
    """Convenience: lint paths with the default (or given) rules."""
    return Analyzer(rules).analyze_paths(paths)
