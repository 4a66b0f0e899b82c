"""The simlint engine: findings, the rule registry, suppression, the driver.

The engine is deliberately self-contained (stdlib ``ast`` only) so it can
lint the simulation stack without importing it.  Every rule registers
with :func:`register` into one registry, whatever it reads:

* a per-file :class:`Rule` declares the AST node types it cares about
  (``interests``); the :class:`Analyzer` walks each module exactly once
  (:attr:`RuleContext.nodes`) and dispatches nodes to interested rules.
  Rules that need whole-module context (e.g. tracking which local names
  hold sets) implement :meth:`Rule.check_module` instead of — or in
  addition to — the per-node hook;
* a :class:`ProjectRule` names the whole-program model it reads
  (``model``: the taint engine, the shard-affinity model or the
  growth-dimension model) and implements
  :meth:`ProjectRule.check_project`.  The analyzer parses the tree once,
  builds each model the selected rules name once from that parse, and
  lints the per-file rules over the same trees.

A rule's docstring is its documentation card (``--explain``): the first
line is ``<code>: <summary>``, followed by ``Why it matters:``,
``Fix pattern:`` and ``Example:`` paragraphs.

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
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple, Type)

__all__ = [
    "Finding",
    "Rule",
    "ProjectRule",
    "RuleContext",
    "Analyzer",
    "register",
    "registered_rule_classes",
    "default_rules",
    "analyze_source",
    "analyze_paths",
    "python_files",
    "read_source",
    "walk_tree",
    "dotted_name",
    "is_self_attr",
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
        #: Every node of the module in ``ast.walk`` order and the
        #: child -> parent map, from the one walk :func:`walk_tree`
        #: keeps on the tree; rules read these instead of walking the
        #: module again.
        self.nodes, self.parents = walk_tree(tree)

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
        from repro.analysis.dataflow.symbols import has_own_yield

        return has_own_yield(func)

    def in_simulation_process(self, node: ast.AST) -> bool:
        """True when ``node`` sits inside a generator function."""
        func = self.enclosing_function(node)
        return func is not None and self.is_generator(func)


#: Attribute under which :func:`walk_tree` keeps a tree's walk.
_WALK_ATTR = "_simlint_walk"


def walk_tree(tree: ast.AST) -> Tuple[List[ast.AST],
                                      Dict[ast.AST, ast.AST]]:
    """``tree``'s nodes in ``ast.walk`` order and its child -> parent map.

    Built by one walk and kept on the tree node itself, so the per-file
    rules and the project models that need parents share it.
    """
    walk = getattr(tree, _WALK_ATTR, None)
    if walk is None:
        nodes: List[ast.AST] = [tree]
        parents: Dict[ast.AST, ast.AST] = {}
        for parent in nodes:
            for child in ast.iter_child_nodes(parent):
                parents[child] = parent
                nodes.append(child)
        walk = (nodes, parents)
        setattr(tree, _WALK_ATTR, walk)
    return walk


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


def is_self_attr(node: ast.AST) -> bool:
    """Is ``node`` an attribute read or write on ``self`` (``self.x``)?"""
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self")


def python_files(paths: Iterable[str]) -> List[str]:
    """Files and the ``.py`` files under directory trees, sorted walk."""
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
    return files


def read_source(path: str) -> str:
    """A source file's text, decoded as Python itself would."""
    with tokenize.open(path) as handle:
        return handle.read()


class Rule:
    """Base class for simlint rules (the plugin interface).

    Subclasses set ``code`` (stable "R<n>" identifier used in suppression
    comments and CI baselines), ``name`` (human slug) and either
    ``interests`` + :meth:`check` for per-node rules or
    :meth:`check_module` for whole-module analyses.  The class docstring
    is the rule's ``--explain`` card (see the module docstring).
    """

    code: str = "R0"
    name: str = "abstract-rule"
    #: The pass that runs the rule, as ``--explain`` names it.
    family: str = "per-file"
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

    def finding(self, path: str, node: ast.AST, message: str) -> Finding:
        """Build a Finding for ``node`` in ``path`` from this rule."""
        return Finding(path, getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0) + 1,
                       self.code, self.name, message)

    def __repr__(self) -> str:
        return "<Rule %s %s>" % (self.code, self.name)


class ProjectRule(Rule):
    """Base class for whole-program rules.

    Subclasses set ``model`` to the analysis they read — a class built
    from a :class:`~repro.analysis.dataflow.symbols.ProjectModel` by
    ``model(project)``, whose ``flag`` is the command-line switch that
    selects the rule's family — and implement :meth:`check_project`.
    """

    #: TaintEngine, ShardModel or ScaleModel.
    model: type

    @property
    def family(self) -> str:
        return self.model.flag

    def check_project(self, model) -> Iterator[Finding]:
        """Yield findings over one built ``model``."""
        return iter(())  # pragma: no cover


class ParseErrorRule(Rule):
    """E0: a file under analysis does not parse.

    Why it matters: Every pass needs an AST; a syntax error hides every
    other finding in the file, so it is reported as a finding itself
    rather than crashing the run.

    Fix pattern: Fix the syntax error.  E0 cannot be suppressed.

    Example: (not suppressible)
    """

    code = PARSE_ERROR
    name = "parse-error"
    family = "(always on)"

    def of(self, path: str, exc: SyntaxError) -> Finding:
        """The E0 finding for a file that raised ``exc``."""
        return Finding(path, exc.lineno or 1, (exc.offset or 0) + 1,
                       self.code, self.name,
                       "file does not parse: %s" % exc.msg)


#: Every registered rule class.  Populated only by the ``@register``
#: decorations when :mod:`repro.analysis` is imported, read-only
#: afterwards — identical in every process, so it cannot couple shards.
_REGISTRY: List[Type[Rule]] = []  # simlint: disable=R15  import-time registry, read-only after import


def register(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a Rule or ProjectRule subclass to simlint."""
    if not (isinstance(rule_class, type) and issubclass(rule_class, Rule)):
        raise TypeError("register() expects a Rule subclass, got %r"
                        % (rule_class,))
    if any(existing.code == rule_class.code for existing in _REGISTRY):
        raise ValueError("duplicate rule code %s" % rule_class.code)
    _REGISTRY.append(rule_class)
    return rule_class


def _code_order(code: str) -> Tuple[int, str]:
    return (len(code), code)  # R2 before R10


def registered_rule_classes() -> List[Type[Rule]]:
    """The registered classes, in code order (R2 before R10)."""
    return sorted(_REGISTRY, key=lambda cls: _code_order(cls.code))


def default_rules(families: Sequence[str] = ("per-file",)) -> List[Rule]:
    """Fresh instances of the registered rules of ``families``.

    A family is ``"per-file"`` or the flag of a project model
    (``"--deep"``, ``"--shard"``, ``"--scale"``).
    """
    rules = [cls() for cls in registered_rule_classes()]
    return [rule for rule in rules if rule.family in families]


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


def _unsuppressed(findings: Iterable[Finding],
                  sources: Mapping[str, str]) -> List[Finding]:
    """``findings`` minus those silenced by their file's comments."""
    comments: Dict[str, Tuple[Dict[int, Set[str]], Set[str]]] = {}
    kept: List[Finding] = []
    for finding in findings:
        if finding.path not in comments:
            comments[finding.path] = _parse_suppressions(
                sources.get(finding.path, ""))
        per_line, whole_file = comments[finding.path]
        identifiers = {finding.code.lower(), finding.name.lower()}
        if not (identifiers & whole_file
                or identifiers & per_line.get(finding.line, set())):
            kept.append(finding)
    return kept


def _key(finding: Finding) -> Tuple[str, int, int, str, str]:
    return (finding.path, finding.line, finding.col, finding.code,
            finding.message)


class Analyzer:
    """Runs a rule set over source text, files, or directory trees."""

    def __init__(self, rules: Optional[Iterable[Rule]] = None):
        if rules is None:
            rules = default_rules()
        ordered = sorted(rules, key=lambda rule: _code_order(rule.code))
        #: The per-file rules, in code order.
        self.rules: List[Rule] = [rule for rule in ordered
                                  if not isinstance(rule, ProjectRule)]
        self.project_rules: List[ProjectRule] = [
            rule for rule in ordered if isinstance(rule, ProjectRule)]
        #: Model class -> the model the last :meth:`analyze_paths` built.
        self.models: Dict[type, object] = {}
        self._dispatch: Dict[Type[ast.AST], List[Rule]] = {}
        for rule in self.rules:
            for node_type in rule.interests:
                self._dispatch.setdefault(node_type, []).append(rule)

    def _lint(self, path: str, source: str,
              tree: ast.Module) -> List[Finding]:
        """The per-file rules' raw findings on one parsed module."""
        ctx = RuleContext(path, source, tree)
        findings: List[Finding] = []
        for node in ctx.nodes:
            for rule in self._dispatch.get(type(node), ()):
                findings.extend(rule.check(node, ctx))
        for rule in self.rules:
            findings.extend(rule.check_module(tree, ctx))
        return findings

    def analyze_source(self, source: str,
                       path: str = "<string>") -> List[Finding]:
        """Lint one module's source text with the per-file rules."""
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [ParseErrorRule().of(path, exc)]
        findings = _unsuppressed(self._lint(path, source, tree),
                                 {path: source})
        findings.sort(key=lambda f: f.sort_key)
        return findings

    def analyze_paths(self, paths: Iterable[str],
                      models: Iterable[type] = ()) -> List[Finding]:
        """Run every rule over files and/or directory trees.

        When a project rule is selected, or ``models`` names a model to
        build anyway (an inventory renders it), the tree is parsed once
        into a ProjectModel, each model is built once from it and kept
        in :attr:`models`, and the per-file rules lint the same trees.
        A finding two rules report alike is kept once; the rest are
        filtered through their file's suppression comments and sorted.
        A file that does not parse yields one unsuppressible E0.
        """
        paths = list(paths)
        needed = list(dict.fromkeys(
            [rule.model for rule in self.project_rules] + list(models)))
        parsed: Dict[str, Tuple[str, ast.Module]] = {}
        errors: Dict[str, SyntaxError] = {}
        self.models = {}
        if needed:
            # Looked up on the module at call time so a caller can wrap
            # the one parse of the tree.
            from repro.analysis.dataflow import symbols

            project = symbols.build_project(paths)
            parsed = {module.path: (module.source, module.tree)
                      for module in project.modules.values()}
            errors = dict(project.parse_errors)
            for model in needed:
                self.models[model] = model(project)
        findings: List[Finding] = []
        if self.rules:
            for path in python_files(paths):
                if path not in parsed and path not in errors:
                    source = read_source(path)
                    try:
                        parsed[path] = (source,
                                        ast.parse(source, filename=path))
                    except SyntaxError as exc:
                        errors[path] = exc
                if path in parsed:
                    findings.extend(self._lint(path, *parsed[path]))
        seen = {_key(finding) for finding in findings}
        for rule in self.project_rules:
            for finding in rule.check_project(self.models[rule.model]):
                if _key(finding) not in seen:
                    seen.add(_key(finding))
                    findings.append(finding)
        sources = {path: source for path, (source, _) in parsed.items()}
        findings = _unsuppressed(findings, sources)
        findings.extend(ParseErrorRule().of(path, exc)
                        for path, exc in errors.items())
        findings.sort(key=lambda f: f.sort_key)
        return findings


def analyze_source(source: str, path: str = "<string>",
                   rules: Optional[Iterable[Rule]] = None) -> List[Finding]:
    """Convenience: lint source text with the default (or given) rules."""
    return Analyzer(rules).analyze_source(source, path=path)


def analyze_paths(paths: Iterable[str],
                  rules: Optional[Iterable[Rule]] = None) -> List[Finding]:
    """Convenience: lint paths with the default (or given) rules."""
    return Analyzer(rules).analyze_paths(paths)
