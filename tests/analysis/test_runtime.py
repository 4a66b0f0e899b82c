"""The analysis-runtime guard: the full gate must stay fast.

``make check`` runs every pass on every invocation; if the combined
``--deep --shard --scale`` gate creeps past a few seconds, developers
stop running it.  The CLI shares one parsed project model across the
three project passes, and every pass shares one node list per scope —
the wall-clock test pins the result, the structural tests pin the
properties themselves so a regression fails on any machine.
"""

import ast
import os
import time

import repro
from repro.analysis.cli import main as simlint_main

REPRO_PKG = os.path.dirname(os.path.abspath(repro.__file__))

#: Generous ceiling: the combined pass runs in ~4s on the reference
#: container; before the shared-project-model change it took ~5.5s.
BUDGET_SECONDS = 5.0


def test_full_gate_over_src_repro_stays_under_budget(capsys):
    started = time.monotonic()
    status = simlint_main(["--deep", "--shard", "--scale", REPRO_PKG])
    elapsed = time.monotonic() - started
    out = capsys.readouterr().out
    assert status == 0 and "simlint: 0 findings" in out
    assert elapsed < BUDGET_SECONDS, \
        "--deep --shard --scale took %.2fs (budget %.1fs)" \
        % (elapsed, BUDGET_SECONDS)


def test_shared_project_model_is_reused(monkeypatch):
    # The three project passes must parse the tree exactly once.
    import repro.analysis.cli as cli
    from repro.analysis.dataflow import symbols

    calls = []
    real = symbols.build_project

    def counting(paths):
        calls.append(list(paths))
        return real(paths)

    monkeypatch.setattr(symbols, "build_project", counting)
    fixture = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fixtures", "scalepkg")
    cli.main(["--deep", "--shard", "--scale", "--disable",
              "R8,R9", fixture])
    assert len(calls) == 1


def _reference_own_nodes(scope):
    """The plain non-descending walk the shared ``own_nodes`` memoises."""
    found = []
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        found.append(node)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def test_own_nodes_walks_each_scope_once(monkeypatch):
    # Every pass reads a scope's nodes through ``own_nodes``; it must
    # give the reference walk's nodes in the same order, and a repeat
    # request for the same scope must not walk the tree again.
    from repro.analysis.dataflow.callgraph import own_nodes
    from repro.analysis.dataflow.symbols import build_project

    fixture = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "fixtures", "taintpkg")
    project = build_project([fixture])
    scopes = []
    for name in sorted(project.modules):
        tree = project.modules[name].tree
        scopes.extend(node for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.FunctionDef,
                                           ast.AsyncFunctionDef,
                                           ast.Lambda, ast.ClassDef)))
    assert len(scopes) > len(project.modules)
    for scope in scopes:
        nodes = own_nodes(scope)
        assert isinstance(nodes, tuple)
        assert list(nodes) == _reference_own_nodes(scope)

    walked = []
    real = ast.iter_child_nodes

    def counting(node):
        walked.append(node)
        return real(node)

    monkeypatch.setattr(ast, "iter_child_nodes", counting)
    for scope in scopes:
        own_nodes(scope)
    assert walked == []
