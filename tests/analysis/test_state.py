"""The state model the shard and scale rules share: one location table,
one access-site walk, and where the two families resolve a receiver
differently."""

import textwrap

from repro.analysis.state import (
    GLOBAL,
    LOCAL,
    build_state_model,
    container_kind,
)

SOURCE = '''\
import collections
import heapq

sessions = []
_QUEUE = []
_RING = collections.deque(maxlen=8)
_INDEX = {}


class Registry:
    entries = []


def local_shadow(x):
    sessions = []
    sessions.append(x)
    yield x


def through_alias(x):
    q = _QUEUE
    q.append(x)
    yield x


def through_wrapper(k, x):
    _INDEX.get(k, []).append(x)
    yield x


def through_class(x):
    Registry.entries.append(x)


def heap_push(x):
    heapq.heappush(_QUEUE, x)


def nested_writer(x):
    def later():
        for item in _INDEX:
            _INDEX[item] = x
    return later
'''


def _model(tmp_path):
    path = tmp_path / "demo.py"
    path.write_text(SOURCE)
    return build_state_model([str(path)])


def _kinds(sites):
    return sorted(site.kind for site in sites)


def test_one_table_holds_module_class_and_ring_locations(tmp_path):
    model = _model(tmp_path)
    assert model.locations[("demo", "Registry.entries")].scope == "class"
    ring = model.locations[("demo", "_RING")]
    assert ring.kind == "ring" and not ring.growable
    assert [loc.name for loc in model.sorted_collections()] == \
        ["_INDEX", "_QUEUE", "sessions"]


def test_a_local_shadows_a_global_for_both_families(tmp_path):
    # A function's own ``sessions = []`` is a new list: neither family
    # counts its append as a write or growth of the module-level name.
    sessions = _model(tmp_path).locations[("demo", "sessions")]
    assert sessions.mutations == [] and sessions.affinity == LOCAL
    assert sessions.grows == []


def test_aliases_and_wrappers_reach_scale_only(tmp_path):
    model = _model(tmp_path)
    queue = model.locations[("demo", "_QUEUE")]
    assert _kinds(queue.grows) == ["append", "heappush"]
    # A heap push is a write for both families; the alias's is not.
    assert _kinds(queue.mutations) == ["heappush"]
    index = model.locations[("demo", "_INDEX")]
    assert "append" in _kinds(index.grows)
    assert "append" not in _kinds(index.mutations)


def test_class_attribute_paths_reach_shard_only(tmp_path):
    entries = _model(tmp_path).locations[("demo", "Registry.entries")]
    assert _kinds(entries.mutations) == ["append"]
    assert entries.affinity == GLOBAL and entries.grows == []


def test_nested_defs_are_walked_with_their_own_loops(tmp_path):
    index = _model(tmp_path).locations[("demo", "_INDEX")]
    store = [site for site in index.sites if site.kind == "store"]
    assert len(store) == 1 and store[0].shard and store[0].scale
    assert store[0].in_loop
    assert store[0].function.name == "nested_writer"
    scan = index.scans
    assert len(scan) == 1 and not scan[0].in_loop


def test_container_kind_is_one_classifier(tmp_path):
    import ast

    from repro.analysis.dataflow.symbols import build_project

    path = tmp_path / "kinds.py"
    path.write_text("import itertools\n")
    project = build_project([str(path)])
    module = project.modules["kinds"]

    def kind(expr):
        return container_kind(project, module,
                              ast.parse(textwrap.dedent(expr)).body[0].value)

    assert kind("{}") == "dict" and kind("[x for x in y]") == "list"
    assert kind("itertools.count()") == "counter"
    assert kind("collections.deque(maxlen=None)") == "deque"
    assert kind("collections.deque(maxlen=4)") == "ring"
    assert kind("3") is None
