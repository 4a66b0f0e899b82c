"""Per-rule simlint tests: a snippet that fires, one that stays clean,
and the ``# simlint: disable=`` suppression path for every rule."""

import pytest

from repro.analysis import analyze_source


def codes(source):
    """The rule codes simlint reports for a snippet."""
    return [finding.code for finding in analyze_source(source)]


def assert_fires(source, code):
    found = codes(source)
    assert code in found, "expected %s in %r" % (code, found)


def assert_clean(source):
    assert codes(source) == []


# -- R1: global-random -------------------------------------------------------

def test_r1_global_module_call_fires():
    assert_fires("import random\nx = random.uniform(0, 1)\n", "R1")


def test_r1_literal_seed_fires():
    assert_fires("import random\nrng = random.Random(0)\n", "R1")


def test_r1_unseeded_fires():
    assert_fires("import random\nrng = random.Random()\n", "R1")


def test_r1_from_import_fires():
    assert_fires("from random import choice\n", "R1")


def test_r1_injected_stream_clean():
    assert_clean("def f(streams):\n"
                 "    rng = streams.stream('disk')\n"
                 "    return rng.uniform(0, 1)\n")


def test_r1_derived_seed_clean():
    # A non-literal seed (the RandomStreams pattern) is acceptable.
    assert_clean("import random\n"
                 "def derive(name):\n"
                 "    return len(name)\n"
                 "rng = random.Random(derive('disk'))\n")


def test_r1_annotation_clean():
    assert_clean("import random\n"
                 "def f(rng: random.Random) -> None:\n"
                 "    pass\n")


def test_r1_suppression():
    assert_clean("import random\n"
                 "rng = random.Random(0)  # simlint: disable=R1  calib\n")


# -- R2: wall-clock ----------------------------------------------------------

def test_r2_time_time_fires():
    assert_fires("import time\nstart = time.time()\n", "R2")


def test_r2_perf_counter_fires():
    assert_fires("import time\nstart = time.perf_counter()\n", "R2")


def test_r2_datetime_now_fires():
    assert_fires("import datetime\nnow = datetime.datetime.now()\n", "R2")


def test_r2_sim_now_clean():
    assert_clean("def f(sim):\n    return sim.now\n")


def test_r2_suppression_by_name():
    assert_clean("import time\n"
                 "t0 = time.time()  # simlint: disable=wall-clock\n")


# -- R3: set-iteration -------------------------------------------------------

def test_r3_direct_set_literal_fires():
    assert_fires("for x in {1, 2, 3}:\n    print(x)\n", "R3")


def test_r3_set_call_fires():
    assert_fires("for x in set([1, 2]):\n    print(x)\n", "R3")


def test_r3_list_wrapper_still_fires():
    assert_fires("for x in list(set([1, 2])):\n    print(x)\n", "R3")


def test_r3_local_name_propagation_fires():
    assert_fires("def f(items):\n"
                 "    pending = set(items)\n"
                 "    for x in pending:\n"
                 "        print(x)\n", "R3")


def test_r3_self_attribute_propagation_fires():
    assert_fires("class Engine:\n"
                 "    def __init__(self):\n"
                 "        self.active = set()\n"
                 "    def drain(self):\n"
                 "        for x in self.active:\n"
                 "            print(x)\n", "R3")


def test_r3_comprehension_over_set_fires():
    assert_fires("xs = [x for x in {1, 2, 3}]\n", "R3")


def test_r3_sorted_clean():
    assert_clean("def f(items, handle):\n"
                 "    pending = set(items)\n"
                 "    for x in sorted(pending):\n"
                 "        handle(x)\n")


def test_r3_list_iteration_clean():
    assert_clean("def f(handle):\n"
                 "    for x in [1, 2, 3]:\n"
                 "        handle(x)\n")


def test_r3_membership_clean():
    assert_clean("def f(items, x):\n"
                 "    seen = set(items)\n"
                 "    return x in seen\n")


def test_r3_suppression():
    assert_clean("def f(handle):\n"
                 "    for x in {1, 2}:  # simlint: disable=R3\n"
                 "        handle(x)\n")


# -- R4: lost-event ----------------------------------------------------------

def test_r4_discarded_timeout_fires():
    assert_fires("def proc(sim):\n"
                 "    sim.timeout(1.0)\n"
                 "    yield sim.timeout(2.0)\n", "R4")


def test_r4_discarded_event_fires():
    assert_fires("def f(sim):\n    sim.event()\n", "R4")


def test_r4_discarded_constructor_fires():
    assert_fires("def f(sim):\n    Timeout(sim, 1.0)\n", "R4")


def test_r4_yielded_clean():
    assert_clean("def proc(sim):\n    yield sim.timeout(1.0)\n")


def test_r4_stored_clean():
    assert_clean("def f(sim):\n"
                 "    done = sim.event()\n"
                 "    return done\n")


def test_r4_suppression():
    assert_clean("def f(sim):\n"
                 "    sim.event()  # simlint: disable=R4\n")


# -- R5: blocking-call -------------------------------------------------------

def test_r5_sleep_in_generator_fires():
    assert_fires("import time\n"
                 "def proc(sim):\n"
                 "    time.sleep(1)\n"
                 "    yield sim.timeout(1.0)\n", "R5")


def test_r5_bare_sleep_in_generator_fires():
    assert_fires("from time import sleep\n"
                 "def proc(sim):\n"
                 "    sleep(1)\n"
                 "    yield sim.timeout(1.0)\n", "R5")


def test_r5_sleep_outside_generator_clean():
    # Harness code may block; only sim processes are constrained.
    assert_clean("import time\n"
                 "def harness():\n"
                 "    time.sleep(1)\n")


def test_r5_suppression():
    assert_clean("import time\n"
                 "def proc(sim):\n"
                 "    time.sleep(1)  # simlint: disable=R5\n"
                 "    yield sim.timeout(1.0)\n")


# -- R6: float-time-eq -------------------------------------------------------

def test_r6_now_equality_fires():
    assert_fires("def f(sim, deadline):\n"
                 "    return sim.now == deadline\n", "R6")


def test_r6_time_suffix_fires():
    assert_fires("def f(a, b):\n"
                 "    return a.start_time != b.start_time\n", "R6")


def test_r6_inequality_clean():
    assert_clean("def f(sim, deadline):\n"
                 "    return sim.now >= deadline\n")


def test_r6_none_check_clean():
    assert_clean("def f(job):\n"
                 "    return job.completed_at == None\n")


def test_r6_suppression():
    assert_clean("def f(sim, t_end):\n"
                 "    return sim.now == t_end  # simlint: disable=R6\n")


# -- R7: mutable-default -----------------------------------------------------

def test_r7_list_default_fires():
    assert_fires("def f(xs=[]):\n    return xs\n", "R7")


def test_r7_dict_default_fires():
    assert_fires("def f(*, table={}):\n    return table\n", "R7")


def test_r7_call_default_fires():
    assert_fires("def f(seen=set()):\n    return seen\n", "R7")


def test_r7_none_default_clean():
    assert_clean("def f(xs=None):\n    return xs or []\n")


def test_r7_suppression():
    assert_clean("def f(xs=[]):  # simlint: disable=R7\n"
                 "    return xs\n")


# -- R8: heap-key ------------------------------------------------------------

def test_r8_pair_with_payload_fires():
    assert_fires("import heapq\n"
                 "def push(q, when, event):\n"
                 "    heapq.heappush(q, (when, event))\n", "R8")


def test_r8_bare_object_push_fires():
    assert_fires("import heapq\n"
                 "def push(q, when):\n"
                 "    heapq.heappush(q, Item(when))\n", "R8")


def test_r8_counter_tiebreak_clean():
    assert_clean("import heapq\n"
                 "def push(q, when, count, event):\n"
                 "    heapq.heappush(q, (when, count, event))\n")


def test_r8_scalar_pair_clean():
    assert_clean("import heapq\n"
                 "def push(q, when):\n"
                 "    heapq.heappush(q, (when, 0))\n")


def test_r8_suppression():
    assert_clean("import heapq\n"
                 "def push(q, when, event):\n"
                 "    heapq.heappush(q, (when, event))"
                 "  # simlint: disable=R8\n")


# -- R9: bare-print ----------------------------------------------------------

def test_r9_print_in_model_code_fires():
    assert_fires("def report(sim):\n"
                 "    print('done at', sim.now)\n", "R9")


def test_r9_module_level_print_fires():
    assert_fires("print('loading')\n", "R9")


def test_r9_cli_module_exempt():
    source = "def main():\n    print('table')\n"
    assert analyze_source(source, path="src/repro/cli.py") == []
    assert analyze_source(source, path="src/repro/analysis/cli.py") == []


def test_r9_reporting_module_exempt():
    assert analyze_source("print('x')\n",
                          path="src/repro/core/reporting.py") == []


def test_r9_method_named_print_clean():
    # Only the builtin matters; attribute calls are someone's API.
    assert_clean("def f(doc):\n    doc.print()\n")


def test_r9_suppression():
    assert_clean("def debug(sim):\n"
                 "    print(sim.now)  # simlint: disable=R9\n")


# -- R10: pool-size ----------------------------------------------------------

def test_r10_os_cpu_count_fires():
    assert_fires("import os\nworkers = os.cpu_count()\n", "R10")


def test_r10_multiprocessing_cpu_count_fires():
    assert_fires("import multiprocessing\n"
                 "n = multiprocessing.cpu_count()\n", "R10")


def test_r10_getpid_fires():
    assert_fires("import os\nstamp = os.getpid()\n", "R10")


def test_r10_aliased_cpu_count_fires():
    # The final attribute alone is damning however the module is bound.
    assert_fires("import multiprocessing as mp\nn = mp.cpu_count()\n",
                 "R10")


def test_r10_seed_from_worker_count_fires():
    assert_fires("def seeds(streams, workers):\n"
                 "    return streams.spawn_key('rep/%d' % workers)\n",
                 "R10")


def test_r10_seed_from_worker_id_keyword_fires():
    assert_fires("from repro.simulation.randomness import RandomStreams\n"
                 "def make(worker_id):\n"
                 "    return RandomStreams(seed=worker_id)\n", "R10")


def test_r10_seed_from_identity_call_fires():
    assert_fires("import os, random\n"
                 "rng = random.Random(os.getpid())\n", "R10")


def test_r10_seed_from_replication_index_clean():
    # The sanctioned pattern: root seed + replication index only.
    assert_clean("def seeds(streams, count):\n"
                 "    return [streams.spawn_key('rep/%d' % index)\n"
                 "            for index in range(count)]\n")


def test_r10_workers_outside_seeding_clean():
    # Passing a worker count to the harness is the whole point; only
    # identity reads and pool-derived seeds are flagged.
    assert_clean("def fan_out(run, tasks, workers):\n"
                 "    return run(tasks, workers=workers)\n")


def test_r10_suppression():
    assert_clean("import os\n"
                 "n = os.cpu_count()"
                 "  # simlint: disable=R10  harness-side pool sizing\n")


# -- engine behaviour --------------------------------------------------------

def test_file_level_suppression():
    assert_clean("# simlint: disable-file=R1\n"
                 "import random\n"
                 "a = random.Random(0)\n"
                 "b = random.Random(1)\n")


def test_suppression_only_hits_its_line():
    source = ("import random\n"
              "a = random.Random(0)  # simlint: disable=R1\n"
              "b = random.Random(1)\n")
    assert codes(source) == ["R1"]


def test_multiple_codes_in_one_comment():
    assert_clean("import random, heapq\n"
                 "def f(q, when, event):\n"
                 "    heapq.heappush(q, (random.random(), event))"
                 "  # simlint: disable=R1, R8\n")


def test_syntax_error_reported_as_finding():
    findings = analyze_source("def broken(:\n")
    assert [f.code for f in findings] == ["E0"]


def test_findings_are_sorted_and_located():
    source = ("import random\n"
              "b = random.Random(1)\n"
              "a = random.Random(0)\n")
    findings = analyze_source(source, path="mod.py")
    assert [f.line for f in findings] == [2, 3]
    assert all(f.path == "mod.py" for f in findings)
    assert "mod.py:2:" in findings[0].format()


def test_register_rejects_duplicate_codes():
    from repro.analysis import Rule, register

    class Duplicate(Rule):
        code = "R1"
        name = "dup"

    with pytest.raises(ValueError):
        register(Duplicate)


@pytest.mark.parametrize("project, code", [
    (False, "R11"), (False, "R15"), (False, "R22"), (True, "R1")])
def test_register_rejects_codes_taken_by_any_family(project, code):
    # One registry: no rule may reuse a code that any family holds.
    from repro.analysis import ProjectRule, Rule, register

    base = ProjectRule if project else Rule
    duplicate = type("Duplicate", (base,), {"code": code, "name": "dup"})
    with pytest.raises(ValueError):
        register(duplicate)


def test_register_rejects_non_rules():
    from repro.analysis import register

    with pytest.raises(TypeError):
        register(object)
