"""The untraced run's scaling of round times to the reference speed."""

import os
import time

import run


class _SleepyWorkload:
    """Rounds of a fixed wall clock and next to no CPU time."""

    every_core = False

    def run(self):
        time.sleep(0.05)
        return ()

    def key(self, artifact):
        return artifact

    def check(self, artifact):
        return []

    def paper_error(self, artifact):
        return {}

    def final_check(self, key):
        return []

    def release(self):
        pass


def test_round_times_scale_with_the_probed_speed(monkeypatch):
    # A host probed at half the reference speed halves every figure.
    monkeypatch.setattr(run, "probe_speed",
                        lambda every_core: 2 * run.REFERENCE_LOOP_S)
    outcome = run.run_untraced(_SleepyWorkload(), 0.3, setup_s=0.1)
    walls = outcome["details"]["rounds_wall_s"]
    assert outcome["rounds"] == len(walls) >= 2
    assert len(outcome["details"]["reference_loop_s"]) == len(walls) + 1
    run_s = outcome["metrics"]["run_s"]["value"]
    assert run_s == outcome["details"]["raw_median_wall_s"] / 2
    assert 0.025 <= run_s < 0.05
    assert outcome["metrics"]["setup_s"]["value"] == 0.1 / 2


def test_probe_on_every_core_restores_the_affinity():
    cores = os.sched_getaffinity(0)
    assert run.probe_speed() > 0
    assert run.probe_speed(every_core=True) > 0
    assert os.sched_getaffinity(0) == cores
