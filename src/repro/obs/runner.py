"""Traced, reduced-scale scenario runs for the observability CLI.

The experiment modules (``repro.experiments.*``) sweep many
configurations and average over samples — good for tables, bad for
traces: a trace wants *one* representative run with every subsystem
exercised.  This module builds, per experiment artifact, a small grid
and drives one complete six-step :class:`GridSession` life cycle
through it with tracing enabled, so the exported timeline shows
information-service queries, the image data session, globusrun
startup, guest execution, and teardown on one screen.

Scenarios are deterministic: same name + seed produces a byte-identical
Chrome trace (no wall-clock reads anywhere in the stack — enforced by
simlint rule R2).

Not imported by ``repro.obs`` eagerly: it pulls in the whole model
stack, which the tracer/metrics primitives must not depend on.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.guestos.profile import GuestOsProfile
from repro.obs.chrome import export_chrome_trace
from repro.obs.tracer import TraceRecorder, Tracer
from repro.simulation.kernel import Simulation, SimulationError

__all__ = ["SCENARIOS", "build_scenario", "run_scenario",
           "trace_experiment", "record_experiment"]

#: Experiment artifacts with a traced scenario equivalent.
SCENARIOS = ("figure1", "table1", "table2")

_MB = 1024 * 1024

#: A reduced boot profile so traced runs finish in well under a second
#: of wall time; the *shape* of the timeline matches the full profile.
_FAST_GUEST = GuestOsProfile(
    kernel_read_bytes=2 * _MB,
    scattered_reads=40,
    scattered_read_bytes=32 * 1024,
    boot_cpu_user=0.5,
    boot_cpu_sys=0.5,
    boot_jitter=0.0,
    boot_footprint_bytes=64 * _MB,
)


def _base_grid(sim: Simulation, two_sites: bool, seed: int):
    """A grid with one compute host and image/data servers.

    ``two_sites`` places the servers across the paper's WAN link
    (Table 1's Florida/Northwestern testbed); otherwise everything
    shares one LAN (Table 2's local configurations).
    """
    from repro.core.grid import VirtualGrid

    grid = VirtualGrid(sim=sim, seed=seed)
    grid.add_site("uf")
    server_site = "nw" if two_sites else "uf"
    if two_sites:
        grid.add_site("nw")
    grid.add_compute_host("compute1", site="uf")
    grid.add_image_server("images1", site=server_site)
    grid.publish_image("images1", "rh72", 256 * _MB, warm_state_mb=64)
    grid.add_data_server("data1", site=server_site)
    grid.add_user("ana")
    return grid


def build_scenario(name: str, sim: Simulation, seed: int = 0):
    """The grid, session config and workload for one scenario.

    Returns ``(grid, config, app)``.
    """
    from repro.middleware.session import SessionConfig
    from repro.workloads.applications import synthetic_compute

    if name == "table2":
        # Startup-time artifact: warm restore over a proxied LAN mount,
        # the configuration the paper's Table 2 shows winning.
        grid = _base_grid(sim, two_sites=False, seed=seed)
        config = SessionConfig(user="ana", image="rh72",
                               image_access="pvfs", start_mode="restore",
                               guest_profile=_FAST_GUEST)
        app = synthetic_compute(5.0, name="startup-probe")
    elif name == "table1":
        # Macrobenchmark artifact: cold boot across the WAN, data
        # served from the user's home institution.
        grid = _base_grid(sim, two_sites=True, seed=seed)
        config = SessionConfig(user="ana", image="rh72",
                               image_access="pvfs", start_mode="boot",
                               guest_profile=_FAST_GUEST)
        app = synthetic_compute(30.0, name="macrobench")
    elif name == "figure1":
        # Microbenchmark artifact: plain NFS image access, short
        # compute probes on an otherwise idle VM.
        grid = _base_grid(sim, two_sites=False, seed=seed)
        config = SessionConfig(user="ana", image="rh72",
                               image_access="nfs", start_mode="boot",
                               guest_profile=_FAST_GUEST)
        app = synthetic_compute(2.0, name="microbench-probe")
    else:
        raise SimulationError("unknown scenario %r (choose from %s)"
                              % (name, ", ".join(SCENARIOS)))
    return grid, config, app


def run_scenario(name: str, seed: int = 0,
                 tracer: Optional[Tracer] = None,
                 recorder_interval: Optional[float] = None,
                 recorder_capacity: int = 512):
    """Drive one traced session life cycle; returns the Simulation.

    The run covers all six steps of Section 4's life cycle: establish
    (steps 1-5), application execution (step 6), a user-data sync and
    an orderly shutdown.  With ``recorder_interval`` set, a
    :class:`~repro.obs.recorder.FlightRecorder` heartbeats alongside
    the run and the return value becomes ``(sim, grid, recorder)``.
    """
    sim = Simulation(seed=seed, tracer=tracer)
    grid, config, app = build_scenario(name, sim, seed=seed)
    recorder = None
    if recorder_interval is not None:
        from repro.obs.recorder import FlightRecorder

        recorder = FlightRecorder(sim, interval=recorder_interval,
                                  capacity=recorder_capacity)
        recorder.start()
    session = grid.new_session(config)

    def drive(_sim):
        yield from session.establish()
        yield from session.run_application(app)
        yield from session.shutdown()

    grid.run(drive(sim), name="scenario.%s" % name)
    if recorder is not None:
        recorder.stop()
        return sim, grid, recorder
    return sim


def trace_experiment(name: str, out_path: str, seed: int = 0
                     ) -> Tuple[Simulation, int]:
    """Run a scenario under a :class:`TraceRecorder` and export it.

    Returns ``(sim, number_of_trace_events_written)``.
    """
    recorder = TraceRecorder()
    sim = run_scenario(name, seed=seed, tracer=recorder)
    count = export_chrome_trace(recorder, out_path)
    return sim, count


def record_experiment(name: str, interval: float = 1.0, seed: int = 0,
                      capacity: int = 512):
    """Replay a scenario with a flight recorder heartbeating alongside.

    Returns ``(sim, grid, recorder)``.  Attaching the recorder cannot
    change the run: the heartbeat draws no randomness and mutates no
    model state, so every experiment artifact stays byte-identical to
    the unrecorded run.
    """
    return run_scenario(name, seed=seed, recorder_interval=interval,
                        recorder_capacity=capacity)
