"""The fleet experiment: one multi-site scenario for the sharded engine.

The paper's own artifacts (Tables 1-2, Figure 1) each study *one*
session on one or two sites — worlds too entangled (one shared flow
engine, synchronous NFS mounts) to decompose.  This experiment is the
scenario the sharded engine exists for: ``sites`` independent
VM-hosting sites on one WAN backbone, each running its own slice of
the grid — compute hosts, an image archive, a data server, a local
operator driving ``sessions`` full six-step session life cycles — and
talking to its ring neighbor over explicit cross-site messages
(job dispatch announcements), which are exactly the events that pay
WAN latency and therefore give the engine its lookahead.

Every site is an honest :class:`~repro.core.grid.VirtualGrid` with its
own :class:`~repro.simulation.kernel.Simulation`, its own
partition-keyed :class:`~repro.obs.metrics.MetricsRegistry` and its
own (engine-sampled) :class:`~repro.obs.recorder.FlightRecorder`;
cross-site traffic rides shard channels with the lookahead derived
from the reference topology's :meth:`Network.min_latency`.  The
scenario's outputs — the session table, merged metrics, merged flight
record — are a pure function of ``(sites, sessions, seed)``: byte-
identical for every ``shards`` value, which ``make shard-determinism``
(``tests/experiments/test_fleet.py``) checks.

Timeline per site (all times deterministic functions of the session
index): a short *announce phase* early in the run sends one dispatch
message per session to the ring neighbor, after which the site closes
its outbound channels (the engine's signal that its tail is local);
the long tail then runs the local sessions plus the GRAM jobs its
neighbor dispatched to it, fully parallel under one unbounded window.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.grid import (_BACKBONE, _LAN_BANDWIDTH, _LAN_LATENCY,
                             _WAN_BANDWIDTH, _WAN_LATENCY, VirtualGrid)
from repro.core.reporting import format_table
from repro.gridnet.topology import Network
from repro.guestos.profile import GuestOsProfile
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.simulation.kernel import Simulation
from repro.simulation.randomness import RandomStreams
from repro.simulation.sharded import (ShardPlan, ShardWorld,
                                      ShardedSimulation)

__all__ = ["FleetResult", "build_fleet_world", "fleet_lookaheads",
           "fleet_sites", "run_fleet"]

_MB = 1024 * 1024

#: The reduced boot profile traced scenarios use (same shape, small
#: constants) so a multi-site fleet stays quick at any scale.
_FLEET_GUEST = GuestOsProfile(
    kernel_read_bytes=2 * _MB,
    scattered_reads=40,
    scattered_read_bytes=32 * 1024,
    boot_cpu_user=0.5,
    boot_cpu_sys=0.5,
    boot_jitter=0.0,
    boot_footprint_bytes=64 * _MB,
)

#: Announce phase shape: dispatch k goes out at ``_ANNOUNCE_AT + k *
#: _ANNOUNCE_EVERY``; session k starts at ``_ARRIVAL_AT + k *
#: _ARRIVAL_EVERY``.  The announce phase is deliberately short — once
#: the last dispatch is sent the site closes outbound and the engine
#: runs the whole compute tail in one unbounded window.
_ANNOUNCE_AT = 0.25
_ANNOUNCE_EVERY = 0.25
_ARRIVAL_AT = 0.5
_ARRIVAL_EVERY = 0.75
#: Dispatch messages pay the site-pair lookahead plus a fixed
#: serialization allowance (they are small control messages).
_DISPATCH_SLACK = 0.005


def fleet_sites(count: int) -> List[str]:
    """The canonical site labels of a ``count``-site fleet."""
    return ["site%02d" % index for index in range(count)]


def fleet_reference_network(labels: List[str]) -> Network:
    """The fleet's WAN topology as one reference :class:`Network`.

    Per-site worlds only ever build their own slice, so the lookahead
    matrix comes from this throwaway whole-fleet topology instead —
    same constants as :meth:`VirtualGrid.add_site` (star over the
    backbone router), one representative host per site (LAN latency is
    uniform within a site, so one host already realizes the minimum).
    """
    net = Network(Simulation(), name="fleet-ref")
    net.add_router(_BACKBONE)
    for label in labels:
        switch = label + "-switch"
        net.add_router(switch)
        net.add_link(switch, _BACKBONE, latency=_WAN_LATENCY,
                     bandwidth=_WAN_BANDWIDTH)
        host = label + "-ref"
        net.add_host(host, site=label)
        net.add_link(host, switch, latency=_LAN_LATENCY,
                     bandwidth=_LAN_BANDWIDTH)
    return net


def fleet_lookaheads(labels: List[str]) -> Dict[tuple, float]:
    """Ring-channel lookaheads from the reference topology.

    Only the ring edges ``site_k -> site_{k+1}`` carry messages, so
    only they enter the plan — fewer channels means fewer horizon
    constraints and larger safe windows.
    """
    if len(labels) < 2:
        return {}
    net = fleet_reference_network(labels)
    matrix = {}
    for index, label in enumerate(labels):
        dest = labels[(index + 1) % len(labels)]
        matrix[(label, dest)] = net.min_latency(label, dest)
    return matrix


def build_fleet_world(group: str, lookaheads: Dict[str, float],
                      sites: List[str], sessions: int, seed: int,
                      interval: float = 0.5, capacity: int = 512,
                      arrival_every: float = _ARRIVAL_EVERY) -> ShardWorld:
    """One site's world: local grid, local sessions, ring channels.

    Module-level by design — the sharded engine rebuilds it inside
    worker processes by name.  Everything random derives from
    ``spawn_key("fleet/<site>")`` of the root seed, so the world is a
    pure function of ``(group, sites, sessions, seed)`` — never of
    shard count or placement.
    """
    site_seed = RandomStreams(seed).spawn_key("fleet/" + group)
    registry = MetricsRegistry(partition=group)
    sim = Simulation(seed=site_seed, metrics=registry)
    grid = VirtualGrid(sim=sim, seed=site_seed)
    grid.add_site(group)
    hosts = ["%s-c%d" % (group, index) for index in range(2)]
    for host in hosts:
        # Futures scale with demand (each session consumes one); the
        # floor of 8 keeps small runs identical to the original shape.
        grid.add_compute_host(host, site=group,
                              vm_futures=max(8, sessions))
    grid.add_image_server(group + "-img", site=group)
    grid.publish_image(group + "-img", "rh72", 96 * _MB, warm_state_mb=32)
    grid.add_data_server(group + "-data", site=group)
    operator = "op-" + group
    grid.add_user(operator, home_site=group)

    recorder = FlightRecorder(sim, interval=interval, capacity=capacity,
                              registry=registry, include_kernel=False)
    world = ShardWorld(sim, group, lookaheads, recorder=recorder)

    index = sites.index(group)
    ring_next = sites[(index + 1) % len(sites)] if len(sites) > 1 else None
    session_rows: List[Dict[str, Any]] = []
    remote_rows: List[Dict[str, Any]] = []
    sessions_done = registry.counter("fleet.sessions")
    remote_done = registry.counter("fleet.remote.jobs")
    ready_hist = registry.histogram("fleet.session.ready_time")

    # -- local sessions (the long tail) -------------------------------------

    def session_driver(k):
        from repro.middleware.session import SessionConfig
        from repro.workloads.applications import synthetic_compute

        config = SessionConfig(user=operator, image="rh72",
                               vm_name="%s-vm%d" % (group, k),
                               image_access="pvfs", start_mode="restore",
                               guest_profile=_FLEET_GUEST)
        session = grid.new_session(config)
        start = sim.now
        yield from session.establish()
        ready = sim.now
        ready_hist.observe(ready - start)
        # Application durations (2-2.75s) cycle with period 4, but a
        # session lives far longer: at the default 0.75s spacing with
        # 4-6 sessions per site, its warm restore over PVFS alone takes
        # 18-27 simulated seconds and the session 28-43s (at 6s spacing,
        # 7-12s and 16-24s).  So the sessions of a small fleet all
        # overlap, and with 12 per site one host already holds six
        # 128 MB guests (its whole budget), so the VMM refuses the next.
        # Large fleets must space arrivals out (``arrival_every``; the
        # benchmark uses 6s).
        app = synthetic_compute(2.0 + 0.25 * (k % 4),
                                name="fleet-app-%d" % k)
        yield from session.run_application(app)
        app_done = sim.now
        yield from session.shutdown()
        sessions_done.inc()
        session_rows.append({"session": k, "start": start,
                             "ready": ready, "app_done": app_done,
                             "end": sim.now})

    for k in range(sessions):
        def arrive(_sim, k=k):
            sim.spawn(session_driver(k), name="%s-session-%d" % (group, k))

        sim.call_at(_ARRIVAL_AT + arrival_every * k, arrive)

    # -- ring traffic (the announce phase) ----------------------------------

    if ring_next is not None:
        latency = lookaheads[ring_next] + _DISPATCH_SLACK
        # The announce phase is bounded: at most 8 dispatches per site
        # (one per session below that).  While any channel is open the
        # engine must round-trip every ~lookahead of simulated time, so
        # an announce phase that grew with ``sessions`` would make the
        # round count — pure synchronization overhead — scale with the
        # workload instead of staying a short prologue.
        announces = min(sessions, 8)
        # Dispatch instants are known at build time, so the site can
        # promise them: under adaptive windows everyone else runs right
        # up to the next announce plus lookahead instead of creeping
        # forward one WAN latency per round through the dense local
        # event stream.
        world.promise_no_send_before(_ANNOUNCE_AT)

        for k in range(announces):
            def announce(_sim, k=k):
                world.send(ring_next, "dispatch",
                           {"origin": group, "job": k,
                            "seconds": 0.75 + 0.25 * k},
                           latency=latency)
                if k == announces - 1:
                    world.close_outbound()
                else:
                    world.promise_no_send_before(
                        _ANNOUNCE_AT + _ANNOUNCE_EVERY * (k + 1))

            sim.call_at(_ANNOUNCE_AT + _ANNOUNCE_EVERY * k, announce)
    else:
        world.close_outbound()  # nobody to talk to; tail is all local

    def on_dispatch(w, message):
        payload = message.payload
        host = hosts[payload["job"] % len(hosts)]
        gram = grid.gram_for(host)

        def body():
            yield sim.timeout(payload["seconds"])
            return payload["seconds"]

        def run_remote():
            job = yield from gram.submit(
                body(), name="%s-j%d" % (payload["origin"],
                                         payload["job"]))
            remote_done.inc()
            remote_rows.append({"origin": payload["origin"],
                                "job": payload["job"], "host": host,
                                "arrived": message.deliver_time,
                                "completed": sim.now,
                                "total": job.total_time})

        sim.spawn(run_remote(), name="%s-remote-%d" % (group,
                                                       payload["job"]))

    world.on_message("dispatch", on_dispatch)
    world.collect = lambda w: {"sessions": list(session_rows),
                               "remote": list(remote_rows)}
    return world


class FleetResult:
    """A finished fleet run and its deterministic renderings."""

    def __init__(self, sites: List[str], sessions: int, seed: int, run):
        self.sites = sites
        self.sessions = sessions
        self.seed = seed
        self.run = run  #: the underlying ShardRunResult

    def site_data(self, site: str) -> Dict[str, Any]:
        return self.run.data(site)

    def merged_metrics(self) -> MetricsRegistry:
        return self.run.merged_metrics()

    def merged_recorder(self) -> Optional[FlightRecorder]:
        return self.run.merged_recorder()

    def session_table(self) -> str:
        """Per-site session life-cycle timings, fixed-width text."""
        rows = []
        for site in self.sites:
            for row in self.site_data(site)["sessions"]:
                rows.append([site, "%d" % row["session"],
                             "%.6f" % row["start"],
                             "%.6f" % (row["ready"] - row["start"]),
                             "%.6f" % (row["app_done"] - row["ready"]),
                             "%.6f" % row["end"]])
        return format_table(
            ["Site", "Session", "Arrive", "Establish", "App", "End"],
            rows, title="Fleet sessions (sites=%d seed=%d)"
            % (len(self.sites), self.seed))

    def remote_table(self) -> str:
        """Cross-site dispatches as the receiving site ran them."""
        rows = []
        for site in self.sites:
            for row in self.site_data(site)["remote"]:
                rows.append([site, row["origin"], "%d" % row["job"],
                             row["host"], "%.6f" % row["arrived"],
                             "%.6f" % row["completed"]])
        return format_table(
            ["Site", "Origin", "Job", "Host", "Arrived", "Completed"],
            rows, title="Fleet remote dispatches")

    def render(self) -> str:
        """The complete text artifact (what the CLI prints and
        ``make shard-determinism`` compares)."""
        summary = format_table(
            ["Quantity", "Value"],
            [["sites", "%d" % len(self.sites)],
             ["sessions per site", "%d" % self.sessions],
             ["seed", "%d" % self.seed],
             ["rounds", "%d" % self.run.rounds],
             ["cross-shard messages", "%d" % self.run.messages_delivered],
             ["events", "%d" % self.run.total_events],
             ["end time", "%.6f" % self.run.end_time]],
            title="Fleet run")
        return "\n".join([summary, "", self.session_table(), "",
                          self.remote_table(), ""])


def run_fleet(sites: int = 3, sessions: int = 3, seed: int = 42,
              shards: int = 1, interval: float = 0.5,
              capacity: int = 512,
              arrival_every: float = _ARRIVAL_EVERY,
              adaptive: bool = True) -> FleetResult:
    """Run the fleet scenario; ``shards`` affects wall-clock only.

    ``arrival_every`` spaces session arrivals; the benchmark stretches
    it so hundreds of sessions queue instead of all contending for the
    two hosts' guest-memory budget at once.  ``adaptive=False`` runs
    fixed-lookahead windows (the pre-forecast round schedule) for A/B
    measurement; message stamps and artifacts other than the reported
    round count are identical either way.
    """
    from repro.simulation.kernel import SimulationError

    if sites < 1:
        raise SimulationError("fleet needs at least one site")
    if sessions < 1:
        raise SimulationError("fleet needs at least one session per site")
    labels = fleet_sites(sites)
    plan = ShardPlan(labels, fleet_lookaheads(labels))
    engine = ShardedSimulation(
        build_fleet_world, plan, shards=shards,
        kwargs={"sites": labels, "sessions": sessions, "seed": seed,
                "interval": interval, "capacity": capacity,
                "arrival_every": arrival_every},
        adaptive=adaptive)
    return FleetResult(labels, sessions, seed, engine.run())
