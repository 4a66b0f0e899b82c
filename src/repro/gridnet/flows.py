"""Flow-level bandwidth sharing with max-min fairness.

A :class:`Flow` is a bulk transfer of bytes along the routed path between
two hosts.  The :class:`FlowEngine` allocates every active flow a rate by
progressive filling (the textbook max-min algorithm): repeatedly find the
most-congested link, give each flow crossing it an equal share of the
remaining capacity, freeze those flows, and subtract what they consume
elsewhere.

Like the CPU model, flows advance fluidly between membership changes, so
the event count is proportional to the number of transfers, not bytes.
A transfer's total time is one connection-setup round trip, plus the
fluid transfer, plus half an RTT for the final byte to propagate.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.gridnet.topology import Link, Network
from repro.simulation.kernel import Event, Simulation, SimulationError
from repro.simulation.monitor import StatAccumulator

__all__ = ["Flow", "FlowEngine"]

_BYTES_EPSILON = 1e-6


class Flow:
    """An in-flight bulk transfer."""

    def __init__(self, src: str, dst: str, nbytes: float, links: List[Link],
                 priority_bandwidth: Optional[float] = None):
        self.src = src
        self.dst = dst
        self.total_bytes = float(nbytes)
        self.remaining = float(nbytes)
        self.links = links
        #: Optional per-flow cap (used by tunnels to model encapsulation).
        self.bandwidth_cap = priority_bandwidth
        self.done: Optional[Event] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.rate = 0.0
        #: The tracer span covering the flow's lifetime.
        self.span = None

    def __repr__(self) -> str:
        return "<Flow %s->%s %.0f/%.0fB>" % (self.src, self.dst,
                                             self.total_bytes - self.remaining,
                                             self.total_bytes)


class FlowEngine:
    """Shares link bandwidth among concurrent flows, max-min fairly."""

    def __init__(self, sim: Simulation, network: Network):
        self.sim = sim
        self.network = network
        self._active: List[Flow] = []
        self._last_update = sim.now
        self._generation = 0
        #: Active flows per link, maintained incrementally at join/leave
        #: (per-link order is join order, matching ``_active``).
        self._link_flows: Dict[Link, Dict[Flow, None]] = {}
        #: Memoized max-min rates for the current membership; ``None``
        #: after a membership change that requires a full refill.
        self._rate_cache: Optional[Dict[Flow, float]] = None
        #: Progressive fillings actually run (regression guard: at most
        #: one per membership generation, however often rates are read).
        self.full_allocations = 0
        self.transfer_time = StatAccumulator("flow.transfer_time")
        metrics = sim.metrics
        self._m_started = metrics.counter("net.flows.started")
        self._m_active = metrics.gauge("net.flows.active")
        self._m_duration = metrics.histogram("net.flow.duration")

    # -- public API ----------------------------------------------------------

    def start_flow(self, src: str, dst: str, nbytes: float,
                   bandwidth_cap: Optional[float] = None) -> Flow:
        """Begin a transfer; ``flow.done`` fires when all bytes are sent."""
        if not self.network.has_host(src) or not self.network.has_host(dst):
            raise SimulationError("flows need registered end hosts")
        if nbytes < 0:
            raise SimulationError("flow size must be non-negative")
        links = self.network.path_links(src, dst)
        flow = Flow(src, dst, nbytes, links, priority_bandwidth=bandwidth_cap)
        flow.done = Event(self.sim)
        flow.started_at = self.sim.now
        flow.span = self.sim.trace.begin(
            "net", "flow %s->%s" % (src, dst),
            track=("net", "flows"), bytes=float(nbytes))
        self._m_started.inc()
        self._advance()
        if not links:
            # Loopback transfer: no shared medium, completes instantly
            # (end-host serialization is charged by the NIC, not here).
            flow.remaining = 0.0
        if flow.remaining <= _BYTES_EPSILON:
            self._finish(flow)
        else:
            self._join(flow)
            self._m_active.set(len(self._active))
        self._reschedule()
        return flow

    def transfer(self, src: str, dst: str, nbytes: float,
                 setup_round_trips: float = 1.0,
                 bandwidth_cap: Optional[float] = None):
        """Process generator: a complete transfer including handshakes.

        ``setup_round_trips`` models connection establishment (one RTT for
        a TCP-style handshake; RPC layers add their own on top).
        """
        start = self.sim.now
        latency = self.network.latency(src, dst)
        if setup_round_trips:
            yield self.sim.timeout(2.0 * latency * setup_round_trips)
        if nbytes > 0:
            flow = self.start_flow(src, dst, nbytes,
                                   bandwidth_cap=bandwidth_cap)
            yield flow.done
        # Final byte still has to propagate to the receiver.
        yield self.sim.timeout(latency)
        self.transfer_time.add(self.sim.now - start)

    @property
    def active_flows(self) -> List[Flow]:
        """Snapshot of in-flight flows."""
        return list(self._active)

    def current_rate(self, flow: Flow) -> float:
        """The flow's instantaneous allocated rate, bytes/second."""
        return self._allocate().get(flow, 0.0)

    def link_usage(self) -> Dict[Link, float]:
        """Instantaneous allocated rate per link, bytes/second."""
        rates = self._allocate()
        usage: Dict[Link, float] = {}
        for flow, rate in rates.items():
            for link in flow.links:
                usage[link] = usage.get(link, 0.0) + rate
        return usage

    def available_bandwidth(self, src: str, dst: str) -> float:
        """Spare capacity along the routed src->dst path right now.

        What a new flow could *at least* get immediately (max-min
        fairness may grant it more by squeezing others).
        """
        links = self.network.path_links(src, dst)
        if not links:
            return float("inf")
        usage = self.link_usage()
        return min(link.bandwidth - usage.get(link, 0.0)
                   for link in links)

    # -- membership ------------------------------------------------------------

    def _join(self, flow: Flow) -> None:
        """Add a flow to the active set and the per-link flow maps.

        If the newcomer shares no link with any active flow, max-min
        decomposes over the disjoint link sets: every other rate is
        unchanged and the newcomer gets the bottleneck capacity of its
        own path (modulo its cap), so the memoized allocation is patched
        in place instead of being refilled.  A flow merely *fitting* in
        spare capacity is NOT sufficient — a sharer bottlenecked on a
        different link may have to be squeezed — so the fast path
        demands exclusive links.
        """
        self._active.append(flow)
        link_flows = self._link_flows
        alone = True
        for link in flow.links:
            members = link_flows.get(link)
            if members is None:
                link_flows[link] = {flow: None}
            else:
                if members:
                    alone = False
                members[flow] = None
        rates = self._rate_cache
        if rates is not None and alone and flow.links:
            rate = min(link.bandwidth for link in flow.links)
            cap = flow.bandwidth_cap
            rates[flow] = rate if cap is None or cap > rate else cap
        else:
            self._rate_cache = None

    def _leave(self, flow: Flow) -> None:
        """Remove a flow from the active set and the per-link maps.

        Mirrors :meth:`_join`: a departing flow that was alone on all
        its links frees capacity nobody else can claim, so the memoized
        allocation survives minus its entry.
        """
        self._active.remove(flow)
        link_flows = self._link_flows
        alone = True
        for link in flow.links:
            members = link_flows.get(link)
            if members is not None:
                members.pop(flow, None)
                if members:
                    alone = False
                else:
                    del link_flows[link]
        rates = self._rate_cache
        if rates is not None and alone:
            rates.pop(flow, None)
        else:
            self._rate_cache = None

    # -- max-min allocation ----------------------------------------------------

    def _allocate(self) -> Dict[Flow, float]:
        """The max-min rates for the current membership, memoized.

        The full progressive filling runs at most once per membership
        generation; every reader in between (``current_rate``,
        ``link_usage``, ``available_bandwidth``, back-to-back
        ``_advance``/``_reschedule``) shares the memo.
        """
        rates = self._rate_cache
        if rates is None:
            rates = self._rate_cache = self._refill()
            self.full_allocations += 1
        return rates

    def _refill(self) -> Dict[Flow, float]:
        """Progressive-filling max-min fair rates for all active flows.

        Dicts stand in for sets throughout so every iteration follows
        flow-submission order: bottleneck and cap tie-breaks are then
        reproducible run to run (object sets would order by address).
        """
        rates: Dict[Flow, float] = {}
        unfixed: Dict[Flow, None] = dict.fromkeys(self._active)
        if not unfixed:
            return rates
        link_flows = self._link_flows
        # Capacity keys iterate in first-touch order of the active flows
        # (the order the transient per-call dicts historically had).
        remaining_cap: Dict[Link, float] = {}
        for flow in unfixed:
            for link in flow.links:
                if link not in remaining_cap:
                    remaining_cap[link] = link.bandwidth

        # Flows with an explicit cap tighter than any fair share are pinned
        # first by treating the cap as a single-flow virtual link.
        while unfixed:
            # Find the bottleneck: smallest per-flow share among loaded links.
            bottleneck_share = math.inf
            bottleneck_link: Optional[Link] = None
            for link in remaining_cap:
                flows = link_flows[link]
                live = [f for f in flows if f in unfixed]
                if not live:
                    continue
                share = remaining_cap[link] / len(live)
                if share < bottleneck_share:
                    bottleneck_share = share
                    bottleneck_link = link
            capped = [f for f in unfixed
                      if f.bandwidth_cap is not None
                      and f.bandwidth_cap < bottleneck_share]
            if capped:
                # Pin the most-constrained capped flow and recurse.
                flow = min(capped, key=lambda f: f.bandwidth_cap)
                rate = flow.bandwidth_cap
            elif bottleneck_link is None:
                break
            else:
                flow = None
                rate = bottleneck_share
            if flow is not None:
                fixed = [flow]
            else:
                fixed = [f for f in link_flows[bottleneck_link]  # simlint: disable=R22  max-min progressive filling is per-link water-filling by definition; rates are memoized per membership epoch (R26 pattern in _allocate)
                         if f in unfixed]
            for f in fixed:
                rates[f] = rate
                unfixed.pop(f, None)
                for link in f.links:
                    remaining_cap[link] = max(0.0, remaining_cap[link] - rate)
        return rates

    # -- fluid advancement -----------------------------------------------------

    def _advance(self) -> None:
        now = self.sim.now
        elapsed = now - self._last_update
        if elapsed > 0 and self._active:
            rates = self._allocate()
            for flow in self._active:  # simlint: disable=R22  fluid model: every concurrent flow advances at each membership change; concurrency is link-bounded, not population-bounded
                flow.remaining = max(
                    0.0, flow.remaining - elapsed * rates.get(flow, 0.0))
        self._last_update = now

    def _finish(self, flow: Flow) -> None:
        flow.remaining = 0.0
        flow.finished_at = self.sim.now
        self.sim.trace.end(flow.span)
        self._m_duration.observe(flow.finished_at - flow.started_at)
        flow.done.succeed(flow)

    def _reschedule(self) -> None:
        finished = [f for f in self._active if f.remaining <= _BYTES_EPSILON]  # simlint: disable=R22  completion sweep over concurrent flows; see _advance
        for flow in finished:
            self._leave(flow)
            self._finish(flow)
        if finished:
            self._m_active.set(len(self._active))
        rates = self._allocate()
        for flow, rate in rates.items():
            flow.rate = rate
        self._generation += 1
        generation = self._generation
        horizon = math.inf
        for flow in self._active:
            rate = rates.get(flow, 0.0)
            if rate > 0:
                horizon = min(horizon, flow.remaining / rate)
        if horizon is math.inf:
            return

        def fire(event, generation=generation):
            if generation != self._generation:
                return
            self._advance()
            self._reschedule()

        timer = self.sim.timeout(max(horizon, 0.0))
        timer.callbacks.append(fire)

    def __repr__(self) -> str:
        return "<FlowEngine %d active>" % len(self._active)
