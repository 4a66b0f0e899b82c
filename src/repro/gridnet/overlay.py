"""A self-optimizing overlay network among remote virtual machines.

Section 3.3 closes with: "A natural extension ... is to establish an
overlay network among the remote virtual machines.  The overlay network
would optimize itself with respect to the communication between the
virtual machines and the limitations of the various sites."

The overlay is a resilient-overlay-network (RON) style construction:
members measure pairwise latency over the underlay (which, thanks to
inter-site policy routing, may violate the triangle inequality), then
route application traffic over the overlay graph's shortest paths,
relaying through other members when a one-hop detour beats the direct
Internet path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.gridnet.topology import Network, shortest_path
from repro.simulation.kernel import Simulation, SimulationError

__all__ = ["OverlayNetwork"]


class OverlayNetwork:
    """A full-mesh latency-optimizing overlay."""

    def __init__(self, sim: Simulation, network: Network,
                 per_hop_forwarding_cost: float = 0.5e-3):
        self.sim = sim
        self.network = network
        #: Application-level relaying cost added at each intermediate member.
        self.per_hop_forwarding_cost = float(per_hop_forwarding_cost)
        self._members: List[str] = []
        self._measured: Dict[Tuple[str, str], float] = {}
        #: The measured mesh: ``member -> {member: latency}``.
        self._mesh: Dict[str, Dict[str, float]] = {}
        #: Extra latency penalties for specific underlay pairs, modelling
        #: inter-domain policy routing that the overlay can route around.
        self._penalties: Dict[Tuple[str, str], float] = {}

    # -- membership -----------------------------------------------------------

    @property
    def members(self) -> List[str]:
        """Hosts currently participating in the overlay."""
        return list(self._members)

    def join(self, host: str) -> None:
        """Add a member (a VM's host) to the overlay mesh."""
        if not self.network.has_host(host):
            raise SimulationError("overlay member %s is not a host" % host)
        if host in self._members:
            raise SimulationError("%s already joined" % host)
        self._members.append(host)
        self._mesh[host] = {}

    def leave(self, host: str) -> None:
        """Remove a member and its measurements."""
        if host not in self._members:
            raise SimulationError("%s is not a member" % host)
        self._members.remove(host)
        for neighbour in self._mesh.pop(host):
            del self._mesh[neighbour][host]
        self._measured = {k: v for k, v in self._measured.items()
                          if host not in k}

    def set_underlay_penalty(self, a: str, b: str, extra_latency: float) -> None:
        """Inflate the direct path between two members (policy routing)."""
        if extra_latency < 0:
            raise SimulationError("penalty must be non-negative")
        self._penalties[self._key(a, b)] = float(extra_latency)

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def underlay_latency(self, a: str, b: str) -> float:
        """Direct-path latency including any policy-routing penalty."""
        base = self.network.latency(a, b)
        return base + self._penalties.get(self._key(a, b), 0.0)

    # -- self-optimization ------------------------------------------------------

    def measure(self):
        """Process generator: probe all pairs and rebuild the mesh.

        Probing costs one round trip per pair (pairs probe concurrently in
        a real deployment; we charge the slowest probe).
        """
        worst = 0.0
        self._mesh = {member: {} for member in self._members}
        for i, a in enumerate(self._members):
            for b in self._members[i + 1:]:
                latency = self.underlay_latency(a, b)
                self._measured[self._key(a, b)] = latency
                self._mesh[a][b] = self._mesh[b][a] = latency
                worst = max(worst, 2.0 * latency)
        if worst:
            yield self.sim.timeout(worst)
        return len(self._measured)

    def overlay_route(self, src: str, dst: str) -> List[str]:
        """The member sequence minimizing end-to-end overlay latency."""
        if src not in self._members or dst not in self._members:
            raise SimulationError("both endpoints must be members")
        if not self._measured:
            raise SimulationError("overlay has no measurements; run measure()")
        # Every edge pays the forwarding cost: one more than the relays a
        # path uses, the same surplus on every path.
        path = shortest_path(self._mesh, src, dst,
                             extra=self.per_hop_forwarding_cost)
        if path is None:
            raise SimulationError("no overlay route from %s to %s; run "
                                  "measure() after joining" % (src, dst))
        return path

    def overlay_latency(self, src: str, dst: str) -> float:
        """End-to-end latency along :meth:`overlay_route`."""
        path = self.overlay_route(src, dst)
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += self._measured[self._key(a, b)]
        total += self.per_hop_forwarding_cost * max(0, len(path) - 2)
        return total

    def improvement(self, src: str, dst: str) -> float:
        """Latency saved by the overlay versus the direct underlay path."""
        return self.underlay_latency(src, dst) - self.overlay_latency(src, dst)

    def routing_table(self) -> Dict[Tuple[str, str], List[str]]:
        """All-pairs overlay routes (for inspection and tests)."""
        table = {}
        for i, a in enumerate(self._members):
            for b in self._members[i + 1:]:
                table[(a, b)] = self.overlay_route(a, b)
        return table

    def __repr__(self) -> str:
        return "<OverlayNetwork members=%d>" % len(self._members)
