"""Network topology: hosts, routers and links with latency/bandwidth.

The topology is an undirected multigraph-free graph (one link per node
pair).  Routing is static shortest-path by propagation latency, computed
with networkx and cached until the topology changes.  Convenience
builders create the two shapes the paper's experiments need: a single
LAN, and two LANs joined by a WAN link (the University of Florida /
Northwestern setup of Table 1).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx

from repro.simulation.kernel import Simulation, SimulationError

__all__ = ["Link", "Network"]


class Link:
    """A bidirectional link with propagation latency and capacity."""

    def __init__(self, a: str, b: str, latency: float, bandwidth: float):
        if latency < 0 or bandwidth <= 0:
            raise SimulationError("invalid link parameters")
        self.a = a
        self.b = b
        self.latency = float(latency)
        self.bandwidth = float(bandwidth)

    @property
    def endpoints(self) -> Tuple[str, str]:
        """The two node names the link joins."""
        return (self.a, self.b)

    def __repr__(self) -> str:
        return "<Link %s--%s %.1fms %.0fMb/s>" % (
            self.a, self.b, self.latency * 1e3, self.bandwidth * 8 / 1e6)


class Network:
    """Hosts, routers and links, with shortest-latency routing."""

    def __init__(self, sim: Simulation, name: str = "net"):
        self.sim = sim
        self.name = name
        self._graph = nx.Graph()
        self._links: Dict[Tuple[str, str], Link] = {}
        self._hosts: Dict[str, dict] = {}
        self._route_cache: Dict[Tuple[str, str], List[str]] = {}
        # Derived-path memos, invalidated with the route cache.  Links
        # are immutable after construction, so the cached link lists and
        # latency sums stay valid as long as the routes do.
        self._path_cache: Dict[Tuple[str, str], List[Link]] = {}
        self._latency_cache: Dict[Tuple[str, str], float] = {}
        # Symmetric site-pair minimum latency matrix (the sharded
        # engine's lookahead source); built whole on first use because
        # a lookahead query for one pair always precedes queries for
        # the rest of the plan.
        self._site_latency_cache: Optional[Dict[Tuple[str, str],
                                                float]] = None

    # -- construction -------------------------------------------------------

    def add_host(self, name: str, site: str = "local", **attributes) -> None:
        """Register an end host (a machine that can source/sink flows)."""
        if name in self._hosts:
            raise SimulationError("host %s already exists" % name)
        self._hosts[name] = dict(site=site, **attributes)
        self._graph.add_node(name)
        self._clear_caches()

    def add_router(self, name: str) -> None:
        """Register an interior node (cannot source or sink flows)."""
        self._graph.add_node(name)
        self._clear_caches()

    def add_link(self, a: str, b: str, latency: float,
                 bandwidth: float) -> Link:
        """Connect two registered nodes."""
        for node in (a, b):
            if node not in self._graph:
                raise SimulationError("unknown node %s" % node)
        link = Link(a, b, latency, bandwidth)
        self._links[self._key(a, b)] = link
        self._graph.add_edge(a, b, weight=latency)
        self._clear_caches()
        return link

    def _clear_caches(self) -> None:
        self._route_cache.clear()
        self._path_cache.clear()
        self._latency_cache.clear()
        self._site_latency_cache = None

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    # -- queries ------------------------------------------------------------

    @property
    def hosts(self) -> List[str]:
        """All registered end hosts."""
        return list(self._hosts)

    def host_attributes(self, name: str) -> dict:
        """Attributes given at :meth:`add_host` time."""
        return dict(self._hosts[name])

    def has_host(self, name: str) -> bool:
        """True when ``name`` is a registered end host."""
        return name in self._hosts

    def link_between(self, a: str, b: str) -> Optional[Link]:
        """The direct link joining ``a`` and ``b``, if any."""
        return self._links.get(self._key(a, b))

    def route(self, src: str, dst: str) -> List[str]:
        """Node sequence of the lowest-latency path from src to dst."""
        if src == dst:
            return [src]
        key = (src, dst)
        if key not in self._route_cache:
            try:
                path = nx.shortest_path(self._graph, src, dst, weight="weight")
            except (nx.NetworkXNoPath, nx.NodeNotFound):
                raise SimulationError("no route from %s to %s" % (src, dst))
            self._route_cache[key] = path
        return self._route_cache[key]

    def path_links(self, src: str, dst: str) -> List[Link]:
        """The links along the routed path (cached; do not mutate)."""
        key = (src, dst)
        links = self._path_cache.get(key)
        if links is None:
            path = self.route(src, dst)
            links = self._path_cache[key] = [
                self._links[self._key(a, b)]
                for a, b in zip(path, path[1:])]
        return links

    def latency(self, src: str, dst: str) -> float:
        """One-way propagation latency along the routed path."""
        key = (src, dst)
        value = self._latency_cache.get(key)
        if value is None:
            value = self._latency_cache[key] = sum(
                link.latency for link in self.path_links(src, dst))
        return value

    def rtt(self, src: str, dst: str) -> float:
        """Round-trip time along the routed path."""
        return 2.0 * self.latency(src, dst)

    def bottleneck_bandwidth(self, src: str, dst: str) -> float:
        """Capacity of the narrowest link along the routed path."""
        links = self.path_links(src, dst)
        if not links:
            return float("inf")
        return min(link.bandwidth for link in links)

    # -- site-level queries (the sharded engine's lookahead source) ----------

    def sites(self) -> List[str]:
        """The distinct site labels of all registered hosts, sorted."""
        return sorted({attrs["site"] for attrs in self._hosts.values()})

    def hosts_in(self, site: str) -> List[str]:
        """The end hosts of one site, sorted."""
        return sorted(name for name, attrs in self._hosts.items()
                      if attrs["site"] == site)

    def site_of(self, name: str) -> Optional[str]:
        """The site label of a registered end host (None for routers)."""
        attrs = self._hosts.get(name)
        return attrs["site"] if attrs is not None else None

    def partition_lookaheads(
            self, partition: Dict[str, str]) -> Dict[Tuple[str, str], float]:
        """Pairwise minimum latency between the groups of a host partition.

        ``partition`` maps end hosts to group labels; hosts left out of
        the map contribute to no group.  The result is the symmetric
        group-pair matrix of the minimum one-way latency over all
        cross-group host pairs — the conservative lookahead for a
        sharded run partitioned along those groups (``inf`` for
        disconnected pairs).  The site matrix is the special case
        ``partition = {host: site_of(host)}``; a host-level plan passes
        ``{host: host}`` and wins the tighter LAN latencies.
        """
        groups: Dict[str, List[str]] = {}
        for host in sorted(partition):
            if host not in self._hosts:
                raise SimulationError("unknown host %s in partition" % host)
            groups.setdefault(partition[host], []).append(host)
        matrix: Dict[Tuple[str, str], float] = {}
        labels = sorted(groups)
        for i, label_a in enumerate(labels):
            hosts_a = groups[label_a]
            for label_b in labels[i + 1:]:
                best = float("inf")
                for a in hosts_a:
                    for b in groups[label_b]:
                        try:
                            value = self.latency(a, b)
                        except SimulationError:
                            continue  # disconnected pair
                        if value < best:
                            best = value
                matrix[(label_a, label_b)] = best
                matrix[(label_b, label_a)] = best
        return matrix

    def _site_matrix(self) -> Dict[Tuple[str, str], float]:
        """The symmetric site-pair minimum-latency matrix (cached)."""
        matrix = self._site_latency_cache
        if matrix is None:
            matrix = self._site_latency_cache = self.partition_lookaheads(
                {name: attrs["site"] for name, attrs in self._hosts.items()})
        return matrix

    def min_latency(self, site_a: str, site_b: str) -> float:
        """The minimum one-way latency between two sites' hosts.

        This is the conservative lookahead of the sharded engine: no
        event crossing from ``site_a`` to ``site_b`` can take effect
        sooner than this, because every routed path between the sites
        pays at least this much propagation delay.  Symmetric (routing
        is shortest-path over undirected links), cached until the
        topology changes, and ``inf`` when no host pair is connected.
        Querying an unknown site or a site against itself is an error —
        intra-site events never cross a shard boundary.
        """
        for site in (site_a, site_b):
            if not self.hosts_in(site):
                raise SimulationError("site %s has no hosts" % site)
        if site_a == site_b:
            raise SimulationError(
                "min_latency is a cross-site lookahead; %s vs itself "
                "is not a shard boundary" % site_a)
        return self._site_matrix()[(site_a, site_b)]

    def site_lookaheads(self) -> Dict[Tuple[str, str], float]:
        """A copy of the full symmetric site-pair lookahead matrix."""
        return dict(self._site_matrix())

    # -- canned topologies ---------------------------------------------------

    @classmethod
    def single_lan(cls, sim: Simulation, hosts: Iterable[str],
                   latency: float = 5e-5, bandwidth: float = 12.5e6,
                   site: str = "local") -> "Network":
        """A switched LAN: every host hangs off one switch.

        Defaults model 100 Mb/s switched Ethernet with 0.1 ms RTT.
        """
        net = cls(sim, name="lan")
        switch = "%s-switch" % site
        net.add_router(switch)
        for host in hosts:
            net.add_host(host, site=site)
            net.add_link(host, switch, latency=latency, bandwidth=bandwidth)
        return net

    @classmethod
    def two_site_wan(cls, sim: Simulation, site_a: str, hosts_a: Iterable[str],
                     site_b: str, hosts_b: Iterable[str],
                     wan_latency: float = 0.015, wan_bandwidth: float = 2.5e6,
                     lan_latency: float = 5e-5,
                     lan_bandwidth: float = 12.5e6) -> "Network":
        """Two switched LANs joined by a WAN link.

        Defaults model the paper's Florida/Northwestern setup: ~30 ms RTT
        and a few MB/s of usable cross-country bandwidth.
        """
        net = cls(sim, name="wan")
        for site, hosts in ((site_a, hosts_a), (site_b, hosts_b)):
            switch = "%s-switch" % site
            net.add_router(switch)
            for host in hosts:
                net.add_host(host, site=site)
                net.add_link(host, switch, latency=lan_latency,
                             bandwidth=lan_bandwidth)
        net.add_link("%s-switch" % site_a, "%s-switch" % site_b,
                     latency=wan_latency, bandwidth=wan_bandwidth)
        return net

    def __repr__(self) -> str:
        return "<Network %s hosts=%d links=%d>" % (
            self.name, len(self._hosts), len(self._links))
