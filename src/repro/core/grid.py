"""The VirtualGrid facade: build a VM-based grid and open sessions on it.

The facade owns one :class:`~repro.simulation.kernel.Simulation` and the
shared middleware (network, flow engine, information service, accounts,
GridFTP), and lets the caller compose sites incrementally:

* :meth:`add_site` — a switched LAN joined to the WAN backbone, with a
  DHCP pool for dynamic VM addresses;
* :meth:`add_compute_host` — a physical machine with a host OS, a VMM,
  a GRAM gateway, and an advertised *VM future*;
* :meth:`add_image_server` / :meth:`publish_image` — image archives;
* :meth:`add_data_server` — user file storage;
* :meth:`add_user` — a logical user with a home-network gateway (for
  Ethernet tunnels);
* :meth:`new_session` — a six-step :class:`GridSession`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.gridnet.dhcp import DhcpServer
from repro.gridnet.flows import FlowEngine
from repro.gridnet.topology import Network
from repro.guestos.interface import PhysicalHost
from repro.hardware.machine import MachineSpec, PhysicalMachine
from repro.middleware.accounts import AccountRegistry, LogicalUser
from repro.middleware.dataserver import UserDataServer
from repro.middleware.gram import GramGateway
from repro.middleware.gridftp import GridFtpService
from repro.middleware.imageserver import ImageServer
from repro.middleware.information import InformationService, VmFuture
from repro.middleware.session import GridSession, SessionConfig
from repro.obs.sla import DEFAULT_SLA, SlaPolicy
from repro.simulation.kernel import Simulation, SimulationError
from repro.simulation.randomness import RandomStreams
from repro.storage.transfer import FileStager
from repro.vmm.costs import VmmCosts
from repro.vmm.monitor import VirtualMachineMonitor

__all__ = ["VirtualGrid"]

#: Default WAN shape: the paper's Florida/Northwestern link.
_WAN_LATENCY = 0.015
_WAN_BANDWIDTH = 2.5e6
_LAN_LATENCY = 5e-5
_LAN_BANDWIDTH = 12.5e6
_BACKBONE = "internet"


class VirtualGrid:
    """A complete VM-based computational grid in one object."""

    def __init__(self, sim: Optional[Simulation] = None, seed: int = 0,
                 costs: Optional[VmmCosts] = None,
                 sla: Optional[SlaPolicy] = None):
        self.sim = sim or Simulation(seed=seed)
        self.streams = RandomStreams(seed)
        self.costs = costs or VmmCosts()
        self.sla = sla or DEFAULT_SLA
        self.network = Network(self.sim, name="grid-net")
        self.network.add_router(_BACKBONE)
        self.engine = FlowEngine(self.sim, self.network)
        self.info = InformationService(self.sim,
                                       rng=self.streams.stream("info"))
        self.accounts = AccountRegistry()
        self.stager = FileStager(self.sim, self.engine)
        self.gridftp = GridFtpService(self.sim, self.stager)
        self._sites: Dict[str, DhcpServer] = {}
        self._machines: Dict[str, PhysicalMachine] = {}
        self._hosts: Dict[str, PhysicalHost] = {}
        self._vmms: Dict[str, VirtualMachineMonitor] = {}
        self._grams: Dict[str, GramGateway] = {}
        self._image_servers: Dict[str, ImageServer] = {}
        self._data_servers: Dict[str, UserDataServer] = {}
        self._gateways: Dict[str, str] = {}
        self._image_proxies: Dict[tuple, object] = {}  # simlint: disable=R23  keyed by (host, image server): bounded by topology, not by sessions

    # -- topology -----------------------------------------------------------------

    def add_site(self, name: str, wan_latency: float = _WAN_LATENCY,
                 wan_bandwidth: float = _WAN_BANDWIDTH,
                 dhcp_pool: int = 64) -> None:
        """A LAN joined to the backbone, with a DHCP pool for VMs."""
        if name in self._sites:
            raise SimulationError("site %s already exists" % name)
        switch = self._switch(name)
        self.network.add_router(switch)
        self.network.add_link(switch, _BACKBONE, latency=wan_latency,
                              bandwidth=wan_bandwidth)
        self._sites[name] = DhcpServer(self.sim, subnet="10.%d.0"
                                       % len(self._sites),
                                       pool_size=dhcp_pool)

    @staticmethod
    def _switch(site: str) -> str:
        return site + "-switch"

    def _attach(self, host_name: str, site: str,
                lan_latency: float = _LAN_LATENCY,
                lan_bandwidth: float = _LAN_BANDWIDTH) -> None:
        if site not in self._sites:
            raise SimulationError("unknown site %s (add_site first)" % site)
        self.network.add_host(host_name, site=site)
        self.network.add_link(host_name, self._switch(site),
                              latency=lan_latency, bandwidth=lan_bandwidth)

    def _make_host(self, name: str, site: str,
                   spec: Optional[MachineSpec],
                   cache_bytes: float) -> PhysicalHost:
        if name in self._machines:
            raise SimulationError("host %s already exists" % name)
        machine = PhysicalMachine(self.sim, name, site=site,
                                  spec=spec or MachineSpec())
        self._attach(name, site)
        host = PhysicalHost(machine, cache_bytes=cache_bytes)
        self._machines[name] = machine
        self._hosts[name] = host
        return host

    # -- components ------------------------------------------------------------------

    def add_compute_host(self, name: str, site: str,
                         spec: Optional[MachineSpec] = None,
                         vm_futures: int = 4, max_memory_mb: int = 512,
                         cache_bytes: float = 256 * 1024 * 1024,
                         scheduling: str = "proportional-share"
                         ) -> PhysicalMachine:
        """A physical machine willing to instantiate VMs."""
        host = self._make_host(name, site, spec, cache_bytes)
        self._vmms[name] = VirtualMachineMonitor(host, costs=self.costs)
        self._grams[name] = GramGateway(self.sim, name,
                                        rng=self.streams.stream(
                                            "gram/" + name),
                                        metrics=self.scoped_metrics(name),
                                        sla=self.sla)
        self.info.register("machines", host.machine.describe())
        future = VmFuture(name, site, vm_futures, max_memory_mb,
                          scheduling=scheduling)
        self.info.register("vm_futures", future.describe())
        return host.machine

    def add_image_server(self, name: str, site: str,
                         spec: Optional[MachineSpec] = None,
                         cache_bytes: float = 512 * 1024 * 1024
                         ) -> ImageServer:
        """An image archive host."""
        host = self._make_host(name, site, spec, cache_bytes)
        server = ImageServer(host, self.engine)
        self._image_servers[name] = server
        return server

    def publish_image(self, server_name: str, image_name: str,
                      size_bytes: int, warm_state_mb: Optional[int] = None,
                      **metadata):
        """Create an image on a server and advertise it."""
        server = self.image_server_for(server_name)
        image = server.publish_image(image_name, size_bytes,
                                     warm_state_mb=warm_state_mb,
                                     **metadata)
        self.info.register("images", server.record(image_name))
        return image

    def add_data_server(self, name: str, site: str,
                        spec: Optional[MachineSpec] = None) -> UserDataServer:
        """A user-data storage host."""
        host = self._make_host(name, site, spec, 256 * 1024 * 1024)
        server = UserDataServer(host, self.engine)
        self._data_servers[name] = server
        self.info.register("data_servers", {
            "name": name, "site": site, "host": name})
        return server

    def add_user(self, name: str, home_site: Optional[str] = None,
                 rights: tuple = ("instantiate", "store", "query")
                 ) -> LogicalUser:
        """A logical user, with a home-network gateway for tunnels."""
        site = home_site or "home-" + name
        if site not in self._sites:
            self.add_site(site, wan_latency=0.025, wan_bandwidth=1.25e6,
                          dhcp_pool=8)
        gateway = "gw-" + name
        if gateway not in self.network.hosts:
            self._attach(gateway, site)
        self._gateways[name] = gateway
        user = self.accounts.create_user(name, home_site=site)
        self.accounts.grant(name, "grid", *rights)
        return user

    # -- registry lookups (the interface GridSession consumes) -------------------------

    def host_for(self, name: str) -> PhysicalHost:
        """The host interface of a machine."""
        if name not in self._hosts:
            raise SimulationError("unknown host %s" % name)
        return self._hosts[name]

    def machine_for(self, name: str) -> PhysicalMachine:
        """A machine by name."""
        if name not in self._machines:
            raise SimulationError("unknown machine %s" % name)
        return self._machines[name]

    def vmm_for(self, name: str) -> VirtualMachineMonitor:
        """The VMM on a compute host."""
        if name not in self._vmms:
            raise SimulationError("%s is not a compute host" % name)
        return self._vmms[name]

    def gram_for(self, name: str) -> GramGateway:
        """The GRAM gateway of a compute host."""
        if name not in self._grams:
            raise SimulationError("%s has no GRAM gateway" % name)
        return self._grams[name]

    def image_server_for(self, name: str) -> ImageServer:
        """An image server by host name."""
        if name not in self._image_servers:
            raise SimulationError("%s is not an image server" % name)
        return self._image_servers[name]

    def dhcp_for(self, site: str) -> DhcpServer:
        """The DHCP pool of a site."""
        if site not in self._sites:
            raise SimulationError("unknown site %s" % site)
        return self._sites[site]

    @property
    def data_server(self) -> Optional[UserDataServer]:
        """The primary (first-added) data server, if any."""
        if not self._data_servers:
            return None
        return next(iter(self._data_servers.values()))

    def data_server_for(self, name: str) -> UserDataServer:
        """A data server by host name."""
        if name not in self._data_servers:
            raise SimulationError("%s is not a data server" % name)
        return self._data_servers[name]

    def image_proxy_for(self, host_name: str, server_name: str,
                        cache_bytes: float):
        """The host's shared PVFS proxy onto one image server.

        One proxy per (compute host, image server) pair, shared by every
        session, so read-only master images are cached once and reused —
        the Figure 2 pattern.
        """
        from repro.storage.pvfs import PvfsProxy

        key = (host_name, server_name)
        if key not in self._image_proxies:
            server = self.image_server_for(server_name)
            mount = server.mount_from(host_name)
            self._image_proxies[key] = PvfsProxy(
                self.sim, mount, cache_bytes=cache_bytes,
                name="pvfs-img@%s" % host_name)
        return self._image_proxies[key]

    def home_gateway_of(self, user: str) -> str:
        """The user's home-network gateway host (tunnel endpoint)."""
        if user not in self._gateways:
            raise SimulationError("user %s has no home gateway" % user)
        return self._gateways[user]

    def partition_of(self, host_name: str) -> str:
        """The site owning ``host_name`` ('' if unknown): its shard key."""
        machine = self._machines.get(host_name)
        return "" if machine is None else machine.site

    def scoped_metrics(self, host_name: str):
        """A metrics view keyed to the host's partition.

        Components owned by one host resolve their metrics through this
        once at construction, so every collector they create carries
        the host's shard key (:meth:`partition_of`) —
        the property that lets per-shard registries merge to exactly
        the single-process result.
        """
        return self.sim.metrics.scoped(self.partition_of(host_name))

    # -- sessions ----------------------------------------------------------------------

    def new_session(self, config: SessionConfig) -> GridSession:
        """A six-step session; drive it with ``session.establish()``."""
        return GridSession(self, config)

    def run(self, generator, name: str = ""):
        """Convenience: spawn a process and run the clock to completion."""
        return self.sim.run_until_complete(self.sim.spawn(generator,
                                                          name=name))

    def __repr__(self) -> str:
        return ("<VirtualGrid sites=%d hosts=%d images=%d>"
                % (len(self._sites), len(self._machines),
                   len(self._image_servers)))
