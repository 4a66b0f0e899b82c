"""Network substrate and the paper's virtual-networking mechanisms.

The bottom half is a flow-level network model:

* :class:`~repro.gridnet.topology.Network` — hosts, routers and links in
  an adjacency dict, with shortest-path routing by
  :func:`~repro.gridnet.topology.shortest_path` (a heap Dijkstra);
* :class:`~repro.gridnet.flows.FlowEngine` — max-min fair fluid bandwidth
  sharing along routed paths;
* :class:`~repro.gridnet.topology.Link` — latency/bandwidth edges.

The top half implements Section 3.3 of the paper:

* :class:`~repro.gridnet.dhcp.DhcpServer` — scenario 1, the site hands
  out addresses to dynamic VM instances;
* :class:`~repro.gridnet.tunnel.EthernetTunnel` — scenario 2, traffic is
  tunnelled at the Ethernet level to the user's home network;
* :class:`~repro.gridnet.overlay.OverlayNetwork` — the self-optimizing
  overlay among remote virtual machines.
"""

from repro.gridnet.dhcp import DhcpServer, Lease, NoAddressAvailable
from repro.gridnet.flows import Flow, FlowEngine
from repro.gridnet.overlay import OverlayNetwork
from repro.gridnet.topology import Link, Network
from repro.gridnet.tunnel import EthernetTunnel

__all__ = [
    "DhcpServer",
    "EthernetTunnel",
    "Flow",
    "FlowEngine",
    "Lease",
    "Link",
    "Network",
    "NoAddressAvailable",
    "OverlayNetwork",
]
