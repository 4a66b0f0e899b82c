"""Unit tests for network topology and routing."""

import pytest

from repro.gridnet import Network
from repro.simulation import Simulation, SimulationError


def build_triangle(sim):
    net = Network(sim)
    for host in ("a", "b", "c"):
        net.add_host(host)
    net.add_link("a", "b", latency=0.010, bandwidth=1e6)
    net.add_link("b", "c", latency=0.010, bandwidth=1e6)
    net.add_link("a", "c", latency=0.050, bandwidth=10e6)
    return net


def test_add_duplicate_host_rejected():
    sim = Simulation()
    net = Network(sim)
    net.add_host("a")
    with pytest.raises(SimulationError):
        net.add_host("a")


def test_link_requires_known_nodes():
    sim = Simulation()
    net = Network(sim)
    net.add_host("a")
    with pytest.raises(SimulationError):
        net.add_link("a", "ghost", latency=0.01, bandwidth=1e6)


def test_route_prefers_lowest_latency():
    sim = Simulation()
    net = build_triangle(sim)
    # a->c direct is 50ms; via b it is 20ms.
    assert net.route("a", "c") == ["a", "b", "c"]
    assert net.latency("a", "c") == pytest.approx(0.020)


def test_rtt_is_twice_latency():
    sim = Simulation()
    net = build_triangle(sim)
    assert net.rtt("a", "b") == pytest.approx(0.020)


def test_bottleneck_bandwidth():
    sim = Simulation()
    net = build_triangle(sim)
    assert net.bottleneck_bandwidth("a", "c") == pytest.approx(1e6)


def test_route_to_self_is_trivial():
    sim = Simulation()
    net = build_triangle(sim)
    assert net.route("a", "a") == ["a"]
    assert net.latency("a", "a") == 0.0
    assert net.bottleneck_bandwidth("a", "a") == float("inf")


def test_no_route_raises():
    sim = Simulation()
    net = Network(sim)
    net.add_host("a")
    net.add_host("island")
    with pytest.raises(SimulationError):
        net.route("a", "island")


def test_route_cache_invalidated_by_new_link():
    sim = Simulation()
    net = Network(sim)
    for host in ("a", "b", "c"):
        net.add_host(host)
    net.add_link("a", "b", latency=0.01, bandwidth=1e6)
    net.add_link("b", "c", latency=0.01, bandwidth=1e6)
    assert net.route("a", "c") == ["a", "b", "c"]
    net.add_link("a", "c", latency=0.001, bandwidth=1e6)
    assert net.route("a", "c") == ["a", "c"]


def test_single_lan_builder():
    sim = Simulation()
    net = Network.single_lan(sim, ["h1", "h2", "h3"])
    assert sorted(net.hosts) == ["h1", "h2", "h3"]
    # Host-switch-host: two LAN hops.
    assert net.rtt("h1", "h2") == pytest.approx(4 * 5e-5)
    assert net.bottleneck_bandwidth("h1", "h2") == pytest.approx(12.5e6)


def test_two_site_wan_builder():
    sim = Simulation()
    net = Network.two_site_wan(sim, "uf", ["compute"], "nw", ["image"])
    assert net.has_host("compute") and net.has_host("image")
    # LAN + WAN + LAN latency, dominated by the 15 ms WAN hop.
    assert net.latency("compute", "image") == pytest.approx(0.015 + 2 * 5e-5)
    assert net.bottleneck_bandwidth("compute", "image") == pytest.approx(2.5e6)
    assert net.host_attributes("compute")["site"] == "uf"


def test_link_between():
    sim = Simulation()
    net = build_triangle(sim)
    link = net.link_between("a", "b")
    assert link is not None and link.latency == pytest.approx(0.010)
    assert net.link_between("b", "a") is link


# -- site-level lookahead queries (the sharded engine's safety margin) --------


def build_three_sites(sim):
    """Three LANs star-joined over a backbone at distinct WAN latencies."""
    net = Network(sim)
    net.add_router("backbone")
    for site, wan in (("uf", 0.010), ("nw", 0.020), ("anl", 0.040)):
        switch = site + "-sw"
        net.add_router(switch)
        net.add_link(switch, "backbone", latency=wan, bandwidth=2.5e6)
        for index in range(2):
            host = "%s-h%d" % (site, index)
            net.add_host(host, site=site)
            net.add_link(host, switch, latency=0.001 * (index + 1),
                         bandwidth=12.5e6)
    return net


def test_sites_and_hosts_in_are_sorted():
    net = build_three_sites(Simulation())
    assert net.sites() == ["anl", "nw", "uf"]
    assert net.hosts_in("uf") == ["uf-h0", "uf-h1"]
    assert net.hosts_in("ghost") == []


def test_min_latency_is_min_over_host_pairs():
    net = build_three_sites(Simulation())
    # Cheapest uf<->nw pair is h0<->h0: 0.001 + 0.010 + 0.020 + 0.001.
    expected = min(net.latency(a, b)
                   for a in net.hosts_in("uf") for b in net.hosts_in("nw"))
    assert net.min_latency("uf", "nw") == expected
    assert net.min_latency("uf", "nw") == pytest.approx(0.032)
    # And it lower-bounds every per-path latency a flow would ride.
    for a in net.hosts_in("uf"):
        for b in net.hosts_in("nw"):
            assert net.min_latency("uf", "nw") <= net.latency(a, b)


def test_min_latency_is_symmetric():
    net = build_three_sites(Simulation())
    for a in ("uf", "nw", "anl"):
        for b in ("uf", "nw", "anl"):
            if a != b:
                assert net.min_latency(a, b) == net.min_latency(b, a)


def test_min_latency_rejects_self_and_unknown_sites():
    net = build_three_sites(Simulation())
    with pytest.raises(SimulationError):
        net.min_latency("uf", "uf")
    with pytest.raises(SimulationError):
        net.min_latency("uf", "ghost")


def test_min_latency_disconnected_sites_is_infinite():
    sim = Simulation()
    net = Network(sim)
    net.add_host("a", site="left")
    net.add_host("b", site="right")  # no link between them
    assert net.min_latency("left", "right") == float("inf")


def test_site_matrix_cache_invalidated_by_topology_change():
    net = build_three_sites(Simulation())
    before = net.min_latency("uf", "anl")
    assert before == pytest.approx(0.052)
    # A shortcut link between the two switches must bust the cache.
    net.add_link("uf-sw", "anl-sw", latency=0.005, bandwidth=2.5e6)
    assert net.min_latency("uf", "anl") == pytest.approx(0.007)
    assert net.min_latency("uf", "anl") < before


def test_site_lookaheads_returns_full_symmetric_matrix():
    net = build_three_sites(Simulation())
    matrix = net.site_lookaheads()
    assert set(matrix) == {(a, b)
                           for a in ("anl", "nw", "uf")
                           for b in ("anl", "nw", "uf") if a != b}
    for (a, b), value in matrix.items():
        assert value == net.min_latency(a, b)
    # The copy is detached: mutating it must not poison the cache.
    matrix[("uf", "nw")] = 0.0
    assert net.min_latency("uf", "nw") == pytest.approx(0.032)


# -- partition-level lookaheads (host and custom shard models) ----------------


def test_host_lookaheads_cover_every_host_pair():
    net = build_three_sites(Simulation())
    matrix = net.partition_lookaheads({name: name for name in net.hosts})
    hosts = sorted(net.hosts)
    assert set(matrix) == {(a, b) for a in hosts for b in hosts if a != b}
    for (a, b), value in matrix.items():
        assert value == net.latency(a, b)  # singleton groups: exact


def test_host_lookaheads_tighter_than_site_for_lan_pairs():
    """Same-site host pairs get LAN latencies — boundaries the site
    model cannot even express (intra-site is never a site boundary)."""
    net = build_three_sites(Simulation())
    matrix = net.partition_lookaheads({name: name for name in net.hosts})
    assert matrix[("uf-h0", "uf-h1")] == pytest.approx(0.003)
    # Cross-site entries can never undercut the site matrix.
    for (a, b), value in matrix.items():
        site_a = net.host_attributes(a)["site"]
        site_b = net.host_attributes(b)["site"]
        if site_a != site_b:
            assert value >= net.min_latency(site_a, site_b)


def test_partition_lookaheads_custom_grouping():
    net = build_three_sites(Simulation())
    # Pair up uf+nw against anl; leave anl-h1 out of the partition.
    partition = {"uf-h0": "west", "uf-h1": "west", "nw-h0": "west",
                 "nw-h1": "west", "anl-h0": "east"}
    matrix = net.partition_lookaheads(partition)
    assert set(matrix) == {("east", "west"), ("west", "east")}
    expected = min(net.latency(a, "anl-h0")
                   for a in ("uf-h0", "uf-h1", "nw-h0", "nw-h1"))
    assert matrix[("west", "east")] == expected
    assert matrix[("east", "west")] == expected


def test_partition_lookaheads_site_partition_matches_site_matrix():
    net = build_three_sites(Simulation())
    partition = {name: net.host_attributes(name)["site"]
                 for name in net.hosts}
    assert net.partition_lookaheads(partition) == net.site_lookaheads()


def test_partition_lookaheads_rejects_unknown_host():
    net = build_three_sites(Simulation())
    with pytest.raises(SimulationError):
        net.partition_lookaheads({"ghost": "g"})


def test_partition_lookaheads_disconnected_groups_are_infinite():
    sim = Simulation()
    net = Network(sim)
    net.add_host("a", site="left")
    net.add_host("b", site="right")  # no link
    matrix = net.partition_lookaheads({"a": "a", "b": "b"})
    assert matrix[("a", "b")] == float("inf")
