"""Property-based tests of max-min fairness in the flow engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gridnet import FlowEngine, Network
from repro.simulation import Simulation


def star_network(sim, n_hosts, access_bws):
    """Hosts around one hub; host i's access link has bandwidth bws[i]."""
    net = Network(sim)
    net.add_router("hub")
    for i, bw in enumerate(access_bws):
        net.add_host("h%d" % i)
        net.add_link("h%d" % i, "hub", latency=0.0, bandwidth=bw)
    return net


@settings(max_examples=40, deadline=None)
@given(bws=st.lists(st.floats(min_value=1e5, max_value=1e7),
                    min_size=2, max_size=6))
def test_allocation_never_exceeds_any_link(bws):
    """Sum of rates through each link stays within its capacity."""
    sim = Simulation()
    net = star_network(sim, len(bws), bws)
    engine = FlowEngine(sim, net)
    # All hosts send to host 0 concurrently.
    flows = [engine.start_flow("h%d" % i, "h0", 1e9)
             for i in range(1, len(bws))]
    rates = {flow: engine.current_rate(flow) for flow in flows}
    # Host 0's access link carries every flow.
    assert sum(rates.values()) <= bws[0] * (1 + 1e-9)
    # Each sender is limited by its own access link.
    for i, flow in enumerate(flows, start=1):
        assert rates[flow] <= bws[i] * (1 + 1e-9)
    # Cancel cleanly (avoid running the gigantic transfers out).
    for flow in flows:
        flow.remaining = 0.0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=6))
def test_equal_flows_get_equal_rates(n):
    sim = Simulation()
    net = star_network(sim, n + 1, [1e6] * (n + 1))
    engine = FlowEngine(sim, net)
    flows = [engine.start_flow("h%d" % i, "h0", 1e8)
             for i in range(1, n + 1)]
    rates = [engine.current_rate(flow) for flow in flows]
    assert max(rates) - min(rates) < 1e-6
    assert sum(rates) == pytest.approx(1e6, rel=1e-9)
    for flow in flows:
        flow.remaining = 0.0


@settings(max_examples=30, deadline=None)
@given(fast_bw=st.floats(min_value=2e6, max_value=1e7))
def test_max_min_property_bottlenecked_flow_cannot_gain(fast_bw):
    """The flow pinned by its own slow access link does not reduce what
    faster flows get — the defining max-min property."""
    sim = Simulation()
    net = star_network(sim, 3, [fast_bw + 1e6, 1e6, fast_bw])
    engine = FlowEngine(sim, net)
    slow = engine.start_flow("h1", "h0", 1e9)     # 1 MB/s access
    fast = engine.start_flow("h2", "h0", 1e9)
    slow_rate = engine.current_rate(slow)
    fast_rate = engine.current_rate(fast)
    assert slow_rate == pytest.approx(1e6, rel=1e-6)
    # Fast flow receives everything the shared link has left.
    assert fast_rate == pytest.approx(min(fast_bw, fast_bw + 1e6 - 1e6),
                                      rel=1e-6)
    slow.remaining = 0.0
    fast.remaining = 0.0


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.floats(min_value=1e5, max_value=2e6),
                      min_size=1, max_size=5))
def test_all_bytes_always_delivered(sizes):
    sim = Simulation()
    net = star_network(sim, len(sizes) + 1, [1e6] * (len(sizes) + 1))
    engine = FlowEngine(sim, net)
    flows = [engine.start_flow("h%d" % (i + 1), "h0", size)
             for i, size in enumerate(sizes)]
    sim.run()
    for flow, size in zip(flows, sizes):
        assert flow.remaining == 0.0
        assert flow.finished_at is not None
        # A flow can never beat its own access link.
        assert flow.finished_at >= size / 1e6 - 1e-6


# -- multi-site invariants ------------------------------------------------------


def multi_site(sim, lan_bws, wan_bws):
    """len(lan_bws) sites chained over WAN links.

    ``lan_bws[s][h]`` is host h's access bandwidth at site s;
    ``wan_bws[s]`` joins site s's router to site s+1's.
    """
    net = Network(sim)
    for s, hosts in enumerate(lan_bws):
        net.add_router("r%d" % s)
        for h, bw in enumerate(hosts):
            name = "s%dh%d" % (s, h)
            net.add_host(name, site="site%d" % s)
            net.add_link(name, "r%d" % s, latency=0.001, bandwidth=bw)
    for s, bw in enumerate(wan_bws):
        net.add_link("r%d" % s, "r%d" % (s + 1), latency=0.010,
                     bandwidth=bw)
    return net


@st.composite
def grid_scenarios(draw):
    """A chained multi-site topology plus a flow list over it.

    Flows are ``((src, dst), cap)`` with host indices into ``hosts``;
    ``cap`` is ``None`` or a per-flow bandwidth cap.
    """
    lan_bws = draw(st.lists(
        st.lists(st.floats(min_value=1e5, max_value=1e7),
                 min_size=1, max_size=3),
        min_size=2, max_size=3))
    wan_bws = draw(st.lists(st.floats(min_value=1e5, max_value=5e6),
                            min_size=len(lan_bws) - 1,
                            max_size=len(lan_bws) - 1))
    hosts = ["s%dh%d" % (s, h)
             for s, site in enumerate(lan_bws) for h in range(len(site))]
    pairs = st.tuples(st.integers(0, len(hosts) - 1),
                      st.integers(0, len(hosts) - 1))
    caps = st.one_of(st.none(),
                     st.floats(min_value=5e4, max_value=2e6))
    flow_specs = draw(st.lists(st.tuples(pairs, caps),
                               min_size=1, max_size=8))
    return lan_bws, wan_bws, hosts, flow_specs


def start_flows(engine, hosts, flow_specs, nbytes):
    """Start every non-loopback flow of ``flow_specs``."""
    return [engine.start_flow(hosts[src], hosts[dst], nbytes,
                              bandwidth_cap=cap)
            for (src, dst), cap in flow_specs if src != dst]


def assert_max_min(engine):
    """The allocation of the current membership is a max-min one.

    * no link carries more than its bandwidth;
    * no capped flow exceeds its cap;
    * every uncapped flow with a positive rate crosses a saturated link
      on which no other flow gets more (its bottleneck).
    """
    rates = {flow: engine.current_rate(flow) for flow in engine.active_flows}
    usage = engine.link_usage()
    for link, used in usage.items():
        assert used <= link.bandwidth * (1 + 1e-9)
    for flow, rate in rates.items():
        if flow.bandwidth_cap is not None:
            assert rate <= flow.bandwidth_cap
        elif rate > 0:
            assert any(
                usage[link] >= link.bandwidth * (1 - 1e-9)
                and all(rates[other] <= rate * (1 + 1e-9)
                        for other in rates if link in other.links)
                for link in flow.links), flow


@settings(max_examples=50, deadline=None)
@given(scenario=grid_scenarios())
def test_multi_site_allocation_is_max_min(scenario):
    """Chained WAN, per-flow caps: link, cap and bottleneck invariants."""
    lan_bws, wan_bws, hosts, flow_specs = scenario
    sim = Simulation()
    engine = FlowEngine(sim, multi_site(sim, lan_bws, wan_bws))
    flows = start_flows(engine, hosts, flow_specs, 1e9)
    assert_max_min(engine)
    for flow in flows:
        flow.remaining = 0.0  # don't run the gigantic transfers out


@settings(max_examples=30, deadline=None)
@given(scenario=grid_scenarios(), cut=st.integers(0, 7),
       delay=st.floats(min_value=0.0, max_value=0.5),
       nbytes=st.floats(min_value=1e4, max_value=5e5))
def test_churn_conserves_bytes(scenario, cut, delay, nbytes):
    """Joins in two waves, then natural finishes.

    The allocation is max-min after every membership change, and each
    flow's sum of rate * dt over its membership intervals equals its
    bytes once the run completes.
    """
    lan_bws, wan_bws, hosts, flow_specs = scenario
    sim = Simulation()
    engine = FlowEngine(sim, multi_site(sim, lan_bws, wan_bws))
    # (time, rates) after every membership change: each rate holds
    # from that instant until the next change.
    history = []
    reschedule = engine._reschedule

    def recording_reschedule():
        reschedule()
        assert_max_min(engine)
        history.append((sim.now, {flow: engine.current_rate(flow)
                                  for flow in engine.active_flows}))

    engine._reschedule = recording_reschedule
    flows = start_flows(engine, hosts, flow_specs[:cut], nbytes)
    sim.call_at(delay, lambda _sim: flows.extend(
        start_flows(engine, hosts, flow_specs[cut:], nbytes)))
    sim.run()
    assert not engine.active_flows
    delivered = dict.fromkeys(flows, 0.0)
    for (start, rates), (end, _next) in zip(history, history[1:]):
        for flow, rate in rates.items():
            delivered[flow] += rate * (end - start)
    for flow in flows:
        assert flow.finished_at is not None
        assert delivered[flow] == pytest.approx(nbytes, rel=1e-9,
                                                abs=1e-5)
