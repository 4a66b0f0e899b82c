"""Unit tests for disk, NIC and machine composition."""

import pytest

from repro.hardware import Disk, MachineSpec, NetworkInterface, PhysicalMachine
from repro.simulation import Simulation, SimulationError


# ---------------------------------------------------------------------------
# Disk
# ---------------------------------------------------------------------------

def test_disk_read_pays_one_seek_plus_stream():
    sim = Simulation()
    disk = Disk(sim, seek_time=0.01, transfer_rate=10e6)

    def reader(sim):
        yield from disk.read(10_000_000)
        return sim.now

    proc = sim.spawn(reader(sim))
    assert sim.run_until_complete(proc) == pytest.approx(1.01)


def test_disk_random_read_pays_seek():
    sim = Simulation()
    disk = Disk(sim, seek_time=0.01, transfer_rate=10e6)

    def reader(sim):
        yield from disk.read(0)
        return sim.now

    proc = sim.spawn(reader(sim))
    assert sim.run_until_complete(proc) == pytest.approx(0.01)


def test_disk_requests_queue_fifo():
    sim = Simulation()
    disk = Disk(sim, seek_time=0.0, transfer_rate=1e6)
    finishes = []

    def reader(sim, nbytes):
        yield from disk.read(nbytes)
        finishes.append(sim.now)

    sim.spawn(reader(sim, 1_000_000))  # 1s
    sim.spawn(reader(sim, 2_000_000))  # 2s, starts after first
    sim.run()
    assert finishes == [pytest.approx(1.0), pytest.approx(3.0)]


def test_disk_counts_traffic():
    sim = Simulation()
    disk = Disk(sim)

    def worker(sim):
        yield from disk.read(100)
        yield from disk.write(200)

    sim.spawn(worker(sim))
    sim.run()
    assert disk.bytes_read == 100
    assert disk.bytes_written == 200


def test_disk_parameter_validation():
    sim = Simulation()
    with pytest.raises(SimulationError):
        Disk(sim, seek_time=-1.0)
    with pytest.raises(SimulationError):
        Disk(sim, transfer_rate=0.0)


# ---------------------------------------------------------------------------
# NIC
# ---------------------------------------------------------------------------

def test_nic_serialization_time():
    sim = Simulation()
    nic = NetworkInterface(sim, bandwidth=12.5e6)  # 100 Mb/s
    assert nic.serialization_time(12_500_000) == pytest.approx(1.0)


def test_nic_tx_and_rx_are_independent():
    sim = Simulation()
    nic = NetworkInterface(sim, bandwidth=1e6)
    finishes = {}

    def sender(sim):
        yield from nic.transmit(1_000_000)
        finishes["tx"] = sim.now

    def receiver(sim):
        yield from nic.receive(1_000_000)
        finishes["rx"] = sim.now

    sim.spawn(sender(sim))
    sim.spawn(receiver(sim))
    sim.run()
    assert finishes["tx"] == pytest.approx(1.0)
    assert finishes["rx"] == pytest.approx(1.0)


def test_nic_tx_serializes():
    sim = Simulation()
    nic = NetworkInterface(sim, bandwidth=1e6)
    finishes = []

    def sender(sim):
        yield from nic.transmit(1_000_000)
        finishes.append(sim.now)

    sim.spawn(sender(sim))
    sim.spawn(sender(sim))
    sim.run()
    assert finishes == [pytest.approx(1.0), pytest.approx(2.0)]


def test_nic_counts_traffic():
    sim = Simulation()
    nic = NetworkInterface(sim, bandwidth=1e9)

    def worker(sim):
        yield from nic.transmit(10)
        yield from nic.receive(20)

    sim.spawn(worker(sim))
    sim.run()
    assert nic.bytes_sent == 10
    assert nic.bytes_received == 20


# ---------------------------------------------------------------------------
# PhysicalMachine
# ---------------------------------------------------------------------------

def test_machine_composes_hardware():
    sim = Simulation()
    machine = PhysicalMachine(sim, "node1", site="uf")
    assert machine.cpu.cores == 2
    assert machine.disk is not None
    assert machine.nic is not None
    assert machine.memory_mb == 1024


def test_machine_describe_for_information_service():
    sim = Simulation()
    spec = MachineSpec(cores=4, memory_mb=2048,
                       attributes={"willing_vm_futures": 3})
    machine = PhysicalMachine(sim, "big", site="nw", spec=spec)
    record = machine.describe()
    assert record["name"] == "big"
    assert record["site"] == "nw"
    assert record["cores"] == 4
    assert record["memory_mb"] == 2048
    assert record["willing_vm_futures"] == 3
    assert record["architecture"] == "x86"


def test_machine_requires_name():
    sim = Simulation()
    with pytest.raises(SimulationError):
        PhysicalMachine(sim, "")
