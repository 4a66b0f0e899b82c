"""A simple but faithful disk model: positioning cost plus streaming rate.

Requests queue FIFO at the disk arm.  Every request pays one positioning
cost (seek + rotational latency), then streams its payload at the media
transfer rate.  Callers that stream issue one request per contiguous run,
so this is enough to reproduce the two disk behaviours the paper's Table
2 depends on: bulk image copies run at streaming speed, while a cold
guest-OS boot issuing thousands of small scattered reads is dominated by
positioning time.
"""

from __future__ import annotations

from repro.simulation.kernel import Simulation, SimulationError
from repro.simulation.resources import Resource

__all__ = ["Disk"]


class Disk:
    """A single-arm disk with FIFO queueing.

    Parameters
    ----------
    seek_time:
        Average positioning cost per request, seconds.
    transfer_rate:
        Streaming bandwidth, bytes/second.
    """

    def __init__(self, sim: Simulation, seek_time: float = 0.004,
                 transfer_rate: float = 40e6, name: str = "disk"):
        if seek_time < 0 or transfer_rate <= 0:
            raise SimulationError("invalid disk parameters")
        self.sim = sim
        self.name = name
        self.seek_time = float(seek_time)
        self.transfer_rate = float(transfer_rate)
        self._arm = Resource(sim, capacity=1)
        self.bytes_read = 0
        self.bytes_written = 0

    def service_time(self, nbytes: int) -> float:
        """Time the arm is busy for one request (no queueing)."""
        return self.seek_time + nbytes / self.transfer_rate

    def read(self, nbytes: int):
        """The process generator that reads ``nbytes`` (FIFO queued)."""
        return self._access(nbytes, False)

    def write(self, nbytes: int):
        """The process generator that writes ``nbytes`` (FIFO queued)."""
        return self._access(nbytes, True)

    def _access(self, nbytes: int, write: bool):
        if nbytes < 0:
            raise SimulationError("transfer size must be non-negative")
        request = self._arm.request()
        yield request
        try:
            yield self.sim.timeout(self.service_time(nbytes))
        finally:
            self._arm.release(request)
        if write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes

    def __repr__(self) -> str:
        return "<Disk %s %.0f MB/s>" % (self.name, self.transfer_rate / 1e6)
