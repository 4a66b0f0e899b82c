"""NFS: block RPC file access over the simulated network.

An :class:`NfsServer` exports a host's :class:`LocalFileSystem`; an
:class:`NfsClient` on another (or the same!) host mounts it, producing an
:class:`NfsMount` that implements the standard :class:`FileSystem`
interface.  Mounting a server that lives on the *same* host is exactly
Table 2's "LoopbackNFS" configuration: path latency vanishes but the
RPC stack costs (per-call overhead and per-byte copies) remain.

Timing model for a read of N consecutive missing chunks:

* ``ceil(N / window)`` request round trips (the client keeps ``window``
  read-aheads outstanding, as real NFS clients do),
* per-chunk RPC processing at the server (XDR, context switches),
* per-byte protocol copy costs,
* the server's disk (through its buffer cache), and
* the reply bytes as a network flow sharing the path max-min fairly.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.gridnet.flows import FlowEngine
from repro.simulation.kernel import Simulation
from repro.storage.base import FileSystem, StorageError, block_span
from repro.storage.cache import BlockCache
from repro.storage.localfs import LocalFileSystem

__all__ = ["NfsServer", "NfsClient", "NfsMount"]


class NfsServer:
    """Exports one local file system at one network host."""

    def __init__(self, sim: Simulation, host: str, fs: LocalFileSystem,
                 engine: FlowEngine, rpc_overhead: float = 3e-4,
                 per_byte_cost: float = 6e-8, chunk_size: int = 32768,
                 name: str = "nfsd"):
        if rpc_overhead < 0 or per_byte_cost < 0 or chunk_size <= 0:
            raise StorageError("invalid NFS server parameters")
        self.sim = sim
        self.host = host
        self.fs = fs
        self.engine = engine
        self.rpc_overhead = float(rpc_overhead)
        self.per_byte_cost = float(per_byte_cost)
        self.chunk_size = int(chunk_size)
        self.name = name
        self.rpc_count = 0
        self.bytes_served = 0

    def __repr__(self) -> str:
        return "<NfsServer %s@%s>" % (self.name, self.host)


class NfsClient:
    """Mount factory bound to one client host."""

    def __init__(self, sim: Simulation, host: str, engine: FlowEngine,
                 window: int = 8, cache_bytes: float = 64 * 1024 * 1024):
        self.sim = sim
        self.host = host
        self.engine = engine
        self.window = int(window)
        self.cache_bytes = cache_bytes

    def mount(self, server: NfsServer, name: str = "") -> "NfsMount":
        """Attach a server export; returns the mounted file system."""
        return NfsMount(self, server,
                        name=name or "%s:%s" % (server.host, server.name))


class NfsMount(FileSystem):
    """A mounted NFS export, usable like any other file system.

    ``loopback`` is True when client and server share a host — the
    paper's simulated-remote-file-system configuration.
    """

    def __init__(self, client: NfsClient, server: NfsServer, name: str):
        self.sim = client.sim
        self.client = client
        self.server = server
        self.name = name
        self.block_size = server.chunk_size
        self.cache = BlockCache(client.cache_bytes,
                                block_size=self.block_size,
                                name=name + ".clientcache")
        network = client.engine.network
        self._latency = network.latency(client.host, server.host)
        metrics = self.sim.metrics
        self._m_rpcs = metrics.counter("storage.nfs.rpc_calls")
        self._m_bytes = metrics.counter("storage.nfs.bytes")

    @property
    def loopback(self) -> bool:
        """True when the mount points back at the client's own host."""
        return self.client.host == self.server.host

    # -- metadata (one getattr round trip, not modelled per call) -----------

    def exists(self, name: str) -> bool:
        return self.server.fs.exists(name)

    def size(self, name: str) -> int:
        return self.server.fs.size(name)

    def listdir(self) -> List[str]:
        return self.server.fs.listdir()

    def create(self, name: str, size: int = 0) -> None:
        self.server.fs.create(name, size)

    def delete(self, name: str) -> None:
        self.server.fs.delete(name)
        self.cache.invalidate_file((self.name, name))

    # -- data path -----------------------------------------------------------

    def read(self, name: str, offset: int, nbytes: int,
             sequential: bool = True):
        """Read a byte range; client-cached chunks skip the wire."""
        size = self.server.fs.size(name)
        if offset + nbytes > size:
            raise StorageError("read past end of %s" % name)
        yield from self.cache.scan(
            (self.name, name), block_span(offset, nbytes, self.block_size),
            lambda run: self._fetch_run(name, run))

    def _fetch_run(self, name: str, blocks: range):
        """RPC-fetch a run of consecutive chunks with read-ahead."""
        server = self.server
        nbytes = len(blocks) * self.block_size
        round_trips = math.ceil(len(blocks) / self.client.window)
        # Request round trips (read-ahead keeps `window` calls in flight).
        if self._latency:
            yield self.sim.timeout(2.0 * self._latency * round_trips)
        # Server-side RPC processing: per-call plus per-byte stack costs.
        yield self.sim.timeout(len(blocks) * server.rpc_overhead
                               + nbytes * server.per_byte_cost)
        # Server storage: clamp the run to the file (span may overshoot).
        span_offset = blocks[0] * self.block_size
        span_bytes = min(nbytes, server.fs.size(name) - span_offset)
        yield from server.fs.read(name, span_offset, span_bytes,
                                  sequential=len(blocks) > 1)
        # Reply payload rides the network as a flow.
        if not self.loopback:
            flow = self.client.engine.start_flow(server.host,
                                                 self.client.host, nbytes)
            yield flow.done
        server.rpc_count += len(blocks)
        server.bytes_served += nbytes
        self._m_rpcs.inc(len(blocks))
        self._m_bytes.inc(nbytes)

    def write(self, name: str, offset: int, nbytes: int,
              sequential: bool = True):
        """Write through to the server (NFSv2-style synchronous writes)."""
        server = self.server
        blocks = block_span(offset, nbytes, self.block_size)
        if not blocks:
            return
        round_trips = math.ceil(len(blocks) / self.client.window)
        if self._latency:
            yield self.sim.timeout(2.0 * self._latency * round_trips)
        payload = len(blocks) * self.block_size
        if not self.loopback:
            flow = self.client.engine.start_flow(self.client.host,
                                                 server.host, payload)
            yield flow.done
        yield self.sim.timeout(len(blocks) * server.rpc_overhead
                               + payload * server.per_byte_cost)
        yield from server.fs.write(name, offset, nbytes,
                                   sequential=sequential)
        server.rpc_count += len(blocks)
        server.bytes_served += payload
        self._m_rpcs.inc(len(blocks))
        self._m_bytes.inc(payload)
        self.cache.insert_run((self.name, name), blocks)

    def __repr__(self) -> str:
        kind = "loopback" if self.loopback else "remote"
        return "<NfsMount %s (%s)>" % (self.name, kind)
