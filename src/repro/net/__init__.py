"""Simulated and real networking between SL-Local machines and SL-Remote.

Algorithm 1's inputs include network reliability; the Figure 9
breakdown separates local allocation cost from lease-renewal cost
(dominated by the network round trip plus remote attestation).  This
package supplies:

* a latency/reliability-parameterised channel (:mod:`repro.net.network`),
* the wire codec for every protocol message — one CRC-checked binary
  format (:mod:`repro.net.codec`),
* pluggable transports — in-process, serialized loopback, and real TCP —
  behind one :class:`~repro.net.transport.Transport` interface
  (:mod:`repro.net.transport`),
* one endpoint factory, :func:`~repro.net.endpoint.connect`, taking
  URL-style endpoints (``sl://``, ``sl+async://``, ``sl+sharded://``,
  ``sl+inproc://``, ``sl+serialized://``) with every client knob in one
  :class:`~repro.net.endpoint.EndpointConfig` (:mod:`repro.net.endpoint`),
* a typed transport error hierarchy (:mod:`repro.net.errors`),
* an RPC endpoint dispatching protocol messages to SL-Remote handlers
  (:mod:`repro.net.rpc`),
* the socket server that runs SL-Remote as its own process — a
  thread pool waiting in one Linux epoll, built for fleets of mostly-idle
  connections — and a pipelining, correlation-tagged client
  (:mod:`repro.net.aio`),
* consistent-hash sharding of the license ledgers across N servers with
  a routing layer (:mod:`repro.net.sharding`), and
* a quorum control plane: depth-K follower replication of shard state
  with identity-quorum acks, epoch-fenced promotion on primary death,
  WAL-shipped follower bootstrap, and online shard membership changes
  (:mod:`repro.net.replication`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "AsyncLeaseServer": "repro.net.aio",
    "AsyncTcpTransport": "repro.net.aio",
    "CodecError": "repro.net.codec",
    "RemoteCallError": "repro.net.codec",
    "ENDPOINT_SCHEMES": "repro.net.endpoint",
    "EndpointConfig": "repro.net.endpoint",
    "connect": "repro.net.endpoint",
    "endpoint_for": "repro.net.endpoint",
    "format_endpoint": "repro.net.endpoint",
    "parse_endpoint": "repro.net.endpoint",
    "DialError": "repro.net.errors",
    "Migrating": "repro.net.errors",
    "Overloaded": "repro.net.errors",
    "RetriesExhausted": "repro.net.errors",
    "NetworkConditions": "repro.net.network",
    "NetworkError": "repro.net.network",
    "SimulatedLink": "repro.net.network",
    "BootstrapChunk": "repro.net.replication",
    "FollowerStore": "repro.net.replication",
    "ReplicaBatch": "repro.net.replication",
    "ReplicaDelta": "repro.net.replication",
    "ReplicationManager": "repro.net.replication",
    "ReplicationSource": "repro.net.replication",
    "ShardSnapshot": "repro.net.replication",
    "RemoteEndpoint": "repro.net.rpc",
    "RpcError": "repro.net.rpc",
    "RenewalHealth": "repro.net.stats",
    "ReplicationHealth": "repro.net.stats",
    "ServerStats": "repro.net.stats",
    "format_stats": "repro.net.stats",
    "HashRing": "repro.net.sharding",
    "ShardRouter": "repro.net.sharding",
    "ShardRouterTransport": "repro.net.sharding",
    "ShardedRemote": "repro.net.sharding",
    "default_shard_names": "repro.net.sharding",
    "HandlerTable": "repro.net.transport",
    "InProcessTransport": "repro.net.transport",
    "SerializedLoopbackTransport": "repro.net.transport",
    "TcpTransport": "repro.net.transport",
    "Transport": "repro.net.transport",
    "TransportError": "repro.net.transport",
    "UnknownMethodError": "repro.net.transport",
})
