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
* a socket server for running SL-Remote as its own process
  (:mod:`repro.net.server`),
* a leader/followers server and a pipelining, correlation-tagged client for
  fleets of mostly-idle connections (:mod:`repro.net.aio`),
* consistent-hash sharding of the license ledgers across N servers with
  a routing layer (:mod:`repro.net.sharding`), and
* a quorum control plane: depth-K follower replication of shard state
  with identity-quorum acks, epoch-fenced promotion on primary death,
  WAL-shipped follower bootstrap, and online shard membership changes
  (:mod:`repro.net.replication`).
"""

from repro.net.aio import AsyncLeaseServer, AsyncTcpTransport
from repro.net.codec import CodecError, RemoteCallError
from repro.net.endpoint import (
    ENDPOINT_SCHEMES,
    EndpointConfig,
    connect,
    endpoint_for,
    format_endpoint,
    parse_endpoint,
)
from repro.net.errors import (
    DialError,
    Migrating,
    Overloaded,
    RetriesExhausted,
)
from repro.net.network import NetworkConditions, NetworkError, SimulatedLink
from repro.net.replication import (
    BootstrapChunk,
    FollowerStore,
    ReplicaBatch,
    ReplicaDelta,
    ReplicationManager,
    ReplicationSource,
    ShardSnapshot,
)
from repro.net.rpc import RemoteEndpoint, RpcError
from repro.net.server import LeaseServer
from repro.net.stats import (
    RenewalHealth,
    ReplicationHealth,
    ServerStats,
    format_stats,
)
from repro.net.sharding import (
    HashRing,
    ShardRouter,
    ShardRouterTransport,
    ShardedRemote,
    default_shard_names,
)
from repro.net.transport import (
    HandlerTable,
    InProcessTransport,
    SerializedLoopbackTransport,
    TcpTransport,
    Transport,
    TransportError,
    UnknownMethodError,
)

__all__ = [
    "AsyncLeaseServer",
    "AsyncTcpTransport",
    "BootstrapChunk",
    "CodecError",
    "DialError",
    "ENDPOINT_SCHEMES",
    "EndpointConfig",
    "FollowerStore",
    "HandlerTable",
    "HashRing",
    "InProcessTransport",
    "LeaseServer",
    "Migrating",
    "NetworkConditions",
    "NetworkError",
    "Overloaded",
    "RemoteCallError",
    "RemoteEndpoint",
    "RenewalHealth",
    "ReplicaBatch",
    "ReplicaDelta",
    "ReplicationHealth",
    "ReplicationManager",
    "ReplicationSource",
    "RetriesExhausted",
    "RpcError",
    "ServerStats",
    "SerializedLoopbackTransport",
    "ShardRouter",
    "ShardRouterTransport",
    "ShardSnapshot",
    "ShardedRemote",
    "SimulatedLink",
    "TcpTransport",
    "Transport",
    "TransportError",
    "UnknownMethodError",
    "connect",
    "default_shard_names",
    "endpoint_for",
    "format_endpoint",
    "format_stats",
    "parse_endpoint",
]
