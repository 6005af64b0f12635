"""One way to reach an SL-Remote: URL endpoints and ``connect()``.

A single factory taking URL-style endpoints::

    connect("sl://127.0.0.1:4870")                      # threaded TCP
    connect("sl+async://127.0.0.1:4870")                # pipelining TCP
    connect("sl+sharded://h1:4870,h2:4871?io=async")    # routed fleet
    connect("sl+sharded://h1:4870,h2:4871?replicas=1")  # + failover
    connect("sl+inproc://", remote=remote, link=link)   # loopback
    connect("sl+serialized://", remote=remote, link=link)

and one :class:`EndpointConfig` dataclass carrying every transport knob
exactly once, validated in its ``__post_init__`` and nowhere else.

Precedence: keyword overrides are applied over the base config, then
URL query parameters over both — what is written in the endpoint string
is the most explicit statement of intent.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: Endpoint schemes understood by :func:`connect`, mapped to the
#: transport family they select.
ENDPOINT_SCHEMES = {
    "sl": "tcp",
    "sl+async": "async-tcp",
    "sl+sharded": "shard-router",
    "sl+inproc": "in-process",
    "sl+serialized": "serialized",
}

#: Schemes that dispatch in-process (no network authority in the URL).
_LOOPBACK_SCHEMES = ("sl+inproc", "sl+serialized")


@dataclass(frozen=True)
class EndpointConfig:
    """Every client-side transport knob, validated in one place.

    ``timeout_seconds``/``max_attempts``/``backoff_seconds`` govern the
    per-call retry budget; ``reconnect_attempts``/
    ``reconnect_backoff_seconds`` the separate dial budget;
    ``io``/``ring_replicas`` the sharded fleet shape;
    ``migrate_retries`` bounds how many :class:`~repro.core.protocol.
    MigratingNotice` retry-after waits a router absorbs before raising
    :class:`~repro.net.errors.Migrating`; ``replicas > 0`` declares the
    fleet replicated, which arms the router's dial-failure failover.
    ``data_dir`` makes a *loopback* endpoint's remote durable (recover
    on connect, journal from then on); socket schemes reject it — the
    server process owns its own ``--data-dir``.

    ``batch_window > 0`` turns on renewal coalescing: concurrent
    ``renew`` calls that land on one transport within the window travel
    as a single ``BatchRequest`` frame.
    """

    timeout_seconds: float = 5.0
    max_attempts: int = 5
    backoff_seconds: float = 0.05
    reconnect_attempts: int = 4
    reconnect_backoff_seconds: float = 0.05
    io: str = "threads"
    ring_replicas: int = 64
    migrate_retries: int = 40
    replicas: int = 0
    data_dir: Optional[str] = None
    batch_window: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.reconnect_attempts < 1:
            raise ValueError("reconnect_attempts must be at least 1")
        if self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive")
        if self.backoff_seconds < 0 or self.reconnect_backoff_seconds < 0:
            raise ValueError("backoff seconds must be non-negative")
        if self.io not in ("threads", "async"):
            raise ValueError(
                f"unknown io backend {self.io!r}; choose 'threads' or 'async'"
            )
        if self.ring_replicas < 1:
            raise ValueError("ring_replicas must be >= 1")
        if self.migrate_retries < 0:
            raise ValueError("migrate_retries must be >= 0")
        if self.replicas < 0:
            raise ValueError("replicas must be >= 0")
        if self.batch_window < 0:
            raise ValueError("batch_window must be >= 0")

    def replace(self, **overrides) -> "EndpointConfig":
        """A copy with ``overrides`` applied (re-validated)."""
        return dataclasses.replace(self, **overrides)


#: Query-parameter name -> (config field, parser).  Everything a URL
#: can say about a connection is a config field; nothing else is.
_QUERY_FIELDS = {
    "timeout": ("timeout_seconds", float),
    "max_attempts": ("max_attempts", int),
    "backoff": ("backoff_seconds", float),
    "reconnect_attempts": ("reconnect_attempts", int),
    "reconnect_backoff": ("reconnect_backoff_seconds", float),
    "io": ("io", str),
    "ring_replicas": ("ring_replicas", int),
    "migrate_retries": ("migrate_retries", int),
    "replicas": ("replicas", int),
    "data_dir": ("data_dir", str),
    "batch_window": ("batch_window", float),
}


@dataclass(frozen=True)
class ParsedEndpoint:
    """The structured form of an endpoint URL."""

    scheme: str
    addresses: Tuple[Tuple[str, int], ...]
    shard_names: Optional[Tuple[str, ...]] = None
    params: Tuple[Tuple[str, str], ...] = ()

    def apply(self, config: EndpointConfig) -> EndpointConfig:
        """``config`` with this URL's query parameters folded in."""
        overrides = {}
        for key, value in self.params:
            field, parse = _QUERY_FIELDS[key]
            try:
                overrides[field] = parse(value)
            except ValueError:
                raise ValueError(
                    f"endpoint parameter {key}={value!r} is not a valid "
                    f"{parse.__name__}"
                ) from None
        return config.replace(**overrides) if overrides else config


def parse_endpoint(endpoint: str) -> ParsedEndpoint:
    """Parse ``scheme://host:port[,host:port...][?k=v&...]``.

    Raises ``ValueError`` for unknown schemes, malformed or out-of-range
    ports, empty hosts, and unknown query parameters — an endpoint
    string either parses completely or not at all.
    """
    if "://" not in endpoint:
        raise ValueError(f"endpoint {endpoint!r} has no scheme:// prefix")
    scheme, rest = endpoint.split("://", 1)
    if scheme not in ENDPOINT_SCHEMES:
        raise ValueError(
            f"unknown endpoint scheme {scheme!r}; "
            f"known: {', '.join(sorted(ENDPOINT_SCHEMES))}"
        )
    query = ""
    if "?" in rest:
        rest, query = rest.split("?", 1)

    params: List[Tuple[str, str]] = []
    shard_names: Optional[Tuple[str, ...]] = None
    if query:
        for pair in query.split("&"):
            if not pair:
                continue
            if "=" not in pair:
                raise ValueError(f"endpoint parameter {pair!r} is not k=v")
            key, value = pair.split("=", 1)
            if key == "names":
                shard_names = tuple(n for n in value.split(",") if n)
                continue
            if key not in _QUERY_FIELDS:
                raise ValueError(
                    f"unknown endpoint parameter {key!r}; "
                    f"known: names, {', '.join(sorted(_QUERY_FIELDS))}"
                )
            params.append((key, value))

    addresses: List[Tuple[str, int]] = []
    if scheme in _LOOPBACK_SCHEMES:
        if rest not in ("", "local"):
            raise ValueError(
                f"{scheme}:// endpoints are in-process; "
                f"{rest!r} names no network authority"
            )
    else:
        if not rest:
            raise ValueError(f"endpoint {endpoint!r} names no host:port")
        for part in rest.split(","):
            if ":" not in part:
                raise ValueError(f"address {part!r} is not host:port")
            host, port_text = part.rsplit(":", 1)
            if not host:
                raise ValueError(f"address {part!r} has an empty host")
            try:
                port = int(port_text)
            except ValueError:
                raise ValueError(
                    f"address {part!r} has a non-numeric port"
                ) from None
            if not 1 <= port <= 65535:
                raise ValueError(f"port {port} out of range in {part!r}")
            addresses.append((host, port))
        if scheme != "sl+sharded" and len(addresses) != 1:
            raise ValueError(
                f"{scheme}:// takes exactly one host:port; use sl+sharded:// "
                f"for a fleet"
            )
    if shard_names is not None and len(shard_names) != len(addresses):
        raise ValueError("need exactly one shard name per address")
    return ParsedEndpoint(scheme=scheme, addresses=tuple(addresses),
                          shard_names=shard_names, params=tuple(params))


def format_endpoint(scheme: str,
                    addresses: Sequence[Tuple[str, int]] = (),
                    shard_names: Optional[Sequence[str]] = None,
                    params: Sequence[Tuple[str, str]] = ()) -> str:
    """The inverse of :func:`parse_endpoint` (round-trips exactly)."""
    if scheme not in ENDPOINT_SCHEMES:
        raise ValueError(f"unknown endpoint scheme {scheme!r}")
    authority = ",".join(f"{host}:{port}" for host, port in addresses)
    query_parts = []
    if shard_names is not None:
        query_parts.append(("names", ",".join(shard_names)))
    query_parts.extend(params)
    query = "&".join(f"{key}={value}" for key, value in query_parts)
    return f"{scheme}://{authority}" + (f"?{query}" if query else "")


def connect(endpoint: str,
            remote=None,
            link=None,
            conditions=None,
            config: Optional[EndpointConfig] = None,
            **overrides):
    """The one endpoint factory: URL in, :class:`RemoteEndpoint` out.

    ``remote``/``link`` are required by (and only by) the loopback
    schemes.  ``conditions`` attaches :class:`~repro.net.network.
    NetworkConditions` to socket transports for virtual-RTT accounting.
    ``config`` seeds the knobs; ``overrides`` are applied over it, and
    URL query parameters over both.
    """
    parsed = parse_endpoint(endpoint)
    base = config if config is not None else EndpointConfig()
    if overrides:
        base = base.replace(**overrides)
    cfg = parsed.apply(base)

    from repro.net.rpc import RemoteEndpoint, lease_handler_table
    from repro.net.transport import loopback_transport

    if parsed.scheme in _LOOPBACK_SCHEMES:
        if remote is None or link is None:
            raise ValueError(
                f"{parsed.scheme}:// endpoints dispatch in-process; pass "
                f"remote= and link="
            )
        persistences = []
        if cfg.data_dir:
            # Recover before the first dispatch: the handler table binds
            # the same remote, so replayed state is what clients see.
            from repro.storage.wal import attach_persistence

            persistences = attach_persistence(remote, cfg.data_dir)
        kind = ENDPOINT_SCHEMES[parsed.scheme]
        endpoint = RemoteEndpoint(
            loopback_transport(kind, lease_handler_table(remote), link)
        )
        endpoint.persistences = persistences
        return endpoint

    if remote is not None or link is not None:
        raise ValueError(
            f"{parsed.scheme}:// endpoints reach a server over sockets; "
            f"remote=/link= apply only to sl+inproc:// and sl+serialized://"
        )
    if cfg.data_dir:
        raise ValueError(
            f"data_dir applies only to loopback endpoints; start the "
            f"{parsed.scheme}:// server with --data-dir instead"
        )

    if cfg.io == "async":
        from repro.net.aio import AsyncTcpTransport as transport_cls
    else:
        from repro.net.transport import TcpTransport as transport_cls

    def dial(host: str, port: int):
        return transport_cls(host, port, conditions=conditions, config=cfg)

    if parsed.scheme == "sl":
        if cfg.io == "async":
            raise ValueError("sl:// is the threaded client; use sl+async://")
        return RemoteEndpoint(dial(*parsed.addresses[0]))
    if parsed.scheme == "sl+async":
        from repro.net.aio import AsyncTcpTransport

        return RemoteEndpoint(
            AsyncTcpTransport(*parsed.addresses[0], conditions=conditions,
                              config=cfg)
        )

    # sl+sharded://
    from repro.net.sharding import (
        HashRing,
        ShardRouterTransport,
        default_shard_names,
    )

    names = (list(parsed.shard_names) if parsed.shard_names is not None
             else default_shard_names(len(parsed.addresses)))
    transports = {
        name: dial(host, port)
        for name, (host, port) in zip(names, parsed.addresses)
    }
    ring = HashRing(names, replicas=cfg.ring_replicas)
    return RemoteEndpoint(ShardRouterTransport(
        transports, ring=ring, config=cfg, dial=dial,
        failover=cfg.replicas > 0,
    ))


def endpoint_for(addresses: Sequence[Tuple[str, int]],
                 io: str = "threads",
                 shard_names: Optional[Sequence[str]] = None,
                 params: Sequence[Tuple[str, str]] = ()) -> str:
    """The canonical URL for a set of server addresses.

    One address yields ``sl://`` (or ``sl+async://``); several yield a
    ``sl+sharded://`` fleet endpoint with ``io`` folded into the query.
    """
    addresses = list(addresses)
    if len(addresses) == 1 and shard_names is None:
        scheme = "sl+async" if io == "async" else "sl"
        return format_endpoint(scheme, addresses, params=params)
    extra = list(params)
    if io != "threads":
        extra.insert(0, ("io", io))
    return format_endpoint("sl+sharded", addresses, shard_names=shard_names,
                           params=extra)
