"""RPC endpoint connecting SL-Local to SL-Remote.

The endpoint is a thin client-side handle over a pluggable
:class:`~repro.net.transport.Transport`: a call charges network time to
the caller's clock (how depends on the backend — simulated link or real
socket retries), then delivers the protocol message to SL-Remote's
handlers.  Handlers that need the caller's clock/stats (the
remote-attestation path charges its 3.5 s to the *caller*) declare it
by accepting ``clock``/``stats`` keyword arguments.

Every call must account for the link: pass a ``clock``, or say
``local=True`` to state explicitly that this call deliberately bypasses
network simulation (e.g. provisioning calls in tests).  The historical
silent bypass on ``clock=None`` is gone — no call path dodges the link
unaccounted.
"""

from __future__ import annotations

from typing import Optional

from repro.net.codec import RemoteCallError
from repro.net.network import NetworkError, SimulatedLink
from repro.net.transport import HandlerTable, Transport, TransportError
from repro.sgx.driver import SgxStats
from repro.sim.clock import Clock


class RpcError(Exception):
    """Raised when a call fails to reach the server, or is misused."""


class RemoteEndpoint:
    """Client-side handle for calling SL-Remote over some transport."""

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        self.calls_made = 0
        #: Durable-ledger handles attached by ``connect(..., data_dir=)``
        #: on loopback endpoints; close them when the endpoint retires.
        self.persistences: list = []

    @property
    def link(self) -> Optional[SimulatedLink]:
        """The simulated link, for backends that have one (else None)."""
        return getattr(self.transport, "link", None)

    def call(self, method: str, request: object,
             clock: Optional[Clock] = None,
             stats: Optional[SgxStats] = None,
             local: bool = False):
        """Round-trip a request; returns the handler's response.

        Raises :class:`RpcError` if the network gives up, the server
        reports an error, or no ``clock`` is supplied without an
        explicit ``local=True``.
        """
        if clock is None and not local:
            raise RpcError(
                f"call to {method!r} has no clock to charge network time to; "
                f"pass local=True if bypassing the link is intentional"
            )
        if local:
            clock = None  # deliberate bypass: no link charging at all
        try:
            response = self.transport.request(
                method, request, clock=clock, stats=stats
            )
        except NetworkError as exc:
            raise RpcError(f"call to {method!r} failed: {exc}") from exc
        except RemoteCallError as exc:
            raise RpcError(f"remote error from {method!r}: {exc}") from exc
        except TransportError as exc:
            raise RpcError(f"call to {method!r} failed: {exc}") from exc
        self.calls_made += 1
        return response

    def close(self) -> None:
        self.transport.close()


def lease_handler_table(remote) -> HandlerTable:
    """The canonical method table for an SL-Remote server object."""
    return HandlerTable(remote.protocol_handlers())
