"""Capture/replay wire proxy: the adversary's tap on the socket.

A :class:`CaptureProxy` sits between a lease client and one server,
speaking nothing but the length-prefixed framing both sides already
use: each pump thread reads whole frames (the proxy never needs to
understand them), records them in capture
order, optionally runs them through a per-direction
:class:`~repro.testing.faults.NetFaultPlan`, and re-frames whatever
survives toward the other side.  Because tampering happens on the
*payload* and the proxy re-frames with a correct header, a corrupted
frame arrives well-framed but fails the codec's magic/CRC checks
— precisely the adversary the typed-rejection contract
(:class:`~repro.net.errors.TamperedFrame`, server-side
``frames_rejected``) is written against.

:func:`inject_frames` is the replay half: take captured client→server
payloads and push them at *any* server — the one they were recorded
against, its promoted successor after a SIGKILL, or a deposed primary
that just came back from the dead — and classify every answer.  A
connection has no handshake, so a captured frame can be injected as the
first thing a socket ever says.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.net import codec
from repro.net.transport import read_frame
from repro.testing.faults import NetFaultPlan

DIRECTIONS = ("c2s", "s2c")


@dataclass
class CapturedFrame:
    """One frame that crossed the proxy, as it arrived (pre-tamper)."""

    direction: str  # "c2s" | "s2c"
    index: int      # global capture order across both directions
    payload: bytes  # un-framed (length prefix stripped)
    method: str = ""  # best-effort decode; "" when not a request

    def summary(self) -> str:
        label = self.method or codec_kind(self.payload)
        return f"#{self.index} {self.direction} {label} ({len(self.payload)}B)"


def codec_kind(payload: bytes) -> str:
    """Best-effort label for a captured payload ("request"/"reply"/?)."""
    try:
        codec.decode_reply(payload)
        return "reply"
    except codec.CodecError:
        pass
    try:
        codec.decode_request_envelope(payload)
        return "request"
    except codec.CodecError:
        return "undecodable"


@dataclass
class InjectionResult:
    """What one injected frame provoked."""

    frame: CapturedFrame
    outcome: str  # "reply" | "error" | "closed" | "timeout"
    reply: Optional[codec.WireReply] = None
    detail: str = ""

    def granted_units(self) -> int:
        """Units the server actually handed out for this injection.

        A wire-level "reply" is not a win for the attacker: a fenced
        or exhausted server answers OK-shaped envelopes whose payload
        grants nothing.  Only ``status OK`` with positive units counts
        as the server *honoring* the stale frame.
        """
        if self.reply is None or self.reply.kind != "response":
            return 0
        payload = self.reply.payload
        status = getattr(payload, "status", None)
        granted = int(getattr(payload, "granted_units", 0) or 0)
        if status is not None and getattr(status, "name", "") != "OK":
            return 0
        return max(0, granted)


class CaptureProxy:
    """Record-and-tamper TCP forwarder for one upstream server.

    Plans are swappable at runtime (:meth:`set_plan`), so a campaign
    can let init traffic through clean, then switch
    corruption on for the frames it wants mutilated.
    """

    def __init__(self, upstream_host: str, upstream_port: int,
                 c2s_plan: Optional[NetFaultPlan] = None,
                 s2c_plan: Optional[NetFaultPlan] = None) -> None:
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self._plans: Dict[str, Optional[NetFaultPlan]] = {
            "c2s": c2s_plan, "s2c": s2c_plan,
        }
        self._lock = threading.Lock()
        self.frames: List[CapturedFrame] = []
        self.host = "127.0.0.1"
        self.port = 0
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._conns: List[socket.socket] = []

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "CaptureProxy":
        listener = socket.socket()
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, 0))
        listener.listen(16)
        listener.settimeout(0.25)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="redteam-proxy-accept", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            conns, self._conns = self._conns, []
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
            self._accept_thread = None

    def __enter__(self) -> "CaptureProxy":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # -- plans ---------------------------------------------------------
    def set_plan(self, direction: str, plan: Optional[NetFaultPlan]) -> None:
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}")
        self._plans[direction] = plan

    def plan(self, direction: str) -> Optional[NetFaultPlan]:
        return self._plans[direction]

    # -- capture access ------------------------------------------------
    def captured(self, direction: Optional[str] = None,
                 method: Optional[str] = None) -> List[CapturedFrame]:
        with self._lock:
            frames = list(self.frames)
        if direction is not None:
            frames = [f for f in frames if f.direction == direction]
        if method is not None:
            frames = [f for f in frames if f.method == method]
        return frames

    # -- pumps ---------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                client, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                upstream = socket.create_connection(
                    (self.upstream_host, self.upstream_port), timeout=10
                )
            except OSError:
                client.close()
                continue
            upstream.settimeout(None)
            client.settimeout(None)
            with self._lock:
                self._conns += [client, upstream]
            for src, dst, direction in ((client, upstream, "c2s"),
                                        (upstream, client, "s2c")):
                threading.Thread(
                    target=self._pump, args=(src, dst, direction),
                    name=f"redteam-proxy-{direction}", daemon=True,
                ).start()

    def _pump(self, src: socket.socket, dst: socket.socket,
              direction: str) -> None:
        try:
            while not self._stop.is_set():
                payload = read_frame(src)
                self._record(direction, payload)
                plan = self._plans[direction]
                outs = plan.apply(payload) if plan is not None else [payload]
                for out in outs:
                    dst.sendall(codec.frame(out))
        except (ConnectionError, OSError, codec.CodecError):
            pass
        finally:
            # Half of the pair died: tear both down so neither side
            # blocks forever on a stream that can no longer progress.
            for sock in (src, dst):
                try:
                    sock.close()
                except OSError:
                    pass

    def _record(self, direction: str, payload: bytes) -> None:
        method = ""
        if direction == "c2s":
            try:
                method = codec.decode_request_envelope(payload)[0]
            except codec.CodecError:
                method = ""
        with self._lock:
            frame = CapturedFrame(direction=direction,
                                  index=len(self.frames),
                                  payload=payload, method=method)
            self.frames.append(frame)


def inject_frames(frames: List[CapturedFrame], host: str, port: int,
                  timeout: float = 3.0) -> List[InjectionResult]:
    """Replay captured client→server payloads at ``host:port``.

    One frame at a time, one reply awaited per frame (every lease
    method answers exactly one frame).  A closed connection is
    re-dialed for the next frame — a server that sheds a tampered
    stream must still face the rest of the volley.
    """
    results: List[InjectionResult] = []
    sock: Optional[socket.socket] = None

    def dial() -> Optional[socket.socket]:
        try:
            fresh = socket.create_connection((host, port), timeout=timeout)
            fresh.settimeout(timeout)
            return fresh
        except OSError:
            return None

    for frame in frames:
        if sock is None:
            sock = dial()
            if sock is None:
                results.append(InjectionResult(
                    frame=frame, outcome="closed", detail="dial failed"))
                continue
        try:
            sock.sendall(codec.frame(frame.payload))
            reply_payload = read_frame(sock)
        except socket.timeout:
            results.append(InjectionResult(frame=frame, outcome="timeout"))
            continue
        except (ConnectionError, OSError) as exc:
            results.append(InjectionResult(
                frame=frame, outcome="closed", detail=str(exc)))
            try:
                sock.close()
            except OSError:
                pass
            sock = None
            continue
        try:
            reply = codec.decode_reply(reply_payload)
        except codec.CodecError as exc:
            results.append(InjectionResult(
                frame=frame, outcome="error", detail=f"undecodable: {exc}"))
            continue
        outcome = "error" if reply.kind == "error" else "reply"
        results.append(InjectionResult(
            frame=frame, outcome=outcome, reply=reply,
            detail=reply.error or ""))
    if sock is not None:
        try:
            sock.close()
        except OSError:
            pass
    return results
