"""Load generation: seeded request streams, clients, loops, percentiles.

Clients use the public surface only — ``repro.net.connect(url)`` and
``endpoint.call(...)``.  Every random choice (licence order, client
names, batch membership, escrow keys, shutdown order) comes from a
``random.Random`` derived from ``--seed``; the server only ever sees the
generated requests.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.licensefile import VENDOR_SECRET, mint_license_blob
from repro.core.protocol import (
    BatchRequest,
    InitRequest,
    RenewRequest,
    ShutdownNotice,
    Status,
)
from repro.net import connect
from repro.sgx import SgxMachine

from harness import LICENSES, BenchError

BLOBS = {lid: mint_license_blob(lid, VENDOR_SECRET) for lid in LICENSES}


def stream(seed: int, *scope: object) -> random.Random:
    """An independent generator per (seed, workload, role)."""
    return random.Random(":".join(str(part) for part in (seed,) + scope))


def renew_request(slid: int, license_id: str) -> RenewRequest:
    return RenewRequest(slid=slid, license_id=license_id,
                        license_blob=BLOBS[license_id],
                        network_reliability=1.0, health=1.0)


# ----------------------------------------------------------------------
# Percentiles and rates
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


# ----------------------------------------------------------------------
# Tally of one measured window
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """What a window observed.  ``samples`` belong to the workload's
    primary operation: (completion time, latency, operations completed
    — 16 for a batch frame).  ``attempted``/``failed`` count every call
    issued inside the window (a refusal is a failure)."""

    attempted: int = 0
    failed: int = 0
    samples: List[Tuple[float, float, int]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: One lane per load thread: every successful call it made, in
    #: order, as (method, start, end).  A closed loop's rate is read from
    #: the call-to-call intervals of a lane.
    lanes: List[List[Tuple[str, float, float]]] = field(
        default_factory=lambda: [[]])

    @property
    def ok_ops(self) -> int:
        return sum(ops for _, _, ops in self.samples)

    @property
    def latencies(self) -> List[float]:
        return [latency for _, latency, _ in self.samples]

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.samples += other.samples
        self.notes += other.notes
        self.lanes += other.lanes

    def fail(self, why: object) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(str(why))


# ----------------------------------------------------------------------
# The speed probe
# ----------------------------------------------------------------------
#: The machine's speed is read this often.
PROBE_GAP_SECONDS = 0.02
#: A reading within this factor of the run's fastest reading is calm:
#: what ran beside it counts as measured.
CALM_LEVEL = 1.10
#: How much of the kernel's slow-down the program shows.  Runs from
#: calm and from crowded minutes agreed best at 0.6 for a WAL replay,
#: 0.85 for renew -> return cycles and 1.1 for init -> shutdown cycles
#: (whose timer-driven snapshots grow with the clock as well as with
#: the work); see README.md, "Noise".
SENSITIVITY = 0.8


def _probe_kernel() -> int:
    """A fixed stretch of interpreter work (dict, list, str, hash):
    about 0.25 ms on the sandbox when nothing disturbs it.  It calls
    nothing under ``src/``, so no change to the program moves it."""
    table: Dict[str, List[int]] = {}
    total = 0
    for index in range(600):
        key = "k%d" % (index & 63)
        held = table.get(key)
        if held is None:
            table[key] = [index]
        else:
            held.append(index)
            if len(held) > 8:
                table[key] = held[4:]
        total += hash((key, index)) & 7
    return total


class SpeedProbe:
    """Reads how fast this vCPU runs right now, every 20 ms.

    The sandbox's vCPU runs at one of two speeds, full or a little over
    half, and flips between them many times a second, whenever its
    neighbour on the host's core wakes or sleeps (README.md, "Noise").
    How much of a run falls on the slow speed is not the program's
    doing, and it differs by minutes: that was the run-to-run spread.
    So a fixed kernel is timed every 20 ms (CPU time of the thread,
    second pass, so that neither waiting nor a cold cache is in it):
    inside a measured window by one load thread between two of its
    calls, and while the benchmark itself only waits (a server
    starting, a log being built) by a thread of its own.  What ran
    between two readings at full speed counts as measured; what ran
    between slower ones is scaled back by ``SENSITIVITY`` times the
    kernel's own slow-down (``Timeline``).

    A reading is ``(start, end, kernel seconds, server CPU seconds)``.
    """

    def __init__(self) -> None:
        #: Read with every kernel timing, when set: the server's CPU.
        self.cpu_clock: Optional[Callable[[], float]] = None
        self.readings: List[Tuple[float, float, float, float]] = []
        self._last = 0.0
        self._in_background = False

    def tick(self) -> None:
        if time.perf_counter() - self._last >= PROBE_GAP_SECONDS:
            self.read()

    def read(self) -> None:
        start = time.perf_counter()
        _probe_kernel()
        before = time.thread_time()
        _probe_kernel()
        spent = time.thread_time() - before
        cpu = self.cpu_clock() if self.cpu_clock is not None else 0.0
        self._last = time.perf_counter()
        self.readings.append((start, self._last, spent, cpu))

    def floor(self) -> float:
        """The kernel at full speed: the third fastest reading of the
        run so far (one odd reading must not set it)."""
        if len(self.readings) < 3:
            raise BenchError("the speed probe made fewer than three readings")
        return sorted(spent for _, _, spent, _ in self.readings)[2]

    @contextlib.contextmanager
    def in_background(self):
        """Read from a thread of its own while the caller does work no
        load thread can tick inside."""
        if self._in_background:  # the caller's caller already does
            yield self
            return
        self._in_background = True
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(PROBE_GAP_SECONDS):
                self.read()

        self.read()
        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join(timeout=5.0)
            self._in_background = False
            self.read()

    def timeline(self, since: float = 0.0) -> "Timeline":
        return Timeline([reading for reading in self.readings
                         if reading[0] >= since], self.floor())


def _scale(level: float) -> float:
    """What a duration is divided by where the probe read ``level``
    times its floor: 1 at ``CALM_LEVEL`` or below."""
    return 1.0 + SENSITIVITY * max(0.0, level - CALM_LEVEL)


class Timeline:
    """The probe's readings as stretches of time, each with a scale.

    Stretch ``i`` runs from the start of reading ``i`` to the start of
    the next, and a duration inside it is divided by the scale of the
    slower of the two readings.  Before the first reading and after the
    last, time counts as measured.
    """

    def __init__(self, readings: Sequence[Tuple[float, float, float, float]],
                 floor: float) -> None:
        if len(readings) < 2:
            raise BenchError("the speed probe made fewer than two readings")
        self.starts = [start for start, _, _, _ in readings]
        self.ends = [end for _, end, _, _ in readings]
        self.scales = [_scale(max(spent_a, spent_b) / floor)
                       for (_, _, spent_a, _), (_, _, spent_b, _)
                       in zip(readings, readings[1:])]
        lengths = [high - low for low, high in zip(self.starts,
                                                   self.starts[1:])]
        #: The share of the timeline that ran at full speed.
        self.calm_share = sum(
            length for length, scale in zip(lengths, self.scales)
            if scale == 1.0) / sum(lengths)
        #: The server's CPU seconds over the timeline, at full speed:
        #: CPU time stretches as the clock does.
        self.cpu_seconds = sum(
            (cpu_b - cpu_a) / scale
            for (_, _, _, cpu_a), (_, _, _, cpu_b), scale
            in zip(readings, readings[1:], self.scales))

    def full_speed(self, start: float, end: float,
                   interrupted: float = 1.0) -> Optional[float]:
        """``end - start`` as it would have read with the vCPU at full
        speed throughout.  None when the readings that fell inside the
        interval took more than ``interrupted`` of it: the probe shares
        the vCPU, so a reading delays a short call by as long as the
        call itself."""
        first = max(0, bisect.bisect_right(self.starts, start) - 1)
        total = covered = stolen = 0.0
        for index in range(first, len(self.starts)):
            if self.starts[index] >= end:
                break
            stolen += max(0.0, min(self.ends[index], end)
                          - max(self.starts[index], start))
            if index < len(self.scales):
                low = max(self.starts[index], start)
                high = min(self.starts[index + 1], end)
                if high > low:
                    covered += high - low
                    total += (high - low) / self.scales[index]
        if stolen > interrupted * (end - start):
            return None
        return total + (end - start - covered)


#: A call is left out when readings took more than this share of it.
INTERRUPTED_SHARE = 0.1


def full_speed_values(tally: Tally, timeline: Timeline,
                      cycle: Dict[str, int], ops_per_cycle: int, callers: int,
                      open_loop: bool = False
                      ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The end-to-end values of a window, at the vCPU's full speed.

    Every duration is scaled by the timeline.  ``cycle`` says how many
    calls of each method make one cycle.  A closed loop's rate is
    ``callers`` cycles per *mean cycle time*: for each method, the mean
    interval from the caller's previous reply to this one.  (Operations
    per second of the window would count the readings' own time as the
    program's.)  An open loop's rate is its schedule's: operations
    answered over the time from the first due to the last reply.
    Latencies are those of the primary operations; server CPU per
    operation is the server's CPU over the operations completed between
    the first reading and the last.
    """
    stamped = []
    for end, latency, _ in tally.samples:
        scaled = timeline.full_speed(end - latency, end, INTERRUPTED_SHARE)
        if scaled is not None:
            stamped.append((end, scaled))
    if not stamped:
        raise BenchError("no operation completed inside the window")
    if open_loop:
        rate = tally.ok_ops / (
            max(end for end, _, _ in tally.samples)
            - min(end - latency for end, latency, _ in tally.samples))
    else:
        sums = {method: [0.0, 0] for method in cycle}
        for lane in tally.lanes:
            for (_, _, before), (method, _, end) in zip(lane, lane[1:]):
                if method in sums:
                    scaled = timeline.full_speed(before, end,
                                                 INTERRUPTED_SHARE)
                    if scaled is not None:
                        sums[method][0] += scaled
                        sums[method][1] += 1
        if not all(count for _, count in sums.values()):
            raise BenchError(f"a method of the cycle never completed: {sums}")
        rate = callers * ops_per_cycle / sum(
            cycle[method] * total / count
            for method, (total, count) in sums.items())
    values = {
        "ops_per_s": rate,
        "op_p50_ms": median([latency for _, latency in stamped]) * 1e3,
        "op_p95_ms": sliced_tail(stamped) * 1e3,
        "server_cpu_ms_per_op": timeline.cpu_seconds / sum(
            ops for end, _, ops in tally.samples
            if timeline.ends[0] < end <= timeline.ends[-1]) * 1e3,
    }
    info = {"calm_share": timeline.calm_share,
            "scaled_latency_samples": len(stamped),
            "probe_readings": len(timeline.starts)}
    return values, info


#: The tail is read per slice of the window.
SLICES = 5


def sliced_tail(stamped: Sequence[Tuple[float, float]]) -> float:
    """The median, over five equal slices of the window, of each
    slice's 95th percentile: a stall counts in the slice it fell in,
    once, however many operations queued behind it.  (The whole
    window's p95 moved by a third between runs on ``paced_fleet``,
    whose 600 operations leave 30 beyond it.)"""
    first = min(stamp for stamp, _ in stamped)
    width = (max(stamp for stamp, _ in stamped) - first) / SLICES or 1.0
    slices: List[List[float]] = [[] for _ in range(SLICES)]
    for stamp, latency in stamped:
        slices[min(SLICES - 1, int((stamp - first) / width))].append(latency)
    tails = [percentile(held, 0.95) for held in slices if len(held) >= 20]
    if not tails:
        return percentile([latency for _, latency in stamped], 0.95)
    return median(tails)


# ----------------------------------------------------------------------
# One connection
# ----------------------------------------------------------------------
class Client:
    """One connection and the calls the workloads make over it.

    ``call`` is the single place ``endpoint.call`` is invoked; the
    traced run sets ``Client.on_call`` to get a span round each one.
    """

    on_call: Optional[Callable[[str, float, float], None]] = None
    #: Set on ONE client for the measured window: its thread reads the
    #: machine's speed between calls.
    probe: Optional[SpeedProbe] = None

    def __init__(self, address: str, name: str) -> None:
        self.machine = SgxMachine(name)
        self.report = self.machine.local_authority.generate_report(
            1, 1, nonce=1)
        # One attempt per call: a retry would hide a failure inside a
        # latency sample.
        self.endpoint = connect(
            f"sl://{address}?timeout=30&max_attempts=1&reconnect_attempts=1")

    def call(self, method: str, payload: object):
        start = time.perf_counter()
        try:
            return self.endpoint.call(method, payload,
                                      clock=self.machine.clock,
                                      stats=self.machine.stats)
        finally:
            if Client.on_call is not None:
                Client.on_call(method, start, time.perf_counter())

    def init(self) -> int:
        response = self.call("init", InitRequest(
            slid=None, report=self.report,
            platform_secret=self.machine.platform_secret))
        if response.status is not Status.OK:
            raise BenchError(f"init answered {response.status}")
        return response.slid

    def close(self) -> None:
        self.endpoint.close()

    def tick(self) -> None:
        """A point between two calls where the speed probe may read."""
        if self.probe is not None:
            self.probe.tick()

    def timed(self, tally: Tally, method: str, payload: object,
              ok: Callable[[object], bool]) -> Tuple[Optional[object], float]:
        """One call, counted; returns ``(reply or None, end_time)``."""
        tally.attempted += 1
        start = time.perf_counter()
        try:
            reply = self.call(method, payload)
        except Exception as exc:  # noqa: BLE001 - counted, run goes on
            tally.fail(f"{method}: {exc}")
            return None, time.perf_counter()
        end = time.perf_counter()
        if not ok(reply):
            tally.fail(f"{method} answered {reply}")
            return None, end
        tally.lanes[0].append((method, start, end))
        return reply, end


def is_ok_status(reply: object) -> bool:
    return reply is Status.OK


def is_ok_response(reply: object) -> bool:
    return getattr(reply, "status", None) is Status.OK


def is_ok_batch(reply: object) -> bool:
    return all(is_ok_response(slot) for slot in reply.responses)


# ----------------------------------------------------------------------
# Cycles: one primary operation plus whatever restores the ledger
# ----------------------------------------------------------------------
def _primary(client: Client, tally: Tally, method: str, payload: object,
             ok: Callable[[object], bool], ops: int = 1,
             since: Optional[float] = None) -> Optional[object]:
    """The timed call of a cycle: one latency sample when it succeeds,
    measured from ``since`` (default: now)."""
    if since is None:
        client.tick()  # an open loop ticks after the cycle: never late
    start = time.perf_counter() if since is None else since
    reply, end = client.timed(tally, method, payload, ok)
    if reply is not None:
        tally.samples.append((end, end - start, ops))
    return reply


def renew_cycle(client: Client, tally: Tally, slid: int, license_id: str,
                since: Optional[float] = None) -> None:
    """renew (timed) -> return_units."""
    reply = _primary(client, tally, "renew", renew_request(slid, license_id),
                     is_ok_response, since=since)
    if reply is not None:
        client.timed(tally, "return_units",
                     (slid, license_id, reply.granted_units), is_ok_status)


def batch_cycle(client: Client, tally: Tally,
                members: Sequence[Tuple[int, str]]) -> None:
    """One ``renew_batch`` frame (timed) -> one return per member."""
    request = BatchRequest(requests=tuple(
        renew_request(slid, license_id) for slid, license_id in members))
    reply = _primary(client, tally, "renew_batch", request, is_ok_batch,
                     ops=len(members))
    client.tick()  # so that a frame is a block of its own
    if reply is not None:
        for (slid, license_id), slot in zip(members, reply.responses):
            client.timed(tally, "return_units",
                         (slid, license_id, slot.granted_units), is_ok_status)


def enroll_cycle(client: Client, tally: Tally, root_key: int) -> None:
    """Quorum-gated init (timed) -> shutdown (escrows ``root_key``)."""
    request = InitRequest(slid=None, report=client.report,
                          platform_secret=client.machine.platform_secret)
    reply = _primary(client, tally, "init", request, is_ok_response)
    if reply is not None:
        client.timed(tally, "shutdown",
                     ShutdownNotice(slid=reply.slid, root_key=root_key),
                     is_ok_status)


# ----------------------------------------------------------------------
# Loops
# ----------------------------------------------------------------------
def run_threads(bodies: Sequence[Callable[[Tally], None]],
                deadline_seconds: float) -> Tally:
    """One thread and one tally per body; returns the merged tally.
    Any exception or overrun is fatal."""
    errors: List[BaseException] = []
    tallies = [Tally() for _ in bodies]

    def guarded(body: Callable[[Tally], None], tally: Tally) -> None:
        try:
            body(tally)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=pair, daemon=True)
               for pair in zip(bodies, tallies)]
    for thread in threads:
        thread.start()
    limit = time.monotonic() + deadline_seconds
    for thread in threads:
        thread.join(max(0.0, limit - time.monotonic()))
    if any(thread.is_alive() for thread in threads):
        raise BenchError(f"load threads overran {deadline_seconds:.0f}s")
    if errors:
        raise errors[0]
    merged = Tally()
    for tally in tallies:
        merged.merge(tally)
    return merged


def closed_loop(cycles: Sequence[Callable[[Tally], None]],
                seconds: Optional[float] = None,
                rounds: Optional[int] = None) -> Tuple[Tally, float, float]:
    """Each caller sends its next request when the previous one
    completed: for ``seconds``, or for a fixed ``rounds`` cycles each.
    Returns the merged tally and the window's bounds."""
    start = time.perf_counter()

    def looping(cycle: Callable[[Tally], None]) -> Callable[[Tally], None]:
        def body(tally: Tally) -> None:
            done = 0
            while (done < rounds if rounds is not None
                   else time.perf_counter() < start + seconds):
                cycle(tally)
                done += 1
        return body

    merged = run_threads([looping(cycle) for cycle in cycles],
                         deadline_seconds=(seconds or 60.0) + 60.0)
    end = time.perf_counter() if rounds is not None else start + seconds
    return merged, start, end


@dataclass
class PacedResult:
    tally: Tally
    start: float
    #: Seconds each send was behind its due time, in due order.
    late: List[float]
    #: The part of that the driver itself caused: seconds behind the
    #: later of the due time and the moment a worker was free.
    late_driver: List[float]


def open_loop(clients: Sequence[Client], rate: float, seconds: float,
              pick: Callable[[int], Tuple[int, str]]) -> PacedResult:
    """Requests are due on a fixed schedule whatever the fleet does.

    ``pick(k)`` names the (slid, licence) of the k-th cycle.  Workers
    take the next due cycle, wait for its due time, and time the
    renewal **from the due time**, so a stall is charged to every
    request it delayed.  Connections block, so a fleet stall longer
    than one gap per worker necessarily delays the next sends; that
    delay is in the latency, and ``late_driver`` separates it from the
    lateness the driver's own timer adds — the driver's validity check.
    """
    total = int(rate * seconds)
    gap = 1.0 / rate
    start = time.perf_counter() + 0.05
    cursor = iter(range(total))
    cursor_lock = threading.Lock()
    late = [0.0] * total
    late_driver = [0.0] * total

    def body(client: Client, tally: Tally) -> None:
        while True:
            with cursor_lock:
                k = next(cursor, None)
            if k is None:
                return
            due = start + k * gap
            free = time.perf_counter()
            # Sleep to just short of the due time, then spin: sleep()
            # alone overshoots by more than the lateness budget.
            remaining = due - free
            if remaining > 0.0015:
                time.sleep(remaining - 0.001)
            while time.perf_counter() < due:
                pass
            slid, license_id = pick(k)
            sent = time.perf_counter()
            late[k] = sent - due
            late_driver[k] = sent - max(due, free)
            renew_cycle(client, tally, slid, license_id, since=due)
            client.tick()

    # A worker spinning up to its due time must get the interpreter
    # lock promptly: the default 5 ms switch interval is six times the
    # lateness budget.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(0.0002)
    try:
        merged = run_threads([functools.partial(body, client)
                              for client in clients],
                             deadline_seconds=seconds + 60.0)
    finally:
        sys.setswitchinterval(interval)
    return PacedResult(tally=merged, start=start, late=late,
                       late_driver=late_driver)


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def audit_conservation(client: Client,
                       expect_lost: Optional[Dict[str, int]] = None) -> None:
    """``outstanding + lost + available == total`` for every licence.

    With ``expect_lost`` (after a ``recover`` restart) additionally
    nothing may be outstanding and exactly the units held at the kill
    must be lost — nothing resurrected."""
    probe = client.call("ledger_probe", None)
    if sorted(probe) != sorted(LICENSES):
        raise BenchError(f"ledger_probe names {sorted(probe)}")
    for license_id, row in probe.items():
        if row["outstanding"] + row["lost"] + row["available"] != row["total"]:
            raise BenchError(f"{license_id} leaked units: {row}")
        if expect_lost is not None:
            if row["outstanding"] != 0:
                raise BenchError(
                    f"{license_id} has units outstanding after recovery: {row}")
            if row["lost"] != expect_lost.get(license_id, 0):
                raise BenchError(
                    f"{license_id} forfeited {row['lost']}, held at the "
                    f"kill {expect_lost.get(license_id, 0)}")


def audit_wire(client: Client) -> Dict[str, int]:
    """The server's wire counters; a rejected frame invalidates the run."""
    stats = client.call("_server_stats", None)
    wire = dict(stats.get("wire") or {})
    if wire.get("frames_rejected", 0) > 0:
        raise BenchError(f"server rejected frames: {wire}")
    wire["exhausted_served"] = stats.get("exhausted_served") or 0
    return wire
