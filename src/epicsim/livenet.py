"""Real-socket loopback mode: the simulation wire format over UDP.

An echo server answers PING with PONG (same session, sequence and timestamp)
and optionally reflects a short acknowledgement for frame fragments; a prober
paces PINGs and measures RTT against its own monotonic clock, which is valid
on loopback where sender and receiver share the clock.  Each role is one
loop: the prober reads PONGs until its next send is due, and after its last
send until every PONG is back or the drain timeout passes.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field

from .kpi import percentile
from .model import ValidationError
from .transport import MsgType, WireHeader, WireError, decode_message, encode_message

ACK_SUBTYPE = 0x05
SOCKET_BUFFER = 1 << 20           # receive and send buffer of every socket, in bytes
_RECV_BUFSIZE = 65_535


def now_us() -> int:
    return time.perf_counter_ns() // 1_000


def _udp_socket() -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    for option in (socket.SO_RCVBUF, socket.SO_SNDBUF):
        sock.setsockopt(socket.SOL_SOCKET, option, SOCKET_BUFFER)
    return sock


class ProbeLost(RuntimeError):
    """No PONG came back: the echo server is not reachable."""


@dataclass(frozen=True, slots=True)
class LiveEndpoint:
    host: str = "127.0.0.1"
    port: int = 0                 # 0 lets the OS pick an ephemeral port

    def __post_init__(self):
        if self.port != 0 and not 1024 <= self.port <= 65_535:
            raise ValidationError("port must be in 1024..65535 (or 0 for ephemeral)")


class EchoServer:
    """Receive/reply loop, bound on construction; start() runs it in a daemon thread."""

    def __init__(self, endpoint: LiveEndpoint = LiveEndpoint(), reflect_fragments: bool = False):
        self.reflect_fragments = reflect_fragments
        self.pings = self.fragments = self.malformed = 0
        self._sock = _udp_socket()
        self._sock.bind((endpoint.host, endpoint.port))
        self._sock.settimeout(0.1)
        self.port: int = self._sock.getsockname()[1]
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    def start(self) -> None:
        self._thread = threading.Thread(target=self.serve, daemon=True)
        self._thread.start()

    def serve(self) -> None:
        while not self._stop.is_set():
            try:
                data, addr = self._sock.recvfrom(_RECV_BUFSIZE)
            except socket.timeout:
                continue
            except OSError:
                break
            reply = self._handle(data)
            if reply is not None:
                self._sock.sendto(reply, addr)

    def _handle(self, data: bytes) -> bytes | None:
        try:
            header, payload = decode_message(data)
        except WireError:
            self.malformed += 1
            return None
        if header.msg_type == MsgType.PING:
            self.pings += 1
            pong = WireHeader(MsgType.PONG, header.session_id, header.sequence, header.timestamp)
            return encode_message(pong)
        if header.msg_type == MsgType.FRAME_FRAG:
            self.fragments += 1
            if self.reflect_fragments:
                ack = WireHeader(MsgType.CONTROL, header.session_id, header.sequence, header.timestamp)
                return encode_message(ack, bytes([ACK_SUBTYPE]) + bytes(7))
        return None

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self._sock.close()

    def __enter__(self) -> "EchoServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


@dataclass(slots=True)
class ProbeResult:
    sent: int
    received: int
    samples: list[int] = field(default_factory=list)
    first_ping: bytes = b""

    @property
    def loss_rate(self) -> float:
        return 1.0 - self.received / self.sent if self.sent else 0.0

    def rtt_percentile(self, p: float) -> int:
        return percentile(self.samples, p)


def live_probe(addr: tuple[str, int], count: int, interval_us: int = 1_000,
               session_id: int = 1, drain_timeout_s: float = 1.0) -> ProbeResult:
    """Send `count` PINGs, one every `interval_us`, to an echo server and measure loopback RTT.

    RTT is receive time minus the echoed timestamp on the shared monotonic
    clock, clamped to at least 1 us.  Raises `ProbeLost` if every probe is lost.
    """
    if count <= 0:
        raise ValidationError("probe count must be positive")
    rtts: list[int] = []
    first_ping = b""
    with _udp_socket() as sock:
        due = now_us()
        for seq in range(count):
            wire = encode_message(WireHeader(MsgType.PING, session_id, seq, now_us()))
            first_ping = first_ping or wire
            sock.sendto(wire, addr)
            due = due + interval_us if seq + 1 < count else now_us() + round(drain_timeout_s * 1e6)
            while len(rtts) < count:
                sock.settimeout(max(0, due - now_us()) / 1e6)  # 0 still returns queued PONGs
                try:
                    data = sock.recv(_RECV_BUFSIZE)
                except (socket.timeout, BlockingIOError):
                    break
                at = now_us()
                try:
                    header, _ = decode_message(data)
                except WireError:
                    continue
                if header.msg_type == MsgType.PONG and header.session_id == session_id:
                    rtts.append(max(1, at - header.timestamp))
    if not rtts:
        raise ProbeLost("probe lost every packet; is the echo server reachable?")
    return ProbeResult(sent=count, received=len(rtts), samples=rtts, first_ping=first_ping)
