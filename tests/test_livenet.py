import socket

import pytest

from epicsim.livenet import EchoServer, LiveEndpoint, live_probe
from epicsim.model import ValidationError
from epicsim.transport import MsgType, WireHeader, decode_message, encode_message, encode_fragment, fragment


@pytest.fixture()
def server():
    with EchoServer() as srv:
        yield srv


def _send_raw(port, data, wait=True):
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.settimeout(1.0)
    sock.sendto(data, ("127.0.0.1", port))
    reply = None
    if wait:
        try:
            reply, _ = sock.recvfrom(65535)
        except socket.timeout:
            reply = None
    sock.close()
    return reply


def test_ping_echoes_timestamp_and_sequence(server):
    ping = encode_message(WireHeader(MsgType.PING, session_id=9, sequence=4, timestamp=123_456))
    reply = _send_raw(server.port, ping)
    header, payload = decode_message(reply)
    assert header.msg_type == MsgType.PONG
    assert (header.session_id, header.sequence, header.timestamp) == (9, 4, 123_456)
    assert payload == b""


def test_malformed_datagram_counted_and_dropped(server):
    assert _send_raw(server.port, b"DEADBEEF" * 4) is None
    assert server.malformed == 1


def test_no_reply_to_a_frame_fragment_or_a_control_message(server):
    frag = fragment(1, b"payload", mtu=1400)[0]
    assert _send_raw(server.port, encode_fragment(1, 0, 0, frag)) is None
    assert _send_raw(server.port, encode_message(WireHeader(MsgType.CONTROL, 1, 0, 0), bytes(1))) is None
    assert (server.pings, server.malformed) == (0, 0)


def test_probe_measures_positive_rtts(server):
    result = live_probe(("127.0.0.1", server.port), count=200, interval_us=200)
    assert result.sent == 200
    assert result.loss_rate <= 0.001
    assert all(s >= 1 for s in result.samples)
    assert result.rtt_percentile(50) >= 1


def test_probe_first_ping_matches_simulation_encoder(server):
    result = live_probe(("127.0.0.1", server.port), count=10, interval_us=100)
    header, payload = decode_message(result.first_ping)
    assert payload == b""
    assert header.msg_type == MsgType.PING
    assert (header.session_id, header.sequence) == (1, 0)
    golden_prefix = encode_message(WireHeader(MsgType.PING, 1, 0, 0))[:16]
    assert result.first_ping[:16] == golden_prefix  # all fields before the live timestamp


def test_probe_count_must_be_positive(server):
    with pytest.raises(ValidationError):
        live_probe(("127.0.0.1", server.port), count=0)


def test_probe_interval_may_be_zero_but_not_negative(server):
    assert live_probe(("127.0.0.1", server.port), count=20, interval_us=0).sent == 20  # back to back
    with pytest.raises(ValidationError, match="^interval_us "):
        live_probe(("127.0.0.1", server.port), count=1, interval_us=-5)


def test_probe_total_loss_raises():
    # nothing listens on this socket's port once it is closed
    probe_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    probe_sock.bind(("127.0.0.1", 0))
    port = probe_sock.getsockname()[1]
    probe_sock.close()
    with pytest.raises(RuntimeError, match="lost every packet"):
        live_probe(("127.0.0.1", port), count=3, interval_us=100, drain_timeout_s=0.2)


def test_endpoint_port_range_validated():
    with pytest.raises(ValidationError):
        LiveEndpoint(port=80)
    LiveEndpoint(port=0)
    LiveEndpoint(port=5_000)
