import contextlib
import json
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from carbonrun.griddata import UnknownRegion
from carbonrun.locate import GEO_MAX_BYTES, ResolutionMethod, resolve_location


class GeoHandler(BaseHTTPRequestHandler):
    payload = b"{}"
    status = 200
    hits = 0

    def do_GET(self):
        type(self).hits += 1
        if self.path != "/v1/ip/geo.json":
            self.send_response(404)
            self.end_headers()
            return
        self.send_response(type(self).status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(type(self).payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def geo_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), GeoHandler)
    # shutdown() waits for the next poll, 0.5 s apart by default
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    GeoHandler.payload = b"{}"
    GeoHandler.status = 200
    GeoHandler.hits = 0
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join()


def set_geo(country_code=None, region=None, status=200, raw=None):
    if raw is not None:
        GeoHandler.payload = raw
    else:
        body = {}
        if country_code is not None:
            body["country_code"] = country_code
        if region is not None:
            body["region"] = region
        GeoHandler.payload = json.dumps(body).encode()
    GeoHandler.status = status


DEAD_ENDPOINT = "http://127.0.0.1:1"


@contextlib.contextmanager
def raw_server(reply, trickle=b"", drip_s=0.05):
    """Answer one request with the bytes `reply`, then the bytes `trickle`
    one every `drip_s` seconds, or hold the connection open without
    answering when `reply` is None; yields the endpoint."""
    release = threading.Event()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(10)

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                if reply is None:
                    release.wait(10)
                    return
                try:
                    conn.sendall(reply)
                    for i in range(len(trickle)):
                        if release.wait(drip_s):
                            break
                        conn.sendall(trickle[i:i + 1])
                except OSError:
                    pass  # the client gave up on the reply

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{listener.getsockname()[1]}"
        finally:
            release.set()
            thread.join(10)


def http_reply(body, length=True):
    """A 200 reply carrying `body`, with its Content-Length or, if not
    `length`, ended by closing the connection."""
    head = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
    if length:
        head += b"Content-Length: %d\r\n" % len(body)
    return head + b"\r\n" + body


def padded_fr_body(size):
    """A geolocation answer for France of `size` bytes."""
    body = b'{"country_code": "FR", "pad": ""}'
    return body[:-2] + b"x" * (size - len(body)) + body[-2:]


class TestExplicitAndEnv:
    def test_explicit_wins(self, snapshot, geo_server):
        res = resolve_location(
            snapshot,
            explicit="wyoming",
            endpoint=geo_server,
            environ={"ENERGYUSAGE_REGION": "france"},
        )
        assert res.region.id == "us-wy"
        assert res.method is ResolutionMethod.EXPLICIT
        assert GeoHandler.hits == 0

    def test_explicit_unknown_raises(self, snapshot):
        with pytest.raises(UnknownRegion):
            resolve_location(snapshot, explicit="atlantis", offline=True)

    def test_env_var(self, snapshot, geo_server):
        res = resolve_location(
            snapshot,
            endpoint=geo_server,
            environ={"ENERGYUSAGE_REGION": "Germany"},
        )
        assert res.region.id == "de"
        assert res.method is ResolutionMethod.ENVIRONMENT
        assert "ENERGYUSAGE_REGION" in res.detail
        assert GeoHandler.hits == 0

    def test_env_unknown_raises(self, snapshot):
        with pytest.raises(UnknownRegion):
            resolve_location(
                snapshot, offline=True, environ={"ENERGYUSAGE_REGION": "atlantis"}
            )

    def test_empty_env_ignored(self, snapshot):
        res = resolve_location(
            snapshot, offline=True, environ={"ENERGYUSAGE_REGION": ""}
        )
        assert res.method is ResolutionMethod.DEFAULT_FALLBACK


class TestGeolocation:
    def test_us_state(self, snapshot, geo_server):
        set_geo(country_code="US", region="Oregon")
        res = resolve_location(snapshot, endpoint=geo_server, environ={})
        assert res.region.id == "us-or"
        assert res.method is ResolutionMethod.GEOLOCATION

    def test_us_without_state_uses_us_average(self, snapshot, geo_server):
        set_geo(country_code="US")
        res = resolve_location(snapshot, endpoint=geo_server, environ={})
        assert res.region.id == "us-average"

    def test_us_with_unknown_state_uses_us_average(self, snapshot, geo_server):
        set_geo(country_code="US", region="Puerto Rico")
        res = resolve_location(snapshot, endpoint=geo_server, environ={})
        assert res.region.id == "us-average"

    @pytest.mark.parametrize("state", ["Germany", "World (average)"])
    def test_us_with_a_state_that_names_no_us_state_uses_us_average(
            self, snapshot, geo_server, state):
        set_geo(country_code="US", region=state)
        res = resolve_location(snapshot, endpoint=geo_server, environ={})
        assert res.region.id == "us-average"

    def test_country(self, snapshot, geo_server):
        set_geo(country_code="FR")
        res = resolve_location(snapshot, endpoint=geo_server, environ={})
        assert res.region.id == "fr"
        assert res.method is ResolutionMethod.GEOLOCATION

    def test_unknown_country_falls_back(self, snapshot, geo_server):
        set_geo(country_code="ZZ")
        res = resolve_location(snapshot, endpoint=geo_server, environ={})
        assert res.method is ResolutionMethod.DEFAULT_FALLBACK
        assert res.region.id == "world-average"

    @pytest.mark.parametrize("code", ["us-wy", "europe-average"])
    def test_a_code_that_names_no_country_falls_back(self, snapshot, geo_server, code):
        set_geo(country_code=code)
        res = resolve_location(snapshot, endpoint=geo_server, environ={})
        assert res.method is ResolutionMethod.DEFAULT_FALLBACK
        assert res.region.id == "world-average"

    def test_malformed_json_falls_back(self, snapshot, geo_server):
        set_geo(raw=b"this is not json")
        res = resolve_location(snapshot, endpoint=geo_server, environ={})
        assert res.method is ResolutionMethod.DEFAULT_FALLBACK

    def test_http_error_falls_back(self, snapshot, geo_server):
        set_geo(country_code="FR", status=500)
        res = resolve_location(snapshot, endpoint=geo_server, environ={})
        assert res.method is ResolutionMethod.DEFAULT_FALLBACK

    @pytest.mark.parametrize("reply,trickle", [
        pytest.param(b"garbage\r\n\r\n", b"", id="bad-status-line"),
        pytest.param(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                     b"Content-Length: 100\r\n\r\n{\"country_code\": \"FR\"}", b"",
                     id="body-shorter-than-content-length"),
        pytest.param(None, b"", id="stalled-past-timeout"),
        # a byte every 50 ms, well within the socket timeout; the whole
        # reply would take over six times the timeout
        pytest.param(b"", http_reply(padded_fr_body(64)), id="trickled-headers"),
        pytest.param(http_reply(padded_fr_body(64))[:-64], padded_fr_body(64),
                     id="trickled-body"),
        pytest.param(http_reply(padded_fr_body(GEO_MAX_BYTES + 1)), b"", id="over-the-cap"),
        pytest.param(http_reply(padded_fr_body(GEO_MAX_BYTES + 1), length=False), b"",
                     id="over-the-cap-until-close"),
    ])
    def test_broken_reply_falls_back(self, snapshot, reply, trickle):
        timeout_s = 0.5
        with raw_server(reply, trickle) as endpoint:
            started = time.monotonic()
            res = resolve_location(snapshot, endpoint=endpoint, timeout_s=timeout_s,
                                   environ={})
            elapsed = time.monotonic() - started
        assert res.method is ResolutionMethod.DEFAULT_FALLBACK
        assert res.region.id == "world-average"
        assert elapsed < 2 * timeout_s

    @pytest.mark.parametrize("length", [True, False], ids=["content-length", "until-close"])
    def test_a_reply_at_the_cap_is_read(self, snapshot, length):
        with raw_server(http_reply(padded_fr_body(GEO_MAX_BYTES), length)) as endpoint:
            res = resolve_location(snapshot, endpoint=endpoint, environ={})
        assert res.region.id == "fr"
        assert res.method is ResolutionMethod.GEOLOCATION

    def test_the_alarm_handler_is_put_back(self, snapshot, geo_server):
        before = signal.getsignal(signal.SIGALRM)
        set_geo(country_code="FR")
        resolve_location(snapshot, endpoint=geo_server, environ={})
        with raw_server(None) as endpoint:
            resolve_location(snapshot, endpoint=endpoint, timeout_s=0.3, environ={})
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

    def test_unreachable_endpoint_falls_back(self, snapshot):
        res = resolve_location(
            snapshot, endpoint=DEAD_ENDPOINT, timeout_s=0.3, environ={}
        )
        assert res.method is ResolutionMethod.DEFAULT_FALLBACK


class TestDefaults:
    def test_offline_never_calls_network(self, snapshot, geo_server):
        res = resolve_location(snapshot, offline=True, endpoint=geo_server, environ={})
        assert res.method is ResolutionMethod.DEFAULT_FALLBACK
        assert res.region.id == "world-average"
        assert GeoHandler.hits == 0

    @pytest.mark.parametrize(
        "choice,expected",
        [("world", "world-average"), ("us", "us-average"), ("europe", "europe-average")],
    )
    def test_default_choices(self, snapshot, choice, expected):
        res = resolve_location(
            snapshot, offline=True, default_choice=choice, environ={}
        )
        assert res.region.id == expected

    def test_invalid_default_choice(self, snapshot):
        with pytest.raises(ValueError):
            resolve_location(snapshot, offline=True, default_choice="mars", environ={})
