import contextlib
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from carbonrun.griddata import UnknownRegion
from carbonrun.locate import ResolutionMethod, resolve_location


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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
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
def raw_server(reply):
    """Answer one request with the bytes `reply`, or hold the connection
    open without answering when `reply` is None; yields the endpoint."""
    release = threading.Event()
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(10)

        def serve():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                if reply is None:
                    release.wait(10)
                else:
                    conn.sendall(reply)

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{listener.getsockname()[1]}"
        finally:
            release.set()
            thread.join(10)


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

    def test_malformed_json_falls_back(self, snapshot, geo_server):
        set_geo(raw=b"this is not json")
        res = resolve_location(snapshot, endpoint=geo_server, environ={})
        assert res.method is ResolutionMethod.DEFAULT_FALLBACK

    def test_http_error_falls_back(self, snapshot, geo_server):
        set_geo(country_code="FR", status=500)
        res = resolve_location(snapshot, endpoint=geo_server, environ={})
        assert res.method is ResolutionMethod.DEFAULT_FALLBACK

    @pytest.mark.parametrize("reply", [
        pytest.param(b"garbage\r\n\r\n", id="bad-status-line"),
        pytest.param(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                     b"Content-Length: 100\r\n\r\n{\"country_code\": \"FR\"}",
                     id="body-shorter-than-content-length"),
        pytest.param(None, id="stalled-past-timeout"),
    ])
    def test_broken_reply_falls_back(self, snapshot, reply):
        with raw_server(reply) as endpoint:
            started = time.monotonic()
            res = resolve_location(snapshot, endpoint=endpoint, timeout_s=0.3, environ={})
            elapsed = time.monotonic() - started
        assert res.method is ResolutionMethod.DEFAULT_FALLBACK
        assert res.region.id == "world-average"
        assert elapsed < 5

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
