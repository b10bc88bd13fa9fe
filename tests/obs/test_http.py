"""Embedded HTTP endpoint: spec parsing, routes, readiness, wiring."""

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigError
from repro.obs.http import DEFAULT_HOST, ObsHTTPServer, parse_http_spec
from repro.obs.registry import MetricsRegistry
from repro.serve import signals


def _get(server, path):
    """(status, body-text) for a GET against the embedded server."""
    url = f"http://127.0.0.1:{server.port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


class TestSpecParsing:
    def test_disabled_values(self):
        assert parse_http_spec(None) is None
        assert parse_http_spec(False) is None
        assert parse_http_spec("") is None

    def test_true_means_ephemeral_loopback(self):
        assert parse_http_spec(True) == (DEFAULT_HOST, 0)

    def test_port_forms(self):
        assert parse_http_spec(9464) == (DEFAULT_HOST, 9464)
        assert parse_http_spec("9464") == (DEFAULT_HOST, 9464)
        assert parse_http_spec("0.0.0.0:9464") == ("0.0.0.0", 9464)

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("0", (DEFAULT_HOST, 0)),
            ("65535", (DEFAULT_HOST, 65535)),
            ("host:65535", ("host", 65535)),
            (0, (DEFAULT_HOST, 0)),
            (65535, (DEFAULT_HOST, 65535)),
        ],
    )
    def test_ports_at_the_range_edges_are_accepted(self, spec, expected):
        assert parse_http_spec(spec) == expected

    def test_junk_raises(self):
        with pytest.raises(ConfigError):
            parse_http_spec("not-a-port")

    @pytest.mark.parametrize(
        "spec", ["70000", "-1", "localhost:65536", 70000, -1, 65536]
    )
    def test_port_outside_the_range_raises(self, spec):
        with pytest.raises(ConfigError, match="outside 0-65535"):
            parse_http_spec(spec)

    def test_frontend_refuses_an_out_of_range_env_port(self, monkeypatch):
        from repro.serve import ServeFrontend

        monkeypatch.setenv("REPRO_OBS_HTTP", "70000")
        with pytest.raises(ConfigError, match="70000"):
            ServeFrontend()


class TestEndpoints:
    @pytest.fixture
    def server(self):
        registry = MetricsRegistry()
        registry.counter("repro_http_test_total", "test counter").inc(3)
        with ObsHTTPServer(port=0, registry=registry) as server:
            yield server

    def test_metrics_serves_the_exposition(self, server):
        status, body = _get(server, "/metrics")
        assert status == 200
        assert "repro_http_test_total 3" in body

    def test_metrics_serves_a_non_finite_gauge(self, server):
        server.registry.gauge("repro_http_test_ceiling").set(float("inf"))
        status, body = _get(server, "/metrics")
        assert status == 200
        assert "repro_http_test_ceiling +Inf" in body.splitlines()

    def test_metrics_keeps_an_outside_label_value_on_one_line(self, server):
        family = server.registry.counter(
            "repro_http_tenant_total", labelnames=("tenant",)
        )
        family.labels(tenant="a\nb").inc()
        status, body = _get(server, "/metrics")
        assert status == 200
        samples = [
            line for line in body.splitlines()
            if line.startswith("repro_http_tenant_total")
        ]
        assert samples == ['repro_http_tenant_total{tenant="a\\nb"} 1']

    def test_healthz_is_always_ok(self, server):
        assert _get(server, "/healthz") == (200, "ok\n")

    def test_readyz_follows_the_drain_flag(self, server):
        assert _get(server, "/readyz")[0] == 200
        signals._DRAINING.set()
        try:
            assert _get(server, "/readyz") == (503, "draining\n")
        finally:
            signals.reset_draining()
        assert _get(server, "/readyz")[0] == 200

    def test_readyz_follows_an_attached_frontend(self):
        class _Closed:
            _closed = True

        server = ObsHTTPServer(
            port=0, registry=MetricsRegistry(), frontend=_Closed()
        )
        with server:
            assert _get(server, "/readyz")[0] == 503

    def test_slo_is_an_unknown_path(self, server):
        assert _get(server, "/slo") == (404, "unknown path /slo\n")

    def test_debug_vars_is_the_registry_snapshot(self, server):
        status, body = _get(server, "/debug/vars")
        assert status == 200
        assert json.loads(body)["repro_http_test_total"] == 3

    def test_debug_profile_is_an_unknown_path(self, server):
        assert _get(server, "/debug/profile") == (
            404, "unknown path /debug/profile\n"
        )

    def test_unknown_path_404s(self, server):
        assert _get(server, "/nope")[0] == 404

    def test_index_lists_the_routes(self, server):
        status, body = _get(server, "/")
        assert status == 200
        assert "/metrics" in body and "/debug/vars" in body
        assert "/slo" not in body

    def test_query_strings_and_trailing_slashes_normalise(self, server):
        assert _get(server, "/healthz/?verbose=1")[0] == 200


class TestLifecycle:
    def test_start_is_idempotent_and_stop_releases_the_port(self):
        server = ObsHTTPServer(port=0, registry=MetricsRegistry())
        server.start()
        port = server.port
        assert server.start() is server
        assert server.port == port
        server.stop()
        with pytest.raises(Exception):
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=1
            )

    def test_frontend_serve_http_wires_the_endpoint(self):
        from repro.serve import ServeFrontend

        frontend = ServeFrontend(serve_http=True)
        try:
            assert frontend.http is not None
            status, body = _get(frontend.http, "/metrics")
            assert status == 200
            assert "repro_frontend_requests_total" in body
            assert _get(frontend.http, "/readyz")[0] == 200
        finally:
            frontend.close()
        # close() stops the listener after the drain completes.
        assert frontend.http._httpd is None

    def test_frontend_env_opt_in(self, monkeypatch):
        from repro.serve import ServeFrontend

        monkeypatch.setenv("REPRO_OBS_HTTP", "127.0.0.1:0")
        frontend = ServeFrontend()
        try:
            assert frontend.http is not None
            assert _get(frontend.http, "/healthz")[0] == 200
        finally:
            frontend.close()

    @pytest.mark.parametrize(
        "path, status",
        [
            ("/healthz", 200),
            ("/readyz", 200),
            ("/metrics", 200),
            ("/debug/vars", 200),
            ("/slo", 404),
        ],
    )
    def test_live_frontend_routes(self, path, status):
        """The routes a serving front-end answers once it has served a
        request; the SLO route went with the SLO engine."""
        from repro.serve import ServeFrontend

        frontend = ServeFrontend(serve_http=True)
        try:
            frontend._enqueue("default", lambda: None).result(timeout=10)
            assert _get(frontend.http, path)[0] == status
        finally:
            frontend.close()

    def test_frontend_defaults_to_no_endpoint(self, monkeypatch):
        from repro.serve import ServeFrontend

        monkeypatch.delenv("REPRO_OBS_HTTP", raising=False)
        frontend = ServeFrontend()
        try:
            assert frontend.http is None
        finally:
            frontend.close()
