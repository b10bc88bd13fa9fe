"""Embedded ops endpoint: scrape and health over HTTP.

A serving process is only operable if its state can be *pulled* — a
Prometheus scraper, a load-balancer health check, an engineer with
``curl`` — without attaching a debugger.  :class:`ObsHTTPServer` is a
stdlib-only (``http.server``) daemon-threaded listener exposing:

* ``/metrics`` — the whole metrics registry in Prometheus text
  exposition format (:func:`repro.obs.export.render_prometheus`);
* ``/healthz`` — liveness: 200 while the process runs;
* ``/readyz`` — readiness: 503 once a drain began (the signal layer's
  SIGTERM handling) or the attached front-end closed, so load balancers
  stop routing before the listener disappears;
* ``/debug/vars`` — the raw registry snapshot as JSON (expvar-style).

Opt-in only: construct one explicitly, pass ``serve_http=`` to
:class:`~repro.serve.ServeFrontend`, or set ``REPRO_OBS_HTTP`` to a
port (or ``host:port``) in the environment.  The default bind host is
loopback — exposing the endpoint wider is a deliberate decision for the
operator, not a default.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..errors import ConfigError
from .export import render_prometheus
from .registry import MetricsRegistry, get_registry

DEFAULT_HOST = "127.0.0.1"


def parse_http_spec(spec) -> Optional[tuple]:
    """Normalise a ``serve_http=`` / ``REPRO_OBS_HTTP`` value.

    Accepts ``True`` (ephemeral port), an integer port, ``"8080"``,
    ``"0.0.0.0:8080"`` or None/False/"" (disabled).  Returns
    ``(host, port)`` or None; a port outside 0-65535 is a
    :class:`~repro.errors.ConfigError`.
    """
    if spec is None or spec is False or spec == "":
        return None
    if spec is True:
        return (DEFAULT_HOST, 0)
    if isinstance(spec, int):
        host, port = DEFAULT_HOST, spec
    else:
        host, _, port_text = str(spec).strip().rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            raise ConfigError(
                f"bad HTTP endpoint spec {spec!r}: expected a port or "
                "host:port"
            )
    if not 0 <= port <= 65535:
        raise ConfigError(
            f"bad HTTP endpoint spec {spec!r}: port {port} is outside 0-65535"
        )
    return (host or DEFAULT_HOST, port)


class _Handler(BaseHTTPRequestHandler):
    # Per-request log lines on stderr would swamp a serving process.
    def log_message(self, *_args) -> None:
        return None

    def _reply(
        self, status: int, body: str, content_type: str = "text/plain"
    ) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", f"{content_type}; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _reply_json(self, status: int, obj) -> None:
        self._reply(
            status, json.dumps(obj, indent=2, default=str), "application/json"
        )

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        owner: "ObsHTTPServer" = self.server.obs  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                self._reply(200, render_prometheus(owner.registry))
            elif path == "/healthz":
                self._reply(200, "ok\n")
            elif path == "/readyz":
                if owner.is_ready():
                    self._reply(200, "ready\n")
                else:
                    self._reply(503, "draining\n")
            elif path == "/debug/vars":
                self._reply_json(200, owner.registry.snapshot())
            elif path == "/":
                self._reply(
                    200,
                    "repro obs endpoint\n"
                    "/metrics /healthz /readyz /debug/vars\n",
                )
            else:
                self._reply(404, f"unknown path {path}\n")
        except BrokenPipeError:  # scraper went away mid-reply
            pass
        except Exception as exc:  # noqa: BLE001 - endpoint must not die
            try:
                self._reply(500, f"internal error: {exc}\n")
            except Exception:  # noqa: BLE001
                pass


class ObsHTTPServer:
    """The embedded endpoint: one daemon thread, loopback by default.

    Args:
        port: TCP port; 0 binds an ephemeral port (read it back from
            :attr:`port` after :meth:`start`).
        host: bind address, loopback unless deliberately widened.
        registry: metrics registry to serve (default: the global one).
        frontend: optional :class:`~repro.serve.ServeFrontend` whose
            closed state feeds ``/readyz``.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = DEFAULT_HOST,
        registry: Optional[MetricsRegistry] = None,
        frontend=None,
    ) -> None:
        self.registry = registry if registry is not None else get_registry()
        self.frontend = frontend
        self._host = host
        self._requested_port = port
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    def is_ready(self) -> bool:
        """Readiness: not draining, and any attached front-end is open."""
        from ..serve.signals import is_draining

        if is_draining():
            return False
        frontend = self.frontend
        if frontend is not None and getattr(frontend, "_closed", False):
            return False
        return True

    def start(self) -> "ObsHTTPServer":
        if self._httpd is not None:
            return self
        httpd = ThreadingHTTPServer(
            (self._host, self._requested_port), _Handler
        )
        httpd.daemon_threads = True
        httpd.obs = self  # type: ignore[attr-defined] - handler back-pointer
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name="repro-obs-http",
            daemon=True,
            kwargs={"poll_interval": 0.1},
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        httpd, thread = self._httpd, self._thread
        self._httpd = self._thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "ObsHTTPServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

