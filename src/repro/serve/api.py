"""JSON-over-HTTP surface for the sweep service (stdlib only).

Two layers, deliberately separated:

* :func:`dispatch` — a pure function from ``(method, path, body)`` to
  ``(status, payload)``.  All routing, validation, and JSON shaping
  lives here, so the entire API is testable in-process without opening
  a socket (the end-to-end harness calls ``dispatch`` directly against
  a fake-clock service).
* :class:`ServiceServer` — a ``ThreadingHTTPServer`` shim that decodes
  the request, calls :func:`dispatch`, and encodes the response.  It
  contains no logic worth testing over a live socket beyond "bytes go
  in, bytes come out", which one smoke path covers.

Routes::

    GET  /healthz                    service liveness + fingerprint
    GET  /v1/jobs                    all job statuses (submission order)
    POST /v1/jobs                    submit a sweep (202 new, 200 dedup)
    GET  /v1/jobs/<id>               one job's status
    GET  /v1/jobs/<id>/report        assembled report (409 unless settled)
    GET  /v1/jobs/<id>/telemetry     merged mission telemetry (streamable)
    POST /v1/jobs/<id>/cancel        cancel a live job
    GET  /v1/telemetry               rose_serve_* ops snapshot

Errors are ``{"error": message}`` with the :class:`ServeError` status
(400 bad input, 404 unknown job/route, 409 wrong state, 502 artifact
loss).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.core.manifest import config_from_dict
from repro.errors import ReproError, ServeError
from repro.serve.jobs import JOBQ_FORMAT, JobParams
from repro.serve.service import SweepService, report_signature
from repro.sweep.signature import mission_signature


def _parse_tasks(payload: Any) -> list[tuple[str, Any]]:
    if not isinstance(payload, list) or not payload:
        raise ServeError("tasks must be a non-empty list", status=400)
    tasks = []
    for position, entry in enumerate(payload):
        if not isinstance(entry, dict) or "config" not in entry:
            raise ServeError(
                f"tasks[{position}] must be an object with a 'config'", status=400
            )
        name = str(entry.get("name", f"task{position}"))
        try:
            config = config_from_dict(dict(entry["config"]))
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            raise ServeError(
                f"tasks[{position}].config is invalid: {exc}", status=400
            ) from exc
        tasks.append((name, config))
    return tasks


def _submit(service: SweepService, body: Any) -> tuple[int, dict[str, Any]]:
    if not isinstance(body, dict):
        raise ServeError("request body must be a JSON object", status=400)
    tasks = _parse_tasks(body.get("tasks"))
    params_payload = body.get("params", {})
    if not isinstance(params_payload, dict):
        raise ServeError("params must be a JSON object", status=400)
    params = JobParams.from_dict(params_payload)
    result = service.submit(str(body.get("name", "sweep")), tasks, params)
    status = 200 if result["disposition"] == "deduplicated" else 202
    return status, result


def _report_payload(service: SweepService, job_id: str) -> dict[str, Any]:
    report = service.report(job_id)
    return {
        "job": job_id,
        "ok": report.ok,
        "signature": report_signature(report),
        "fingerprint": report.fingerprint,
        "workers": report.workers,
        "outcomes": [
            {
                "name": outcome.name,
                "state": outcome.state,
                "attempts": outcome.attempts,
                "owner": outcome.owner,
                "signature": (
                    mission_signature(outcome.result)
                    if outcome.result is not None
                    else None
                ),
                "failure": (
                    outcome.failure.to_dict() if outcome.failure is not None else None
                ),
            }
            for outcome in report.outcomes
        ],
        "telemetry": report.telemetry(),
    }


def _route_label(method: str, parts: list[str]) -> str:
    """A bounded-cardinality route label for ``rose_serve_requests_total``."""
    if parts == ["healthz"]:
        return "healthz"
    if parts == ["v1", "telemetry"]:
        return "telemetry"
    if parts == ["v1", "jobs"]:
        return "jobs"
    if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
        return "job"
    if len(parts) == 4 and parts[:2] == ["v1", "jobs"]:
        return f"job_{parts[3]}" if parts[3] in ("report", "telemetry", "cancel") else "unknown"
    return "unknown"


def dispatch(
    service: SweepService, method: str, path: str, body: Any = None
) -> tuple[int, dict[str, Any]]:
    """Route one API request; returns ``(http_status, json_payload)``.

    Pure with respect to the transport: no sockets, no encoding — the
    in-process harness and the HTTP handler share this single entry
    point, so what the tests exercise is what the server serves.
    """
    status, payload = _dispatch_inner(service, method, path, body)
    parts = [part for part in path.split("/") if part]
    service.registry.inc(
        "rose_serve_requests_total",
        route=_route_label(method, parts),
        status=str(status),
    )
    return status, payload


def _dispatch_inner(
    service: SweepService, method: str, path: str, body: Any
) -> tuple[int, dict[str, Any]]:
    try:
        parts = [part for part in path.split("/") if part]
        if method == "GET" and parts == ["healthz"]:
            return 200, {
                "ok": True,
                "format": JOBQ_FORMAT,
                "fingerprint": service.fingerprint,
            }
        if parts == ["v1", "telemetry"] and method == "GET":
            return 200, {"serve": service.telemetry()}
        if parts == ["v1", "jobs"]:
            if method == "GET":
                return 200, {"jobs": service.statuses()}
            if method == "POST":
                return _submit(service, body)
            return 405, {"error": f"method {method} not allowed on {path}"}
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"] and method == "GET":
            return 200, service.status(parts[2])
        if len(parts) == 4 and parts[:2] == ["v1", "jobs"]:
            job_id, action = parts[2], parts[3]
            if method == "GET" and action == "report":
                return 200, _report_payload(service, job_id)
            if method == "GET" and action == "telemetry":
                return 200, service.job_telemetry(job_id)
            if method == "POST" and action == "cancel":
                return 200, service.cancel(job_id)
        return 404, {"error": f"no route for {method} {path}"}
    except ServeError as exc:
        return exc.status, {"error": str(exc)}


class _Handler(BaseHTTPRequestHandler):
    """Transport shim: JSON in, :func:`dispatch`, JSON out."""

    server: "ServiceServer"

    def _respond(self, status: int, payload: dict[str, Any]) -> None:
        encoded = json.dumps(payload, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _body(self) -> Any:
        header = self.headers.get("Content-Length", "0") or "0"
        if not header.strip().isdigit():
            # The request body cannot be framed, so neither can the next
            # request on this connection.
            self.close_connection = True
            raise ServeError(
                f"Content-Length must be a non-negative integer, got {header!r}"
            )
        length = int(header)
        if length == 0:
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServeError(f"request body is not valid JSON: {exc}") from exc

    def _handle(self, method: str) -> None:
        try:
            body = self._body()
        except ServeError as exc:
            self._respond(exc.status, {"error": str(exc)})
            return
        status, payload = dispatch(self.server.service, method, self.path, body)
        self._respond(status, payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._handle("POST")

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # quiet by default; ops visibility comes from rose_serve_*


class ServiceServer(ThreadingHTTPServer):
    """The sweep service bound to a TCP port (0 = ephemeral, for tests)."""

    daemon_threads = True

    def __init__(self, service: SweepService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        super().__init__((host, port), _Handler)

    @property
    def address(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"
