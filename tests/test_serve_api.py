"""Tests for the serve JSON API: dispatch, live HTTP server, CLI surface.

:func:`dispatch` is a pure function, so the full routing/validation
matrix runs in-process against a fake-clock service.  One threaded
:class:`ServiceServer` on an ephemeral port covers the transport shim
(bytes in, bytes out) plus the :class:`ServiceClient` and the CLI
``submit``/``status`` subcommands against a real socket.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.cli import main
from repro.core.config import CoSimConfig
from repro.core.manifest import config_to_dict, dump_manifest
from repro.errors import ServeError
from repro.serve import (
    FakeClock,
    ServiceClient,
    ServiceServer,
    SweepService,
    dispatch,
    report_signature,
    run_job_to_completion,
)
from repro.sweep.journal import read_jsonl

PARAMS = {"shards": 2, "lease_seconds": 30.0}


def _tiny_config(seed: int = 0) -> CoSimConfig:
    return CoSimConfig(
        world="tunnel", target_velocity=3.0, max_sim_time=1.0, seed=seed
    )


def _submit_body(n: int = 2) -> dict:
    return {
        "name": "sweep",
        "tasks": [
            {"name": f"seed{s}", "config": config_to_dict(_tiny_config(s))}
            for s in range(n)
        ],
        "params": dict(PARAMS),
    }


@pytest.fixture
def service(tmp_path):
    with SweepService(tmp_path / "serve", clock=FakeClock()) as svc:
        yield svc


# ---------------------------------------------------------------------------
# dispatch(): the whole routing/validation matrix, no sockets
# ---------------------------------------------------------------------------
class TestDispatch:
    def test_healthz(self, service):
        status, payload = dispatch(service, "GET", "/healthz")
        assert status == 200
        assert payload["ok"] is True
        assert payload["format"] == "rose-jobq/1"
        assert payload["fingerprint"] == service.fingerprint

    def test_submit_then_dedup(self, service):
        status, payload = dispatch(service, "POST", "/v1/jobs", _submit_body())
        assert status == 202
        assert payload["disposition"] == "submitted"
        again_status, again = dispatch(service, "POST", "/v1/jobs", _submit_body())
        assert again_status == 200
        assert again["disposition"] == "deduplicated"
        assert again["job"] == payload["job"]

    @pytest.mark.parametrize(
        "body",
        [
            None,
            {"tasks": []},
            {"tasks": "nope"},
            {"tasks": [{"name": "t"}]},  # no config
            {"tasks": [{"config": {"no_such_field": 1}}]},
            {"tasks": [{"config": config_to_dict(_tiny_config())}],
             "params": "nope"},
            {"tasks": [{"config": config_to_dict(_tiny_config())}],
             "params": {"shards": 0}},
        ],
    )
    def test_bad_submissions_are_400(self, service, body):
        status, payload = dispatch(service, "POST", "/v1/jobs", body)
        assert status == 400
        assert "error" in payload

    @pytest.mark.parametrize(
        "params",
        [
            {"slice_size": 1.5},
            {"shards": 2.5},
            {"shards": True},
            {"workers": 1.5},
            {"max_attempts": 2.5},
            {"task_timeout": 0},
            {"task_timeout": -1},
            {"task_timeout": "x"},
            {"lease_seconds": float("inf")},
        ],
    )
    def test_params_a_shard_cannot_run_are_400_and_never_journaled(
        self, service, params
    ):
        body = _submit_body()
        body["params"] = {**PARAMS, **params}
        status, payload = dispatch(service, "POST", "/v1/jobs", body)
        assert status == 400, payload
        assert "error" in payload
        events = [record["event"] for record in read_jsonl(service.store.path)]
        assert "submit" not in events

    def test_job_listing_and_status(self, service):
        _, submitted = dispatch(service, "POST", "/v1/jobs", _submit_body())
        status, listing = dispatch(service, "GET", "/v1/jobs")
        assert status == 200
        assert [job["job"] for job in listing["jobs"]] == [submitted["job"]]
        status, payload = dispatch(service, "GET", f"/v1/jobs/{submitted['job']}")
        assert status == 200
        assert payload["state"] == "queued"
        assert payload["tasks"]["total"] == 2

    def test_unknown_job_is_404(self, service):
        for method, path in [
            ("GET", "/v1/jobs/nope"),
            ("GET", "/v1/jobs/nope/report"),
            ("GET", "/v1/jobs/nope/telemetry"),
            ("POST", "/v1/jobs/nope/cancel"),
        ]:
            status, payload = dispatch(service, method, path)
            assert status == 404, path
            assert "error" in payload

    def test_unknown_route_is_404_and_bad_method_is_405(self, service):
        assert dispatch(service, "GET", "/v2/jobs")[0] == 404
        assert dispatch(service, "GET", "/v1/jobs/x/unknown-action")[0] == 404
        assert dispatch(service, "DELETE", "/v1/jobs")[0] == 405

    def test_report_409_until_done_then_signed(self, service):
        _, submitted = dispatch(service, "POST", "/v1/jobs", _submit_body())
        job_id = submitted["job"]
        status, payload = dispatch(service, "GET", f"/v1/jobs/{job_id}/report")
        assert status == 409
        run_job_to_completion(service, job_id)
        status, payload = dispatch(service, "GET", f"/v1/jobs/{job_id}/report")
        assert status == 200
        assert payload["ok"] is True
        assert payload["signature"] == report_signature(service.report(job_id))
        assert [o["name"] for o in payload["outcomes"]] == ["seed0", "seed1"]
        assert all(o["signature"] for o in payload["outcomes"])
        assert all(o["owner"] for o in payload["outcomes"])
        assert json.loads(json.dumps(payload)) == payload  # JSON-safe

    def test_cancel_and_job_telemetry(self, service):
        _, submitted = dispatch(service, "POST", "/v1/jobs", _submit_body())
        job_id = submitted["job"]
        status, payload = dispatch(service, "GET", f"/v1/jobs/{job_id}/telemetry")
        assert status == 200
        assert payload["completed"] == 0
        status, payload = dispatch(service, "POST", f"/v1/jobs/{job_id}/cancel")
        assert status == 200
        assert payload["cancelled"] is True
        assert payload["state"] == "cancelled"

    def test_requests_metric_counts_by_route_and_status(self, service):
        dispatch(service, "GET", "/healthz")
        dispatch(service, "GET", "/v1/jobs/nope")
        status, payload = dispatch(service, "GET", "/v1/telemetry")
        assert status == 200
        registry = service.registry
        assert registry.value(
            "rose_serve_requests_total", route="healthz", status="200"
        ) == 1
        assert registry.value(
            "rose_serve_requests_total", route="job", status="404"
        ) == 1


# ---------------------------------------------------------------------------
# Live socket: server + client + CLI, one ephemeral-port instance
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def live_server(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-live")
    service = SweepService(root, shards=2, poll_seconds=0.01, tick_seconds=0.05)
    service.start()
    server = ServiceServer(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.address
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=10.0)


class TestLiveServer:
    def test_health_round_trip(self, live_server):
        payload = ServiceClient(live_server).health()
        assert payload["ok"] is True

    def test_submit_wait_report_round_trip(self, live_server):
        client = ServiceClient(live_server)
        submitted = client.submit(
            "live-sweep", [("seed0", _tiny_config(0)), ("seed1", _tiny_config(1))]
        )
        status = client.wait(submitted["job"], timeout=120.0, poll_seconds=0.05)
        assert status["state"] == "done"
        report = client.report(submitted["job"])
        assert report["ok"] is True
        assert len(report["outcomes"]) == 2
        assert client.telemetry()["serve"]["rose_serve_leases_granted_total"][
            "series"
        ]

    def test_client_maps_http_errors_to_serve_errors(self, live_server):
        with pytest.raises(ServeError) as excinfo:
            ServiceClient(live_server).status("not-a-job")
        assert excinfo.value.status == 404

    def test_client_maps_connection_failure_to_502(self):
        with pytest.raises(ServeError) as excinfo:
            ServiceClient("http://127.0.0.1:1", timeout=1.0).health()
        assert excinfo.value.status == 502

    def test_bad_json_body_is_400(self, live_server):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            live_server + "/v1/jobs",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30.0)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_is_400(self, live_server, length):
        host, port = live_server.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=5.0) as sock:
            sock.sendall(
                b"POST /v1/jobs HTTP/1.1\r\nHost: test\r\n"
                + f"Content-Length: {length}\r\n".encode()
                + b"Connection: close\r\n\r\n"
            )
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.split(b"\r\n")[0].split()[1] == b"400", raw
        assert "Content-Length" in json.loads(body)["error"]
        assert ServiceClient(live_server).health()["ok"] is True


class TestServeCli:
    @pytest.fixture
    def manifest(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(
            dump_manifest(
                {"seed0": _tiny_config(0), "seed1": _tiny_config(1)}
            )
        )
        return str(path)

    def test_parser_defaults(self):
        from repro.cli import build_parser

        serve = build_parser().parse_args(["serve", "/tmp/root"])
        assert serve.port == 8321 and serve.shards == 2
        submit = build_parser().parse_args(["submit", "m.json", "--wait"])
        assert submit.url == "http://127.0.0.1:8321" and submit.wait

    def test_submit_wait_and_status_exit_zero(self, live_server, manifest,
                                              capsys, tmp_path):
        code = main([
            "submit", manifest, "--url", live_server,
            "--wait", "--timeout", "120",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "done" in out
        job_id = out.split()[1].rstrip(":")
        json_path = tmp_path / "status.json"
        assert main([
            "status", job_id, "--url", live_server,
            "--report", "--telemetry", "--json", str(json_path),
        ]) == 0
        payload = json.loads(json_path.read_text())
        assert payload["status"]["state"] == "done"
        assert payload["report"]["ok"] is True
        assert payload["telemetry"]["completed"] == 2

    def test_status_listing(self, live_server, capsys):
        client = ServiceClient(live_server)
        submitted = client.submit("listing", [("seed0", _tiny_config(0))])
        client.wait(submitted["job"], timeout=120.0, poll_seconds=0.05)
        assert main(["status", "--url", live_server]) == 0
        out = capsys.readouterr().out
        assert submitted["job"] in out
        assert "done" in out

    def test_unknown_job_exits_two(self, live_server, capsys):
        assert main(["status", "not-a-job", "--url", live_server]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unreachable_service_exits_two(self, manifest, capsys):
        assert main([
            "submit", manifest, "--url", "http://127.0.0.1:1",
        ]) == 2
        assert "error:" in capsys.readouterr().err
