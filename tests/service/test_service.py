"""End-to-end tests of the HTTP campaign service.

One in-process :class:`CampaignService` per test (ephemeral port,
serial runner) driven through real HTTP requests — the same surface a
remote client sees, including error statuses.
"""

import http.client
import json
import time
import urllib.error
import urllib.request

import pytest

from repro.run.cli import main
from repro.run.runner import CampaignRunner
from repro.run.spec import CampaignSpec
from repro.service.app import CampaignService

SPEC = {"circuit": "b04", "technique": "time_multiplexed",
        "sample": 25, "num_cycles": 48}


@pytest.fixture()
def service(tmp_path):
    runner = CampaignRunner(workers=0, store_root=str(tmp_path / "runs"))
    svc = CampaignService(
        str(tmp_path / "service.db"), runner, host="127.0.0.1", port=0
    )
    svc.start()
    yield svc
    svc.shutdown()
    runner.close()


def _request(service, path, body=None, method=None):
    """(status, parsed-JSON) for one request; 4xx/5xx don't raise."""
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        service.url + path, data=data,
        method=method or ("POST" if data else "GET"),
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())


def _await_terminal(service, campaign_id, timeout=60):
    deadline = time.time() + timeout
    while time.time() < deadline:
        _, row = _request(service, f"/campaigns/{campaign_id}")
        if row["status"] in ("done", "failed", "cancelled"):
            return row
        time.sleep(0.05)
    raise AssertionError(f"campaign {campaign_id} never finished: {row}")


class TestSubmission:
    def test_post_grades_and_matches_cli_digest(self, service, capsys):
        """The acceptance criterion: a campaign submitted over HTTP
        reports an oracle_digest identical to `repro run` of the same
        spec."""
        status, row = _request(service, "/campaigns", body=SPEC)
        assert status == 201
        assert row["status"] == "queued"
        assert row["resubmitted"] is False
        row = _await_terminal(service, row["campaign_id"])
        assert row["status"] == "done", row.get("error")
        assert row["shards_done"] == row["num_shards"] > 0

        assert main([
            "run", "--circuit", SPEC["circuit"], "--technique",
            SPEC["technique"], "--sample", str(SPEC["sample"]),
            "--cycles", str(SPEC["num_cycles"]),
            "--no-store", "--quiet", "--json",
        ]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["oracle_digest"] == row["oracle_digest"]

    def test_resubmission_is_idempotent(self, service):
        status, first = _request(service, "/campaigns", body=SPEC)
        assert status == 201
        done = _await_terminal(service, first["campaign_id"])
        status, again = _request(service, "/campaigns", body=SPEC)
        assert status == 200
        assert again["resubmitted"] is True
        assert again["campaign_id"] == first["campaign_id"]
        assert again["status"] == "done"
        # nothing was regraded: the digest and finish time are untouched
        assert again["oracle_digest"] == done["oracle_digest"]
        assert again["finished_at"] == done["finished_at"]

    def test_invalid_specs_are_400(self, service):
        status, body = _request(
            service, "/campaigns",
            body={**SPEC, "flux_capacitor": True},
        )
        assert status == 400
        assert "flux_capacitor" in body["error"]
        status, body = _request(
            service, "/campaigns", body={**SPEC, "technique": "warp"}
        )
        assert status == 400
        status, body = _request(service, "/campaigns", body=[1, 2])
        assert status == 400

    def test_unknown_campaign_is_404(self, service):
        status, body = _request(service, "/campaigns/b04-ffffffffff")
        assert status == 404
        assert "error" in body


class TestResultsAndQueries:
    def test_results_endpoint(self, service):
        _, row = _request(service, "/campaigns", body=SPEC)
        _await_terminal(service, row["campaign_id"])
        status, results = _request(
            service, f"/campaigns/{row['campaign_id']}/results"
        )
        assert status == 200
        assert results["num_faults"] == SPEC["sample"]
        assert sum(results["classes"].values()) == SPEC["sample"]
        assert len(results["shards"]) > 0
        assert results["oracle_digest"]

    def test_results_before_completion_is_409(self, service):
        spec = CampaignSpec.from_dict(SPEC)
        service.db.submit(spec)  # queued, never executed
        status, body = _request(
            service, f"/campaigns/{spec.campaign_id}/results"
        )
        assert status == 409
        assert body["status"] == "queued"

    def test_query_endpoint(self, service):
        _, row = _request(service, "/campaigns", body=SPEC)
        _await_terminal(service, row["campaign_id"])
        status, payload = _request(
            service, "/query?kind=flop_failures&circuit=b04&limit=5"
        )
        assert status == 200
        assert 0 < payload["count"] <= 5
        status, payload = _request(service, "/query?kind=classes")
        assert status == 200
        assert payload["rows"][0]["grp"] == "b04"
        status, payload = _request(service, "/query?kind=nonsense")
        assert status == 400

    def test_campaign_listing_filters(self, service):
        _, row = _request(service, "/campaigns", body=SPEC)
        _await_terminal(service, row["campaign_id"])
        status, listing = _request(service, "/campaigns?status=done")
        assert status == 200
        assert listing["count"] == 1
        status, listing = _request(service, "/campaigns?status=failed")
        assert listing["count"] == 0


class TestMalformedInput:
    """Malformed query strings and headers get a 400 with a JSON error,
    never a dropped connection or a silently empty answer."""

    @pytest.mark.parametrize("query, named", [
        ("limit=abc", "'abc'"),
        ("mode=bogus", "'bogus'"),
    ])
    def test_bad_flop_query_is_400(self, service, query, named):
        status, body = _request(service, f"/query?kind=flop_failures&{query}")
        assert status == 400
        assert named in body["error"]

    def test_non_integer_content_length_is_400(self, service):
        connection = http.client.HTTPConnection(
            service.host, service.port, timeout=30
        )
        try:
            connection.putrequest("POST", "/campaigns")
            connection.putheader("Content-Length", "abc")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert "Content-Length" in json.load(response)["error"]
        finally:
            connection.close()

    def test_unknown_status_filter_is_400(self, service):
        status, body = _request(service, "/campaigns?status=bogus")
        assert status == 400
        assert "bogus" in body["error"]
        assert "queued" in body["error"] and "imported" in body["error"]


class TestCancellation:
    def test_cancel_queued_campaign(self, tmp_path):
        # A service whose executor is never started: submissions stay
        # queued, so DELETE must flip them straight to cancelled.
        runner = CampaignRunner(workers=0, store_root=str(tmp_path / "runs"))
        svc = CampaignService(
            str(tmp_path / "db.db"), runner, host="127.0.0.1", port=0
        )
        # start only the HTTP thread, not the executor
        import threading

        thread = threading.Thread(
            target=svc.httpd.serve_forever, daemon=True
        )
        thread.start()
        try:
            status, row = _request(svc, "/campaigns", body=SPEC)
            assert status == 201
            status, body = _request(
                svc, f"/campaigns/{row['campaign_id']}", method="DELETE"
            )
            assert status == 200
            assert body["status"] == "cancelled"
            # second DELETE: terminal, nothing to cancel
            status, body = _request(
                svc, f"/campaigns/{row['campaign_id']}", method="DELETE"
            )
            assert body["status"] == "cancelled"
        finally:
            svc.httpd.shutdown()
            svc.httpd.server_close()
            svc.db.close()
            runner.close()

    def test_cancelled_campaign_requeues_on_resubmit(self, service):
        _, row = _request(service, "/campaigns", body=SPEC)
        done = _await_terminal(service, row["campaign_id"])
        service.db.mark_cancelled(done["campaign_id"])
        status, row = _request(service, "/campaigns", body=SPEC)
        assert status == 201  # re-queued, and will resume from the store
        _await_terminal(service, row["campaign_id"])


class TestOperational:
    def test_healthz(self, service):
        status, body = _request(service, "/healthz")
        assert status == 200
        assert body["ok"] is True
        assert "queue_depth" in body

    def test_keep_alive_responses_are_not_delayed(self, service):
        """Headers and body leave in two writes; with Nagle on, the
        client's delayed ACK held every keep-alive response ~40 ms."""
        connection = http.client.HTTPConnection(
            service.host, service.port, timeout=30
        )
        elapsed = []
        try:
            for _ in range(10):
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert json.load(response)["ok"] is True
                elapsed.append(time.perf_counter() - started)
        finally:
            connection.close()
        assert sorted(elapsed)[len(elapsed) // 2] < 0.020, elapsed

    def test_dashboard_lists_campaigns(self, service):
        _, row = _request(service, "/campaigns", body=SPEC)
        _await_terminal(service, row["campaign_id"])
        with urllib.request.urlopen(service.url + "/", timeout=30) as resp:
            markup = resp.read().decode()
        assert resp.headers["Content-Type"].startswith("text/html")
        assert row["campaign_id"] in markup
        assert "done" in markup

    def test_unknown_route_is_404(self, service):
        status, body = _request(service, "/nope")
        assert status == 404

    def test_queue_full_is_503_and_rolls_back(self, tmp_path):
        runner = CampaignRunner(workers=0, store_root=str(tmp_path / "runs"))
        svc = CampaignService(
            str(tmp_path / "db.db"), runner, host="127.0.0.1", port=0,
            queue_limit=1,
        )
        import threading

        thread = threading.Thread(
            target=svc.httpd.serve_forever, daemon=True
        )
        thread.start()  # executor deliberately not started: queue fills
        try:
            status, _ = _request(svc, "/campaigns", body=SPEC)
            assert status == 201
            overflow = {**SPEC, "seed": 99}
            status, body = _request(svc, "/campaigns", body=overflow)
            assert status == 503
            assert "queue is full" in body["error"]
            # the rolled-back campaign is gone, not stranded as queued
            overflow_id = CampaignSpec.from_dict(overflow).campaign_id
            status, _ = _request(svc, f"/campaigns/{overflow_id}")
            assert status == 404
        finally:
            svc.httpd.shutdown()
            svc.httpd.server_close()
            svc.db.close()
            runner.close()
