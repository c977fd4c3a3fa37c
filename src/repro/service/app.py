"""The ``repro serve`` HTTP daemon.

Stdlib only: a :class:`http.server.ThreadingHTTPServer` front end over
the :class:`~repro.service.db.ResultsDB` (queries, status) and the
:class:`~repro.service.executor.CampaignExecutor` (grading). The API is
JSON over plain HTTP:

========  ==============================  =====================================
method    path                            meaning
========  ==============================  =====================================
GET       ``/``                           HTML dashboard
GET       ``/healthz``                    liveness + queue depth
POST      ``/campaigns``                  submit a CampaignSpec (idempotent)
GET       ``/campaigns``                  list campaigns
GET       ``/campaigns/<id>``             one campaign incl. live progress
GET       ``/campaigns/<id>/results``     per-class counts, shards, digest
DELETE    ``/campaigns/<id>``             cancel (queued or running)
GET       ``/query``                      cross-campaign aggregates
========  ==============================  =====================================

Submission is idempotent on the oracle-keyed campaign id: POSTing a
spec that already exists returns the stored campaign (HTTP 200, with
``"resubmitted": true``) instead of regrading — the same property the
CLI's resume path has, surfaced over the wire. A full queue is a 503,
a malformed spec a 400, an unknown id a 404; every error body is
``{"error": ...}``.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import ReproError, ServiceError
from repro.run.runner import CampaignRunner
from repro.run.spec import CampaignSpec
from repro.service.dashboard import render_dashboard
from repro.service.db import DEFAULT_DB_FILENAME, ResultsDB
from repro.service.executor import DEFAULT_QUEUE_LIMIT, CampaignExecutor

#: largest accepted request body (a spec is a few hundred bytes)
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """One request. ``self.server.service`` is the CampaignService."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    # headers and body go out as two writes; with Nagle on, a keep-alive
    # client's delayed ACK holds the body back ~40 ms
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def service(self) -> "CampaignService":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.service.verbose:
            super().log_message(format, *args)

    def _send(
        self, body, content_type: str = "application/json", status: int = 200
    ) -> None:
        """One response; a ``dict`` body is sent as indented JSON."""
        if isinstance(body, dict):
            body = json.dumps(body, indent=2) + "\n"
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _error(self, message: str, status: int) -> None:
        self._send({"error": message}, status=status)

    def _read_body(self) -> Optional[Dict]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._error("Content-Length is not an integer", 400)
            return None
        if length <= 0 or length > MAX_BODY_BYTES:
            self._error("request body required (a JSON CampaignSpec)", 400)
            return None
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            self._error(f"request body is not JSON: {error}", 400)
            return None
        if not isinstance(payload, dict):
            self._error("request body must be a JSON object", 400)
            return None
        return payload

    def _route(self) -> Tuple[str, Dict]:
        parsed = urlparse(self.path)
        query = {
            key: values[-1] for key, values in parse_qs(parsed.query).items()
        }
        return parsed.path.rstrip("/") or "/", query

    # ------------------------------------------------------------------
    # GET
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path, query = self._route()
        try:
            if path == "/":
                self._dashboard()
            elif path == "/healthz":
                self._healthz()
            elif path == "/campaigns":
                self._list_campaigns(query)
            elif path == "/query":
                self._query(query)
            elif path.startswith("/campaigns/"):
                parts = path.split("/")[2:]
                if len(parts) == 1:
                    self._get_campaign(parts[0])
                elif len(parts) == 2 and parts[1] == "results":
                    self._get_results(parts[0])
                else:
                    self._error(f"no route {path}", 404)
            else:
                self._error(f"no route {path}", 404)
        except ServiceError as error:
            self._error(str(error), 400)

    def _healthz(self) -> None:
        self._send(
            {
                "ok": True,
                "queue_depth": self.service.executor.queue_depth,
                "running": self.service.executor.current_campaign,
                "uptime_s": round(time.time() - self.service.started_at, 3),
            }
        )

    def _dashboard(self) -> None:
        db = self.service.db
        campaigns = db.campaigns()
        counts = {
            row["campaign_id"]: db.class_counts(row["campaign_id"])
            for row in campaigns
            if row["status"] in ("done", "imported")
        }
        self._send(
            render_dashboard(
                campaigns,
                counts,
                queue_depth=self.service.executor.queue_depth,
                started_at=self.service.started_at,
            ),
            "text/html; charset=utf-8",
        )

    def _list_campaigns(self, query: Dict) -> None:
        rows = self.service.db.campaigns(status=query.get("status"))
        self._send({"campaigns": rows, "count": len(rows)})

    def _get_campaign(self, campaign_id: str) -> None:
        row = self.service.db.campaign(campaign_id)
        if row is None:
            self._error(f"unknown campaign {campaign_id!r}", 404)
            return
        self._send(row)

    def _get_results(self, campaign_id: str) -> None:
        db = self.service.db
        row = db.campaign(campaign_id)
        if row is None:
            self._error(f"unknown campaign {campaign_id!r}", 404)
            return
        if row["status"] not in ("done", "imported"):
            self._send(
                {
                    "campaign_id": campaign_id,
                    "status": row["status"],
                    "detail": "results are available once the campaign "
                    "completes; poll GET /campaigns/<id> for progress",
                },
                status=409,
            )
            return
        self._send(
            {
                "campaign_id": campaign_id,
                "status": row["status"],
                "oracle_digest": row["oracle_digest"],
                "num_faults": row["num_faults"],
                "classes": db.class_counts(campaign_id),
                "total_cycles": row["total_cycles"],
                "emulation_ms": row["emulation_ms"],
                "us_per_fault": row["us_per_fault"],
                "shards": db.shards(campaign_id),
            }
        )

    def _query(self, query: Dict) -> None:
        kind = query.get("kind", "flop_failures")
        db = self.service.db
        if kind == "flop_failures":
            try:
                limit = int(query["limit"]) if "limit" in query else None
            except ValueError:
                self._error(f"limit {query['limit']!r} is not an integer", 400)
                return
            rows = db.flop_failure_rates(
                circuit=query.get("circuit"),
                fault_model=query.get("fault_model"),
                limit=limit,
                mode=query.get("mode"),
            )
        elif kind == "classes":
            rows = db.class_breakdown(
                group=query.get("group", "effective_circuit")
            )
        else:
            self._error(
                f"unknown query kind {kind!r}; expected flop_failures or "
                "classes",
                400,
            )
            return
        self._send({"kind": kind, "rows": rows, "count": len(rows)})

    # ------------------------------------------------------------------
    # POST / DELETE
    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path, _ = self._route()
        if path != "/campaigns":
            self._error(f"no route POST {path}", 404)
            return
        payload = self._read_body()
        if payload is None:
            return
        try:
            spec = CampaignSpec.from_dict(payload)
        except ReproError as error:
            self._error(f"invalid campaign spec: {error}", 400)
            return
        except TypeError as error:
            self._error(f"invalid campaign spec: {error}", 400)
            return
        try:
            created, row = self.service.submit(spec)
        except ServiceError as error:
            self._error(str(error), 503)
            return
        row = dict(row)
        row["resubmitted"] = not created
        self._send(row, status=201 if created else 200)

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib naming
        path, _ = self._route()
        parts = path.split("/")
        if len(parts) != 3 or parts[1] != "campaigns":
            self._error(f"no route DELETE {path}", 404)
            return
        campaign_id = parts[2]
        try:
            outcome = self.service.db.request_cancel(campaign_id)
        except ServiceError as error:
            self._error(str(error), 404)
            return
        if outcome is None:
            row = self.service.db.campaign(campaign_id)
            self._send(
                {
                    "campaign_id": campaign_id,
                    "status": row["status"],
                    "detail": "campaign already finished; nothing to cancel",
                }
            )
            return
        self._send({"campaign_id": campaign_id, "status": outcome})


class CampaignService:
    """Database + executor + HTTP server, composed and lifecycle-managed.

    ``port=0`` binds an ephemeral port (exposed as ``self.port`` after
    construction) — the tests and the CI smoke rely on this to avoid
    port races.
    """

    def __init__(
        self,
        db_path: str,
        runner: CampaignRunner,
        host: str = "127.0.0.1",
        port: int = 8780,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        verbose: bool = False,
    ):
        self.db = ResultsDB(db_path)
        self.executor = CampaignExecutor(
            self.db, runner, queue_limit=queue_limit
        )
        self.verbose = verbose
        self.started_at = time.time()
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = self  # type: ignore[attr-defined]
        self.host, self.port = self.httpd.server_address[:2]
        self._serve_thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # submission (shared by HTTP handler and any in-process caller)
    # ------------------------------------------------------------------
    def submit(self, spec: CampaignSpec) -> Tuple[bool, Dict]:
        """Idempotent submit: record in the DB, then enqueue if new."""
        created, row = self.db.submit(spec)
        if created:
            try:
                self.executor.submit(spec)
            except ServiceError:
                # Queue full: roll the queued row back so a retry after
                # drain re-creates it cleanly instead of stranding a
                # 'queued' campaign no executor will ever pick up.
                if row.get("status") == "queued":
                    self.db.delete_campaign(spec.campaign_id)
                raise
        return created, row

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start executor + HTTP server threads; returns immediately."""
        self.executor.start()
        self._serve_thread = threading.Thread(
            target=self.httpd.serve_forever,
            name="repro-service-http",
            daemon=True,
        )
        self._serve_thread.start()

    def serve_forever(self) -> None:
        """Blocking variant for the CLI entry point."""
        self.executor.start()
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.executor.stop(wait=False)
        self.db.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"


__all__ = [
    "CampaignService",
    "DEFAULT_DB_FILENAME",
    "DEFAULT_QUEUE_LIMIT",
    "MAX_BODY_BYTES",
]
