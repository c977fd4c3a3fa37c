"""Long-running campaign service: HTTP daemon + SQLite results index.

The package behind ``repro serve`` / ``repro db`` / ``repro query``:

* :mod:`repro.service.db` — schema-versioned WAL SQLite database
  (campaigns / shards / flop_outcomes verdict counts) with lossless
  import from the JSONL :class:`~repro.run.store.ResultsStore` and the
  cross-campaign aggregate queries.
* :mod:`repro.service.executor` — the background grading thread that
  drains the bounded submission queue through one persistent
  :class:`~repro.run.runner.CampaignRunner`.
* :mod:`repro.service.app` — the stdlib ``ThreadingHTTPServer`` JSON
  API plus the HTML dashboard.

See ``docs/service.md`` for the API reference and deployment guide.
"""

from repro.service.app import CampaignService
from repro.service.db import SCHEMA_VERSION, ResultsDB
from repro.service.executor import DEFAULT_QUEUE_LIMIT, CampaignExecutor

__all__ = [
    "CampaignService",
    "CampaignExecutor",
    "ResultsDB",
    "SCHEMA_VERSION",
    "DEFAULT_QUEUE_LIMIT",
]
