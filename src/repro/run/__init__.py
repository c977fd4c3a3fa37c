"""Campaign orchestration: declarative specs, sharded execution, stores.

* :mod:`repro.run.spec` — :class:`CampaignSpec`, the frozen serializable
  description of one campaign, plus the ``matrix()`` sweep expander.
* :mod:`repro.run.runner` — :class:`CampaignRunner`, the sharded,
  transport-pluggable, resumable executor.
* :mod:`repro.run.transport` — shard transports: in-process ``serial``,
  thread-pool ``local``, and remote-daemon ``tcp`` (plus the wire
  protocol and the ``repro worker`` daemon).
* :mod:`repro.run.store` — :class:`ResultsStore`, the per-campaign JSONL
  checkpoint store under ``runs/<campaign-id>/``.
* :mod:`repro.run.worker` — shard grading (per-process scenario and
  simulation caches).
* :mod:`repro.run.cli` — the ``python -m repro`` command line (imported
  lazily by ``repro.__main__``, not re-exported here).
"""

from repro.run.runner import CampaignRunner, ShardWindow, plan_windows
from repro.run.spec import CampaignSpec, Scenario
from repro.run.store import ResultsStore, ShardRecord
from repro.run.transport import (
    ShardTransport,
    available_transports,
    create_transport,
    register_transport,
)

__all__ = [
    "CampaignRunner",
    "CampaignSpec",
    "ResultsStore",
    "Scenario",
    "ShardRecord",
    "ShardTransport",
    "ShardWindow",
    "available_transports",
    "create_transport",
    "plan_windows",
    "register_transport",
]
