"""repro.fleet.remote -- the distributed experiment service.

The fleet's two remote protocols, both JSON-over-HTTP on the stdlib:

* **artifact store** (:mod:`.store`) -- content-addressed ``get/put/has``
  against a shared :class:`~repro.fleet.cache.ResultCache` served by
  ``repro fleet store``; :class:`HTTPStore` is the client-side
  :class:`~repro.fleet.cache.ArtifactStore` backend
  (``REPRO_CACHE_DIR=http://host:port`` selects it everywhere);
* **worker pool** (:mod:`.coordinator` / :mod:`.worker` / :mod:`.pool`) --
  ``repro fleet serve`` runs the job-lease/heartbeat/result coordinator,
  ``repro fleet worker`` runs stateless pullers, and :class:`RemotePool`
  lets ``repro fleet sweep --workers host:port`` run a sweep on the
  workers attached to that one coordinator, on any number of machines,
  with work-stealing on lease expiry.

Remote execution reuses the exact local worker entry point, so remote
artifacts are byte-identical to local ones -- same digests, same salts.
"""

from .coordinator import FleetCoordinator
from .pool import RemotePool
from .store import ArtifactStoreServer, HTTPStore
from .wire import Endpoint, WireError, parse_endpoint
from .worker import FleetWorker

__all__ = [
    "FleetCoordinator",
    "FleetWorker",
    "RemotePool",
    "ArtifactStoreServer",
    "HTTPStore",
    "Endpoint",
    "WireError",
    "parse_endpoint",
]
