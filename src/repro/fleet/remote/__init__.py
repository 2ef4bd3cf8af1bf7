"""repro.fleet.remote -- the distributed experiment service.

One service, JSON-over-HTTP on the stdlib: ``repro fleet serve --cache
DIR`` runs the :class:`FleetCoordinator` (:mod:`.coordinator`), which
queues jobs, leases them to workers with heartbeats and work-stealing on
lease expiry, and keeps the artifact store every result of its sweeps is
written to once.  ``repro fleet worker`` runs stateless pullers
(:mod:`.worker`) on any number of machines, and :class:`RemotePool`
(:mod:`.pool`) lets ``repro fleet sweep --workers host:port`` run a sweep
on the workers attached to that one coordinator.  :class:`HTTPStore`
(:mod:`.store`) is the client-side
:class:`~repro.fleet.cache.ArtifactStore` backend for the coordinator's
store (``REPRO_CACHE_DIR=http://host:port`` selects it everywhere).

Remote execution reuses the exact local worker entry point, so remote
artifacts are byte-identical to local ones -- same digests, same salts.
"""

from .coordinator import FleetCoordinator
from .pool import RemotePool
from .store import HTTPStore
from .wire import Endpoint, WireError, parse_endpoint
from .worker import FleetWorker

__all__ = [
    "FleetCoordinator",
    "FleetWorker",
    "RemotePool",
    "HTTPStore",
    "Endpoint",
    "WireError",
    "parse_endpoint",
]
