"""Serving subsystem: micro-batching, caching, sharding, front door.

Turns independent incoming forecast requests into the batched
forwards of :class:`~repro.workflow.engine.ForecastEngine` — the layer
that converts per-call speed into system throughput:

- :mod:`repro.serve.scheduler` — request queue + dynamic micro-batching
  under a ``max_batch``/``max_wait`` policy, with occupancy/latency
  metrics;
- :mod:`repro.serve.cache` — keyed LRU cache of completed forecasts;
- :mod:`repro.serve.pool` — N engine replicas behind pluggable routing
  (round-robin, least-outstanding, key-affinity sharding) with bounded
  queues, explicit shed-with-retry-after backpressure, and the
  control plane: a dynamic worker set plus zero-downtime versioned
  deploys (``EngineWorkerPool.deploy``);
- :mod:`repro.serve.remote` — the one remote-worker protocol behind
  the process and host tiers: the payload (weights + compiled plans,
  shipped once), the engine rebuilt from it, the op table, the serve
  loop, and the ``RemoteWorker`` client base;
- :mod:`repro.serve.procpool` — the ``backend="process"`` execution
  tier: the protocol's shared-memory transport (per-batch traffic as
  shared-memory descriptors over a pipe) to a child process, escaping
  the GIL the thread backend serialises on;
- :mod:`repro.serve.hostpool` — the ``backend="host"`` execution
  tier: the protocol's frame transport to a remote rank behind the
  :mod:`repro.hpc.fabric` descriptor transport (socket wire or
  deterministic sim fabric), with pipelined request/response framing
  and heartbeat-based death detection;
- :mod:`repro.serve.autoscale` — load-adaptive ``AutoScaler`` growing
  and shrinking the live worker count between bounds;
- :mod:`repro.serve.server` — routes plain, gradient, ensemble, and
  hybrid requests through the replica pool (a single-engine deployment
  is the pool of 1) and fronts the operations API (``deploy``,
  ``enable_autoscaling``).

Gradient requests (``ForecastServer.submit_sensitivity``) ride the
same scheduler/pool/cache machinery as forecasts on the thread
backend; see ``docs/differentiation.md``.

See ``docs/architecture.md`` for how the pieces compose and
``docs/serving.md`` for the tuning guide (including the Operations
section).
"""

from .autoscale import AutoScaler, LoadSample, ScaleEvent
from .cache import ForecastCache, ForecastCacheStats, gradient_key, window_key
from .pool import (
    DeploymentError,
    EngineVersion,
    EngineWorkerPool,
    KeyAffinityRouter,
    LeastOutstandingRouter,
    PoolEvent,
    PoolMetrics,
    PoolSaturated,
    RoundRobinRouter,
    Router,
)
from .hostpool import (
    HostWorker,
    HostWorkerDied,
    HostWorkerError,
)
from .procpool import (
    ProcessWorker,
    ProcessWorkerDied,
    ProcessWorkerError,
)
from .scheduler import (
    BatchRecord,
    MicroBatchScheduler,
    RequestRecord,
    ServedFuture,
    ServeMetrics,
)
from .server import ForecastServer

__all__ = [
    "MicroBatchScheduler",
    "ServedFuture",
    "ServeMetrics",
    "BatchRecord",
    "RequestRecord",
    "ForecastCache",
    "ForecastCacheStats",
    "window_key",
    "gradient_key",
    "EngineWorkerPool",
    "Router",
    "RoundRobinRouter",
    "LeastOutstandingRouter",
    "KeyAffinityRouter",
    "PoolMetrics",
    "PoolSaturated",
    "PoolEvent",
    "EngineVersion",
    "DeploymentError",
    "ProcessWorker",
    "ProcessWorkerError",
    "ProcessWorkerDied",
    "HostWorker",
    "HostWorkerError",
    "HostWorkerDied",
    "AutoScaler",
    "LoadSample",
    "ScaleEvent",
    "ForecastServer",
]
