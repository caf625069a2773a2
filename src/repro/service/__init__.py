"""Simulation service layer: queue, batching scheduler, server, client.

Turns the batch reproduction into a long-lived servable system in the
shape of an inference-serving stack: requests (simulation points) are
queued with priorities, deduplicated against the content-addressed
result store and against identical in-flight work, coalesced into
batches for a bounded pool of worker processes, and observable through
a metrics endpoint.  See ``docs/service.md``.

Quick start::

    # terminal 1
    python -m repro serve --port 8642 --workers 4

    # terminal 2
    python -m repro submit pchase.mem,ilp.int4,stream.add,serial.alu \
        --length 4000

    # or programmatically
    from repro.service import ServiceClient
    client = ServiceClient("http://127.0.0.1:8642")
    doc = client.run({"config": "shelf64", "threads": 1,
                      "benchmarks": ["pchase.mem"], "length": 2000})
"""

from repro.service.client import JobFailed, ServiceClient, ServiceError
from repro.service.jobs import (Job, JobQueue, JobSpec, JobState,
                                config_from_wire, config_to_wire)
from repro.service.metrics import ServiceMetrics
from repro.service.scheduler import BatchScheduler, run_batch
from repro.service.server import ServiceServer, run_server, serve

__all__ = [
    "BatchScheduler",
    "Job",
    "JobFailed",
    "JobQueue",
    "JobSpec",
    "JobState",
    "ServiceClient",
    "ServiceError",
    "ServiceMetrics",
    "ServiceServer",
    "config_from_wire",
    "config_to_wire",
    "run_batch",
    "run_server",
    "serve",
]
