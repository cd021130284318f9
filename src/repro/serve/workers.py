"""Multi-worker serving: processes sharing one compiled artifact.

The compiled classifier is tiny (Section VII-B) and, persisted as a
binary artifact, position-independent -- so N serving processes can map
*one* read-only copy out of shared memory instead of each rebuilding
(or even copying) it.  :class:`ServeWorkerPool` is a ``1 x N``
:class:`~repro.serve.grid.ProcessGrid`: every worker restores its
:class:`QueryService` from the shared pages and binds its own
``SO_REUSEPORT`` socket on one address, so the kernel load-balances
connections with no proxy in front.  :meth:`ServeWorkerPool.publish`
is the grid's ack'd handoff; each worker adopts the new generation
behind its swap lock as it acks ``prepare``, so in-flight batches
finish on the pages they started on.
"""

from __future__ import annotations

import asyncio
import time

from .. import config
from ..artifact import artifact_bytes, load_artifact_buffer
from .grid import Member, ProcessGrid, _reuseport_socket
from .service import QueryService
from .tcp import close_writer

__all__ = ["ServeWorkerPool", "closed_loop_qps"]


def _open_service(generations: dict, engine, options: dict):
    service = QueryService(generations[0][1], backend=engine, **options)
    service.counters.workers = 1
    return service


_WORKER = Member(load=load_artifact_buffer, open=_open_service, keep=1)


class ServeWorkerPool(ProcessGrid):
    """Parent-side controller for shared-memory serving workers.

    Usage::

        pool = ServeWorkerPool(classifier, workers=4, port=9000)
        pool.start()                 # returns once every worker listens
        ...
        pool.publish(new_classifier) # generation handoff, ack'd
        pool.stop()

    ``service_options`` passes through to each worker's
    :class:`QueryService` (``max_batch``, ``overflow``, ...).
    """

    role = "serve worker"

    def __init__(
        self,
        classifier,
        *,
        workers: int | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        backend: str | None = None,
        service_options: dict | None = None,
        start_method: str | None = None,
        recorder=None,
    ) -> None:
        self.workers = config.serve_workers(workers)
        super().__init__(
            replicas=self.workers, host=host, backend=backend,
            start_method=start_method, recorder=recorder,
        )
        self.port = port
        self.service_options = dict(service_options or {})
        self._blobs = [artifact_bytes(classifier, backend=backend)]
        self._reserve = None

    def start(self) -> int:
        """Spawn the workers; returns the bound port once all listen."""
        if self._rows:
            raise RuntimeError("pool already started")
        # Reserve the port in the parent (bound, never listening) so
        # port=0 resolves once and every worker binds the same number.
        self._reserve = _reuseport_socket(self.host, self.port)
        self.port = self._reserve.getsockname()[1]
        self._spawn(_WORKER, self.port, self.service_options)
        if self.recorder is not None:
            self.recorder.serve.workers = self.workers
        return self.port

    def publish(self, classifier) -> None:
        """Hand a new classifier generation to every worker (ack'd)."""
        blob = artifact_bytes(classifier, backend=self.backend)
        self._commit(self._prepare([blob]))

    def stop(self) -> None:
        """Stop workers and release every OS resource. Idempotent."""
        super().stop()
        if self._reserve is not None:
            self._reserve.close()
            self._reserve = None


def closed_loop_qps(
    host: str,
    port: int,
    headers: list[int],
    *,
    connections: int = 4,
    duration_s: float = 2.0,
) -> dict:
    """Closed-loop TCP load: ``connections`` clients, each one request
    outstanding, for ``duration_s``.  Returns aggregate throughput --
    the benchmark's view of single- vs multi-worker serving.
    """

    async def _client(index: int, stats: dict, deadline: float) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            k = index
            while time.perf_counter() < deadline:
                header = headers[k % len(headers)]
                k += connections
                writer.write(
                    (f'{{"op": "classify", "header": {header}}}\n').encode()
                )
                await writer.drain()
                line = await reader.readline()
                if not line:
                    break
                stats["responses"] += 1
        finally:
            await close_writer(writer)

    async def _drive() -> dict:
        stats = {"responses": 0}
        started = time.perf_counter()
        deadline = started + duration_s
        await asyncio.gather(
            *(_client(i, stats, deadline) for i in range(connections))
        )
        elapsed = time.perf_counter() - started
        return {
            "responses": stats["responses"],
            "elapsed_s": elapsed,
            "qps": stats["responses"] / elapsed if elapsed > 0 else 0.0,
            "connections": connections,
        }

    return asyncio.run(_drive())
