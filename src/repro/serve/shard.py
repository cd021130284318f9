"""Multi-node sharded serving: router, replica pool, and handoff.

One serving process holds the whole compiled classifier; this module
splits it across *N* shard backends along the AP Tree's own geometry.
A shallow prefix of the tree (:class:`~repro.core.compiled.TreePrefix`)
becomes the **router**: descending it maps a header to a *frontier*
subtree, the shard plan maps frontiers to shards, and each shard serves
a slice artifact holding only its subtrees' programs, flat-BDD nodes,
and ``R`` sets (:mod:`repro.artifact.shard`).  Sibling subtrees cover
disjoint header-space, so the split is exact: sharded answers are
bit-identical to the single-node classifier.

Topology (``--shards 2 --replicas 2``)::

    client -> TCP front end -> ShardRouter --+--> shard 0 replica a
              (framed or JSON)               |      shard 0 replica b
                                             +--> shard 1 replica a
                                                  shard 1 replica b

* each shard is replicated ``R`` ways; every replica of a shard maps
  the *same* shared-memory slice blob.  The router keeps a persistent
  framed connection per replica and rotates across them; on a connect
  error, reset, or timeout it retries the next replica (fail-over);
* queries travel as :mod:`repro.serve.proto` frames -- one
  ``SHARD_CLASSIFY`` frame carries a whole routed sub-batch in the
  kernel's word-packed form, so a replica classifies straight off the
  wire bytes;
* the replicas are a :class:`~repro.serve.grid.ProcessGrid`, and the
  front is the :mod:`repro.serve.tcp` front end with the router as its
  backend;
* generation handoff is the grid's ack'd prepare/commit protocol, with
  the router flip between them: each ``SHARD_CLASSIFY`` frame carries
  the generation it was routed under and is answered strictly from
  it, and replicas keep the previous generation mapped until the next
  commit, so no batch ever mixes generations.
"""

from __future__ import annotations

import asyncio
import os
import time

from .. import config
from ..artifact import load_shard_buffer, make_shard_plan, shard_artifact_bytes
from ..obs.recorder import ServeCounters
from . import proto
from .grid import Member, ProcessGrid
from .tcp import close_writer

try:  # pragma: no cover - exercised via the CI matrix
    if config.numpy_disabled():
        _np = None
    else:
        import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

if _np is not None:
    from ..core import kernel as _kernel
else:  # pragma: no cover
    _kernel = None

__all__ = [
    "ROUTER_TIMEOUT_S",
    "ShardCluster",
    "ShardRouter",
]

#: Per-attempt deadline for one routed sub-batch; a dead replica's
#: connection usually fails fast (ECONNREFUSED/RST), the timeout covers
#: the half-open case.
ROUTER_TIMEOUT_S = 15.0

#: Errors that mean "this replica, right now" rather than "this
#: request": the router resets the connection and fails over.
_RETRYABLE = (ConnectionError, OSError, asyncio.IncompleteReadError,
              asyncio.TimeoutError)


# ----------------------------------------------------------------------
# Replica backend (one shard slice, served by the process grid)
# ----------------------------------------------------------------------


class _SliceBackend:
    """What a replica serves: ``SHARD_CLASSIFY`` against the generation
    each frame was routed under, plus ``ping``/``metrics``.

    ``generations`` maps generation id -> ``(shm, ShardServing)``;
    the process grid adds a generation at ``prepare`` and retires the
    ones older than its predecessor at ``commit``.
    """

    def __init__(self, generations: dict, _engine, _options) -> None:
        self.generations = generations
        self.counters = ServeCounters()

    async def classify_shard(self, frame) -> tuple:
        gen, frontiers, headers, _width = frame
        entry = self.generations.get(gen)
        if entry is None:
            raise proto.FrameError(
                f"unknown generation {gen} (have {sorted(self.generations)})"
            )
        serving = entry[1]
        if _np is not None:
            atoms = serving.classify_batch_array(frontiers, headers)
        else:
            atoms = serving.classify_batch(list(frontiers), headers)
        self.counters.served += len(headers)
        return gen, atoms

    def metrics(self) -> dict:
        newest = self.generations[max(self.generations)][1]
        return {
            "shard": newest.shard_id,
            "shards": newest.shards,
            "generations": sorted(self.generations),
            "served": self.counters.served,
            "pid": os.getpid(),
        }

    async def adopt_generation(self, _serving) -> None:
        """Nothing to swap: frames pick their generation themselves."""

    async def __aenter__(self) -> "_SliceBackend":
        return self

    async def __aexit__(self, *exc_info) -> None:
        """Nothing to stop: the grid unmaps the generations."""


#: Replicas keep the committed generation and its predecessor: frames
#: routed just before the router flip may still arrive.
_REPLICA = Member(load=load_shard_buffer, open=_SliceBackend, keep=2)


# ----------------------------------------------------------------------
# Parent-side cluster controller
# ----------------------------------------------------------------------


class ShardCluster(ProcessGrid):
    """Spawn and publish to a shard x replica grid of serving processes.

    Usage::

        cluster = ShardCluster(classifier, shards=4, replicas=2)
        cluster.start()                # all replicas listening
        router = ShardRouter.from_cluster(cluster)
        ...
        cluster.publish(new_classifier, router=router)   # ack'd handoff
        cluster.stop()

    :meth:`publish_async` is the in-event-loop variant that keeps the
    router flip atomic with respect to running batches.
    """

    role = "shard replica"

    def __init__(
        self,
        classifier,
        *,
        shards: int = 2,
        replicas: int = 1,
        depth: int | None = None,
        host: str = "127.0.0.1",
        backend: str | None = None,
        start_method: str | None = None,
        recorder=None,
    ) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        super().__init__(
            replicas=replicas, host=host, backend=backend,
            start_method=start_method, recorder=recorder,
        )
        self.plan = make_shard_plan(
            classifier, shards, depth=depth, backend=backend
        )
        self.shards = self.plan.shards
        self._depth = depth
        self._blobs = self._slices(classifier, self.plan)

    def _slices(self, classifier, plan) -> list[bytes]:
        return [
            shard_artifact_bytes(classifier, plan, s, backend=self.backend)
            for s in range(plan.shards)
        ]

    def start(self) -> list[list[tuple[str, int]]]:
        """Spawn the grid; returns ``endpoints`` once every replica listens."""
        self._spawn(_REPLICA, 0, {})
        if self.recorder is not None:
            self.recorder.serve.shard_shards = self.shards
            self.recorder.serve.shard_replicas = self.replicas
        return self.endpoints

    # -- generation handoff --------------------------------------------

    def prepare(self, classifier) -> dict:
        """Stage a new generation on every replica (ack'd); no flip yet.

        Writes each shard's new slice into fresh shared memory, signals
        every replica, and waits for all ``prepared`` acks.  Returns the
        pending-generation handle for :meth:`commit`.  Replicas keep
        answering the old generation throughout.
        """
        plan = make_shard_plan(
            classifier, self.shards, depth=self._depth, backend=self.backend
        )
        pending = self._prepare(self._slices(classifier, plan))
        pending["plan"] = plan
        return pending

    def commit(self, pending: dict) -> None:
        """Finish a handoff: replicas retire generations older than
        ``gen - 1`` and the previous shared-memory blocks are unlinked.
        Call only after the router flipped to ``pending``."""
        self._commit(pending)
        self.plan = pending["plan"]

    def publish(self, classifier, router: "ShardRouter | None" = None) -> int:
        """Full ack'd handoff from synchronous code; returns the new
        generation id.  With a ``router`` the flip happens between
        prepare and commit -- only safe when no event loop is
        concurrently routing (tests, CLI swaps); inside a loop use
        :meth:`publish_async`."""
        pending = self.prepare(classifier)
        if router is not None:
            router.flip(pending["plan"], pending["generation"])
        self.commit(pending)
        return pending["generation"]

    async def publish_async(self, classifier, router: "ShardRouter") -> int:
        """Handoff driven from inside the router's event loop.

        The blocking prepare/commit pipe work runs in the default
        executor; the router flip itself is a plain in-loop call, so no
        batch observes a half-swapped routing table.
        """
        loop = asyncio.get_running_loop()
        pending = await loop.run_in_executor(None, self.prepare, classifier)
        router.flip(pending["plan"], pending["generation"])
        await loop.run_in_executor(None, self.commit, pending)
        return pending["generation"]


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------


class _ReplicaConn:
    """One persistent framed connection, (re)opened on demand."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader = None
        self._writer = None
        self._lock = asyncio.Lock()

    async def call(self, frame: bytes):
        """Send one frame, await one frame.  The per-connection lock
        serializes callers so responses pair with requests."""
        async with self._lock:
            if self._writer is None:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
            self._writer.write(frame)
            await self._writer.drain()
            return await proto.read_frame(self._reader)

    def reset(self) -> None:
        """Drop the connection (after an error or timeout)."""
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            await close_writer(writer)


class ShardRouter:
    """Route header batches across shard replicas; flip generations.

    The routing state is one ``(prefix, assignment, generation)`` tuple
    read exactly once per batch and replaced atomically by
    :meth:`flip` -- a batch runs entirely under the tuple it grabbed,
    and replicas answer strictly by the generation stamped into each
    ``SHARD_CLASSIFY`` frame, so answers never mix generations.
    """

    def __init__(
        self,
        *,
        plan,
        endpoints: list[list[tuple[str, int]]],
        generation: int = 0,
        counters: ServeCounters | None = None,
        timeout: float = ROUTER_TIMEOUT_S,
    ) -> None:
        if len(endpoints) != plan.shards:
            raise ValueError(
                f"{len(endpoints)} endpoint groups for {plan.shards} shards"
            )
        self.counters = counters if counters is not None else ServeCounters()
        self.counters.shard_shards = plan.shards
        self.counters.shard_replicas = max(len(group) for group in endpoints)
        self.timeout = timeout
        self._replicas = [
            [_ReplicaConn(host, port) for host, port in group]
            for group in endpoints
        ]
        self._rotor = [0] * len(endpoints)
        self._routing = self._routing_state(plan, generation)

    @classmethod
    def from_cluster(
        cls,
        cluster: ShardCluster,
        *,
        counters: ServeCounters | None = None,
        timeout: float = ROUTER_TIMEOUT_S,
    ) -> "ShardRouter":
        if counters is None and cluster.recorder is not None:
            counters = cluster.recorder.serve
        return cls(
            plan=cluster.plan,
            endpoints=cluster.endpoints,
            generation=cluster.generation,
            counters=counters,
            timeout=timeout,
        )

    @staticmethod
    def _routing_state(plan, generation: int) -> tuple:
        assignment = plan.assignment
        if _np is not None:
            assignment = _np.asarray(assignment, dtype=_np.int64)
        return (plan.prefix, assignment, generation)

    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        return self._routing[2]

    def flip(self, plan, generation: int) -> None:
        """Atomically adopt a new plan + generation.

        Plain attribute assignment in the event loop: concurrent
        batches either read the old tuple or the new one, never a mix.
        Call only after every replica acked ``prepare`` for
        ``generation`` (:meth:`ShardCluster.prepare` guarantees this).
        """
        self._routing = self._routing_state(plan, generation)

    async def classify_batch(self, headers) -> list[int]:
        """Atom ids for a batch, routed and reassembled in order."""
        prefix, assignment, generation = self._routing
        n = len(headers)
        if n == 0:
            return []
        started = time.perf_counter()
        program = prefix.program
        if _np is not None and program.backend != "stdlib":
            width = _kernel.words_per_header(program.num_vars)
            words = _kernel.pack_headers(headers, program.num_vars)
            frontiers = prefix.route_batch_array(words)
            shard_ids = assignment[frontiers]
            out = _np.empty(n, dtype=_np.int64)
            tasks = []
            for shard in _np.unique(shard_ids):
                mask = shard_ids == shard
                tasks.append(self._shard_call(
                    int(shard), generation,
                    frontiers[mask], words[mask], width,
                    out, _np.nonzero(mask)[0],
                ))
            await asyncio.gather(*tasks)
            atoms = out.tolist()
        else:
            width = max(1, (program.num_vars + 63) // 64)
            frontiers = prefix.route_batch(list(headers))
            by_shard: dict[int, list[int]] = {}
            for index, frontier in enumerate(frontiers):
                by_shard.setdefault(assignment[frontier], []).append(index)
            out_list = [0] * n
            tasks = [
                self._shard_call(
                    shard, generation,
                    [frontiers[i] for i in indices],
                    [headers[i] for i in indices],
                    width, out_list, indices,
                )
                for shard, indices in by_shard.items()
            ]
            await asyncio.gather(*tasks)
            atoms = out_list
        self.counters.record_frame(n, time.perf_counter() - started)
        return atoms

    #: The TCP front end's framed ``CLASSIFY`` op (see :mod:`.tcp`).
    classify_frame = classify_batch

    async def classify(self, header: int) -> int:
        return (await self.classify_batch([header]))[0]

    async def _shard_call(
        self, shard: int, generation: int, frontiers, headers,
        width: int, out, indices,
    ) -> None:
        payload = proto.encode_shard_classify(
            generation, frontiers, headers, width=width
        )
        frame = proto.pack_frame(proto.SHARD_CLASSIFY, payload)
        replicas = self._replicas[shard]
        start = self._rotor[shard]
        self._rotor[shard] = (start + 1) % len(replicas)
        last_exc: BaseException | None = None
        for attempt in range(len(replicas)):
            conn = replicas[(start + attempt) % len(replicas)]
            try:
                ftype, body = await asyncio.wait_for(
                    conn.call(frame), self.timeout
                )
            except _RETRYABLE as exc:
                last_exc = exc
                conn.reset()
                self.counters.record_retry(failover=len(replicas) > 1)
                continue
            if ftype == proto.ERROR:
                raise proto.RemoteError(body.decode(errors="replace"))
            if ftype != proto.SHARD_RESULT:
                raise proto.RemoteError(
                    f"unexpected frame type {ftype:#04x} from shard {shard}"
                )
            answered, atoms = proto.decode_shard_result(body)
            if answered != generation:
                raise proto.RemoteError(
                    f"shard {shard} answered generation {answered}, "
                    f"asked {generation}"
                )
            if len(atoms) != len(indices):
                raise proto.RemoteError(
                    f"shard {shard} answered {len(atoms)} atoms "
                    f"for {len(indices)} headers"
                )
            self.counters.record_route(shard, len(indices))
            if _np is not None and isinstance(out, _np.ndarray):
                out[indices] = atoms
            else:
                for position, atom in zip(indices, atoms):
                    out[position] = int(atom)
            return
        raise ConnectionError(
            f"all {len(replicas)} replica(s) of shard {shard} failed"
        ) from last_exc

    def metrics(self) -> dict:
        return self.counters.summary()

    async def close(self) -> None:
        for group in self._replicas:
            for conn in group:
                await conn.close()

    async def __aenter__(self) -> "ShardRouter":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
