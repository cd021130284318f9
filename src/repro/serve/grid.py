"""The process grid under every multi-process serving topology.

A grid is ``rows x replicas`` serving processes; each row maps one
read-only artifact blob out of :mod:`multiprocessing.shared_memory`.
:class:`~repro.serve.workers.ServeWorkerPool` is a ``1 x N`` grid of
``QueryService`` members on one ``SO_REUSEPORT`` port;
:class:`~repro.serve.shard.ShardCluster` is ``shards x replicas`` slice
members behind a :class:`~repro.serve.shard.ShardRouter`.  Every member
runs one process body (control pipe, the :mod:`repro.serve.tcp` front
end, shutdown), and the parent drives one ack'd handoff::

    parent                          every member
    ------                          ------------
    write blobs to fresh shm
    ("prepare", gen, name)   --->   attach + load gen, adopt (pool)
                             <---   ("prepared", gen) | ("prepare_failed", gen, why)
    [router flips to gen]
    ("commit", gen)          --->   unmap generations it no longer keeps
                             <---   ("committed", gen)
    unlink the old blocks

A failed prepare unlinks the fresh blocks before raising.  A member
exits on ``("stop",)`` or when its control pipe reaches EOF, so a dead
parent never leaves it behind.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import socket
import time
from multiprocessing import shared_memory
from typing import Callable, NamedTuple

from .. import config
from .tcp import close_tcp_server, start_tcp_server

#: Seconds the parent waits for each member's ready/ack message.
CONTROL_TIMEOUT_S = 60.0


def _reuseport_socket(host: str, port: int) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if hasattr(socket, "SO_REUSEPORT"):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except BaseException:
        sock.close()
        raise
    return sock


def _new_block(blob: bytes) -> shared_memory.SharedMemory:
    shm = shared_memory.SharedMemory(create=True, size=len(blob))
    shm.buf[: len(blob)] = blob
    return shm


def _unlink(blocks) -> None:
    for block in blocks:
        block.close()
        try:
            block.unlink()
        except FileNotFoundError:
            pass


def _close(shm) -> None:
    """Drop a member's mapping; still-pinned pages only defer the close."""
    gc.collect()  # drop dead classifiers' views of shm.buf first
    try:
        shm.close()
    except BufferError:
        pass


class Member(NamedTuple):
    """What a grid's members serve (module-level callables, so every
    start method can ship it to the child).

    ``load(buf, backend=engine, source=...)`` restores a generation;
    ``open(generations, engine, options)`` builds the async-context
    backend the member serves, which offers ``adopt_generation``;
    ``keep`` is how many of the newest generations stay mapped after a
    commit.
    """

    load: Callable
    open: Callable
    keep: int


def _attach(member: Member, name: str, engine: str | None) -> tuple:
    # Attaching re-registers the block with the resource tracker, but
    # children share the parent's tracker under every start method, so
    # the duplicate register is a no-op and the parent's unlink is the
    # single unregister.  Never unregister here.
    shm = shared_memory.SharedMemory(name=name)
    return shm, member.load(shm.buf, backend=engine, source=f"shm:{name}")


async def _member_serve(conn, member: Member, generations: dict, host: str,
                        port: int, engine: str | None, options: dict) -> None:
    backend = member.open(generations, engine, options)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    # Control messages arrive on the pipe reader callback (no awaits
    # allowed there); the handoff task below does the async work.
    control: asyncio.Queue[tuple] = asyncio.Queue()

    def on_control() -> None:
        while conn.poll():
            try:
                message = conn.recv()
            except EOFError:  # the parent is gone
                stop.set()
                return
            if message[0] == "stop":
                stop.set()
            else:
                control.put_nowait(message)

    async def handoff() -> None:
        while True:
            kind, gen, *rest = await control.get()
            if kind == "prepare":
                try:
                    stale = generations.pop(gen, None)  # a failed earlier try
                    if stale is not None:
                        _close(stale[0])
                    generations[gen] = _attach(member, rest[0], engine)
                    await backend.adopt_generation(generations[gen][1])
                except Exception as exc:
                    conn.send(
                        ("prepare_failed", gen, f"{type(exc).__name__}: {exc}")
                    )
                    continue
                conn.send(("prepared", gen))
            else:
                # A still-pinned mapping is only a deferred close (the
                # parent unlinks after this ack; pages live until the
                # last view dies).
                for old in [g for g in generations if g <= gen - member.keep]:
                    _close(generations.pop(old)[0])
                conn.send(("committed", gen))

    async with backend:
        server = await start_tcp_server(
            backend, sock=_reuseport_socket(host, port)
        )
        handoffs = loop.create_task(handoff())
        loop.add_reader(conn.fileno(), on_control)
        conn.send(("ready", os.getpid(), server.sockets[0].getsockname()[1]))
        try:
            await stop.wait()
        finally:
            loop.remove_reader(conn.fileno())
            handoffs.cancel()
            await close_tcp_server(server)


def _member_main(conn, parent_end, member: Member, name: str, host: str,
                 port: int, engine: str | None, options: dict) -> None:
    """Process entry point; module-level so every start method works."""
    # A forked child inherits its own pipe's parent end; holding it
    # would keep the pipe from reaching EOF when the parent dies.
    parent_end.close()
    generations: dict = {}
    try:
        generations[0] = _attach(member, name, engine)
        asyncio.run(_member_serve(
            conn, member, generations, host, port, engine, options
        ))
    except KeyboardInterrupt:
        pass
    finally:
        conn.close()
        # Drop every reference into the shared pages before the
        # interpreter tears down, so the mappings close instead of
        # tripping BufferError in SharedMemory.__del__.
        blocks = [shm for shm, _loaded in generations.values()]
        generations.clear()
        for shm in blocks:
            _close(shm)


class ProcessGrid:
    """Parent-side controller: spawn, hand off, kill and stop members.

    Synchronous on purpose: it runs in the CLI process (or a benchmark
    driver), not inside an event loop.  Subclasses set ``_blobs`` (one
    artifact blob per row) and pick the members and the port.
    """

    #: How control-pipe errors name a member.
    role = "grid member"

    def __init__(self, *, replicas: int, host: str, backend: str | None,
                 start_method: str | None, recorder) -> None:
        self.replicas = replicas
        self.host = host
        self.backend = backend
        self.start_method = config.mp_start(start_method)
        self.recorder = recorder
        self.generation = 0
        self._blobs: list[bytes] | None = None
        self._blocks: list = []
        #: ``_rows[row][replica]`` -> ``(process, control pipe)``.
        self._rows: list[list[tuple]] = []
        #: ``endpoints[row][replica]`` -> ``(host, port)``.
        self.endpoints: list[list[tuple[str, int]]] = []

    def _expect(self, conn, kinds: tuple[str, ...], what: str):
        if not conn.poll(CONTROL_TIMEOUT_S):
            raise RuntimeError(f"{self.role} did not answer ({what})")
        try:
            message = conn.recv()
        except EOFError:
            raise RuntimeError(f"{self.role} died during {what}") from None
        if message[0] not in kinds:
            raise RuntimeError(f"{self.role} failed during {what}: {message}")
        return message

    def _members(self):
        return [conn for row in self._rows for _process, conn in row]

    def _spawn(self, member: Member, port: int, options: dict) -> None:
        """Start one row of members per blob; returns once all listen."""
        if self._rows:
            raise RuntimeError(f"{self.role}s already started")
        blobs, self._blobs = self._blobs, None
        if blobs is None:
            raise RuntimeError(f"{self.role}s were stopped; build a new grid")
        self._blocks = [_new_block(blob) for blob in blobs]
        context = multiprocessing.get_context(self.start_method)
        try:
            for block in self._blocks:
                self._rows.append([])
                for _replica in range(self.replicas):
                    parent_end, child_end = context.Pipe()
                    process = context.Process(
                        target=_member_main,
                        args=(child_end, parent_end, member, block.name,
                              self.host, port, self.backend, options),
                        daemon=True,
                    )
                    process.start()
                    child_end.close()
                    self._rows[-1].append((process, parent_end))
            self.endpoints = [
                [
                    (self.host, self._expect(conn, ("ready",), "startup")[2])
                    for _process, conn in row
                ]
                for row in self._rows
            ]
        except BaseException:
            self.stop()
            raise

    # -- generation handoff --------------------------------------------

    def _prepare(self, blobs: list[bytes]) -> dict:
        """Stage ``blobs`` (one per row) on every member; ack'd, no flip.
        On any failure the fresh blocks are unlinked before raising."""
        if not self._rows:
            raise RuntimeError(f"{self.role}s are not running")
        started = time.perf_counter()
        generation = self.generation + 1
        blocks = []
        try:
            blocks.extend(_new_block(blob) for blob in blobs)
            for row, block in zip(self._rows, blocks):
                for _process, conn in row:
                    conn.send(("prepare", generation, block.name))
            failures = []
            for conn in self._members():
                message = self._expect(
                    conn, ("prepared", "prepare_failed"), "generation prepare"
                )
                if message[0] == "prepare_failed":
                    failures.append(message[2])
            if failures:
                raise RuntimeError(
                    f"generation prepare failed in {len(failures)} "
                    f"{self.role}(s): {failures[0]}"
                )
        except BaseException:
            _unlink(blocks)
            raise
        return {"generation": generation, "blocks": blocks, "started": started}

    def _commit(self, pending: dict) -> None:
        """Finish a handoff: members retire old generations, then the
        previous blocks are unlinked and the handoff is recorded."""
        generation = pending["generation"]
        for conn in self._members():
            conn.send(("commit", generation))
        for conn in self._members():
            self._expect(conn, ("committed",), "generation commit")
        old, self._blocks = self._blocks, pending["blocks"]
        self.generation = generation
        _unlink(old)
        if self.recorder is not None:
            self.recorder.serve.record_handoff(
                time.perf_counter() - pending["started"]
            )

    # -- fault injection / shutdown ------------------------------------

    def kill_replica(self, row: int, replica: int) -> None:
        """Hard-kill one member process (fail-over testing)."""
        process = self._rows[row][replica][0]
        process.terminate()
        process.join(timeout=5)

    def stop(self) -> None:
        """Stop every member and release OS resources. Idempotent."""
        for conn in self._members():
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for row in self._rows:
            for process, conn in row:
                process.join(timeout=CONTROL_TIMEOUT_S)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5)
                conn.close()
        self._rows = []
        self.endpoints = []
        _unlink(self._blocks)
        self._blocks = []

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
