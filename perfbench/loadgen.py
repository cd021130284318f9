"""Client streams of the load generator.

Each stream replays pre-encoded requests over one TCP connection and keeps
one record per request: when it was due, when it was sent, when its answer
arrived, and whether the answer was right.

* :func:`closed_loop` keeps ``depth`` requests in flight; the next one is
  due the moment an answer frees a slot.
* :func:`open_loop` sends on a fixed schedule whatever the server does, so
  a stall shows as latency on every request that was due during it.

Answers are judged by a ``check(index, answer) -> outcome`` callback, where
the outcome is one of :data:`OK`, :data:`WRONG` (a wrong answer) or
:data:`REFUSED` (an error reply: shed, timeout, rejected).
"""

from __future__ import annotations

import asyncio
import time

OK, WRONG, REFUSED = "ok", "wrong", "refused"

#: Longest wait for any single answer before the run is declared hung.
ANSWER_TIMEOUT_S = 60.0


class Stream:
    """Per-request records of one client stream."""

    def __init__(self, name: str, tracer) -> None:
        self.name = name
        self.tracer = tracer
        self.due: list[float] = []
        self.sent: list[float] = []
        self.done: list[float] = []
        self.outcome: list[str] = []

    def record(self, due: float, sent: float, done: float, outcome: str) -> None:
        index = len(self.due)
        self.due.append(due)
        self.sent.append(sent)
        self.done.append(done)
        self.outcome.append(outcome)
        tracer = self.tracer
        if tracer.enabled:
            request = tracer.add(f"{self.name}.request", due, done, request=index)
            tracer.add(f"{self.name}.wire", sent, done, parent=request,
                       request=index)

    def window(self, start: float, end: float) -> list[int]:
        """Indices of the requests due inside ``[start, end)``."""
        return [i for i, due in enumerate(self.due) if start <= due < end]


async def closed_loop(
    address, requests, read_answer, check, stream: Stream, *, depth: int,
    stop_at: float,
) -> None:
    """Keep ``depth`` requests in flight until ``stop_at``, then drain."""
    reader, writer = await asyncio.open_connection(*address)
    try:
        inflight = []
        sent_count = 0

        def send(due: float) -> None:
            nonlocal sent_count
            writer.write(requests[sent_count % len(requests)])
            inflight.append((sent_count, due, time.perf_counter()))
            sent_count += 1

        now = time.perf_counter()
        for _ in range(depth):
            send(now)
        await writer.drain()
        head = 0
        while head < len(inflight):
            answer = await asyncio.wait_for(read_answer(reader), ANSWER_TIMEOUT_S)
            done = time.perf_counter()
            index, due, sent = inflight[head]
            head += 1
            stream.record(due, sent, done, check(index, answer))
            if done < stop_at:
                send(done)
                await writer.drain()
    finally:
        writer.close()
        await writer.wait_closed()


async def open_loop(
    address, requests, read_answer, check, stream: Stream, *, rate: float,
    start_at: float, stop_at: float,
) -> None:
    """Send request ``i`` at ``start_at + i / rate`` until ``stop_at``."""
    reader, writer = await asyncio.open_connection(*address)
    pending: asyncio.Queue = asyncio.Queue()

    async def sender() -> None:
        index = 0
        while True:
            due = start_at + index / rate
            if due >= stop_at:
                break
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            writer.write(requests[index % len(requests)])
            pending.put_nowait((index, due, time.perf_counter()))
            index += 1
            await writer.drain()
        pending.put_nowait(None)

    async def receiver() -> None:
        while True:
            item = await pending.get()
            if item is None:
                return
            answer = await asyncio.wait_for(read_answer(reader), ANSWER_TIMEOUT_S)
            index, due, sent = item
            stream.record(due, sent, time.perf_counter(), check(index, answer))

    try:
        await asyncio.gather(sender(), receiver())
    finally:
        writer.close()
        await writer.wait_closed()
