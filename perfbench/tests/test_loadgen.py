"""The load generator against a scripted in-process server."""

import asyncio
import time

import pytest

import loadgen
from loadgen import OK, REFUSED, WRONG, Stream
from repro.serve import proto
from spans import Tracer
from workloads import Run, _frame_check

PAYLOADS = [proto.encode_result([i, i + 1]) for i in range(4)]
ANSWERS = [proto.pack_frame(proto.RESULT, payload) for payload in PAYLOADS]
REQUESTS = [proto.pack_frame(proto.CLASSIFY, proto.encode_classify([i, i]))
            for i in range(4)]


async def scripted_server(script):
    """Answers the i-th frame with ``script(i)`` -> (delay_s, answer bytes)."""
    async def handle(reader, writer):
        index = 0
        try:
            while True:
                await proto.read_frame(reader)
                delay, answer = script(index)
                if delay:
                    await asyncio.sleep(delay)
                writer.write(answer)
                await writer.drain()
                index += 1
        except asyncio.IncompleteReadError:
            pass
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def drive(script, client):
    async def main():
        server = await scripted_server(script)
        try:
            await client(server.sockets[0].getsockname()[:2])
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(asyncio.wait_for(main(), 30))


def test_open_loop_times_requests_from_when_they_were_due():
    stall_s, rate = 0.3, 50.0
    stream = Stream("live", Tracer(False))

    def script(index):
        return (stall_s if index == 2 else 0.0), ANSWERS[index % 4]

    async def client(address):
        start = time.perf_counter()
        await loadgen.open_loop(address, REQUESTS, proto.read_frame,
                                _frame_check(PAYLOADS), stream, rate=rate,
                                start_at=start, stop_at=start + 0.5)

    drive(script, client)
    assert stream.outcome == [OK] * len(stream.due)
    assert len(stream.due) == 25
    assert stream.due == pytest.approx(
        [stream.due[0] + i / rate for i in range(25)])
    latency = [done - due for due, done in zip(stream.due, stream.done)]
    # The third answer stalls the connection; the requests due during the
    # stall wait for it, and their due-time latency says so.
    assert latency[2] >= stall_s
    assert latency[3] >= stall_s - 1 / rate
    assert latency[6] >= stall_s - 4 / rate
    assert max(latency[-3:]) < stall_s / 2


def test_a_corrupted_result_is_counted_as_an_error(tmp_path):
    stream = Stream("bulk", Tracer(False))

    def script(index):
        answer = ANSWERS[index % 4]
        if index == 5:
            answer = answer[:-1] + bytes([answer[-1] ^ 1])
        if index == 7:
            answer = proto.pack_frame(proto.ERROR, b"shed")
        return 0.0, answer

    async def client(address):
        await loadgen.closed_loop(address, REQUESTS, proto.read_frame,
                                  _frame_check(PAYLOADS), stream, depth=2,
                                  stop_at=time.perf_counter() + 0.2)

    drive(script, client)
    assert stream.outcome[5] == WRONG
    assert stream.outcome[7] == REFUSED
    assert stream.outcome.count(OK) == len(stream.outcome) - 2

    run = Run(str(tmp_path), "serve-wan", seed=0, seconds=1.0, trace=False)
    run.tally(stream, range(len(stream.due)))
    assert run.attempted == len(stream.due)
    assert run.failed == 2
    assert run.wrong == 1
