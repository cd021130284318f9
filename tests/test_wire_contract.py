"""One wire contract on every serving topology.

The single-node server, a multi-worker pool and the shard front all
serve through the same TCP front end; they differ only in the ops their
backend offers.  Each test here runs against all three and pins what
any client may rely on: both protocols answer PING, a bad request is
answered and the connection keeps serving, and an op the endpoint does
not offer gets the same error text over frames and over JSON.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

import pytest

from repro.core.classifier import APClassifier
from repro.datasets import toy_network
from repro.serve import (
    QueryService,
    ServeWorkerPool,
    ShardCluster,
    ShardRouter,
    proto,
    start_tcp_server,
)
from repro.serve.tcp import MAX_LINE_BYTES

FRONTS = ("single", "pool", "shard")

#: A known op each front's backend does not offer, with its frame type.
LACKING = {
    "single": ("shard_classify", proto.SHARD_CLASSIFY),
    "pool": ("shard_classify", proto.SHARD_CLASSIFY),
    "shard": ("whatif", proto.WHATIF),
}


@pytest.fixture(scope="module")
def toy_classifier():
    return APClassifier.build(toy_network())


@contextlib.asynccontextmanager
async def front(kind: str, classifier):
    """``(host, port)`` of a running front of the given topology."""
    if kind == "pool":
        with ServeWorkerPool(classifier, workers=2) as pool:
            yield "127.0.0.1", pool.port
        return
    async with contextlib.AsyncExitStack() as stack:
        if kind == "single":
            backend = await stack.enter_async_context(
                QueryService(classifier, max_delay_s=0)
            )
        else:
            cluster = stack.enter_context(
                ShardCluster(classifier, shards=2, replicas=1)
            )
            backend = await stack.enter_async_context(
                ShardRouter.from_cluster(cluster)
            )
        server = await start_tcp_server(backend)
        try:
            yield server.sockets[0].getsockname()[:2]
        finally:
            server.close()
            await server.wait_closed()


class Client:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer

    async def frame(self, ftype: int, payload: bytes = b""):
        self.writer.write(proto.pack_frame(ftype, payload))
        await self.writer.drain()
        return await proto.read_frame(self.reader)

    async def line(self, raw: bytes) -> dict:
        self.writer.write(raw + b"\n")
        await self.writer.drain()
        return json.loads(await self.reader.readline())

    async def ask(self, request: dict) -> dict:
        return await self.line(json.dumps(request).encode())


async def connect(address) -> Client:
    return Client(*await asyncio.open_connection(*address))


def run_against(kind, classifier, scenario):
    async def main():
        async with front(kind, classifier) as address:
            framed = await connect(address)
            lines = await connect(address)
            try:
                return await scenario(framed, lines)
            finally:
                for client in (framed, lines):
                    client.writer.close()
                    await client.writer.wait_closed()

    return asyncio.run(main())


@pytest.mark.parametrize("kind", FRONTS)
class TestWireContract:
    def test_ping_on_both_protocols(self, kind, toy_classifier):
        async def scenario(framed, lines):
            return await framed.frame(proto.PING), await lines.ask({"op": "ping"})

        pong, answer = run_against(kind, toy_classifier, scenario)
        assert pong == (proto.PONG, b"")
        assert answer == {"ok": True, "pong": True}

    def test_unknown_frame_type_keeps_serving(self, kind, toy_classifier):
        async def scenario(framed, _lines):
            error = await framed.frame(0x42)
            return error, await framed.frame(proto.PING)

        (ftype, payload), pong = run_against(kind, toy_classifier, scenario)
        assert ftype == proto.ERROR
        assert b"unsupported frame type 0x42" in payload
        assert pong[0] == proto.PONG

    def test_unknown_json_op_keeps_serving(self, kind, toy_classifier):
        async def scenario(_framed, lines):
            return (
                await lines.ask({"op": "frobnicate"}),
                await lines.ask({"op": "ping"}),
            )

        error, pong = run_against(kind, toy_classifier, scenario)
        assert error["ok"] is False
        assert "unknown op" in error["error"]
        assert pong == {"ok": True, "pong": True}

    def test_oversized_line(self, kind, toy_classifier):
        async def scenario(_framed, lines):
            return (
                await lines.line(b"x" * (2 * MAX_LINE_BYTES)),
                await lines.ask({"op": "ping"}),
            )

        error, pong = run_against(kind, toy_classifier, scenario)
        assert error == {"ok": False, "error": "request too large"}
        assert pong == {"ok": True, "pong": True}

    def test_lacking_op_same_error_on_both_protocols(self, kind, toy_classifier):
        name, ftype = LACKING[kind]

        async def scenario(framed, lines):
            return (
                await framed.frame(ftype, b"{}"),
                await lines.ask({"op": name}),
                await lines.ask({"op": "query", "header": 1, "ingress": "b1"}),
            )

        (got_type, payload), answer, query = run_against(
            kind, toy_classifier, scenario
        )
        assert got_type == proto.ERROR
        assert answer["ok"] is False
        assert answer["error"] == payload.decode()
        assert f"op {name!r} is not served by this endpoint" == answer["error"]
        if kind == "shard":
            assert query == {
                "ok": False,
                "error": "op 'query' is not served by this endpoint",
            }
        else:
            assert query["ok"] is True
