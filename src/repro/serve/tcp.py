"""The one TCP front end of the serve tier: every listening socket uses it.

A connection's first byte selects its protocol: frames of
:mod:`repro.serve.proto` start with ``0xAA``; anything else (JSON starts
with ``{`` or whitespace) is newline-delimited JSON, one request per
line and one response per line, in order.  Both protocols dispatch
through one op table (:func:`op_table`) keyed by JSON op name *and* by
frame type, built from the backend the socket serves -- a
``QueryService`` (single node, pool workers), a ``ShardRouter`` (the
shard front) or a shard replica.  A backend differs only in the ops it
offers; an op it lacks gets the same error text on both protocols.
See ``docs/serving.md`` for the full wire contract.

JSON requests (``op`` selects the action)::

    {"op": "ping"}
    {"op": "classify", "header": 167772161}
    {"op": "classify", "packet": {"dst_ip": "10.0.0.1"}}
    {"op": "query", "packet": {"dst_ip": "10.0.0.1"}, "ingress": "SEAT"}
    {"op": "metrics"}
    {"op": "diff", "artifact": "/path/to/other.apc", "ingress": "SEAT"}
    {"op": "whatif", "add": ["SEAT:dst_ip=10.3.0.0/24->to_SALT"],
     "ingress": "SEAT"}

``diff`` compares the live generation against a saved artifact or JSON
snapshot on the server's filesystem; ``whatif`` applies candidate rule
specs (:func:`repro.diff.parse_rule_spec` syntax, ``add``/``remove``
lists) to a shadow fork and diffs it against the live generation.  Both
accept an optional integer ``limit`` capping the per-class entries in
the report (default :data:`DEFAULT_DIFF_LIMIT`; the summary counters
always cover the full diff).  The framed ``DIFF``/``WHATIF`` types
carry the same JSON object as their payload.

Responses always carry ``ok`` (``{"ok": true, "atom": 12}``); a failure
answers ``{"ok": false, "error": "<text>"}`` -- or an ``ERROR`` frame
carrying the same text -- and the next request is processed normally.
That includes ``"shed"``, ``"timeout"`` and oversized lines: a request
longer than :data:`MAX_LINE_BYTES` is discarded as it streams in and
answered with ``"request too large"``.  Only a desynchronized frame
stream (bad magic or length) is reported once and closed.
"""

from __future__ import annotations

import asyncio
import functools
import json

from ..headerspace.fields import parse_ipv4
from . import proto
from .service import QueryShed, ServiceClosed

__all__ = ["announce_listening", "op_table", "serve_forever", "start_tcp_server"]

#: Refuse absurd lines instead of buffering them (64 KiB is far beyond
#: any legitimate request in this protocol).
MAX_LINE_BYTES = 64 * 1024

#: Per-class entry cap applied to diff/what-if reports when the request
#: does not pick its own ``limit`` -- keeps responses inside one frame
#: even for churn-heavy diffs (summary counters always cover everything).
DEFAULT_DIFF_LIMIT = 50

#: Packet-field keys parsed as dotted-quad IPv4 strings; everything else
#: in a ``packet`` object must already be an integer field value.
_IP_FIELDS = ("dst_ip", "src_ip")

#: Every op some backend offers -> (request, reply) frame types; JSON
#: requests name the same ops, and ``query`` is JSON-only.
_FRAMES = {
    "ping": (proto.PING, proto.PONG),
    "classify": (proto.CLASSIFY, proto.RESULT),
    "shard_classify": (proto.SHARD_CLASSIFY, proto.SHARD_RESULT),
    "metrics": (proto.METRICS, proto.METRICS_RESULT),
    "diff": (proto.DIFF, proto.DIFF_RESULT),
    "whatif": (proto.WHATIF, proto.WHATIF_RESULT),
}
_OP_OF_FRAME = {request: name for name, (request, _reply) in _FRAMES.items()}

_PONG = proto.pack_frame(proto.PONG)
_TOO_LARGE = b'{"ok": false, "error": "request too large"}\n'


class _BadRequest(ValueError):
    """The request is structurally invalid (reported per request)."""


def _header_of(backend, request: dict) -> int:
    """Extract the packed header from a request's ``header``/``packet``.

    A backend without a classifier (the shard front) has no packet
    layout and classifies integer headers only.
    """
    if "header" in request:
        header = request["header"]
        if not isinstance(header, int) or isinstance(header, bool):
            raise _BadRequest("'header' must be an integer")
        return header
    if not hasattr(backend, "classifier"):
        raise _BadRequest("this endpoint classifies integer 'header' values only")
    layout = backend.classifier.dataplane.layout
    packet = request.get("packet")
    if not isinstance(packet, dict):
        raise _BadRequest("request needs an integer 'header' or a 'packet' object")
    fields = {}
    for name, value in packet.items():
        if name not in layout:
            raise _BadRequest(f"unknown packet field {name!r} for this layout")
        if name in _IP_FIELDS and isinstance(value, str):
            fields[name] = parse_ipv4(value)
        elif isinstance(value, int) and not isinstance(value, bool):
            fields[name] = value
        else:
            raise _BadRequest(f"packet field {name!r} must be an int or IPv4 string")
    try:
        return layout.pack(fields)
    except (KeyError, ValueError) as exc:
        raise _BadRequest(f"cannot pack packet: {exc}") from exc


def _behavior_payload(behavior) -> dict:
    return {
        "ok": True,
        "atom": behavior.atom_id,
        "paths": [list(path) for path in behavior.paths()],
        "delivered": sorted(behavior.delivered_hosts()),
        "drops": [[box, reason] for box, reason in behavior.drops()],
    }


def _diff_args(request: dict) -> tuple[str, str, int]:
    """Validate a diff request's ``artifact``/``ingress``/``limit``."""
    artifact = request.get("artifact")
    if not isinstance(artifact, str) or not artifact:
        raise _BadRequest("'diff' needs a non-empty string 'artifact' path")
    return artifact, _ingress_of(request, "diff"), _limit_of(request)


def _whatif_args(request: dict) -> tuple[list[str], list[str], str, int]:
    """Validate a what-if request's rule-spec lists and ingress."""
    add = request.get("add", [])
    remove = request.get("remove", [])
    for name, specs in (("add", add), ("remove", remove)):
        if not isinstance(specs, list) or not all(
            isinstance(spec, str) for spec in specs
        ):
            raise _BadRequest(f"'whatif' {name!r} must be a list of rule specs")
    if not add and not remove:
        raise _BadRequest("'whatif' needs at least one rule in 'add'/'remove'")
    return add, remove, _ingress_of(request, "whatif"), _limit_of(request)


def _ingress_of(request: dict, op: str) -> str:
    ingress = request.get("ingress")
    if not isinstance(ingress, str) or not ingress:
        raise _BadRequest(f"{op!r} needs a non-empty string 'ingress'")
    return ingress


def _limit_of(request: dict) -> int:
    limit = request.get("limit", DEFAULT_DIFF_LIMIT)
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 0:
        raise _BadRequest("'limit' must be a non-negative integer")
    return limit


def _query_args(backend, request: dict) -> tuple[int, str, str | None]:
    ingress = _ingress_of(request, "query")
    in_port = request.get("in_port")
    if in_port is not None and not isinstance(in_port, str):
        raise _BadRequest("'in_port' must be a string when present")
    return _header_of(backend, request), ingress, in_port


def _framed_json(payload: bytes) -> dict:
    """Decode a framed request's UTF-8 JSON object payload (empty: ``{}``)."""
    try:
        request = json.loads(payload or b"{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _BadRequest(f"frame payload is not valid JSON: {exc}") from None
    if not isinstance(request, dict):
        raise _BadRequest("frame payload must be a JSON object")
    return request


def _same(request):
    return request


async def _pong(_request) -> None:
    return None


def op_table(backend) -> dict:
    """The ops ``backend`` offers, keyed by JSON op name and frame type.

    Each entry is ``(parse, call, reply)``: ``parse`` validates the
    request (a JSON object, or a frame payload) into the argument of
    the awaited ``call``, and ``reply`` shapes its result into the
    response object or frame bytes.  An op is offered when the backend
    has the method it calls; ``ping`` and ``metrics`` always are.
    """
    ops = {
        "ping": (_same, _pong, lambda _: {"ok": True, "pong": True}),
        proto.PING: (_same, _pong, lambda _: _PONG),
    }

    def offer(name, call, parse=_same):
        """A JSON-bodied op: the frame payload is the JSON request."""
        request_type, reply_type = _FRAMES[name]
        ops[name] = (parse, call, lambda result: {"ok": True, name: result})
        ops[request_type] = (
            lambda payload: parse(_framed_json(payload)),
            call,
            lambda result: proto.pack_frame(
                reply_type, json.dumps(result, allow_nan=False).encode()
            ),
        )

    async def metrics(_request):
        return backend.metrics()

    offer("metrics", metrics)
    if hasattr(backend, "diff_generation"):
        offer(
            "diff",
            lambda a: backend.diff_generation(a[0], a[1], limit=a[2]),
            _diff_args,
        )
    if hasattr(backend, "what_if"):
        offer(
            "whatif",
            lambda a: backend.what_if(a[2], add=a[0], remove=a[1], limit=a[3]),
            _whatif_args,
        )
    if hasattr(backend, "classify"):
        ops["classify"] = (
            functools.partial(_header_of, backend),
            backend.classify,
            lambda atom: {"ok": True, "atom": atom},
        )
    if hasattr(backend, "classify_frame"):
        ops[proto.CLASSIFY] = (
            lambda payload: proto.decode_classify(payload)[0],
            backend.classify_frame,
            lambda atoms: proto.pack_frame(
                proto.RESULT, proto.encode_result(atoms)
            ),
        )
    if hasattr(backend, "query"):
        ops["query"] = (
            functools.partial(_query_args, backend),
            lambda args: backend.query(*args),
            _behavior_payload,
        )
    if hasattr(backend, "classify_shard"):
        ops[proto.SHARD_CLASSIFY] = (
            proto.decode_shard_classify,
            backend.classify_shard,
            lambda result: proto.pack_frame(
                proto.SHARD_RESULT, proto.encode_shard_result(*result)
            ),
        )
    return ops


def _missing(key) -> Exception:
    """The error for a request the op table has no entry for."""
    name = _OP_OF_FRAME.get(key) if type(key) is int else key
    if name == "query" or (isinstance(name, str) and name in _FRAMES):
        return _BadRequest(f"op {name!r} is not served by this endpoint")
    if type(key) is int:
        return proto.FrameError(f"unsupported frame type {key:#04x}")
    return _BadRequest(f"unknown op {key!r}")


def _error_text(exc: Exception, counters) -> str:
    """The error text both protocols answer with; malformed requests
    count as ``rejected``, failures the client did not cause do not."""
    if isinstance(exc, QueryShed):
        return "shed"
    if isinstance(exc, ServiceClosed):
        return "service closed"
    if isinstance(exc, asyncio.TimeoutError):
        return "timeout"
    if isinstance(exc, (ValueError, KeyError, proto.FrameError)):
        counters.rejected += 1
        return str(exc) or repr(exc)
    if isinstance(exc, (proto.RemoteError, ConnectionError)):
        return str(exc) or repr(exc)
    return f"{type(exc).__name__}: {exc}"


async def _read_line(reader: asyncio.StreamReader) -> tuple[bytes, bool]:
    """One newline-terminated line, bounded: ``(line, overflowed)``.

    A line longer than the stream's limit is discarded as it arrives
    (``LimitOverrunError`` hands back how many buffered bytes are safe
    to drop without eating the separator) and reported with
    ``overflowed=True`` so the caller can answer an error on that line
    and keep the connection -- ``readline`` would have raised
    ``ValueError`` and forced a disconnect.  EOF returns the partial
    trailing line, then ``(b"", False)``.
    """
    overflowed = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            return exc.partial, overflowed
        except asyncio.LimitOverrunError as exc:
            overflowed = True
            await reader.read(exc.consumed)
            continue
        return line, overflowed


async def _framed_loop(ops: dict, counters, reader, writer) -> None:
    """Frame in, frame out; the leading magic byte was already consumed."""
    read = proto.read_rest_of_frame
    while True:
        try:
            ftype, payload = await read(reader)
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        except proto.FrameError as exc:
            # Desynchronized stream: report once, then drop it.
            writer.write(proto.pack_frame(proto.ERROR, str(exc).encode()))
            await writer.drain()
            return
        read = proto.read_frame
        closed = False
        try:
            entry = ops.get(ftype)
            if entry is None:
                raise _missing(ftype)
            parse, call, reply = entry
            response = reply(await call(parse(payload)))
        except Exception as exc:
            closed = isinstance(exc, ServiceClosed)
            response = proto.pack_frame(
                proto.ERROR, _error_text(exc, counters).encode()
            )
        writer.write(response)
        try:
            await writer.drain()
        except ConnectionError:
            return
        if closed:
            return


async def _json_loop(ops: dict, counters, reader, writer, pending: bytes) -> None:
    """Line in, line out; ``pending`` is the already-read first byte."""
    while True:
        try:
            line, overflowed = await _read_line(reader)
        except (ConnectionError, OSError):
            return
        line, pending = pending + line, b""
        closed = False
        if overflowed:
            counters.rejected += 1
            response = _TOO_LARGE
        elif not line:
            return
        elif not line.strip():
            continue
        else:
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise _BadRequest("request must be a JSON object")
                op = request.get("op")
                entry = ops.get(op) if isinstance(op, str) else None
                if entry is None:
                    raise _missing(op)
                parse, call, reply = entry
                answer = reply(await call(parse(request)))
            except Exception as exc:
                closed = isinstance(exc, ServiceClosed)
                answer = {"ok": False, "error": _error_text(exc, counters)}
            response = (json.dumps(answer, allow_nan=False) + "\n").encode()
        writer.write(response)
        try:
            await writer.drain()
        except ConnectionError:
            return
        if closed:
            return


async def _serve_connection(ops: dict, counters, reader, writer) -> None:
    """The first-byte protocol switch, then that protocol's loop."""
    try:
        try:
            first = await reader.read(1)
        except (ConnectionError, OSError):
            first = b""
        if first and first[0] == proto.FRAME_MAGIC:
            await _framed_loop(ops, counters, reader, writer)
        elif first:
            await _json_loop(ops, counters, reader, writer, first)
    finally:
        await close_writer(writer)


async def close_writer(writer) -> None:
    """Close a stream writer, ignoring a peer that already went away."""
    try:
        writer.close()
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def start_tcp_server(
    backend,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    sock=None,
) -> asyncio.AbstractServer:
    """Serve ``backend`` on both protocols; ``port=0`` picks a free port.

    ``backend`` is a started :class:`~repro.serve.service.QueryService`,
    a :class:`~repro.serve.shard.ShardRouter`, or any object offering
    ``metrics()``, ``counters`` and some op methods (see
    :func:`op_table`).  The caller owns both lifetimes: close the
    returned server, then stop the backend.  ``sock`` serves an
    already-bound listening socket instead of binding ``host``/``port``
    -- the process grid passes per-member ``SO_REUSEPORT`` sockets this
    way.
    """
    ops = op_table(backend)
    counters = backend.counters
    live: set = set()

    async def handler(reader, writer) -> None:
        live.add(writer)
        try:
            await _serve_connection(ops, counters, reader, writer)
        finally:
            live.discard(writer)

    address = {"sock": sock} if sock is not None else {"host": host, "port": port}
    server = await asyncio.start_server(handler, limit=MAX_LINE_BYTES, **address)
    server._repro_live = live
    return server


async def close_tcp_server(server: asyncio.AbstractServer) -> None:
    """Stop accepting and close every live connection, so each handler
    sees EOF and returns (cancelling handler tasks logs spuriously, and
    idle persistent clients would keep ``wait_closed`` waiting)."""
    server.close()
    live = server._repro_live
    for writer in list(live):
        writer.close()
    for _ in range(100):
        if not live:
            break
        await asyncio.sleep(0.01)
    await server.wait_closed()


#: Flushed: scripts discover the port by reading the first stdout line
#: through a pipe, where plain print() would sit in the block buffer.
_print_flushed = functools.partial(print, flush=True)


def announce_listening(address, emit=_print_flushed, **fields) -> None:
    """Emit the one JSON announce line every ``repro serve`` mode starts with.

    ``{"listening": [host, port], ...fields, "protocols": [...]}`` --
    scripts starting a server with ``port=0`` parse the bound port from
    its ``listening`` key.
    """
    emit(json.dumps({
        "listening": [address[0], address[1]],
        **fields,
        "protocols": ["framed", "json"],
    }))


async def serve_forever(
    backend, host: str, port: int, *, announce=_print_flushed, **fields
) -> None:
    """``repro serve`` driver: run ``backend`` behind the endpoint until
    cancelled.

    ``backend`` is an async context manager (a :class:`QueryService` or
    a :class:`~repro.serve.shard.ShardRouter`); it is entered before the
    socket binds and left after the last connection closed.  ``fields``
    are added to the announce line (:func:`announce_listening`).
    """
    async with backend:
        server = await start_tcp_server(backend, host, port)
        announce_listening(
            server.sockets[0].getsockname(), emit=announce, **fields
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await close_tcp_server(server)
