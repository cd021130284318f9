"""The serving process under test: ``repro serve --artifact`` in its own
process, so the load generator never shares its event loop."""

from __future__ import annotations

import json
import os
import select
import socket
import struct
import subprocess
import sys
import time

from repro.serve import proto

#: ``MAGIC | u32 length | u8 type`` -- see :mod:`repro.serve.proto`.
FRAME_HEAD = struct.Struct("<BIB")

#: Longest wait for the announce line or for the process to exit.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0


def recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            raise ConnectionError("server closed the connection")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> tuple[int, bytes]:
    """One ``(type, payload)`` frame from a blocking socket."""
    magic, length, ftype = FRAME_HEAD.unpack(recv_exact(sock, FRAME_HEAD.size))
    if magic != proto.FRAME_MAGIC:
        raise ConnectionError(f"bad frame magic {magic:#04x}")
    return ftype, recv_exact(sock, length) if length else b""


def peak_rss_mb(pid: int) -> float:
    """Peak resident set of process ``pid`` (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


class ServerProcess:
    """Spawn, probe, measure and stop one ``repro serve`` process."""

    def __init__(self, root: str, artifact: str, engine: str, log_path: str):
        self.root = root
        self.artifact = artifact
        self.engine = engine
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self._control: socket.socket | None = None

    def start(self) -> None:
        """Spawn the server and wait for its first ``PONG``."""
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve",
                    "--artifact", self.artifact,
                    "--engine", self.engine,
                    "--port", "0",
                ],
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        line = self._announce_line(started + START_TIMEOUT_S)
        host, port = json.loads(line)["listening"]
        self.address = (host, port)
        self._control = self.connect_framed()
        self._control.sendall(proto.pack_frame(proto.PING))
        ftype, _ = recv_frame(self._control)
        if ftype != proto.PONG:
            raise RuntimeError(f"server answered PING with frame {ftype:#04x}")

    def _announce_line(self, deadline: float) -> str:
        stdout = self.proc.stdout
        buffered = b""
        while b"\n" not in buffered:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError("server did not announce its port in time")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if ready:
                chunk = os.read(stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(
                        f"server exited before announcing (see {self.log_path})"
                    )
                buffered += chunk
        return buffered.split(b"\n", 1)[0].decode()

    def connect_framed(self) -> socket.socket:
        sock = socket.create_connection(self.address, timeout=START_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def metrics(self) -> dict:
        """The service counters, read with the framed ``METRICS`` op."""
        self._control.sendall(proto.pack_frame(proto.METRICS))
        ftype, payload = recv_frame(self._control)
        if ftype != proto.METRICS_RESULT:
            raise RuntimeError(f"server answered METRICS with {ftype:#04x}")
        return json.loads(payload)

    def stop(self) -> None:
        """Terminate the server and wait for it; kill it if it lingers.

        ``SIGTERM`` rather than ``SIGINT``: a shell that starts the benchmark
        in the background leaves ``SIGINT`` ignored in every child.
        """
        if self._control is not None:
            self._control.close()
            self._control = None
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
