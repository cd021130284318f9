"""Multi-worker serving: shared-memory pool, handoff, CLI liveness.

Workers are real OS processes mapping one shared artifact, so these
tests exercise the full path: fork, SO_REUSEPORT accept, newline-JSON
round trips, generation handoff acks, and clean teardown.  Kept small --
the pool's value is parallelism, but its *correctness* contract is that
every worker answers exactly like the classifier that was published.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.core.classifier import APClassifier
from repro.datasets import internet2_like, random_headers, rule_update_stream, toy_network
from repro.obs import Recorder
from repro.serve import ServeWorkerPool, closed_loop_qps

TIMEOUT_S = 10.0


def ask(host, port, request: dict) -> dict:
    with socket.create_connection((host, port), timeout=TIMEOUT_S) as sock:
        sock.sendall((json.dumps(request) + "\n").encode())
        line = b""
        while not line.endswith(b"\n"):
            chunk = sock.recv(4096)
            if not chunk:
                break
            line += chunk
    return json.loads(line)


@pytest.fixture(scope="module")
def toy_classifier():
    return APClassifier.build(toy_network())


class TestPool:
    def test_round_trip_matches_direct(self, toy_classifier):
        rng = random.Random(5)
        headers = random_headers(toy_classifier.dataplane.layout, 32, rng)
        expected = [toy_classifier.tree.classify(h) for h in headers]
        with ServeWorkerPool(toy_classifier, workers=2) as pool:
            assert ask("127.0.0.1", pool.port, {"op": "ping"}) == {
                "ok": True,
                "pong": True,
            }
            for header, atom in zip(headers, expected):
                response = ask(
                    "127.0.0.1", pool.port, {"op": "classify", "header": header}
                )
                assert response == {"ok": True, "atom": atom}

    def test_generation_handoff(self):
        network = internet2_like(prefixes_per_router=1)
        classifier = APClassifier.build(network)
        rng = random.Random(2)
        headers = random_headers(classifier.dataplane.layout, 48, rng)
        with ServeWorkerPool(classifier, workers=2) as pool:
            for update in rule_update_stream(network, 8, rng):
                if update.kind == "insert":
                    classifier.insert_rule(update.box, update.rule)
                else:
                    classifier.remove_rule(update.box, update.rule)
            pool.publish(classifier)
            expected = [classifier.tree.classify(h) for h in headers]
            got = [
                ask("127.0.0.1", pool.port, {"op": "classify", "header": h})["atom"]
                for h in headers
            ]
            assert got == expected

    def test_recorder_counts_workers_and_generations(self, toy_classifier):
        recorder = Recorder()
        pool = ServeWorkerPool(toy_classifier, workers=2, recorder=recorder)
        with pool:
            pool.publish(toy_classifier)
        assert recorder.serve.workers == 2
        assert recorder.serve.generations == 1

    def test_stop_is_idempotent(self, toy_classifier):
        pool = ServeWorkerPool(toy_classifier, workers=1)
        pool.start()
        pool.stop()
        pool.stop()

    def test_closed_loop_driver(self, toy_classifier):
        rng = random.Random(9)
        headers = random_headers(toy_classifier.dataplane.layout, 16, rng)
        with ServeWorkerPool(toy_classifier, workers=2) as pool:
            stats = closed_loop_qps(
                "127.0.0.1", pool.port, headers, connections=2, duration_s=0.3
            )
        assert stats["responses"] > 0
        assert stats["qps"] > 0

    def test_rejects_bad_worker_count(self, toy_classifier):
        with pytest.raises(ValueError):
            ServeWorkerPool(toy_classifier, workers=0)


class TestCLI:
    def test_serve_workers_liveness(self, tmp_path):
        """`repro serve --serve-workers 2` answers over TCP."""
        port = _free_port()
        env = dict(os.environ, PYTHONPATH="src")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--dataset",
                "toy",
                "--port",
                str(port),
                "--serve-workers",
                "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            _wait_for_port("127.0.0.1", port)
            assert ask("127.0.0.1", port, {"op": "ping"})["ok"] is True
            response = ask(
                "127.0.0.1", port, {"op": "classify", "packet": {"dst_ip": "10.2.0.1"}}
            )
            assert response["ok"] is True
        finally:
            process.terminate()
            try:
                process.wait(timeout=TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=TIMEOUT_S)


    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="needs /proc to list child processes"
    )
    @pytest.mark.parametrize(
        "topology",
        [["--serve-workers", "2"], ["--shards", "2"]],
        ids=["workers", "shards"],
    )
    @pytest.mark.parametrize(
        "signum, returncode",
        [(signal.SIGTERM, 0), (signal.SIGKILL, -9)],
        ids=["sigterm", "sigkill"],
    )
    def test_signal_stops_every_process(
        self, topology, signum, returncode, tmp_path
    ):
        """SIGTERM unwinds `repro serve`, and even a SIGKILLed server
        closes its members' control pipes: either way the announced port
        refuses connections and no worker or replica outlives it."""
        env = dict(os.environ, PYTHONPATH="src")
        with open(tmp_path / "stderr.log", "wb") as log:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--dataset",
                 "toy", "--port", "0", *topology],
                stdout=subprocess.PIPE, stderr=log, env=env, text=True,
            )
        try:
            host, port = json.loads(process.stdout.readline())["listening"]
            assert ask(host, port, {"op": "ping"})["ok"] is True
            children = _children(process.pid)
            assert len(children) >= 2
            process.send_signal(signum)
            assert process.wait(timeout=TIMEOUT_S) == returncode
            deadline = time.monotonic() + TIMEOUT_S
            while time.monotonic() < deadline and (
                _accepts(host, port) or any(map(_alive, children))
            ):
                time.sleep(0.1)
            assert not _accepts(host, port)
            assert not [pid for pid in children if _alive(pid)]
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=TIMEOUT_S)
            process.stdout.close()


def _proc_stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _children(pid: int) -> list[int]:
    return [
        int(entry)
        for entry in os.listdir("/proc")
        if entry.isdigit()
        and (_proc_stat(int(entry)) or [None, None])[1] == str(pid)
    ]


def _alive(pid: int) -> bool:
    fields = _proc_stat(pid)
    return fields is not None and fields[0] != "Z"


def _accepts(host: str, port: int) -> bool:
    try:
        with socket.create_connection((host, port), timeout=1.0):
            return True
    except OSError:
        return False


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _wait_for_port(host: str, port: int, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            with socket.create_connection((host, port), timeout=1.0):
                return
        except OSError:
            time.sleep(0.1)
    raise TimeoutError(f"server on {host}:{port} never came up")
