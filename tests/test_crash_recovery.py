"""Crash recovery, end to end: real ``repro-serve`` processes, real signals.

The durability contract, tested the only way it can honestly be tested —
by killing the process:

* ``SIGKILL`` mid-flight: checkpointed sessions come back byte-for-byte on
  a restart with the same ``--state-dir``, answering check/extract/explain
  identically on both the ``.egg`` and JSON program surfaces;
* ``SIGTERM``: the server drains, checkpoints *every* live session on its
  own (no explicit checkpoint calls), exits 0, and a restart restores them;
* a fault-injected hard crash (``REPRO_FAULTS=...:exit``) inside the
  checkpoint write: the process dies mid-write, yet the state dir holds
  either the previous checkpoint or none — never a corrupt file.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import time

import pytest

SETUP = """
(datatype Math (Num i64) (Add Math Math))
(rewrite (Add x y) (Add y x) :name "add-comm")
(let expr (Add (Num 1) (Num 2)))
(run 3)
"""

#: Observations a restored session must answer identically to the original.
PROBES = [
    ("egg", {"program": "(check (= expr (Add (Num 2) (Num 1))))"}),
    ("egg", {"program": "(extract expr)"}),
    ("egg", {"program": "(explain (Add (Num 1) (Num 2)) (Add (Num 2) (Num 1)))"}),
    (
        "program",
        {
            "ops": [
                {
                    "op": "extract",
                    "term": ["a", "Add", [["a", "Num", [["l", ["i64", 1]]]], ["a", "Num", [["l", ["i64", 2]]]]]],
                }
            ]
        },
    ),
]


class Server:
    """One ``repro-serve`` subprocess bound to an ephemeral port."""

    def __init__(self, state_dir, *extra_args, env_extra=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        env.update(env_extra or {})
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.server.cli",
                "--port",
                "0",
                "--state-dir",
                str(state_dir),
                *extra_args,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.port = None
        deadline = time.time() + 30
        while time.time() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise AssertionError(f"repro-serve died: exit {self.proc.poll()}")
            if "listening on" in line:
                self.port = int(line.rsplit(":", 1)[1])
                break
        assert self.port, "no listening line within 30s"

    def request(self, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            payload = json.dumps(body) if body is not None else None
            conn.request(method, path, body=payload)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def kill9(self):
        self.proc.kill()
        self.proc.wait(timeout=10)

    def sigterm(self, timeout=30):
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def drain_output(self):
        out, _ = self.proc.communicate(timeout=10)
        return out

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


def _observe(server, sid):
    answers = []
    for action, body in PROBES:
        status, payload = server.request("POST", f"/sessions/{sid}/{action}", body)
        assert status == 200, payload
        answers.append(payload)
    return answers


def _build_session(server):
    status, body = server.request("POST", "/sessions", {})
    assert status == 201
    sid = body["session"]["id"]
    status, body = server.request("POST", f"/sessions/{sid}/egg", {"program": SETUP})
    assert status == 200, body
    return sid


def test_sigkill_then_restart_restores_checkpointed_sessions(tmp_path):
    state = tmp_path / "state"
    first = Server(state)
    try:
        sid = _build_session(first)
        # A fork diverges, then both are checkpointed: restore must keep
        # them distinct.
        status, body = first.request("POST", f"/sessions/{sid}/fork")
        fid = body["session"]["id"]
        first.request(
            "POST", f"/sessions/{fid}/egg", {"program": "(union (Num 7) (Num 8))\n(run 1)"}
        )
        expected = {sid: _observe(first, sid), fid: _observe(first, fid)}
        for each in (sid, fid):
            status, body = first.request("POST", f"/sessions/{each}/checkpoint")
            assert status == 200, body
        first.kill9()  # no goodbye: whatever is on disk is all that survives
    finally:
        first.close()

    second = Server(state)
    try:
        _, body = second.request("GET", "/sessions")
        listed = {s["id"] for s in body["sessions"]}
        assert {sid, fid} <= listed
        for each, answers in expected.items():
            assert _observe(second, each) == answers
        # Divergence survived: the fork knows 7=8, the original does not.
        status, body = second.request(
            "POST", f"/sessions/{fid}/egg", {"program": "(check (= (Num 7) (Num 8)))"}
        )
        assert status == 200
        status, body = second.request(
            "POST", f"/sessions/{sid}/egg", {"program": "(check (= (Num 7) (Num 8)))"}
        )
        assert status == 422  # original never unioned them
        _, body = second.request("GET", "/stats")
        assert body["stats"]["durability"]["restores"] == 2
    finally:
        second.close()


def test_sigterm_drains_and_checkpoints_everything(tmp_path):
    state = tmp_path / "state"
    first = Server(state)
    try:
        sid = _build_session(first)
        expected = _observe(first, sid)
        # No explicit checkpoint: the graceful path must write it.
        code = first.sigterm()
        assert code == 0
        out = first.drain_output()
        assert "checkpointed 1 session(s)" in out
        assert "repro-serve stopped" in out
    finally:
        first.close()

    second = Server(state)
    try:
        assert _observe(second, sid) == expected
    finally:
        second.close()


def test_sigterm_on_the_listening_line_stops_gracefully(tmp_path):
    # The signal handlers must be installed before the listening line is
    # printed: a supervisor that signals the moment it reads the line gets
    # a clean exit 0, not a default SIGTERM death (-15).
    for _ in range(3):
        server = Server(tmp_path / "state")
        try:
            code = server.sigterm()
            out = server.drain_output()
        finally:
            server.close()
        assert code == 0, out
        assert "repro-serve stopped" in out


def test_crash_inside_checkpoint_never_corrupts_the_store(tmp_path):
    from repro.serialize.snapshot import read_document
    from repro.testing.faults import CRASH_EXIT_CODE

    state = tmp_path / "state"

    # Round 1: die *inside the temp-file write* of the very first checkpoint.
    first = Server(state, env_extra={"REPRO_FAULTS": "snapshot.write:1:exit"})
    try:
        sid = _build_session(first)
        with pytest.raises((ConnectionError, http.client.HTTPException, OSError)):
            first.request("POST", f"/sessions/{sid}/checkpoint")
        assert first.proc.wait(timeout=10) == CRASH_EXIT_CODE
    finally:
        first.close()
    files = [p.name for p in state.iterdir()]
    assert files in ([], [f"{sid}.json.tmp"])  # never a live .json

    # Round 2: write one good checkpoint cleanly, then crash *before the
    # rename* while overwriting it — the old checkpoint must survive.
    second = Server(state)
    try:
        sid = _build_session(second)
        status, body = second.request("POST", f"/sessions/{sid}/checkpoint")
        assert status == 200
        second.kill9()
    finally:
        second.close()
    checkpoint = state / f"{sid}.json"
    good = checkpoint.read_bytes()

    third = Server(state, env_extra={"REPRO_FAULTS": "snapshot.rename:1:exit"})
    try:
        # Touch restores the session; mutate so the next checkpoint differs.
        status, body = third.request(
            "POST", f"/sessions/{sid}/egg", {"program": "(union (Num 5) (Num 6))"}
        )
        assert status == 200, body
        with pytest.raises((ConnectionError, http.client.HTTPException, OSError)):
            third.request("POST", f"/sessions/{sid}/checkpoint")
        assert third.proc.wait(timeout=10) == CRASH_EXIT_CODE
    finally:
        third.close()
    assert checkpoint.read_bytes() == good  # previous checkpoint untouched
    read_document(str(checkpoint))  # and it still validates


def test_fork_passivate_restore_parity(tmp_path):
    state = tmp_path / "state"
    # max-sessions=1 forces the original to passivate when its fork is
    # admitted; touching it again restores from disk mid-flight.
    server = Server(state, "--max-sessions", "1")
    try:
        sid = _build_session(server)
        expected = _observe(server, sid)  # session live, in memory
        status, body = server.request("POST", f"/sessions/{sid}/fork")
        assert status == 201
        fid = body["session"]["id"]  # admitting the fork passivated sid
        assert _observe(server, sid) == expected  # restored transparently
        assert _observe(server, fid) == expected  # fork carried the state
        _, body = server.request("GET", "/stats")
        durability = body["stats"]["durability"]
        assert durability["passivations"] >= 1 and durability["restores"] >= 1
    finally:
        server.close()
