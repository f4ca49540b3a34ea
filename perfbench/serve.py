"""The ``serve-sessions`` workload: a real ``repro-serve`` under two clients.

Each client thread owns one keep-alive connection and repeats a seeded
session cycle, closed loop:

1. fork a session from the ``types`` base;
2. send ``CYCLE_BATCHES`` ``.egg`` batches (union, run, check, extract);
3. revisit the previous cycle's session with one batch — the server keeps
   only ``MAX_SESSIONS`` live, so that session has usually been passivated
   and the batch restores it;
4. checkpoint the new session, then delete the previous one.

Every answer is compared with :class:`gen.Unifier`.  The traced mode also
replays the same request sequence in-process against a ``SessionManager``
with the same settings, timing the session and serialize layers without
HTTP in between.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

import gen
from common import (
    CAL_REFERENCE_S,
    HERE,
    SRC,
    HarnessError,
    beyond,
    calibrate,
    median,
    mismatches,
    out_dir,
    peak_rss_mb,
    percentile,
)
from spans import GcMeter, Tracer

CLIENTS = 2
MAX_SESSIONS = 3
#: Spawns per run; ``setup_s`` is their median and the last one serves.
SPAWNS = 5
SPAWN_CALIBRATIONS = 3
#: Seconds between calibrations a helper process takes while clients run.
CALIBRATION_PERIOD_S = 0.25
#: Session cycles each client replays in-process in the traced mode.
REPLAY_CYCLES = 10
SPAWN_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
SERVER_MAIN = "import sys; from repro.server.cli import main; sys.exit(main())"
LISTENING = re.compile(r"^repro-serve listening on http://([^:]+):(\d+)$")

#: One client's session scripts: each a list of batches.
Scripts = List[List[gen.Batch]]


class Server:
    """One ``repro-serve`` child, started through ``repro.server.cli.main``.

    The start-up time runs from spawn to the ``listening`` line, which
    comes after the base is loaded.  Other lines may come first (``--base``
    prints one per base), so the reader waits for that line by content.
    """

    def __init__(self, state_dir: str, base_path: str) -> None:
        env = dict(os.environ, PYTHONPATH=SRC)
        begin = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-c", SERVER_MAIN,
                "--port", "0",
                "--max-sessions", str(MAX_SESSIONS),
                "--state-dir", state_dir,
                "--base", f"types={base_path}",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        self.lines: List[str] = []
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.port = self._await_listening()
        self.setup_s = time.perf_counter() - begin

    def _read(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self._queue.put(line.rstrip("\n"))
        self._queue.put(None)

    def _await_listening(self) -> int:
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while True:
            try:
                line = self._queue.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                self.kill()
                raise HarnessError("repro-serve did not print its listening line in time")
            if line is None:
                code = self.process.wait()
                raise HarnessError(f"repro-serve exited with {code} before listening: {self.lines}")
            self.lines.append(line)
            match = LISTENING.match(line)
            if match:
                return int(match.group(2))

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def stop(self) -> Optional[str]:
        """SIGTERM and wait; None on a clean drain, else what went wrong.

        A request answered first: the server installs its SIGTERM handler
        just after printing the listening line, so a signal sent on that
        line alone can arrive before the handler and kill it.
        """
        probe = Client(self.port)
        try:
            probe.call("GET", "/healthz")
            self.process.send_signal(signal.SIGTERM)
            code = self.process.wait(timeout=STOP_TIMEOUT_S)
        except (OSError, http.client.HTTPException, subprocess.TimeoutExpired) as error:
            return f"repro-serve did not stop cleanly: {error!r}"
        finally:
            probe.close()
            self.kill()
        self._reader.join(STOP_TIMEOUT_S)
        while True:
            line = self._queue.get()
            if line is None:
                break
            self.lines.append(line)
        if code != 0 or "repro-serve stopped" not in self.lines:
            return f"repro-serve exited {code}; last lines {self.lines[-3:]}"
        return None

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()


class Client:
    """One keep-alive HTTP/1.1 connection with JSON bodies."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, body: Any = None) -> Tuple[int, Any, float]:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        begin = time.perf_counter()
        self.connection.request(method, path, body=payload, headers=headers)
        response = self.connection.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - begin
        return response.status, json.loads(data) if data else None, elapsed

    def close(self) -> None:
        self.connection.close()


class Tally:
    """What one client observed."""

    def __init__(self) -> None:
        self.requests = 0
        self.failed = 0
        self.errors: List[str] = []
        self.batch_s: List[float] = []
        self.checkpoint_s: List[float] = []
        #: (start, end) of every complete session cycle.
        self.cycles: List[Tuple[float, float]] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)


def _client_loop(port: int, scripts: Scripts, deadline: float, tally: Tally) -> None:
    client = Client(port)

    def call(method: str, path: str, body: Any = None) -> Tuple[bool, Any, float]:
        status, obj, elapsed = client.call(method, path, body)
        tally.requests += 1
        if not 200 <= status < 300:
            tally.fail(f"{method} {path} -> {status} {obj}")
            return False, obj, elapsed
        return True, obj, elapsed

    def batch(session: str, expected: gen.Batch) -> None:
        ok, obj, elapsed = call("POST", f"/sessions/{session}/egg", {"program": expected.text})
        tally.batch_s.append(elapsed)
        if ok:
            wrong = gen.check_batch_lines(expected, obj.get("lines", []))
            if wrong is not None:
                tally.fail(f"session {session}: {wrong}")

    previous: Optional[Tuple[str, gen.Batch]] = None
    cycle = 0
    try:
        while time.perf_counter() < deadline:
            script = scripts[cycle % len(scripts)]
            cycle += 1
            begin = time.perf_counter()
            ok, obj, _ = call("POST", "/sessions", {"base": "types"})
            if not ok:
                continue
            session = obj["session"]["id"]
            for expected in script:
                batch(session, expected)
            if previous is not None:
                batch(*previous)
            ok, _, elapsed = call("POST", f"/sessions/{session}/checkpoint")
            tally.checkpoint_s.append(elapsed)
            if previous is not None:
                call("DELETE", f"/sessions/{previous[0]}")
            previous = (session, script[-1])
            tally.cycles.append((begin, time.perf_counter()))
        if previous is not None:
            call("DELETE", f"/sessions/{previous[0]}")
    except (OSError, http.client.HTTPException, ValueError) as error:
        tally.fail(f"client stopped: {error!r}")
    finally:
        client.close()


def http_phase(base: gen.TypeBase, scripts: List[Scripts], seconds: float) -> Dict[str, Any]:
    """Start the server ``SPAWNS`` times, drive the last one, stop it."""
    base_path = os.path.join(out_dir("programs"), f"serve-sessions-base-{base.seed}.egg")
    with open(base_path, "w", encoding="utf-8") as handle:
        handle.write(base.text)
    state_root = out_dir("state")
    setups: List[float] = []
    problems: List[str] = []

    def spawn(state_dir: str) -> Server:
        """Start a server; its start-up time is scaled by calibrations taken
        just before and after, while nothing else runs."""
        before = [calibrate() for _ in range(SPAWN_CALIBRATIONS)]
        server = Server(state_dir, base_path)
        after = [calibrate() for _ in range(SPAWN_CALIBRATIONS)]
        setups.append(server.setup_s * CAL_REFERENCE_S / median(before + after))
        return server

    for _ in range(SPAWNS - 1):
        state_dir = tempfile.mkdtemp(dir=state_root)
        try:
            problem = spawn(state_dir).stop()
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)
        if problem:
            problems.append(problem)
    state_dir = tempfile.mkdtemp(dir=state_root)
    server = None
    try:
        server = spawn(state_dir)
        tallies = [Tally() for _ in range(CLIENTS)]
        begin = time.perf_counter()
        deadline = begin + seconds
        threads = [
            threading.Thread(
                target=_client_loop, args=(server.port, scripts[c], deadline, tallies[c])
            )
            for c in range(CLIENTS)
        ]
        # A separate process, so the calibrations do not contend with the
        # client threads for this process's interpreter lock.
        helper = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "common.py"), str(CALIBRATION_PERIOD_S)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - begin
            out, _ = helper.communicate(input="", timeout=STOP_TIMEOUT_S)
        finally:
            if helper.poll() is None:
                helper.kill()
                helper.wait()
        calibrations = [float(line) for line in out.split()]
        if not calibrations:
            raise HarnessError("the calibration helper took no measurements")
        stats_client = Client(server.port)
        try:
            status, stats, _ = stats_client.call("GET", "/stats")
        finally:
            stats_client.close()
        if status != 200:
            problems.append(f"GET /stats -> {status}")
        rss = server.peak_rss_mb()
        problem = server.stop()
        server = None
        if problem:
            problems.append(problem)
    finally:
        if server is not None:
            server.kill()
        shutil.rmtree(state_dir, ignore_errors=True)
    return {
        "setups": setups,
        "tallies": tallies,
        "elapsed": elapsed,
        "calibrations": calibrations,
        "stats": stats.get("stats", {}) if isinstance(stats, dict) else {},
        "peak_rss_mb": rss,
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# In-process replay (traced mode)
# ---------------------------------------------------------------------------


def _as_term(term: gen.Term) -> Any:
    from repro.core.terms import App

    return App(term[0], *(_as_term(a) if isinstance(a, tuple) else a for a in term[1:]))


def _replay_client(
    manager: Any, scripts: Scripts, tracer: Tracer, client: int, record: Dict[str, Any]
) -> Iterator[None]:
    """One client's request sequence; yields between requests so two
    clients interleave the way they do over HTTP."""
    from repro.frontend import parse_program
    from repro.serialize import (
        compute_digest,
        dumps_document,
        engine_document,
        engine_from_document,
        read_document,
    )
    from repro.session import SessionError

    def batch(session_id: str, expected: gen.Batch) -> None:
        restores = manager.restores
        with tracer.span("session.get") as span:
            session = manager.get(session_id)
        if manager.restores > restores and tracer.enabled:
            span.name = "session.restore"
        before = session.evaluator.report
        before = (before.search_time, before.apply_time, before.rebuild_time,
                  before.iterations, before.num_matches, before.delta_skips)
        nodes = session.engine.node_count()
        try:
            with tracer.span("session.batch"):
                lines = session.run_egg(expected.text)
        except SessionError as error:
            lines = [f"batch raised {error}"]
        wrong = gen.check_batch_lines(expected, lines)
        if wrong is not None:
            record["errors"].append(f"replay {session_id}: {wrong}")
        after = session.evaluator.report
        after = (after.search_time, after.apply_time, after.rebuild_time,
                 after.iterations, after.num_matches, after.delta_skips)
        delta = [a - b for a, b in zip(after, before)]
        record["engine"].append(delta[:3])
        counts = record["counts"]
        counts["iterations"] += delta[3]
        counts["matches"] += delta[4]
        counts["delta_skips"] += delta[5]
        counts["rows_added"] += session.engine.node_count() - nodes
        record["nodes"].append(session.engine.node_count())
        with tracer.span("frontend.parse"):
            parse_program(expected.text)
        with tracer.span("engine.extract"):
            cost, _ = session.engine.extract_with_cost(_as_term(expected.target))
        counts["extract_costs"].append(cost)
        record["ops"] += 1

    previous: Optional[Tuple[str, gen.Batch]] = None
    for cycle in range(REPLAY_CYCLES):
        tracer.run = f"c{client}/{cycle}"
        script = scripts[cycle % len(scripts)]
        with tracer.span("session.fork"):
            session = manager.create_session("types")
        record["ops"] += 1
        yield
        for expected in script:
            tracer.run = f"c{client}/{cycle}"
            batch(session.id, expected)
            yield
        if previous is not None:
            tracer.run = f"c{client}/{cycle}"
            batch(*previous)
            yield
        tracer.run = f"c{client}/{cycle}"
        with tracer.span("session.checkpoint"):
            written = manager.checkpoint_session(session.id)
        live = manager.get(session.id)
        with tracer.span("serialize.document"):
            document = engine_document(live.engine)
        with tracer.span("serialize.dumps"):
            dumps_document(document)
        with tracer.span("serialize.digest"):
            compute_digest(document)
        stored = read_document(written["path"])
        with tracer.span("serialize.decode"):
            engine_from_document(stored)
        record["counts"]["checkpoint_bytes"].append(os.path.getsize(written["path"]))
        record["ops"] += 1
        yield
        if previous is not None:
            with tracer.span("session.delete"):
                manager.remove_session(previous[0])
            record["ops"] += 1
        previous = (session.id, script[-1])
        yield
    if previous is not None:
        manager.remove_session(previous[0])


def replay(base: gen.TypeBase, scripts: List[Scripts], traced: bool) -> Dict[str, Any]:
    """The HTTP request sequence, in-process, on a fresh manager."""
    from repro.session import SessionManager

    tracer = Tracer(traced)
    state_dir = tempfile.mkdtemp(dir=out_dir("state"))
    record: Dict[str, Any] = {
        "ops": 0,
        "errors": [],
        "engine": [],
        "nodes": [],
        "counts": {
            "iterations": 0, "matches": 0, "delta_skips": 0, "rows_added": 0,
            "extract_costs": [], "checkpoint_bytes": [],
        },
    }
    try:
        manager = SessionManager(max_sessions=MAX_SESSIONS, state_dir=state_dir)
        manager.add_base_from_program("types", base.text)
        clients = [_replay_client(manager, scripts[c], tracer, c, record) for c in range(CLIENTS)]
        with GcMeter() as meter:
            begin = time.perf_counter()
            while clients:
                for client in list(clients):
                    try:
                        next(client)
                    except StopIteration:
                        clients.remove(client)
            record["wall_s"] = time.perf_counter() - begin
        record["gc"] = meter.reading()
        record["counts"]["passivations"] = manager.passivations
        record["counts"]["restores"] = manager.restores
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    record["tracer"] = tracer
    return record


def _layers(record: Dict[str, Any], http: Dict[str, Any], batch_p50_s: float) -> Dict[str, float]:
    tracer: Tracer = record["tracer"]
    stats = http["stats"]
    durability = stats.get("durability") or {}
    cache = stats.get("compile_cache") or {}
    counts = record["counts"]
    batches = sum(len(t.batch_s) for t in http["tallies"])
    engine = record["engine"]
    batch_s = tracer.durations("session.batch")
    unattributed = [b - sum(e) for b, e in zip(batch_s, engine)]
    cycles = CLIENTS * REPLAY_CYCLES
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    return {
        "frontend.parse_s": median(tracer.durations("frontend.parse")),
        "frontend.commands": 4,
        "frontend.lower_s": 0.0,
        "engine.search_s": median([e[0] for e in engine]),
        "engine.apply_s": median([e[1] for e in engine]),
        "engine.rebuild_s": median([e[2] for e in engine]),
        "engine.iterations": counts["iterations"],
        "engine.matches": counts["matches"],
        "engine.delta_skips": counts["delta_skips"],
        "engine.nodes": median(record["nodes"]),
        "engine.rows_added": counts["rows_added"],
        "engine.rows_per_match": counts["rows_added"] / max(1, counts["matches"]),
        "engine.extract_s": median(tracer.durations("engine.extract")),
        "engine.extracts": len(counts["extract_costs"]),
        "engine.check_s": 0.0,
        "engine.unattributed_s": median(unattributed),
        "serialize.document_s": median(tracer.durations("serialize.document")),
        "serialize.dumps_s": median(tracer.durations("serialize.dumps")),
        "serialize.digest_s": median(tracer.durations("serialize.digest")),
        "serialize.checkpoint_bytes": median(counts["checkpoint_bytes"]),
        "serialize.decode_s": median(tracer.durations("serialize.decode")),
        "session.fork_s": median(tracer.durations("session.fork")),
        "session.batch_s": median(batch_s),
        "session.checkpoint_s": median(tracer.durations("session.checkpoint")),
        "session.restore_s": median(tracer.durations("session.restore")),
        "session.passivations": durability.get("passivations", 0),
        "session.restores": durability.get("restores", 0),
        "session.restore_share": durability.get("restores", 0) / max(1, batches),
        "session.compile_cache_hit_ratio": cache.get("hits", 0) / max(1, lookups),
        "server.overhead_p50_ms": (batch_p50_s - median(batch_s)) * 1000,
        "server.rejected": (stats.get("server") or {}).get("rejected", 0),
        "python.gc_s": record["gc"][0] / cycles,
        "python.gc_collections": record["gc"][1] / cycles,
    }


def run(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    base = gen.TypeBase(seed)
    scripts = [base.scripts(c) for c in range(CLIENTS)]
    http = http_phase(base, scripts, seconds / 2 if trace else seconds)
    tallies: List[Tally] = http["tallies"]
    batch_s = [s for t in tallies for s in t.batch_s]
    checkpoint_s = [s for t in tallies for s in t.checkpoint_s]
    requests = sum(t.requests for t in tallies)
    failed = sum(t.failed for t in tallies) + len(http["problems"])
    errors = http["problems"] + [e for t in tallies for e in t.errors]
    speed = CAL_REFERENCE_S / median(http["calibrations"])
    cycles = [c for t in tallies for c in t.cycles]
    raw_run_s = median([end - start for start, end in cycles])
    summary: Dict[str, Any] = {
        "setup_s": median(http["setups"]),
        "run_s": raw_run_s * speed,
        "requests_per_s": requests / http["elapsed"] / speed,
        "peak_rss_mb": http["peak_rss_mb"],
        "batch_p50_ms": percentile(batch_s, 50) * 1000 * speed,
        "batch_p99_ms": percentile(batch_s, 99) * 1000 * speed,
        "checkpoint_p50_ms": percentile(checkpoint_s, 50) * 1000 * speed,
        "checkpoint_p90_ms": percentile(checkpoint_s, 90) * 1000 * speed,
        "raw_run_s": raw_run_s,
        "speed": speed,
        "samples": {
            "batches": len(batch_s),
            "beyond_batch_p99": beyond(len(batch_s), 99),
            "checkpoints": len(checkpoint_s),
            "beyond_checkpoint_p90": beyond(len(checkpoint_s), 90),
            "cycles": len(cycles),
        },
        "attempted": requests,
        "failed": failed,
        "stats": http["stats"],
        "sizes": {
            "type_vars": gen.TYPE_VARS,
            "base_arrows": len(base.terms),
            "base_rows": len(base.model.terms),
            "cycle_batches": gen.CYCLE_BATCHES,
            "clients": CLIENTS,
            "max_sessions": MAX_SESSIONS,
        },
    }
    if trace:
        plain = replay(base, scripts, traced=False)
        traced = replay(base, scripts, traced=True)
        for record in (plain, traced):
            summary["attempted"] += record["ops"]
            summary["failed"] += len(record["errors"])
            errors += record["errors"]
        layers = _layers(traced, http, percentile(batch_s, 50))
        layers.update({
            "server.batch_p50_ms": summary["batch_p50_ms"],
            "server.batch_p99_ms": summary["batch_p99_ms"],
            "server.checkpoint_p50_ms": summary["checkpoint_p50_ms"],
            "server.checkpoint_p90_ms": summary["checkpoint_p90_ms"],
            "trace.overhead_ratio": traced["wall_s"] / plain["wall_s"],
        })
        summary["layers"] = layers
        summary["counts"] = traced["counts"]
        summary["unsteady_counts"] = mismatches([plain["counts"], traced["counts"]])
        trace_path = os.path.join(out_dir("traces"), f"serve-sessions-{seed}.jsonl")
        traced["tracer"].write(trace_path)
        summary["trace_path"] = os.path.relpath(trace_path)
    summary["errors"] = errors[:20]
    return summary
