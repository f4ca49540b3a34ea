"""Fault-injection tests: the crash-safety claims, exercised for real.

Three layers:

* the :class:`FaultPlan` registry itself — arming, tags, counts, the
  ``REPRO_FAULTS`` spec grammar;
* atomic snapshot writes — a fault at any point of ``write_snapshot``
  (mid temp-file write, before the rename) must leave the previous file
  byte-identical and never a corrupt hybrid, and torn/corrupt files must
  be rejected cleanly on read;
* transactional batches — a batch that fails at *any* op index (injected
  or natural) must leave the session's engine state byte-identical to the
  pre-batch snapshot, which hypothesis checks across randomized programs.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serialize import SnapshotFormatError
from repro.serialize.snapshot import (
    dumps_document,
    engine_document,
    read_document,
    save_engine,
    write_snapshot,
)
from repro.session import CheckpointError, ProgramError, SessionManager
from repro.testing import FAULTS, FaultPlan, InjectedFault, trip


@pytest.fixture(autouse=True)
def _disarm():
    FAULTS.reset()
    yield
    FAULTS.reset()


# ---------------------------------------------------------------------------
# The FaultPlan registry
# ---------------------------------------------------------------------------


def test_unarmed_trip_is_a_no_op():
    trip("snapshot.write")
    trip("nonexistent.point", tag=42)


def test_armed_point_fires_then_disarms():
    FAULTS.arm("p", times=2)
    with pytest.raises(InjectedFault) as err:
        FAULTS.trip("p")
    assert err.value.point == "p"
    assert FAULTS.armed() == {"p": 1}
    with pytest.raises(InjectedFault):
        FAULTS.trip("p")
    FAULTS.trip("p")  # exhausted: back to a no-op
    assert FAULTS.armed() == {}


def test_tagged_fault_only_matches_its_tag():
    FAULTS.arm("p", tag=3)
    FAULTS.trip("p", tag=1)  # wrong tag: passes through
    FAULTS.trip("p")  # no tag: passes through
    with pytest.raises(InjectedFault) as err:
        FAULTS.trip("p", tag=3)
    assert err.value.tag == 3


def test_untagged_fault_matches_any_tag():
    FAULTS.arm("p")
    with pytest.raises(InjectedFault):
        FAULTS.trip("p", tag="anything")


def test_arm_validates_arguments():
    plan = FaultPlan()
    with pytest.raises(ValueError):
        plan.arm("p", times=0)
    with pytest.raises(ValueError):
        plan.arm("p", action="segfault")


def test_load_spec_grammar():
    plan = FaultPlan()
    plan.load_spec("a, b:3 ,c:2:raise")
    assert plan.armed() == {"a": 1, "b": 3, "c": 2}
    with pytest.raises(ValueError):
        plan.load_spec("a:1:raise:extra")
    with pytest.raises(ValueError):
        plan.load_spec(":2")


def test_reset_disarms_everything():
    FAULTS.arm("a")
    FAULTS.arm("b", times=5)
    FAULTS.reset()
    FAULTS.trip("a")
    FAULTS.trip("b")


def test_env_spec_arms_lazily(monkeypatch):
    monkeypatch.setenv("TEST_FAULTS", "p:2")
    plan = FaultPlan(env_var="TEST_FAULTS")
    assert plan.armed() == {"p": 2}
    with pytest.raises(InjectedFault):
        plan.trip("p")


def test_malformed_env_spec_raises_clearly_at_first_trip(monkeypatch):
    monkeypatch.setenv("TEST_FAULTS", ":2")
    plan = FaultPlan(env_var="TEST_FAULTS")
    with pytest.raises(ValueError, match="TEST_FAULTS"):
        plan.trip("p")
    plan.trip("p")  # reported once, loudly; later trips are plain no-ops


def test_malformed_env_spec_does_not_break_import(tmp_path):
    # The spec is parsed at first trip, never at import: a bad value must
    # not turn every ``import repro.*`` into a ValueError traceback.
    proc = subprocess.run(
        [sys.executable, "-c", "import repro.session.store; print('imported')"],
        env={**os.environ, "REPRO_FAULTS": "a:1:raise:extra"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "imported" in proc.stdout


# ---------------------------------------------------------------------------
# Atomic snapshot writes
# ---------------------------------------------------------------------------


def _fresh_session(program="(datatype M (N i64) (Plus M M))\n(let e (Plus (N 1) (N 2)))"):
    mgr = SessionManager()
    s = mgr.create_session()
    s.run_egg(program)
    return mgr, s


@pytest.mark.parametrize("point", ["snapshot.write", "snapshot.rename"])
def test_crashed_write_leaves_previous_snapshot_intact(tmp_path, point):
    _, s = _fresh_session()
    path = str(tmp_path / "snap.json")
    save_engine(s.engine, path)
    with open(path, "rb") as handle:
        before = handle.read()

    s.run_egg("(let f (N 9))")  # the state the doomed write would capture
    FAULTS.arm(point)
    with pytest.raises(InjectedFault):
        save_engine(s.engine, path)

    with open(path, "rb") as handle:
        assert handle.read() == before  # old snapshot untouched
    assert not os.path.exists(path + ".tmp")  # no stale temp debris
    read_document(path)  # and it still validates

    # Nothing latched: the very next save succeeds and supersedes it.
    save_engine(s.engine, path)
    with open(path, "rb") as handle:
        assert handle.read() != before
    read_document(path)


def test_crashed_first_write_leaves_no_file(tmp_path):
    _, s = _fresh_session()
    path = str(tmp_path / "snap.json")
    FAULTS.arm("snapshot.write")
    with pytest.raises(InjectedFault):
        save_engine(s.engine, path)
    assert not os.path.exists(path)
    assert not os.path.exists(path + ".tmp")


def test_truncated_snapshot_rejected(tmp_path):
    _, s = _fresh_session()
    path = str(tmp_path / "snap.json")
    save_engine(s.engine, path)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text[: len(text) // 2])  # a torn write, as a crash leaves it
    with pytest.raises(SnapshotFormatError):
        read_document(path)


def test_digest_mismatch_rejected(tmp_path):
    _, s = _fresh_session()
    path = str(tmp_path / "snap.json")
    document = save_engine(s.engine, path)
    document["digest"] = "0" * 64
    write_snapshot(document, path)
    with pytest.raises(SnapshotFormatError, match="digest"):
        read_document(path)


def test_corrupt_checkpoint_raises_checkpoint_error(tmp_path):
    mgr = SessionManager(state_dir=str(tmp_path))
    s = mgr.create_session()
    s.run_egg("(datatype M (N i64))")
    sid = s.id
    mgr.checkpoint_session(sid)
    # Passivate, so the next get() goes through restore.
    assert mgr._retire(mgr._sessions[sid])
    with open(mgr.store.path(sid), "a", encoding="utf-8") as handle:
        handle.write("garbage")  # bit rot
    with pytest.raises(CheckpointError, match="unreadable"):
        mgr.get(sid)
    assert mgr.stats()["durability"]["restore_failures"] == 1


def test_restore_fault_counts_as_restore_failure(tmp_path):
    # An injected "restore" fault takes the same exit as a real load
    # failure: CheckpointError through the manager, counted in stats —
    # never a raw InjectedFault escaping to a generic 500.
    mgr = SessionManager(state_dir=str(tmp_path))
    s = mgr.create_session()
    s.run_egg("(datatype M (N i64))")
    sid = s.id
    mgr.checkpoint_session(sid)
    assert mgr._retire(mgr._sessions[sid])  # the next get() goes through restore
    FAULTS.arm("restore", tag=sid)
    with pytest.raises(CheckpointError):
        mgr.get(sid)
    assert mgr.stats()["durability"]["restore_failures"] == 1
    # Disarmed now: the restore itself still works.
    assert mgr.get(sid).id == sid


def test_checkpoint_fault_keeps_session_live(tmp_path):
    mgr = SessionManager(max_sessions=1, state_dir=str(tmp_path))
    a = mgr.create_session()
    a.run_egg("(datatype M (N i64))\n(let x (N 1))")
    FAULTS.arm("checkpoint", tag=a.id)
    with pytest.raises(CheckpointError):
        mgr.create_session()  # eviction needs a's checkpoint, which fails
    # The victim survived with its state: no silent data loss.
    assert mgr.get(a.id) is a
    assert "x" in a.evaluator.globals
    assert mgr.stats()["durability"]["checkpoint_failures"] == 1
    # Disarmed now: the same admission succeeds and passivates a.
    mgr.create_session()
    assert mgr.store.contains(a.id)


# ---------------------------------------------------------------------------
# Transactional batches: byte-identity under arbitrary failure points
# ---------------------------------------------------------------------------

_SETUP = """
(datatype Math (Num i64) (Add Math Math))
(rewrite (Add a b) (Add b a))
(let seed (Add (Num 1) (Num 2)))
(run 2)
"""

def _num(n):
    return ["a", "Num", [["l", ["i64", n]]]]


#: A pool of op factories (parameterized by batch position so repeated
#: samples stay valid) to build randomized batches from.
_OP_POOL = [
    lambda k: {"op": "let", "name": f"t{k}", "term": ["a", "Add", [_num(3), _num(4)]]},
    lambda k: {"op": "add", "term": ["a", "Add", [_num(k), _num(k + 1)]]},
    lambda k: {"op": "union", "lhs": _num(7), "rhs": _num(8)},
    lambda k: {"op": "run", "limit": 2},
]


def _state_bytes(session):
    return dumps_document(engine_document(session.engine))


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(st.sampled_from(range(len(_OP_POOL))), min_size=1, max_size=5),
    data=st.data(),
)
def test_failed_batch_is_byte_identical_rollback(ops, data):
    FAULTS.reset()
    mgr, s = _fresh_session(_SETUP)
    before = _state_bytes(s)
    batch = [_OP_POOL[i](k) for k, i in enumerate(ops)]
    fail_at = data.draw(st.integers(min_value=0, max_value=len(batch)), label="fail_at")
    if fail_at == len(batch):
        batch.append({"op": "no-such-op"})  # natural failure at the tail
        expected = ProgramError
    else:
        FAULTS.arm("batch.op", tag=fail_at)  # injected failure mid-batch
        expected = InjectedFault
    try:
        with pytest.raises(expected):
            s.run_program(batch)
        assert _state_bytes(s) == before
        assert not any(name.startswith("t") for name in s.evaluator.globals)
        # The session is not poisoned: a clean batch still works after.
        s.run_program([{"op": "run", "limit": 1}])
    finally:
        FAULTS.reset()


def test_injected_egg_batch_failure_rolls_back():
    mgr, s = _fresh_session(_SETUP)
    before = _state_bytes(s)
    FAULTS.arm("egg.command", tag=1)
    with pytest.raises(InjectedFault):
        s.run_egg("(let t (Num 5))\n(union (Num 5) (Num 6))\n(run 1)")
    assert _state_bytes(s) == before
    assert "t" not in s.evaluator.globals
